"""Accuracy beside speed: heat kernel errors and the time rule's own numbers.

``potentials.heat_value.err`` and ``potentials.heat_weight.err`` are the
largest absolute errors of the heat upper potential (shift removed) and of
its weights at the pinned states in data/heat_refs.json, whose mpmath
references perfbench/refs.py computes without geostop.  The ``specfun``
figures are taken at the workload's stopping rate: time nodes seen by a
value and a weight evaluation, the order-12 against order-24 gap on the
two probe integrands ``exp_time_nodes`` checks itself with, and
``time_truncation_bound`` at the default settings for a unit-scale
integrand.  A figure the package can no longer provide reads -1.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "data" / "heat_refs.json"
UNAVAILABLE = -1.0


def heat_errors() -> dict:
    from geostop.potentials import heat_upper_handle

    err_v = err_w = 0.0
    for row in json.loads(REFS.read_text())["rows"]:
        handle = heat_upper_handle(row["n"], row["delta"])
        if abs(handle.kappa - row["kappa"]) > 1e-12 * row["kappa"]:
            raise ValueError(f"heat upper kappa changed at delta={row['delta']}")
        x = np.array(row["x"], dtype=float)
        value = handle.value(x) - handle.shift_constant
        err_v = max(err_v, abs(value - float(row["value"])))
        ref_w = np.array([float(w) for w in row["weights"]])
        err_w = max(err_w, float(np.max(np.abs(handle.gradient(x) - ref_w))))
    return {"potentials.heat_value.err": err_v,
            "potentials.heat_weight.err": err_w}


@contextlib.contextmanager
def _node_counter(seen: list):
    import geostop.potentials as potentials

    original = potentials.exp_time_nodes

    def counting(*args, **kwargs):
        t, w = original(*args, **kwargs)
        seen.append(len(t))
        return t, w

    potentials.exp_time_nodes = counting
    try:
        yield
    finally:
        potentials.exp_time_nodes = original


def time_rule(delta: float) -> dict:
    from geostop.potentials import heat_upper_handle
    from geostop.specfun import (QuadratureSettings, exp_time_nodes,
                                 time_truncation_bound)

    handle = heat_upper_handle(3, delta)
    x = np.array([2.0, 0.0, -2.0])
    value_nodes, weight_nodes = [], []
    with _node_counter(value_nodes):
        handle.value(x)
    with _node_counter(weight_nodes):
        handle.gradient(x)
    quad = QuadratureSettings()
    t12, w12 = exp_time_nodes(delta, quad, order=12)
    t24, w24 = exp_time_nodes(delta, quad, order=24)
    gap = max(abs(float(np.sum(w12 * g(t12)) - np.sum(w24 * g(t24))))
              for g in (lambda u: np.sqrt(-u), lambda u: 1.0 / np.sqrt(-u)))
    return {
        "specfun.time_nodes.value": max(value_nodes, default=0),
        "specfun.time_nodes.weight": max(weight_nodes, default=0),
        "specfun.time_rule.selfcheck_diff": gap,
        "specfun.truncation_bound": time_truncation_bound(delta, quad, 1.0),
    }


HEAT_NAMES = ("potentials.heat_value.err", "potentials.heat_weight.err")
RULE_NAMES = ("specfun.time_nodes.value", "specfun.time_nodes.weight",
              "specfun.time_rule.selfcheck_diff", "specfun.truncation_bound")


def metrics(delta: float) -> dict:
    out = {}
    for probe, names in ((heat_errors, HEAT_NAMES),
                         (lambda: time_rule(delta), RULE_NAMES)):
        try:
            out.update(probe())
        except (AttributeError, ImportError, TypeError, ValueError) as exc:
            print(f"accuracy: {exc!r}; reporting {UNAVAILABLE}", file=sys.stderr)
            out.update(dict.fromkeys(names, UNAVAILABLE))
    return out
