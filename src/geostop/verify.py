"""Numerical certification of the differential conditions behind each bound.

A lower-bound potential u must satisfy, at every state x,

    u(x) <= max_i x_i + (1-d)/(2d) E_a <D^2 u(x) q, q>

for its matching adversary a; an upper-bound potential w must satisfy

    w(x) >= max_i x_i + (1-d)/(2d) max_{q in [-1,1]^n} <D^2 w(x) q, q>

and be nondecreasing in every coordinate.  These checks evaluate both
sides by batched finite differences at sampled states and report every
violation beyond tolerance; the cube maximum is bounded by the sign-vertex
maximum plus the negative part of the Hessian's diagonal; the vertices come
from strategies.sign_vertices, so past n = 20 the upper suite raises
ValueError before any Hessian.  Final-time
proximity to the max and exact behaviour under adding a multiple of the
all-ones vector are checked the same way.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .game import _check_tol
from .potentials import (
    PotentialHandle,
    exp_handle,
    fd_gradient_batch,
    fd_hessian_batch,
    fd_step,
    heat_lower_handle,
    heat_upper_handle,
    max_lower_handle,
    max_upper_handle,
)
from .strategies import AdversaryStrategy, make_adversary, sign_vertices

SUITES = ("lower", "upper", "final-time", "translation", "gradients", "all")

# translation check: allowed |u(x + c 1) - u(x) - c|; monotonicity check:
# allowed negative gradient entry and value drop under a coordinate bump
_SHIFT_TOL = 1e-8
_MONO_TOL = 1e-10


@dataclass
class CheckReport:
    """One check over a sample of states: violation count and worst margin."""

    name: str
    family: str
    side: str
    n: int
    delta: float
    samples: int
    violations: int
    worst_margin: float
    tol: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        d = asdict(self)
        details = d.pop("details")
        d["passed"] = self.passed
        d.update({f"detail_{k}": v for k, v in details.items()})
        return d


def sample_states(n: int, delta: float, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """States in a ball of radius 20/sqrt(delta) plus structured corner cases.

    The structured rows cover the origin, all-ones shifts, exact ties,
    near-ties, and a dominant coordinate, where the potentials are least
    smooth.  Raises ValueError for n below two or a count below one.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if count < 1:
        raise ValueError(f"samples must be at least 1, got {count}")
    radius = 20.0 / math.sqrt(delta)
    structured = [
        np.zeros(n),
        np.full(n, 3.0),
        np.full(n, -3.0),
        np.concatenate([[radius / 2], np.zeros(n - 1)]),
        np.concatenate([[radius / 4, radius / 4], np.zeros(n - 2)]),
        np.concatenate([[radius / 4, radius / 4 - 1e-3], np.zeros(n - 2)]),
        np.arange(n, dtype=float) * 2.0,
        -np.arange(n, dtype=float) * 2.0,
    ]
    structured = np.array(structured)[:count]
    m = count - structured.shape[0]
    if m > 0:
        raw = rng.standard_normal((m, n))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        random = raw * (radius * rng.random((m, 1)) ** (1.0 / n))
        return np.vstack([structured, random])
    return structured


def _worst(report_margins: np.ndarray, xs: np.ndarray) -> dict:
    i = int(np.argmax(report_margins))
    return {"worst_state": [float(v) for v in xs[i]]}


def check_lower_condition(handle: PotentialHandle,
                          adversary: AdversaryStrategy,
                          xs: np.ndarray, tol: float = 1e-4) -> CheckReport:
    """Potential <= max coordinate + curvature term under the adversary's law."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = xs.shape
    d = handle.delta
    c = (1.0 - d) / (2.0 * d)
    support, probs = adversary.outcomes_batch(xs)
    k = support.shape[1]
    steps = np.array([fd_step(2, x) for x in xs])
    pts = np.concatenate([
        xs[:, None, :] + steps[:, None, None] * support,
        xs[:, None, :] - steps[:, None, None] * support,
    ], axis=1).reshape(2 * m * k, n)
    vals = handle.value_batch(np.vstack([xs, pts]))
    v0 = vals[:m]
    rest = vals[m:].reshape(m, 2, k)
    d2 = (rest[:, 0, :] - 2.0 * v0[:, None] + rest[:, 1, :]) / steps[:, None] ** 2
    curvature = (probs[None, :] * d2).sum(axis=1)
    margins = v0 - xs.max(axis=1) - c * curvature
    violations = int(np.sum(margins > tol))
    return CheckReport("lower_condition", handle.family, handle.side, n, d,
                       m, violations, float(margins.max()), tol,
                       _worst(margins, xs))


def _cube_form_bound(hess: np.ndarray,
                     signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper bound on max over q in [-1,1]^n of q^T H q, and its slack s.

    q^T H q is a parabola in each q_i with leading coefficient H_ii, so
    with s = sum_i max(0, -H_ii), q^T (H + diag(max(0, -H_ii))) q peaks at
    a sign vertex and vertex_max(H) <= cube_max(H) <= vertex_max(H) + s.
    signs holds one vertex of each pair +-q: sign_vertices' q_1 = +1 rows.
    """
    signs = np.asarray(signs, dtype=float)
    vertex = np.einsum("ki,bij,kj->bk", signs, hess, signs).max(axis=1)
    slack = np.maximum(-np.diagonal(hess, axis1=1, axis2=2), 0.0).sum(axis=1)
    return vertex + slack, slack


def check_upper_condition(handle: PotentialHandle, xs: np.ndarray,
                          tol: float) -> CheckReport:
    """Potential >= max coordinate + worst-case curvature over the cube.

    The cube maximum is _cube_form_bound's upper bound, so a pass holds for
    the exact maximum; the largest slack is reported as diagonal_slack.
    For the softmax family the form is also checked against its cap eta.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = xs.shape
    d = handle.delta
    c = (1.0 - d) / (2.0 * d)
    signs = sign_vertices(n)[2 ** (n - 1):]  # refuses n > 20 first
    hess = fd_hessian_batch(handle.value_batch, xs)
    form_max, slack = _cube_form_bound(hess, signs)
    v0 = np.asarray(handle.value_batch(xs))
    margins = xs.max(axis=1) + c * form_max - v0
    violations = int(np.sum(margins > tol))
    details = _worst(margins, xs)
    details["diagonal_slack"] = float(slack.max())
    if handle.family == "exp_weights":
        cap_margin = float(np.max(form_max) - handle.eta)
        details["eta_cap_margin"] = cap_margin
        violations += int(cap_margin > tol)
    return CheckReport("upper_condition", handle.family, handle.side, n, d,
                       m, violations, float(margins.max()), tol, details)


def check_final_time(handle: PotentialHandle, xs: np.ndarray,
                     tol: float = 1e-8) -> CheckReport:
    """Fixed-time potential at t = -delta stays within its shift constant of the max.

    Heat: |phi(x,-d) - max| <= sqrt(2 kappa d) E[max Y].  Max family:
    0 <= psi(x,-d) - max <= 2 sqrt(kappa d / pi)(n-1)/n.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = xs.shape
    diff = handle.fixed_value_batch(xs, -handle.delta) - xs.max(axis=1)
    if handle.family == "heat":
        margins = np.abs(diff) - handle.shift_constant
    else:
        margins = np.maximum(-diff, diff - handle.shift_constant)
    violations = int(np.sum(margins > tol))
    return CheckReport("final_time", handle.family, handle.side, n,
                       handle.delta, m, violations, float(margins.max()), tol,
                       _worst(margins, xs))


def check_translation_and_monotone(
        handle: PotentialHandle, xs: np.ndarray,
        rng: np.random.Generator) -> CheckReport:
    """Adding c to every coordinate adds c to the value; gradients stay nonnegative."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = xs.shape
    c = rng.uniform(-5.0, 5.0, size=m)
    base = np.asarray(handle.value_batch(xs))
    shifted = np.asarray(handle.value_batch(xs + c[:, None]))
    shift_err = np.abs(shifted - base - c)
    grads = handle.gradient_batch(xs)
    bump = 0.5
    i = rng.integers(0, n, size=m)
    bumped = xs.copy()
    bumped[np.arange(m), i] += bump
    mono_err = base - np.asarray(handle.value_batch(bumped))
    margins = np.maximum(shift_err - _SHIFT_TOL,
                         np.maximum(-grads.min(axis=1) - _MONO_TOL,
                                    mono_err - _MONO_TOL))
    violations = int(np.sum(margins > 0))
    return CheckReport("translation_monotone", handle.family, handle.side,
                       n, handle.delta, m, violations, float(margins.max()),
                       _SHIFT_TOL, _worst(margins, xs))


def check_gradient_consistency(handle: PotentialHandle, xs: np.ndarray,
                               tol: float = 1e-6) -> CheckReport:
    """Analytic gradients match central differences of the value.

    Rows whose ranked gaps sit inside the difference stencil are skipped
    for the max family (the analytic form picks a one-sided branch there)
    and reported in the details.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = xs.shape
    keep = np.ones(m, dtype=bool)
    if handle.family == "max":
        srt = -np.sort(-xs, axis=1)
        gaps = srt[:, :-1] - srt[:, 1:]
        h = np.array([fd_step(1, x) for x in xs])
        keep = ~np.any((gaps > 0) & (gaps < 4.0 * h[:, None]), axis=1)
    xs_kept = xs[keep]
    analytic = handle.gradient_batch(xs_kept)
    numeric = fd_gradient_batch(handle.value_batch, xs_kept)
    err = np.abs(analytic - numeric).max(axis=1)
    margins = err - tol
    violations = int(np.sum(margins > 0))
    details = _worst(margins, xs_kept) if xs_kept.size else {}
    details["skipped_near_ties"] = int(m - keep.sum())
    return CheckReport("gradient_consistency", handle.family, handle.side,
                       n, handle.delta, int(keep.sum()), violations,
                       float(margins.max()) if xs_kept.size else -tol,
                       tol, details)


def _handles(n: int, delta: float) -> dict[str, PotentialHandle]:
    return {
        "heat_lower": heat_lower_handle(n, delta),
        "heat_upper": heat_upper_handle(n, delta),
        "max_lower": max_lower_handle(n, delta),
        "max_upper": max_upper_handle(n, delta),
        "exp": exp_handle(n, delta),
    }


def run_suite(suite: str = "all", n: int = 3, delta: float = 0.1,
              samples: int = 200, tol: float = 1e-4,
              seed: int = 0) -> dict[str, CheckReport]:
    """Run one named suite (or all) and return reports keyed by check name."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}")
    _check_tol(tol)
    rng = np.random.default_rng(seed)
    xs = sample_states(n, delta, samples, rng)
    h = _handles(n, delta)
    reports: dict[str, CheckReport] = {}

    if suite in ("lower", "all"):
        reports["lower_heat"] = check_lower_condition(
            h["heat_lower"], make_adversary("heat", n), xs, tol)
        reports["lower_max"] = check_lower_condition(
            h["max_lower"], make_adversary("max", n), xs, tol)
    if suite in ("upper", "all"):
        for key, name in (("heat_upper", "upper_heat"),
                          ("max_upper", "upper_max"), ("exp", "upper_exp")):
            reports[name] = check_upper_condition(h[key], xs, tol)
    if suite in ("final-time", "all"):
        for key in ("heat_lower", "heat_upper", "max_lower", "max_upper"):
            reports[f"final_time_{key}"] = check_final_time(h[key], xs)
    if suite in ("translation", "all"):
        for key in ("heat_lower", "heat_upper", "max_lower", "max_upper", "exp"):
            reports[f"translation_{key}"] = check_translation_and_monotone(
                h[key], xs, rng)
    if suite in ("gradients", "all"):
        for key in ("heat_lower", "heat_upper", "max_lower", "max_upper", "exp"):
            reports[f"gradients_{key}"] = check_gradient_consistency(h[key], xs)
    return reports
