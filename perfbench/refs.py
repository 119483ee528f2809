"""Regenerate the reference data the benchmark checks against.

    python3 perfbench/refs.py heat     # mpmath references for heat values/weights
    python3 perfbench/refs.py frozen   # frozen outputs of the benchmarked commands

``heat`` is independent of geostop: it evaluates the time-weighted heat
potential and its weights in arbitrary precision from the definition

    V(x) = e^d int_{-inf}^{-d} e^t E[max_k (x_k + sigma(t) Z_k)] dt,
    sigma(t)^2 = 2 kappa |t|,  kappa = (1-d)/d  (the heat upper handle),

writing E[max] as sum_i E[W_i 1{W_i is largest}] rather than the tail
identity the package uses.  Each integral is a composite Gauss-Legendre
rule in mpmath, computed at two orders; the stored ``ref_err`` is their
difference, so a reference is only trusted to that level.

``frozen`` records, from the package as it stands, the outputs the
benchmark's correctness checks compare against: oracle origin brackets,
bound-table potentials at the origin and the zero-error bound intervals
used to judge Monte Carlo means.  Rerun it only when a change to those
outputs is intended and explained.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

# n=3 states on the even lattice the game visits, from the origin out to a
# clear leader, at the two stopping rates the workloads use.
HEAT_STATES = ([0, 0, 0], [2, 0, -2], [6, 4, 0], [14, -6, 2])
HEAT_DELTAS = (0.05, 0.01)


def _heat_reference(x, delta, degree):
    import mpmath as mp
    from mpmath.calculus.quadrature import GaussLegendre

    mp.mp.dps = 20
    rule = GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec)

    def panels(edges):
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half, mid = (b - a) / 2, (a + b) / 2
            for u, w in rule:
                nodes.append(mid + half * u)
                weights.append(half * w)
        return nodes, weights

    n = len(x)
    x = [mp.mpf(v) for v in x]
    delta = mp.mpf(delta)
    kappa = (1 - delta) / delta
    # the standard normal factor is below 1e-31 outside [-12, 12]
    ys, yw = panels([mp.mpf(v) for v in range(-12, 13, 3)])
    y_pdf = [w * mp.npdf(y) for y, w in zip(ys, yw)]
    # e^{-s^2} is below 1e-21 past s = 7
    s_edges = [mp.sqrt(delta)] + [mp.mpf(v) for v in
                                  ("0.25", "0.5", "1", "1.5", "2", "2.5",
                                   "3", "4", "5", "7")]
    ss, sw = panels(s_edges)

    value = mp.mpf(0)
    weights = [mp.mpf(0)] * n
    for s, w in zip(ss, sw):
        sigma = mp.sqrt(2 * kappa) * s
        tw = w * 2 * s * mp.exp(delta - s * s)
        for i in range(n):
            p_i = m_i = mp.mpf(0)
            for y, pw in zip(ys, y_pdf):
                prod = pw
                for j in range(n):
                    if j != i:
                        prod *= mp.ncdf(y + (x[i] - x[j]) / sigma)
                p_i += prod
                m_i += y * prod
            weights[i] += tw * p_i
            value += tw * (x[i] * p_i + sigma * m_i)
    total = sum(weights)
    return value, [wi / total for wi in weights]


def make_heat_refs() -> None:
    rows = []
    for delta in HEAT_DELTAS:
        for x in HEAT_STATES:
            start = time.perf_counter()
            v_lo, w_lo = _heat_reference(x, delta, 4)
            v_hi, w_hi = _heat_reference(x, delta, 5)
            ref_err = max([abs(v_hi - v_lo)]
                          + [abs(a - b) for a, b in zip(w_hi, w_lo)])
            rows.append({
                "n": 3, "delta": delta, "kappa": (1.0 - delta) / delta,
                "x": x, "value": str(v_hi), "weights": [str(w) for w in w_hi],
                "ref_err": float(ref_err),
            })
            print(f"delta={delta} x={x} ref_err={float(ref_err):.1e} "
                  f"({time.perf_counter() - start:.0f} s)", file=sys.stderr)
    doc = {"about": "mpmath references for the unshifted heat upper potential "
                    "value and its normalized weights; see perfbench/refs.py",
           "rows": rows}
    (DATA / "heat_refs.json").write_text(json.dumps(doc, indent=1) + "\n")


def make_frozen() -> None:
    sys.path.insert(0, str(HERE))
    import run

    geostop = run.import_geostop()
    from geostop.bounds import ErrorConstants, heat_bounds, max_bounds

    doc = {"about": "outputs of the seed package that the benchmark's "
                    "correctness checks compare against; see perfbench/refs.py",
           "oracle_origin_lower": {}, "oracle_states": {},
           "bounds_potential0": {}, "simulate_bounds": {}}
    for size in (run.FULL, run.TINY):
        for argv in run.lattice_argvs(size, 0):
            rc, payload, _ = run.call_cli(geostop, argv)
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)} exited {rc}")
            key = run.oracle_key(argv)
            doc["oracle_origin_lower"][key] = repr(payload["origin_bracket"][0])
            doc["oracle_states"][key] = payload["states"]
    for argv in (run.bounds_argv(size, 0) for size in (run.FULL, run.TINY)):
        rc, rows, _ = run.call_cli(geostop, argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}")
        for row in rows:
            doc["bounds_potential0"][run.bounds_key(row)] = row["potential0"]
    zero = ErrorConstants.zero()
    for kind, family_bounds in (("heat", heat_bounds), ("max", max_bounds)):
        lo, hi = family_bounds(run.MC_N, run.MC_DELTA, zero)
        doc["simulate_bounds"][kind] = [repr(lo.bound), repr(hi.bound)]
    (DATA / "frozen.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "heat":
        make_heat_refs()
    elif what == "frozen":
        make_frozen()
    else:
        raise SystemExit("usage: python3 perfbench/refs.py heat|frozen")
