"""Command line front end: bound tables, figures, simulation and oracle runs.

Every command is deterministic given its flags.  Machine-readable output
goes to stdout (CSV or JSON), human summaries to stderr.  Exit codes:
0 success, 1 a checked assertion failed, 2 usage error.  Flag values win
over ``--config`` key=value entries, which win over built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import (ErrorConstants, REPORT_FIELDS, comparison_curves,
                     estimate_error_constants, exp_weights_bound, heat_bounds,
                     max_bounds)
from .oracle import (adversary_sandwich, check_lattice, player_sandwich,
                     potential_upper_source, value_iteration_adversary,
                     value_iteration_player)
from .potentials import (exp_handle, heat_lower_handle, heat_upper_handle,
                         max_lower_handle, max_upper_handle)
from .simulate import SimulationConfig, run
from .strategies import (ADVERSARY_KINDS, PLAYER_KINDS, make_adversary,
                         make_player)
from .verify import SUITES, run_suite

_REQUIRED = object()

_FAMILY_CHOICES = ("exp", "heat", "max")

# how to read config-file strings for each option; anything absent is a string
_OPTION_TYPES = {
    "n": int, "trials": int, "seed": int, "radius": int, "samples": int,
    "threads": int, "max_rounds_cap": int,
    "delta": float, "tol": float,
    "log_x": bool, "json": bool, "outcomes": bool,
}

_CSV_EXTRA = ("c_n_zero_error", "gravin_lower_c", "gravin_upper_c")

_CURVE_COLORS = {
    "heat lower": "#1f77b4",
    "heat upper": "#ff7f0e",
    "max lower": "#2ca02c",
    "max upper": "#d62728",
    "exp upper": "#9467bd",
    "gravin lower asymptote": "#7f7f7f",
    "gravin upper": "#17becf",
}


def _read_config(path: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; dashes normalize to underscores."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.strip()!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _coerce(key: str, text: str):
    kind = _OPTION_TYPES.get(key, str)
    if kind is bool:
        return text.lower() in ("1", "true", "yes", "on")
    return kind(text)


def _settle(parser: argparse.ArgumentParser, args: argparse.Namespace,
            defaults: dict) -> dict:
    """Merge defaults, config-file entries, and explicit flags, in that order."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            entries = _read_config(config_path)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        unknown = sorted(set(entries) - set(defaults))
        if unknown:
            parser.error(f"unknown config keys: {', '.join(unknown)}")
        for key, text in entries.items():
            try:
                merged[key] = _coerce(key, text)
            except ValueError:
                parser.error(f"bad config value for {key}: {text!r}")
    for key in defaults:
        if hasattr(args, key):
            merged[key] = getattr(args, key)
    missing = [k for k, v in merged.items() if v is _REQUIRED]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        parser.error(f"missing required option(s): {flags}")
    return merged


def _parse_n_values(parser, ns) -> list[int]:
    if ns["n"] is not None and ns["n_range"] is not None:
        parser.error("give either --n or --n-range, not both")
    if ns["n"] is not None:
        return [int(ns["n"])]
    spec = ns["n_range"]
    if spec is None:
        parser.error("one of --n or --n-range is required")
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        parser.error("--n-range must look like FIRST:LAST or FIRST:LAST:STEP")
    try:
        first, last = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        parser.error("--n-range parts must be integers")
    if first < 2 or last < first or step < 1:
        parser.error("--n-range needs 2 <= FIRST <= LAST and STEP >= 1")
    return list(range(first, last + 1, step))


def _parse_families(parser, text: str) -> list[str]:
    if text == "all":
        return list(_FAMILY_CHOICES)
    names = [t.strip() for t in text.split(",") if t.strip()]
    bad = sorted(set(names) - set(_FAMILY_CHOICES))
    if bad or not names:
        parser.error(f"--families takes 'all' or a comma list from "
                     f"{_FAMILY_CHOICES}, got {text!r}")
    return names


def _reports_for(n: int, delta: float, families: list[str],
                 errors: ErrorConstants):
    out = []
    if "heat" in families:
        out.extend(heat_bounds(n, delta, errors))
    if "max" in families:
        out.extend(max_bounds(n, delta, errors))
    if "exp" in families:
        out.append(exp_weights_bound(n, delta))
    return out


def _bound_rows(parser, ns) -> list[dict]:
    """Shared table builder for the bounds and figure commands."""
    n_values = _parse_n_values(parser, ns)
    families = _parse_families(parser, ns["families"])
    delta = float(ns["delta"])
    rows = []
    for n in n_values:
        if ns.get("errors", "zero") == "estimated":
            errors = estimate_error_constants(n, delta, seed=int(ns["seed"]))
        else:
            errors = ErrorConstants.zero()
        curves = comparison_curves(n, delta)
        scale = math.sqrt(delta)
        for rep in _reports_for(n, delta, families, errors):
            row = dict(zip(REPORT_FIELDS, rep.csv_row()))
            row["c_n_zero_error"] = repr(rep.potential_at_zero * scale)
            row["gravin_lower_c"] = repr(curves["gravin_lower_asymptote"] * scale)
            row["gravin_upper_c"] = repr(curves["gravin_upper"] * scale)
            rows.append(row)
    return rows


def _write_csv(rows: list[dict], stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=list(REPORT_FIELDS) + list(_CSV_EXTRA))
    writer.writeheader()
    writer.writerows(rows)


def cmd_bounds(parser, ns) -> int:
    rows = _bound_rows(parser, ns)
    if ns["json"]:
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        _write_csv(rows, buf)
        text = buf.getvalue()
    if ns["out"]:
        with open(ns["out"], "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"bounds: {len(rows)} rows at delta={ns['delta']}", file=sys.stderr)
    return 0


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _render_svg(curves: list[tuple[str, list[float], list[float]]],
                title: str, x_label: str, log_x: bool) -> str:
    """Dependency-free line plot; output depends only on the data."""
    width, height = 760, 500
    left, right, top, bottom = 70, 200, 46, 56
    plot_w, plot_h = width - left - right, height - top - bottom

    xs_all = [v for _, xs, _ in curves for v in xs]
    ys_all = [v for _, _, ys in curves for v in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(x: float) -> float:
        return left + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return top + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-family="monospace" font-size="15">'
        f'{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in _nice_ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{left + plot_w}" '
                     f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{t:g}</text>')
    if log_x:
        x_ticks = [t for t in (2, 5, 10, 20, 50, 100, 1000, 10000)
                   if x_lo - 1e-9 <= math.log10(t) <= x_hi + 1e-9]
        positions = [math.log10(t) for t in x_ticks]
    else:
        positions = _nice_ticks(x_lo, x_hi, 8)
        x_ticks = positions
    for label, pos in zip(x_ticks, positions):
        x = sx(pos)
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" '
                     f'y2="{top + plot_h + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 20}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{label:g}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.2f}" y="{height - 14}" '
                 f'text-anchor="middle" font-family="monospace" '
                 f'font-size="12">{x_label}</text>')

    legend_y = top + 10
    for label, xs, ys in curves:
        color = _CURVE_COLORS.get(label, "#000000")
        dashed = label.startswith("gravin")
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"{dash}/>')
        lx = left + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 26}" '
                     f'y2="{legend_y}" stroke="{color}" stroke-width="1.6"{dash}/>')
        parts.append(f'<text x="{lx + 32}" y="{legend_y + 4}" '
                     f'font-family="monospace" font-size="11">{label}</text>')
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(parser, ns) -> int:
    rows = _bound_rows(parser, ns)
    by_curve: dict[str, tuple[list[float], list[float]]] = {}
    for row in rows:
        label = f"{row['family'].replace('_weights', '')} {row['side']}"
        xs, ys = by_curve.setdefault(label, ([], []))
        x = math.log10(int(row["n"])) if ns["log_x"] else float(row["n"])
        xs.append(x)
        ys.append(float(row["c_n_zero_error"]))
    seen_n = sorted({int(row["n"]) for row in rows})
    for key in ("gravin_lower_c", "gravin_upper_c"):
        label = key.replace("_c", "").replace("_", " ")
        if key == "gravin_lower_c":
            label = "gravin lower asymptote"
        vals = {int(row["n"]): float(row[key]) for row in rows}
        xs = [math.log10(n) if ns["log_x"] else float(n) for n in seen_n]
        by_curve[label] = (xs, [vals[n] for n in seen_n])

    delta = float(ns["delta"])
    title = f"Normalized bound constants at delta={delta:g}"
    x_label = "log10 N" if ns["log_x"] else "N"
    curves = [(label, xs, ys) for label, (xs, ys) in by_curve.items()]
    svg = _render_svg(curves, title, x_label, ns["log_x"])

    out = ns["out"]
    with open(out + ".svg", "w", newline="") as fh:
        fh.write(svg)
    with open(out + ".csv", "w", newline="") as fh:
        _write_csv(rows, fh)
    print(f"figure: wrote {out}.svg and {out}.csv ({len(rows)} rows)",
          file=sys.stderr)
    return 0


def cmd_simulate(parser, ns) -> int:
    cfg = SimulationConfig(
        n=int(ns["n"]), delta=float(ns["delta"]),
        player=make_player(ns["player"], int(ns["n"]), float(ns["delta"])),
        adversary=make_adversary(ns["adversary"], int(ns["n"])),
        trials=int(ns["trials"]), seed=int(ns["seed"]),
        max_rounds_cap=ns["max_rounds_cap"])
    result = run(cfg, threads=ns["threads"], collect_outcomes=ns["outcomes"])
    payload = {
        "n": cfg.n, "delta": cfg.delta, "player": ns["player"],
        "adversary": ns["adversary"], "trials": cfg.trials, "seed": cfg.seed,
    }
    payload.update(result.to_dict())
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    if ns["out"]:
        with open(ns["out"], "w", newline="") as fh:
            fh.write(text)
    print(f"simulate: mean regret {result.mean_regret:.4f} "
          f"+- {result.std_error:.4f} over {result.trials_used} trials "
          f"(mean rounds {result.mean_rounds:.1f})", file=sys.stderr)
    return 0


_ADVERSARY_BOUNDS = {"heat": (heat_lower_handle, heat_bounds, 0),
                     "max": (max_lower_handle, max_bounds, 0)}
_PLAYER_BOUNDS = {"heat": (heat_upper_handle, heat_bounds, 1),
                  "max": (max_upper_handle, max_bounds, 1)}


def _oracle_error(ns, n: int, delta: float, family_bounds, idx: int):
    """Error term of one bound report and its mode, as --errors selects."""
    if ns["errors"] == "estimated":
        constants = estimate_error_constants(n, delta, seed=int(ns["seed"]))
        mode = "numerically_estimated"
    else:
        constants = ErrorConstants.zero()
        mode = "user_supplied"
    return family_bounds(n, delta, constants)[idx].error_term, mode


def cmd_oracle(parser, ns) -> int:
    if (ns["adversary"] is None) == (ns["player"] is None):
        parser.error("give exactly one of --adversary or --player")
    n, delta = int(ns["n"]), float(ns["delta"])
    radius, tol = int(ns["radius"]), float(ns["tol"])
    # refuse an oversized lattice before estimating any error constant
    check_lattice(n, radius)

    if ns["adversary"] is not None:
        kind = ns["adversary"]
        make_handle, family_bounds, idx = _ADVERSARY_BOUNDS[kind]
        handle = make_handle(n, delta)
        lvf = value_iteration_adversary(make_adversary(kind, n), n, delta,
                                        radius, tol)
        err, mode = _oracle_error(ns, n, delta, family_bounds, idx)
        report = adversary_sandwich(lvf, handle, err, mode, tol)
        role = "adversary"
    else:
        kind = ns["player"]
        if kind == "exp":
            handle, err, mode = exp_handle(n, delta), 0.0, "exact"
        else:
            make_handle, family_bounds, idx = _PLAYER_BOUNDS[kind]
            handle = make_handle(n, delta)
            err, mode = _oracle_error(ns, n, delta, family_bounds, idx)
        lvf = value_iteration_player(
            make_player(kind, n, delta), n, delta, radius, tol,
            upper_bound=potential_upper_source(handle, err))
        report = player_sandwich(lvf, handle, err, mode, tol)
        role = "player"

    if ns["out"]:
        with open(ns["out"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"d{j + 1}" for j in range(n - 1)]
                            + ["lower", "upper"])
            for state, lo, hi in zip(lvf.states.tolist(), lvf.lower, lvf.upper):
                writer.writerow(state + [repr(float(lo)), repr(float(hi))])

    payload = {
        "role": role, "kind": kind, "n": n, "delta": delta,
        "radius": radius, "tol": tol, "states": int(lvf.states.shape[0]),
        "value_at_origin": lvf.value_at_origin(),
        "origin_bracket": list(lvf.bracket(np.zeros(n - 1, dtype=np.int64))),
        "residual": lvf.residual, "fixed_point_gap": lvf.fixed_point_gap,
        "sweeps": lvf.sweeps, "sandwich": report.to_dict(),
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    state_word = "pass" if report.passed else "FAIL"
    print(f"oracle: {role} {kind} v(0)={lvf.value_at_origin():.6f} "
          f"sandwich {state_word} (worst margin {report.worst_margin:+.3e})",
          file=sys.stderr)
    return 0 if report.passed else 1


def cmd_verify(parser, ns) -> int:
    reports = run_suite(ns["suite"], n=int(ns["n"]), delta=float(ns["delta"]),
                        samples=int(ns["samples"]), tol=float(ns["tol"]),
                        seed=int(ns["seed"]))
    passed = all(rep.passed for rep in reports.values())
    payload = {
        "suite": ns["suite"], "n": int(ns["n"]), "delta": float(ns["delta"]),
        "samples": int(ns["samples"]), "tol": float(ns["tol"]),
        "passed": passed,
        "reports": {name: rep.to_dict() for name, rep in reports.items()},
    }
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    if ns["out"]:
        with open(ns["out"], "w", newline="") as fh:
            fh.write(text)
    for name, rep in sorted(reports.items()):
        print(f"verify: {name}: {rep.violations} violations over "
              f"{rep.samples} states (worst margin {rep.worst_margin:+.3e})",
              file=sys.stderr)
    return 0 if passed else 1


_DEFAULTS = {
    "bounds": {"n": None, "n_range": None, "delta": _REQUIRED,
               "families": "all", "errors": "zero", "seed": 0,
               "json": False, "out": None, "config": None},
    "figure": {"n": None, "n_range": "2:50", "delta": 1e-6,
               "families": "all", "errors": "zero", "seed": 0,
               "log_x": False, "out": "figure", "config": None},
    "simulate": {"n": _REQUIRED, "delta": _REQUIRED, "player": "heat",
                 "adversary": "heat", "trials": 10000, "seed": 0,
                 "threads": None, "max_rounds_cap": None, "outcomes": False,
                 "out": None, "config": None},
    "oracle": {"n": _REQUIRED, "delta": _REQUIRED, "adversary": None,
               "player": None, "radius": 60, "tol": 1e-8,
               "errors": "estimated", "seed": 0, "out": None, "config": None},
    "verify": {"suite": "all", "n": 3, "delta": 0.1, "samples": 200,
               "tol": 1e-4, "seed": 0, "out": None, "config": None},
}

_RUNNERS = {"bounds": cmd_bounds, "figure": cmd_figure,
            "simulate": cmd_simulate, "oracle": cmd_oracle,
            "verify": cmd_verify}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=argparse.SUPPRESS,
                     help="key=value file supplying defaults for any flag")
    sub.add_argument("--out", default=argparse.SUPPRESS,
                     help="write primary output to this path")
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     help="seed for any randomized step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geostop",
        description="Regret bounds, strategies, and checks for the stopped "
                    "experts game.")
    parser.add_argument("--version", action="version",
                        version=f"geostop {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    sup = argparse.SUPPRESS

    p = subs.add_parser("bounds", help="tabulate bound reports over N")
    p.add_argument("--n", type=int, default=sup)
    p.add_argument("--n-range", default=sup, metavar="FIRST:LAST[:STEP]")
    p.add_argument("--delta", type=float, default=sup)
    p.add_argument("--families", default=sup,
                   help="'all' or comma list of exp,heat,max")
    p.add_argument("--errors", choices=("zero", "estimated"), default=sup)
    p.add_argument("--json", action="store_true", default=sup,
                   help="emit JSON instead of CSV")
    _add_common(p)

    p = subs.add_parser("figure", help="render the C_N comparison plot")
    p.add_argument("--n", type=int, default=sup)
    p.add_argument("--n-range", default=sup, metavar="FIRST:LAST[:STEP]")
    p.add_argument("--delta", type=float, default=sup)
    p.add_argument("--families", default=sup)
    p.add_argument("--errors", choices=("zero", "estimated"), default=sup)
    p.add_argument("--log-x", action="store_true", default=sup)
    _add_common(p)

    p = subs.add_parser("simulate", help="Monte Carlo matchup")
    p.add_argument("--n", type=int, default=sup)
    p.add_argument("--delta", type=float, default=sup)
    p.add_argument("--player", choices=PLAYER_KINDS, default=sup)
    p.add_argument("--adversary", choices=ADVERSARY_KINDS, default=sup)
    p.add_argument("--trials", type=int, default=sup)
    p.add_argument("--threads", type=int, default=sup,
                   help="worker threads (capped by GEOSTOP_THREADS)")
    p.add_argument("--max-rounds-cap", type=int, default=sup)
    p.add_argument("--outcomes", action="store_true", default=sup,
                   help="also report per-coordinate outcome means")
    _add_common(p)

    p = subs.add_parser("oracle", help="lattice value iteration and sandwich")
    p.add_argument("--n", type=int, default=sup)
    p.add_argument("--delta", type=float, default=sup)
    p.add_argument("--adversary", choices=ADVERSARY_KINDS, default=sup)
    p.add_argument("--player", choices=("exp", "heat", "max"), default=sup)
    p.add_argument("--radius", type=int, default=sup)
    p.add_argument("--tol", type=float, default=sup)
    p.add_argument("--errors", choices=("zero", "estimated"), default=sup)
    _add_common(p)

    p = subs.add_parser("verify", help="potential condition suites")
    p.add_argument("--suite", choices=SUITES, default=sup)
    p.add_argument("--n", type=int, default=sup)
    p.add_argument("--delta", type=float, default=sup)
    p.add_argument("--samples", type=int, default=sup)
    p.add_argument("--tol", type=float, default=sup)
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ns = _settle(parser, args, _DEFAULTS[args.command])
    try:
        return _RUNNERS[args.command](parser, ns)
    except ValueError as exc:
        print(f"geostop {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
