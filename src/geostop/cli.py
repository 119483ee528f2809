"""Command line front end: bound tables, figures, simulation and oracle runs.

Every command is deterministic given its flags.  Machine-readable output
goes to stdout (CSV or JSON), human summaries to stderr.  ``--out PATH``
writes the bounds table to PATH instead of stdout; simulate and verify
write their JSON to both; oracle writes the lattice values as CSV to PATH
and keeps its JSON on stdout; figure writes PATH.svg and PATH.csv.  Exit
codes: 0 success, 1 a checked assertion failed, 2 usage error.

build_parser declares each option once, with its type, choices and
default.  The ``key = value`` lines of a ``--config`` file become
``--key=value`` flags placed right after the command name, so they pass
the same checks as flags and explicit flags, coming later, win.  Keys
are option names in full.  The switches --json, --log-x and --outcomes
take 1/true/yes/on or 0/false/no/off as a value, and true when bare.
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
from .bounds import (ErrorConstants, REPORT_FIELDS, _error_term,
                     _estimated_error_term, comparison_curves,
                     estimate_error_constants, exp_weights_bound, heat_bounds,
                     max_bounds)
from .game import _check_tol
from .oracle import (adversary_sandwich, check_lattice, player_sandwich,
                     value_iteration_adversary, value_iteration_player)
from .potentials import heat_lower_handle, max_lower_handle
from .simulate import SimulationConfig, run
from .strategies import (ADVERSARY_KINDS, PLAYER_KINDS, make_adversary,
                         make_player)
from .verify import SUITES, run_suite

_FAMILY_CHOICES = ("exp", "heat", "max")

_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}

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


def _switch(text: str) -> bool:
    """Value of a switch given as a word, as in --json=no or 'json = no'."""
    try:
        return _SWITCH_WORDS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected 1/true/yes/on or 0/false/no/off, got {text!r}"
        ) from None


def _n_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"must look like FIRST:LAST or FIRST:LAST:STEP, got {text!r}")
    try:
        first, last = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"parts must be integers, got {text!r}") from None
    if first < 2 or last < first or step < 1:
        raise argparse.ArgumentTypeError(
            f"needs 2 <= FIRST <= LAST and STEP >= 1, got {text!r}")
    return list(range(first, last + 1, step))


def _families(text: str) -> list[str]:
    if text == "all":
        return list(_FAMILY_CHOICES)
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names or set(names) - set(_FAMILY_CHOICES):
        raise argparse.ArgumentTypeError(
            f"takes 'all' or a comma list from {_FAMILY_CHOICES}, "
            f"got {text!r}")
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


def _bound_rows(args) -> list[dict]:
    """Shared table builder for the bounds and figure commands."""
    n_values = [args.n] if args.n is not None else args.n_range
    delta = args.delta
    rows = []
    for n in n_values:
        if args.errors == "estimated":
            errors = estimate_error_constants(n, delta, seed=args.seed)
        else:
            errors = ErrorConstants.zero()
        curves = comparison_curves(n, delta)
        scale = math.sqrt(delta)
        for rep in _reports_for(n, delta, args.families, errors):
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


def cmd_bounds(args) -> int:
    rows = _bound_rows(args)
    if args.json:
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        _write_csv(rows, buf)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"bounds: {len(rows)} rows at delta={args.delta}", file=sys.stderr)
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


def cmd_figure(args) -> int:
    rows = _bound_rows(args)
    by_curve: dict[str, tuple[list[float], list[float]]] = {}
    for row in rows:
        label = f"{row['family'].replace('_weights', '')} {row['side']}"
        xs, ys = by_curve.setdefault(label, ([], []))
        x = math.log10(int(row["n"])) if args.log_x else float(row["n"])
        xs.append(x)
        ys.append(float(row["c_n_zero_error"]))
    seen_n = sorted({int(row["n"]) for row in rows})
    for key in ("gravin_lower_c", "gravin_upper_c"):
        label = key.replace("_c", "").replace("_", " ")
        if key == "gravin_lower_c":
            label = "gravin lower asymptote"
        vals = {int(row["n"]): float(row[key]) for row in rows}
        xs = [math.log10(n) if args.log_x else float(n) for n in seen_n]
        by_curve[label] = (xs, [vals[n] for n in seen_n])

    title = f"Normalized bound constants at delta={args.delta:g}"
    x_label = "log10 N" if args.log_x else "N"
    curves = [(label, xs, ys) for label, (xs, ys) in by_curve.items()]
    svg = _render_svg(curves, title, x_label, args.log_x)

    out = args.out
    with open(out + ".svg", "w", newline="") as fh:
        fh.write(svg)
    with open(out + ".csv", "w", newline="") as fh:
        _write_csv(rows, fh)
    print(f"figure: wrote {out}.svg and {out}.csv ({len(rows)} rows)",
          file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    cfg = SimulationConfig(
        n=args.n, delta=args.delta,
        player=make_player(args.player, args.n, args.delta),
        adversary=make_adversary(args.adversary, args.n),
        trials=args.trials, seed=args.seed,
        max_rounds_cap=args.max_rounds_cap)
    result = run(cfg, threads=args.threads, collect_outcomes=args.outcomes)
    payload = {
        "n": cfg.n, "delta": cfg.delta, "player": args.player,
        "adversary": args.adversary, "trials": cfg.trials, "seed": cfg.seed,
    }
    payload.update(result.to_dict())
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    print(f"simulate: mean regret {result.mean_regret:.4f} "
          f"+- {result.std_error:.4f} over {result.trials_used} trials "
          f"(mean rounds {result.mean_rounds:.1f})", file=sys.stderr)
    return 0


_ADVERSARY_HANDLES = {"heat": heat_lower_handle, "max": max_lower_handle}


def _oracle_error(args, kind: str, side: str):
    """Error term of one bound report and its mode, as --errors selects; an
    estimate runs only the scans that term reads."""
    if args.errors == "estimated":
        # ErrorConstants.mode defaults to the mode of estimated constants
        return (_estimated_error_term(kind, side, args.n, args.delta,
                                      seed=args.seed), ErrorConstants.mode)
    constants = ErrorConstants.zero()
    return _error_term(kind, side, args.delta, vars(constants)), constants.mode


def cmd_oracle(args) -> int:
    n, delta, radius, tol = args.n, args.delta, args.radius, args.tol
    # refuse an oversized lattice or a tolerance that certifies nothing
    # before estimating any error constant
    check_lattice(n, radius)
    _check_tol(tol)

    if args.adversary is not None:
        kind = args.adversary
        handle = _ADVERSARY_HANDLES[kind](n, delta)
        lvf = value_iteration_adversary(make_adversary(kind, n), n, delta,
                                        radius, tol)
        err, mode = _oracle_error(args, kind, "lower")
        report = adversary_sandwich(lvf, handle, err, mode, tol)
    else:
        kind = args.player
        player = make_player(kind, n, delta)
        if kind == "exp":
            err, mode = 0.0, "exact"
        else:
            err, mode = _oracle_error(args, kind, "upper")
        lvf = value_iteration_player(player, n, delta, radius, tol,
                                     error_term=err)
        report = player_sandwich(lvf, player.handle, err, mode, tol)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"d{j + 1}" for j in range(n - 1)]
                            + ["lower", "upper"])
            for state, lo, hi in zip(lvf.states.tolist(), lvf.lower, lvf.upper):
                writer.writerow(state + [repr(float(lo)), repr(float(hi))])

    payload = {
        "role": lvf.role, "kind": kind, "n": n, "delta": delta,
        "radius": radius, "tol": tol, "states": int(lvf.states.shape[0]),
        "value_at_origin": lvf.value_at_origin(),
        "origin_bracket": list(lvf.bracket(np.zeros(n - 1, dtype=np.int64))),
        "residual": lvf.residual, "fixed_point_gap": lvf.fixed_point_gap,
        "sweeps": lvf.sweeps, "sandwich": report.to_dict(),
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    state_word = "pass" if report.passed else "FAIL"
    print(f"oracle: {lvf.role} {kind} v(0)={lvf.value_at_origin():.6f} "
          f"sandwich {state_word} (worst margin {report.worst_margin:+.3e})",
          file=sys.stderr)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, n=args.n, delta=args.delta,
                        samples=args.samples, tol=args.tol, seed=args.seed)
    passed = all(rep.passed for rep in reports.values())
    payload = {
        "suite": args.suite, "n": args.n, "delta": args.delta,
        "samples": args.samples, "tol": args.tol,
        "passed": passed,
        "reports": {name: rep.to_dict() for name, rep in reports.items()},
    }
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    for name, rep in sorted(reports.items()):
        print(f"verify: {name}: {rep.violations} violations over "
              f"{rep.samples} states (worst margin {rep.worst_margin:+.3e})",
              file=sys.stderr)
    return 0 if passed else 1


_RUNNERS = {"bounds": cmd_bounds, "figure": cmd_figure,
            "simulate": cmd_simulate, "oracle": cmd_oracle,
            "verify": cmd_verify}


def _add_common(sub: argparse.ArgumentParser, out_help: str,
                out_default: str | None = None) -> None:
    sub.add_argument("--config",
                     help="key=value file supplying defaults for any flag")
    sub.add_argument("--out", default=out_default, help=out_help)
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for any randomized step")


def _add_switch(sub: argparse.ArgumentParser, flag: str,
                help_text: str) -> None:
    sub.add_argument(flag, nargs="?", const=True, default=False, type=_switch,
                     metavar="WORD", help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geostop",
        description="Regret bounds, strategies, and checks for the stopped "
                    "experts game.")
    parser.add_argument("--version", action="version",
                        version=f"geostop {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bounds", help="tabulate bound reports over N")
    sizes = p.add_mutually_exclusive_group(required=True)
    sizes.add_argument("--n", type=int)
    sizes.add_argument("--n-range", type=_n_range, metavar="FIRST:LAST[:STEP]")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--families", type=_families, default="all",
                   help="'all' or comma list of exp,heat,max")
    p.add_argument("--errors", choices=("zero", "estimated"), default="zero")
    _add_switch(p, "--json", "emit JSON instead of CSV")
    _add_common(p, "write the table to this path instead of stdout")

    p = subs.add_parser("figure", help="render the C_N comparison plot")
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--n", type=int)
    sizes.add_argument("--n-range", type=_n_range, default="2:50",
                       metavar="FIRST:LAST[:STEP]")
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--families", type=_families, default="all")
    p.add_argument("--errors", choices=("zero", "estimated"), default="zero")
    _add_switch(p, "--log-x", "plot against log10 N")
    _add_common(p, "path prefix of the PREFIX.svg and PREFIX.csv written",
                "figure")

    p = subs.add_parser("simulate", help="Monte Carlo matchup")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--player", choices=PLAYER_KINDS, default="heat")
    p.add_argument("--adversary", choices=ADVERSARY_KINDS, default="heat")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--threads", type=int,
                   help="worker threads (capped by GEOSTOP_THREADS)")
    p.add_argument("--max-rounds-cap", type=int)
    _add_switch(p, "--outcomes", "also report per-coordinate outcome means")
    _add_common(p, "also write the JSON on stdout to this path")

    p = subs.add_parser("oracle", help="lattice value iteration and sandwich")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    roles = p.add_mutually_exclusive_group(required=True)
    roles.add_argument("--adversary", choices=ADVERSARY_KINDS)
    roles.add_argument("--player", choices=("exp", "heat", "max"))
    p.add_argument("--radius", type=int, default=60)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--errors", choices=("zero", "estimated"),
                   default="estimated")
    _add_common(p, "write the lattice values as CSV to this path")

    p = subs.add_parser("verify", help="potential condition suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-4)
    _add_common(p, "also write the JSON on stdout to this path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # find --config first, then parse its entries as flags placed right
    # after the command name, so that explicit flags, coming later, win
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    entries = {}
    config_path = pre.parse_known_args(argv)[0].config
    if config_path:
        try:
            entries = _read_config(config_path)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
    tokens = [f"--{key.replace('_', '-')}={val}"
              for key, val in entries.items()]
    args, extra = parser.parse_known_args(argv[:1] + tokens + argv[1:])
    # a config key must name an option of its command in full
    unknown = sorted(set(entries) - set(vars(args)))
    if unknown:
        parser.error(f"unknown config keys: {', '.join(unknown)}")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _RUNNERS[args.command](args)
    except ValueError as exc:
        print(f"geostop {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
