"""Benchmark for geostop: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc-heat --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives ``geostop.cli.main`` in this process, one
command after another (a closed loop, no ``--threads``).  A workload is a
fixed *cycle* of commands; cycles repeat for about ``--seconds``,
each with its own ``--seed`` drawn from the benchmark seed, which is the
only way the seed reaches the program.  Every command's output is checked
and counted in ``attempted``/``failed``.

Every command is timed on its own while a fixed reference kernel samples
the machine's speed (speed.py), and its time is scaled to the speed at
which that kernel takes ``speed.NOMINAL_S``; on a shared host this takes
out the machine's own swings in speed.  ``--trace 0`` reports the
end-to-end metrics: ``scaled_wall_s`` (the cycle time, as the sum over
the cycle's commands of each command's median scaled time),
``scaled_throughput`` (trials, lattice states or checked states per
second, from the same medians), ``setup_s`` (median scaled time of fresh
processes importing geostop and building the workload's handles and
strategies) and ``peak_rss_mb`` (after the first two cycles).  The
unscaled figures are printed on the lines before the result.
``--trace 1`` runs the loop untraced for half of ``--seconds``, then replays its
cycles with spans around each layer (see tracing.py) and reports the
per-layer metrics, the accuracy probes (accuracy.py) and the tracing
overhead.  The last stdout line is the JSON result; the lines before it
name every metric with its unit, the environment and ``fail_ratio``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so that BLAS/OpenMP pools start single-threaded.
PINNED_ENV = {
    "GEOSTOP_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import accuracy  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MC_N, MC_DELTA = 3, 0.01
LATTICE_N, LATTICE_DELTA, LATTICE_RADIUS = 4, 0.05, 30
CERT_N, CERT_DELTA = 3, 0.1
BOUNDS_DELTA = 0.01
REPLAY_TRIALS = 2
SETUP_REPEATS = 5
MIN_CYCLES = 2  # so that every command is timed twice even when a cycle nears 25 s


@dataclass(frozen=True)
class Size:
    """Trial and sample counts; FULL is measured, TINY warms caches and self-tests."""

    heat_trials: int
    max_trials: int
    lattice: tuple[int, float, int]  # n, delta, radius
    verify_samples: int
    bounds_range: str


FULL = Size(heat_trials=50, max_trials=5000,
            lattice=(LATTICE_N, LATTICE_DELTA, LATTICE_RADIUS),
            verify_samples=10, bounds_range="2:6")
# n=4 needs radius 30 before the adversary sandwich passes, so the tiny
# lattice drops to n=3 at the same delta.
TINY = Size(heat_trials=8, max_trials=200, lattice=(3, LATTICE_DELTA, 30),
            verify_samples=2, bounds_range="2:3")


@dataclass(frozen=True)
class Workload:
    item: str             # what the throughput counts
    delta: float          # stopping rate of the accuracy and specfun probes
    setup: tuple          # (n, delta, players, adversaries) built by setup_s
    replay: str | None = None  # matchup replayed through play_episode


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "mc-heat": Workload("trials", MC_DELTA,
                        (MC_N, MC_DELTA, ("heat",), ("heat",)), replay="heat"),
    "mc-max": Workload("trials", MC_DELTA,
                       (MC_N, MC_DELTA, ("max",), ("max",)), replay="max"),
    "lattice-n4": Workload("states", LATTICE_DELTA,
                           (LATTICE_N, LATTICE_DELTA, ("exp", "max"), ("max",))),
    "certify": Workload("checks", CERT_DELTA,
                        (CERT_N, CERT_DELTA, (), ("heat", "max"))),
}


# ---------------------------------------------------------------------------
# the package under test


def import_geostop():
    """Import geostop from this checkout's src/, refusing any other copy."""
    if not (SRC / "geostop" / "cli.py").is_file():
        raise ImportError(f"no geostop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geostop
    import geostop.cli

    if Path(geostop.__file__).resolve().parent != SRC / "geostop":
        raise ImportError(f"imported geostop from {geostop.__file__}, "
                          f"not from {SRC}")
    return geostop


def parse_output(argv: list[str], text: str):
    """CSV rows for bounds, JSON for every other command."""
    if argv[0] == "bounds":
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)


def call_cli(geostop, argv: list[str], tracer=None):
    """Run one command in-process; returns (exit code, parsed output,
    seconds, speed factor).

    Only the cli.main call is timed, after an untimed garbage collection so
    that no command pays for the garbage of the one before, and less the
    time the speed meter spent inside it.  Output that cannot be parsed
    comes back as None, which every check treats as a failure.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    span = tracer.span("cli") if tracer is not None else contextlib.nullcontext()
    with speed.Meter() as meter:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                rc = geostop.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the benchmark keeps counting; the op is a failure
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start - meter.spent
    if rc != 0:
        print(f"{' '.join(argv)}: exit {rc}: {err.getvalue()[-800:]}",
              file=sys.stderr)
    try:
        payload = parse_output(argv, out.getvalue())
    except ValueError:
        payload = None
    return rc, payload, seconds, meter.factor()


# ---------------------------------------------------------------------------
# commands and their checks


def simulate_argv(kind: str, trials: int, seed: int) -> list[str]:
    return ["simulate", "--n", str(MC_N), "--delta", str(MC_DELTA),
            "--player", kind, "--adversary", kind,
            "--trials", str(trials), "--seed", str(seed)]


def lattice_argvs(size: Size, seed: int) -> list[list[str]]:
    n, delta, radius = size.lattice
    base = ["oracle", "--n", str(n), "--delta", str(delta),
            "--radius", str(radius), "--seed", str(seed)]
    return [base + ["--adversary", "max"], base + ["--player", "exp"],
            base + ["--player", "max"]]


def verify_argv(size: Size, seed: int) -> list[str]:
    return ["verify", "--suite", "all", "--n", str(CERT_N),
            "--delta", str(CERT_DELTA), "--samples", str(size.verify_samples),
            "--seed", str(seed)]


def bounds_argv(size: Size, seed: int) -> list[str]:
    return ["bounds", "--n-range", size.bounds_range,
            "--delta", str(BOUNDS_DELTA), "--errors", "estimated",
            "--seed", str(seed)]


def cycle_argvs(workload: str, size: Size, seed: int) -> list[list[str]]:
    if workload == "mc-heat":
        return [simulate_argv("heat", size.heat_trials, seed)]
    if workload == "mc-max":
        return [simulate_argv("max", size.max_trials, seed)]
    if workload == "lattice-n4":
        return lattice_argvs(size, seed)
    return [verify_argv(size, seed), bounds_argv(size, seed)]


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def oracle_key(argv: list[str]) -> str:
    role = "adversary" if "--adversary" in argv else "player"
    return (f"n={_flag(argv, '--n')} delta={_flag(argv, '--delta')} "
            f"radius={_flag(argv, '--radius')} {role}={_flag(argv, '--' + role)}")


def bounds_key(row: dict) -> str:
    return f"{row['family']} {row['side']} n={row['n']} delta={row['delta']}"


def load_frozen() -> dict:
    return json.loads((HERE / "data" / "frozen.json").read_text())


def check_output(argv: list[str], rc: int, payload, frozen: dict) -> tuple[str | None, int]:
    """(failure reason or None, work items) for one command's output."""
    if rc != 0:
        return f"exit code {rc}", 0
    if payload is None:
        return "unparsable output", 0
    try:
        return _CHECKS[argv[0]](argv, payload, frozen)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}", 0


def _check_simulate(argv, payload, frozen):
    trials = int(_flag(argv, "--trials"))
    if payload["trials_used"] != trials:
        return f"trials_used {payload['trials_used']} != {trials}", 0
    lo, hi = (float(v) for v in frozen["simulate_bounds"][_flag(argv, "--player")])
    mean, se = payload["mean_regret"], payload["std_error"]
    if not lo - 3.0 * se <= mean <= hi + 3.0 * se:
        return f"mean regret {mean} outside [{lo}, {hi}] by more than 3 SE", 0
    return None, trials


def _check_oracle(argv, payload, frozen):
    key = oracle_key(argv)
    if not payload["sandwich"]["passed"]:
        return f"{key}: sandwich failed", 0
    if payload["states"] != frozen["oracle_states"][key]:
        return f"{key}: {payload['states']} states", 0
    lower = payload["origin_bracket"][0]
    want = float(frozen["oracle_origin_lower"][key])
    if abs(lower - want) > payload["fixed_point_gap"] + payload["tol"]:
        return f"{key}: origin lower bracket {lower} moved from {want}", 0
    return None, payload["states"]


def _check_verify(argv, payload, frozen):
    reports = payload["reports"].values()
    bad = sum(rep["violations"] for rep in reports)
    if bad or not payload["passed"]:
        return f"verify: {bad} violations", 0
    return None, sum(rep["samples"] for rep in reports)


def _check_bounds(argv, payload, frozen):
    first, last = (int(v) for v in _flag(argv, "--n-range").split(":"))
    if len(payload) != 5 * (last - first + 1):
        return f"bounds: {len(payload)} rows", 0
    for row in payload:
        want = float(frozen["bounds_potential0"][bounds_key(row)])
        got = float(row["potential0"])
        if abs(got - want) > 1e-12 * abs(want):
            return f"bounds: {bounds_key(row)} potential0 {got} != {want}", 0
    return None, 0


_CHECKS = {"simulate": _check_simulate, "oracle": _check_oracle,
           "verify": _check_verify, "bounds": _check_bounds}


def replay_check(geostop, kind: str, seed: int) -> str | None:
    """Batched simulate must match play_episode replays of the same trials."""
    from geostop.simulate import SimulationConfig, play_episode, trial_rng
    from geostop.strategies import make_adversary, make_player

    rc, payload, _, _ = call_cli(geostop, simulate_argv(kind, REPLAY_TRIALS, seed))
    if rc != 0 or payload is None:
        return f"replay run exit code {rc}"
    cfg = SimulationConfig(MC_N, MC_DELTA, make_player(kind, MC_N, MC_DELTA),
                           make_adversary(kind, MC_N), REPLAY_TRIALS, seed)
    regrets = [play_episode(cfg, trial_rng(seed, b)) for b in range(REPLAY_TRIALS)]
    expect = sum(regrets) / REPLAY_TRIALS
    if payload["mean_regret"] != expect:
        return f"batched mean {payload['mean_regret']} != replayed {expect}"
    return None


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Cycle:
    seed: int
    seconds: list = field(default_factory=list)  # per command, in cycle order
    scale: list = field(default_factory=list)    # per command: speed.factor
    items: list = field(default_factory=list)    # per command; None: not counted


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)


def run_cycle(geostop, workload: str, size: Size, seed: int, frozen: dict,
              tally: Tally, tracer=None) -> Cycle:
    cycle = Cycle(seed)
    for argv in cycle_argvs(workload, size, seed):
        rc, payload, seconds, scale = call_cli(geostop, argv, tracer)
        cycle.scale.append(scale)
        reason, items = check_output(argv, rc, payload, frozen)
        tally.record(reason)
        cycle.seconds.append(seconds)
        # certify's throughput is checked states per second of verify
        cycle.items.append(None if argv[0] == "bounds" else items)
    return cycle


def closed_loop(geostop, workload: str, size: Size, seeds, seconds: float,
                frozen: dict, tally: Tally, tracer=None,
                min_cycles: int = MIN_CYCLES) -> tuple[list[Cycle], float]:
    """Whole cycles, one after another, ending at the cycle boundary nearest
    to ``seconds``, but no fewer than ``min_cycles``.

    Also returns the peak resident set in MB after the first ``min_cycles``
    cycles: a fixed amount of work, whereas the number of cycles that fit
    depends on the machine's speed, and each one can raise the peak.
    """
    cycles = []
    peak_mb = 0.0
    start = time.perf_counter()
    for seed in seeds:
        cycles.append(run_cycle(geostop, workload, size, seed, frozen, tally,
                                tracer))
        if len(cycles) == min_cycles:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if (len(cycles) >= min_cycles
                and elapsed + 0.5 * elapsed / len(cycles) >= seconds):
            break
    return cycles, peak_mb


def cycle_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


# ---------------------------------------------------------------------------
# set-up time and environment

_SETUP_CODE = """
import sys
from geostop import cli
from geostop.potentials import (exp_handle, heat_lower_handle,
    heat_upper_handle, max_lower_handle, max_upper_handle)
from geostop.strategies import make_adversary, make_player
n, delta = int(sys.argv[1]), float(sys.argv[2])
handles = [f(n, delta) for f in (exp_handle, heat_lower_handle,
           heat_upper_handle, max_lower_handle, max_upper_handle)]
players = [make_player(k, n, delta) for k in sys.argv[3].split(",") if k]
adversaries = [make_adversary(k, n) for k in sys.argv[4].split(",") if k]
"""


def measure_setup(workload: Workload, repeats: int) -> tuple[list, list]:
    """Wall seconds of fresh processes that import geostop and build
    handles, and the speed.factor of each."""
    n, delta, players, adversaries = workload.setup
    cmd = [sys.executable, "-c", _SETUP_CODE, str(n), str(delta),
           ",".join(players), ",".join(adversaries)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, scales = [], []
    before = speed.sample()
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - start)
        after = speed.sample()
        scales.append(speed.factor(before + after))
        before = after
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr[-800:]}")
    return times, scales


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "geostop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(geostop) -> dict:
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "geostop": geostop.__version__,
        "commit": _git_commit(), "source_sha256": _source_digest(),
        "pinned_env": PINNED_ENV,
    }


# ---------------------------------------------------------------------------
# metrics

END_TO_END_UNITS = {"scaled_wall_s": "s", "scaled_throughput": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def _command_medians(cycles: list[Cycle], scaled: bool) -> list[float]:
    """Median time of each command of the cycle over all cycles run,
    scaled to the reference speed (speed.py) or as measured.

    A median per command rather than per cycle keeps one slow stretch of
    the machine from moving a whole cycle's figure.
    """
    per_command = zip(*(zip(c.seconds, c.scale) for c in cycles))
    return [statistics.median(t * k if scaled else t for t, k in runs)
            for runs in per_command]


def _median_cycle(cycles: list[Cycle], scaled: bool = True) -> float:
    return sum(_command_medians(cycles, scaled))


def _throughput(cycles: list[Cycle], scaled: bool = True) -> float:
    medians = _command_medians(cycles, scaled)
    counted = [i for i, items in enumerate(cycles[0].items) if items is not None]
    items = sum(statistics.median(c.items[i] for c in cycles) for i in counted)
    return items / sum(medians[i] for i in counted)


def _scaled_setup(setup: tuple[list, list]) -> float:
    times, scales = setup
    return statistics.median(t * k for t, k in zip(times, scales))


def end_to_end(cycles: list[Cycle], setup: tuple[list, list],
               peak_mb: float) -> dict:
    return {
        "scaled_wall_s": _median_cycle(cycles),
        "scaled_throughput": _throughput(cycles),
        "setup_s": _scaled_setup(setup),
        "peak_rss_mb": peak_mb,
    }


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  size: Size = FULL, setup_repeats: int = SETUP_REPEATS,
                  report=print) -> dict:
    """Measure one workload and return the result object printed last."""
    geostop = import_geostop()
    workload = WORKLOADS[workload_name]
    frozen = load_frozen()
    tally = Tally()
    report(json.dumps({"environment": environment(geostop)}))

    setup = ([], []) if trace else measure_setup(workload, setup_repeats)
    # Untimed warm-up so that lazy imports and quadrature caches are filled.
    run_cycle(geostop, workload_name, TINY, 1, frozen, tally)
    seeds = cycle_seeds(seed)
    # A traced run spends half its time untraced and half replaying traced.
    cycles, peak_mb = closed_loop(geostop, workload_name, size, seeds,
                                  seconds / 2 if trace else seconds, frozen,
                                  tally, min_cycles=1 if trace else MIN_CYCLES)
    if workload.replay:
        tally.record(replay_check(geostop, workload.replay, cycles[0].seed))

    if trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = [run_cycle(geostop, workload_name, size, c.seed, frozen,
                                tally, tracer) for c in cycles]
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics.update(accuracy.metrics(workload.delta))
        untraced_wall, traced_wall = _median_cycle(cycles), _median_cycle(traced)
        metrics["trace.scaled_wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        metrics["trace.cycles"] = len(traced)
        units = tracing.UNITS
    else:
        metrics = end_to_end(cycles, setup, peak_mb)
        units = END_TO_END_UNITS

    item_name = f"{workload.item}_per_s"
    report(f"# {workload_name} seed={seed} seconds={seconds} trace={int(trace)}: "
           f"{len(cycles)} cycles, "
           f"{sum(i for c in cycles for i in c.items if i)} {workload.item}")
    for argv, times, scales in zip(cycle_argvs(workload_name, size, 0),
                                   zip(*(c.seconds for c in cycles)),
                                   zip(*(c.scale for c in cycles))):
        role = " ".join(argv[-2:]) if argv[0] == "oracle" else ""
        report(f"# {argv[0]} {role}: seconds "
               + " ".join(f"{t:.3f}" for t in times) + "; speed factor "
               + " ".join(f"{k:.3f}" for k in scales))
    # as measured, before scaling to the reference speed
    report(f"wall_s {_median_cycle(cycles, scaled=False)!r} s")
    report(f"{item_name} {_throughput(cycles, scaled=False)!r} 1/s")
    if setup[0]:
        report(f"setup_wall_s {statistics.median(setup[0])!r} s")
    report(f"fail_ratio {tally.failed / max(tally.attempted, 1)!r} "
           f"({tally.failed} failed of {tally.attempted} attempted)")
    for reason in tally.reasons:
        report(f"failure: {reason}")
    for name, value in metrics.items():
        report(f"{name} {value!r} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
