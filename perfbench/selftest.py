"""Self-test of the benchmark itself; takes under a minute.

    python3 perfbench/selftest.py

Runs every workload at the tiny size in both trace modes and checks that
exactly the metrics BENCHMARK.json declares come out, with their units,
and that clean output counts no failures.  Then it corrupts the output of
every command kind and checks that each corrupted operation is counted as
failed, that the speed meter restores the SIGALRM handler and timer, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402


def _quiet(line: str) -> None:
    pass


def declared() -> tuple[dict, dict, list]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = [{m["name"]: m["unit"] for m in doc[key]}
             for key in ("end_to_end", "per_layer")]
    return units[0], units[1], [w["name"] for w in doc["workloads"]]


def tiny(workload: str, trace: bool) -> dict:
    return run.run_benchmark(workload, seed=1, seconds=0.0, trace=trace,
                             size=run.TINY, setup_repeats=1, report=_quiet)


def check_metrics() -> None:
    end_to_end, per_layer, workloads = declared()
    assert sorted(workloads) == sorted(run.WORKLOADS), workloads
    for workload in workloads:
        for trace, want in ((False, end_to_end), (True, per_layer)):
            result = tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
                assert math.isfinite(m["value"]), name
            print(f"ok   {workload} trace={int(trace)}: "
                  f"{len(got)} metrics, {result['attempted']} operations")


def _corrupt(argv, payload):
    if argv[0] == "simulate":
        payload["mean_regret"] += 1000.0
    elif argv[0] == "oracle":
        payload["origin_bracket"][0] += 1.0
    elif argv[0] == "verify":
        next(iter(payload["reports"].values()))["violations"] = 1
    else:
        row = payload[0]
        row["potential0"] = repr(float(row["potential0"]) * (1.0 + 1e-9))
    return payload


def check_corruption() -> None:
    clean = run.parse_output
    run.parse_output = lambda argv, text: _corrupt(argv, clean(argv, text))
    try:
        for workload in run.WORKLOADS:
            result = tiny(workload, False)
            assert not result["correct"], workload
            assert result["failed"] == result["attempted"] > 0, result
            print(f"ok   {workload}: {result['failed']} of "
                  f"{result['attempted']} corrupted outputs counted as failed")
    finally:
        run.parse_output = clean
    argv = run.simulate_argv("max", 10, 1)
    reason, _ = run.check_output(argv, 1, {"trials_used": 10}, run.load_frozen())
    assert reason == "exit code 1", reason
    print("ok   a non-zero exit code is a failure")


def check_meter_cleans_up() -> None:
    before = signal.getsignal(signal.SIGALRM)
    with speed.Meter(period=0.01) as meter:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(meter.samples) >= 3 and meter.spent > 0.0, meter.samples
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert math.isfinite(meter.factor()) and meter.factor() > 0.0
    print(f"ok   speed meter: {len(meter.samples)} samples, timer and "
          f"handler restored")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".selftest-") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "mc-max",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"ok   exit {proc.returncode} without src/: {proc.stderr.strip()}")


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_meter_cleans_up()
    check_refuses_without_sources()
    print("selftest passed")
