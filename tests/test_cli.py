import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from geostop import cli, oracle
from geostop.cli import build_parser, main


def _rows_from_csv(text):
    return list(csv.DictReader(text.splitlines()))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "geostop" in capsys.readouterr().out


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("bounds", "figure", "simulate", "oracle", "verify"):
        assert name in text


@pytest.mark.parametrize("argv", [
    ["bounds"],                       # missing --delta
    ["simulate", "--n", "2"],         # missing --delta
    ["simulate", "--delta", "0.3"],   # missing --n
    ["oracle", "--n", "2", "--delta", "0.5"],            # no role
    ["oracle", "--n", "2", "--delta", "0.5",             # both roles
     "--adversary", "heat", "--player", "exp"],
    ["bounds", "--delta", "0.1"],     # neither --n nor --n-range
    ["bounds", "--n", "2", "--n-range", "2:4", "--delta", "0.1"],
    ["bounds", "--n-range", "5:2", "--delta", "0.1"],
    ["bounds", "--n", "2", "--delta", "0.1", "--families", "cat"],
    ["nonsense"],
    ["figure", "--n", "2", "--n-range", "2:4"],
    ["bounds", "--n", "2", "--delta", "0.1", "--json", "maybe"],
    ["verify", "--n", "3", "--delta", "0.1", "--samples", "-5"],
    ["verify", "--n", "3", "--delta", "0.1", "--samples", "0"],
    ["verify", "--suite", "lower", "--n", "1", "--delta", "0.1",
     "--samples", "5"],
    ["simulate", "--n", "3", "--delta", "0.1", "--threads", "2"],  # no such flag
    ["simulate", "--n", "3", "--delta", "0.1", "--max-rounds-cap", "0"],
    # tolerances under which every comparison passes or none converges
    ["oracle", "--n", "3", "--delta", "0.01", "--radius", "40",
     "--adversary", "max", "--errors", "zero", "--tol", "nan"],
    ["oracle", "--n", "3", "--delta", "0.01", "--radius", "40",
     "--adversary", "max", "--errors", "zero", "--tol", "inf"],
    ["oracle", "--n", "2", "--delta", "0.1", "--radius", "8",
     "--player", "exp", "--tol", "-1e-8"],
    ["verify", "--tol", "nan"],
    # rows of the exp family alone check delta too
    ["bounds", "--n", "3", "--delta", "nan", "--families", "exp"],
    ["bounds", "--n", "3", "--delta", "0", "--families", "exp"],
    ["bounds", "--n", "3", "--delta", "1.5", "--families", "exp"],
    ["figure", "--delta", "nan", "--families", "exp"],
])
def test_usage_errors_exit_2(argv, capsys):
    # exit the way the console entry point does: argparse raises
    # SystemExit, a refused value makes main return 2
    with pytest.raises(SystemExit) as exc:
        raise SystemExit(main(argv))
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "lower", "--n", "1", "--delta", "0.1",
      "--samples", "5"], "n must be at least 2, got 1"),
    (["verify", "--n", "3", "--delta", "0.1", "--samples", "0"],
     "samples must be at least 1, got 0"),
    (["simulate", "--n", "3", "--delta", "0.1", "--trials", "0"],
     "trials must be positive"),
    (["oracle", "--n", "3", "--delta", "0.01", "--radius", "40",
      "--adversary", "max", "--errors", "zero", "--tol", "nan"],
     "tol must be a finite number at least 0, got nan"),
    (["verify", "--tol", "inf"],
     "tol must be a finite number at least 0, got inf"),
    (["bounds", "--n", "3", "--delta", "0", "--families", "exp"],
     "delta must lie in (0, 1], got 0.0"),
    (["simulate", "--n", "2", "--delta", "1"], "delta must lie in (0, 1), got 1.0"),
    (["bounds", "--n", "2", "--delta", "1"], "delta must lie in (0, 1), got 1.0"),
])
def test_refused_values_say_why(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_bounds_csv_frozen_constants(capsys):
    assert main(["bounds", "--n", "2", "--delta", "1e-6"]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert len(rows) == 5
    by_key = {(r["family"], r["side"]): r for r in rows}
    exp = by_key[("exp_weights", "upper")]
    np.testing.assert_allclose(float(exp["c_n_zero_error"]),
                               1.1774094338103165, rtol=1e-12)
    np.testing.assert_allclose(float(by_key[("heat", "lower")]["c_n_zero_error"]),
                               0.7063092500460659, rtol=1e-12)
    np.testing.assert_allclose(float(by_key[("heat", "upper")]["c_n_zero_error"]),
                               0.7079050183697869, rtol=1e-12)
    np.testing.assert_allclose(float(exp["gravin_lower_c"]),
                               math.sqrt(math.log(2.0) / 2.0), rtol=1e-12)
    np.testing.assert_allclose(float(exp["gravin_upper_c"]),
                               math.sqrt(2.0 * math.log(2.0)), rtol=1e-12)


def test_bounds_json_to_file(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["bounds", "--n", "3", "--delta", "0.01", "--json",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    rows = json.loads(out.read_text())
    assert len(rows) == 5
    assert {r["family"] for r in rows} == {"exp_weights", "heat", "max"}


def test_bounds_n_range_and_family_subset(capsys):
    assert main(["bounds", "--n-range", "2:6:2", "--delta", "0.1",
                 "--families", "exp"]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert [int(r["n"]) for r in rows] == [2, 4, 6]
    assert {r["family"] for r in rows} == {"exp_weights"}


def test_figure_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["figure", "--n-range", "2:4", "--delta", "1e-6"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    svg = (tmp_path / "a.svg").read_bytes()
    assert svg == (tmp_path / "b.svg").read_bytes()
    assert svg.startswith(b"<svg")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    rows = _rows_from_csv((tmp_path / "a.csv").read_text())
    assert len(rows) == 15  # three sizes, five curves


def test_figure_log_axis(tmp_path, capsys):
    out = tmp_path / "fig"
    assert main(["figure", "--n-range", "2:10:4", "--delta", "1e-4",
                 "--log-x", "--out", str(out)]) == 0
    capsys.readouterr()
    assert "log10 N" in (tmp_path / "fig.svg").read_text()


def test_figure_single_n(tmp_path, capsys):
    out = tmp_path / "one"
    assert main(["figure", "--n", "5", "--delta", "1e-4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = _rows_from_csv((tmp_path / "one.csv").read_text())
    assert [int(r["n"]) for r in rows] == [5] * 5


def test_simulate_json_payload(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--n", "2", "--delta", "0.3", "--trials", "200",
                 "--seed", "3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert out.read_text() == captured.out
    assert payload["trials_used"] == 200
    assert payload["player"] == "heat" and payload["adversary"] == "heat"
    assert payload["outcome_mean"] is None
    assert math.isfinite(payload["mean_regret"])
    assert payload["std_error"] > 0.0


def test_simulate_outcome_collection(capsys):
    assert main(["simulate", "--n", "3", "--delta", "0.3", "--trials", "64",
                 "--outcomes"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload["outcome_mean"], list)
    assert len(payload["outcome_mean"]) == 3


def test_oracle_adversary_run(tmp_path, capsys):
    out = tmp_path / "values.csv"
    rc = main(["oracle", "--n", "2", "--delta", "0.1", "--adversary", "heat",
               "--radius", "20", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["role"] == "adversary" and payload["kind"] == "heat"
    np.testing.assert_allclose(payload["value_at_origin"], 2.03353179207651,
                               rtol=1e-9)
    assert payload["sandwich"]["passed"] is True
    assert payload["sandwich"]["error_mode"] == "numerically_estimated"
    lo, hi = payload["origin_bracket"]
    assert lo <= payload["value_at_origin"] <= hi
    rows = _rows_from_csv(out.read_text())
    assert len(rows) == 21
    assert set(rows[0]) == {"d1", "lower", "upper"}
    assert all(float(r["lower"]) <= float(r["upper"]) + 1e-12 for r in rows)


def test_oracle_player_run(capsys):
    rc = main(["oracle", "--n", "2", "--delta", "0.5", "--player", "exp",
               "--radius", "20"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["role"] == "player" and payload["kind"] == "exp"
    np.testing.assert_allclose(payload["value_at_origin"], 0.6088777257481774,
                               rtol=1e-9)
    assert payload["sandwich"]["error_mode"] == "exact"
    assert payload["sandwich"]["passed"] is True
    assert "pass" in captured.err


@pytest.mark.parametrize("player", ["heat", "max"])
def test_oversized_lattice_is_refused_before_any_estimate(monkeypatch, capsys,
                                                          player):
    def no_estimate(*args, **kwargs):
        raise AssertionError("error constants were estimated")

    monkeypatch.setattr("geostop.cli.estimate_error_constants", no_estimate)
    monkeypatch.setattr("geostop.cli._estimated_error_term", no_estimate)
    rc = main(["oracle", "--n", "9", "--delta", "0.1", "--radius", "60",
               "--player", player])
    assert rc == 2
    assert "6756622160671 states" in capsys.readouterr().err


def test_bad_tolerance_is_refused_before_any_estimate(monkeypatch, capsys):
    def no_estimate(*args, **kwargs):
        raise AssertionError("error constants were estimated")

    monkeypatch.setattr("geostop.cli.estimate_error_constants", no_estimate)
    monkeypatch.setattr("geostop.cli._estimated_error_term", no_estimate)
    rc = main(["oracle", "--n", "3", "--delta", "0.1", "--radius", "20",
               "--player", "max", "--tol", "nan"])
    assert rc == 2
    assert "tol must be a finite number" in capsys.readouterr().err


def test_verify_suite_run(capsys):
    rc = main(["verify", "--suite", "translation", "--n", "2",
               "--delta", "0.2", "--samples", "12"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["passed"] is True
    assert len(payload["reports"]) == 5
    assert payload["reports"]["translation_exp"]["violations"] == 0


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 0.1   # moderate stopping rate\n"
                   "n = 2\n"
                   "families = exp\n")
    assert main(["bounds", "--config", str(cfg)]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert {r["family"] for r in rows} == {"exp_weights"}
    assert all(float(r["delta"]) == 0.1 for r in rows)

    assert main(["bounds", "--config", str(cfg), "--families", "heat"]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert {r["family"] for r in rows} == {"heat"}


@pytest.mark.parametrize("text", [
    "mystery = 3\n",            # unknown key
    "delta = abc\n",            # uncoercible value
    "delta 0.1\n",              # missing '='
    "delta = 0.1\nerrors = estimatd\n",   # not a choice
    "delta = 0.1\njson = maybe\n",        # not a switch word
    "delta = 0.1\nfam = exp\n",           # keys are not abbreviated
])
def test_config_file_errors_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "2", "--config", str(cfg)])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "adversary = heat\nerrors = estimatd\n",
    "adversary = comb\n",
])
def test_oracle_config_values_are_checked(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "2", "--delta", "0.5", "--radius", "4",
              "--config", str(cfg)])
    assert exc.value.code == 2
    capsys.readouterr()


def _parsed_options(monkeypatch, argv):
    seen = {}
    monkeypatch.setitem(cli._RUNNERS, argv[0],
                        lambda args: seen.update(vars(args)) or 0)
    assert main(argv) == 0
    del seen["config"]
    return seen


@pytest.mark.parametrize("base, key, value, later", [
    (["verify"], "samples", "7", "9"),
    (["verify"], "tol", "0.25", "0.5"),
    (["verify"], "suite", "gradients", "lower"),
    (["verify"], "out", "a.json", "b.json"),
    (["bounds", "--n", "2", "--delta", "0.1"], "json", "yes", "off"),
], ids=["int", "float", "choice", "string", "switch"])
def test_config_entry_parses_like_its_flag(tmp_path, monkeypatch, base, key,
                                           value, later):
    flag = "--" + key.replace("_", "-")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    by_config = _parsed_options(monkeypatch, base + ["--config", str(cfg)])
    assert by_config == _parsed_options(monkeypatch, base + [flag, value])
    overridden = _parsed_options(monkeypatch,
                                 base + ["--config", str(cfg), flag, later])
    assert overridden == _parsed_options(monkeypatch, base + [flag, later])
    assert overridden[key] != by_config[key]


def test_missing_config_file_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "2", "--delta", "0.1",
              "--config", str(tmp_path / "nope.cfg")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_library_value_errors_become_exit_2(capsys):
    rc = main(["simulate", "--n", "1", "--delta", "0.3", "--trials", "8"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "geostop", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "geostop" in proc.stdout


def test_heat_player_simulates_sixteen_experts(capsys):
    # from n = 16 the heat weights run on the value rule's space nodes
    assert main(["simulate", "--n", "16", "--delta", "0.1", "--player", "heat",
                 "--adversary", "max", "--trials", "200"]) == 0
    assert json.loads(capsys.readouterr().out)["trials_used"] == 200


def test_gradient_suite_passes_at_sixteen_experts(capsys):
    assert main(["verify", "--suite", "gradients", "--n", "16",
                 "--delta", "0.1", "--samples", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_player_oracle_settles_at_radius_240(capsys):
    # the pessimistic and optimistic runs take 49 and 114 rounds here
    assert main(["oracle", "--n", "3", "--delta", "0.05", "--radius", "240",
                 "--player", "max"]) == 0
    assert json.loads(capsys.readouterr().out)["sandwich"]["passed"] is True


def test_player_oracle_settles_at_n2_radius_600(capsys):
    # gains below 4 ulps of the largest value end the rounds, here 79 and
    # 127; 4 ulps of each state's own value let gains of about 1e-26 through
    # on states that small, and the runs never settled
    assert main(["oracle", "--n", "2", "--delta", "0.2", "--radius", "600",
                 "--player", "max"]) == 0
    assert json.loads(capsys.readouterr().out)["sandwich"]["passed"] is True


def test_unsettled_policy_iteration_exits_2(monkeypatch, capsys):
    # the same runs held to the round limit of radius 20, 2*20 + 20 = 60
    solve = oracle._policy_iteration
    monkeypatch.setattr(oracle, "_policy_iteration",
                        lambda *args: solve(*args[:-1], 20))
    rc = main(["oracle", "--n", "2", "--delta", "0.2", "--radius", "600",
               "--player", "max"])
    err = capsys.readouterr().err
    assert rc == 2
    assert ("policy iteration still switches outcomes after 60 rounds, "
            "its limit at radius 20") in err
    assert "Traceback" not in err
