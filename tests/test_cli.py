import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcopies import QcopiesError, ten_photon_cost
from qcopies.cli import _Parser, _build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


MEASURED_P = "0.8068,0.2,0.1869,0.2,0.1909,0.2072,0.1792,0.2069,0.1942"


class TestAllocate:
    def test_sc_witness_allocation(self, capsys):
        code, out, _ = run_cli(
            ["allocate", "--n", "8", "--epsilon0", "0.016", "--p", MEASURED_P], capsys)
        assert code == 0
        assert "setting,copies,real_copies" in out
        assert "reference: eight-photon experiment 1305, reported optimum 1253" in out
        total = int(out.strip().rsplit("total=", 1)[1])
        assert 1380 <= total <= 1400  # closed form at the measured profile

    def test_budget_mode_symmetric(self, capsys):
        code, out, _ = run_cli(
            ["allocate", "--k", "0.01,0.01,0.01,0.01,0.01", "--epsilon", "0.001"], capsys)
        assert code == 0
        assert out.strip().endswith("total=250")

    def test_total_past_int64_is_exact(self, capsys):
        code, out, _ = run_cli(["allocate", "--p", "0.5,0.5", "--epsilon0", "0.1",
                                "--t-min", "9223372036854775807"], capsys)
        assert code == 0
        assert out.endswith("\ntotal=18446744073709551614\n")

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run_cli(["allocate"], capsys)
        assert code == 2
        assert "config error" in err

    def test_bad_probability_vector_exit_2(self, capsys):
        code, _, _ = run_cli(
            ["allocate", "--n", "8", "--epsilon0", "0.016", "--p", "0.5,0.5"], capsys)
        assert code == 2
        code, _, _ = run_cli(
            ["allocate", "--n", "1", "--epsilon0", "0.016", "--p", "1.5,0.2"], capsys)
        assert code == 2

    def test_degenerate_budget_exit_3(self, capsys):
        code, _, err = run_cli(["allocate", "--k", "0,0", "--epsilon", "0.001"], capsys)
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("budget", [
        ["--k", "inf,0.01", "--epsilon", "0.001"],
        ["--k", "nan,0.01,0.01", "--epsilon", "0.001"],
        ["--k", "0.01,0.01", "--epsilon", "inf"],
        ["--n", "2", "--epsilon0", "1e200", "--p", "0.9,0.3,0.6"],
    ])
    def test_non_finite_budget_exit_3(self, budget, capsys):
        code, out, err = run_cli(["allocate", *budget], capsys)
        assert code == 3
        assert "error" in err and out == ""

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": "0.01,0.01", "epsilon": 0.001}))
        code, out, _ = run_cli(["allocate", "--config", str(cfg)], capsys)
        assert code == 0
        assert "total=40" in out  # t = sqrt(k)*sum(sqrt(k))/eps = 20 per setting

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": "0.01,0.01", "epsilon": 0.001}))
        code, out, _ = run_cli(
            ["allocate", "--config", str(cfg), "--epsilon", "0.0005"], capsys)
        assert code == 0
        assert "total=80" in out  # halving the budget doubles every count

    @pytest.mark.parametrize("flag", [["--fid", "0.9"], ["--fid=0.9"], ["--fidel", "0.9"]])
    def test_abbreviated_flag_overrides_config(self, tmp_path, capsys, flag):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"fidelity": 0.5}))
        argv = ["simulate", "--n", "2", "--epsilon0", "0.05", "--trials", "5"]
        code, out, _ = run_cli([*argv, "--config", str(cfg), *flag], capsys)
        assert code == 0
        assert "optimized_total=57 " in out  # as without the config; 0.5 gives 201

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run_cli(["allocate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key" in err


    def test_string_values_converted_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "2", "fidelity": "0.9", "compare": "uniform:50",
                                   "trials": "5", "seed": 3}))
        code, from_config, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        code, from_flags, _ = run_cli(
            ["simulate", "--n", "2", "--fidelity", "0.9", "--compare", "uniform:50",
             "--trials", "5", "--seed", "3"], capsys)
        assert code == 0
        assert from_config == from_flags

    @pytest.mark.parametrize("config", [{"n": "abc"}, {"trials": "abc"}, {"n": 3.5},
                                        {"n": None}, {"fidelity": [0.9]},
                                        {"histogram": "yes"}])
    def test_unconvertible_value_exit_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "config error" in err

    def test_config_that_is_not_text_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe\x00")
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "config error" in err


COMMANDS = ["allocate", "simulate", "adaptive", "hoeffding", "tomography", "tenphoton-cost"]


def _malformed(action, kind):
    """JSON values that no flag of this option could spell."""
    never = st.one_of(st.none(), st.dictionaries(st.text(max_size=3), st.integers(),
                                                 max_size=2),
                      st.lists(st.lists(st.integers(), max_size=2), min_size=1, max_size=2))
    if action.nargs == 0:
        return st.one_of(never, st.integers(), st.text(max_size=5))
    bad = [never, st.booleans()]
    if kind != "append":
        bad.append(st.lists(st.integers(), max_size=3))
    if action.type is int:
        bad.append(st.text(max_size=5).filter(lambda x: not _parses(int, x)))
        bad.append(st.floats(allow_nan=False, allow_infinity=False)
                   .filter(lambda x: x != int(x)))
    elif action.type is float:
        bad.append(st.text(max_size=5).filter(lambda x: not _parses(float, x)))
    if action.choices is not None:
        bad.append(st.text(max_size=5).filter(lambda x: x not in action.choices))
    return st.one_of(*bad)


def _parses(convert, text):
    try:
        convert(text)
    except ValueError:
        return False
    return True


@st.composite
def malformed_configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    options = _build_parser().parse_args([command]).config_options
    dest = draw(st.sampled_from(sorted(set(options) - {"help", "config"})))
    action, kind = options[dest]
    return command, {dest.replace("_", "-"): draw(_malformed(action, kind))}


@settings(max_examples=150, deadline=None)
@given(malformed_configs())
def test_malformed_config_value_exits_2(tmp_path_factory, case):
    command, config = case
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg)])
    assert code == 2, (command, config)
    assert err.getvalue().startswith("config error"), err.getvalue()


@pytest.mark.parametrize("argv, code", [
    (["hoeffding", "--required", "--h", "1e-200", "--delta", "0.5"], 3),
    (["hoeffding", "--required", "--h", "1e-10", "--delta", "0.5"], 3),
    (["tenphoton-cost", "--rate8", "1e300", "--copies", "5"], 3),
    (["simulate", "--n", "3", "--fidelity", "0.8", "--trials", "2",
      "--compare", "a:100000000000000000000000"], 2),
], ids=["required-copies", "required-copies-past-int64", "ten-photon-rate", "compare-count"])
def test_values_out_of_range_exit_cleanly(argv, code, capsys):
    """Values whose arithmetic leaves float or int64 range exit 2 or 3 with
    a message, not 1 with a traceback."""
    got, _, err = run_cli(argv, capsys)
    assert (got, err.count("\n")) == (code, 1)


class TestSimulate:
    def test_savings_report(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--n", "3", "--fidelity", "0.7068", "--compare", "uniform:200",
             "--trials", "40", "--seed", "5", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "comparison.csv").exists()
        report = json.loads((tmp_path / "comparison.json").read_text())
        rows = {r["name"]: r for r in report["rows"]}
        assert rows["uniform"]["total"] == 800
        assert rows["optimized"]["savings_pct"] > 0

    def test_deterministic_output_files(self, tmp_path, capsys):
        args = ["simulate", "--n", "2", "--fidelity", "0.9", "--compare", "uniform:50",
                "--trials", "20", "--seed", "9"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(d1)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(d2)], capsys)[0] == 0
        assert (d1 / "comparison.csv").read_bytes() == (d2 / "comparison.csv").read_bytes()

    def test_histogram_files(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["simulate", "--n", "2", "--fidelity", "0.9", "--compare", "uniform:50",
             "--trials", "20", "--seed", "9", "--histogram", "--out", str(tmp_path)],
            capsys)
        assert code == 0
        assert (tmp_path / "histogram_uniform.csv").exists()
        assert (tmp_path / "histogram_optimized.csv").exists()
        lines = (tmp_path / "histogram_uniform.csv").read_text().strip().split("\n")
        assert lines[0] == "bin_low,bin_high,events"

    def test_histograms_bin_the_comparison_trials(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["simulate", "--n", "4", "--fidelity", "0.8", "--compare", "uniform:60",
             "--compare", "lopsided:90/40/40/40/40", "--trials", "30", "--seed", "3",
             "--histogram", "--bins", "20", "--out", str(tmp_path)], capsys)
        assert code == 0
        with open(tmp_path / "comparison.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["name"] for r in rows] == ["uniform", "lopsided", "optimized"]
        for row in rows:
            summary = json.loads((tmp_path / f"histogram_{row['name']}.json").read_text())
            assert f"{summary['mean']:.6g}" == row["mean_fidelity"]
            assert f"{summary['std']:.6g}" == row["std_fidelity"]
            assert f"{summary['predicted_delta_f']:.6g}" == row["predicted_delta_f"]
            assert (summary["trials"], summary["bins"]) == (30, 20)
            events = (tmp_path / f"histogram_{row['name']}.csv").read_text().split("\n")[1:-1]
            assert len(events) == 20
            assert sum(int(line.rsplit(",", 1)[1]) for line in events) == 30

    def test_explicit_distribution_payload(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--n", "2", "--fidelity", "0.9",
             "--compare", "lab:40/30/30", "--trials", "10", "--seed", "2"], capsys)
        assert code == 0
        assert "lab" in out

    def test_lone_count_means_every_setting(self, capsys):
        runs = [run_cli(["simulate", "--n", "2", "--fidelity", "0.9", "--compare", spec,
                         "--trials", "10", "--seed", "2"], capsys) for spec in ("a:7", "a:7/7/7")]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    def test_budget_only_gets_uniform_reference(self, capsys):
        # with --epsilon0 and no comparison, a matching uniform split is
        # synthesized as the baseline
        code, out, _ = run_cli(
            ["simulate", "--n", "2", "--fidelity", "0.9", "--epsilon0", "0.02",
             "--trials", "10", "--seed", "4"], capsys)
        assert code == 0
        assert "uniform-match" in out

    def test_ten_photon_savings_regime(self, capsys):
        # corner-profile state at fidelity 0.8414: ~22% fewer copies than
        # uniform 100-per-setting at matched precision
        code, out, _ = run_cli(
            ["simulate", "--n", "10", "--fidelity", "0.8414", "--corner-mass", "0.947",
             "--compare", "uniform:100", "--trials", "10", "--seed", "1"], capsys)
        assert code == 0
        savings = float(out.rsplit("savings_pct=", 1)[1])
        assert abs(savings - 22.45) <= 5.0

    def test_one_qubit_corner_mass_exit_3(self, capsys):
        code, _, err = run_cli(["simulate", "--n", "1", "--fidelity", "0.9",
                                "--corner-mass", "0.9", "--epsilon0", "0.1"], capsys)
        assert code == 3
        assert "at least 2 qubits" in err

    def test_zero_trials_exit_3(self, capsys):
        code, _, err = run_cli(["simulate", "--n", "2", "--fidelity", "0.9",
                                "--epsilon0", "0.05", "--trials", "0"], capsys)
        assert code == 3
        assert "trials" in err

    def test_zero_bins_exit_3(self, capsys):
        code, _, err = run_cli(["simulate", "--n", "2", "--fidelity", "0.9",
                                "--epsilon0", "0.05", "--trials", "5", "--histogram",
                                "--bins", "0"], capsys)
        assert code == 3
        assert "bins" in err

    def test_needs_budget_or_comparison(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "--n", "2", "--fidelity", "0.9", "--trials", "5"], capsys)
        assert code == 2

    def test_one_past_the_qubit_cap_exit_3(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--n", "21", "--fidelity", "0.8414", "--corner-mass", "0.947",
             "--compare", "uniform:100", "--trials", "20", "--seed", "1"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: qubit count must be in [1, 20], got 21\n"

    @staticmethod
    def _peak_mb_of_simulate(n):
        """Run the README's simulate command at n qubits in its own process,
        so the peak RSS is this run's; check its two rows, return that peak.
        The child reads its VmHWM: its ru_maxrss would carry the high-water
        mark of the process that spawned it across the exec."""
        argv = ["simulate", "--n", str(n), "--fidelity", "0.8414", "--corner-mass", "0.947",
                "--compare", "uniform:100", "--trials", "20", "--seed", "1"]
        proc = _python("-c", "import sys; from qcopies.cli import main; "
                             f"code = main({argv!r}); "
                             "print(next(line.split()[1] for line in open('/proc/self/status') "
                             "if line.startswith('VmHWM:'))); "
                             "sys.exit(code)")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        rows = list(csv.DictReader(lines[:3]))
        assert [r["name"] for r in rows] == ["uniform", "optimized"]
        for r in rows:
            assert abs(float(r["mean_fidelity"]) - 0.8414) < 0.03
        return int(lines[-1]) / 1024  # VmHWM is in kB

    def test_sixteen_qubits_in_o_of_two_to_the_n_memory(self):
        # a dense 16-qubit state alone would take 16 * 4**16 bytes = 64 GiB
        assert self._peak_mb_of_simulate(16) < 200

    def test_twenty_qubits_read_only_the_non_zero_entries(self):
        # a 2**20 x 20 complex phase table over the whole anti-diagonal
        # alone would take 335 MB
        assert self._peak_mb_of_simulate(20) < 200


class TestAdaptive:
    def test_deterministic_round_log(self, tmp_path, capsys):
        args = ["adaptive", "--n", "2", "--fidelity", "0.9",
                "--schedule", "0.01:0.1:0.001", "--seed", "8"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        capsys.readouterr()
        assert (d1 / "rounds.csv").read_bytes() == (d2 / "rounds.csv").read_bytes()

    def test_state_file_round_trip(self, tmp_path, capsys):
        from qcopies import depolarized_sc
        from _oracles import density_json

        state = tmp_path / "rho.json"
        state.write_text(density_json(depolarized_sc(2, 0.9)))
        code, out, _ = run_cli(
            ["adaptive", "--n", "2", "--state", str(state),
             "--schedule", "0.01:0.1:0.001", "--seed", "8"], capsys)
        assert code == 0
        code2, _, _ = run_cli(
            ["adaptive", "--n", "3", "--state", str(state),
             "--schedule", "0.01:0.1:0.001"], capsys)
        assert code2 == 2  # qubit-count mismatch is a config error

    @pytest.mark.parametrize("text, code", [
        ('{"n": 1, "re": [[1, 0], [0, 0]]}', 2),
        ('[[1, 0], [0, 0]]', 2),
        ('{"n": 1, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}', 2),
        ('{"n": 1, "re": [[1, 0], [0, 0]], "im": ', 2),
        ('{"n": "x", "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}', 2),
        (b"\xff\xfe\x00", 2),
        ('{"n": 1, "re": [[NaN, NaN], [NaN, NaN]], "im": [[0, 0], [0, 0]]}', 3),
        ('{"n": 2, "re": ' + json.dumps([[float("nan")] * 4] * 4) + ', "im": '
         + json.dumps([[0] * 4] * 4) + '}', 3),
        ('{"n": 1, "re": [[Infinity, 0], [0, 0]], "im": [[0, 0], [0, 0]]}', 3),
        ('{"n": 1, "re": [[0.5, 0.5], [0, 0.5]], "im": [[0, 0], [0, 0]]}', 3),
        ('{"n": 1, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}', 3),
        ('{"n": 1, "re": [[1.5, 0], [0, -0.5]], "im": [[0, 0], [0, 0]]}', 3),
    ])
    def test_bad_state_file_exit_code(self, tmp_path, capsys, text, code):
        # 2: not a density-matrix JSON object; 3: breaks a state invariant
        state = tmp_path / "rho.json"
        state.write_bytes(text if isinstance(text, bytes) else text.encode())
        n = "2" if '"n": 2' in str(text) else "1"
        got, out, err = run_cli(["adaptive", "--n", n, "--state", str(state),
                                 "--schedule", "0.01:0.1:0.001"], capsys)
        assert (got, out) == (code, "")
        assert err.startswith("config error" if code == 2 else "error"), err

    def test_round_log_and_final_report(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["adaptive", "--n", "2", "--fidelity", "0.9", "--schedule", "0.01:0.1:0.001",
             "--seed", "3", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "rounds.csv").exists()
        final = json.loads((tmp_path / "final.json").read_text())
        assert final["rounds"] == 2
        assert final["fidelity_std"] <= np.sqrt(0.001) * 1.001
        assert "round,epsilon,setting,increment,cumulative,P_hat" in out

    def test_negative_pilot_exit_2(self, capsys):
        code, _, err = run_cli(["adaptive", "--n", "2", "--fidelity", "0.9",
                                "--t-initial", "-1"], capsys)
        assert code == 2
        assert "t_initial" in err

    def test_non_finite_schedule_exit_2(self, capsys):
        code, out, err = run_cli(["adaptive", "--n", "2", "--fidelity", "0.9",
                                  "--schedule", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flags, name", [
        (["--t-min", "0"], "t_min"),
        (["--initial-p", "2,0.5,0.5"], "initial_P"),
        (["--initial-p", "0.5,nan,0.5"], "initial_P"),
        (["--initial-p", "0.5,0.5,inf"], "initial_P"),
    ])
    def test_bad_config_exit_2_before_sampling(self, flags, name, capsys):
        code, out, err = run_cli(["adaptive", "--n", "2", "--fidelity", "0.9", *flags],
                                 capsys)
        assert code == 2
        assert out == ""
        assert name in err

    def test_explicit_schedule_and_target_prior(self, capsys):
        code, _, _ = run_cli(
            ["adaptive", "--n", "2", "--fidelity", "0.9", "--schedule", "0.01,0.002",
             "--initial-p", "target", "--seed", "4"], capsys)
        assert code == 0


    def test_method_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "2", "--fidelity", "0.9", "--compare", "uniform:50",
                  "--trials", "5", "--method", "multinomial"])
        assert exc.value.code == 2


class TestHoeffding:
    def test_joint_probability(self, capsys):
        code, out, _ = run_cli(
            ["hoeffding", "--t", "110", "--h", "0.2", "--settings", "9"], capsys)
        assert code == 0
        val = json.loads(out.strip().split("\n")[-1])["joint_success"]
        assert 0.9970 <= val <= 0.9975

    def test_required_copies(self, capsys):
        code, out, _ = run_cli(
            ["hoeffding", "--required", "--h", "0.2", "--delta", "1e-4"], capsys)
        assert code == 0
        assert json.loads(out.strip())["required_copies"] == 124

    def test_coverage_csv(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["hoeffding", "--coverage", "--n", "2", "--fidelity", "0.9",
             "--delta", "1e-4", "--copies", "50,100", "--repeats", "3",
             "--seed", "1", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "coverage.csv").exists()
        assert "all_inside=1" in out

    def test_joint_needs_inputs(self, capsys):
        assert run_cli(["hoeffding"], capsys)[0] == 2

    def test_zero_copies_message_shows_a_plain_int(self, capsys):
        code, out, err = run_cli(["hoeffding", "--n", "4", "--fidelity", "0.8", "--t", "0",
                                  "--h", "0.1"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: copies must be an integer >= 1, got 0\n"

    def test_empty_copies_exit_3(self, capsys):
        code, out, err = run_cli(["hoeffding", "--coverage", "--n", "3", "--fidelity", "0.8",
                                  "--copies", ","], capsys)
        assert code == 3
        assert out == ""
        assert "copy count" in err


class TestTomography:
    def test_curve_csv(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["tomography", "--n", "2", "--fidelity", "0.8", "--rank2",
             "--counts", "2000", "--settings", "8,16", "--repeats", "1",
             "--seed", "6", "--out", str(tmp_path)], capsys)
        assert code == 0
        lines = (tmp_path / "curve.csv").read_text().strip().split("\n")
        assert lines[0].startswith("settings_used,")
        assert len(lines) == 3

    def test_zero_counts_exit_3(self, capsys):
        code, _, err = run_cli(["tomography", "--n", "2", "--fidelity", "0.9",
                                "--counts", "0", "--settings", "4", "--repeats", "1"],
                               capsys)
        assert code == 3
        assert "copies per setting" in err

    def test_zero_max_iter_exit_3(self, capsys):
        code, out, err = run_cli(["tomography", "--n", "2", "--fidelity", "0.9",
                                  "--counts", "100", "--settings", "4", "--repeats", "1",
                                  "--max-iter", "0"], capsys)
        assert code == 3
        assert out == ""
        assert "max_iter" in err

    @pytest.mark.parametrize("family, n, used", [("projectors", 1, [4]),
                                                 ("projectors", 2, [8, 16]),
                                                 ("pauli", 2, [8, 9]),
                                                 ("pauli", 3, [8, 16, 27])])
    def test_default_settings_fit_the_family(self, family, n, used, capsys):
        code, out, err = run_cli(["tomography", "--n", str(n), "--fidelity", "0.8",
                                  "--family", family, "--counts", "500", "--repeats", "1",
                                  "--max-iter", "50", "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == used

    def test_repeated_settings_exit_3(self, capsys):
        code, out, err = run_cli(["tomography", "--n", "2", "--fidelity", "0.8",
                                  "--settings", "4,4", "--counts", "100", "--repeats", "1"],
                                 capsys)
        assert code == 3
        assert out == ""
        assert "only once" in err

    def test_empty_settings_exit_3(self, capsys):
        code, out, err = run_cli(["tomography", "--n", "2", "--fidelity", "0.9",
                                  "--settings", ",", "--counts", "100", "--repeats", "1"],
                                 capsys)
        assert code == 3
        assert out == ""
        assert "setting count" in err


class TestTenPhotonCost:
    def test_reference_numbers(self, capsys):
        code, out, _ = run_cli(
            ["tenphoton-cost", "--rate8", "2.8e-5", "--copies", "110"], capsys)
        assert code == 0
        rep = json.loads(out.strip())
        assert rep["ten_photon_per_hour"] == pytest.approx(0.0568, rel=5e-3)
        assert rep["hours"] == pytest.approx(1936.6, rel=5e-3)
        assert rep["days"] == pytest.approx(80.69, rel=5e-3)

    def test_zero_copies(self, capsys):
        code, out, _ = run_cli(
            ["tenphoton-cost", "--rate8", "2.8e-5", "--copies", "0"], capsys)
        assert code == 0
        assert json.loads(out.strip())["hours"] == 0.0

    def test_bad_rate_exit_3(self, capsys):
        assert run_cli(["tenphoton-cost", "--rate8", "-1", "--copies", "5"], capsys)[0] == 3

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_function_needs_a_finite_rate(self, rate):
        # an infinite rate would print Infinity, which is not JSON
        with pytest.raises(QcopiesError):
            ten_photon_cost(rate, 110)

    def test_function_api(self):
        rep = ten_photon_cost(2.8e-5, 110)
        assert rep.two_photon_per_hour == pytest.approx((2.8e-5 * 3600) ** 0.25, rel=1e-12)


# SHA-256 of the stdout of README commands whose output no sampler change
# may move: closed-form allocations, the adaptive protocol (its draws are
# per setting, per round), the joint Hoeffding bound and the rate arithmetic.
README_STDOUT_DIGESTS = [
    ("allocate --n 8 --epsilon0 0.016 --p " + MEASURED_P,
     "b9d2a37d60954c508d8d4c55f4c5117e773421cb406d62c698e641bfc5e99957"),
    ("allocate --k 0.01,0.01,0.01,0.01,0.01 --epsilon 0.001",
     "584d185e0275eb168094dbad2053a0a4b3ede44a04f5283425365b44b29dfcec"),
    ("adaptive --n 4 --fidelity 0.9374 --schedule 0.01:0.1:0.00001 --seed 0",
     "22cad60361d7140e71cc28fb9894bf152dae0360886f0f867635195857717ecd"),
    ("hoeffding --t 110 --h 0.2 --settings 9",
     "6ad0247f0e09e4d9a9c14cfc6b97b5e14c5b740e3c3694bf846909b3bbd3a1d2"),
    ("tenphoton-cost --rate8 2.8e-5 --copies 110",
     "babdd1f9ac412fe999aba33d4ac73ebd33d4f60f8c3777737ed1ef7ebe2a4487"),
]


@pytest.mark.parametrize("command, digest", README_STDOUT_DIGESTS,
                         ids=[c.split()[0] + str(i) for i, (c, _) in
                              enumerate(README_STDOUT_DIGESTS)])
def test_readme_stdout_is_pinned(command, digest, capsys):
    code, out, _ = run_cli(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the stdout of README commands that draw from the sampler, so a
# deliberate sampler change may move them; the reconstruction solver must not.
README_SAMPLED_STDOUT_DIGESTS = [
    ("tomography --n 3 --fidelity 0.7068 --rank2 --counts 20000 --seed 42",
     "e8b96b2718b63656a03261b5ec5e704284107d1c6c1cd8392e903b01b422b7e6"),
]


@pytest.mark.parametrize("command, digest", README_SAMPLED_STDOUT_DIGESTS,
                         ids=[c.split()[0] for c, _ in README_SAMPLED_STDOUT_DIGESTS])
def test_readme_sampled_stdout_is_pinned(command, digest, capsys):
    code, out, _ = run_cli(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the report files the README `adaptive` command writes with --out.
README_ADAPTIVE_OUT_DIGESTS = {
    "rounds.csv": "9bbfe5e81bb308a836901f9d7e30fcdde2324233585b44443c9bebb0ce779cf5",
    "final.json": "3b1ec8eb42e3c8e3458c0532d1bfb5c9769c55564878fc1bffabcdfd5f40946c",
}


def test_readme_adaptive_out_files_are_pinned(tmp_path, capsys):
    command = "adaptive --n 4 --fidelity 0.9374 --schedule 0.01:0.1:0.00001 --seed 0"
    code, _, _ = run_cli(command.split() + ["--out", str(tmp_path)], capsys)
    assert code == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in README_ADAPTIVE_OUT_DIGESTS} == README_ADAPTIVE_OUT_DIGESTS


# Each README command, with the SHA-256 of its stdout and of every report
# file it writes with --out (and --histogram on simulate).  The closed-form
# allocations, the joint Hoeffding bound and the rate arithmetic draw
# nothing; the simulate, adaptive, coverage and tomography runs draw from
# the sampler, so only a deliberate sampler change may move them.
README_RUNS = [
    ("allocate --n 8 --epsilon0 0.016 --p " + MEASURED_P,
     "b9d2a37d60954c508d8d4c55f4c5117e773421cb406d62c698e641bfc5e99957",
     {"allocation.csv": "bbf49da8e51d415edfa8a80e204bd0fd837add7f7f5efe7dcf3fa5fc04cc3162",
      "allocation.json": "7e7ebf1bcc105ba9e132227f4b4c4d3432d458d1d75377451716534889ed9bd4"}),
    ("allocate --k 0.01,0.01,0.01,0.01,0.01 --epsilon 0.001",
     "584d185e0275eb168094dbad2053a0a4b3ede44a04f5283425365b44b29dfcec",
     {"allocation.csv": "57f2388d4dc568b82aa044cf3b4c715f9ada4ff0bfb1d579295f266af6d31f97",
      "allocation.json": "0349d240beee539e0da5ce84b3e052c1d1ab5a60e847a701e758adc84567f0f6"}),
    ("simulate --n 10 --fidelity 0.8414 --corner-mass 0.947 --compare uniform:100 "
     "--trials 100 --seed 7",
     "9a714dad3b326de8e5cb4ee95aed36b1504b5e59ce5885968623e0f61888c034",
     {"comparison.csv": "35429ecb7df28dc18194071c8f73b72fc81997a1a55dd605f5d07f7e6d55206a",
      "comparison.json": "07907b5fd80f4e6496b5de28635de558d22c7982092e23eb444a86b47a17ab40",
      "histogram_optimized.csv":
          "2fedbe92fbe1a3188a3ddf7c986db400a9b0cf73691f01b7d0c246580695f140",
      "histogram_optimized.json":
          "b40cb0f2c010a197887b5d5afcb891daa6a71247d5d6340be284a8600b7ee14d",
      "histogram_uniform.csv":
          "3cfd3e3e5b3813d1c1a439f7e882167881c5469d4b6fb6769ab9e9db6d927eeb",
      "histogram_uniform.json":
          "55d3f79a323ea67b09acccf3b3b73d192782f10bc46e7818ca278d00b51b14b4"}),
    ("adaptive --n 4 --fidelity 0.9374 --schedule 0.01:0.1:0.00001 --seed 0",
     "22cad60361d7140e71cc28fb9894bf152dae0360886f0f867635195857717ecd",
     README_ADAPTIVE_OUT_DIGESTS),
    ("hoeffding --t 110 --h 0.2 --settings 9",
     "6ad0247f0e09e4d9a9c14cfc6b97b5e14c5b740e3c3694bf846909b3bbd3a1d2", {}),
    ("hoeffding --coverage --n 8 --fidelity 0.708 --corner-mass 0.8068 --delta 1e-4",
     "4d6a5159a26800da43f390ee9c15380f0845f875213205f08ceaa356c41c5fc0",
     {"coverage.csv": "4ba0ae26553fba00eefd1ae3cb8163f07a2f05147f2ea958761a639afae1203f"}),
    ("tomography --n 3 --fidelity 0.7068 --rank2 --counts 20000 --seed 42",
     "e8b96b2718b63656a03261b5ec5e704284107d1c6c1cd8392e903b01b422b7e6",
     {"curve.csv": "e8b96b2718b63656a03261b5ec5e704284107d1c6c1cd8392e903b01b422b7e6"}),
    ("tenphoton-cost --rate8 2.8e-5 --copies 110",
     "babdd1f9ac412fe999aba33d4ac73ebd33d4f60f8c3777737ed1ef7ebe2a4487",
     {"cost.json": "abef40dfb5b6dc1ff27f434a6d7a28d9238af037033aeca11af18d7b1773451a"}),
]


@pytest.mark.parametrize("command, stdout, files", README_RUNS,
                         ids=[c.split()[0] + str(i) for i, (c, _, _) in enumerate(README_RUNS)])
def test_readme_stdout_and_out_files_are_pinned(command, stdout, files, tmp_path, capsys):
    # run as the README prints it, then with --out: both print the same stdout
    argv = command.split()
    out_argv = argv + ["--out", str(tmp_path)] + ["--histogram"] * (argv[0] == "simulate")
    for args in (argv, out_argv):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == files


class TestSeedFallback:
    def test_env_seed_matches_flag(self, tmp_path, capsys, monkeypatch):
        base = ["simulate", "--n", "2", "--fidelity", "0.9", "--compare", "uniform:50",
                "--trials", "15"]
        d1, d2 = tmp_path / "flag", tmp_path / "env"
        run_cli(base + ["--seed", "77", "--out", str(d1)], capsys)
        monkeypatch.setenv("QCOPIES_SEED", "77")
        run_cli(base + ["--out", str(d2)], capsys)
        assert (d1 / "comparison.csv").read_bytes() == (d2 / "comparison.csv").read_bytes()


# Bad or degenerate input: each exits 2 (configuration) or 3 (domain) with a
# one-line message, never a traceback, exit 1 or a meaningless answer.
BAD_INPUTS = [
    ("simulate --n 3 --fidelity 0.9 --compare uniform:10 --trials 5 --seed -1", {}, 2),
    ("adaptive --n 3 --fidelity 0.9 --seed -1", {}, 2),
    ("hoeffding --coverage --n 2 --fidelity 0.9 --copies 50 --repeats 2 --seed -1", {}, 2),
    ("tomography --n 2 --fidelity 0.8 --rank2 --settings 4 --seed -1", {}, 2),
    ("adaptive --n 3 --fidelity 0.9", {"QCOPIES_SEED": "abc"}, 2),
    ("adaptive --n 3 --fidelity 0.9", {"QCOPIES_SEED": "-1"}, 2),
    ("adaptive --n 3 --fidelity 0.9 --schedule a:b:c", {}, 2),
    ("adaptive --n 3 --fidelity 0.9 --schedule 0.01::0.001", {}, 2),
    ("adaptive --n 3 --fidelity 0.9 --schedule inf:0.1:0.001", {}, 2),
    ("adaptive --n 3 --fidelity 0.9 --schedule 0.01:0.99999:0.00001", {}, 2),
    ("hoeffding --t , --h ,", {}, 3),
    ("hoeffding --t 110 --h 0.2 --settings -1", {}, 2),
    ("hoeffding --t 110 --h 0.2 --settings 0", {}, 2),
    ("hoeffding --t inf --h 0.2", {}, 2),
    ("hoeffding --t nan --h 0.2", {}, 2),
    ("hoeffding --coverage --n 3 --fidelity 0.8 --copies 1e400", {}, 2),
    ("tomography --n 2 --fidelity 0.8 --rank2 --settings inf", {}, 2),
    ("allocate --p 0.5 --epsilon0 0.1", {}, 3),
    ("tenphoton-cost --rate8 inf --copies 110", {}, 3),
    ("simulate --n 2 --fidelity 0.9 --compare uniform:10 --trials 5 --seed 1 --histogram",
     {}, 2),
    ("simulate --n 2 --fidelity 0.9 --compare a:10 --compare a:20 --trials 5 --seed 1", {}, 2),
    ("simulate --n 2 --fidelity 0.9 --compare optimized:10 --trials 5 --seed 1", {}, 2),
    ("simulate --n 2 --fidelity 0.9 --compare :10 --trials 5 --seed 1", {}, 2),
    ("tomography --n 2 --fidelity 0.8 --rank2 --state missing.json --settings 4 --counts 100 "
     "--repeats 1", {}, 2),
    ("tomography --n 2 --fidelity 0.8 --rank2 --corner-mass 0.9 --settings 4 --counts 100 "
     "--repeats 1", {}, 2),
    # counts past MAX_COPIES = 2**63 - 1
    ("allocate --p 0.5,0.5 --epsilon0 0.1 --t-min 99999999999999999999", {}, 3),
    ("allocate --k 0.01,0.01 --epsilon 0.001 --t-min 99999999999999999999", {}, 3),
    ("simulate --n 2 --fidelity 0.9 --epsilon0 0.1 --trials 2 --t-min 99999999999999999999",
     {}, 3),
    ("adaptive --n 2 --fidelity 0.9 --schedule 0.01 --t-min 99999999999999999999", {}, 2),
    ("adaptive --n 2 --fidelity 0.9 --schedule 0.01 --t-initial 99999999999999999999", {}, 2),
    ("simulate --n 2 --fidelity 0.9 --epsilon0 0.1 --trials 99999999999999999999", {}, 3),
    ("hoeffding --coverage --n 2 --fidelity 0.9 --copies 50 --repeats 99999999999999999999",
     {}, 3),
    ("simulate --n 2 --fidelity 0.9 --epsilon0 0.1 --trials 2 --histogram "
     "--bins 99999999999999999999 --out never_written", {}, 3),
    # counts past 2**59 - 1, where a (count, 2) int64 array passes numpy's
    # 2**63 - 1 bytes: numpy rejects these sizes before it allocates anything
    ("simulate --n 2 --fidelity 0.9 --epsilon0 0.1 --trials 576460752303423488", {}, 3),
    ("hoeffding --coverage --n 2 --fidelity 0.9 --copies 10 --repeats 576460752303423488",
     {}, 3),
    ("simulate --n 2 --fidelity 0.9 --epsilon0 0.1 --trials 2 --histogram "
     "--bins 576460752303423488 --out never_written", {}, 3),
]


@pytest.mark.parametrize("command, env, code", BAD_INPUTS,
                         ids=[f"{c}{' ' + str(e) if e else ''}" for c, e, _ in BAD_INPUTS])
def test_bad_input_exit_code(command, env, code, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    got, out, err = run_cli(command.split(), capsys)
    assert got == code
    assert out == ""
    assert "Traceback" not in err and err.startswith(("config error: ", "error: "))
    assert err.count("\n") == 1


def test_out_of_memory_exit_3(capsys, monkeypatch):
    # a count under the bound can still ask numpy for more memory than the host
    # has; the library call is replaced, so no large array is ever requested
    from qcopies import simulator

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                          "(1000000000000, 2) and data type int64")

    monkeypatch.setattr(simulator, "compare_distributions", no_memory)
    code, out, err = run_cli("simulate --n 2 --fidelity 0.9 --epsilon0 0.1 --trials 5".split(),
                             capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


def test_unwritable_out_exit_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(["allocate", "--k", "0.01,0.01", "--epsilon", "0.001",
                              "--out", str(tmp_path / "file" / "sub")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and err.count("\n") == 1


# Help and usage errors keep their bytes now that `main` builds only the
# invoked command's parser: exit code and SHA-256 of stdout and of stderr at
# COLUMNS=80, as the full parser printed them under Python 3.11's argparse.
EMPTY = hashlib.sha256(b"").hexdigest()
PARSER_OUTPUT_DIGESTS = [
    ("--help", 0,
     "f8d59ae1001189b65a57dbbdf4d568acbda6f08b5370218afbcbb42bafa9e8f4", EMPTY),
    ("", 2,
     EMPTY, "ef037abed62a2f7d9f0597f48a9a0c9938d1e8c06550389e19dcc5411684e9ae"),
    ("bogus", 2,
     EMPTY, "d7dad3c277c46b762ddcd08dfaa370fd08ff6c67198f54dba2823054f609dc76"),
    ("-h simulate", 0,
     "f8d59ae1001189b65a57dbbdf4d568acbda6f08b5370218afbcbb42bafa9e8f4", EMPTY),
    ("allocate --help", 0,
     "ac304261cdea8bd3f265cbf8b04aa83cbba497657a9dc10db5c2d11a4089149f", EMPTY),
    ("simulate --help", 0,
     "630d9fc298dd2b99dbabb73ef3b0537cd7b76091be30bc0247bc730f2ca906e6", EMPTY),
    ("adaptive --help", 0,
     "d453b238205232348c415b501629414214ce12a1d9742e2b59d2329e360edf05", EMPTY),
    ("hoeffding --help", 0,
     "4ff0d332048cfbdbcb91f60482bcec582ebf158b7ae79b4e43c21df4c099f256", EMPTY),
    ("tomography --help", 0,
     "99a2b1a5a16b7e2570750745524172644781590fe66698fbd225a466b88b31f3", EMPTY),
    ("tenphoton-cost --help", 0,
     "c1cd71ef02fa43e091c9170389871314a672347aae40c28202e74f912b655a1a", EMPTY),
    ("simulate --n 3 extra", 2,
     EMPTY, "8fccd1998ad38c04baf7d37e43732286dd5a84a72e49f423f45a96c0aa9c0982"),
    ("simulate --nope", 2,
     EMPTY, "93ee157bac2ba33e886fa10b17d455d4d5110b2b2707821c1405ba9a1af64e9f"),
    ("simulate --trials x", 2,
     EMPTY, "0bcc7980b72156fa6e3a708f06d00c0830d4b453c94f33d581fa631fec157b6b"),
    ("simulate --n 3 --fidelity 0.8 --compare uniform:50 --trials 5"
     " --seed 1 --config /nonexistent", 2,
     EMPTY, "9912aa83907d0bbdcbda73c6b0b5924be8ac135be0c45d3455303720136d22d8"),
]


@pytest.mark.parametrize("command, code, stdout, stderr", PARSER_OUTPUT_DIGESTS,
                         ids=[c or "no-argument" for c, *_ in PARSER_OUTPUT_DIGESTS])
def test_help_and_usage_errors_are_pinned(command, code, stdout, stderr, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(command.split())
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr()
    assert (got, hashlib.sha256(out.out.encode()).hexdigest(),
            hashlib.sha256(out.err.encode()).hexdigest()) == (code, stdout, stderr), out


@pytest.mark.parametrize("argv", [[c, "--help"] for c in COMMANDS]
                         + [["tenphoton-cost", "--rate8", "2.8e-5", "--copies", "110"]],
                         ids=" ".join)
def test_main_builds_only_the_invoked_commands_parser(argv, capsys, monkeypatch):
    built = []
    add_argument = _Parser.add_argument

    def spy(parser, *args, **kwargs):
        built.append(parser.prog)
        return add_argument(parser, *args, **kwargs)

    monkeypatch.setattr(_Parser, "add_argument", spy)
    with contextlib.suppress(SystemExit):
        main(argv)
    assert capsys.readouterr().out
    assert set(built) == {"qcopies", f"qcopies {argv[0]}"}


def _option_table(namespace):
    return {dest: (action.option_strings, kind, action.type, action.default, action.nargs,
                   action.choices, action.help)
            for dest, (action, kind) in namespace.config_options.items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_matches_the_full_one(command):
    lean = _build_parser(command).parse_args([command])
    full = _build_parser().parse_args([command])
    assert _option_table(lean) == _option_table(full)
    assert {**vars(lean), "config_options": None} == {**vars(full), "config_options": None}


def test_console_entry_point():
    exe = shutil.which("qcopies")
    cmd = [exe] if exe else [sys.executable, "-m", "qcopies"]
    proc = subprocess.run(
        cmd + ["allocate", "--k", "0.01,0.01", "--epsilon", "0.001"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "total=40" in proc.stdout


def _python(*args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_cli_module_runs_without_warning():
    proc = _python("-m", "qcopies.cli", "tenphoton-cost", "--rate8", "2.8e-5", "--copies", "110")
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_cli_attribute_loads_on_first_use():
    proc = _python("-c", "import sys, qcopies; assert 'qcopies.cli' not in sys.modules; "
                         "print(qcopies.cli.main.__module__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "qcopies.cli"
