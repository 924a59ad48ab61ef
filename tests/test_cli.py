"""Command-line surface: exit codes, file schemas, and reproducibility.

The CLI is a thin shell; these tests only assert codes and emitted file
shapes, with the numerics covered by the library tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srrb
from srrb.cli import main
from srrb.instance import load_instance


@pytest.fixture
def stationary_file(tmp_path):
    doc = {
        "horizon": 200,
        "arms": [
            {"family": "constant", "params": {"value": 0.6}, "law": "bernoulli", "law_params": {}},
            {"family": "constant", "params": {"value": 0.5}, "law": "bernoulli", "law_params": {}},
        ],
    }
    path = tmp_path / "stationary.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def experiment_config(tmp_path, stationary_file):
    config = {
        "instance": {"file": str(stationary_file)},
        "horizon": 150,
        "runs": 3,
        "master_seed": 99,
        "policies": [
            {"kind": "beta_swts", "label": "ts"},
            {"kind": "ucb1", "label": "ucb"},
        ],
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    return path


# two equal arms: the optimal arm is not unique
TIE = {
    "horizon": 10,
    "arms": [
        {"family": "constant", "params": {"value": 0.5}, "law": "bernoulli"},
        {"family": "constant", "params": {"value": 0.5}, "law": "bernoulli"},
    ],
}


# unique optimum (arm 1) at T = 200, but equal averages over the first 10 rounds
LATE_RISER = {
    "horizon": 200,
    "arms": [
        {"family": "constant", "params": {"value": 0.5}, "law": "bernoulli"},
        {"family": "tabulated", "params": {"values": [0.5] * 10 + [0.9]}, "law": "bernoulli"},
    ],
}


def _late_riser_config(tmp_path, horizon=10):
    path = tmp_path / "late.json"
    path.write_text(json.dumps({
        "instance": LATE_RISER,
        "horizon": horizon,
        "policies": [{"kind": "ucb1"}],
        "sweep": {"axis": "forced_pulls", "grid": [0, 1]},
    }))
    return path


class TestAnalyze:
    def test_stationary_report(self, stationary_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["analyze", str(stationary_file), "--tau-list", "1,200", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["optimal_arm"] == 0
        assert report["sigma_max"] == 1
        assert report["sigma"] == {"1": 1}
        assert len(report["windowed"]) == 2
        assert set(report["growth_index"]) == {"0.25", "0.5", "0.75", "1.0"}

    def test_persistent_pair_file(self, tmp_path):
        from srrb.constructions import persistent_gap_pair
        from srrb.instance import dump_instance

        path = tmp_path / "pair.json"
        dump_instance(persistent_gap_pair(500, exponent=0.5), path)
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["sigma_max"] <= 2

    def test_schema_violation_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"horizon": 10, "arms": [{"family": "mystery", "params": {}}]}))
        assert main(["analyze", str(bad)]) == 2
        missing = tmp_path / "nope.json"
        assert main(["analyze", str(missing)]) == 2

    def test_non_unique_optimum_exits_3(self, tmp_path, capsys):
        tie = tmp_path / "tie.json"
        tie.write_text(json.dumps(TIE))
        assert main(["analyze", str(tie)]) == 3
        assert "invalid instance: optimal arm is not unique" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_non_finite_precision_scale_exits_2(self, stationary_file, tmp_path, capsys, scale):
        out = tmp_path / "report.json"
        argv = ["analyze", str(stationary_file), "--bound-sigma", "5", "--bound-flavor", "gauss",
                "--bound-precision-scale", scale, "--out", str(out)]
        assert main(argv) == 2
        assert "error: precision_scale" in capsys.readouterr().err
        assert not out.exists()

    def test_unreachable_window_threshold_is_strict_json(self, tmp_path):
        # a late bloomer's final value is never reached by the optimal
        # arm's windowed average; the report encodes that as "inf"/null
        doc = {
            "horizon": 100,
            "arms": [
                {"family": "constant", "params": {"value": 0.6}, "law": "bernoulli"},
                {
                    "family": "tabulated",
                    "params": {"values": [0.0] * 90 + [0.9] * 10},
                    "law": "bernoulli",
                },
            ],
        }
        path = tmp_path / "bloomer.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--tau-list", "10", "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=lambda _: pytest.fail("non-strict JSON"))
        assert report["windowed"][0]["sigma"]["1"] == "inf"
        assert report["windowed"][0]["gap"]["1"] is None

    def test_bound_terms_flag(self, stationary_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", str(stationary_file), "--bound-sigma", "5", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["bound_terms"]["flavor"] == "beta"
        assert "1" in report["bound_terms"]["per_arm"]


class TestRun:
    def test_emits_csv_per_policy_and_json(self, experiment_config, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "--config", str(experiment_config), "--out", str(out)]) == 0
        ts_csv = (out / "ts.csv").read_text().splitlines()
        assert ts_csv[0] == "grid_t,mean_regret,std_regret"
        assert len(ts_csv) == 1 + 151  # header + grid points (stride 1)
        assert (out / "ucb.csv").exists()
        results = json.loads((out / "results.json").read_text())
        assert set(results["results"]) == {"ts", "ucb"}
        assert results["runs"] == 3

    def test_rerun_is_byte_identical(self, experiment_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(experiment_config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(experiment_config), "--out", str(out2)]) == 0
        for name in ("ts.csv", "ucb.csv", "results.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_threads_do_not_change_outputs(self, experiment_config, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t8"
        main(["run", "--config", str(experiment_config), "--out", str(out1), "--threads", "1"])
        main(["run", "--config", str(experiment_config), "--out", str(out2), "--threads", "8"])
        for name in ("ts.csv", "ucb.csv", "results.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_errors_exit_2(self, tmp_path, stationary_file):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"instance": {"file": str(stationary_file)}, "policies": []}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        dup = tmp_path / "dup.json"
        dup.write_text(
            json.dumps(
                {
                    "instance": {"file": str(stationary_file)},
                    "policies": [{"kind": "ucb1", "label": "x"}, {"kind": "beta_swts", "label": "x"}],
                }
            )
        )
        assert main(["run", "--config", str(dup), "--out", str(tmp_path / "o2")]) == 2
        not_a_path = tmp_path / "not_a_path.json"
        not_a_path.write_text(json.dumps({"instance": {"file": 5}, "policies": [{"kind": "ucb1"}]}))
        assert main(["run", "--config", str(not_a_path), "--out", str(tmp_path / "o3")]) == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_unique_optimum_exits_3(self, tmp_path, capsys, command):
        config = tmp_path / "tie.json"
        config.write_text(json.dumps({
            "instance": TIE,
            "policies": [{"kind": "ucb1"}],
            "sweep": {"axis": "forced_pulls", "grid": [0]},
        }))
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 3
        assert "invalid instance: optimal arm is not unique" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_tie_at_the_config_horizon_exits_3_before_any_output(self, tmp_path, command):
        config = _late_riser_config(tmp_path)
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 3
        assert not out.exists()
        # the instance itself is valid at its own horizon
        assert main([command, "--config", str(_late_riser_config(tmp_path, 200)),
                     "--out", str(out)]) == 0

    def test_tie_at_the_config_horizon_as_a_process(self, tmp_path):
        out = tmp_path / "o"
        src = str(Path(srrb.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        proc = subprocess.run(
            [sys.executable, "-m", "srrb.cli", "run", "--config", str(_late_riser_config(tmp_path)),
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("invalid instance: optimal arm is not unique")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("where", ["ucb_alpha", "curve"])
    def test_integer_too_large_for_a_float_exits_2(self, experiment_config, tmp_path, capsys, where):
        config = json.loads(experiment_config.read_text())
        if where == "ucb_alpha":
            config["policies"][1]["ucb_alpha"] = 10**400
        else:
            config["instance"] = {"horizon": 200, "arms": [
                {"family": "constant", "params": {"value": 10**400}, "law": "bernoulli"},
                {"family": "constant", "params": {"value": 0.5}, "law": "bernoulli"},
            ]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "1" + "0" * 400 in capsys.readouterr().err
        assert not out.exists()

    def test_every_arm_law_checked_before_any_output(self, tmp_path, capsys):
        doc = {
            "horizon": 100,
            "arms": [
                {"family": "constant", "params": {"value": 0.6}, "law": "bernoulli"},
                {"family": "constant", "params": {"value": 0.4}, "law": "bounded_uniform",
                 "law_params": {"half_width": 0.1}},
            ],
        }
        config = tmp_path / "mixed.json"
        config.write_text(json.dumps({
            "instance": doc,
            "policies": [{"kind": "ucb1", "label": "ucb"}, {"kind": "beta_swts", "label": "ts"}],
        }))
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "policy 'ts'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["runs", "master_seed", "stride", "horizon"])
    def test_boolean_counts_exit_2(self, experiment_config, tmp_path, field):
        config = json.loads(experiment_config.read_text())
        config[field] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("window", 2.5),
            ("forced_pulls", 2.5),
            ("window", True),
            ("ucb_alpha", True),
            ("sw_xi", float("nan")),
            ("precision_scale", float("inf")),
        ],
    )
    def test_bad_policy_fields_exit_2(self, experiment_config, tmp_path, field, value):
        config = json.loads(experiment_config.read_text())
        config["policies"][1][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))  # NaN and Infinity are read back as floats
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "policy",
        [
            {"kind": "beta_swts", "sw_xi": 0.5},
            {"kind": "sw_ucb", "ucb_alpha": 0.5},
            {"kind": "ucb1", "precision_scale": 0.5},
        ],
    )
    def test_field_the_kind_does_not_read_exits_2(self, experiment_config, tmp_path, policy):
        config = json.loads(experiment_config.read_text())
        config["policies"][1] = policy
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_label_leaving_the_output_directory_exits_2(self, experiment_config, tmp_path):
        config = json.loads(experiment_config.read_text())
        config["policies"][1]["label"] = "../escaped"
        path = tmp_path / "escape.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "escape.json", "experiment.json", "stationary.json"
        ]

    @pytest.mark.parametrize(
        "arm",
        [
            {"family": "constant", "params": {"value": 0.5, "slope": 1.0}, "law": "bernoulli"},
            {"family": "constant", "params": {"value": 0.5}, "law": "bernoulli",
             "law_params": {"half_width": 0.1}},
            {"family": "constant", "params": {"value": 0.5}, "law": "bounded_uniform",
             "law_params": {"half_width": 0.1, "hoeffding": "false"}},
        ],
    )
    def test_bad_instance_parameter_exits_2(self, experiment_config, tmp_path, arm):
        config = json.loads(experiment_config.read_text())
        doc = {"horizon": 100, "arms": [
            {"family": "constant", "params": {"value": 0.6}, "law": "bernoulli"}, arm
        ]}
        config["instance"] = doc
        config["horizon"] = 100
        config["policies"] = [{"kind": "ucb1"}]
        path = tmp_path / "instance_params.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_master_seed_exits_2(self, experiment_config, tmp_path):
        config = json.loads(experiment_config.read_text())
        config["master_seed"] = -1
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_seed_flag_exits_2(self, experiment_config, tmp_path):
        out = tmp_path / "o"
        argv = ["run", "--config", str(experiment_config), "--out", str(out), "--seed", "-1"]
        assert main(argv) == 2
        assert not out.exists()

    def test_ucb1_is_sw_ucb_with_its_window(self, experiment_config, tmp_path):
        config = json.loads(experiment_config.read_text())
        config["policies"] = [
            {"kind": "ucb1", "label": "ucb1", "window": 9, "ucb_alpha": 0.8},
            {"kind": "sw_ucb", "label": "sw_ucb", "window": 9, "sw_xi": 0.8},
        ]
        path = tmp_path / "ucb.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "ucb1.csv").read_bytes() == (out / "sw_ucb.csv").read_bytes()
        results = json.loads((out / "results.json").read_text())["results"]
        assert results["ucb1"]["config"]["window"] == 9

    def test_zero_threads_exit_2(self, experiment_config, tmp_path):
        argv = ["run", "--config", str(experiment_config), "--out", str(tmp_path / "o")]
        assert main(argv + ["--threads", "0"]) == 2

    def test_bound_violation_exits_1_and_removes_outputs(
        self, experiment_config, tmp_path, monkeypatch
    ):
        import srrb.harness

        monkeypatch.setattr(srrb.harness, "wald_regret_bound", lambda instance, counts: -1.0)
        out = tmp_path / "o"
        assert main(["run", "--config", str(experiment_config), "--out", str(out)]) == 1
        assert not any(out.iterdir())

    def test_unexpected_error_raises_and_removes_outputs(
        self, experiment_config, tmp_path, monkeypatch
    ):
        import srrb.cli

        calls = []
        real_run_batch = srrb.cli.run_batch

        def failing_second_batch(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return real_run_batch(*args, **kwargs)

        monkeypatch.setattr(srrb.cli, "run_batch", failing_second_batch)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError, match="boom"):
            main(["run", "--config", str(experiment_config), "--out", str(out)])
        assert len(calls) == 2
        assert not any(out.iterdir())

    def test_seed_override_changes_outputs(self, experiment_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["run", "--config", str(experiment_config), "--out", str(out1), "--seed", "1"])
        main(["run", "--config", str(experiment_config), "--out", str(out2), "--seed", "2"])
        assert (out1 / "ts.csv").read_bytes() != (out2 / "ts.csv").read_bytes()


class TestSweep:
    def test_sweep_outputs(self, tmp_path, stationary_file):
        config = {
            "instance": {"file": str(stationary_file)},
            "horizon": 120,
            "runs": 2,
            "master_seed": 4,
            "policies": [
                {"kind": "beta_swts", "label": "ts"},
                {"kind": "gauss_swgts", "label": "gauss"},
            ],
            "sweep": {"axis": "forced_pulls", "grid": [0, 5, 10]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "ts_sweep.csv").read_text().splitlines()
        assert lines[0] == "axis_value,resolved,mean_final_regret,std_final_regret"
        assert len(lines) == 4
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["axis"] == "forced_pulls"
        assert len(doc["results"]["ts"]["points"]) == 3
        # the resolved configs, as in results.json
        assert doc["results"]["ts"]["config"]["window"] == 120
        assert doc["results"]["gauss"]["config"]["precision_scale"] == 1.0

    @staticmethod
    def _window_sweep(tmp_path, stationary_file, policies, grid):
        """Run a window_exponent sweep at T = 100; return its output
        directory and the windows each grid value resolved to."""
        config = {
            "instance": {"file": str(stationary_file)},
            "horizon": 100,
            "runs": 2,
            "master_seed": 8,
            "policies": policies,
            "sweep": {"axis": "window_exponent", "grid": grid},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        label = policies[0]["label"]
        return out, [p["resolved"] for p in doc["results"][label]["points"]]

    def test_window_exponent_axis(self, tmp_path, stationary_file):
        ts = [{"kind": "beta_swts", "label": "ts"}]
        _, resolved = self._window_sweep(tmp_path, stationary_file, ts, [0.5, 1.0])
        assert resolved == [10, 100]  # round(100^0.5), round(100^1)

    def test_window_exponent_far_above_one_is_the_horizon(self, tmp_path, stationary_file):
        # 100^400 overflows a float; the exponent is clamped to 1 first
        ts = [{"kind": "beta_swts", "label": "ts"}]
        _, resolved = self._window_sweep(tmp_path, stationary_file, ts, [0.5, 400])
        assert resolved == [10, 100]

    def test_ucb1_window_exponent_sweep_runs_each_window(self, tmp_path, stationary_file):
        policies = [
            {"kind": "ucb1", "label": "ucb1", "ucb_alpha": 0.6},
            {"kind": "sw_ucb", "label": "sw_ucb", "sw_xi": 0.6},
        ]
        out, resolved = self._window_sweep(tmp_path, stationary_file, policies, [0.0, 0.5, 1.0])
        assert resolved == [1, 10, 100]
        assert (out / "ucb1_sweep.csv").read_bytes() == (out / "sw_ucb_sweep.csv").read_bytes()

    @pytest.mark.parametrize(
        "section",
        [
            {"axis": "learning_rate", "grid": [1]},
            {"axis": "forced_pulls", "grid": [0, -5]},
            {"axis": "forced_pulls", "grid": [2.5]},
            {"axis": "forced_pulls", "grid": [3.0]},
            {"axis": "forced_pulls", "grid": [True]},
            {"axis": "window_exponent", "grid": [0.5, "1"]},
        ],
    )
    def test_bad_sweep_section_exits_2(self, experiment_config, tmp_path, section):
        config = json.loads(experiment_config.read_text())
        config["sweep"] = section
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_sweep_section_exits_2(self, experiment_config, tmp_path):
        assert main(["sweep", "--config", str(experiment_config), "--out", str(tmp_path / "o")]) == 2


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        assert main(["verify", "--suite", "identities"]) == 0
        output = capsys.readouterr().out
        assert "[PASS]" in output
        assert "[FAIL]" not in output


class TestLowerBound:
    def test_emits_pair_and_bound(self, tmp_path):
        out = tmp_path / "lb"
        code = main(
            ["lower-bound", "--arms", "15", "--sigma-bar", "10", "--horizon", "100", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "lower_bound.json").read_text())
        assert summary["regret_bound"] == 1.875
        base = load_instance(out / "instance_base.json")
        assert base.num_arms == 15

    def test_degenerate_budget_still_valid(self, tmp_path):
        out = tmp_path / "lb2"
        assert main(
            ["lower-bound", "--arms", "3", "--sigma-bar", "2", "--horizon", "50", "--out", str(out)]
        ) == 0
        summary = json.loads((out / "lower_bound.json").read_text())
        assert summary["regret_bound"] == 0.0
        load_instance(out / "instance_base.json")
        load_instance(out / "instance_boosted.json")

    def test_emitted_instance_passes_analyze_within_budget(self, tmp_path):
        out = tmp_path / "lb3"
        main(["lower-bound", "--arms", "4", "--sigma-bar", "10", "--horizon", "200", "--out", str(out)])
        report_path = tmp_path / "report.json"
        assert main(["analyze", str(out / "instance_base.json"), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["sigma_max"] <= 2 * 10 + 2
        assert main(["analyze", str(out / "instance_boosted.json"), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["sigma_max"] <= 2 * 10 + 2

    def test_range_violation_exits_2(self, tmp_path):
        code = main(
            ["lower-bound", "--arms", "3", "--sigma-bar", "60", "--horizon", "100", "--out", str(tmp_path)]
        )
        assert code == 2
