"""CLI entry point (python -m repro)."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "ablation-knee" in out

    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "5120 arrays" in out and "86016 arrays" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "MLIMP configurations" in out
        assert "302" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiments" in err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCommand:
    def test_trace_combo(self, capsys):
        assert main(["trace", "A", "--scheduler", "global"]) == 0
        out = capsys.readouterr().out
        assert "dispatch report" in out
        assert "predictor error" in out
        for device in ("sram", "dram", "reram"):
            assert device in out

    def test_trace_exports(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "runs.json"
        csv_path = tmp_path / "trace.csv"
        assert (
            main(
                [
                    "trace", "A",
                    "--scheduler", "ljf",
                    "--json", str(json_path),
                    "--csv", str(csv_path),
                ]
            )
            == 0
        )
        data = json.loads(json_path.read_text())
        (run,) = data["runs"]
        assert run["report"]["n_jobs"] == len(run["decisions"]) > 0
        assert all(
            d["predicted_time"] is not None and d["actual_time"] is not None
            for d in run["decisions"]
        )
        header = csv_path.read_text().splitlines()[0]
        assert header == "run,job_id,device,phase,start,end,duration,arrays"

    def test_trace_unknown_target(self, capsys):
        assert main(["trace", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown trace target" in err


class TestFaultsCommand:
    SMOKE_PLAN = str(
        Path(__file__).resolve().parent.parent
        / "examples"
        / "faultplan_smoke.json"
    )

    def test_run_faults_smoke_plan(self, capsys):
        assert main(["run", "--faults", self.SMOKE_PLAN]) == 0
        out = capsys.readouterr().out
        assert "degraded mode" in out
        assert "makespan vs fault-free" in out
        assert "migrated off dram" in out

    def test_faults_picks_scheduler_and_combo(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--faults", self.SMOKE_PLAN,
                    "--scheduler", "ljf",
                    "--combo", "C",
                ]
            )
            == 0
        )
        assert "degraded mode" in capsys.readouterr().out

    def test_faults_conflicts_with_experiment_names(self, capsys):
        assert main(["run", "table3", "--faults", self.SMOKE_PLAN]) == 2
        assert "not combinable" in capsys.readouterr().err

    def test_faults_unknown_combo(self, capsys):
        assert main(["run", "--faults", self.SMOKE_PLAN, "--combo", "Z"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "unknown combo 'Z'" in err


class TestServeCommand:
    def test_serve_poisson_smoke(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--arrivals", "poisson",
                    "--rate", "2000",
                    "--horizon", "0.02",
                    "--tenants", "2",
                    "--slo", "10",
                    "--seed", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "attainment" in out
        assert "tenant-0" in out and "tenant-1" in out

    def test_serve_is_deterministic(self, capsys):
        argv = [
            "serve", "--rate", "2000", "--horizon", "0.02",
            "--tenants", "2", "--slo", "10", "--seed", "5",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_serve_writes_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        assert (
            main(
                [
                    "serve", "--rate", "1000", "--horizon", "0.01",
                    "--tenants", "2", "--slo", "5", "--scheduler", "global",
                    "--json", str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text())
        for key in ("scheduler", "slo_ms", "tenants", "utilisation",
                    "slo_attainment", "shed_rate"):
            assert key in payload
        assert payload["slo_ms"] == 5.0
        assert set(payload["tenants"]) == {"tenant-0", "tenant-1"}

    def test_serve_trace_arrivals(self, capsys, tmp_path):
        trace = tmp_path / "arrivals.json"
        trace.write_text(json.dumps([
            {"time": 0.0001, "tenant": "web"},
            {"time": 0.0002, "tenant": "batch", "kernel": "gemm"},
        ]))
        assert (
            main(["serve", "--arrivals", "trace", "--trace-file", str(trace)])
            == 0
        )
        out = capsys.readouterr().out
        assert "web" in out and "batch" in out

    def test_serve_trace_needs_file(self, capsys):
        assert main(["serve", "--arrivals", "trace"]) == 2
        assert "--trace-file" in capsys.readouterr().err

    def test_serve_rejects_bad_args(self, capsys):
        assert main(["serve", "--tenants", "0"]) == 2
        assert "--tenants" in capsys.readouterr().err
        assert main(["serve", "--slo", "-1"]) == 2
        assert "--slo" in capsys.readouterr().err

    def test_serve_with_fault_plan(self, capsys):
        plan = TestFaultsCommand.SMOKE_PLAN
        assert (
            main(
                [
                    "serve", "--rate", "2000", "--horizon", "0.02",
                    "--tenants", "2", "--slo", "10", "--faults", plan,
                    "--system", "gnn",
                ]
            )
            == 0
        )
        assert "attainment" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--rate", "-1"],
            ["serve", "--horizon", "-1"],
            ["serve", "--queue-limit", "0"],
            ["serve", "--max-backlog", "0"],
            ["serve", "--admission", "predictive", "--admission-margin", "0"],
            ["cluster", "--nodes", "2", "--max-backlog", "0"],
        ],
    )
    def test_out_of_range_values_exit_2_with_one_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        flag = argv[-2]
        assert flag.lstrip("-").split("-")[0] in err


class TestClusterCommand:
    ARGS = [
        "cluster", "--nodes", "2", "--rate", "2000", "--horizon", "0.01",
        "--tenants", "2", "--slo", "10", "--seed", "5", "--system", "gnn",
    ]

    def test_cluster_smoke(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "node-0" in out and "node-1" in out
        assert "placement[least-loaded]" in out
        assert "attainment" in out

    def test_cluster_is_deterministic_across_shards(self, capsys):
        assert main(self.ARGS + ["--shards", "1"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--shards", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_cluster_writes_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "cluster.json"
        assert main(self.ARGS + ["--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["n_nodes"] == 2
        report = payload["report"]
        for key in ("scheduler", "slo_ms", "tenants", "utilisation",
                    "slo_attainment", "nodes"):
            assert key in report
        assert set(report["nodes"]) == {"node-0", "node-1"}
        assert payload["cluster"]["placement"] == "least-loaded"
        assert payload["completed_per_sec"] > 0

    def test_cluster_placement_flag(self, capsys):
        assert main(self.ARGS + ["--placement", "hash"]) == 0
        out = capsys.readouterr().out
        assert "placement[hash]" in out
        assert "handoffs 0" in out

    def test_cluster_node_fault(self, capsys):
        assert main(self.ARGS + ["--fail-node", "node-1:0.005"]) == 0
        assert "node-1" in capsys.readouterr().out

    def test_cluster_rejects_bad_args(self, capsys):
        assert main(["cluster", "--nodes", "0"]) == 2
        assert "--nodes" in capsys.readouterr().err
        assert main(["cluster", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(self.ARGS + ["--fail-node", "node-1"]) == 2
        assert "NODE:SECONDS" in capsys.readouterr().err
        assert main(self.ARGS + ["--fail-node", "node-9:0.1"]) == 2
        assert "unknown node" in capsys.readouterr().err


class TestReplayCommand:
    ARGS = ["replay", "--windows", "2", "--window-ms", "0.5"]

    def test_replay_smoke(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "totals:" in out and "attainment" in out

    def test_replay_predictive_autoscale_json(self, capsys, tmp_path):
        out_path = tmp_path / "replay.json"
        assert main(self.ARGS + [
            "--admission", "predictive", "--autoscale",
            "--json", str(out_path),
        ]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "mlimp-replay"
        assert len(payload["windows"]) == 2
        assert payload["totals"]["shed_predicted"] > 0
        out = capsys.readouterr().out
        assert "scale event" in out

    def test_replay_halt_and_resume_byte_identical(self, capsys, tmp_path):
        straight = tmp_path / "straight.json"
        resumed = tmp_path / "resumed.json"
        ck = tmp_path / "ck.json"
        args = self.ARGS + ["--admission", "predictive", "--autoscale"]
        assert main(args + ["--json", str(straight)]) == 0
        capsys.readouterr()
        assert main(args + [
            "--halt-after", "1", "--checkpoint", str(ck),
        ]) == 0
        assert "halted after 1" in capsys.readouterr().out
        assert main([
            "replay", "--resume", str(ck), "--json", str(resumed),
        ]) == 0
        assert straight.read_bytes() == resumed.read_bytes()

    def test_replay_rejects_bad_args(self, capsys):
        assert main(["replay", "--halt-after", "1"]) == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert main(["replay", "--halt-after", "0",
                     "--checkpoint", "x.json"]) == 2
        assert "--halt-after" in capsys.readouterr().err
        assert main(["replay", "--windows", "0"]) == 2
        assert "windows" in capsys.readouterr().err

    def test_replay_resume_rejects_non_checkpoint(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "nope"}))
        assert main(["replay", "--resume", str(bogus)]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_serve_admission_flag(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        assert main([
            "serve", "--system", "gnn", "--rate", "2e6",
            "--horizon", "0.001", "--slo", "0.1", "--seed", "20",
            "--queue-limit", "32", "--max-backlog", "16",
            "--admission", "predictive", "--json", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "admission[predictive]" in out
        payload = json.loads(out_path.read_text())
        assert payload["admission"] == "predictive"
        assert payload["shed_predicted"] > 0

    def test_cluster_admission_flag(self, capsys):
        assert main([
            "cluster", "--nodes", "2", "--system", "gnn",
            "--rate", "2e6", "--horizon", "0.0005", "--slo", "0.1",
            "--seed", "20", "--queue-limit", "32",
            "--max-backlog", "16", "--admission", "predictive",
        ]) == 0
        assert "admission[predictive]" in capsys.readouterr().out
