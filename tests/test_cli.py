"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestGenerate:
    def test_writes_to_stdout(self, capsys):
        assert main(["generate", "--count", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 20
        assert "/" in lines[0]

    def test_writes_to_file(self, tmp_path, capsys):
        target = tmp_path / "table.txt"
        assert main(["generate", "--count", "10", "--output", str(target)]) == 0
        assert len(target.read_text().splitlines()) == 10

    def test_generated_file_feeds_stats(self, tmp_path, capsys):
        sender = tmp_path / "a.txt"
        receiver = tmp_path / "b.txt"
        main(["generate", "--count", "200", "--seed", "3", "--output", str(sender)])
        main(["generate", "--count", "200", "--seed", "3", "--output", str(receiver)])
        capsys.readouterr()
        assert main(["stats", "--sender", str(sender), "--receiver", str(receiver)]) == 0
        out = capsys.readouterr().out
        assert "problematic_clues" in out


class TestStats:
    def test_synthetic_pair(self, capsys):
        assert main(["stats", "--synthetic", "--count", "300", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "equal_prefixes" in out
        assert "claim1 holds for" in out

    def test_requires_tables(self):
        with pytest.raises(SystemExit):
            main(["stats"])


class TestCompare:
    def test_synthetic_pair(self, capsys):
        assert main([
            "compare", "--synthetic", "--count", "300", "--packets", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "patricia+advance" in out


class TestFigure1:
    def test_prints_profile(self, capsys):
        assert main(["figure1", "--background", "100", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "BMP length" in out
        assert "r0" in out


class TestParseRib:
    def test_roundtrip(self, tmp_path, capsys):
        dump = tmp_path / "rib.txt"
        dump.write_text("B 10.0.0.0/8 via 192.0.2.1\n192.168.0.0/16\n")
        assert main(["parse-rib", str(dump)]) == 0
        captured = capsys.readouterr()
        assert "10.0.0.0/8" in captured.out
        assert "parsed 2 unique prefixes" in captured.err

    def test_strict_mode_fails_on_garbage(self, tmp_path):
        dump = tmp_path / "bad.txt"
        dump.write_text("this is not a route\n")
        with pytest.raises(Exception):
            main(["parse-rib", str(dump), "--strict"])


class TestSpace:
    def test_prints_model(self, capsys):
        assert main(["space", "--entries", "60000", "--pointer-fraction", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "kilobytes" in out


class TestChurn:
    ARGS = [
        "churn", "--routers", "3", "--per-node", "12", "--epochs", "6",
        "--traffic", "5", "--audit-every", "3", "--seed", "7",
    ]

    def test_json_report_passes(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["summary"]["passed"] is True
        assert report["summary"]["wrong_hops"] == 0
        assert report["summary"]["audit_divergences"] == 0
        assert len(report["epochs"]) == 6
        assert "§3.4" in captured.err

    def test_seeded_runs_are_identical(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_prometheus_export(self, capsys):
        assert main(self.ARGS + ["--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "updates_applied_total" in out
        assert "epochs_converged_total" in out


class TestFaults:
    ARGS = [
        "faults", "--routers", "4", "--per-node", "15", "--rounds", "5",
        "--traffic", "20", "--byzantine", "1", "--crashes", "1",
        "--link-downs", "1", "--seed", "7",
    ]

    def test_json_report_passes(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["summary"]["invariant_ok"] is True
        assert report["summary"]["wrong_hops"] == 0
        assert report["summary"]["faults_total"] > 0
        assert len(report["rounds"]) == 5
        assert "never" not in captured.err.lower() or "0 wrong" in captured.err

    def test_seeded_runs_are_identical(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_guard_off_keeps_running_and_reports(self, capsys):
        # The unguarded control records violations rather than raising;
        # traffic still flows, so the demonstration run exits 0.
        assert main(self.ARGS + ["--guard", "off"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["policy"] is None

    def test_prometheus_export(self, capsys):
        assert main(self.ARGS + ["--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "faults_injected_total" in out
        assert "clue_guard_rejections_total" in out


class TestControl:
    def test_a_run_ending_mid_disruption_is_not_converged(self, capsys):
        """Five ticks stop the quick scenario inside its first disruption:
        that run did not pass (exit 1), and the tables it left behind are
        still settling, so no certifier divergence is reported."""
        assert main(["control", "--quick", "--ticks", "5"]) == 1
        captured = capsys.readouterr()
        summary = json.loads(captured.out)["summary"]
        assert summary["final_converged"] is False
        assert summary["open_episode"] == 5
        assert summary["wrong_hops"] == 0
        assert "did not converge" in summary["claim"]
        assert "converged through" not in summary["claim"]
        verdicts = [
            line for line in captured.err.splitlines()
            if line.split(":")[0].isupper()
        ]
        assert verdicts == [
            "NOT CONVERGED: the run ended 5 ticks into an open disruption "
            "episode"
        ]


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestConfigErrors:
    """A value a command's config or scenario rejects is a usage error,
    like an argparse one: status 2 and one ``error:`` line, never a
    traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["serve", "--table-size", "300", "--requests", "2000",
                 "--universe", "128", "--shards", "0"],
                "repro-clue serve: error: need at least one shard, got 0",
            ),
            (
                ["serve", "--batch-max", "0"],
                "repro-clue serve: error: max_batch must be >= 1, got 0",
            ),
            (
                ["chaos", "--shards", "0"],
                "repro-clue chaos: error: need at least one shard, got 0",
            ),
            (
                ["chaos", "--batch-max", "0"],
                "repro-clue chaos: error: max_batch must be >= 1, got 0",
            ),
            (
                ["chaos", "--replication", "0"],
                "repro-clue chaos: error: replication must be in [1, 8], got 0",
            ),
            (
                ["chaos", "--deadline", "0"],
                "repro-clue chaos: error: deadline_ticks must be >= 1",
            ),
            (
                ["churn", "--routers", "1"],
                "repro-clue churn: error: a mesh fabric needs at least two routers",
            ),
            (
                ["churn", "--updates", "0"],
                "repro-clue churn: error: burst_mean must be at least 1",
            ),
            (
                ["churn", "--locality", "2"],
                "repro-clue churn: error: locality must be within [0, 1]",
            ),
            (
                ["churn", "--per-node", "0"],
                "repro-clue churn: error: an update stream needs at least one live route",
            ),
            (
                ["faults", "--routers", "1"],
                "repro-clue faults: error: a mesh fabric needs at least two routers",
            ),
            (
                ["control", "--routers", "1"],
                "repro-clue control: error: a control scenario needs at least two routers",
            ),
            (
                ["control", "--quick", "--hello-interval", "0"],
                "repro-clue control: error: hello interval must be >= 1",
            ),
            (
                ["control", "--quick", "--dead-interval", "0"],
                "repro-clue control: error: dead interval must exceed the hello interval",
            ),
        ],
        ids=[
            "serve-shards",
            "serve-batch-max",
            "chaos-shards",
            "chaos-batch-max",
            "chaos-replication",
            "chaos-deadline",
            "churn-routers",
            "churn-updates",
            "churn-locality",
            "churn-per-node",
            "faults-routers",
            "control-routers",
            "control-hello-interval",
            "control-dead-interval",
        ],
    )
    def test_rejected_value_exits_2_with_one_error_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [message]

    def test_value_error_after_construction_propagates(self, monkeypatch):
        import repro.serve

        def broken_engine(config):
            raise ValueError("raised by the engine, not the config")

        monkeypatch.setattr(repro.serve, "ServeEngine", broken_engine)
        with pytest.raises(ValueError, match="raised by the engine"):
            main(["serve", "--quick"])
