"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import EXIT_USAGE, build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "snap"
        assert args.workload == "credit"
        assert args.rounds == 300

    def test_compare_scheme_list(self):
        args = build_parser().parse_args(["compare", "--schemes", "snap,ps"])
        assert args.schemes == "snap,ps"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_scheme_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "sgd"])


class TestRunCommand:
    def test_small_run_prints_summary(self, capsys):
        code = main(
            [
                "run",
                "--scheme",
                "snap0",
                "--n-servers",
                "4",
                "--degree",
                "2",
                "--n-train",
                "200",
                "--n-test",
                "60",
                "--rounds",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "snap0" in out
        assert "total traffic" in out

    def test_budget_without_a_byte_knob_is_a_usage_error(self, capsys):
        # The APE preset has no byte knob: the budget would be ignored.
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["run", "--scheme", "snap", "--adaptive-topology",
                 "--bytes-budget", "1000", "--rounds", "5"]
            )
        assert exit_info.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bytes_budget" in err
        assert "Traceback" not in err

    def test_adaptive_topology_without_optimized_weights_is_a_usage_error(
        self, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["run", "--scheme", "snap", "--adaptive-topology",
                 "--no-optimize-weights", "--rounds", "5"]
            )
        assert exit_info.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "adaptive_topology requires optimize_weights=True" in err
        assert "Traceback" not in err

    def test_output_file_written(self, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(
            [
                "run",
                "--scheme",
                "centralized",
                "--n-servers",
                "3",
                "--degree",
                "2",
                "--n-train",
                "150",
                "--n-test",
                "50",
                "--rounds",
                "5",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["scheme"] == "centralized"
        assert len(payload["rounds"]) <= 5

    def test_node_failure_rate_accepted(self, capsys):
        code = main(
            [
                "run",
                "--scheme",
                "snap0",
                "--n-servers",
                "4",
                "--degree",
                "2",
                "--n-train",
                "200",
                "--n-test",
                "60",
                "--rounds",
                "5",
                "--node-failure-rate",
                "0.3",
            ]
        )
        assert code == 0
        assert "snap0" in capsys.readouterr().out

    def test_straggler_strategy_option(self, capsys):
        code = main(
            [
                "run",
                "--scheme",
                "snap",
                "--n-servers",
                "4",
                "--degree",
                "2",
                "--n-train",
                "200",
                "--n-test",
                "60",
                "--rounds",
                "5",
                "--failure-rate",
                "0.2",
                "--straggler-strategy",
                "reweight",
            ]
        )
        assert code == 0

    def test_failure_rate_threads_through(self, capsys):
        code = main(
            [
                "run",
                "--scheme",
                "snap",
                "--n-servers",
                "4",
                "--degree",
                "2",
                "--n-train",
                "200",
                "--n-test",
                "60",
                "--rounds",
                "5",
                "--failure-rate",
                "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # all links always down -> zero traffic
        assert "0 B" in out


class TestCompareCommand:
    def test_prints_table_for_each_scheme(self, capsys):
        code = main(
            [
                "compare",
                "--schemes",
                "centralized,snap0",
                "--n-servers",
                "4",
                "--degree",
                "2",
                "--n-train",
                "200",
                "--n-test",
                "60",
                "--rounds",
                "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "centralized" in out
        assert "snap0" in out
        assert "target loss" in out

    def test_unknown_scheme_fails_cleanly(self, capsys):
        code = main(
            ["compare", "--schemes", "snap,sgd", "--n-train", "100"]
        )
        assert code == EXIT_USAGE
        assert "unknown scheme" in capsys.readouterr().err


class TestPlanCommand:
    def test_prints_neighbor_table(self, capsys):
        code = main(
            ["plan", "--n-servers", "6", "--threshold", "0.0", "--iterations", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kept 15 links" in out
        assert "neighbors" in out
