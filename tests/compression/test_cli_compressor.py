"""The --compressor / --compressor-arg CLI surface."""

from __future__ import annotations

import pytest

from repro.cli import EXIT_USAGE, build_parser, main

SMALL_RUN = [
    "run",
    "--n-servers",
    "4",
    "--degree",
    "2",
    "--n-train",
    "200",
    "--n-test",
    "60",
    "--rounds",
    "4",
]


class TestParser:
    def test_defaults_to_no_compressor(self):
        args = build_parser().parse_args(["run"])
        assert args.compressor is None
        assert args.compressor_arg is None

    def test_accepts_repeated_args(self):
        args = build_parser().parse_args(
            ["run", "--compressor", "topk", "--compressor-arg", "k=8"]
        )
        assert args.compressor == "topk"
        assert args.compressor_arg == ["k=8"]


class TestRun:
    def test_compressed_run_reports_scheme_label(self, capsys):
        code = main(SMALL_RUN + ["--compressor", "topk", "--compressor-arg", "k=8"])
        assert code == 0
        assert "snap+topk(k=8)" in capsys.readouterr().out

    def test_non_mesh_scheme_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(SMALL_RUN + ["--scheme", "ps", "--compressor", "topk"])
        assert excinfo.value.code == EXIT_USAGE
        assert "--scheme snap" in capsys.readouterr().err

    def test_compressor_arg_without_compressor_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(SMALL_RUN + ["--compressor-arg", "k=8"])
        assert excinfo.value.code == EXIT_USAGE

    def test_bad_spec_rejected_with_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(SMALL_RUN + ["--compressor", "gzip"])
        assert excinfo.value.code == EXIT_USAGE
        assert "unknown compressor kind" in capsys.readouterr().err

    def test_preset_spec_rejects_parameters(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                SMALL_RUN
                + ["--compressor", "ape", "--compressor-arg", "k=8"]
            )
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("scheme", ["snap0", "sno"])
    def test_selection_scheme_with_compressor_rejected(self, capsys, scheme):
        """SNAP-0 and SNO are selections themselves: a compressor would drop them."""
        with pytest.raises(SystemExit) as excinfo:
            main(SMALL_RUN + ["--scheme", scheme, "--compressor", "topk:k=2"])
        assert excinfo.value.code == EXIT_USAGE
        assert "--scheme snap" in capsys.readouterr().err

    def test_preset_compressor_rejected(self, capsys):
        """A preset is a scheme: it is chosen with --scheme, not --compressor."""
        with pytest.raises(SystemExit) as excinfo:
            main(SMALL_RUN + ["--compressor", "dense"])
        assert excinfo.value.code == EXIT_USAGE
        assert "--scheme" in capsys.readouterr().err
