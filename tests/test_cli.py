"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.n == 10_000

    def test_build_choices(self):
        args = build_parser().parse_args(
            ["build", "--index", "LISA", "--dataset", "NYC", "--method", "SP"]
        )
        assert args.index == "LISA"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "--index", "Nope"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_obs_subcommands_are_pinned(self):
        """``repro obs`` reads trace files and nothing else."""

        def subcommands(parser):
            (action,) = [
                a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)
            ]
            return action.choices

        obs = subcommands(build_parser())["obs"]
        assert sorted(subcommands(obs)) == ["flame", "report", "trace"]


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets", "--n", "500"]) == 0
        out = capsys.readouterr().out
        for name in ("Uniform", "Skewed", "OSM1", "OSM2", "TPC-H", "NYC"):
            assert name in out

    def test_experiments(self, capsys, tmp_path):
        from pathlib import Path

        rows = Path(__file__).resolve().parents[1] / "experiments-default.jsonl"
        assert main(["experiments", "report", "--rows", str(rows)]) == 0
        out = capsys.readouterr().out
        assert "Figure 8: build time (s)" in out
        assert "Table I: cost decomposition" in out
        assert main(["experiments", "report", "--rows", str(tmp_path / "none.jsonl")]) == 1
        assert "experiments run" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments"])  # run | report is required

    def test_build_learned(self, capsys):
        code = main(
            ["build", "--index", "ZM", "--dataset", "OSM1",
             "--method", "SP", "--n", "800", "--epochs", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost decomposition" in out
        assert "methods: {'SP'" in out

    def test_build_traditional(self, capsys):
        assert main(["build", "--index", "KDB", "--dataset", "Uniform", "--n", "800"]) == 0
        out = capsys.readouterr().out
        assert "built KDB" in out

    def test_query_command(self, capsys):
        code = main(
            ["query", "--index", "LISA", "--dataset", "NYC",
             "--method", "SP", "--n", "800", "--epochs", "50", "--queries", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "point" in out and "window" in out and "kNN" in out
        assert "40/40 found" in out
