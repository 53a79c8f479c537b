"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError


class TestParser:
    def test_figure_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["figure", "4", "--programs", "crc32", "--experiments", "10", "--max-mbf", "2,3"]
        )
        assert args.command == "figure"
        assert args.number == 4
        assert args.programs == "crc32"
        assert args.experiments == 10

    def test_invalid_figure_number_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "9"])

    def test_command_required(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])


class TestCommands:
    def test_list_programs(self, capsys):
        assert main(["list-programs"]) == 0
        out = capsys.readouterr().out
        assert "crc32" in out and "susan_smoothing" in out and "parboil" in out
        assert len(out.strip().splitlines()) == 15

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "RND(101-1000)" in out

    def test_table2_with_program_subset(self, capsys):
        assert main(["table", "2", "--programs", "bfs,crc32"]) == 0
        out = capsys.readouterr().out
        assert "bfs" in out and "crc32" in out and "basicmath" not in out

    def test_unknown_program_rejected(self):
        with pytest.raises(ConfigurationError):
            main(["table", "2", "--programs", "notaprogram"])

    def test_figure1_tiny_run(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        assert (
            main(
                [
                    "figure",
                    "1",
                    "--programs",
                    "bfs",
                    "--experiments",
                    "10",
                    "--cache",
                    str(cache),
                    "--quiet",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "figure1" in out and "bfs" in out
        assert cache.exists()

    def test_figure2_reuses_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        argv = [
            "figure",
            "2",
            "--programs",
            "bfs",
            "--experiments",
            "10",
            "--max-mbf",
            "2",
            "--cache",
            str(cache),
            "--quiet",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # cached campaigns give identical output
