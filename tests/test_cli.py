"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.streams == 12
        assert not args.paper

    def test_capacity_defaults(self):
        args = build_parser().parse_args(["capacity"])
        assert args.cubs == 14


class TestCommands:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--streams", "6", "--seconds", "12", "--files", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slots" in out
        assert "disk schedule" in out
        assert "cub 0" in out

    def test_failover_runs(self, capsys):
        code = main(
            ["failover", "--load", "0.4", "--seconds", "30", "--files", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failing cub" in out
        assert "mirror pieces sent" in out

    def test_capacity_paper_numbers(self, capsys):
        code = main(["capacity", "--cubs", "14", "--disks", "4"])
        assert code == 0
        out = capsys.readouterr().out
        # Derived from the disk model (the paper pinned its measured
        # 10.75 streams/disk -> 602; the model derives ~11 -> ~616).
        assert "56s ring" in out
        capacity_line = next(
            line for line in out.splitlines() if "system capacity" in line
        )
        streams = int(capacity_line.split(":")[1].split()[0])
        assert 560 <= streams <= 660

    def test_report_writes_file(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        code = main(
            ["report", "--results", str(tmp_path), "--output", str(output)]
        )
        assert code == 0
        assert output.exists()


def _exit_code(argv):
    """Run the CLI; argparse rejections surface as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "--files", "0"],
        ["capacity", "--cubs", "0"],
        ["capacity", "--decluster", "0"],
        ["chaos", "--load", "0"],
        ["failover", "--load", "2"],
        ["failover", "--load", "-1"],
        ["demo", "--seconds", "-5"],
        ["demo", "--streams", "-1"],
        ["metrics", "--seconds", "0"],
        ["trace", "--seconds", "-1"],
    ],
    ids=" ".join,
)
def test_bad_numeric_input_exits_2_with_error_line(
    argv, tmp_path, monkeypatch, capsys
):
    # Regression: each of these used to crash with a ValueError
    # traceback or run to exit 0 on a nonsensical value.
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []

