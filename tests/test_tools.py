"""Tests for the two-tree tools' own logic, on synthetic data and with no
child process: the stage timer's summary, the CLI comparison's check of one
line, and the argument checks that run before any child starts."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import cli_digest  # noqa: E402
import two_trees  # noqa: E402

SRC = str(ROOT / "src")
CSV = "x,y,value\n0.25,0.25,1.0\n0.5,0.25,-4.0\n"


class TestSummary:
    # three rounds, the first side alternating; medians per process:
    # theirs 2, 5, 8 and ours 1, 6, 4
    RUNS = [("theirs", {"a": [7, 1.0, 2.0, 30.0]}), ("ours", {"a": [7, 1.0]}),
            ("ours", {"a": [7, 6.0, 5.0, 7.0]}), ("theirs", {"a": [7, 5.0]}),
            ("theirs", {"a": [7, 8.0, 8.0]}), ("ours", {"a": [7, 4.0]})]

    def test_median_of_process_medians_and_rounds_won(self, capsys):
        assert two_trees.summary(self.RUNS)
        header, columns, line = capsys.readouterr().out.splitlines()
        assert "3 rounds" in header and columns.split()[-1] == "tag"
        assert line.split() == ["a", "5.000", "[3.500,", "6.500]", "4.000", "[2.500,",
                                "5.000]", "0.800", "2/3", "7"]

    def test_a_tag_that_does_not_repeat_fails(self, capsys):
        runs = [*self.RUNS[:-1], ("ours", {"a": ["other", 4.0]})]
        assert not two_trees.summary(runs)
        assert capsys.readouterr().out.splitlines()[-1].endswith("  7/other")


class TestCheck:
    SOLVE = ["solve", "--domain", "lshape", "--n", "16"]

    def test_identical(self):
        assert cli_digest.check(self.SOLVE, [0, CSV, ""], [0, CSV, ""]) is None

    def test_exit_code_mismatch(self):
        failed = cli_digest.check(self.SOLVE, [0, CSV, ""], [1, "", "error: x\n"])
        assert failed == "different exit code and stdout and stderr"

    def test_x_y_columns_differ(self):
        moved = CSV.replace("0.5,0.25", "0.5,0.26")
        assert cli_digest.check(self.SOLVE, [0, CSV, ""], [0, moved, ""]) == "different x,y columns"

    def test_values_alone_differ_within_their_bound(self):
        moved = CSV.replace("-4.0", "-4.000000000000001")
        rel = cli_digest.check(self.SOLVE, [0, CSV, ""], [0, moved, ""])
        assert rel == pytest.approx((4.000000000000001 - 4.0) / 4.0, rel=1e-12) and 0 < rel < 1e-15

    @pytest.mark.parametrize("argv, code", [(["cone"], 0), (["solve", "-h"], 0), (SOLVE, 1)])
    def test_stdout_fails_outside_a_solve_csv(self, argv, code):
        assert cli_digest.check(argv, [code, "a\n", ""], [code, "b\n", ""]) == "different stdout"


class TestArguments:
    @pytest.mark.parametrize("args", [[], [SRC, "0"], [SRC, "-1"], [SRC, "abc"], [SRC, "2", "3"],
                                      ["/nonexistent"], [str(ROOT)]])
    def test_rejected_before_any_child_starts(self, args, capsys):
        def child(*_):
            raise AssertionError("a child process would start")

        assert two_trees.main(args, "Doc.\n\n    tool OTHER_SRC [ROUNDS]\n", child, child, True) == 2
        assert capsys.readouterr().err == "tool OTHER_SRC [ROUNDS]\n"

    def test_rounds_only_where_the_tool_takes_them(self):
        with pytest.raises(ValueError):
            two_trees.parse([SRC, "3"], rounds=False)
        assert two_trees.parse([SRC], rounds=False) == (Path(SRC),)
        assert two_trees.parse([SRC], rounds=True) == (Path(SRC), 5)
        assert two_trees.parse([SRC, "3"], rounds=True) == (Path(SRC), 3)

    def test_a_failed_child_exits_1(self, monkeypatch):
        monkeypatch.setattr(subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(a, 1, ""))
        with pytest.raises(SystemExit) as raised:
            two_trees.collect("tool.py", Path(SRC))
        assert raised.value.code == 1
