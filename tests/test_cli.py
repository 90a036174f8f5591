"""Tests for the command-line contract: exit codes 0 (success), 1 (argument
error) and 2 (numerical failure), byte-identical repeat output, --config
precedence, and clean rejection of malformed specs and files."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bilap import cli, cones, corner_spectrum as cs, kernel1d, twostep
from bilap.cli import run
from bilap.errors import NumericalFailure
from bilap.grid import Grid2D, lshape_grid, notched_grid


def invoke(capsys, *argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SOLVE = ("solve", "--domain", "lshape", "--n", "16")


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = invoke(capsys, "eta0", "--alpha", "1.0", "--kappa", "-5")
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "alpha,kappa,g,membership,eta0,residual"

    @pytest.mark.parametrize("argv", [
        ("eta0", "--alpha", "4.0", "--kappa", "-1"),
        ("eta0", "--alpha", "1.0"),
        ("eta0", "--alpha", "one", "--kappa", "-1"),
        ("region-map", "--bogus", "1"),
        ("solve", "--domain", "disk"),
        ("kernel1d", "--t", "-1", "--kappa", "-13.928203230275509", "--samples", "0"),
        ("classify", "--lambda1", "1", "--beta", "nan"),
        ("kernel1d", "--t", "-1", "--kappa", "inf"),
        ("corner-det", "--alpha", "1", "--kappa", "-1", "--eta", "nan"),
        ("solve", "--domain", "rectangle", "--n", "0"),
        # ranges that the CLI leaves to the library's own ValueErrors
        ("kernel1d", "--t", "0"),
        ("kernel1d", "--delta", "1"),
        ("cone", "--mu", "-1"),
        ("classify", "--lambda1", "0"),
        # contrasts far from the critical -1 and -1/7 of delta = 0.5 and the
        # -7 +- 4 sqrt(3) of t = -1, where the interface system is still
        # nearly singular, or its entries overflow
        ("kernel1d", "--delta", "0.5", "--kappa=-1e4"),
        ("kernel1d", "--t", "-1", "--kappa=-1e154"),
        ("kernel1d", "--t", "-1", "--kappa=-1e308"),
        ("kernel1d", "--delta", "0.5", "--kappa=-1e308"),
        # 1e-4 off the critical -19 of delta = 0.95
        ("kernel1d", "--delta", "0.95", "--kappa=-19.0019"),
        # rhs files whose one value is not finite, written by the test
        (*SOLVE, "--rhs", "file:{tmp}/nan.csv"),
        (*SOLVE, "--rhs", "file:{tmp}/inf.csv"),
        # --samples is checked without --kappa too
        ("kernel1d", "--t", "-1", "--samples", "-5"),
        # no prefix of an option stands for it
        ("solve", "--sig", "constant:-2"),
        # a dimension or order past the largest float
        ("cone", "--mu", "1", "--d", "1" + "0" * 400),
        ("cone", "--mu", "1", "--l", "1" + "0" * 400),
        ("classify", "--lambda1", "1", "--d", "1" + "0" * 400),
        ("classify", "--lambda1", "1", "--l", "1" + "0" * 400),
    ])
    def test_argument_errors(self, capsys, tmp_path, argv):
        for value in ("nan", "inf"):
            write(tmp_path, f"{value}.csv", f"x,y,value\n0.25,0.25,{value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("region-map", "--na", "2", "--nk", "2", "--kmin", "-1e6"),
        ("eta0", "--alpha", "1.0", "--kappa", "-1e-3"),
        ("kernel1d", "--t", "-2.5e0"),
    ])
    def test_negative_scientific_values(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        joined = invoke(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
        assert code == 0 and err == "" and (code, out, err) == joined

    def test_numerical_failure(self, capsys):
        # the tail stays positive through every doubling of eta_max; at 1e-300,
        # alpha - sin(alpha) underflows to 0 and ell_minus is -inf
        for alpha in ("1e-20", "1e-300"):
            code, out, err = invoke(capsys, "eta0", "--alpha", alpha, "--kappa", "-1")
            assert code == 2 and out == ""
            assert err.startswith("numerical failure: ")

    @pytest.mark.parametrize("eta", ["400", "1e300"])
    def test_overflowing_interface_system_fails_cleanly(self, capsys, eta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, "corner-det", "--alpha", "1", "--kappa=-1", "--eta", eta)
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: ")

    @pytest.mark.parametrize("argv", [
        ("solve", "--domain", "rectangle", "--n", "1000000000"),  # 888 PiB
        ("region-map", "--na", "100000000000"),  # 745 GiB
    ])
    def test_unallocatable_size_exits_1(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("t", ["-1e103", "-1e300"])
    def test_overflowing_contrast_fails_cleanly(self, capsys, t):
        # the larger root, about 4 t^3, overflows once |t| passes about 3.5e102
        code, out, err = invoke(capsys, "kernel1d", f"--t={t}")
        assert code == 2 and out == "" and err.startswith("numerical failure: ")

    def test_largest_contrast_below_overflow(self, capsys):
        code, out, err = invoke(capsys, "kernel1d", "--t=-1e102")
        assert (code, err) == (0, "") and out == (
            "root_index,critical_contrast\n0,-4.0000000000000001e+306\n1,-2.4999999999999999e+101\n")

    @pytest.mark.parametrize("value", ["-1e-103", "-1e-200", "1e-103", "1e-300"])
    def test_underflowing_contrast_fails_cleanly(self, capsys, value):
        # a negative value is a ratio --t, a positive one a half-width --delta.
        # Two segments: the smaller root, about t^3/4, is subnormal once |t|
        # drops below about 4.47e-103, and -0 below about 2.15e-108.  Three
        # segments: delta^3 / (delta^3 - 1) is subnormal once delta drops below
        # about 2.81e-103, and -0 at 1e-300
        flag = "t" if value.startswith("-") else "delta"
        code, out, err = invoke(capsys, "kernel1d", f"--{flag}={value}")
        assert code == 2 and out == "" and err.startswith("numerical failure: ")

    def test_smallest_contrast_above_underflow(self, capsys):
        code, out, err = invoke(capsys, "kernel1d", "--t=-1e-102")
        assert (code, err) == (0, "") and out == (
            "root_index,critical_contrast\n0,-3.9999999999999997e-102\n1,-2.4999999999999993e-307\n")

    def test_smallest_three_segment_contrast_above_underflow(self, capsys):
        code, out, err = invoke(capsys, "kernel1d", "--delta=3e-103")
        assert (code, err) == (0, "") and out == (
            "root_index,critical_contrast\n0,-3e-103\n1,-2.7000000000000002e-308\n")

    def test_smallest_cap_aperture(self, capsys):
        # caps answer down to alpha ~ 2.9553e-154, where the square of the
        # degree bracket end 3.9625/alpha - 1/2 overflows
        for alpha in ("0.0476", "0.0477", "1e-150", "3e-154"):
            code, out, err = invoke(capsys, "cone", f"--alpha={alpha}")
            assert (code, err) == (0, "") and out.endswith(",Isomorphism\n"), alpha
        code, out, err = invoke(capsys, "cone", "--alpha=1e-155")
        assert code == 2 and out == "" and err.startswith("numerical failure: cap too narrow")

    def test_tiny_cross_section_eigenvalue(self, capsys):
        # lambda_plus ~ mu / (d - 2); half + root would cancel to 0 here
        code, out, err = invoke(capsys, "cone", "--mu=1e-17")
        assert (code, err) == (0, "")
        assert out == ("alpha,mu1,lambda_plus,classification\n"
                       ",1.0000000000000001e-17,1.0000000000000001e-17,InjectiveNotOnto\n")

    def test_huge_dimension(self, capsys):
        # |1 - d/2| squared overflows here, but lambda_plus ~ 1/d does not
        code, out, err = invoke(capsys, "cone", "--mu", "1", "--d", "1" + "0" * 200)
        assert (code, err) == (0, "")
        lambda_plus = float(out.splitlines()[1].split(",")[2])
        assert lambda_plus == pytest.approx(1e-200, rel=1e-15)

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        code, out, err = invoke(capsys, *SOLVE, "--output", str(tmp_path / "missing" / "x.csv"))
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_singular_pairing_matrix(self, capsys):
        # the patch contrast sits at the sign change of the 1x1 pairing matrix,
        # so the corrected solve (the default) has no unique correction
        code, out, err = invoke(capsys, *SOLVE, "--sigma-file",
                                "patch:0.25:0.75:0.25:0.75:-0.4782838593387099:1")
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: ")

    def test_overflowing_kappa_fails_cleanly(self, capsys):
        # (1 - kappa)^2 overflows: no exponent can be searched for, and numpy
        # must not warn on the way to exit code 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, "eta0", "--alpha", "1", "--kappa=-1e200")
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: ") and "Warning" not in err

    def test_tiny_angle_reports_an_exponent(self, capsys):
        code, out, _ = invoke(capsys, "eta0", "--alpha", "1e-9", "--kappa", "-1")
        row = out.splitlines()[1].split(",")
        assert code == 0 and row[3] == "Inside" and float(row[4]) > 0.0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("region-map", "--na", "6", "--nk", "5"),
        SOLVE + ("--sigma-file", "split-x:0.5:1:-3"),
        ("kernel1d", "--t", "-1", "--kappa", "-13.928203230275509", "--samples", "21"),
    ])
    def test_repeat_output_is_byte_identical(self, capsys, argv):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first[0] == 0 and first == second


class TestConfig:
    def test_flag_takes_precedence(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "n=8\nrhs=one\n")
        flagged = invoke(capsys, *SOLVE, "--rhs", "one", "--config", conf)
        plain = invoke(capsys, *SOLVE, "--rhs", "one")
        from_config = invoke(capsys, "solve", "--domain", "lshape", "--config", conf)
        assert flagged == plain
        assert from_config[0] == 0 and from_config[1] != plain[1]

    @pytest.mark.parametrize("value,flag", [("false", "--no-correct"), ("no", "--no-correct"),
                                            ("0", "--no-correct"), ("TRUE", "--correct"),
                                            ("yes", "--correct"), ("1", "--correct")])
    def test_boolean_values(self, capsys, tmp_path, value, flag):
        conf = write(tmp_path, "c.conf", f"correct={value}\n")
        assert invoke(capsys, *SOLVE, "--config", conf) == invoke(capsys, *SOLVE, flag)

    def test_corrected_and_uncorrected_differ(self, capsys):
        assert invoke(capsys, *SOLVE, "--correct")[1] != invoke(capsys, *SOLVE, "--no-correct")[1]

    def test_flag_overrides_boolean_in_config(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "correct=false\n")
        flagged = invoke(capsys, *SOLVE, "--correct", "--config", conf)
        assert flagged == invoke(capsys, *SOLVE, "--correct")

    def test_config_sets_region_map_size(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "na=3\nnk=4\n")
        code, out, _ = invoke(capsys, "region-map", "--config", conf)
        assert code == 0 and len(out.splitlines()) == 1 + 3 * 4
        assert (code, out) == invoke(capsys, "region-map", "--na", "3", "--nk", "4")[:2]

    def test_config_does_not_carry_over_to_the_next_region_map(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "na=3\n")
        assert invoke(capsys, "region-map", "--config", conf)[0] == 0
        code, out, _ = invoke(capsys, "region-map")
        assert code == 0 and len(out.splitlines()) == 1 + 50 * 50

    def test_config_does_not_carry_over_to_the_next_solve(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "correct=false\n")
        assert invoke(capsys, *SOLVE, "--config", conf) == invoke(capsys, *SOLVE, "--no-correct")
        assert invoke(capsys, *SOLVE) == invoke(capsys, *SOLVE, "--correct")

    def test_config_sets_domain_and_size(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "domain=notched\nn=32\n")
        from_config = invoke(capsys, "solve", "--config", conf)
        assert from_config[0] == 0
        assert from_config == invoke(capsys, "solve", "--domain", "notched", "--n", "32")

    def test_config_unknown_domain_exits_1(self, capsys, tmp_path):
        # a config line is parsed as its flag, so argparse checks the --domain choices
        conf = write(tmp_path, "c.conf", "domain=disk\n")
        code, out, err = invoke(capsys, "solve", "--config", conf)
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_config_value_of_wrong_type_exits_1(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "n=abc\n")
        code, out, err = invoke(capsys, *SOLVE[:3], "--config", conf)
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("line", ["nn=8", "alpha=1", "config=x", "conf=x", "=8",
                                      "sig=constant:-2"])
    def test_key_that_is_not_an_option_exits_1(self, capsys, tmp_path, line):
        # a misspelt key, another subcommand's option, a nested config and a
        # prefix of an option
        conf = write(tmp_path, "c.conf", f"{line}\n")
        code, out, err = invoke(capsys, *SOLVE, "--config", conf)
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("key", ["sigma-file", "sigma_file"])
    def test_key_spelt_as_its_flag(self, capsys, tmp_path, key):
        conf = write(tmp_path, "c.conf", f"{key}=constant:-2\n")
        from_config = invoke(capsys, *SOLVE, "--config", conf)
        assert from_config[0] == 0
        assert from_config == invoke(capsys, *SOLVE, "--sigma-file", "constant:-2")

    @pytest.mark.parametrize("value", ["maybe", "", "off"])
    def test_bad_boolean_exits_1(self, capsys, tmp_path, value):
        conf = write(tmp_path, "c.conf", f"correct={value}\n")
        code, out, err = invoke(capsys, *SOLVE, "--config", conf)
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_required_option_from_config(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "alpha=1.0\n")
        from_config = invoke(capsys, "eta0", "--config", conf, "--kappa", "-5")
        assert from_config[0] == 0
        assert from_config == invoke(capsys, "eta0", "--alpha", "1.0", "--kappa", "-5")

    @pytest.mark.parametrize("value,flag", [("no", "--no-correct"), ("FALSE", "--no-correct"),
                                            ("yes", "--correct")])
    def test_correct_takes_a_value_on_the_command_line(self, capsys, value, flag):
        assert invoke(capsys, *SOLVE, f"--correct={value}") == invoke(capsys, *SOLVE, flag)

    @pytest.mark.parametrize("argv", [("classify", "--lambda1", "1.5"),
                                      ("classify", "--config", "{conf}", "--lambda1", "1.5")])
    def test_one_parse_per_invocation(self, capsys, tmp_path, monkeypatch, argv):
        conf = write(tmp_path, "c.conf", "beta=0.5\n")
        calls = []
        parse_args = cli._Parser.parse_args

        def counting(self, *args, **kwargs):
            calls.append(args)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", counting)
        assert invoke(capsys, *(a.format(conf=conf) for a in argv))[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_config_value_exits_1(self, capsys, tmp_path, value):
        conf = write(tmp_path, "c.conf", f"beta={value}\n")
        code, out, err = invoke(capsys, "classify", "--lambda1", "1", "--config", conf)
        assert code == 1 and out == "" and err.startswith("error: ")


class TestMalformedInput:
    @pytest.mark.parametrize("spec", ["constant", "constant:", "constant:1:2", "split-x:0.5:1",
                                      "split-x:0.5:1:2:3", "patch:0.1:0.2:0.1", "patch", "disk:1",
                                      "constant:inf", "split-x:0.5:1:-inf", "split-x:nan:1:-2",
                                      "patch:nan:0.75:0.25:0.75:-3:1"])
    def test_sigma_spec(self, capsys, spec):
        code, out, err = invoke(capsys, *SOLVE, "--sigma-file", spec)
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("rows", ["-1,0,-2.0", "0,-3,-2.0", "16,0,-2.0", "0,16,-2.0",
                                      "1.5,2,-2.0", "3,4,-2.0\n2,20,-2.0", "3,4", "3,4,inf",
                                      "3,4,-inf", "12,12,-2.0"])
    def test_sigma_file_rows(self, capsys, tmp_path, rows):
        path = write(tmp_path, "sigma.csv", f"i,j,value\n{rows}\n")
        code, out, err = invoke(capsys, *SOLVE, "--sigma-file", f"file:{path}")
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_sigma_file_in_range(self, capsys, tmp_path):
        path = write(tmp_path, "sigma.csv", "i,j,value\n3,4,-2.0\n15,15,-3.0\n")
        code, out, _ = invoke(capsys, *SOLVE, "--sigma-file", f"file:{path}")
        assert code == 0 and out != invoke(capsys, *SOLVE)[1]

    @pytest.mark.parametrize("spec,message", [
        ("split-x:0.5:1", "split-x:<x0>:<left>:<right> takes 3 value(s), got 2"),
        ("split-x:0.5:1:2:3", "split-x:<x0>:<left>:<right> takes 3 value(s), got 4"),
        ("patch:0.1:0.2:0.1", "patch:<x0>:<x1>:<y0>:<y1>:<inside>:<outside> takes 6 value(s), got 3"),
        ("constant", "constant:<v> takes 1 value(s), got 0"),
        ("constant:1:2", "constant:<v> takes 1 value(s), got 2"),
        ("constant:one", "not a finite number: 'one'"),
        ("split-x:nan:1:-2", "not a finite number: 'nan'"),
        # a patch with its bounds out of order holds no cell
        *((spec, "a patch needs x0 < x1 and y0 < y1") for spec in (
            "patch:0.7:0.3:0.3:0.7:-2:1", "patch:0.3:0.7:0.7:0.3:-2:1", "patch:0.5:0.5:0.3:0.7:-2:1")),
        # a patch between two cell centres, and one over the missing quadrant
        *((spec, "the patch holds no cell centre of the domain") for spec in (
            "patch:0.29:0.33:0.29:0.33:-2:1", "patch:0.6:0.9:0.6:0.9:-2:1")),
        # split-x is the patch box x < x0 under the same rule: each would give a constant sigma
        ("split-x:2:1:-3", "the side x < x0 holds every cell centre of the domain"),
        ("split-x:-1:1:-3", "the side x < x0 holds no cell centre of the domain"),
        ("patch:0:1:0:1:-2:1", "the patch holds every cell centre of the domain"),
    ])
    def test_sigma_spec_message(self, capsys, spec, message):
        code, out, err = invoke(capsys, *SOLVE, "--sigma-file", spec)
        assert (code, out, err) == (1, "", f"error: sigma spec '{spec}': {message}\n")

    @pytest.mark.parametrize("make,x0", [(lambda: lshape_grid(16), 0.5),
                                         (lambda: notched_grid(24), 0.4),
                                         (lambda: lshape_grid(64), 0.1)])
    def test_split_x_is_the_cells_left_of_x0(self, make, x0):
        # the patch box x < x0 holds the cells whose centres lie left of x0
        grid = make()
        centres = (np.arange(grid.n) + 0.5) * grid.h
        ref = np.where(np.meshgrid(centres, centres, indexing="ij")[0] < x0, 1.0, -3.0)
        assert cli._sigma_from_spec(grid, f"split-x:{x0}:1:-3").cells.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_size_must_be_positive(self, capsys, tmp_path, n):
        expected = (1, "", f"error: --n must be positive, got {n}\n")
        assert invoke(capsys, "solve", "--domain", "rectangle", "--n", n) == expected
        conf = write(tmp_path, "c.conf", f"n={n}\n")
        assert invoke(capsys, "solve", "--config", conf) == expected

    @pytest.mark.parametrize("rows", ["-0.0625,0.5,1.0", "0.5,1.0625,1.0", "2.0,0.5,1.0"])
    def test_rhs_file_rows(self, capsys, tmp_path, rows):
        path = write(tmp_path, "rhs.csv", f"x,y,value\n{rows}\n")
        code, out, err = invoke(capsys, *SOLVE, "--rhs", f"file:{path}")
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_rhs_file_near_overflow_scales_the_solution(self, capsys, tmp_path):
        # squares of 1e200 overflow; the residual norms must not take them
        nodes = [(i / 16, j / 16) for i in range(1, 16) for j in range(1, 16)]

        def solve(value):
            path = write(tmp_path, f"rhs{value}.csv",
                         "x,y,value\n" + "".join(f"{x},{y},{value}\n" for x, y in nodes))
            code, out, err = invoke(capsys, "solve", "--domain", "rectangle", "--n", "16",
                                    "--no-correct", "--rhs", f"file:{path}")
            assert code == 0 and err == ""
            return np.loadtxt(out.splitlines()[1:], delimiter=",")

        ones, big = solve("1"), solve("1e200")
        assert np.array_equal(big[:, :2], ones[:, :2])
        assert np.allclose(big[:, 2], 1e200 * ones[:, 2], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("option", ["--sigma-file", "--rhs"])
    def test_header_only_file_exits_1(self, capsys, tmp_path, option):
        path = write(tmp_path, "cells.csv", "a,b,value\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, *SOLVE, option, f"file:{path}")
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("option,rows", [("--sigma-file", "3,4,-2.0\n5,5,-2.0\n"),
                                             ("--sigma-file", "3,4,-2.0\n"),
                                             ("--rhs", "0.25,0.25,1.0\n0.5,0.5,2.0\n"),
                                             ("--rhs", "0.25,0.25,1.0\n")])
    def test_file_without_header_exits_1(self, capsys, tmp_path, option, rows):
        # line 1 is always read as the header, so a data row there would be lost
        path = write(tmp_path, "cells.csv", rows)
        code, out, err = invoke(capsys, *SOLVE, option, f"file:{path}")
        assert (code, out, err) == (1, "", f"error: {path}: line 1 is a data row, not a header\n")

    @pytest.mark.parametrize("rows", ["0.75,0.75,1.0", "0.5,0.5,1.0\n0,0.25,2.0\n1.0,1.0,5.0"],
                             ids=["missing-quadrant", "boundary-nodes"])
    def test_rhs_file_naming_no_interior_node_exits_1(self, capsys, tmp_path, rows):
        # (0.75, 0.75) lies in the L's missing quadrant, and the other rows on its
        # boundary, so the rhs would be 0 at every interior node
        path = write(tmp_path, "rhs.csv", f"x,y,value\n{rows}\n")
        assert invoke(capsys, *SOLVE, "--rhs", f"file:{path}") == (
            1, "", f"error: {path}: no row names an interior node of the domain\n")

    def test_rhs_file_in_range(self, capsys, tmp_path):
        path = write(tmp_path, "rhs.csv", "x,y,value\n0.25,0.25,1.0\n1.0,1.0,5.0\n")
        code, out, _ = invoke(capsys, *SOLVE, "--rhs", f"file:{path}")
        assert code == 0 and out.startswith("x,y,value\n")


def map_cells(m):
    """The cells of a RegionMap as tuples alpha, kappa, g, ell_minus,
    ell_plus, membership, eta0, residual."""
    return list(zip(*(c.tolist() for c in (m.alpha, m.kappa, m.g, m.ell_minus, m.ell_plus,
                                           m.membership, m.eta0, m.residual))))


class TestRegionMapCsv:
    def test_format(self, capsys):
        code, out, _ = invoke(capsys, "region-map", "--amin=0.5", "--amax=2.5", "--kmin=-5",
                              "--kmax=-0.2", "--na=3", "--nk=3")
        lines = out.splitlines()
        assert code == 0 and out.endswith("\n")
        assert lines[0] == "alpha,kappa,g,ell_minus,ell_plus,membership,eta0,residual"
        assert len(lines) == 10 and all(len(line.split(",")) == 8 for line in lines[1:])
        m = cs.region_map((0.5, 2.5), (-5.0, -0.2), 3, 3)
        fmt = lambda x: format(x, ".17g")
        for line, (*fields, member, eta0, residual) in zip(lines[1:], map_cells(m)):
            found = ("", "") if math.isnan(eta0) else (fmt(eta0), fmt(residual))
            assert line.split(",") == [*map(fmt, fields), member, *found]

    def test_failed_cells(self, capsys):
        # at alpha = 1e-300 the scan fails (eta0 and residual are nan) and
        # ell_minus is -inf
        code, out, _ = invoke(capsys, "region-map", "--amin=1e-300", "--amax=0.1", "--na=2", "--nk=2")
        rows = [line.split(",") for line in out.splitlines()[1:3]]
        assert code == 0 and all(r[3] == "-inf" and r[6:] == ["nan", "nan"] for r in rows)

    def test_extreme_contrasts(self, capsys):
        # kappa = -5e-324 (the smallest subnormal) and -1e200, where g
        # overflows to inf and the search fails: classify_region and
        # find_singular_exponent, region_map and region-map agree cell by cell
        # and raise no RuntimeWarning
        argv = ("region-map", "--amin=0.3", "--amax=3.1", "--kmin=-1e200", "--kmax=-5e-324",
                "--na=3", "--nk=2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = cs.region_map((0.3, 3.1), (-1e200, -5e-324), 3, 2)
            cells = []
            for a, k in zip(m.alpha.tolist(), m.kappa.tolist()):
                p = cs.CornerProblem(a, k)
                rep = cs.classify_region(p)
                try:
                    res = cs.find_singular_exponent(p)
                    found = (None, None) if res is None else (res.eta0, res.residual)
                except NumericalFailure:
                    found = (math.nan, math.nan)
                cells.append((a, k, rep.g_value, rep.ell_minus, rep.ell_plus,
                              rep.membership.value, *found))
            code, out, err = invoke(capsys, *argv)
        assert m.kappa.tolist() == [-1e200, -5e-324] * 3
        assert m.g.tolist()[::2] == [math.inf] * 3 and m.failed.tolist()[::2] == [True] * 3
        # repr, so that nan matches nan
        assert repr(map_cells(m)) == repr([c[:6] + ((math.nan,) * 2 if c[6] is None else c[6:])
                                           for c in cells])
        assert (code, out, err) == (0, per_field_csv(
            "alpha,kappa,g,ell_minus,ell_plus,membership,eta0,residual", cells), "")


def per_field(x) -> str:
    """One field as the per-field writer wrote it: floats at 17 significant
    digits, None empty, anything else as str() writes it."""
    if isinstance(x, float):
        return format(x, ".17g")
    return "" if x is None else str(x)


def per_field_csv(header, rows) -> str:
    return "\n".join([header, *(",".join(map(per_field, row)) for row in rows)]) + "\n"


class TestTemplateWriter:
    """Each subcommand's CSV against the per-field writer, fed the records
    the subcommand reads from the library, and the column writer _csv
    against it on its own."""

    def assert_same(self, capsys, argv, expected):
        assert invoke(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("alphas,kappas,n,kinds", [
        # alpha = 1 meets both edges exactly, so two cells are Boundary
        ((1.0, 2.0), (-18.817146090151702, -0.7060234342587407), 5,
         {"found", "none", "Boundary"}),
        ((1e-300, 0.1), (-12.0, -0.05), 3, {"failed"}),
        # 900 cells, two blocks of rows: empty and nan fields on both sides of the boundary
        ((1e-300, 2.0), (-18.817146090151702, -0.05), 30, {"found", "none", "failed"}),
    ], ids=["found-none-boundary", "failed", "two-blocks"])
    def test_region_map(self, capsys, alphas, kappas, n, kinds):
        m = cs.region_map(alphas, kappas, n, n)
        kind = ["failed" if bad else "none" if math.isnan(eta0) else "found"
                for bad, eta0 in zip(m.failed.tolist(), m.eta0.tolist())]
        assert kinds <= set(m.membership.tolist()) | set(kind)
        rows = [(*cell[:6], *((math.nan, math.nan) if k == "failed" else
                              cell[6:] if k == "found" else (None, None)))
                for cell, k in zip(map_cells(m), kind)]
        argv = ("region-map", f"--amin={alphas[0]!r}", f"--amax={alphas[1]!r}",
                f"--kmin={kappas[0]!r}", f"--kmax={kappas[1]!r}", f"--na={n}", f"--nk={n}")
        self.assert_same(capsys, argv, per_field_csv(
            "alpha,kappa,g,ell_minus,ell_plus,membership,eta0,residual", rows))

    @pytest.mark.parametrize("samples", [None, 1, 1001])
    def test_kernel1d_two_segments(self, capsys, samples):
        closed = kernel1d.TwoSegmentDomain(-1.0, 1.0).critical_contrasts()
        kappa = closed.roots[0]
        expected = per_field_csv("root_index,critical_contrast", enumerate(closed.roots))
        argv = ("kernel1d", "--t=-1")
        if samples is not None:
            basis = kernel1d.kernel_basis(kernel1d.TwoSegmentDomain(-1.0, 1.0), kappa)
            expected += per_field_csv("x,v,v1,v2", basis.sample(samples).tolist())
            argv += (f"--kappa={kappa!r}", f"--samples={samples}")
        self.assert_same(capsys, argv, expected)

    def test_kernel1d_three_segments(self, capsys):
        closed = kernel1d.ThreeSegmentDomain(0.4).critical_contrasts()
        self.assert_same(capsys, ("kernel1d", "--delta=0.4"),
                         per_field_csv("root_index,critical_contrast", enumerate(closed.roots)))

    @pytest.mark.parametrize("alpha,kappa,member", [(1.0, -0.1, "Inside"), (1.0, -5.0, "Outside")])
    def test_eta0(self, capsys, alpha, kappa, member):
        p = cs.CornerProblem(alpha, kappa)
        report, result = cs.classify_region(p), cs.find_singular_exponent(p)
        assert report.membership.value == member and (result is None) == (member == "Outside")
        found = (result.eta0, result.residual) if result else (None, None)
        self.assert_same(capsys, ("eta0", f"--alpha={alpha!r}", f"--kappa={kappa!r}"),
                         per_field_csv("alpha,kappa,g,membership,eta0,residual",
                                       [(alpha, kappa, report.g_value, report.membership.value,
                                         *found)]))

    def test_corner_det(self, capsys, monkeypatch):
        p, lam = cs.CornerProblem(1.0, -2.0), 1.0 + 0.3j
        M = cs.transmission_matrix(p, lam)
        det = complex(np.linalg.det(M))
        row = (1.0, -2.0, 0.3, det.real, det.imag, cs.normalized_determinant(M))
        built = []
        monkeypatch.setattr(cs, "transmission_matrix",
                            lambda *args, _build=cs.transmission_matrix: built.append(args) or _build(*args))
        self.assert_same(capsys, ("corner-det", "--alpha=1", "--kappa=-2", "--eta=0.3"),
                         per_field_csv("alpha,kappa,eta,det_re,det_im,det_normalized", [row]))
        assert len(built) == 1  # both determinants read one interface system

    def test_cone(self, capsys):
        header = "alpha,mu1,lambda_plus,classification"
        mu1 = cones.cap_first_eigenvalue(1.2)
        lam_plus, cls = cones.classify_spectrum(3, mu1, 0.0, 1)
        self.assert_same(capsys, ("cone", "--alpha=1.2"),
                         per_field_csv(header, [(1.2, mu1, lam_plus, cls.value)]))
        lam_plus, cls = cones.classify_spectrum(3, 2.0, 0.0, 1)
        self.assert_same(capsys, ("cone", "--mu=2"),
                         per_field_csv(header, [(None, 2.0, lam_plus, cls.value)]))

    def test_classify(self, capsys):
        # the second row sits on the edge d = 4 - 2 lambda1 (within 1e-12),
        # where the range is not closed, so it is no isomorphism either
        for beta, l, d, lam, verdict in ((0.5, 2, 3, 1.5, "Isomorphism,True"),
                                         (0.0, 1, 2, 1.0000000000000002, "NotFredholm,False")):
            cls = cones.fredholm_classify(cones.WeightedIndex(beta, l, d), lam)
            row = (beta, l, d, lam, cls.value, cones.isomorphism_in_dimension(d, lam))
            expected = per_field_csv("beta,l,d,lambda1,classification,basic_index_isomorphism",
                                     [row])
            assert expected.endswith(f",{verdict}\n")
            self.assert_same(capsys, ("classify", f"--beta={beta!r}", f"--l={l}", f"--d={d}",
                                      f"--lambda1={lam!r}"), expected)

    def test_text_holding_percent_signs(self):
        assert cli._csv("share,x", ["50%", "%s %%d"], [0.5, 2.0]) == (
            "share,x\n50%,0.5\n%s %%d,2\n")

    def test_floats_at_the_edges(self):
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308,
                  0.1, 1.0 / 3.0, 1e22, 1e-7, 123456789012345678.0]
        assert cli._csv("x", values) == per_field_csv(
            "x", [(v,) for v in values])


class TestBoundaryIsRelative:
    def test_small_g_far_from_the_edges_is_outside(self, capsys):
        # g = -1.96e-10, with kappa 47 times below ell_plus and far above ell_minus
        code, out, _ = invoke(capsys, "eta0", "--alpha=3.14", "--kappa=-1e-8")
        assert code == 0 and out.splitlines()[1].split(",")[3] == "Outside"

    def test_positive_g_near_pi_is_inside(self, capsys):
        code, out, _ = invoke(capsys, "region-map", "--amin=3.14", "--amax=3.1415926",
                              "--kmin=-1e-300", "--kmax=-1e-301", "--na=2", "--nk=2")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert code == 0 and len(rows) == 4
        assert all(float(r[2]) > 0.0 and r[5] == "Inside" for r in rows)


def side_u_grid(n=16):
    """A U on its side, open to the right: node columns through the gap hold
    two separate runs of interior nodes."""
    mask = np.ones((n, n), dtype=bool)
    mask[n // 4:, 3 * n // 8:5 * n // 8] = False
    return Grid2D(mask)


class TestSolveCsv:
    @pytest.mark.parametrize("domain", ["lshape", "notched", "rectangle"])
    def test_matches_per_field_format(self, capsys, monkeypatch, domain):
        # the CSV against one format(value, ".17g") per field per node, on the
        # field the CLI solved for; a sign-changing sigma gives negative values
        # and values that print with exponents
        solved = {}

        def capture(solve):
            def wrapper(grid, *args):
                solved["grid"], solved["sol"] = grid, solve(grid, *args)
                return solved["sol"]
            return wrapper

        for name in ("two_step_solve", "corrected_two_step_solve"):
            monkeypatch.setattr(twostep, name, capture(getattr(twostep, name)))
        code, out, _ = invoke(capsys, "solve", "--domain", domain, "--n", "32",
                              "--sigma-file", "split-x:0.4:1:-3")
        g, v = solved["grid"], solved["sol"].v
        fmt = lambda x: format(float(x), ".17g")
        ref = ["x,y,value"] + [f"{fmt(g.nodes[i])},{fmt(g.nodes[j])},{fmt(v[i, j])}"
                               for i, j in zip(*np.nonzero(g.interior))]
        assert code == 0 and out == "\n".join(ref) + "\n"
        values = [row.rsplit(",", 1)[1] for row in ref[1:]]
        assert any(x.startswith("-") for x in values) and any("e" in x for x in values)

    @pytest.mark.parametrize("make", [side_u_grid, lambda: lshape_grid(98),
                                      lambda: notched_grid(24)],
                             ids=["side-u-16", "lshape-98", "notched-24"])
    def test_writer_matches_per_field_format(self, make):
        # _solve_csv alone, against one format(value, ".17g") per field per node
        grid = make()
        rng = np.random.default_rng(15)
        v = rng.standard_normal(grid.interior.shape) * 10.0 ** rng.integers(-300, 300, grid.interior.shape)
        v[~grid.interior] = np.nan  # only interior nodes are written
        ii, jj = np.nonzero(grid.interior)
        v[ii[:4], jj[:4]] = 0.0, -0.0, 5e-324, -1.7976931348623157e308
        fmt = lambda x: format(float(x), ".17g")
        ref = "".join(f"{fmt(grid.nodes[i])},{fmt(grid.nodes[j])},{fmt(v[i, j])}\n"
                      for i, j in zip(ii, jj))
        assert cli._solve_csv(grid, v) == "x,y,value\n" + ref and "nan" not in ref

    @pytest.mark.parametrize("make", [lambda: lshape_grid(512), lambda: notched_grid(24)],
                             ids=["lshape-512", "notched-24"])
    def test_rhs_matches_its_meshgrid_form(self, make):
        # the per-axis outer products against the elementwise meshgrid forms, bit for bit
        grid = make()
        X, Y = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
        ref = {"sine2d": 4.0 * math.pi ** 4 * np.sin(math.pi * X) * np.sin(math.pi * Y),
               "generic": np.sin(3.0 * X + 1.0) * np.cos(2.0 * Y) + 2.0}
        for spec, field in ref.items():
            assert cli._rhs_from_spec(grid, spec).tobytes() == field.tobytes()

    def test_side_u_has_split_node_columns(self):
        grid = side_u_grid()
        runs = [np.count_nonzero(np.diff(np.flatnonzero(col)) > 1) + 1
                for col in grid.interior if col.any()]
        assert max(runs) == 2

    @pytest.mark.parametrize("domain,n", [("lshape", "16"), ("notched", "24")])
    def test_output_file_matches_stdout(self, capsys, tmp_path, domain, n):
        argv = ("solve", "--domain", domain, "--n", n, "--sigma-file", "split-x:0.4:1:-3")
        code, out, err = invoke(capsys, *argv)
        path = tmp_path / "v.csv"
        assert invoke(capsys, *argv, "--output", str(path)) == (0, "", "")
        assert code == 0 and err == "" and path.read_bytes() == out.encode("utf-8")


class TestCoarseGrids:
    def test_lshape_at_n_4_solves_uncorrected(self, capsys):
        # the corner and its frame come from the corner's own four cells, so
        # the outer edge y = 0, 2h away, plays no part
        code, out, err = invoke(capsys, "solve", "--domain", "lshape", "--n", "4", "--no-correct")
        assert code == 0 and err == "" and len(out.splitlines()) == 1 + 5

    def test_lshape_at_n_4_cannot_be_corrected(self, capsys):
        # the 4h exclusion disc around the corner holds every cell, so the
        # pairing matrix is zero
        code, out, err = invoke(capsys, "solve", "--domain", "lshape", "--n", "4")
        assert code == 2 and out == "" and err.startswith("numerical failure: ")

    @pytest.mark.parametrize("flag", ["--correct", "--no-correct"])
    def test_lshape_where_the_middle_node_misses_one_half(self, capsys, flag):
        # nodes[49] is 0.49999999999999994 at n = 98
        code, out, err = invoke(capsys, "solve", "--domain", "lshape", "--n", "98", flag)
        assert code == 0 and err == "" and len(out.splitlines()) == 1 + 97 * 97 - 49 * 49

    @pytest.mark.parametrize("domain,n", [("rectangle", "1"), ("lshape", "2")])
    def test_grid_without_interior_node_exits_1(self, capsys, domain, n):
        code, out, err = invoke(capsys, "solve", "--domain", domain, "--n", n)
        assert code == 1 and out == "" and err.startswith("error: ") and "no interior node" in err


@pytest.mark.parametrize("argv,forbidden", [
    # the sparse Laplacian is only the tests' reference: no solve path builds it
    (["solve", "--domain", "notched", "--n", "16"], "scipy.sparse"),
    # only solve's Poisson layer needs scipy, and imports it where it runs
    (["eta0", "--alpha", "1", "--kappa", "-2"], "scipy"),
    (["region-map", "--na", "2", "--nk", "2"], "scipy"),
    (["corner-det", "--alpha", "1", "--kappa", "-2", "--eta", "0.5"], "scipy"),
    (["kernel1d", "--t", "-0.5"], "scipy"),
    (["cone", "--alpha", "1.0"], "scipy"),
    (["classify", "--lambda1", "1.5"], "scipy"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_subcommand_leaves_modules_unimported(argv, forbidden):
    # a fresh process, so that nothing the test session imported counts
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import io, sys, contextlib\n"
            "from bilap.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = run({argv!r})\n"
            f"print(code, sorted(m for m in sys.modules if m == {forbidden!r}"
            f" or m.startswith({forbidden + '.'!r})))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "0 []", out.stderr


def test_solve_builds_its_grid_through_the_module_constructor(capsys, monkeypatch):
    # the constructor is looked up at call time, so a wrapper in its place sees the build
    built = []

    def wrapper(n):
        built.append(n)
        return lshape_grid(n)

    monkeypatch.setattr(cli, "lshape_grid", wrapper)
    assert invoke(capsys, "solve", "--domain", "lshape", "--n", "8", "--no-correct")[0] == 0
    assert built == [8]


def test_one_parser_per_process_built_on_first_run(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import argparse, io, contextlib\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from bilap.cli import run\n"
            "counts = [len(built)]\n"
            "with open('c.conf', 'w') as fh:\n"
            "    fh.write('beta=0.5\\n')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['classify', '--lambda1', '1.5'], ['classify', '--config', 'c.conf',\n"
            "                 '--lambda1', '1.5'], ['classify', '--lambda1', '1.5']):\n"
            "        assert run(argv) == 0\n"
            "        counts.append(len(built))\n"
            "print(*counts)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, timeout=60)
    counts = [int(x) for x in out.stdout.split()]
    # nothing at import; the first run builds the parser and its subparsers,
    # and a --config run parses on that same parser
    assert len(counts) == 4 and counts[0] == 0 and counts[1] > 0, out.stderr
    assert counts[1] == counts[2] == counts[3]


def help_text(capsys, *argv) -> str:
    """The help that an invocation prints."""
    with pytest.raises(SystemExit) as exit_:
        run(list(argv))
    out, err = capsys.readouterr()
    assert exit_.value.code == 0 and err == ""
    return out


def test_help_lists_the_subcommands_and_no_code_notes(capsys):
    text = help_text(capsys, "--help")
    for command in ("eta0", "region-map", "corner-det", "kernel1d", "solve", "cone", "classify"):
        assert command in text
    assert "_csv" not in text and "np.nonzero" not in text


@pytest.mark.parametrize("argv,usage", [
    (("eta0", "-h"), "--alpha ALPHA --kappa KAPPA"),
    (("cone", "-h"), "(--alpha ALPHA | --mu MU)"),
    (("kernel1d", "-h"), "(--t T | --delta DELTA)"),
    (("solve", "-h"), "[--sigma-file SPEC] [--rhs SPEC]"),
])
def test_usage_shows_the_required_options(capsys, argv, usage):
    # the usage paragraph, with its line breaks undone
    assert usage in " ".join(help_text(capsys, *argv).split("\n\n")[0].split())


def test_solve_help_gives_each_spec_grammar(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option
    text = help_text(capsys, "solve", "-h")
    lines = {line.split()[0]: line for line in text.splitlines() if line.startswith("  --")}
    for spec in ("one", "constant:<v>", "split-x:<x0>:<left>:<right>",
                 "patch:<x0>:<x1>:<y0>:<y1>:<inside>:<outside>", "file:<csv>", "rows i,j,value"):
        assert spec in lines["--sigma-file"]
    for spec in ("sine2d, one, generic, file:<csv>", "rows x,y,value"):
        assert spec in lines["--rhs"]
