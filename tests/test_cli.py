"""Tests for the command-line contract: exit codes 0 (success), 1 (argument
error) and 2 (numerical failure), byte-identical repeat output, --config
precedence, and clean rejection of malformed specs and files."""

import warnings

import pytest

from bilap import twostep
from bilap.cli import run


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
    ])
    def test_argument_errors(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
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
        # the tail stays positive through every doubling of eta_max
        code, out, err = invoke(capsys, "eta0", "--alpha", "1e-20", "--kappa", "-1")
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: ")

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

    def test_config_sets_domain_and_size(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "domain=notched\nn=32\n")
        from_config = invoke(capsys, "solve", "--config", conf)
        assert from_config[0] == 0
        assert from_config == invoke(capsys, "solve", "--domain", "notched", "--n", "32")

    def test_config_unknown_domain_exits_1(self, capsys, tmp_path):
        # argparse checks --domain choices on the command line only
        conf = write(tmp_path, "c.conf", "domain=disk\n")
        code, out, err = invoke(capsys, "solve", "--config", conf)
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_config_value_of_wrong_type_exits_1(self, capsys, tmp_path):
        conf = write(tmp_path, "c.conf", "n=abc\n")
        code, out, err = invoke(capsys, *SOLVE[:3], "--config", conf)
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("value", ["maybe", "", "off"])
    def test_bad_boolean_exits_1(self, capsys, tmp_path, value):
        conf = write(tmp_path, "c.conf", f"correct={value}\n")
        code, out, err = invoke(capsys, *SOLVE, "--config", conf)
        assert code == 1 and out == "" and err.startswith("error: ")

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
                                      "3,4,-inf"])
    def test_sigma_file_rows(self, capsys, tmp_path, rows):
        path = write(tmp_path, "sigma.csv", f"i,j,value\n{rows}\n")
        code, out, err = invoke(capsys, *SOLVE, "--sigma-file", f"file:{path}")
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_sigma_file_in_range(self, capsys, tmp_path):
        path = write(tmp_path, "sigma.csv", "i,j,value\n3,4,-2.0\n15,15,-3.0\n")
        code, out, _ = invoke(capsys, *SOLVE, "--sigma-file", f"file:{path}")
        assert code == 0 and out != invoke(capsys, *SOLVE)[1]

    @pytest.mark.parametrize("rows", ["-0.0625,0.5,1.0", "0.5,1.0625,1.0", "2.0,0.5,1.0"])
    def test_rhs_file_rows(self, capsys, tmp_path, rows):
        path = write(tmp_path, "rhs.csv", f"x,y,value\n{rows}\n")
        code, out, err = invoke(capsys, *SOLVE, "--rhs", f"file:{path}")
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_rhs_file_nan_is_numerical_failure(self, capsys, tmp_path):
        path = write(tmp_path, "rhs.csv", "x,y,value\n0.25,0.25,nan\n")
        code, out, err = invoke(capsys, *SOLVE, "--rhs", f"file:{path}")
        assert code == 2 and out == "" and err.startswith("numerical failure: ")

    def test_rhs_file_in_range(self, capsys, tmp_path):
        path = write(tmp_path, "rhs.csv", "x,y,value\n0.25,0.25,1.0\n1.0,1.0,5.0\n")
        code, out, _ = invoke(capsys, *SOLVE, "--rhs", f"file:{path}")
        assert code == 0 and out.startswith("x,y,value\n")


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
        ref = ["x,y,value"] + [f"{fmt(g.node_x[i])},{fmt(g.node_y[j])},{fmt(v[i, j])}"
                               for i, j in zip(g.ii, g.jj)]
        assert code == 0 and out == "\n".join(ref) + "\n"
        values = [row.rsplit(",", 1)[1] for row in ref[1:]]
        assert any(x.startswith("-") for x in values) and any("e" in x for x in values)
