import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from difftrace import traces
from difftrace.cli import main

CROSS = "vars: x, y, z\nideal: x*y, x*z\nassume: reduced\n"
NODE = "vars: x, y\nideal: x*y\nassume: reduced, equidimensional\n"
LINE = "vars: t\nassume: reduced, equidimensional\n"
LINE_X = "vars: x\nassume: reduced, equidimensional\n"
PLANE_YZ = "vars: y, z\nassume: reduced, equidimensional\n"
PLANE_XY = "vars: x, y\nassume: reduced, equidimensional\n"


@pytest.fixture
def rings(tmp_path):
    out = {}
    for name, text in [("cross", CROSS), ("node", NODE), ("line", LINE),
                       ("line_x", LINE_X), ("plane_yz", PLANE_YZ),
                       ("plane_xy", PLANE_XY)]:
        p = tmp_path / f"{name}.ring"
        p.write_text(text, encoding="utf-8")
        out[name] = str(p)
    return out


def run_json(argv, capsys):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrace:
    def test_cross_second_power(self, rings, capsys):
        code, out, _ = run_json(
            ["trace", "--ring", rings["cross"], "--power", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["generators"] == ["y", "z"]
        assert doc["results"]["isWholeRing"] is False
        assert doc["results"]["containsMaximalIdeal"] is False

    def test_power_zero_is_whole_ring(self, rings, capsys):
        code, out, _ = run_json(
            ["trace", "--ring", rings["node"], "--power", "0"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["isWholeRing"] is True

    def test_human_mode_mentions_trace(self, rings, capsys):
        code = main(["trace", "--ring", rings["cross"], "--power", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace(Omega^2) = (y, z)" in out


class TestClassify:
    def test_cross_golden(self, rings, capsys):
        code, out, _ = run_json(["classify", "--ring", rings["cross"]], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["dimension"] == 2
        assert results["polynomialRank"] == 0
        assert results["nearlyRegular"] is False
        assert results["regular"] is False
        by_power = {row["power"]: row for row in results["traces"]}
        assert sorted(by_power) == [0, 1, 2, 3]
        assert by_power[0]["isWholeRing"] is True
        assert by_power[1]["generators"] == ["x", "y", "z"]
        assert by_power[2]["generators"] == ["y", "z"]
        assert by_power[3]["generators"] == []

    def test_regular_unknown_without_reduced(self, tmp_path, capsys):
        p = tmp_path / "bare.ring"
        p.write_text("vars: x, y\nideal: x*y\n", encoding="utf-8")
        code, out, _ = run_json(["classify", "--ring", str(p)], capsys)
        assert code == 0
        assert json.loads(out)["results"]["regular"] is None

    def test_byte_identical_reruns(self, rings, capsys):
        _, first, _ = run_json(["classify", "--ring", rings["cross"]], capsys)
        _, second, _ = run_json(["classify", "--ring", rings["cross"]], capsys)
        assert first == second


class TestSingular:
    def test_cross_check_golden(self, rings, capsys):
        code, out, _ = run_json(
            ["singular", "--ring", rings["node"], "--cross-check"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["traceIdeal"] == ["x", "y"]
        assert results["radicalsAgree"] is True

    def test_needs_reduced(self, tmp_path, capsys):
        p = tmp_path / "bare.ring"
        p.write_text("vars: x, y\nideal: x*y\nassume: equidimensional\n",
                     encoding="utf-8")
        code, out, err = run_json(["singular", "--ring", str(p)], capsys)
        assert code == 4
        assert out == ""
        assert "assume: reduced" in err


class TestPrank:
    def test_node_cylinder_story(self, rings, capsys):
        code, out, _ = run_json(["prank", "--ring", rings["node"]], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results == {"dimension": 1, "polynomialRank": 0}


class TestTensor:
    def test_verify_formula(self, rings, capsys):
        code, out, _ = run_json(
            ["tensor", rings["node"], rings["line"], "--verify-formula"],
            capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["ring"]["ideal"] == ["x*y"]
        assert results["dimension"] == 2
        assert results["formulaHolds"] is True
        assert results["nearlyRegular"] is False

    def test_without_verification_no_trace_keys(self, rings, capsys):
        _, out, _ = run_json(["tensor", rings["node"], rings["line"]], capsys)
        results = json.loads(out)["results"]
        assert "formulaHolds" not in results


class TestFiber:
    def test_dimension_mismatch_pair(self, rings, capsys):
        code, out, _ = run_json(
            ["fiber", rings["line_x"], rings["plane_yz"], "--verify-formula"],
            capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert sorted(results["ring"]["ideal"]) == ["x*y", "x*z"]
        assert results["dimension"] == 2
        assert results["formulaHolds"] is True
        assert results["nearlyRegular"] is False

    def test_missing_flags_rejected(self, tmp_path, rings, capsys):
        p = tmp_path / "noflag.ring"
        p.write_text("vars: u\n", encoding="utf-8")
        code, out, err = run_json(
            ["fiber", str(p), rings["line"], "--verify-formula"], capsys)
        assert code == 4
        assert out == ""
        assert "assume" in err


class TestSimplicialCommand:
    def test_two_edges_agree(self, capsys):
        code, out, _ = run_json(
            ["sr", "--facets", "1 2; 3 4", "--verify-algebraic"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["combinatorialNearlyRegular"] is True
        assert results["algebraicNearlyRegular"] is True
        assert results["agree"] is True
        assert results["ring"]["ideal"] == [
            "x1*x3", "x1*x4", "x2*x3", "x2*x4"]

    def test_bad_facets_exit_two(self, capsys):
        code, out, err = run_json(["sr", "--facets", "1 a"], capsys)
        assert code == 2
        assert out == ""
        assert "integers" in err


class TestVeronese:
    def test_degree_three_golden(self, rings, capsys):
        code, out, _ = run_json(
            ["veronese", "--ring", rings["plane_xy"], "--degree", "3"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["ring"]["ideal"] == [
            "z2^2 - z1*z3", "z1*z2 - z0*z3", "z1^2 - z0*z2"]
        assert results["dimension"] == 2

    def test_quotient_input_exit_four(self, rings, capsys):
        code, out, err = run_json(
            ["veronese", "--ring", rings["node"], "--degree", "2"], capsys)
        assert code == 4
        assert out == ""


class TestExitCodes:
    def test_malformed_file_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.ring"
        p.write_text("vars: x\nideal: x +\n", encoding="utf-8")
        code, out, err = run_json(["classify", "--ring", str(p)], capsys)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_superscript_weight_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "superscript.ring"
        p.write_text("vars: x=\u00b2, y\n", encoding="utf-8")
        code, out, err = run_json(["classify", "--ring", str(p)], capsys)
        assert code == 2
        assert out == ""
        assert "positive integer" in err

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, out, _ = run_json(
            ["classify", "--ring", str(tmp_path / "absent.ring")], capsys)
        assert code == 2
        assert out == ""

    def test_budget_exhaustion(self, rings, capsys):
        code, out, err = run_json(
            ["classify", "--ring", rings["cross"], "--max-steps", "1"], capsys)
        assert code == 3
        assert out == ""
        assert "budget" in err.lower()

    def test_inhomogeneous_input(self, tmp_path, capsys):
        p = tmp_path / "skew.ring"
        p.write_text("vars: x, y\nideal: x^2 + y\n", encoding="utf-8")
        code, out, err = run_json(["classify", "--ring", str(p)], capsys)
        assert code == 4
        assert out == ""
        assert "homogeneous" in err

    def test_budget_exhaustion_on_graded_path(self, capsys):
        code, out, err = run_json(
            ["sr", "--facets", "1 2; 2 3", "--verify-algebraic",
             "--max-steps", "1"], capsys)
        assert code == 3
        assert out == ""
        assert "budget" in err.lower()

    def test_argument_errors_are_parse_errors(self, rings, tmp_path, capsys):
        # x of the first factor is renamed to x_1, which it already has
        clash = tmp_path / "clash.ring"
        clash.write_text("vars: x, x_1\nassume: reduced, equidimensional\n",
                         encoding="utf-8")
        collision = ("error: variable-name collision survives the renaming "
                     "policy; rename the factor variables by hand\n")
        cases = [
            (["trace", "--ring", rings["node"], "--power", "-1"],
             "error: exterior power degree cannot be negative\n"),
            (["veronese", "--ring", rings["plane_xy"], "--degree", "0"],
             "error: Veronese degree must be a positive integer\n"),
            (["sr", "--facets", "1;;2"], "error: empty facet in facet list\n"),
            (["tensor", str(clash), rings["line_x"]], collision),
            (["fiber", str(clash), rings["line_x"], "--verify-formula"], collision),
        ]
        for argv, message in cases:
            code, out, err = run_json(argv, capsys)
            assert (code, out, err) == (2, "", message), argv

    def test_engine_value_error_is_internal(self, monkeypatch, capsys):
        def fault(*args):
            raise ValueError("fault inside the solver")

        monkeypatch.setattr(traces, "trace_contains", fault)
        code, out, err = run_json(
            ["sr", "--facets", "1 2; 2 3", "--verify-algebraic"], capsys)
        assert code == 1
        assert out == ""
        assert "fault inside the solver" in err

    def test_nonpositive_max_steps_rejected(self, rings, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--ring", rings["cross"], "--max-steps", "0"])
        assert err.value.code == 2


class TestFlagPlacement:
    def test_global_flags_before_subcommand(self, rings, capsys):
        code = main(["--json", "classify", "--ring", rings["cross"]])
        out = capsys.readouterr().out
        assert code == 0
        json.loads(out)

    def test_flags_after_subcommand_equivalent(self, rings, capsys):
        code_a = main(["--json", "trace", "--ring", rings["cross"], "--power", "1"])
        out_a = capsys.readouterr().out
        code_b = main(["trace", "--ring", rings["cross"], "--power", "1", "--json"])
        out_b = capsys.readouterr().out
        assert (code_a, code_b) == (0, 0)
        assert out_a == out_b

    def test_reports_carry_order_and_budget(self, rings, capsys):
        _, out, _ = run_json(
            ["trace", "--ring", rings["cross"], "--power", "1",
             "--max-steps", "5000"], capsys)
        doc = json.loads(out)
        assert doc["order"] == "grevlex"
        assert doc["maxSteps"] == 5000


class TestModuleEntryPoint:
    def test_python_dash_m(self, rings):
        # the child finds the package from a checkout, as pytest itself does
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "difftrace", "prank",
             "--ring", rings["node"], "--json"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["results"]["polynomialRank"] == 0
