"""End-to-end runs of the command line front end.

Every test drives main() with an argv list, so exit codes, stderr text,
and report payloads are exercised exactly as a shell user sees them.
Search-backed commands pin the seed and trimmed budgets to keep runs
deterministic and fast.
"""

import json
import math

import pytest

from phaselat import cli, complex_pr_equivalences
from phaselat.cli import main


def _problem(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


REAL3 = {
    "ambient_dim": 3,
    "field": "real",
    "norm": {"p": "inf"},
    "basis": [[1, 1, 0], [0, 1, 1]],
}
REDUCE2 = {
    "ambient_dim": 2,
    "field": "real",
    "norm": {"p": 2},
    "pair": [[1.0, 0.0], [0.6, 0.8]],
}
ADP3 = {
    "ambient_dim": 3,
    "field": "complex",
    "norm": {"p": "inf"},
    "pair": [[1, 0.1, 0], [0, 0.1, 1]],
}
QUAD2 = {
    "ambient_dim": 2,
    "field": "complex",
    "norm": {"p": "inf"},
    "pair": [[[1, 0], [1, 0]], [[0, 1], [0, -1]]],
}
# f = (1, 1), g = (i, 2i) is pointwise perpendicular; NEAR2 moves g by 1e-8
PERP2 = {
    "ambient_dim": 2,
    "field": "complex",
    "norm": {"p": 2},
    "pair": [[[1, 0], [1, 0]], [[0, 1], [0, 2]]],
}
NEAR2 = dict(PERP2, pair=[[[1, 0], [1, 0]], [[0, 1], [1e-8, 2]]])
SPR4 = {
    "ambient_dim": 4,
    "field": "complex",
    "norm": {"p": "inf"},
    "pair": [[[1, 0], [0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [-1, 0], [0, 0]]],
}


# report plumbing


def test_analyze_payload(tmp_path, capsys):
    f = _problem(tmp_path, "real3.json", REAL3)
    code, out, err = _run(
        capsys, ["analyze", f, "--json", "--restarts", "6", "--iters", "120"]
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "analyze"
    assert doc["seed"] == 0
    assert doc["ok"] is True
    assert isinstance(doc["wall_time_s"], float)
    # the span of (1,1,0) and (0,1,1) in sup norm has SPR constant 2
    assert abs(doc["spr"]["c_lower"] - 2.0) < 1e-9
    assert doc["spr"]["unbounded"] is False
    assert abs(doc["cross_check"]["min_disjointness"] - 0.5) < 1e-9
    assert doc["cross_check"]["consistency"] == "ok"
    assert doc["disjoint_witness"]["marginal"] is False


def test_json_report_is_deterministic(tmp_path, capsys):
    f = _problem(tmp_path, "real3.json", REAL3)
    argv = ["analyze", f, "--json", "--restarts", "4", "--iters", "80", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    assert d1 == d2
    assert d1["seed"] == 7


def test_out_flag_writes_json_file(tmp_path, capsys):
    f = _problem(tmp_path, "reduce2.json", REDUCE2)
    dest = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["reduce", f, "--json", "--out", str(dest)])
    assert code == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert doc["command"] == "reduce"


def test_out_flag_writes_human_file(tmp_path, capsys):
    f = _problem(tmp_path, "reduce2.json", REDUCE2)
    dest = tmp_path / "report.txt"
    code, out, _ = _run(capsys, ["reduce", f, "--out", str(dest)])
    assert code == 0
    assert out == ""
    assert "command: reduce" in dest.read_text()


def test_human_output_sorts_keys(tmp_path, capsys):
    f = _problem(tmp_path, "reduce2.json", REDUCE2)
    code, out, _ = _run(capsys, ["reduce", f])
    assert code == 0
    top = [line.split(":", 1)[0] for line in out.splitlines() if line[:1] != " "]
    assert top == sorted(top)
    r_line = next(line for line in out.splitlines() if line.startswith("R: "))
    assert abs(float(r_line.split(": ")[1]) - 0.25) < 1e-12


# frozen command payloads


def test_reduce_closed_form_pair(tmp_path, capsys):
    # (1,0) and (0.6,0.8) are unit in l2, so the fit is the identity gram
    # and R = <f,g> / <f+g,f+g> = 0.6 / 2.4
    f = _problem(tmp_path, "reduce2.json", REDUCE2)
    code, out, _ = _run(capsys, ["reduce", f, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["R"] - 0.25) < 1e-12
    assert abs(doc["distortion_K"] - 1.0) < 1e-9
    fp = [doc["f_prime"][0], doc["f_prime"][1]]
    gp = [doc["g_prime"][0], doc["g_prime"][1]]
    assert abs(fp[0] - 0.6) < 1e-12 and abs(fp[1] + 0.2) < 1e-12
    assert abs(gp[0] - 0.2) < 1e-12 and abs(gp[1] - 0.6) < 1e-12
    assert doc["inner_residual"] < 1e-12
    assert all(doc["checks"].values())


def test_reduce_pair_with_large_entries(tmp_path, capsys):
    # a real l3 pair with entries about 1e6 is fitted at unit scale, so it
    # reduces like the same pair scaled down by 1e6
    pair = [[1.3, -0.4, 2.1], [0.5, 1.7, -0.9]]
    K = []
    for s in (1e6, 1.0):
        doc = {"ambient_dim": 3, "field": "real", "norm": {"p": 3},
               "pair": [[s * x for x in row] for row in pair]}
        code, out, err = _run(capsys, ["reduce", _problem(tmp_path, "l3.json", doc), "--json"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert all(doc["checks"].values())
        K.append(doc["distortion_K"])
    assert K[0] == pytest.approx(K[1], rel=1e-8)


def test_build_adp2spr_payload(tmp_path, capsys):
    f = _problem(tmp_path, "adp3.json", ADP3)
    code, out, _ = _run(capsys, ["build", "adp2spr", f, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["eps_prime"] - 0.1) < 1e-12
    assert abs(doc["certified_ratio"] - 1.0 / (math.sqrt(2) * 0.1)) < 1e-6
    rep = doc["ratio_report"]
    assert rep["numerator"] >= math.sqrt(2) - 1e-9
    assert rep["flag"] is None


def test_build_adp2spr_normalizes_huge_entry(tmp_path, capsys):
    # ||(1e200, 0.1, 0)||_2 = 1e200 is finite though its square is not: the
    # pair is normalized by its true norm, so the overlap is 0.1 / 1e200
    doc = dict(ADP3, norm={"p": 2}, pair=[[1e200, 0.1, 0], [0, 0.1, 1]])
    f = _problem(tmp_path, "huge.json", doc)
    code, out, err = _run(capsys, ["build", "adp2spr", f, "--json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["eps_prime"] == pytest.approx(1e-201, rel=1e-12)
    assert doc["ok"] is True


def test_build_perp2spr_quadrature(tmp_path, capsys):
    f = _problem(tmp_path, "quad2.json", QUAD2)
    code, out, _ = _run(
        capsys, ["build", "perp2spr", f, "--json", "--m", "1.0", "--C", "100"]
    )
    assert code == 0
    doc = json.loads(out)
    # u = (1,1)/norm, v = (i,-i)/norm have equal moduli, so f = u + v and
    # g = u - v share a modulus and the ratio is infinite
    assert doc["measured_ratio"] == "inf"
    assert doc["f"] == [[1.0, 1.0], [1.0, -1.0]]
    assert doc["g"] == [[1.0, -1.0], [1.0, 1.0]]


def test_build_spr2perp_disjoint_split(tmp_path, capsys):
    f = _problem(tmp_path, "spr4.json", SPR4)
    code, out, _ = _run(
        capsys,
        ["build", "spr2perp", f, "--json", "--m", "0.1", "--eps", "0.05"],
    )
    assert code == 0
    doc = json.loads(out)
    wit = doc["witness"]
    # the half-sum and half-difference of the pair are disjointly supported
    assert abs(wit["separation"] - 1.0) < 1e-9
    assert wit["perp"] < 1e-12


def test_build_pr_equiv_quadrature(tmp_path, capsys):
    f = _problem(tmp_path, "quad2.json", QUAD2)
    code, out, _ = _run(capsys, ["build", "pr-equiv", f, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["same_modulus_pair"] is True
    assert doc["perpendicular"] is True
    assert doc["fails_pr"] is True


def test_build_pr_equiv_tolerance_is_the_library_default(tmp_path, capsys):
    # g is 1e-8 off perpendicular: between reduce's 1e-8 slack and the
    # library's 1e-9 tolerance, so the CLI must use the latter
    f = _problem(tmp_path, "near2.json", NEAR2)
    code, out, _ = _run(capsys, ["build", "pr-equiv", f, "--json"])
    assert code == 0
    doc = json.loads(out)
    verdict = complex_pr_equivalences(*(
        [complex(*z) for z in row] for row in NEAR2["pair"]))
    assert doc["fails_pr"] is verdict.perpendicular is False
    assert doc["same_modulus_pair"] is verdict.same_modulus_pair


def test_example_c4_default_delta(capsys):
    code, out, _ = _run(
        capsys, ["example", "c4", "--json", "--restarts", "6", "--iters", "150"]
    )
    assert code == 0
    doc = json.loads(out)
    # delta = 1/99 makes A*delta = 1/100, so the defect is exactly 0.1
    assert abs(doc["perp"] - 0.1) < 1e-12
    assert abs(doc["analytic_perp"] - 0.1) < 1e-12
    assert doc["measured_distance"] <= doc["distance_bound"] + 1e-9
    assert doc["pr_verdict"] == "passes_up_to_budget"
    assert set(doc["min_perp_per_m"]) == {"0.05", "0.1", "0.2"}
    assert all(doc["checks"].values())


def test_example_c4_wide_delta(capsys):
    code, out, _ = _run(
        capsys,
        ["example", "c4", "--json", "--restarts", "6", "--iters", "150",
         "--delta", "0.5"],
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["perp"] - math.sqrt(1.0 / 3.0)) < 1e-12
    assert abs(doc["distance_bound"] - 2.0 / 3.0) < 1e-12
    assert doc["measured_distance"] <= doc["distance_bound"] + 1e-9
    assert all(doc["checks"].values())


def test_verify_suites_pass(capsys):
    for argv in (
        ["verify", "identities", "--json", "--samples", "40", "--dim", "6"],
        ["verify", "real-spr", "--json", "--samples", "60", "--dim", "5"],
        ["verify", "complex-spr", "--json", "--samples", "6", "--dim", "5"],
    ):
        code, out, _ = _run(capsys, argv)
        assert code == 0, argv
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(doc["checks"].values())


# failure modes and exit codes


def test_infeasible_separation_exits_one(tmp_path, capsys):
    f = _problem(tmp_path, "real3.json", REAL3)
    code, _, err = _run(
        capsys,
        ["search-perp", f, "--m", "3", "--restarts", "2", "--iters", "40"],
    )
    assert code == 1
    assert err.startswith("InfeasibleError")


def test_negative_m_exits_two(tmp_path, capsys):
    f = _problem(tmp_path, "real3.json", REAL3)
    for m in ("-1", "nan"):
        code, out, err = _run(capsys, ["search-perp", f, "--m", m])
        assert code == 2
        assert out == "" and "nonnegative" in err


@pytest.mark.parametrize("flag", ["--restarts", "--iters"])
@pytest.mark.parametrize("command", [["analyze", "{basis}"], ["search-disjoint", "{basis}"],
                                     ["search-perp", "{basis}", "--m", "0.1"],
                                     ["example", "c4"]], ids=lambda c: c[0])
def test_budget_below_one_exits_two(tmp_path, capsys, command, flag):
    f = _problem(tmp_path, "real3.json", REAL3)
    code, out, err = _run(capsys, [f if a == "{basis}" else a for a in command]
                          + [flag, "0"])
    assert code == 2
    assert out == "" and err.startswith("error:") and flag in err


@pytest.mark.parametrize("argv", [
    ["identities", "--dim", "0"], ["identities", "--dim", "-2"], ["real-spr", "--dim", "0"],
    ["identities", "--samples", "0"], ["real-spr", "--samples", "0"],
    ["complex-spr", "--samples", "0"]])
def test_bad_verify_arguments_exit_two(capsys, argv):
    code, out, err = _run(capsys, ["verify", *argv])
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_verify_complex_spr_reports_the_dimension_it_samples(capsys):
    code, out, _ = _run(capsys, ["verify", "complex-spr", "--dim", "1", "--samples", "5",
                                 "--json"])
    assert code == 0
    assert json.loads(out)["dim"] == 3


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ bad")
    code, _, err = _run(capsys, ["analyze", str(path)])
    assert code == 2
    assert "line 1 column" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = _run(capsys, ["analyze", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_dependent_basis_exits_two(tmp_path, capsys):
    doc = dict(REAL3, basis=[[1, 0, 0], [2, 0, 0]])
    f = _problem(tmp_path, "dep.json", doc)
    code, _, err = _run(capsys, ["analyze", f])
    assert code == 2
    assert "basis" in err


def test_bad_complex_entry_exits_two(tmp_path, capsys):
    doc = dict(ADP3, pair=[[1, "x", 0], [0, 0.1, 1]])
    f = _problem(tmp_path, "bad.json", doc)
    code, _, err = _run(capsys, ["build", "adp2spr", f])
    assert code == 2
    assert "[re, im]" in err


PAIR_COMMANDS = [["reduce"], ["build", "adp2spr"], ["build", "spr2perp"],
                 ["build", "perp2spr"], ["build", "pr-equiv"]]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("command", PAIR_COMMANDS, ids=" ".join)
def test_non_finite_pair_entry_exits_two(tmp_path, capsys, command, bad):
    # json.dumps writes NaN and Infinity, which json.load reads back, and an
    # integer too large for a float
    doc = dict(ADP3, pair=[[1, [bad, 0], 0], [0, 0.1, 1]])
    f = _problem(tmp_path, "nonfinite.json", doc)
    code, _, err = _run(capsys, command + [f])
    assert code == 2
    assert "pair[0]: entries must be finite" in err


@pytest.mark.parametrize("builder", ["adp2spr", "perp2spr"])
def test_zero_pair_vector_exits_one(tmp_path, capsys, builder):
    doc = dict(ADP3, pair=[[0, 0, 0], [0, 0.1, 1]])
    f = _problem(tmp_path, "zero.json", doc)
    code, _, err = _run(capsys, ["build", builder, f])
    assert code == 1
    assert err == "PreconditionError: pair vectors must be nonzero to normalize\n"


def test_pr_equiv_rejects_real_field(tmp_path, capsys):
    f = _problem(tmp_path, "reduce2.json", REDUCE2)
    code, _, err = _run(capsys, ["build", "pr-equiv", f])
    assert code == 2
    assert "complex" in err


@pytest.mark.parametrize("command", [["reduce"], ["build", "pr-equiv"]], ids=" ".join)
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_exits_two(tmp_path, capsys, command, tol):
    f = _problem(tmp_path, "perp2.json", PERP2)
    code, out, err = _run(capsys, command + [f, "--tol", tol])
    assert code == 2
    assert out == "" and "error:" in err and "--tol" in err


def test_unknown_flag_exits_two(tmp_path, capsys):
    f = _problem(tmp_path, "real3.json", REAL3)
    code, _, _ = _run(capsys, ["analyze", f, "--nope"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["reduce", "{pair}", "--restarts", "3"],
    ["reduce", "{pair}", "--seed", "1"],
    ["build", "adp2spr", "{pair}", "--iters", "40"],
    ["verify", "identities", "--tol", "1e-6"],
    ["analyze", "{basis}", "--tol", "1e-6"],
    ["example", "c4", "--tol", "1e-6"],
    ["build", "adp2spr", "{cpair}", "--C", "5"],
    ["build", "spr2perp", "{cpair}", "--tol", "1e-6"],
    ["build", "perp2spr", "{cpair}", "--eps", "0.1"],
    ["build", "pr-equiv", "{cpair}", "--m", "0.1"],
])
def test_flags_a_command_does_not_read_exit_two(tmp_path, capsys, argv):
    paths = {"{pair}": _problem(tmp_path, "reduce2.json", REDUCE2),
             "{cpair}": _problem(tmp_path, "spr4.json", SPR4),
             "{basis}": _problem(tmp_path, "real3.json", REAL3)}
    code, out, err = _run(capsys, [paths.get(a, a) for a in argv])
    assert code == 2
    assert out == "" and "unrecognized arguments" in err


def test_only_seeded_commands_report_seed(tmp_path, capsys):
    f = _problem(tmp_path, "reduce2.json", REDUCE2)
    code, out, _ = _run(capsys, ["reduce", f, "--json"])
    assert code == 0 and "seed" not in json.loads(out)
    code, out, _ = _run(
        capsys, ["verify", "identities", "--json", "--samples", "4", "--seed", "5"]
    )
    assert code == 0 and json.loads(out)["seed"] == 5


def test_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    f = _problem(tmp_path, "real3.json", REAL3)
    good = ["analyze", f, "--json", "--restarts", "2", "--iters", "40", "--seed", "3"]

    def payload():
        code, out, err = _run(capsys, good)
        assert code == 0 and err == ""
        doc = json.loads(out)
        doc.pop("wall_time_s")
        return doc

    cli._build_parser.cache_clear()
    alone = payload()
    cli._build_parser.cache_clear()
    code, out, err = _run(capsys, ["analyze", f, "--restarts", "two"])
    assert code == 2 and out == "" and "invalid int value" in err
    assert payload() == alone
    assert cli._build_parser() is cli._build_parser()


def test_no_subcommand_exits_two(capsys):
    assert _run(capsys, [])[0] == 2


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, ["--help"])
    assert code == 0
    assert "phaselat" in out
