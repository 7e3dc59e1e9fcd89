"""Witness searches: SPR constant estimation, disjoint pairs, perp pairs.

Search results are compared against hand-derived values on structured
subspaces and against the brute-force coefficient sweep in oracles.py on
a small real instance.  Search outcomes are one-sided: a found witness
certifies a lower bound, so assertions are written in the direction the
search can actually guarantee.
"""

import hashlib
import math

import numpy as np
import pytest

import phaselat.phase_metric as PM
import phaselat.search as S
from phaselat import (
    Ambient,
    InfeasibleError,
    InputError,
    NormSpec,
    PhaseLatError,
    SearchBudget,
    Subspace,
    check_pr,
    estimate_spr_constant,
    search_almost_disjoint,
    search_perp_pair,
    spr_ratio,
)

from conftest import random_vec
from oracles import (closed_form_l2_distance, full_grid_objectives, grid_separations,
                     real_pair_sweep, serial_pattern_search)


def _cross_subspace():
    # span{u, w} in l_inf^4 whose perp stays near 0.1 for separated
    # pairs even though the phase distance collapses
    u = np.array([1, 1, 1, 0], dtype=complex)
    w = np.array([1, 1j, 0, 1], dtype=complex)
    return Subspace(Ambient(4, "complex", NormSpec(np.inf)), [u, w])


def test_one_dimensional_spans_have_constant_one():
    E = Subspace(Ambient(3, "real", NormSpec(2.0)), [[1.0, 2.0, 2.0]])
    est = estimate_spr_constant(E, SearchBudget(4, 60, 2), seed=0)
    assert not est.unbounded
    assert est.c_lower == pytest.approx(1.0, rel=1e-9)

    Ec = Subspace(Ambient(2, "complex", NormSpec(np.inf)), [[1.0, 0.5j]])
    estc = estimate_spr_constant(Ec, SearchBudget(4, 60, 2), seed=0)
    assert not estc.unbounded
    assert estc.c_lower == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("p", [1.0, np.inf])
def test_full_two_dim_space_is_unbounded(p):
    # e1, e2 are disjoint, so the sum/difference pair has equal moduli
    # at positive distance and the ratio blows up
    E = Subspace(Ambient(2, "real", NormSpec(p)), [[1.0, 0.0], [0.0, 1.0]])
    est = estimate_spr_constant(E, seed=0)
    assert est.unbounded
    assert math.isinf(est.c_lower)
    assert est.report.flag == "infinite"


def test_real_constant_matches_disjointness_sweep():
    # 1/c equals the minimal disjointness; the sweep oracle pins both
    basis = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    E = Subspace(Ambient(3, "real", NormSpec(np.inf)), basis)
    est = estimate_spr_constant(E, seed=0)
    assert not est.unbounded
    eps_star, ratio_max = real_pair_sweep(basis, np.inf)
    assert abs(1.0 / est.c_lower - eps_star) / eps_star <= 0.10
    assert est.c_lower >= ratio_max * (1.0 - 5e-3)

    adp = search_almost_disjoint(E, seed=0)
    assert abs(adp.disjointness - eps_star) / eps_star <= 0.10


def test_witness_reproduces_reported_constant():
    basis = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    E = Subspace(Ambient(3, "real", NormSpec(np.inf)), basis)
    est = estimate_spr_constant(E, seed=0)
    again = spr_ratio(est.witness_f, est.witness_g, E.ambient.norm, field="real")
    assert again.flag is None
    assert abs(again.ratio - est.c_lower) <= 1e-6 * est.c_lower


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_complex_disjointness_forces_large_constant(p):
    # an eps'-almost-disjoint pair forces c >= 1/(sqrt(2) eps')
    for seed in (3, 4):
        rng = np.random.default_rng(100 + seed)
        B = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        E = Subspace(Ambient(4, "complex", NormSpec(p)), B)
        adp = search_almost_disjoint(E, seed=seed)
        est = estimate_spr_constant(E, seed=seed)
        if adp.disjointness <= 1e-12:
            assert est.unbounded
        else:
            bound = 1.0 / (math.sqrt(2.0) * adp.disjointness)
            assert est.unbounded or est.c_lower >= bound - 1e-6


def _warm_start_panel():
    # random spans, and spans of two noisy disjoint vectors, whose best
    # almost-disjoint pair has a small eps
    for field in ("real", "complex"):
        for p in (1.0, 2.0, 3.0, np.inf):
            for j in range(4):
                rng = np.random.default_rng([29, field == "complex", int(min(p, 4.0)), j])
                n = 3 + j
                B = np.stack([random_vec(rng, n, field) for _ in range(2)])
                if j % 2:
                    B = 1e-3 * B + np.eye(n)[:2]
                yield Subspace(Ambient(n, field, NormSpec(p)), B)


def test_warm_start_is_a_proven_high_ratio_pair():
    # for a normalized eps-almost disjoint pair (u, v), the ratio of
    # (u + v, u - v) is at least 1/eps over the reals and at least
    # 1/(sqrt(2) eps) - (1 + 1/sqrt(2)) over the complex field
    budget = SearchBudget(4, 60, 2)
    warmed = 0
    for E in _warm_start_panel():
        norm, field = E.ambient.norm, E.ambient.field
        warm = S._warm_start_pairs(E, budget, seed=5)
        if warm is None:
            continue
        warmed += 1
        f, g = warm
        eps = norm(np.minimum(np.abs(f + g), np.abs(f - g))) / 2.0
        assert eps < 0.9
        if eps == 0.0:
            bound = math.inf
        elif field == "complex":
            bound = 1.0 / (math.sqrt(2.0) * eps) - (1.0 + 1.0 / math.sqrt(2.0))
        else:
            bound = 1.0 / eps - 1e-9
        report = spr_ratio(f, g, norm, field=field)
        assert report.flag in (None, "infinite")
        ratio = math.inf if report.flag else report.ratio
        assert ratio >= bound
        assert estimate_spr_constant(E, budget, seed=5).c_lower >= ratio
    assert warmed >= 24
    # the searches build on the kernels alone
    assert not {"builders", "hilbert"} & set(vars(S))


def test_estimate_is_deterministic():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    E = Subspace(Ambient(3, "complex", NormSpec(2.0)), B)
    budget = SearchBudget(4, 80, 2)
    a = estimate_spr_constant(E, budget, seed=9)
    b = estimate_spr_constant(E, budget, seed=9)
    assert a.c_lower == b.c_lower
    assert a.unbounded == b.unbounded
    assert np.array_equal(a.witness_f, b.witness_f)
    assert np.array_equal(a.witness_g, b.witness_g)
    assert a.budget_used == b.budget_used


def test_colinear_span_disjointness_is_its_modulus_norm():
    # every normalized pair in a 1-dim span shares its modulus, so the
    # meet is that modulus and the disjointness is exactly 1
    E = Subspace(Ambient(2, "real", NormSpec(2.0)), [[1.0, 0.7]])
    wit = search_almost_disjoint(E, SearchBudget(3, 40, 1), seed=0)
    assert wit.disjointness == pytest.approx(1.0, abs=1e-12)


def test_perp_pair_exact_quadrature():
    # (1,1) and (i,-i) satisfy Re(u conj v) = 0 coordinatewise
    E = Subspace(Ambient(2, "complex", NormSpec(np.inf)), [[1.0, 1.0], [1j, -1j]])
    wit = search_perp_pair(E, 1.0, seed=0)
    assert wit.separation >= 1.0 - 1e-6
    assert wit.perp <= 1e-6


def test_perp_floor_versus_unconstrained():
    E = _cross_subspace()
    floor = search_perp_pair(E, 0.1, SearchBudget(8, 200, 3), seed=1)
    assert floor.separation >= 0.1 - 1e-6
    assert floor.perp > 1e-3
    free = search_perp_pair(E, 0.0, SearchBudget(8, 200, 3), seed=0)
    assert free.perp < 1e-3
    assert free.perp < floor.perp


def test_perp_pair_infeasible_separation():
    E = Subspace(Ambient(2, "complex", NormSpec(np.inf)), [[1.0, 1.0], [1j, -1j]])
    with pytest.raises(InfeasibleError):
        search_perp_pair(E, 3.0, SearchBudget(2, 40, 2), seed=0)


def test_perp_pair_rejects_negative_m():
    E = _cross_subspace()
    for m in (-0.1, math.nan):
        with pytest.raises(InputError):
            search_perp_pair(E, m)
        # check_pr checks its whole grid first: a failing m before a bad
        # one does not hide it
        with pytest.raises(InputError):
            check_pr(E, m_grid=(0.05, m))


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_check_pr_fails_on_full_space(p):
    E = Subspace(Ambient(2, "complex", NormSpec(p)), [[1.0, 0.0], [0.0, 1.0]])
    verdict = check_pr(E, m_grid=(0.1,), seed=0)
    assert verdict.verdict == "fails_with_witness"
    assert verdict.witness.perp < 1e-6
    assert verdict.witness.separation >= 0.1 - 1e-6


def test_check_pr_fails_on_real_pair_in_complex_ambient():
    # f + ig and f - ig share a modulus whenever f, g are real
    rng = np.random.default_rng(5)
    B = np.stack([rng.standard_normal(5), rng.standard_normal(5)]).astype(complex)
    E = Subspace(Ambient(5, "complex", NormSpec(2.0)), B)
    verdict = check_pr(E, m_grid=(0.1,), budget=SearchBudget(8, 250, 3), seed=0)
    assert verdict.verdict == "fails_with_witness"


def test_check_pr_passes_on_cross_subspace():
    verdict = check_pr(
        _cross_subspace(), m_grid=(0.05, 0.1, 0.2),
        budget=SearchBudget(10, 200, 3), seed=3,
    )
    assert verdict.verdict == "passes_up_to_budget"
    assert verdict.witness is None
    assert all(v > 1e-3 for v in verdict.min_perp_per_m.values())


def test_check_pr_records_infeasible_m_as_inf():
    E = Subspace(Ambient(2, "complex", NormSpec(np.inf)), [[1.0, 1.0], [1j, -1j]])
    verdict = check_pr(E, m_grid=(3.0,), budget=SearchBudget(2, 40, 2), seed=0)
    assert verdict.verdict == "passes_up_to_budget"
    assert verdict.min_perp_per_m == {3.0: math.inf}


def test_check_pr_rejects_empty_grid():
    with pytest.raises(InputError):
        check_pr(_cross_subspace(), m_grid=())


def test_budget_and_subspace_validation():
    assert issubclass(InputError, PhaseLatError) and issubclass(InputError, ValueError)
    bad = [
        lambda: SearchBudget(0, 10, 1),
        lambda: SearchBudget(4, 10, 0),
        lambda: Subspace(Ambient(3, "real", NormSpec(2.0)), [[1.0, 2.0]]),
        lambda: Subspace(Ambient(2, "real", NormSpec(2.0)), [[1.0, 2.0], [2.0, 4.0]]),
    ]
    for make in bad:
        with pytest.raises(InputError):
            make()


# -- lockstep restarts -------------------------------------------------------

_PLATEAU = {
    "disjoint": lambda f: 1e-14,
    "feasibility": lambda f: np.where(f <= 0.0, np.inf, 0.0),
    "perp": lambda f: 1e-4 * np.minimum(np.maximum(f, 1e-10), 1.0),
}


@pytest.mark.parametrize("kind", ["ratio", "full_ratio", "disjoint", "feasibility", "perp"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_lockstep_pattern_search_matches_serial(field, p, kind):
    rng = np.random.default_rng([23, field == "complex", int(min(p, 4.0))])
    if kind == "full_ratio":
        # a full 2-dim span has pairs of equal moduli at positive distance,
        # where the ratio objective is -inf
        E = Subspace(Ambient(2, field, NormSpec(p)), np.eye(2))
    else:
        B = rng.standard_normal((2, 4))
        if field == "complex":
            B = B + 1j * rng.standard_normal((2, 4))
        E = Subspace(Ambient(4, field, NormSpec(p)), B)
    da = E._param_dim()
    X0 = rng.standard_normal((12 if kind == "full_ratio" else 6, 2 * da))
    project, plateau = S._normalize_halves, _PLATEAU.get(kind)
    if kind in ("ratio", "full_ratio"):
        objective, project = S._ratio_objective(E), S._normalize_joint
    elif kind == "feasibility":
        objective = S._feasibility_objective(E, 0.5)
    elif kind == "perp":
        objective = S._perp_objective(E, 0.1, 100.0)
    else:
        objective = S._disjoint_objective(E)

    X, fx, sweeps = S._pattern_search(objective, X0, da, 60, plateau=plateau,
                                      project=project)
    for i, x0 in enumerate(X0):
        x, f, s = serial_pattern_search(objective, x0, da, 60, project, plateau=plateau)
        assert np.array_equal(X[i], x), i
        assert fx[i] == f and sweeps[i] == s, (i, fx[i], f, sweeps[i], s)
    # each case reaches the stop it is there for
    if kind == "full_ratio":
        assert np.any((fx == -np.inf) & (sweeps < 60))
    elif kind == "feasibility":
        # the plateau test stops a restart once it is feasible
        assert np.any((fx == 0.0) & (sweeps < 39))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _frozen_subspace(name):
    if name == "full-real":
        return Subspace(Ambient(2, "real", NormSpec(np.inf)), np.eye(2))
    if name == "full-complex":
        return Subspace(Ambient(2, "complex", NormSpec(2.0)), np.eye(2))
    field, p = name.split("-")
    j = (1.0, 3.0, np.inf).index(float(p))
    rng = np.random.default_rng([77, j, field == "complex"])
    n = 4 if field == "real" else 5
    B = rng.standard_normal((2, n))
    if field == "complex":
        B = B + 1j * rng.standard_normal((2, n))
    return Subspace(Ambient(n, field, NormSpec(float(p))), B)


# outputs of the one-restart-at-a-time search, before the restarts were
# batched: c_lower, witness digest and budget_used of the estimate, then
# (perp, separation, disjointness, digest of u, v) of the disjoint and the
# perp (m = 0.1) witnesses; budget SearchBudget(4, 60, 2), seed 3.  The
# full-complex estimate's digest and sweeps come from the plain
# sum/difference warm start of the complex field.
_FROZEN = {
    "real-1.0": ("2.2133048125198203", "098af796000bc388", 300,
                 ("0.5128571236509346", "1.0963738981586366", "0.45181305093880636",
                  "5a79a415244d3f04"),
                 ("0.5412983302372323", "1.187971578265701", "0.4904927398988011",
                  "d09404f2d2d919ac")),
    "real-3.0": ("2.9996203571228923", "f8267be4d62896c3", 259,
                 ("0.5425873796743326", "1.2482073609566318", "0.3333755212140099",
                  "f3a0d6090c8fce1f"),
                 ("0.4813338892267722", "1.227218955385416", "0.4049242517854242",
                  "2e10ba0247b9a188")),
    "real-inf": ("2.737818173012819", "abc3b82fc7b24669", 237,
                 ("0.604362764423755", "1.2956240779838748", "0.3652543510220511",
                  "378242e859a448a8"),
                 ("0.5579464851792059", "1.1630937073120897", "0.4175576385424128",
                  "9ee5c4e38c15a76d")),
    "complex-1.0": ("22.497917303853484", "22434e282333836d", 300,
                    ("0.6656664237233767", "1.1770984643942115", "0.49883426436659567",
                     "28ddc049cd368f4d"),
                    ("0.0972254800829602", "0.2917729899422813", "0.8559393500074676",
                     "5ae87a70680840a4")),
    "complex-3.0": ("10.110705778689345", "a8e0f80b22cb9ce9", 300,
                    ("0.5613636767799678", "1.1735183202514745", "0.4094962482367059",
                     "3e26f8a1e7cbc042"),
                    ("0.10068590070293947", "0.10967507598012319", "0.9891652166150492",
                     "a9a72bdad3758c60")),
    "complex-inf": ("9.155205468492357", "7121049da98a7b79", 300,
                    ("0.4930851850145963", "0.9448349057326006", "0.2638990073330949",
                     "43ff250c32f5dcf0"),
                    ("0.09812664364545387", "0.10897455619881495", "1.0",
                     "beea86f9a9c691b3")),
    # unbounded: the ratio search stops after its first restart
    "full-real": ("inf", "d7f61b8f6792457b", 41,
                  ("0.0014366682765740082", "1.0000015777972433", "2.064015736914131e-06",
                   "18d0ca4038329ef4"),
                  ("1.5934923199687447e-05", "1.0000000001941056", "2.5392177737993716e-10",
                   "d69a2aa5d4b9d4e1")),
    "full-complex": ("inf", "8843e632a4f22090", 24,
                     ("0.00505543870261482", "1.4141953399508143", "2.144969425141149e-05",
                      "d0e8936c1c995a3b"),
                     ("1.0390730383119583e-08", "1.3105725025008337", "0.1487129507047426",
                      "a23f418171869312")),
}


def _search_outputs(E, budget=SearchBudget(4, 60, 2)):
    est = estimate_spr_constant(E, budget, seed=3)
    adp = search_almost_disjoint(E, budget, seed=3)
    per = search_perp_pair(E, 0.1, budget, seed=3)
    return (repr(est.c_lower), _digest(est.witness_f, est.witness_g),
            est.budget_used["sweeps"],
            *((repr(w.perp), repr(w.separation), repr(w.disjointness), _digest(w.u, w.v))
              for w in (adp, per)))


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_search_outputs_are_frozen(name):
    E = _frozen_subspace(name)
    assert _search_outputs(E) == _FROZEN[name]
    est = estimate_spr_constant(E, SearchBudget(4, 60, 2), seed=3)
    assert est.budget_used["restarts"] == 5
    assert est.unbounded == name.startswith("full")


def test_search_outputs_are_frozen_at_large_n():
    # a large complex span, every restart of each search in one lockstep
    # state; n mod 8 = 4, where OpenBLAS's kernel choice for the grid
    # products can move an ulp
    n = 1092
    rng = np.random.default_rng([77, n])
    B = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    E = Subspace(Ambient(n, "complex", NormSpec(np.inf)), B)
    assert _search_outputs(E, SearchBudget(4, 20, 2)) == (
        "2.064750100468107", "52ba58e53b3604c2", 100,
        ("0.5989608030333394", "1.1268414568936655", "0.5562925982452566",
         "584a020d794998fd"),
        ("0.1945930527496119", "0.10952201413704295", "1.0", "eb28e8d51a54d9e7"))


def test_check_pr_frozen_on_c4():
    # criterion 2's subspace, seed 0, a small budget
    u = np.array([1, 1, 1, 0], dtype=complex)
    w = np.array([1, 1j, 0, 1], dtype=complex)
    E = Subspace(Ambient(4, "complex", NormSpec(np.inf)), np.stack([u, w]))
    verdict = check_pr(E, budget=SearchBudget(6, 120, 3), seed=0)
    assert {m: repr(x) for m, x in verdict.min_perp_per_m.items()} == {
        0.05: "0.12567609399971807", 0.1: "0.18021053989519722",
        0.2: "0.20764119068495604"}


@pytest.mark.parametrize("name", ["real-3.0", "complex-1.0", "complex-inf", "full-complex"])
def test_searches_do_not_depend_on_scale(name):
    # a basis scaled by 2^+-120 finds the same constant, disjointness and
    # perpendicularity to 1e-12; one scaled by 1e+-35 once tripped the
    # absolute 1e-30 guards and now runs and agrees to rounding of its path
    E = _frozen_subspace(name)
    budget = SearchBudget(4, 60, 2)

    def measures(E):
        est = estimate_spr_constant(E, budget, seed=3)
        adp = search_almost_disjoint(E, budget, seed=3)
        per = search_perp_pair(E, 0.1, budget, seed=3)
        return [est.c_lower, adp.disjointness, per.perp]

    ref = measures(E)
    for s in (2.0**120, 2.0**-120):
        assert measures(Subspace(E.ambient, s * E.basis)) == pytest.approx(ref, rel=1e-12)
    for s in (1e35, 1e-35):
        assert measures(Subspace(E.ambient, s * E.basis)) == pytest.approx(
            ref, rel=1e-6, abs=1e-9)


def test_search_without_a_finite_restart_raises(monkeypatch):
    E = _frozen_subspace("real-1.0")
    monkeypatch.setattr(S, "_disjoint_objective",
                        lambda E: lambda X: np.full(X.shape[0], np.nan))
    with pytest.raises(InfeasibleError):
        search_almost_disjoint(E, SearchBudget(2, 5, 1), seed=0)


# -- separation scoring --------------------------------------------------------

def _candidate_rows(field, p, weighted, real_span=False, count=240):
    # normalized parameter rows of a seeded 2-dim span; in a complexified
    # real span, the second half of the rows have real coefficients
    rng = np.random.default_rng([41, field == "complex", int(min(p, 4.0)), weighted])
    n = 5
    B = np.stack([random_vec(rng, n, "real" if real_span else field) for _ in range(2)])
    w = rng.uniform(0.5, 2.0, n) if weighted else None
    E = Subspace(Ambient(n, field, NormSpec(p, w)), B)
    da = E._param_dim()
    X = rng.standard_normal((count, 2 * da))
    if real_span and field == "complex":
        X[count // 2:, 2:da] = X[count // 2:, da + 2:] = 0.0
    return E, S._normalize_halves(X, da)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_gap_skip_keeps_objectives_bitwise(field, p, weighted, monkeypatch):
    # a row whose modulus gap clears the target by 1e-12 skips the phase
    # grid; every objective value must still equal the full grid's.  Rows
    # of real vectors with one sign pattern have separation equal to their
    # gap, so the targets sit within 1e-13 of a row that the threshold
    # decides
    E, X = _candidate_rows(field, p, weighted, real_span=True)
    norm = E.ambient.norm
    if field == "complex":
        grid, refine = PM._SEP_GRID, PM._SEP_REFINE
    else:
        grid, refine = np.array([1.0, -1.0]), None

    def sep(U, V):
        return grid_separations(U, V, norm.of_rows, grid, refine)

    def pairs(X):
        return S._normalized_pairs(E, X)

    U, V, _ = pairs(X)
    gap = norm.of_rows(np.abs(np.abs(U) - np.abs(V)))
    scored = []
    sep_rows = S.row_separations
    monkeypatch.setattr(S, "row_separations",
                        lambda U, *a, **k: scored.append(U.shape[0]) or sep_rows(U, *a, **k))
    # targets at the gap of a row whose separation equals its gap, and
    # within 1e-13 on either side of it and of the skip threshold 1e-12
    # below it
    tight = np.flatnonzero(sep(U, V) == gap)
    assert tight.size
    g = float(gap[tight[tight.size // 2]])
    targets = [g] + [g + c + d for c in (0.0, -1e-12) for d in (-1e-13, -1e-14, 1e-14, 1e-13)]
    for m in targets:
        ref_perp, ref_feas = full_grid_objectives(pairs, norm.of_rows, sep, m, 100.0)
        for fn, ref in ((S._perp_objective(E, m, 100.0), ref_perp),
                        (S._feasibility_objective(E, m), ref_feas)):
            assert fn(X).tobytes() == ref(X).tobytes(), m
        near = int(np.sum(gap < m + 1e-12))
        assert scored[-2:] == [near, near] and 0 < near < X.shape[0]
        assert np.any(np.minimum(np.abs(gap - m), np.abs(gap - m - 1e-12)) <= 1.01e-13)


@pytest.mark.parametrize("weighted", [False, True])
def test_complex_euclidean_separation_is_the_closed_form(weighted):
    E, X = _candidate_rows("complex", 2.0, weighted)
    norm = E.ambient.norm
    U, V, _ = S._normalized_pairs(E, X)
    sep = PM.row_separations(U, V, norm, field="complex", refine=True)
    grid = grid_separations(U, V, norm.of_rows, PM._SEP_GRID, PM._SEP_REFINE)
    for u, v, s in zip(U, V, sep):
        exact = closed_form_l2_distance(u, v, norm.weights)
        assert abs(s - exact) <= 1e-15 * (norm(u) + norm(v))
    assert np.all(sep <= grid)


# -- objective batches ---------------------------------------------------------

def _objectives(E, m):
    return {"ratio": S._ratio_objective(E), "disjoint": S._disjoint_objective(E),
            "feasibility": S._feasibility_objective(E, m),
            "perp": S._perp_objective(E, m, 100.0), "perp0": S._perp_objective(E, 0.0, 100.0)}


def _batch_rows(field, p, weighted):
    # 30 candidate rows and a separation target at their median modulus
    # gap, so that some rows skip the separation and some score it
    E, X = _candidate_rows(field, p, weighted, count=30)
    U, V, _ = S._normalized_pairs(E, X)
    m = float(np.median(E.ambient.norm.of_rows(np.abs(np.abs(U) - np.abs(V)))))
    return E, X, m


@pytest.mark.parametrize("field, p, weighted",
                         [(f, p, False) for f in ("real", "complex")
                          for p in (1.0, 2.0, 3.0, np.inf)] + [("complex", 3.0, True)])
def test_objectives_do_not_depend_on_their_batch(field, p, weighted):
    # the lockstep's premise: each row's value has the same bits in the
    # whole batch, in a permuted batch and in sub-batches of two or more
    # rows.  Row 7 has a zero first half, so the batches that hold it drop
    # a pair and the others keep every pair
    E, X, m = _batch_rows(field, p, weighted)
    X[7, :E._param_dim()] = 0.0
    perm = np.random.default_rng(5).permutation(len(X))
    cuts = [0, 2, 5, 9, 14, 20, 30]
    for name, fn in _objectives(E, m).items():
        rows = S._normalize_joint(X, E._param_dim()) if name == "ratio" else X
        full = fn(rows)
        assert np.isnan(full[7]) == (name != "ratio"), name
        assert fn(rows[perm]).tobytes() == full[perm].tobytes(), name
        for a, b in zip(cuts, cuts[1:]):
            part = perm[a:b]
            assert fn(rows[part]).tobytes() == full[part].tobytes(), (name, a, b)


def test_objectives_norm_call_budget(monkeypatch):
    # of_rows calls of one objective call on a small complex p = 3 span:
    # u and v share one call; the modulus gaps share one with |u| and |v|
    # (ratio) or with the perp profiles (perp); the separation grid and its
    # refinement take one each.  Before the calls were shared the counts
    # were 4, 3, 5, 6 and 3
    E, X, m = _batch_rows("complex", 3.0, False)
    calls = [0]
    of_rows = NormSpec.of_rows

    def counted(self, x):
        calls[0] += 1
        return of_rows(self, x)

    monkeypatch.setattr(NormSpec, "of_rows", counted)
    budget = {"ratio": 2, "disjoint": 2, "feasibility": 4, "perp": 4, "perp0": 2}
    for name, fn in _objectives(E, m).items():
        calls[0] = 0
        fn(S._normalize_joint(X, E._param_dim()) if name == "ratio" else X)
        assert calls[0] <= budget[name], (name, calls[0])
