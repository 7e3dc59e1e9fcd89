"""Command line front end for subspace phase-retrieval analysis.

Problems arrive as JSON files: {"ambient_dim": n, "field": "real"|"complex",
"norm": {"p": number or "inf", "weights": [...]}, "basis": [vectors]} and,
for pair commands, "pair": [vector, vector].  A complex entry is a
two-element array [re, im]; a real vector is a plain array of numbers.

Exit codes: 0 when the command ran and every asserted inequality held,
1 when a wrapped operation rejected its input or an assertion failed,
2 for usage and parse errors.  Reports are human-readable by default and
deterministic JSON with --json (infinities appear as the string "inf";
the wall_time_s field is the only nondeterministic entry).
"""

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import builders
from .hilbert import PreconditionError, reduce_pair
from .lattice import (
    Ambient,
    NormSpec,
    PhaseLatError,
    abs_prod_sqrt,
    as_vector,
    meet,
    modulus,
    perp_profile,
)
from .phase_metric import spr_ratio, unimodular_distance
from .search import (
    SearchBudget,
    Subspace,
    check_pr,
    estimate_spr_constant,
    search_almost_disjoint,
    search_perp_pair,
)

__all__ = ["main"]


class ProblemError(Exception):
    """Invalid problem file or argument combination (exit code 2)."""


def _num(x):
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _scalar_out(z, field):
    if field == "complex":
        z = complex(z)
        return [_num(z.real), _num(z.imag)]
    return _num(np.real(z))


def _vec_out(v, field):
    return [_scalar_out(z, field) for z in np.asarray(v)]


def _entry_in(e, field, where):
    if field == "complex":
        if isinstance(e, (int, float)) and not isinstance(e, bool):
            return complex(e)
        if (
            isinstance(e, list)
            and len(e) == 2
            and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in e)
        ):
            return complex(e[0], e[1])
        raise ProblemError(f"{where}: complex entries are numbers or [re, im] pairs")
    if isinstance(e, (int, float)) and not isinstance(e, bool):
        return float(e)
    raise ProblemError(f"{where}: real entries must be numbers")


def _vector_in(obj, field, dim, where):
    if not isinstance(obj, list):
        raise ProblemError(f"{where}: expected an array")
    try:
        vec = [_entry_in(e, field, f"{where}[{i}]") for i, e in enumerate(obj)]
    except OverflowError:
        raise ProblemError(f"{where}: entries must be finite")
    if dim is not None and len(vec) != dim:
        raise ProblemError(f"{where}: expected {dim} entries, got {len(vec)}")
    out = np.array(vec, dtype=complex if field == "complex" else float)
    # json.load reads NaN, Infinity and out-of-range exponents
    if not np.all(np.isfinite(out)):
        raise ProblemError(f"{where}: entries must be finite")
    return out


def _load_problem(path, need_basis=False, need_pair=False):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ProblemError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    if not isinstance(doc, dict):
        raise ProblemError(f"{path}: top level must be an object")

    dim = doc.get("ambient_dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ProblemError(f"{path}: ambient_dim must be a positive integer")
    field = doc.get("field")
    if field not in ("real", "complex"):
        raise ProblemError(f'{path}: field must be "real" or "complex"')

    norm_doc = doc.get("norm")
    if not isinstance(norm_doc, dict):
        raise ProblemError(f"{path}: norm must be an object with a p entry")
    p = norm_doc.get("p")
    if p == "inf":
        p = np.inf
    elif not (isinstance(p, (int, float)) and not isinstance(p, bool)):
        raise ProblemError(f'{path}: norm.p must be a number or "inf"')
    weights = norm_doc.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or len(weights) != dim:
            raise ProblemError(f"{path}: norm.weights must list {dim} numbers")
        weights = np.array(weights, dtype=float)
    try:
        norm = NormSpec(p=p, weights=weights)
    except ValueError as exc:
        raise ProblemError(f"{path}: norm: {exc}")
    ambient = Ambient(dim=dim, field=field, norm=norm)

    basis = None
    if "basis" in doc or need_basis:
        rows = doc.get("basis")
        if not isinstance(rows, list) or not rows:
            raise ProblemError(f"{path}: basis must be a nonempty list of vectors")
        basis = np.stack(
            [_vector_in(r, field, dim, f"{path}: basis[{i}]") for i, r in enumerate(rows)]
        )

    pair = None
    if "pair" in doc or need_pair:
        rows = doc.get("pair")
        if not isinstance(rows, list) or len(rows) != 2:
            raise ProblemError(f"{path}: pair must list exactly two vectors")
        pair = tuple(
            _vector_in(r, field, dim, f"{path}: pair[{i}]") for i, r in enumerate(rows)
        )
    return ambient, basis, pair


def _budget(args):
    for flag, value in (("--restarts", args.restarts), ("--iters", args.iters)):
        if value < 1:
            raise ProblemError(f"{flag} must be at least 1, got {value}")
    return SearchBudget(restarts=args.restarts, iterations_per_restart=args.iters)


def _subspace(ambient, basis):
    try:
        return Subspace(ambient=ambient, basis=basis)
    except ValueError as exc:
        raise ProblemError(f"basis: {exc}")


def _ratio_payload(rep):
    return {
        "numerator": _num(rep.numerator),
        "denominator": _num(rep.denominator),
        "ratio": _num(rep.ratio),
        "flag": rep.flag,
        "lambda_star": _scalar_out(rep.lambda_star, "complex"),
    }


def _witness_payload(wit, field):
    return {
        "u": _vec_out(wit.u, field),
        "v": _vec_out(wit.v, field),
        "separation": _num(wit.separation),
        "disjointness": _num(wit.disjointness),
        "perp": _num(wit.perp),
        "marginal": wit.marginal,
    }


def _human_lines(payload, indent=0):
    pad = "  " * indent
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            yield f"{pad}{key}:\n"
            yield from _human_lines(val, indent + 1)
        else:
            yield f"{pad}{key}: {val}\n"


def _report(args, command, payload, t0, ok=True):
    payload = dict(payload, command=command, ok=bool(ok),
                   wall_time_s=round(time.perf_counter() - t0, 6))
    if "seed" in args:
        payload["seed"] = args.seed
    if args.json:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(_human_lines(payload))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def cmd_analyze(args):
    t0 = time.perf_counter()
    ambient, basis, _ = _load_problem(args.file, need_basis=True)
    E = _subspace(ambient, basis)
    budget = _budget(args)
    est = estimate_spr_constant(E, budget=budget, seed=args.seed)
    adp = search_almost_disjoint(E, budget=budget, seed=args.seed)
    field = ambient.field

    md = adp.disjointness
    if est.unbounded:
        one_over_c = 0.0
        consistency = "ok" if md < 0.1 else "inconclusive"
    else:
        one_over_c = 1.0 / est.c_lower
        # product inequalities bound 1/c between md/4 and 4 md; a finite
        # search can land outside only by undershooting one side
        consistency = (
            "ok" if 0.25 * md - 1e-9 <= one_over_c <= 4.0 * md + 1e-9
            else "inconclusive"
        )
    payload = {
        "spr": {
            "c_lower": _num(est.c_lower),
            "unbounded": est.unbounded,
            "witness_f": _vec_out(est.witness_f, field),
            "witness_g": _vec_out(est.witness_g, field),
            "ratio_report": _ratio_payload(est.report),
            "budget_used": est.budget_used,
        },
        "disjoint_witness": _witness_payload(adp, field),
        "cross_check": {
            "one_over_c_lower": _num(one_over_c),
            "min_disjointness": _num(md),
            "consistency": consistency,
        },
    }
    return _report(args, "analyze", payload, t0)


def cmd_search_disjoint(args):
    t0 = time.perf_counter()
    ambient, basis, _ = _load_problem(args.file, need_basis=True)
    E = _subspace(ambient, basis)
    wit = search_almost_disjoint(E, budget=_budget(args), seed=args.seed)
    return _report(
        args, "search-disjoint", {"witness": _witness_payload(wit, ambient.field)}, t0
    )


def cmd_search_perp(args):
    t0 = time.perf_counter()
    if not args.m >= 0:
        raise ProblemError(f"--m must be nonnegative, got {args.m}")
    ambient, basis, _ = _load_problem(args.file, need_basis=True)
    E = _subspace(ambient, basis)
    wit = search_perp_pair(E, args.m, budget=_budget(args), seed=args.seed)
    payload = {"m": _num(args.m), "witness": _witness_payload(wit, ambient.field)}
    return _report(args, "search-perp", payload, t0)


def cmd_reduce(args):
    t0 = time.perf_counter()
    ambient, _, pair = _load_problem(args.file, need_pair=True)
    f, g = pair
    norm, field = ambient.norm, ambient.field
    H, red = reduce_pair(f, g, norm, field=field)
    f1, g1 = red.f_prime, red.g_prime

    K = H.distortion_K
    tol = args.tol
    sep_before = unimodular_distance(f, g, norm, field=field).distance
    sep_after = unimodular_distance(f1, g1, norm, field=field).distance
    gap_before = norm(modulus(f) - modulus(g))
    gap_after = norm(modulus(f1) - modulus(g1))
    hyp = math.hypot(norm(f1), norm(g1))
    checks = {
        "distance_chain": sep_before <= K * sep_after + tol,
        "norm_chain": hyp <= K * sep_after + tol,
        "gap_dominated": gap_after <= gap_before + 1e-12,
    }
    payload = {
        "distortion_K": _num(K),
        "gram": [_vec_out(row, "complex") for row in H.gram],
        "mu": _scalar_out(red.mu, "complex"),
        "R": _num(red.R),
        "f_prime": _vec_out(f1, field),
        "g_prime": _vec_out(g1, field),
        "inner_residual": _num(abs(H.inner(f1, g1))),
        "separation_before": _num(sep_before),
        "separation_after": _num(sep_after),
        "gap_before": _num(gap_before),
        "gap_after": _num(gap_after),
        "checks": checks,
    }
    return _report(args, "reduce", payload, t0, ok=all(checks.values()))


def _normalized(x, norm):
    s = norm(x)
    if s == 0.0:
        raise PreconditionError("pair vectors must be nonzero to normalize")
    return x / s


def cmd_build(args):
    t0 = time.perf_counter()
    ambient, _, pair = _load_problem(args.file, need_pair=True)
    x, y = pair
    norm, field = ambient.norm, ambient.field

    if args.builder == "adp2spr":
        u = _normalized(x, norm)
        v = _normalized(y, norm)
        res = builders.adp_to_spr_violation(u, v, norm, field=field)
        eps_p = norm(meet(modulus(u), modulus(v)))
        rep = spr_ratio(res.f_prime, res.g_prime, norm, field=field)
        payload = {
            "eps_prime": _num(eps_p),
            "f_prime": _vec_out(res.f_prime, field),
            "g_prime": _vec_out(res.g_prime, field),
            "certified_ratio": _num(res.certified_ratio),
            "ratio_report": _ratio_payload(rep),
        }
    elif args.builder == "spr2perp":
        wit = builders.spr_failure_to_perp_pair(
            x, y, norm, args.m, args.eps, field=field
        )
        payload = {
            "m": _num(args.m),
            "eps": _num(args.eps),
            "witness": _witness_payload(wit, field),
        }
    elif args.builder == "perp2spr":
        u = _normalized(x, norm)
        v = _normalized(y, norm)
        res = builders.perp_pair_to_spr_failure(u, v, norm, args.m, args.C, field=field)
        payload = {
            "m": _num(args.m),
            "C": _num(args.C),
            "f": _vec_out(res.f, field),
            "g": _vec_out(res.g, field),
            "measured_ratio": _num(res.measured_ratio),
        }
    else:
        if field != "complex":
            raise ProblemError("pr-equiv requires a complex problem file")
        verdict = builders.complex_pr_equivalences(x, y, atol=args.tol)
        payload = {
            "same_modulus_pair": verdict.same_modulus_pair,
            "sum_diff_modulus": verdict.sum_diff_modulus,
            "perpendicular": verdict.perpendicular,
            "pythagorean": verdict.pythagorean,
            "fails_pr": verdict.perpendicular,
        }
    return _report(args, f"build {args.builder}", payload, t0)


def _verify_identities(n, samples, rng):
    worst = {"prod_split": 0.0, "scalar_homog": 0.0, "sum_diff": 0.0,
             "monotone": 0.0}
    for _ in range(samples):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        af, ag = modulus(f), modulus(g)
        scale = max(1.0, float(np.max(af)), float(np.max(ag)))

        r = abs_prod_sqrt(f, g) - np.sqrt(np.maximum(af, ag)) * np.sqrt(
            np.minimum(af, ag)
        )
        worst["prod_split"] = max(worst["prod_split"], float(np.max(np.abs(r))) / scale)

        lam, mu = rng.standard_normal(2)
        r = perp_profile(lam * f, mu * g) - math.sqrt(abs(lam) * abs(mu)) * perp_profile(f, g)
        worst["scalar_homog"] = max(
            worst["scalar_homog"], float(np.max(np.abs(r))) / scale
        )

        lhs = 2.0 * perp_profile(f, g)
        s, d = modulus(f + g), modulus(f - g)
        r1 = lhs - np.sqrt(np.abs(s * s - d * d))
        r2 = lhs - np.sqrt(s + d) * np.sqrt(np.abs(s - d))
        worst["sum_diff"] = max(
            worst["sum_diff"],
            float(np.max(np.abs(r1))) / scale,
            float(np.max(np.abs(r2))) / scale,
        )

        for p in (1.0, 2.0, 3.0, np.inf):
            nrm = NormSpec(p=p)
            x = af * rng.uniform(0.0, 1.0, n)
            gap = nrm(x) - nrm(af)
            worst["monotone"] = max(worst["monotone"], gap / max(nrm(af), 1e-30))
    checks = {
        "prod_split": worst["prod_split"] <= 1e-12,
        "scalar_homog": worst["scalar_homog"] <= 1e-12,
        "sum_diff": worst["sum_diff"] <= 1e-10,
        "monotone": worst["monotone"] <= 1e-12,
    }
    return {"max_residuals": {k: _num(v) for k, v in worst.items()},
            "checks": checks}, all(checks.values())


def _verify_real_spr(n, samples, rng):
    # product inequalities between overlap and functional-calculus product
    worst_lower, worst_upper = 0.0, 0.0
    for _ in range(samples):
        p = rng.choice([1.0, 2.0, 3.0, np.inf])
        nrm = NormSpec(p=p)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        u /= nrm(u)
        v /= nrm(v)
        overlap = nrm(meet(modulus(u), modulus(v)))
        prod = nrm(abs_prod_sqrt(u, v))
        worst_lower = max(worst_lower, overlap - prod)
        worst_upper = max(worst_upper, prod - math.sqrt(2.0 * overlap))
    checks = {
        "overlap_below_product": worst_lower <= 1e-12,
        "product_below_sqrt": worst_upper <= 1e-12,
    }
    return {
        "max_violation_lower": _num(worst_lower),
        "max_violation_upper": _num(worst_upper),
        "checks": checks,
    }, all(checks.values())


def _verify_complex_spr(n, samples, rng):
    norm = NormSpec(p=np.inf)
    worst_gap, worst_dist, count = 0.0, math.inf, 0
    for _ in range(samples):
        half = n // 2
        u = np.zeros(n, dtype=complex)
        v = np.zeros(n, dtype=complex)
        u[:half] = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        v[half:] = rng.standard_normal(n - half) + 1j * rng.standard_normal(n - half)
        u /= norm(u)
        v /= norm(v)
        t = rng.uniform(0.01, 0.3)
        bridge = rng.integers(0, n)
        u[bridge] += t * (1.0 + 0.0j)
        v[bridge] += t * (1.0 + 0.0j)
        u /= norm(u)
        v /= norm(v)
        eps_p = norm(meet(modulus(u), modulus(v)))
        if not 0.0 < eps_p < 0.5:
            continue
        res = builders.adp_to_spr_violation(u, v, norm)
        rep = spr_ratio(res.f_prime, res.g_prime, norm)
        worst_gap = max(worst_gap, rep.denominator - 2.0 * eps_p)
        worst_dist = min(worst_dist, rep.numerator)
        count += 1
    checks = {
        "gap_bounded": worst_gap <= 1e-8,
        # the John bound: sup-norm fits are exact, so only rounding is left
        "distance_floor": worst_dist >= math.sqrt(2.0) - 1e-9,
        "ran": count > 0,
    }
    return {
        "pairs_certified": count,
        "max_gap_excess": _num(worst_gap),
        "min_phase_distance": _num(worst_dist),
        "checks": checks,
    }, all(checks.values())


def cmd_verify(args):
    t0 = time.perf_counter()
    if args.dim < 1 or args.samples < 1:
        raise ProblemError(
            f"--dim and --samples must be at least 1, got {args.dim} and {args.samples}")
    # complex-spr splits each pair's support, so it samples at least C^3
    n = max(args.dim, 3) if args.suite == "complex-spr" else args.dim
    suite = {"identities": _verify_identities, "real-spr": _verify_real_spr,
             "complex-spr": _verify_complex_spr}[args.suite]
    payload, ok = suite(n, args.samples, np.random.default_rng(args.seed))
    payload["suite"] = args.suite
    payload["samples"] = args.samples
    payload["dim"] = n
    return _report(args, f"verify {args.suite}", payload, t0, ok=ok)


def cmd_example(args):
    t0 = time.perf_counter()
    delta = args.delta
    if not 0.0 < delta < 1.0:
        raise ProblemError(f"delta must lie in (0, 1), got {delta}")
    norm = NormSpec(p=np.inf)
    u = np.array([1, 1, 1, 0], dtype=complex)
    w = np.array([1, 1j, 0, 1], dtype=complex)
    A = 1.0 / (1.0 + delta)
    v = A * (1j * u + delta * w)
    un = u / norm(u)
    vn = v / norm(v)

    perp = norm(perp_profile(un, vn))
    analytic_perp = math.sqrt(A * delta)
    bound = 2.0 * A * delta
    measured = unimodular_distance(un, vn, norm).distance

    ambient = Ambient(dim=4, field="complex", norm=norm)
    E = Subspace(ambient=ambient, basis=np.stack([u, w]))
    verdict = check_pr(E, budget=_budget(args), seed=args.seed)

    checks = {
        "perp_matches_analytic": abs(perp - analytic_perp) <= 1e-12,
        "distance_within_bound": measured <= bound + 1e-9,
        "passes_pr": verdict.verdict == "passes_up_to_budget",
    }
    payload = {
        "delta": _num(delta),
        "u": _vec_out(un, "complex"),
        "v": _vec_out(vn, "complex"),
        "perp": _num(perp),
        "analytic_perp": _num(analytic_perp),
        "distance_bound": _num(bound),
        "measured_distance": _num(measured),
        "pr_verdict": verdict.verdict,
        "min_perp_per_m": {str(m): _num(p) for m, p in verdict.min_perp_per_m.items()},
        "checks": checks,
    }
    return _report(args, "example c4", payload, t0, ok=all(checks.values()))


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    ap = argparse.ArgumentParser(
        prog="phaselat",
        description="Numerical phase retrieval analysis on coordinate Banach lattices",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    flags = {"restarts": {"type": int, "default": 12},
             "iters": {"type": int, "default": 250},
             "seed": {"type": int, "default": 0},
             "tol": {"type": float, "default": 1e-8}}
    search = ("restarts", "iters", "seed")

    def common(p, *names, file_arg=True):
        if file_arg:
            p.add_argument("file", help="JSON problem file")
        for name in names:
            p.add_argument(f"--{name}", **flags[name])
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None, help="write the report to PATH")

    p = sub.add_parser("analyze", help="SPR estimate plus disjointness cross-check")
    common(p, *search)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("search-disjoint", help="most disjoint normalized pair")
    common(p, *search)
    p.set_defaults(fn=cmd_search_disjoint)

    p = sub.add_parser("search-perp", help="least perpendicularity defect at separation >= m")
    common(p, *search)
    p.add_argument("--m", type=float, default=0.0)
    p.set_defaults(fn=cmd_search_perp)

    p = sub.add_parser("reduce", help="fit a Hilbert norm and orthogonally reduce the pair")
    common(p, "tol")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("build", help="run a witness construction on the file's pair")
    p.add_argument("builder", choices=["adp2spr", "spr2perp", "perp2spr", "pr-equiv"])
    common(p, "tol")
    p.add_argument("--m", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--C", type=float, default=100.0)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="run a property sweep")
    p.add_argument("suite", choices=["identities", "real-spr", "complex-spr"])
    common(p, "seed", file_arg=False)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("example", help="built-in gallery examples")
    p.add_argument("name", choices=["c4"])
    common(p, *search, file_arg=False)
    p.add_argument("--delta", type=float, default=1.0 / 99.0)
    p.set_defaults(fn=cmd_example)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhaseLatError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
