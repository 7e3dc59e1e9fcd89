"""The benchmark's three closed-loop workloads.

Every workload builds a pool of seeded inputs during set-up; operation i
runs pool item i modulo the pool size.  ``run`` is the timed call into
phaselat's public API.  ``capture`` turns its return value into a plain
record, ``check`` re-derives what the library promised with numpy alone
(bench/reference.py), and ``fingerprint`` lets a repeated item be checked
by equality with its first, fully checked output.  Operations come in
fixed cycles, and runs measure whole cycles, so every run has the same
mix whatever the seed; the seed only draws the vectors.
"""

import json
import math
import os

import numpy as np

import reference as ref

P_VALUES = (1.0, 2.0, 3.0, math.inf)
# n buckets reported in the traffic mix
N_BUCKETS = ((2, 15), (16, 127), (128, 1023), (1024, 4096))


def p_label(p):
    return "none" if p is None else ("inf" if math.isinf(p) else repr(float(p)))


def _cvec(rng, n, field):
    x = rng.standard_normal(n)
    return x + 1j * rng.standard_normal(n) if field == "complex" else x


def _vec_in(obj, field):
    if field == "complex":
        return np.array([complex(a, b) for a, b in obj])
    return np.array(obj, dtype=float)


def _same(*pairs):
    return all(np.array_equal(a, b) for a, b in pairs)


class Workload:
    """One workload: pool construction, the timed call, and its checks.

    ``cycle`` is the number of operations in one cycle of the mix, and
    ``nominal_rate`` the operations per second the workload sustained on
    the reference machine (2 cores, Python 3.11, numpy 2.4), which sizes a
    traced run.
    """

    name = ""
    cycle = 1
    nominal_rate = 1.0

    def __init__(self, pl, seed, workdir):
        self.pl = pl
        self.seed = seed
        self.workdir = workdir

    def make_pool(self):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def capture(self, item, out):
        return out

    def check(self, item, rec):
        """Failure messages for one output; empty when every promise held."""
        raise NotImplementedError

    def fingerprint(self, rec):
        raise NotImplementedError

    def quality(self, pairs):
        """Quality metrics over (item, record) pairs of checked operations."""
        return {}


# --------------------------------------------------------------------------
# certify: builder chains over all 8 (field, p) combinations

_COMBOS = (("real", 1.0), ("complex", 3.0), ("real", 2.0), ("complex", math.inf),
           ("real", 3.0), ("complex", 1.0), ("real", math.inf), ("complex", 2.0))
_CHAINS = ("adp2spr", "fit_reduce", "spr2perp", "perp2spr")
_MC = ((0.05, 10.0), (0.1, 100.0), (0.2, 10.0), (0.05, 100.0), (0.1, 10.0), (0.2, 100.0))
_PR_VARIANTS = ("random", "disjoint", "real_pair", "random")


def _delta_of_m(m):
    return 1.0 / math.sqrt(1.0 + (1.0 + 0.5 * m) ** 2)


def _bridged(rng, p, field, amp):
    # disjoint supports on 4 coordinates plus one shared coordinate that
    # carries the overlap, as in the near-disjoint acceptance criterion
    perm = rng.permutation(5)
    ku = 1 + int(rng.integers(0, 3))
    u = np.zeros(5, dtype=complex if field == "complex" else float)
    v = np.zeros_like(u)
    u[perm[:ku]] = _cvec(rng, ku, field)
    v[perm[ku:4]] = _cvec(rng, 4 - ku, field)
    u /= ref.norm(u, p)
    v /= ref.norm(v, p)
    if field == "complex":
        u[perm[4]] = amp * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        v[perm[4]] = amp * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    else:
        u[perm[4]] = amp * rng.choice((-1.0, 1.0))
        v[perm[4]] = amp * rng.choice((-1.0, 1.0))
    return u / ref.norm(u, p), v / ref.norm(v, p)


def _disjoint(rng, n, p, field):
    perm = rng.permutation(n)
    k = 1 + int(rng.integers(0, n - 1))
    u = np.zeros(n, dtype=complex if field == "complex" else float)
    v = np.zeros_like(u)
    u[perm[:k]] = _cvec(rng, k, field)
    v[perm[k:]] = _cvec(rng, n - k, field)
    return u / ref.norm(u, p), v / ref.norm(v, p)


class Certify(Workload):
    name = "certify"
    cycle = 45
    nominal_rate = 5.0

    def make_pool(self, cycles=10):
        # four rounds run each chain once per combination; a fifth round of
        # the cheap perp2spr chain puts the median among the cheap real
        # chains and p90 among the complex p = inf chains, both dense
        # latency groups, instead of on the edge between two groups
        order = []
        for r in range(5):
            for c, (field, p) in enumerate(_COMBOS):
                order.append((_CHAINS[(r + c) % 4] if r < 4 else "perp2spr", field, p))
            order.append(("pr_equiv", "complex", None))
        pool = []
        for i in range(cycles * len(order)):
            chain, field, p = order[i % len(order)]
            rng = np.random.default_rng([self.seed, i])
            item = {"chain": chain, "field": field, "p": p, "weighted": False}
            if p is not None:
                item["norm"] = self.pl.NormSpec(p=p)
            if chain == "adp2spr":
                item["u"], item["v"] = _bridged(rng, p, field, rng.uniform(0.0101, 0.3))
            elif chain == "fit_reduce":
                n = 2 + (i // len(order) + i) % 5
                item["f"], item["g"] = _cvec(rng, n, field), _cvec(rng, n, field)
            elif chain == "spr2perp":
                u, v = _disjoint(rng, 4 + i % 3, p, field)
                item.update(f=u + v, g=u - v, m=0.1, eps=0.05)
            elif chain == "perp2spr":
                m, C = _MC[(i // 9) % len(_MC)]
                amp = 0.5 * _delta_of_m(m) * m / (2.0 * C)
                item["u"], item["v"] = _bridged(rng, p, field, amp)
                item.update(m=m, C=C)
            else:
                variant = _PR_VARIANTS[(i // 9) % 4]
                n = 3 + i % 4
                if variant == "random":
                    f, g = _cvec(rng, n, "complex"), _cvec(rng, n, "complex")
                elif variant == "disjoint":
                    f, g = _disjoint(rng, n, 2.0, "complex")
                else:
                    f = rng.standard_normal(n).astype(complex)
                    g = 1j * rng.standard_normal(n)
                item.update(f=f, g=g, variant=variant)
            item["n"] = (item["u"] if "u" in item else item["f"]).shape[0]
            pool.append(item)
        return pool

    def run(self, item):
        pl, chain, field = self.pl, item["chain"], item["field"]
        if chain == "adp2spr":
            return pl.adp_to_spr_violation(item["u"], item["v"], item["norm"], field=field)
        if chain == "fit_reduce":
            H = pl.fit_hilbert_norm(item["f"], item["g"], item["norm"], field=field)
            al = pl.align_pair(item["f"], item["g"], H)
            return H, al, pl.orthogonal_reduce(al.f, al.g, H, mu=al.mu)
        if chain == "spr2perp":
            return pl.spr_failure_to_perp_pair(item["f"], item["g"], item["norm"],
                                               item["m"], item["eps"], field=field)
        if chain == "perp2spr":
            return pl.perp_pair_to_spr_failure(item["u"], item["v"], item["norm"],
                                               item["m"], item["C"], field=field)
        return pl.complex_pr_equivalences(item["f"], item["g"], atol=1e-9)

    def capture(self, item, out):
        if item["chain"] == "fit_reduce":
            H, al, red = out
            return {"gram": H.gram, "K": H.distortion_K, "af": al.f, "ag": al.g,
                    "f1": red.f_prime, "g1": red.g_prime, "R": red.R}
        return out

    def fingerprint(self, rec):
        if isinstance(rec, dict):
            return tuple((k, v.tobytes() if isinstance(v, np.ndarray) else v)
                         for k, v in sorted(rec.items()))
        return tuple(x.tobytes() if isinstance(x, np.ndarray) else x
                     for x in (rec if isinstance(rec, tuple) else
                               (rec.u, rec.v, rec.separation, rec.perp)))

    def check(self, item, rec):
        chain, field, p = item["chain"], item["field"], item["p"]
        bad = []
        if chain == "adp2spr":
            u, v = item["u"], item["v"]
            eps = ref.norm(np.minimum(np.abs(u), np.abs(v)), p)
            f1, g1, cert = rec.f_prime, rec.g_prime, rec.certified_ratio
            den = ref.norm(np.abs(f1) - np.abs(g1), p)
            num = ref.phase_distance(f1, g1, p, field=field)
            floor = 2.0 / ref.FIT_DISTORTION_LIMIT * (1.0 - 1e-4)
            if not den <= 2.0 * eps + 1e-8:
                bad.append(f"modulus gap {den:.3e} above 2 eps' = {2 * eps:.3e}")
            if not num >= floor:
                bad.append(f"phase distance {num:.9f} below {floor:.9f}")
            if math.isinf(cert):
                if den > 1e-9:
                    bad.append(f"infinite ratio with modulus gap {den:.3e}")
            elif not (cert >= floor / (2.0 * eps + 1e-8) * (1.0 - 1e-4)
                      and abs(cert - num / den) <= 1e-6 * cert):
                bad.append(f"certified ratio {cert:.6e} against measured {num / den:.6e}")
        elif chain == "fit_reduce":
            f, g = item["f"], item["g"]
            K = ref.hilbert_distortion(f, g, rec["gram"], p, field)
            if not max(K, rec["K"]) <= ref.FIT_DISTORTION_LIMIT:
                bad.append(f"distortion {max(K, rec['K']):.6f} above the fit limit")
            G = rec["gram"]
            c1, c2 = ref.coeffs(f, g, rec["f1"]), ref.coeffs(f, g, rec["g1"])
            ip = abs(complex(np.vdot(c2, G @ c1)))
            h1 = math.sqrt(max(np.vdot(c1, G @ c1).real, 0.0))
            h2 = math.sqrt(max(np.vdot(c2, G @ c2).real, 0.0))
            if not ip < 1e-10 * h1 * h2:
                bad.append(f"inner product {ip:.3e} after reduction")
            af, ag, f1, g1 = rec["af"], rec["ag"], rec["f1"], rec["g1"]
            if np.any(np.abs(np.abs(f1) - np.abs(g1)) > np.abs(np.abs(af) - np.abs(ag)) + 1e-12):
                bad.append("modulus gap grew under reduction")
            t = rec["R"] * (af + ag)
            if not _same((f1, af - t), (g1, ag - t)):
                bad.append("reduced pair is not (f - R(f+g), g - R(f+g))")
            drift = np.abs((f1 - g1) - (af - ag))
            caps = 4.0 * np.spacing(np.maximum.reduce(
                [np.abs(f1), np.abs(g1), np.abs(af), np.abs(ag)]).real + 1e-300)
            if np.any(drift > caps):
                bad.append("difference f - g not preserved")
        elif chain == "spr2perp":
            u, v = rec.u, rec.v
            if abs(ref.norm(u, p) - 1.0) > 1e-10 or abs(ref.norm(v, p) - 1.0) > 1e-10:
                bad.append("witness is not normalized")
            sep = ref.phase_distance(u, v, p, field=field)
            prp = ref.perp(u, v, p)
            if not sep >= item["m"] - 1e-8:
                bad.append(f"separation {sep:.9f} below m = {item['m']}")
            if not prp < item["eps"]:
                bad.append(f"perp {prp:.3e} not below {item['eps']}")
            if abs(prp - rec.perp) > 1e-12 or rec.separation > ref.grid_min(u, v, p, field) + 1e-12:
                bad.append("reported measures disagree with the witness vectors")
        elif chain == "perp2spr":
            u, v, m, C = item["u"], item["v"], item["m"], item["C"]
            if not _same((rec.f, u + v), (rec.g, u - v)):
                bad.append("output is not (u + v, u - v)")
            den = ref.norm(np.abs(np.abs(rec.f) - np.abs(rec.g)), p)
            num = ref.phase_distance(rec.f, rec.g, p, field=field)
            if not den <= 2.0 * ref.perp(u, v, p) + 1e-12:
                bad.append(f"modulus gap {den:.3e} above 2 perp")
            if not (num > C * den and rec.measured_ratio > C):
                bad.append(f"ratio {rec.measured_ratio:.6e} not above C = {C}")
        else:
            f, g = item["f"], item["g"]
            s = max(1.0, float(np.max(np.abs(f))), float(np.max(np.abs(g))))
            su, dv = np.abs(f + g), np.abs(f - g)
            b1 = bool(np.all(np.abs(su - dv) <= 1e-9 * s))
            b3 = bool(np.all(np.abs((f * np.conj(g)).real) <= 1e-9 * s * s))
            b4 = bool(np.all(np.abs(su - np.sqrt(np.abs(f) ** 2 + np.abs(g) ** 2)) <= 1e-9 * s))
            # |f + g| = |f - g| is symmetric, so the first two flags coincide
            expect = item["variant"] != "random"
            if tuple(rec) != (b1, b1, b3, b4) or b1 != expect:
                bad.append(f"verdict {tuple(rec)} against {(b1, b1, b3, b4)}")
        return bad

    def quality(self, pairs):
        ks = [ref.hilbert_distortion(item["f"], item["g"], rec["gram"], item["p"], item["field"])
              for item, rec in pairs if item["chain"] == "fit_reduce"]
        return {"fit_K_max": max(ks)} if ks else {}


# --------------------------------------------------------------------------
# analyze: CLI commands run in-process on seeded subspace files

UNBOUNDED_CAP = 1e9   # search.UNBOUNDED_RATIO, the library's own cap
PERP_FLOOR = 1e-6     # check_pr's default eps_fail: below it a witness decides
BUDGET = ("--restarts", "2", "--iters", "40")
SEARCH_M = 0.1


# (field, k, p index) per file of a cycle: fields alternate and p rotates,
# so the slow complex p = 3 and p = inf fits are spread over the cycle; a
# cheap real file comes first because item 0 is the set-up's warm-up
_ANALYZE_ORDER = tuple((f, k, pi) for k, ps in ((2, (2, 0, 3, 1)), (3, (0, 2, 1, 3)))
                       for pi in ps for f in ("real", "complex"))


class Analyze(Workload):
    name = "analyze"
    cycle = 30
    nominal_rate = 4.0

    def make_pool(self, cycles=12):
        # n per (field, k) and p index; complex k = 3 sits at n = 8, where
        # the constant is finite, since below it c_lower swings by decades
        n_of = {("real", 2): (4, 5, 6, 7), ("real", 3): (5, 6, 7, 8),
                ("complex", 2): (4, 5, 6, 7), ("complex", 3): (8, 8, 8, 8)}
        rng = np.random.default_rng([self.seed, 0])
        self.out_path = os.path.join(self.workdir, "report.json")
        pool = []
        for c in range(cycles):
            for j, (field, k, pi) in enumerate(_ANALYZE_ORDER):
                p, n = P_VALUES[pi], n_of[field, k][pi]
                B = np.stack([_cvec(rng, n, field) for _ in range(k)])
                doc = {"ambient_dim": n, "field": field,
                       "norm": {"p": "inf" if math.isinf(p) else p},
                       "basis": ([[[z.real, z.imag] for z in row] for row in B]
                                 if field == "complex" else B.tolist())}
                path = os.path.join(self.workdir, f"problem-{c}-{j}.json")
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                base = {"path": path, "field": field, "p": p, "n": n, "k": k,
                        "weighted": False}
                # real subspaces mostly alternate between the two commands
                # (two of eight run both), and example c4 runs four times a
                # cycle: the 30 operations then put the median inside the
                # complex search-perp group and p90 inside the complex p = 3
                # analyze pair, not on the edge between two latency groups
                if field == "complex" or (j // 2 + c) % 8 < 2:
                    commands = ("analyze", "search-perp")
                else:
                    commands = (("analyze", "search-perp")[(c + j // 2) % 2],)
                for command in commands:
                    pool.append(dict(base, command=command,
                                     cli_seed=int(rng.integers(0, 2**31 - 1))))
                if j % 4 == 3:
                    pool.append({"command": "example", "field": "complex", "p": math.inf,
                                 "n": 4, "k": 2, "weighted": False,
                                 "cli_seed": int(rng.integers(0, 2**31 - 1))})
        return pool

    def argv(self, item):
        tail = [*BUDGET, "--seed", str(item["cli_seed"]), "--json", "--out", self.out_path]
        if item["command"] == "example":
            return ["example", "c4", *tail]
        if item["command"] == "search-perp":
            return ["search-perp", item["path"], "--m", repr(SEARCH_M), *tail]
        return ["analyze", item["path"], *tail]

    def run(self, item):
        return self.pl.cli.main(self.argv(item))

    def capture(self, item, out):
        with open(self.out_path) as fh:
            doc = json.load(fh)
        os.remove(self.out_path)
        doc.pop("wall_time_s", None)
        return {"rc": out, "doc": doc}

    def fingerprint(self, rec):
        return json.dumps(rec, sort_keys=True)

    def check(self, item, rec):
        doc, bad = rec["doc"], []
        if rec["rc"] != 0 or doc.get("ok") is not True:
            bad.append(f"exit code {rec['rc']}, ok {doc.get('ok')}")
        field, p = item["field"], item["p"]
        if item["command"] == "example":
            if not doc.get("checks") or not all(doc["checks"].values()):
                bad.append(f"example checks {doc.get('checks')}")
            return bad
        if item["command"] == "search-perp":
            wit = doc["witness"]
            u, v = _vec_in(wit["u"], field), _vec_in(wit["v"], field)
            if not wit["separation"] >= SEARCH_M - 1e-6:
                bad.append(f"witness separation {wit['separation']} below m")
            if abs(ref.perp(u, v, p) - wit["perp"]) > 1e-12:
                bad.append("witness perp disagrees with its vectors")
            return bad
        c = doc["spr"]["c_lower"]
        if not (c == "inf" or c >= 1.0):
            bad.append(f"c_lower {c} below the colinear ratio 1")
        wit = doc["disjoint_witness"]
        u, v = _vec_in(wit["u"], field), _vec_in(wit["v"], field)
        if abs(ref.norm(np.minimum(np.abs(u), np.abs(v)), p) - wit["disjointness"]) > 1e-12:
            bad.append("disjointness disagrees with the witness vectors")
        return bad

    def quality(self, pairs):
        cs, perps = [], []
        for item, rec in pairs:
            doc = rec["doc"]
            if item["command"] == "analyze" and "spr" in doc:
                c = doc["spr"]["c_lower"]
                cs.append(UNBOUNDED_CAP if c == "inf" or doc["spr"]["unbounded"]
                          else min(float(c), UNBOUNDED_CAP))
            elif item["command"] == "search-perp" and "witness" in doc:
                perps.append(max(float(doc["witness"]["perp"]), PERP_FLOOR))
        out = {}
        if cs:
            out["c_lower_gmean"] = float(np.exp(np.mean(np.log(cs))))
        if perps:
            out["perp_min_gmean"] = float(np.exp(np.mean(np.log(perps))))
        return out


# --------------------------------------------------------------------------
# distance: spr_ratio on complex pairs, n log-spread from 2 to 2048

DIST_N = tuple(int(round(2.0 * 1024.0 ** (j / 11.0))) for j in range(12))


class Distance(Workload):
    name = "distance"
    cycle = 96
    nominal_rate = 250.0

    def make_pool(self):
        rng = np.random.default_rng([self.seed, 0])
        pool = []
        for n in DIST_N:
            for weighted in (False, True):
                for p in P_VALUES:
                    w = rng.uniform(0.5, 2.0, n) if weighted else None
                    f, g = _cvec(rng, n, "complex"), _cvec(rng, n, "complex")
                    pool.append({"f": f, "g": g, "p": p, "w": w, "n": n,
                                 "field": "complex", "weighted": weighted,
                                 "norm": self.pl.NormSpec(p=p, weights=w)})
        # interleave sizes, so neighbouring operations differ in n and the
        # warm-up item 0 is a small pair
        return [pool[(j * 37) % len(pool)] for j in range(len(pool))]

    def run(self, item):
        return self.pl.spr_ratio(item["f"], item["g"], item["norm"])

    def fingerprint(self, rec):
        return (rec.numerator, rec.denominator, repr(rec.ratio), rec.flag, rec.lambda_star)

    def check(self, item, rec):
        f, g, p, w = item["f"], item["g"], item["p"], item["w"]
        bad = []
        d, lam = rec.numerator, complex(rec.lambda_star)
        scale = max(1.0, d)
        if p == 2.0:
            closed = ref.closed_form_l2(f, g, w)
            if abs(d - closed) > 1e-8:
                bad.append(f"distance {d!r} against closed form {closed!r}")
        else:
            grid = ref.grid_min(f, g, p, "complex", w)
            if d > grid + 1e-12:
                bad.append(f"distance {d!r} above the grid minimum {grid!r}")
            if abs(d - ref.norm(f - lam * g, p, w)) > 1e-12 * scale:
                bad.append("distance is not norm(f - lambda* g)")
        if abs(abs(lam) - 1.0) > 1e-12:
            bad.append(f"lambda* {lam} is not unimodular")
        den = ref.norm(np.abs(f) - np.abs(g), p, w)
        if abs(rec.denominator - den) > 1e-12 * max(1.0, den):
            bad.append(f"denominator {rec.denominator!r} against {den!r}")
        elif rec.flag is None and abs(rec.ratio - d / rec.denominator) > 1e-12 * rec.ratio:
            bad.append("ratio is not numerator / denominator")
        return bad


WORKLOADS = {w.name: w for w in (Certify, Analyze, Distance)}
