"""Span tracer that wraps phaselat's public functions from the outside.

Each wrapped call records one span: name, start, end, parent span, the
benchmark operation it belongs to, and one measured value (rows for
``of_rows``, nfev for a scipy polish, sweeps for a search, a flag for a
rejected fit or an infeasible search).  Spans stay in memory until the
run ends.  A function is wrapped at every place it is bound, because
``builders``, ``cli`` and ``search`` import names with ``from .x import y``
and patching only the defining module would miss those calls.
"""

import functools
import gzip
import json
import math
import sys
import time

import numpy as np

# public functions: span name (or a namer taking (args, kwargs)) by module
_FUNCTIONS = {
    "phaselat.phase_metric": ["unimodular_distance", "spr_ratio"],
    "phaselat.search": ["estimate_spr_constant", "search_almost_disjoint",
                        "search_perp_pair", "check_pr"],
    "phaselat.hilbert": ["fit_hilbert_norm", "align_pair", "nonneg_rotation",
                         "orthogonal_reduce"],
    "phaselat.builders": ["adp_to_spr_violation", "spr_failure_to_perp_pair",
                          "perp_pair_to_spr_failure", "complex_pr_equivalences"],
    "phaselat.cli": ["main"],
}
# scipy optimizers bound in one phaselat module, counted as that module's polish
_POLISH = {
    "phaselat.hilbert": ["minimize", "minimize_scalar"],
    "phaselat.phase_metric": ["minimize_scalar"],
}
_LAYER = {"phaselat.phase_metric": "phase_metric", "phaselat.search": "search",
          "phaselat.hilbert": "hilbert", "phaselat.builders": "builders",
          "phaselat.cli": "cli"}

FIELDS = ("real", "complex")
PS = ("1.0", "2.0", "3.0", "inf")

# span names each workload is predicted to reach; a traced run that leaves
# one of them empty fails instead of reporting a 0 ms layer
COVERAGE = {
    "certify": (
        ["lattice.of_rows", "lattice.norm", "phase_metric.spr_ratio",
         "phase_metric.unimodular_distance.grid",
         "phase_metric.unimodular_distance.closed",
         "phase_metric.unimodular_distance.real", "phase_metric.polish",
         "hilbert.polish", "hilbert.align_pair", "hilbert.nonneg_rotation",
         "hilbert.orthogonal_reduce", "builders.adp_to_spr_violation",
         "builders.spr_failure_to_perp_pair", "builders.perp_pair_to_spr_failure",
         "builders.complex_pr_equivalences"]
        + [f"hilbert.fit_hilbert_norm.{f}.{p}" for f in FIELDS for p in PS]
    ),
    "analyze": [
        "lattice.of_rows", "lattice.norm", "phase_metric.spr_ratio",
        "phase_metric.unimodular_distance.grid",
        "phase_metric.unimodular_distance.real", "phase_metric.polish",
        "search.estimate_spr_constant", "search.search_almost_disjoint",
        "search.search_perp_pair", "search.check_pr", "cli.main",
    ],
    "distance": [
        "lattice.of_rows", "lattice.norm", "phase_metric.spr_ratio",
        "phase_metric.unimodular_distance.grid",
        "phase_metric.unimodular_distance.closed", "phase_metric.polish",
    ],
}


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _p_label(norm):
    p = float(norm.p)
    return "inf" if math.isinf(p) else repr(p)


def _distance_branch(args, kwargs):
    # unimodular_distance(f, g, norm, tol, field, grid, method)
    if _arg(args, kwargs, 4, "field", "complex") == "real":
        return "phase_metric.unimodular_distance.real"
    norm = _arg(args, kwargs, 2, "norm", None)
    if float(norm.p) == 2.0 and _arg(args, kwargs, 6, "method", "auto") == "auto":
        return "phase_metric.unimodular_distance.closed"
    return "phase_metric.unimodular_distance.grid"


def _rows_shape(args):
    # NormSpec.of_rows(self, X): rows, row length and bytes per entry
    X = args[1]
    return (X.shape[0], X.shape[1], X.dtype.itemsize)


def _fit_name(args, kwargs):
    # fit_hilbert_norm(f, g, norm, field)
    field = _arg(args, kwargs, 3, "field", "complex")
    return f"hilbert.fit_hilbert_norm.{field}.{_p_label(_arg(args, kwargs, 2, 'norm', None))}"


class Tracer:
    """Records spans from wrapped phaselat callables while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.op = -1
        self.bindings = {}

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, name, before=None, after=None, error=None):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            value = before(args) if before is not None else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                stack.pop()
                flag = error(exc) if error is not None else 0
                spans[idx] = (label, t0, t1, parent, tracer.op, flag)
                raise
            t1 = time.perf_counter()
            stack.pop()
            if after is not None:
                value = after(out)
            spans[idx] = (label, t0, t1, parent, tracer.op, value)
            return out

        return wrapper

    def _replace_everywhere(self, target, wrapper, key):
        count = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "phaselat" or modname.startswith("phaselat.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is target:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, target))
                    count += 1
        self.bindings[key] = count
        if count == 0:
            raise RuntimeError(f"no binding of {key} found to wrap")

    def install(self):
        import phaselat.hilbert
        import phaselat.lattice
        import phaselat.search

        infeasible = phaselat.search.InfeasibleError
        rejected = phaselat.hilbert.FitDistortionError
        for modname, names in _FUNCTIONS.items():
            mod = sys.modules[modname]
            for fname in names:
                target = getattr(mod, fname)
                kw = {}
                if fname == "unimodular_distance":
                    label = _distance_branch
                elif fname == "fit_hilbert_norm":
                    label = _fit_name
                    kw["error"] = lambda exc: int(isinstance(exc, rejected))
                else:
                    label = f"{_LAYER[modname]}.{fname}"
                if fname == "estimate_spr_constant":
                    kw["after"] = lambda est: int(est.budget_used.get("sweeps", 0))
                elif fname == "search_perp_pair":
                    kw["after"] = lambda wit: 1
                    kw["error"] = lambda exc: -1 if isinstance(exc, infeasible) else 0
                self._replace_everywhere(target, self._wrap(target, label, **kw),
                                         f"{modname}.{fname}")
        for modname, names in _POLISH.items():
            mod = sys.modules[modname]
            for fname in names:
                target = getattr(mod, fname)
                wrapper = self._wrap(target, f"{_LAYER[modname]}.polish",
                                     after=lambda res: int(getattr(res, "nfev", 0)))
                setattr(mod, fname, wrapper)
                self._undo.append((mod, fname, target))
                self.bindings[f"{modname}.{fname}"] = 1
        cls = phaselat.lattice.NormSpec
        for attr, label, before in (
            ("of_rows", "lattice.of_rows", _rows_shape),
            ("__call__", "lattice.norm", None),
        ):
            target = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(target, label, before=before))
            self._undo.append((cls, attr, target))
            self.bindings[f"NormSpec.{attr}"] = 1

    def uninstall(self):
        for owner, attr, target in reversed(self._undo):
            setattr(owner, attr, target)
        self._undo.clear()

    # -- analysis -------------------------------------------------------
    def check_coverage(self, workload):
        seen = {s[0] for s in self.spans}
        missing = [n for n in COVERAGE[workload] if n not in seen]
        if missing:
            raise RuntimeError(
                f"tracer recorded no span for {', '.join(missing)} on {workload}; "
                "a wrapped binding is no longer reached"
            )

    def metrics(self):
        """Per-layer metrics aggregated over every recorded span."""
        spans = self.spans
        start = np.array([s[1] for s in spans])
        dur = np.array([s[2] for s in spans]) - start
        parent = np.array([s[3] for s in spans], dtype=np.int64)
        child = np.zeros(len(spans))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_ms = (dur - child) * 1e3
        names = [s[0] for s in spans]

        calls, selfsum, incl = {}, {}, {}
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            selfsum[name] = selfsum.get(name, 0.0) + self_ms[i]
            incl[name] = incl.get(name, 0.0) + dur[i] * 1e3

        # rows and bytes per of_rows call, and whether a search span encloses it
        under_search = np.zeros(len(spans), dtype=bool)
        search_ids = {i for i, n in enumerate(names) if n.startswith("search.")}
        for i in range(len(spans)):
            par = parent[i]
            under_search[i] = par >= 0 and (par in search_ids or under_search[par])
        rows = bytes_ = search_rows = 0
        sweeps = feasible = attempted = rejected = 0
        nfev = {"hilbert.polish": 0, "phase_metric.polish": 0}
        for i, s in enumerate(spans):
            name, val = s[0], s[5]
            if name == "lattice.of_rows":
                r = int(val[0])
                rows += r
                bytes_ += r * int(val[1]) * int(val[2])
                if under_search[i]:
                    search_rows += r
            elif name in nfev:
                nfev[name] += val
            elif name == "search.estimate_spr_constant":
                sweeps += val
            elif name == "search.search_perp_pair" and val != 0:
                attempted += 1
                feasible += val > 0
            elif name.startswith("hilbert.fit_hilbert_norm."):
                rejected += val

        def g(d, k):
            return d.get(k, 0)

        out = {
            "lattice.of_rows.calls": g(calls, "lattice.of_rows"),
            "lattice.of_rows.rows": rows,
            "lattice.of_rows.self_ms": g(selfsum, "lattice.of_rows"),
            "lattice.of_rows.bytes_computed": bytes_,
            "lattice.norm.calls": g(calls, "lattice.norm"),
            "lattice.norm.self_ms": g(selfsum, "lattice.norm"),
        }
        for br in ("grid", "closed", "real"):
            key = f"phase_metric.unimodular_distance.{br}"
            out[f"{key}.calls"] = g(calls, key)
            out[f"{key}.self_ms"] = g(selfsum, key)
        out["phase_metric.spr_ratio.self_ms"] = g(selfsum, "phase_metric.spr_ratio")
        for layer in ("phase_metric", "hilbert"):
            key = f"{layer}.polish"
            out[f"{key}.calls"] = g(calls, key)
            out[f"{key}.nfev"] = nfev[key]
            out[f"{key}.self_ms"] = g(selfsum, key)
        for fn in ("estimate_spr_constant", "search_almost_disjoint",
                   "search_perp_pair", "check_pr"):
            out[f"search.{fn}.calls"] = g(calls, f"search.{fn}")
            out[f"search.{fn}.self_ms"] = g(selfsum, f"search.{fn}")
        out["search.of_rows_rows"] = search_rows
        out["search.sweeps"] = sweeps
        out["search.feasible_ratio"] = feasible / attempted if attempted else 0.0
        fit_self = 0.0
        for field in FIELDS:
            for p in PS:
                key = f"hilbert.fit_hilbert_norm.{field}.{p}"
                c = g(calls, key)
                out[f"{key}.calls"] = c
                out[f"{key}.ms_per_call"] = g(incl, key) / c if c else 0.0
                fit_self += g(selfsum, key)
        out["hilbert.fit_hilbert_norm.self_ms"] = fit_self
        out["hilbert.fit_rejected"] = rejected
        for fn in ("align_pair", "nonneg_rotation", "orthogonal_reduce"):
            out[f"hilbert.{fn}.self_ms"] = g(selfsum, f"hilbert.{fn}")
        for fn in ("adp_to_spr_violation", "spr_failure_to_perp_pair",
                   "perp_pair_to_spr_failure", "complex_pr_equivalences"):
            out[f"builders.{fn}.calls"] = g(calls, f"builders.{fn}")
            out[f"builders.{fn}.self_ms"] = g(selfsum, f"builders.{fn}")
        out["cli.main.calls"] = g(calls, "cli.main")
        out["cli.main.self_ms"] = g(selfsum, "cli.main")
        return out

    def write(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "op", "value"]) + "\n")
            for s in self.spans:
                val = list(s[5]) if isinstance(s[5], tuple) else s[5]
                fh.write(json.dumps([s[0], s[1], s[2], s[3], s[4], val]) + "\n")
