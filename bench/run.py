"""phaselat benchmark: closed-loop workloads through the public API.

    python3 bench/run.py --workload certify|analyze|distance \
        --seed N --seconds S --trace 0|1

One process runs one workload: one caller, one operation at a time, no
worker threads, BLAS and OpenMP pinned to one thread.  Inputs come from
--seed only.  Every operation's output is checked with numpy alone
outside the timed region.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
is the full report (environment, traffic mix, sample counts), which is
also written under .bench_out/ in the checkout.

--trace 0 times whole cycles of operations for S seconds of busy time (at
least MIN_OPS of them) and reports the end-to-end metrics declared in
BENCHMARK.json, with operation timings rescaled to the machine's nominal
speed (see _Speed).
--trace 1 runs a fixed number of operations, derived from S and the
workload's nominal rate so that the layer counts repeat exactly, first
untraced and then traced, and reports the per-layer metrics with the
tracing overhead.  A traced output that differs from its untraced twin
counts as a failure.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# before numpy loads: one BLAS / OpenMP thread per process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# every run completes at least this many operations: p90 then has more
# than 10 samples beyond it, and the quality metrics use a fixed prefix
MIN_OPS = 130
SETUP_REPEATS = 3
MAX_LOOP_S = 120.0     # wall time after which a timed run stops short of MIN_OPS
# median time of each speed kernel on the reference machine, and how often
# (wall seconds) the kernels are timed between operations; see _Speed
KERNEL_NOMINAL_S = (1.6e-3, 0.75e-3, 0.40e-3)
KERNEL_EVERY_S = 0.1


def _fail(msg, code=2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def _git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds >= 0:
        ap.error("--seed and --seconds must be nonnegative")
    return args


def main():
    args = _parse()
    if not os.path.isfile(os.path.join(SRC, "phaselat", "__init__.py")):
        _fail(f"phaselat sources not found under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, SRC)
    import phaselat
    import phaselat.cli  # noqa: F401  (analyze calls phaselat.cli.main)

    if not os.path.abspath(phaselat.__file__).startswith(SRC + os.sep):
        _fail(f"phaselat imported from {phaselat.__file__}, not from {SRC}")
    import_s = time.perf_counter() - T_START

    name = args.workload
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        report = _run(args, phaselat, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    if args.trace == 0:
        report["metrics"]["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    report["environment"] = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "seed": args.seed,
        "tracing": bool(args.trace),
        "seconds": args.seconds,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        val = report["metrics"].get(m["name"])
        if val is None or not np.isfinite(val):
            _fail(f"metric {m['name']} was not measured ({val})", code=3)
        metrics[m["name"]] = {"value": float(val), "unit": m["unit"]}
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    path = os.path.join(OUT_DIR, f"report-{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))


class _Speed:
    """How much slower than nominal the machine runs, sampled during a run.

    The reference machine (2 shared cores in a VM) slows down by itself:
    the same operations, repeated in one process, varied 9% (distance) to
    16% (analyze) in throughput from one 15-second stretch to the next.
    Three fixed kernels, none of them phaselat code, are timed every
    KERNEL_EVERY_S between operations: numpy calls on a tiny array, numpy
    arithmetic on a 256 x 64 complex array, and plain Python.  Throughput
    tracked their speed with correlation 0.87 to 0.98, and dividing the
    drift out left 3% to 7%.  The slowness is the mean over the kernels of
    median time / KERNEL_NOMINAL_S, 1 on an undisturbed reference machine.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((64, 8))
        self.rows = rng.standard_normal((256, 64)) + 1j * rng.standard_normal((256, 64))
        self.lam = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 256))[:, None]
        self.g = self.rows[0]
        self.samples = ([], [], [])
        self.last = -1.0

    def tick(self):
        if time.perf_counter() - self.last < KERNEL_EVERY_S:
            return
        for kernel, out in zip((self._small, self._rows, self._python), self.samples):
            t0 = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - t0)
        self.last = time.perf_counter()

    def _small(self):
        for _ in range(100):
            float(np.max(np.sum(np.abs(self.small * 1.0001) ** 3.0, axis=1)))

    def _rows(self):
        for _ in range(4):
            np.sum(np.abs(self.rows - self.lam * self.g) ** 3.0, axis=1)

    def _python(self):
        acc, table = 0, {}
        for i in range(3000):
            acc += (i * 7) % 13
        for i in range(500):
            table[str(i)] = i
        return acc

    def slowness(self):
        return float(np.mean([np.median(s) / nominal
                              for s, nominal in zip(self.samples, KERNEL_NOMINAL_S)]))


def _timed(wl, pool, indices, record, speed=None):
    """Run pool items in order; returns per-op seconds and records."""
    lat = []
    for i in indices:
        item = pool[i % len(pool)]
        if speed is not None:
            speed.tick()   # untimed, between operations
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception as exc:  # an operation that raises is a failed operation
            lat.append(time.perf_counter() - t0)
            record(i, None, f"{type(exc).__name__}: {exc}")
            continue
        lat.append(time.perf_counter() - t0)
        try:
            record(i, wl.capture(item, out), None)
        except Exception as exc:
            record(i, None, f"output unreadable: {type(exc).__name__}: {exc}")
    return lat


def _mix(pool, done):
    """Measured traffic shares over the operations that ran."""
    count = len(done)
    shares = {"field_p": {}, "n": {}, "weighted": 0.0, "closed_form": 0.0}
    for i in done:
        item = pool[i % len(pool)]
        key = f"{item['field']}.{workloads.p_label(item['p'])}"
        shares["field_p"][key] = shares["field_p"].get(key, 0) + 1
        for lo, hi in workloads.N_BUCKETS:
            if lo <= item["n"] <= hi:
                label = f"{lo}-{hi}"
                shares["n"][label] = shares["n"].get(label, 0) + 1
        shares["weighted"] += bool(item.get("weighted"))
        # the complex p = 2 distance takes the closed form, not the grid
        shares["closed_form"] += item["field"] == "complex" and item["p"] == 2.0
    for group in ("field_p", "n"):
        shares[group] = {k: v / count for k, v in sorted(shares[group].items())}
    shares["weighted"] /= count
    shares["closed_form"] /= count
    shares["operations"] = count
    return shares


class _Results:
    """Per-operation outcomes; each distinct pool item is checked once.

    A repeated item, including the traced rerun of an untraced item, must
    return exactly the output of its first run.
    """

    def __init__(self, wl, pool):
        self.wl, self.pool = wl, pool
        self.ops = []       # (op index, error message or None)
        self.first = {}     # pool index -> (record, fingerprint)

    def record(self, i, rec, error):
        if error is None:
            k = i % len(self.pool)
            fp = self.wl.fingerprint(rec)
            if k not in self.first:
                self.first[k] = (rec, fp)
            elif fp != self.first[k][1]:
                error = "output differs from an earlier run of the same input"
        self.ops.append((i, error))

    def finish(self):
        """Check every first output; returns (checked pairs, failed ops)."""
        bad, checked = {}, []
        for k, (rec, _) in sorted(self.first.items()):
            item = self.pool[k]
            checked.append((k, item, rec))
            problems = self.wl.check(item, rec)
            if problems:
                bad[k] = "; ".join(problems)
        failed = [(i, err or bad[i % len(self.pool)]) for i, err in self.ops
                  if err or i % len(self.pool) in bad]
        return checked, failed


def _run(args, pl, workdir, import_s):
    cls = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(pl, args.seed, workdir)
        pool = wl.make_pool()
        wl.capture(pool[0], wl.run(pool[0]))   # warm-up, untimed and unchecked
        setups.append(time.perf_counter() - t0)

    report = {"workload": args.workload, "metrics": {}, "import_s": import_s,
              "setup_repeats_s": setups}
    res = _Results(wl, pool)
    if args.trace == 0:
        # whole cycles only, so every run has exactly the workload's mix
        lat, busy = [], 0.0
        speed = _Speed()
        wall0 = time.perf_counter()
        while busy < args.seconds or len(lat) < MIN_OPS:
            if busy >= args.seconds and time.perf_counter() - wall0 > MAX_LOOP_S:
                break   # a very slow build still ends inside the 180 s limit
            start = len(lat)
            lat += _timed(wl, pool, range(start, start + wl.cycle), res.record, speed)
            busy += sum(lat[start:])
        per_op = np.array(lat) * 1e3
        p50, p90 = (float(v) for v in np.percentile(per_op, [50, 90]))
        raw = {"ops_per_s": len(lat) / busy, "op_p50_ms": p50, "op_p90_ms": p90}
        # operation timings are reported at the machine's nominal speed
        slow = speed.slowness()
        report["metrics"].update(
            setup_s=import_s + statistics.median(setups),
            ops_per_s=raw["ops_per_s"] * slow,
            op_p50_ms=p50 / slow,
            op_p90_ms=p90 / slow,
        )
        report["raw_timings"] = raw
        report["slowness"] = {"factor": slow, "kernel_samples": len(speed.samples[0]),
                              "kernel_median_s": [float(np.median(s)) for s in speed.samples]}
        report["samples"] = {"operations": len(lat), "busy_s": busy,
                             "beyond_p90": int(np.sum(per_op > p90))}
    else:
        count = wl.cycle * max(1, round(args.seconds * wl.nominal_rate / 2.0 / wl.cycle))
        t0 = time.perf_counter()
        plain_speed, traced_speed = _Speed(), _Speed()
        plain = _timed(wl, pool, range(count), res.record, plain_speed)
        tracer = Tracer()
        traced = []
        try:
            tracer.install()
            for i in range(count):
                tracer.op = i
                traced += _timed(wl, pool, [i], res.record, traced_speed)
            tracer.check_coverage(args.workload)
        except RuntimeError as exc:   # a binding the tracer can no longer reach
            _fail(str(exc), code=3)
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        # both passes at nominal machine speed, so drift between them is
        # not read as tracing overhead
        rate_plain = count / sum(plain) * plain_speed.slowness()
        rate_traced = count / sum(traced) * traced_speed.slowness()
        layers["trace.ops_per_s_untraced"] = rate_plain
        layers["trace.ops_per_s_traced"] = rate_traced
        layers["trace.overhead_frac"] = (rate_plain - rate_traced) / rate_plain
        report["metrics"].update(layers)
        report["samples"] = {"operations_per_pass": count, "spans": len(tracer.spans),
                             "passes_s": time.perf_counter() - t0}
        report["bindings_wrapped"] = tracer.bindings
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))

    checked, failed = res.finish()
    # quality over the first cycles holding MIN_OPS operations, which every
    # run completes, so it depends on the seed alone and not on the speed
    first = -(-MIN_OPS // wl.cycle) * wl.cycle
    quality = wl.quality([(item, rec) for k, item, rec in checked if k < first])
    report["quality_applies"] = sorted(quality)
    for key in ("fit_K_max", "c_lower_gmean", "perp_min_gmean"):
        # a quality metric of another workload is reported as 1, its neutral value
        quality.setdefault(key, 1.0)
    attempted = len(res.ops)
    if args.trace == 0:
        report["metrics"].update(quality)
        report["metrics"]["ok_frac"] = 1.0 - len(failed) / attempted
    report["attempted"] = attempted
    report["failed"] = len(failed)
    report["errors"] = failed[:50]
    report["mix"] = _mix(pool, [i for i, _ in res.ops])
    return report


if __name__ == "__main__":
    main()
