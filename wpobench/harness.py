"""Workload process of the wpolab benchmark (started by run.py).

    harness.py --workload W --seed S --seconds T --trace 0|1 --workdir DIR
    harness.py --workload W --seed S --workdir DIR --setup-only

Items come in rounds of fixed composition; round r is generated from its
own seeded stream, so a seed fixes every input whatever the run length.
The untraced run measures whole rounds until T seconds have passed and
prints the end-to-end metrics; the traced run replays a fixed number of
rounds, each item once untraced and once through the tracer, and prints
the per-layer metrics.  Either way the last stdout line is a JSON object
(see ``main``).

Every timing is divided by a pure-Python reference loop that runs
interleaved with the items, in this process and on the same clocks, and
multiplied by REF_NOMINAL_S: times read as seconds on a machine where the
reference loop takes exactly REF_NOMINAL_S.  The raw seconds stay in the
run record.
"""

import time

_WALL0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from types import SimpleNamespace  # noqa: E402

REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.05  # reference sample cadence inside the measured loop
REF_SETUP_SAMPLES = 7
MAX_EXTRA_S = 60.0  # hard stop past --seconds, whatever the round state

# Fixed per workload: rounds that must complete (peak RSS is read after
# them), the percentile band whose mean is item_tail_ms (the upper edge
# leaves at least ten items beyond it in those rounds), and traced rounds.
PROFILE = {
    "algebra": {"min_rounds": 30, "tail": (75, 95), "trace_rounds": 25},
    "audit": {"min_rounds": 10, "tail": (81, 91), "trace_rounds": 6},
    "export": {"min_rounds": 6, "tail": (70, 90), "trace_rounds": 3},
    "verify": {"min_rounds": 7, "tail": (71, 91), "trace_rounds": 2},
}


def reference_loop() -> int:
    """Fixed pure-Python work with no wpolab code in it: it builds, hashes,
    compares and sorts small nested tuples, the operation mix of the CNF
    layers."""
    seen = {}
    prev = ()
    acc = 0
    for i in range(1800):
        t = ((i % 7, ((i % 5, ()),)), ((i % 3, (i % 2,)), i % 11))
        seen[t] = seen.get(t, 0) + 1
        if t < prev:
            acc += 1
        prev = t
        acc += sorted((i % 13, i % 7, i % 5, i % 3))[1]
    return acc + len(seen)


class RefClock:
    """Reference-loop samples (time taken, wall and CPU seconds)."""

    def __init__(self):
        self.at, self.wall, self.cpu = [], [], []
        self.last = -1.0

    def sample(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        w1, c1 = time.perf_counter(), time.process_time()
        self.at.append(w0)
        self.wall.append(w1 - w0)
        self.cpu.append(c1 - c0)
        self.last = w1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def local(self, t: float) -> tuple:
        """Median reference (wall, cpu) of the four samples nearest t."""
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - 2, len(self.at) - 4))
        return (statistics.median(self.wall[lo:lo + 4]),
                statistics.median(self.cpu[lo:lo + 4]))


class Plain:
    """Direct calls: the untraced path."""

    def __call__(self, key, fn, *args, **kw):
        return fn(*args, **kw)

    def count(self, key, n) -> None:
        pass


class Tracer(Plain):
    """Times each call the benchmark makes into the library under a
    ``layer.function`` key (CPU seconds, callees included) and keeps
    exact counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.cpu = defaultdict(float)
        self.counts = defaultdict(int)

    def __call__(self, key, fn, *args, **kw):
        c0 = time.process_time()
        try:
            return fn(*args, **kw)
        finally:
            self.cpu[key] += time.process_time() - c0
            self.calls[key] += 1

    def count(self, key, n) -> None:
        self.counts[key] += n


def children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def round_rng(seed: int, r: int) -> random.Random:
    return random.Random(seed * 1_000_003 + r)


def timed(runner, item, call):
    """Run one item: (outcome, error text, start, wall s, CPU s incl. children)."""
    w0, c0, k0 = time.perf_counter(), time.process_time(), children_cpu()
    try:
        out, err = runner(item, call), None
    except Exception as exc:  # a raising item is a counted failure
        out, err = None, "%s: %s" % (type(exc).__name__, exc)
    w1, c1, k1 = time.perf_counter(), time.process_time(), children_cpu()
    return out, err, w0, w1 - w0, (c1 - c0) + (k1 - k0)


class Verdicts:
    """Failed items, split into counted known defects and unexpected ones."""

    def __init__(self, wl):
        self.wl = wl
        self.failed = 0
        self.known = 0
        self.probes = 0  # items a known defect can hit
        self.unexpected = []

    def judge(self, item, out, err) -> None:
        self.probes += self.wl.defect_probe(item)
        problems = [err] if err else self.wl.check(item, out)
        if not problems:
            return
        self.failed += 1
        if self.wl.known_defect(item, err or out, problems):
            self.known += 1
        elif len(self.unexpected) < 20:
            self.unexpected.append({"item": item, "problems": problems})


def band_mean(xs, lo_pct: float, hi_pct: float) -> float:
    """Mean of the values ranked between two percentiles.  One order
    statistic jumps between item classes from seed to seed; a band of
    them does not."""
    xs = sorted(xs)
    lo = int(len(xs) * lo_pct / 100.0)
    hi = max(lo + 1, int(len(xs) * hi_pct / 100.0))
    return statistics.fmean(xs[lo:hi])


def per_layer_names() -> list:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def power_block_info() -> tuple:
    """(hits, misses, size) of the class-level cache on
    Enumeration._power_block; zeros once that cache no longer exists."""
    from wpolab.constructions import Enumeration

    info = getattr(getattr(Enumeration, "_power_block", None), "cache_info", None)
    if info is None:
        return (0, 0, 0)
    ci = info()
    return (ci.hits, ci.misses, ci.currsize)


def load_workload(name: str) -> SimpleNamespace:
    """The hooks of module wl_<name>; prepare, run_traced, defect_probe and
    known_defect are optional."""
    mod = importlib.import_module("wl_" + name)
    return SimpleNamespace(
        make_round=mod.make_round, warmup_items=mod.warmup_items,
        run=mod.run, check=mod.check,
        prepare=getattr(mod, "prepare", lambda seed, workdir: None),
        run_traced=getattr(mod, "run_traced", mod.run),
        defect_probe=getattr(mod, "defect_probe", lambda item: False),
        known_defect=getattr(mod, "known_defect", lambda item, outcome, problems: False),
    )


def setup(args):
    """Imports, input generation, file writes and warm-up."""
    wl = load_workload(args.workload)
    wl.prepare(args.seed, args.workdir)
    first = wl.make_round(round_rng(args.seed, 0), args.workdir, 0)
    # warm-up inputs do not depend on the seed, so set-up work is fixed
    for item in wl.warmup_items(random.Random(0), args.workdir):
        wl.run(item, Plain())
    return wl, first


def context(ref: RefClock) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_raw_s": statistics.median(ref.wall),
        "ref_raw_cpu_s": statistics.median(ref.cpu),
        "ref_samples": len(ref.wall),
    }


def measure(args, wl, first, ref: RefClock) -> tuple:
    prof = PROFILE[args.workload]
    verdicts = Verdicts(wl)
    items = []  # (start, wall s, CPU s)
    rss_first = None
    t_start = time.perf_counter()
    r = 0
    plain = Plain()
    ref.sample()
    while True:
        batch = first if r == 0 else wl.make_round(round_rng(args.seed, r), args.workdir, r)
        for item in batch:
            ref.maybe_sample()
            out, err, at, wall, cpu = timed(wl.run, item, plain)
            items.append((at, wall, cpu))
            verdicts.judge(item, out, err)
        r += 1
        if r == prof["min_rounds"]:
            rss_first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - t_start
        if (r >= prof["min_rounds"] and elapsed >= args.seconds) or (
                elapsed >= args.seconds + MAX_EXTRA_S):
            break
    ref.sample()
    if rss_first is None:
        rss_first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    nwall, ncpu = [], []
    for at, wall, cpu in items:
        rw, rc = ref.local(at)
        nwall.append(wall * REF_NOMINAL_S / rw)
        ncpu.append(cpu * REF_NOMINAL_S / rc)
    raw_wall = [x[1] for x in items]
    tail = prof["tail"]
    values = {
        "items_per_s": len(items) / sum(nwall),
        "item_p50_ms": 1000 * band_mean(nwall, 25, 75),
        "item_tail_ms": 1000 * band_mean(nwall, *tail),
        "cpu_ms_per_item": 1000 * sum(ncpu) / len(items),
        "peak_rss_mb": rss_first,
    }
    raw = {
        "items_per_s": len(items) / sum(raw_wall),
        "item_p50_ms": 1000 * band_mean(raw_wall, 25, 75),
        "item_tail_ms": 1000 * band_mean(raw_wall, *tail),
        "cpu_ms_per_item": 1000 * sum(x[2] for x in items) / len(items),
        "measured_s": time.perf_counter() - t_start,
        "item_wall_s": sum(raw_wall),
        "ref_share": sum(ref.wall) / (time.perf_counter() - t_start),
        "peak_rss_mb_end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "rounds": r,
        "items": len(items),
        "tail_band_percentiles": tail,
        "items_beyond_tail": len(items) - int(len(items) * tail[1] / 100.0),
        "peak_rss_after_rounds": prof["min_rounds"],
        "raw": raw,
        "item_ms": [round(1000 * w, 3) for w in nwall],
        "item_raw_ms": [round(1000 * w, 3) for w in raw_wall],
    }
    return values, record, verdicts, len(items)


def measure_traced(args, wl, first, ref: RefClock) -> tuple:
    prof = PROFILE[args.workload]
    verdicts = Verdicts(wl)
    tracer, plain = Tracer(), Plain()
    side_wall = {"plain": 0.0, "traced": 0.0}
    side_raw = {"plain": 0.0, "traced": 0.0}
    cache = [0, 0, 0]  # power-block (hits, misses, entries) added by traced calls
    attempted = 0
    ref.sample()
    for r in range(prof["trace_rounds"]):
        batch = first if r == 0 else wl.make_round(round_rng(args.seed, r), args.workdir, r)
        for i, item in enumerate(batch):
            outs = {}
            for side in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
                ref.maybe_sample()
                if side == "plain":
                    out, err, at, wall, _ = timed(wl.run, item, plain)
                else:
                    before = power_block_info()
                    out, err, at, wall, _ = timed(wl.run_traced, item, tracer)
                    after = power_block_info()
                    cache = [c + b - a for c, a, b in zip(cache, before, after)]
                rw, _ = ref.local(at)
                side_wall[side] += wall * REF_NOMINAL_S / rw
                side_raw[side] += wall
                outs[side] = (out, err)
            attempted += 1
            (out, err), (tout, terr) = outs["plain"], outs["traced"]
            verdicts.judge(item, out, err)
            if not err and not terr and tout != out:
                verdicts.failed += 1
                verdicts.unexpected.append({"item": item, "problems": ["traced replay differs"]})
    ref.sample()

    cpu_scale = REF_NOMINAL_S / statistics.median(ref.cpu)
    values, raw = {}, {}
    for name in per_layer_names():
        if name == "trace.overhead_frac":
            values[name] = side_wall["traced"] / side_wall["plain"] - 1.0
        elif name.startswith("constructions.power_block."):
            hits, misses, entries = cache
            values[name] = (entries if name.endswith(".entries")
                            else hits / (hits + misses) if hits + misses else 0.0)
        elif name.endswith(".cpu_s") or name.endswith(".calls"):
            key, kind = name.rsplit(".", 1)
            table = tracer.cpu if kind == "cpu_s" else tracer.calls
            # "layer.cpu_s" sums the layer; "layer.function.cpu_s" is one key
            total = sum(v for k, v in table.items()
                        if k == key or ("." not in key and k.startswith(key + ".")))
            if kind == "cpu_s":
                raw[name] = total
                total *= cpu_scale
            values[name] = total
        else:
            values[name] = tracer.counts.get(name, 0)
    record = {
        "rounds": prof["trace_rounds"],
        "items": attempted,
        "raw": dict(raw, traced_wall_s=side_raw["traced"], plain_wall_s=side_raw["plain"]),
        "calls": dict(tracer.calls),
    }
    return values, record, verdicts, attempted


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PROFILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl, first = setup(args)
    setup_raw = time.perf_counter() - _WALL0
    ref = RefClock()
    for _ in range(REF_SETUP_SAMPLES):
        ref.sample()
    setup_ref = statistics.median(ref.wall)
    if args.setup_only:
        print(json.dumps({"setup_raw_s": setup_raw, "ref_s": setup_ref}))
        return 0

    load0 = os.getloadavg()
    run = measure_traced if args.trace else measure
    values, record, verdicts, attempted = run(args, wl, first, ref)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_raw_s=setup_raw, setup_ref_s=setup_ref,
        context=context(ref), loadavg_start=load0, loadavg_end=os.getloadavg(),
        attempted=attempted, failed=verdicts.failed, known_defect_failures=verdicts.known,
        known_defect_probes=verdicts.probes,
        failed_frac=verdicts.failed / attempted, unexpected=verdicts.unexpected,
    )
    print(json.dumps({"values": values, "record": record}, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
