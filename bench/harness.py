"""Pass loop, metrics and reporting of the dhbox benchmark.

Imported by ``run.py`` once it has put the checkout's ``src/`` first on
the import path; importing this module imports dhbox.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import jobs
from spans import NO_TRACE, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 21

# Runs in a fresh interpreter under ``-X importtime``: the cost a user
# pays before the first job.  The markers delimit the import lines that
# ``import dhbox`` causes.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
sys.stderr.write("@import\\n")
sys.stderr.flush()
import dhbox
sys.stderr.write("@imported\\n")
sys.stderr.flush()
t0 = time.perf_counter()
for p in sys.argv[2:]:
    dhbox.PrimeModulus(int(p))
t1 = time.perf_counter()
print(json.dumps({"file": dhbox.__file__, "modulus_s": t1 - t0}))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "identity_queries_per_s": "1/s",
    "trial_us_p50": "us",
    "trial_us_p99": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "blackbox.queries": "count",
    "blackbox.queries.identity": "count",
    "blackbox.queries.lifted": "count",
    "blackbox.queries.permuted": "count",
    "blackbox.queries.embedded": "count",
    "blackbox.query_s": "s",
    "blackbox.ns_per_query": "ns",
    "blackbox.build_s": "s",
    "blackbox.ns_per_element": "ns",
    "modmath.roots_s.p3mod4": "s",
    "modmath.roots_s.ts56": "s",
    "modmath.ns_per_root": "ns",
    "modmath.modulus_s": "s",
    "algorithms.call_s": "s",
    "algorithms.self_s": "s",
    "algorithms.oracle_calls": "count",
    "algorithms.screening_queries": "count",
    "algorithms.useful_query_ratio": "ratio",
    "adversary.counting_s": "s",
    "adversary.bounds_s": "s",
    "adversary.minimise_s": "s",
    "adversary.h_enumerated": "count",
    "experiments.level2_s": "s",
    "experiments.samples_per_s": "1/s",
    "grover_sim.curve_s": "s",
    "grover_sim.search_s": "s",
    "grover_sim.iterations": "count",
    "grover_sim.ns_per_amplitude_update": "ns",
    "grover_sim.uncharged_queries": "count",
    "grover_sim.bytes_moved_computed": "B",
    "grover_sim.state_bytes": "B",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "study.adversary_s": "s",
    "study.level2_s": "s",
    "study.grover_curve_s": "s",
    "counts.queries": "count",
    "counts.oracle_calls": "count",
    "counts.iterations": "count",
    "counts.successes": "count",
    "trace.overhead_frac": "ratio",
}

# Per-layer metrics that must repeat exactly from pass to pass.
EXACT_LAYER_METRICS = [
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "B")
]

# Which job kinds make up each study, for the untraced summary.
STUDY_KINDS = {
    "study.adversary_s": ("cli-adversary",),
    "study.level2_s": ("cli-level2", "level2"),
    "study.grover_curve_s": ("grover-curve",),
}


class _GcClock:
    """Nanoseconds spent in the cyclic garbage collector so far."""

    def __init__(self):
        self.ns = 0
        self._start = 0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = perf_counter_ns()
        else:
            self.ns += perf_counter_ns() - self._start


GC_CLOCK = _GcClock()
gc.callbacks.append(GC_CLOCK)


class PassResult:
    """Timing, exact counts and failures of one pass over the job list.

    For trial ``i``, ``own_ns[i]`` is its time outside the garbage
    collector in the pass, and ``gc_ns[i]`` its time inside the collector.
    """

    def __init__(self, wall_s, own_ns, gc_ns, attempted, counts, failures):
        self.wall_s = wall_s
        self.own_ns = own_ns
        self.gc_ns = gc_ns
        self.attempted = attempted
        self.counts = counts
        self.failures = failures


def _outcome_counts(out):
    return out.queries, out.calls, out.iterations, bool(out.success)


def run_pass(workload, tr) -> PassResult:
    """One pass over the job list: each trial is prepared, timed and
    checked once."""
    n = len(workload.trials)
    own_ns, gc_ns, outcomes = [0] * n, [0] * n, [None] * n
    failures = []
    start = perf_counter_ns()
    for i, trial in enumerate(workload.trials):
        tr.trial = i
        trial.prepare()
        with tr.span("trial." + trial.kind):
            t0 = perf_counter_ns()
            g0 = GC_CLOCK.ns
            try:
                out = trial.run(tr)
                reason = None
            except Exception as exc:  # a failed trial is counted, not fatal
                out, reason = None, f"{trial.kind} raised {type(exc).__name__}: {exc}"
            g = GC_CLOCK.ns - g0
            t = perf_counter_ns() - t0
        own_ns[i], gc_ns[i] = t - g, g
        if out is not None:
            try:
                reason = trial.check(out)
            except Exception as exc:  # malformed output fails its check
                reason = f"{trial.kind} check raised {type(exc).__name__}: {exc}"
            outcomes[i] = _outcome_counts(out)
        if reason is not None:
            failures.append(reason)
    wall = (perf_counter_ns() - start) / 1e9
    counts = Counter(queries=0, oracle_calls=0, iterations=0, successes=0)
    for trial_counts in filter(None, outcomes):
        for name, v in zip(("queries", "oracle_calls", "iterations", "successes"), trial_counts):
            counts[name] += v
    return PassResult(wall, own_ns, gc_ns, n, counts, failures)


class TrialTimes:
    """Each trial's best time outside the collector over a run's passes,
    plus its mean time inside.  Folded in pass by pass, so the memory it
    holds does not grow with the number of passes.

    A collection lands on whichever trial crosses the allocation
    threshold, which can differ from pass to pass, so the mean (and not a
    median) keeps its whole cost.
    """

    def __init__(self):
        self.passes = 0
        self.best_ns = []
        self.gc_ns = []

    def add(self, result):
        if self.passes:
            self.best_ns = [min(a, b) for a, b in zip(self.best_ns, result.own_ns)]
            self.gc_ns = [a + b for a, b in zip(self.gc_ns, result.gc_ns)]
        else:
            self.best_ns, self.gc_ns = list(result.own_ns), list(result.gc_ns)
        self.passes += 1

    def times_ns(self):
        return [b + g / self.passes for b, g in zip(self.best_ns, self.gc_ns)]

    def gc_s_per_pass(self):
        return sum(self.gc_ns) / self.passes / 1e9


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_sample(primes):
    """One fresh interpreter: the self import time in microseconds of each
    module that ``import dhbox`` loads, and the PrimeModulus seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", SETUP_CODE, str(SRC), *map(str, primes)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-2000:]}")
    sample = json.loads(proc.stdout)
    if not Path(sample["file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up imported dhbox from {sample['file']}, not {SRC}")
    lines = proc.stderr.splitlines()
    modules = Counter()
    for line in lines[lines.index("@import") + 1:lines.index("@imported")]:
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line.removeprefix("import time:").split("|")
        modules[name.strip()] += int(self_us)
    return modules, sample["modulus_s"]


def best_setup_s(samples):
    """Each module's best self import time over the samples, summed, plus
    the best PrimeModulus time."""
    best = {}
    for modules, _ in samples:
        for name, us in modules.items():
            best[name] = min(us, best.get(name, us))
    return sum(best.values()) / 1e6 + min(m for _, m in samples)


def _span_sum(total, prefix):
    return sum(v for k, v in total.items() if k.startswith(prefix)) / 1e9


def layer_metrics(tr, result, modulus_s):
    """Per-layer numbers of one traced pass and its reference calls."""
    total, own = tr.pass_totals()
    ev = tr.events
    queries = tr.query_total()
    s = lambda name: total[name] / 1e9  # noqa: E731
    m = {"blackbox.queries": queries}
    for kind in ("identity", "lifted", "permuted", "embedded"):
        m["blackbox.queries." + kind] = tr.queries[kind]
    m["blackbox.query_s"] = tr.query_ns / 1e9
    m["blackbox.ns_per_query"] = tr.query_ns / queries if queries else 0.0
    m["blackbox.build_s"] = s("blackbox.build")
    m["blackbox.ns_per_element"] = total["blackbox.build"] / ev["elements"] if ev["elements"] else 0.0
    m["modmath.roots_s.p3mod4"] = s("modmath.solve_quadratic.p3mod4")
    m["modmath.roots_s.ts56"] = s("modmath.solve_quadratic.ts56")
    roots_ns = total["modmath.solve_quadratic.p3mod4"] + total["modmath.solve_quadratic.ts56"]
    m["modmath.ns_per_root"] = roots_ns / ev["quadratics"] if ev["quadratics"] else 0.0
    m["modmath.modulus_s"] = modulus_s
    m["algorithms.call_s"] = _span_sum(total, "algorithms.")
    m["algorithms.self_s"] = _span_sum(own, "algorithms.")
    m["algorithms.oracle_calls"] = result.counts["oracle_calls"]
    m["algorithms.screening_queries"] = tr.screening
    m["algorithms.useful_query_ratio"] = (queries - tr.screening) / queries if queries else 0.0
    m["adversary.counting_s"] = s("adversary.counting")
    m["adversary.bounds_s"] = s("adversary.bounds")
    m["adversary.minimise_s"] = m["adversary.bounds_s"] - m["adversary.counting_s"]
    m["adversary.h_enumerated"] = ev["adversary.h"]
    m["experiments.level2_s"] = s("experiments.level2")
    m["experiments.samples_per_s"] = (
        ev["level2.samples"] / m["experiments.level2_s"] if ev["level2.samples"] else 0.0)
    m["grover_sim.curve_s"] = s("grover_sim.curve")
    m["grover_sim.search_s"] = s("grover_sim.search")
    m["grover_sim.iterations"] = ev["grover.iterations"]
    updates = ev["grover.amplitude_updates"]
    grover_ns = total["grover_sim.curve"] + total["grover_sim.search"]
    m["grover_sim.ns_per_amplitude_update"] = grover_ns / updates if updates else 0.0
    m["grover_sim.uncharged_queries"] = ev["grover.reported"] - ev["grover.charged"]
    m["grover_sim.bytes_moved_computed"] = updates * jobs.BYTES_PER_AMPLITUDE_UPDATE
    m["grover_sim.state_bytes"] = ev["grover.state_bytes"]
    m["cli.main_s"] = _span_sum(total, "cli.main.")
    m["cli.self_s"] = _span_sum(own, "cli.main.")
    m["study.adversary_s"] = s("cli.main.adversary")
    m["study.level2_s"] = s("cli.main.level2") + s("experiments.level2")
    m["study.grover_curve_s"] = s("grover_sim.curve")
    for name in ("queries", "oracle_calls", "iterations", "successes"):
        m["counts." + name] = result.counts[name]
    return m


def _print_failures(failures):
    for reason in failures[:10]:
        print("FAILED:", reason)
    if len(failures) > 10:
        print(f"FAILED: ... and {len(failures) - 10} more")


def timing_run(workload, seconds):
    """Passes until ``seconds`` are up, with set-up samples spread between them.

    A trial's time is its best time outside the garbage collector over
    the passes, plus its mean time inside the collector.  Other
    tenants of the host slow this process by up to 1.8x, in phases of
    seconds to minutes that are themselves broken by fast gaps at the
    millisecond scale.  A trial's best time (every pass repeats the same
    inputs) lands in such a gap, so it follows the code and not the
    neighbours' load; a median over passes does not.  A best alone would
    also drop a collector pause that hits a trial in some passes only, so
    the collector's time is timed apart and added back as a mean.
    A whole set-up, at about 0.15 s, is too long to fit in those gaps,
    so it is timed by parts: fresh interpreters, sampled at even
    intervals between the passes, report each module's own import time,
    and set-up is the sum of each module's best (see best_setup_s).
    ``seconds`` counts the time spent in passes only.
    """
    primes = workload.primes
    setup_sample(primes)  # byte-code compilation is paid once per install
    setup = []
    times = TrialTimes()
    walls, failures = [], []
    counts = None
    attempted = 0
    busy = 0.0
    while busy < seconds:
        t0 = perf_counter()
        result = run_pass(workload, NO_TRACE)
        busy += perf_counter() - t0
        times.add(result)
        walls.append(result.wall_s)
        failures += result.failures
        attempted += result.attempted
        if counts is None:
            counts = result.counts
        elif result.counts != counts:
            failures.append("exact counts differ between passes of one run")
        while len(setup) < SETUP_REPEATS * min(busy / seconds, 1):
            setup.append(setup_sample(primes))
    n = len(workload.trials)
    best_ns = times.times_ns()
    pass_s = sum(best_ns) / 1e9
    metrics = {
        "setup_s": best_setup_s(setup),
        "wall_s": pass_s,
        "trials_per_s": n / pass_s,
        "identity_queries_per_s": counts["queries"] / pass_s,
        "trial_us_p50": percentile(best_ns, 50) / 1e3,
        "trial_us_p99": percentile(best_ns, 99) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    npass = times.passes
    print(f"workload {workload.name}: {npass} passes of {n} trials")
    samples = {"setup_s": len(setup), "wall_s": npass, "trials_per_s": npass,
               "identity_queries_per_s": npass, "trial_us_p50": attempted,
               "trial_us_p99": attempted, "peak_rss_mb": 1}
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]} (n={samples[name]})")
    print(f"  whole passes, checks included: best {min(walls):.6g} s, "
          f"median {statistics.median(walls):.6g} s")
    print(f"  garbage collector, included in wall_s: {times.gc_s_per_pass():.6g} s per pass (mean)")
    kinds = [t.kind for t in workload.trials]
    for name, study in STUDY_KINDS.items():
        if any(k in study for k in kinds):
            value = sum(b for b, k in zip(best_ns, kinds) if k in study) / 1e9
            print(f"  {name} = {value:.6g} s (n={npass})")
    print(f"  failed_frac = {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print("  counts " + json.dumps(dict(counts), sort_keys=True))
    _print_failures(failures)
    out = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}
    return attempted, failures, out


def traced_run(workload, seconds, seed):
    setup_sample(workload.primes)
    modulus_s = min(setup_sample(workload.primes)[1] for _ in range(SETUP_REPEATS))
    tracer = Tracer()
    deadline = perf_counter() + seconds
    untraced, traced, rows = [], [], []
    failures = []
    attempted = 0
    while True:
        plain = run_pass(workload, NO_TRACE)
        tracer.new_pass()
        result = run_pass(workload, tracer)
        tracer.trial = -1
        ref_attempted, ref_failures = workload.references(tracer)
        untraced.append(plain.wall_s)
        traced.append(result.wall_s)
        rows.append(layer_metrics(tracer, result, modulus_s))
        failures += plain.failures + result.failures + ref_failures
        if plain.counts != result.counts:
            failures.append("exact counts differ between untraced and traced passes")
        attempted += plain.attempted + result.attempted + ref_attempted
        if perf_counter() >= deadline:
            break
    if rows[0]["blackbox.queries"] != rows[0]["counts.queries"] - rows[0]["grover_sim.uncharged_queries"]:
        failures.append("proxy query count differs from the oracles' own counters")
    for name in EXACT_LAYER_METRICS:
        if any(row[name] != rows[0][name] for row in rows):
            failures.append(f"{name} differs between traced passes")
    metrics = {name: rows[0][name] if name in EXACT_LAYER_METRICS
               else statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(path)
    print(f"workload {workload.name}: {len(rows)} traced and {len(untraced)} untraced passes")
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {PER_LAYER_UNITS[name]} (n={len(rows)})")
    print(f"  failed_frac = {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    _print_failures(failures)
    out = {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in metrics.items()}
    return attempted, failures, out


def run(workload_name, seed, seconds, trace) -> dict:
    """Build the workload and run it; returns the result line."""
    workload = jobs.WORKLOADS[workload_name](seed)
    if trace:
        attempted, failures, metrics = traced_run(workload, seconds, seed)
    else:
        attempted, failures, metrics = timing_run(workload, seconds)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
