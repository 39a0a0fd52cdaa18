"""The three benchmark workloads: inputs from a seed, trials, and checks.

A workload is a fixed job list built once per run from ``--seed``.  The
runner repeats the whole list as one *pass* until the run's time is up;
every pass re-runs the same inputs, so exact counts (queries, oracle
calls, iterations, successes) must repeat pass after pass.  Each trial
is timed around its calls into dhbox only; its check runs afterwards and
compares the output with a reference the benchmark computes itself,
mostly label arithmetic on the generated secret.

Work that depends on random draws (where a brute-force search hits, how
large a hidden coordinate is) is stratified over the trials of a pass, so
a pass costs nearly the same whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from dhbox import (
    DHInstance,
    Escrow,
    GroupElement,
    IdentityOracle,
    PrimeModulus,
    QuadraticPoly,
    RawOracle,
    adversary_bounds,
    brute_force_hidden_vector,
    brute_force_secret,
    ddh_decide_by_search,
    ddh_decide_level1,
    embed_generic_group,
    grover_search,
    honest_cdh_oracle,
    honest_dlog_oracle,
    lift_oracle,
    normalize_oracle,
    quantum_query_curve,
    run_level2_solution_counts,
    secret_from_cdh,
    secret_from_cdh_random,
    secret_from_dlog_random,
    solve_quadratic,
)
from dhbox import cli
from dhbox.adversary import case_count_extremes

ESCROW = Escrow()

P61 = (1 << 61) - 1  # p = 3 mod 4: a square root is one pow
PTS = 27 * (1 << 56) + 1  # p - 1 = 27 * 2^56: Tonelli-Shanks with s = 56
EMBED_P, EMBED_Q = 101, 607
# The exact-studies jobs are sized to last at most about 0.2 s each, so a
# run repeats every job some 30 times and a job's best time is not left
# to the few runs that fit when a job takes seconds.  The closed forms of
# the adversary check hold at p = 31 as at 61.
ADVERSARY_P = 31
LEVEL2_CLI_P, LEVEL2_CLI_TRIALS = 31, 200  # the CLI guard stops at p = 31
LEVEL2_P, LEVEL2_TRIALS = 61, 20
CURVE_P = (1 << 17) - 1
GROVER_P, GROVER_RUNS = 65537, 8
DDH_BLOCKS = 1000  # 4000 trials: 40 lie beyond p99

# Per-iteration memory traffic of one Grover step over complex128
# amplitudes, counted from the array operations rather than measured:
# copy (read + write), mean (read), 2*mean - a (read + write), norm (read).
BYTES_PER_AMPLITUDE_UPDATE = 6 * 16


class Outcome(NamedTuple):
    """What a trial produced, with the exact counts the program reported."""

    value: object
    queries: int = 0
    calls: int = 0
    iterations: int = 0
    success: bool = True
    root_tests: Optional[int] = None


def _rng(seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *labels]))


def stratified(rng: np.random.Generator, n: int, p: int) -> list:
    """n values in [0, p), one from each of n equal strata, shuffled."""
    u = (np.arange(n) + rng.random(n)) * p / n
    values = [min(int(x), p - 1) for x in u]
    rng.shuffle(values)
    return values


class _FixedOrder:
    """A generated candidate order, handed to brute force in place of an rng."""

    __slots__ = ("order",)

    def __init__(self, order):
        self.order = order

    def permutation(self, n):
        if n != len(self.order):
            raise ValueError(f"order has {len(self.order)} candidates, asked for {n}")
        return self.order


class Trial:
    """One timed call into dhbox plus the check of its output."""

    kind = ""

    def prepare(self) -> None:
        """Reset per-run state (fresh rng streams) before each run."""

    def run(self, tr) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> Optional[str]:
        """None when the output is right, else the reason it is wrong."""
        raise NotImplementedError


# --- oracle-search ---------------------------------------------------------


class BruteTrial(Trial):
    kind = "brute"

    def __init__(self, modulus, order, position):
        self.modulus = modulus
        self.order = _FixedOrder(order)
        self.position = position
        self.secret = int(order[position])

    def run(self, tr):
        oracle = IdentityOracle.level1(self.modulus, self.secret)
        with tr.span("algorithms.brute_force_secret"):
            got = brute_force_secret(tr.oracle(oracle, "identity"), self.order)
        return Outcome(got.value, queries=oracle.queries)

    def check(self, out):
        if out.value != self.secret:
            return f"brute force found {out.value}, secret {self.secret}"
        if out.queries != self.position + 1 or out.queries > self.modulus.p:
            return f"brute force spent {out.queries} queries, expected {self.position + 1}"
        return None


class DlogRandomTrial(Trial):
    kind = "dlog-random"

    def __init__(self, modulus, secret, seed, index):
        self.modulus = modulus
        self.secret = secret
        self.labels = (seed, 11, index)

    def prepare(self):
        self.rng = _rng(*self.labels)

    def run(self, tr):
        oracle = IdentityOracle.level1(self.modulus, self.secret)
        handle = honest_dlog_oracle(oracle, ESCROW)
        with tr.span("algorithms.secret_from_dlog_random"):
            got = secret_from_dlog_random(tr.handle(handle), self.rng)
        value = None if got is None else got.value
        return Outcome(value, oracle.queries, handle.calls, success=value == self.secret)

    def check(self, out):
        if out.value not in (None, self.secret):
            return f"dlog-random recovered {out.value}, secret {self.secret}"
        if out.queries != 0 or out.calls < 1:
            return f"dlog-random spent {out.queries} queries and {out.calls} calls"
        return None


class CdhRandomTrial(Trial):
    kind = "cdh-random"

    def __init__(self, modulus, secret, seed, index):
        self.modulus = modulus
        self.secret = secret
        self.labels = (seed, 12, index)

    def prepare(self):
        self.rng = _rng(*self.labels)

    def run(self, tr):
        oracle = IdentityOracle.level1(self.modulus, self.secret)
        handle = honest_cdh_oracle(oracle, ESCROW)
        screened = tr.screening_total()
        with tr.span("algorithms.secret_from_cdh_random"):
            got = secret_from_cdh_random(tr.handle(handle), tr.oracle(oracle, "identity"), self.rng)
        value = None if got is None else got.value
        root_tests = None
        if tr.enabled:
            root_tests = oracle.queries - (tr.screening_total() - screened)
        return Outcome(value, oracle.queries, handle.calls,
                       success=value == self.secret, root_tests=root_tests)

    def check(self, out):
        if out.value not in (None, self.secret):
            return f"cdh-random recovered {out.value}, secret {self.secret}"
        if out.calls != 1 or out.queries < 1:
            return f"cdh-random spent {out.queries} queries and {out.calls} calls"
        if out.root_tests is not None and out.root_tests > 2:
            return f"cdh-random spent {out.root_tests} root tests"
        return None


class LiftedSearchTrial(Trial):
    kind = "hidden-lifted"

    def __init__(self, modulus, secret):
        self.modulus = modulus
        self.secret = secret

    def run(self, tr):
        base = IdentityOracle.level1(self.modulus, self.secret)
        view = lift_oracle(base)
        with tr.span("algorithms.brute_force_hidden_vector"):
            got = brute_force_hidden_vector(tr.oracle(view, "lifted"))
        return Outcome(got.coords, queries=base.queries)

    def check(self, out):
        if out.value != (1, self.secret, 0):
            return f"lifted search found {out.value}, hidden (1, {self.secret}, 0)"
        if out.queries != self.secret + 2:
            return f"lifted search spent {out.queries} queries, expected {self.secret + 2}"
        return None


class PermutedSearchTrial(Trial):
    """Hidden-vector search through the view normalize_oracle returns.

    Even trials hide lam*(1, a, b), which needs no permutation; odd ones
    hide (0, lam, lam*b), whose first nonzero coordinate is second, so
    the view swaps coordinates 0 and 1 and the normalized vector is
    (1, 0, b).
    """

    kind = "hidden-permuted"

    def __init__(self, modulus, a, b, lam, swap):
        p = modulus.p
        self.modulus = modulus
        if swap:
            self.normal = (0, lam, lam * b % p)
            self.expected = (1, 0, b)
            self.perm = (1, 0, 2)
            normalize_queries = 2
        else:
            self.normal = (lam, lam * a % p, lam * b % p)
            self.expected = (1, a, b)
            self.perm = (0, 1, 2)
            normalize_queries = 1
        self.expected_queries = normalize_queries + self.expected[1] + self.expected[2] + 2

    def run(self, tr):
        raw = RawOracle(self.normal, self.modulus)
        with tr.span("blackbox.normalize_oracle"):
            perm, view = normalize_oracle(tr.oracle(raw, "permuted", screening=True))
        with tr.span("algorithms.brute_force_hidden_vector"):
            got = brute_force_hidden_vector(tr.oracle(view, "permuted"))
        return Outcome((perm, got.coords), queries=raw.queries)

    def check(self, out):
        if out.value != (self.perm, self.expected):
            return f"permuted search found {out.value}, expected {(self.perm, self.expected)}"
        if out.queries != self.expected_queries:
            return f"permuted search spent {out.queries} queries, expected {self.expected_queries}"
        return None


def _subgroup_generator(p: int, q: int) -> int:
    for w in range(2, q):
        g = pow(w, (q - 1) // p, q)
        if g != 1:
            return g
    raise ValueError(f"no order-{p} subgroup mod {q}")


class EmbeddedTrial(Trial):
    kind = "embedded"

    def __init__(self, modulus, g1, a, b, c):
        q = EMBED_Q
        self.modulus = modulus
        self.gens = (g1, pow(g1, a, q), pow(g1, b, q), pow(g1, c, q))
        self.expected = 1 if c == a * b % modulus.p else 0
        self.expected_queries = a + b + c + 3

    def run(self, tr):
        with tr.span("algorithms.embed_generic_group"):
            oracle, inst = embed_generic_group(self.modulus, EMBED_Q, self.gens)
        with tr.span("algorithms.ddh_decide_by_search"):
            answer = ddh_decide_by_search(tr.oracle(oracle, "embedded"), inst)
        return Outcome(answer, queries=oracle.queries, success=answer == self.expected)

    def check(self, out):
        if out.value != self.expected:
            return f"embedded DDH answered {out.value}, exponents say {self.expected}"
        if out.queries != self.expected_queries or out.queries > 3 * self.modulus.p:
            return f"embedded DDH spent {out.queries} queries, expected {self.expected_queries}"
        return None


def oracle_search(seed: int):
    rng = _rng(seed, 1)
    trials = []
    for p, n in ((1009, 300), (10007, 75)):
        m = PrimeModulus(p)
        for position in stratified(rng, n, p):
            trials.append(BruteTrial(m, rng.permutation(p), position))
    m = PrimeModulus(1009)
    for i, s in enumerate(stratified(rng, 150, 1009)):
        trials.append(DlogRandomTrial(m, s, seed, i))
    for i, s in enumerate(stratified(rng, 150, 1009)):
        trials.append(CdhRandomTrial(m, s, seed, i))
    for s in stratified(rng, 100, 1009):
        trials.append(LiftedSearchTrial(m, s))
    for i, (a, b) in enumerate(zip(stratified(rng, 100, 1009), stratified(rng, 100, 1009))):
        lam = int(rng.integers(1, 1009))
        trials.append(PermutedSearchTrial(m, a, b, lam, swap=i % 2 == 1))
    m = PrimeModulus(EMBED_P)
    g1 = _subgroup_generator(EMBED_P, EMBED_Q)
    for i, (a, b) in enumerate(zip(stratified(rng, 200, EMBED_P), stratified(rng, 200, EMBED_P))):
        c = a * b % EMBED_P
        if i % 2:
            c = (c + int(rng.integers(1, EMBED_P))) % EMBED_P
        trials.append(EmbeddedTrial(m, g1, a, b, c))
    order = rng.permutation(len(trials))
    return Workload("oracle-search", (1009, 10007, EMBED_P, EMBED_Q),
                    [trials[i] for i in order])


# --- ddh-decide ------------------------------------------------------------


def _label(e, s, p):
    return (e[0] + e[1] * s) % p


class DecideTrial(Trial):
    kind = "ddh"

    def __init__(self, modulus, secret, g, h, k, l, expected):
        self.modulus = modulus
        self.secret = secret
        self.coords = (g, h, k, l)
        self.expected = expected

    def run(self, tr):
        m = self.modulus
        g, h, k, l = self.coords
        with tr.span("blackbox.build"):
            inst = DHInstance(GroupElement(g, m), GroupElement(h, m),
                              GroupElement(k, m), GroupElement(l, m))
        tr.count("elements", 4)
        oracle = IdentityOracle.level1(m, self.secret)
        with tr.span("algorithms.ddh_decide_level1"):
            answer = ddh_decide_level1(tr.oracle(oracle, "identity"), inst, check_generator=True)
        return Outcome(answer, queries=oracle.queries, success=answer == self.expected)

    def check(self, out):
        if out.value != self.expected:
            return f"DDH answered {out.value}, labels say {self.expected}"
        if out.queries > 3:
            return f"DDH decision spent {out.queries} queries"
        return None

    def quadratic(self):
        """The quadruple polynomial, from the benchmark's own arithmetic."""
        (g0, g1), (h0, h1), (k0, k1), (l0, l1) = self.coords
        return (g1 * l1 - h1 * k1, g0 * l1 + g1 * l0 - h0 * k1 - h1 * k0, g0 * l0 - h0 * k0)

    def roots_ok(self, roots):
        return (self.secret in roots) == (self.expected == 1)


class CdhTrial(Trial):
    kind = "cdh"

    def __init__(self, modulus, secret):
        self.modulus = modulus
        self.secret = secret

    def run(self, tr):
        oracle = IdentityOracle.level1(self.modulus, self.secret)
        handle = honest_cdh_oracle(oracle, ESCROW)
        with tr.span("algorithms.secret_from_cdh"):
            got = secret_from_cdh(tr.handle(handle), tr.oracle(oracle, "identity"))
        return Outcome(got.value, oracle.queries, handle.calls)

    def check(self, out):
        if out.value != self.secret:
            return f"CDH recovery found {out.value}, secret {self.secret}"
        if out.calls != 1 or out.queries > 2:
            return f"CDH recovery spent {out.queries} queries and {out.calls} calls"
        return None

    def quadratic(self):
        # g = (1, 0), h = (0, 1), k = (1, 1): the honest answer is the
        # canonical (s(1 + s), 0), so the secret solves x^2 + x - s(1 + s).
        s = self.secret
        return (1, 1, -s * (1 + s))

    def roots_ok(self, roots):
        p = self.modulus.p
        return sorted(roots) == sorted({self.secret, (-self.secret - 1) % p})


def _generator(rng, s, p):
    """A random level-1 element whose label under s is nonzero."""
    while True:
        g = (int(rng.integers(0, p)), int(rng.integers(0, p)))
        if _label(g, s, p):
            return g


def ddh_decide(seed: int):
    """Blocks of three decisions and one CDH recovery, primes alternating."""
    rng = _rng(seed, 2)
    moduli = (PrimeModulus(P61), PrimeModulus(PTS))
    answers = [1, 0] * (3 * DDH_BLOCKS // 2) + [1] * (3 * DDH_BLOCKS % 2)
    rng.shuffle(answers)
    trials = []
    for b in range(DDH_BLOCKS):
        m = moduli[b % 2]
        p = m.p
        for j in range(3):
            s = int(rng.integers(0, p))
            g = _generator(rng, s, p)
            h = (int(rng.integers(0, p)), int(rng.integers(0, p)))
            k = (int(rng.integers(0, p)), int(rng.integers(0, p)))
            fl = _label(h, s, p) * _label(k, s, p) * pow(_label(g, s, p), -1, p) % p
            expected = answers[3 * b + j]
            l1 = int(rng.integers(0, p))
            if expected:
                l0 = (fl - l1 * s) % p
            else:
                l0 = int(rng.integers(0, p))
                while (l0 + l1 * s) % p == fl:
                    l0 = int(rng.integers(0, p))
            trials.append(DecideTrial(m, s, g, h, k, (l0, l1), expected))
        trials.append(CdhTrial(m, int(rng.integers(0, p))))
    order = rng.permutation(len(trials))
    return Workload("ddh-decide", (P61, PTS), [trials[i] for i in order],
                    references=_replay_quadratics)


def _replay_quadratics(workload, tr):
    """Replay every quadratic of the pass through the public solver."""
    failures = []
    for trial in workload.trials:
        m = trial.modulus
        a2, a1, a0 = trial.quadratic()
        if a2 % m.p == 0 and a1 % m.p == 0:
            continue
        branch = "p3mod4" if m.p % 4 == 3 else "ts56"
        poly = QuadraticPoly.from_ints(m, a2, a1, a0)
        with tr.span("modmath.solve_quadratic." + branch):
            roots = solve_quadratic(poly)
        tr.count("quadratics")
        values = [r.value for r in roots]
        if not trial.roots_ok(values) or any(poly.evaluate(r).value for r in values):
            failures.append(f"solve_quadratic gave {values} for {trial.kind} secret {trial.secret}")
    return len(workload.trials), failures


# --- exact-studies ---------------------------------------------------------


def _capture_cli(tr, name, argv):
    buf = io.StringIO()
    with tr.span("cli.main." + name), contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@contextlib.contextmanager
def _library_span(tr, attr, span_name):
    """In traced runs, time cli.main's own call of a library function.

    cli's module-level reference ``attr`` is wrapped while the block runs,
    so the library call is a child span of cli.main's span and cli.main's
    self time is the CLI's own work on that very call.  Yields the list
    of values the library call returned (empty when tracing is off).
    """
    returned = []
    if not tr.enabled:
        yield returned
        return
    original = getattr(cli, attr)

    def traced(*args, **kwargs):
        with tr.span(span_name):
            value = original(*args, **kwargs)
        returned.append(value)
        return value

    setattr(cli, attr, traced)
    try:
        yield returned
    finally:
        setattr(cli, attr, original)


class _StableOutput:
    """Remembers the first output bytes and flags any later difference."""

    def __init__(self):
        self.first = None

    def differs(self, text):
        if self.first is None:
            self.first = text
        return text != self.first


def adversary_closed_forms(p):
    """Randomized (p-1)/2 and quantum^2 (p^2-p+1)(p-1)/(2(p^2-2p+3))."""
    return (Fraction(p - 1, 2),
            Fraction((p * p - p + 1) * (p - 1), 2 * (p * p - 2 * p + 3)))


def check_adversary_report(report, p):
    rand, quad = adversary_closed_forms(p)
    if report["worst_ratio_randomized_exact"] != str(rand):
        return f"randomized ratio {report['worst_ratio_randomized_exact']}, closed form {rand}"
    if report["worst_ratio_quantum_squared_exact"] != str(quad):
        return f"quantum ratio^2 {report['worst_ratio_quantum_squared_exact']}, closed form {quad}"
    for kind in ("randomized", "quantum"):
        if report["witnesses"][kind]["h"] != [0, 1, 2]:
            return f"{kind} witness h = {report['witnesses'][kind]['h']}, expected [0, 1, 2]"
    if (report["count_positive"], report["count_negative"]) != (p - 1, p * p - p + 1):
        return "positive/negative counts do not match p - 1 and p^2 - p + 1"
    return None


class CliAdversaryJob(Trial):
    kind = "cli-adversary"

    def __init__(self):
        self.output = _StableOutput()

    def run(self, tr):
        argv = ["adversary", "--p", str(ADVERSARY_P), "--force"]
        with _library_span(tr, "adversary_bounds", "adversary.bounds") as reports:
            rc, text = _capture_cli(tr, "adversary", argv)
        tr.count("adversary.h", ADVERSARY_P ** 3)
        library = [r.to_json() + "\n" for r in reports]
        return Outcome((rc, text, library))

    def check(self, out):
        rc, text, library = out.value
        if rc != 0:
            return f"dhbox adversary exited {rc}"
        if self.output.differs(text):
            return "dhbox adversary output bytes changed between repetitions"
        if any(lib != text for lib in library):
            return "dhbox adversary output differs from the adversary_bounds report"
        return check_adversary_report(json.loads(text), ADVERSARY_P)


def _line_solutions(p, inst, line):
    g, h, k, l = inst
    _, u1, u2 = line
    count = 0
    for x in range(p):
        for y in range(p):
            if (1 + u1 * x + u2 * y) % p:
                continue
            lin = [e[0] + e[1] * x + e[2] * y for e in (g, h, k, l)]
            if (lin[0] * lin[3] - lin[1] * lin[2]) % p == 0:
                count += 1
    return count


def check_level2(result, p, trials):
    if not result["within_threshold"]:
        return f"level-2 bad fraction {result['bad_fraction']} above {result['threshold']}"
    if result["trials"] != trials or result["bad_count"] != len(result["bad_samples"]):
        return "level-2 trial or bad-sample counts inconsistent"
    for sample in result["bad_samples"]:
        n = _line_solutions(p, sample["instance"], sample["worst_line"])
        if n != sample["solution_count"] or n <= 2:
            return f"line {sample['worst_line']} has {n} solutions, reported {sample['solution_count']}"
    return None


class CliLevel2Job(Trial):
    kind = "cli-level2"

    def __init__(self, seed):
        self.seed = seed
        self.output = _StableOutput()

    def argv(self):
        return ["level2-counts", "--p", str(LEVEL2_CLI_P),
                "--trials", str(LEVEL2_CLI_TRIALS), "--seed", str(self.seed)]

    def run(self, tr):
        with _library_span(tr, "run_level2_solution_counts", "experiments.level2.in_cli") as results:
            rc, text = _capture_cli(tr, "level2", self.argv())
        library = [json.dumps(r.to_dict(), indent=2) + "\n" for r in results]
        return Outcome((rc, text, library))

    def check(self, out):
        rc, text, library = out.value
        if rc != 0:
            return f"dhbox level2-counts exited {rc}"
        if self.output.differs(text):
            return "dhbox level2-counts output bytes changed between repetitions"
        if any(lib != text for lib in library):
            return "dhbox level2-counts output differs from the library result"
        return check_level2(json.loads(text), LEVEL2_CLI_P, LEVEL2_CLI_TRIALS)


class Level2Job(Trial):
    kind = "level2"

    def __init__(self, seed):
        self.seed = seed

    def run(self, tr):
        with tr.span("experiments.level2"):
            result = run_level2_solution_counts(LEVEL2_P, LEVEL2_TRIALS, self.seed, force=True)
        tr.count("level2.samples", LEVEL2_TRIALS)
        return Outcome(result.to_dict())

    def check(self, out):
        return check_level2(out.value, LEVEL2_P, LEVEL2_TRIALS)


def closed_form_success(n, k):
    return math.sin((2 * k + 1) * math.asin(1 / math.sqrt(n))) ** 2


def iteration_bound(n):
    return math.ceil(math.pi / 4 * math.sqrt(n))


class CurveJob(Trial):
    kind = "grover-curve"

    def run(self, tr):
        with tr.span("grover_sim.curve"):
            (point,) = quantum_query_curve([CURVE_P])
        k = point.iterations
        tr.count("grover.iterations", k)
        tr.count("grover.amplitude_updates", k * CURVE_P)
        tr.note_max("grover.state_bytes", 16 * CURVE_P)
        return Outcome(point, iterations=k)

    def check(self, out):
        k = out.value.iterations
        if k > iteration_bound(CURVE_P):
            return f"curve needed {k} iterations, bound {iteration_bound(CURVE_P)}"
        if closed_form_success(CURVE_P, k) < 2 / 3 or (k and closed_form_success(CURVE_P, k - 1) >= 2 / 3):
            return f"curve iteration count {k} is not the first to reach 2/3"
        if abs(out.value.success_probability - closed_form_success(CURVE_P, k)) > 1e-9:
            return f"curve success {out.value.success_probability} off the closed form"
        return None


class GroverJob(Trial):
    """A seeded Grover run (about 50 ms)."""

    kind = "grover"

    def __init__(self, modulus, secret, seed, index):
        self.modulus = modulus
        self.secret = secret
        self.labels = (seed, 13, index)
        self.k = max(0, round(math.pi / 4 * math.sqrt(modulus.p) - 0.5))

    def prepare(self):
        self.rng = _rng(*self.labels)

    def run(self, tr):
        oracle = IdentityOracle.level1(self.modulus, self.secret)
        charged = tr.query_total()
        with tr.span("grover_sim.search"):
            run = grover_search(tr.oracle(oracle, "identity"), rng=self.rng)
        p = self.modulus.p
        tr.count("grover.reported", run.oracle_queries)
        tr.count("grover.charged", tr.query_total() - charged)
        tr.count("grover.iterations", run.iterations)
        tr.count("grover.amplitude_updates", run.iterations * p)
        tr.note_max("grover.state_bytes", 16 * p)
        return Outcome(run, queries=run.oracle_queries, iterations=run.iterations,
                       success=run.measured_outcome == self.secret)

    def check(self, out):
        run = out.value
        p = self.modulus.p
        if run.target != self.secret or run.iterations != self.k:
            return f"grover run target {run.target}, k {run.iterations}; expected {self.secret}, {self.k}"
        if run.oracle_queries != run.iterations or run.iterations > iteration_bound(p):
            return f"grover run reports {run.oracle_queries} queries for {run.iterations} iterations"
        if abs(run.success_probability - closed_form_success(p, run.iterations)) > 1e-9:
            return f"grover success {run.success_probability} off the closed form"
        if not 0 <= run.measured_outcome < p:
            return f"grover measured {run.measured_outcome} outside [0, {p})"
        return None


def exact_studies(seed: int):
    rng = _rng(seed, 3)
    m = PrimeModulus(GROVER_P)
    trials = [CliAdversaryJob(), CliLevel2Job(seed), Level2Job(seed), CurveJob()]
    for i in range(GROVER_RUNS):
        trials.append(GroverJob(m, int(rng.integers(0, GROVER_P)), seed, i))
    return Workload("exact-studies",
                    (ADVERSARY_P, LEVEL2_CLI_P, LEVEL2_P, CURVE_P, GROVER_P),
                    trials, references=_adversary_counting)


def _adversary_counting(workload, tr):
    """The hyperplane counting alone, for the adversary's split into
    counting and minimisation."""
    with tr.span("adversary.counting"):
        extremes = case_count_extremes(ADVERSARY_P)
    if extremes != (2, ADVERSARY_P):
        return 1, [f"case_count_extremes({ADVERSARY_P}) = {extremes}"]
    return 1, []


# --- common ----------------------------------------------------------------


class Workload:
    """A named job list, the primes its set-up verifies, and optional
    reference work the traced run does after each traced pass."""

    def __init__(self, name, primes, trials, references=None):
        self.name = name
        self.primes = primes
        self.trials = trials
        self._references = references

    def references(self, tr):
        """Run the reference work; returns (attempted, failure reasons)."""
        if self._references is None:
            return 0, []
        return self._references(self, tr)


WORKLOADS = {
    "oracle-search": oracle_search,
    "ddh-decide": ddh_decide,
    "exact-studies": exact_studies,
}

