"""Seeded, reproducible experiment harness.

Three studies back the complexity picture empirically: the linear scaling
of brute-force secret search, the success rates of the random-instance
DLOG/CDH reductions, and the geometry of random level-2 inputs (how often
some query line meets the quadruple polynomial's zero set in more than
two points, the event that breaks the counting argument).

Every random draw is derived from (seed, labels, trial index) through a
SeedSequence, so aggregates are independent of execution order and two
runs with the same configuration are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .adversary import check_enumeration_guard
from .algorithms import (
    brute_force_secret,
    honest_cdh_oracle,
    honest_dlog_oracle,
    secret_from_cdh_random,
    secret_from_dlog_random,
)
from .blackbox import Escrow, IdentityOracle
from .modmath import PrimeModulus, _inv_int


def trial_rng(seed: int, *labels: int) -> np.random.Generator:
    """Independent stream for one trial, derived from (seed, labels)."""
    return np.random.default_rng(np.random.SeedSequence([seed, *labels]))


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion at z sigmas."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ScalingRow:
    """Brute-force query statistics at one prime."""

    p: int
    trials: int
    mean_queries: float
    max_queries: int
    expected_mean: float
    rel_error: float
    within_5pct: bool

    def to_dict(self) -> dict:
        return asdict(self)


def run_scaling(ps: Sequence[int], trials: int, seed: int) -> List[ScalingRow]:
    """Measure brute-force search cost in random order at each prime.

    Each trial draws a fresh secret and a fresh candidate order; the mean
    hitting time should track (p+1)/2, and the 5% band is asserted as a
    field (meaningful once trials reach 10^4).
    """
    rows = []
    for p in ps:
        modulus = PrimeModulus(p)
        total = 0
        worst = 0
        for t in range(trials):
            rng = trial_rng(seed, p, t)
            s = int(rng.integers(0, p))
            oracle = IdentityOracle.level1(modulus, s)
            brute_force_secret(oracle, rng)
            total += oracle.queries
            worst = max(worst, oracle.queries)
        mean = total / trials
        expected = (p + 1) / 2
        rel = abs(mean - expected) / expected
        rows.append(
            ScalingRow(
                p=p,
                trials=trials,
                mean_queries=mean,
                max_queries=worst,
                expected_mean=expected,
                rel_error=rel,
                within_5pct=rel <= 0.05,
            )
        )
    return rows


@dataclass(frozen=True)
class ReductionRow:
    """Success-rate estimate of one random-instance reduction.

    Non-generator draws are resampled inside the reductions; the overhead
    is visible here as oracle calls beyond one per trial (DLOG route) and
    identity queries beyond the at most two root tests (CDH route).
    """

    algorithm: str
    p: int
    trials: int
    successes: int
    rate: float
    wilson_low: float
    wilson_high: float
    bound: float
    consistent_with_bound: bool
    mean_oracle_calls: float
    mean_id_queries: float

    def to_dict(self) -> dict:
        return asdict(self)


def run_reduction_success(p: int, trials: int, seed: int) -> List[ReductionRow]:
    """Estimate success rates of the random-instance reductions.

    Success means the recovered value equals the true secret.  The rates
    should sit at (p-1)/p for the DLOG route and at least (p-2)/p for the
    CDH route; a row is consistent when its 3-sigma Wilson interval does
    not exclude the bound from above.
    """
    modulus = PrimeModulus(p)
    escrow = Escrow()
    rows = []
    for tag, name, bound in ((1, "dlog-random", (p - 1) / p), (2, "cdh-random", (p - 2) / p)):
        successes = 0
        oracle_calls = 0
        id_queries = 0
        for t in range(trials):
            rng = trial_rng(seed, tag, t)
            s = int(rng.integers(0, p))
            oracle = IdentityOracle.level1(modulus, s)
            if tag == 1:
                handle = honest_dlog_oracle(oracle, escrow)
                got = secret_from_dlog_random(handle, rng)
            else:
                handle = honest_cdh_oracle(oracle, escrow)
                got = secret_from_cdh_random(handle, oracle, rng)
            oracle_calls += handle.calls
            id_queries += oracle.queries
            if got is not None and got.value == s:
                successes += 1
        low, high = wilson_interval(successes, trials)
        rows.append(
            ReductionRow(
                algorithm=name,
                p=p,
                trials=trials,
                successes=successes,
                rate=successes / trials,
                wilson_low=low,
                wilson_high=high,
                bound=bound,
                consistent_with_bound=high >= bound,
                mean_oracle_calls=oracle_calls / trials,
                mean_id_queries=id_queries / trials,
            )
        )
    return rows


@dataclass(frozen=True)
class SolutionCountSample:
    """One random level-2 instance and its worst query line.

    ``solution_count`` is the largest number of common zeros of the
    quadruple polynomial and a line (1, u1, u2), (u1, u2) != (0, 0),
    obtained by full enumeration of the p^2 grid (ground truth).
    """

    instance: Tuple[Tuple[int, int, int], ...]
    worst_line: Tuple[int, int, int]
    solution_count: int

    @property
    def bad(self) -> bool:
        return self.solution_count > 2

    def to_dict(self) -> dict:
        return asdict(self)


def max_line_solution_count(p: int, g, h, k, l) -> Tuple[int, Tuple[int, int, int]]:
    """Worst line for one instance: max solutions and a witnessing line.

    The quadruple polynomial is evaluated on the whole p x p grid, then
    every admissible line is read off the grid: u2 = 0 lines fix x and
    run over y, u2 != 0 lines are parameterized by x.  Deterministic
    argmax order: u2 = 0 block first, then (u1, u2) lexicographic.
    """
    xs = np.arange(p, dtype=np.int64)
    X = xs.reshape(p, 1)
    Y = xs.reshape(1, p)
    P = (
        (g[0] + g[1] * X + g[2] * Y) * (l[0] + l[1] * X + l[2] * Y)
        - (h[0] + h[1] * X + h[2] * Y) * (k[0] + k[1] * X + k[2] * Y)
    ) % p
    Z = P == 0

    inv = np.array([0] + [_inv_int(v, p) for v in range(1, p)], dtype=np.int64)

    # u = (1, u1, 0), u1 != 0: x is fixed at -1/u1.
    x_fixed = (-inv[1:]) % p
    counts_u2zero = Z[x_fixed, :].sum(axis=1)

    # u = (1, u1, u2), u2 != 0: y = -(1 + u1 x) / u2.
    U1 = xs.reshape(p, 1, 1)
    INV2 = inv[1:].reshape(1, p - 1, 1)
    XS = xs.reshape(1, 1, p)
    YS = (-(1 + U1 * XS) * INV2) % p
    counts_rest = Z[XS, YS].sum(axis=2)

    best = -1
    best_u = (1, 0, 0)
    i = int(np.argmax(counts_u2zero))
    if int(counts_u2zero[i]) > best:
        best = int(counts_u2zero[i])
        best_u = (1, i + 1, 0)
    j = int(np.argmax(counts_rest))
    if int(counts_rest.flat[j]) > best:
        u1, u2m = divmod(j, p - 1)
        best = int(counts_rest.flat[j])
        best_u = (1, u1, u2m + 1)
    return best, best_u


@dataclass(frozen=True)
class Level2Result:
    """Aggregate of the random-instance line-solution experiment."""

    p: int
    trials: int
    bad_count: int
    bad_fraction: float
    bound: float
    sigma: float
    threshold: float
    within_threshold: bool
    bad_samples: List[SolutionCountSample] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def run_level2_solution_counts(p: int, trials: int, seed: int, force: bool = False) -> Level2Result:
    """Fraction of random level-2 quadruples with a line of > 2 solutions.

    Instances are drawn uniformly; each is checked exhaustively against
    every line.  The fraction is compared with min(1, 7/p) plus three
    binomial sigmas.  The per-sample cost is O(p^3) grid work, hence the
    guard (p <= 31 unless ``force`` is set).
    """
    check_enumeration_guard(p, force)
    bad = 0
    bad_samples: List[SolutionCountSample] = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        c = rng.integers(0, p, size=12)
        g = (int(c[0]), int(c[1]), int(c[2]))
        h = (int(c[3]), int(c[4]), int(c[5]))
        k = (int(c[6]), int(c[7]), int(c[8]))
        l = (int(c[9]), int(c[10]), int(c[11]))
        count, line = max_line_solution_count(p, g, h, k, l)
        if count > 2:
            bad += 1
            bad_samples.append(
                SolutionCountSample(instance=(g, h, k, l), worst_line=line, solution_count=count)
            )
    bound = min(1.0, 7 / p)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    fraction = bad / trials
    threshold = bound + 3 * sigma
    return Level2Result(
        p=p,
        trials=trials,
        bad_count=bad,
        bad_fraction=fraction,
        bound=bound,
        sigma=sigma,
        threshold=threshold,
        within_threshold=fraction <= threshold,
        bad_samples=bad_samples,
    )


def format_value(x) -> str:
    """Stable textual form: 12 significant digits for floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def rows_to_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(row[key]) for key in header))
    return "\n".join(lines) + "\n"
