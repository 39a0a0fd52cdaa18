"""Seeded, reproducible experiment harness.

Three studies back the complexity picture empirically: the linear scaling
of brute-force secret search, the success rates of the random-instance
DLOG/CDH reductions, and the geometry of random level-2 inputs (how often
some query line meets the quadruple polynomial's zero set in more than
two points, the event that breaks the counting argument).

Each level-1 check has one home here, which the CLI and the demos call:
``recover_secret`` runs any of the six recoveries named in
``RECOVERIES``, ``run_lift_agreement`` checks that lifting keeps DDH
answers, and ``run_embedding`` decides one DDH input of a prime-order
subgroup through its embedding.

Every random draw is derived from (seed, labels, trial index) through a
SeedSequence, so aggregates are independent of execution order and two
runs with the same configuration are byte-identical.  ``trial_rng`` is
that stream.  The level-2 study builds no Generator per trial:
``_trial_integers`` hashes the SeedSequences of a batch of trials as
uint32 columns, seeds numpy's PCG64 from each through its ``state``
setter and applies numpy's bounded-integer rule to the whole batch, so
it draws the integers ``trial_rng`` draws, bit for bit.  A row where
that rule could reject a draw, and every row when p ≥ 2^32, is drawn by
``trial_rng`` itself, and a batched call first checks trial 0 against
numpy's own seeding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .adversary import check_enumeration_guard
from .algorithms import (
    DHInstance,
    EmbeddedOracle,
    brute_force_secret,
    ddh_decide_by_search,
    ddh_decide_level1,
    embed_generic_group,
    honest_cdh_oracle,
    honest_dlog_oracle,
    lift_instance,
    lift_oracle,
    secret_from_cdh,
    secret_from_cdh_random,
    secret_from_dlog,
    secret_from_dlog_random,
)
from .blackbox import Escrow, IdentityOracle, random_element
from .modmath import PrimeModulus, Residue, _inv_int, _sqrt_int


def trial_rng(seed: int, *labels: int) -> np.random.Generator:
    """Independent stream for one trial, derived from (seed, labels).

    This is the reference stream of every study.  The level-2 study
    draws the same integers through ``_trial_integers``, which hashes
    a batch of trial seeds at once and falls back to this function for
    the rows it cannot reproduce exactly.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, *labels]))


# numpy's SeedSequence constants (pool of 4 uint32 words), the PCG64
# multiplier, and the number of trials _trial_integers draws per batch.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_CHUNK = 1024


def _hashmixer(const: int, mult: int):
    """numpy's SeedSequence ``hashmix``, whose hash constant runs through
    const·mult^i mod 2^32.  ``hashmix(value, rows)`` takes the next
    ``rows`` constants, one per row of the (rows, n) result; a 1-D value
    is hashed once per row."""

    def hashmix(value: np.ndarray, rows: int) -> np.ndarray:
        nonlocal const
        consts = [const]
        for _ in range(rows):
            consts.append(consts[-1] * mult & _M32)
        const = consts[-1]
        column = np.array(consts, dtype=np.uint32)[:, None]
        value = (value ^ column[:-1]) * column[1:]
        return value ^ (value >> 16)

    return hashmix


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every column e
    of ``entropy``, a uint32 array with one row per entropy word, as a
    (4, columns) uint64 array.  The hash constants do not depend on the
    data, so each step of numpy's pool mixing is a few array operations
    over all columns, and one source word is hashed for its three
    destinations at once."""

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    hashmix = _hashmixer(_INIT_A, _MULT_A)
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL]
    pool = hashmix(pool, _POOL)
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for word in entropy[_POOL:]:
        pool = mix(pool, hashmix(word, _POOL))
    state = _hashmixer(_INIT_B, _MULT_B)(pool[[0, 1, 2, 3] * 2], 2 * _POOL).astype(np.uint64)
    # Little-endian pairs: the low word first.
    return state[0::2] | state[1::2] << 32


def _pcg_seed(s_hi: int, s_lo: int, q_hi: int, q_lo: int) -> dict:
    """The PCG64 state that numpy seeds from the state words (s_hi, s_lo,
    q_hi, q_lo): inc = 2·seq + 1, then from state 0 one step, add the
    initial state, one step."""
    inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
    return {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, "inc": inc}


def _trial_integers(seed: int, trials: int, p: int, size: int) -> Iterator[List[int]]:
    """The rows ``trial_rng(seed, t).integers(0, p, size=size).tolist()``
    for t in range(trials), in order, drawn in batches of ``_CHUNK``.

    A batch hashes the entropy words of every trial, the seed's uint32
    words followed by t, through SeedSequence's pool mixing as uint32
    columns.  Each trial's four state words seed numpy's own PCG64 the
    way ``PCG64(seed_seq)`` does (state 0, inc = 2·seq + 1, one step,
    add the initial state, one step), set through its ``state`` setter,
    and ``random_raw`` gives the ceil(size / 2) words that ``integers``
    reads, low half first.  numpy's 32-bit Lemire rule maps each half x
    to x·p >> 32.  A row with a leftover x·p mod 2^32 below p, where
    that rule may reject and draw again, is drawn by ``trial_rng``
    itself, and so is every trial when p < 2 or p ≥ 2^32, when t ≥ 2^32
    or when the seed is no integer.

    The seed is refused as ``trial_rng`` refuses it, with the same
    exception, before any draw.  A batched call checks trial 0's state
    words and PCG64 state against numpy's own before its first row, so a
    numpy that seeds differently raises ``RuntimeError`` instead of
    drawing other rows.
    """
    reference = np.random.SeedSequence([seed, 0])
    try:
        value = operator.index(seed)
    except TypeError:
        words = None
    else:
        words = [value & _M32]
        while value > _M32:
            value >>= 32
            words.append(value & _M32)
    fast = words is not None and 1 < p <= _M32 and trials <= 1 << 32
    return _trial_rows(seed, words if fast else None, trials, p, size, reference)


def _trial_rows(seed, words, trials, p, size, reference) -> Iterator[List[int]]:
    """The rows of ``_trial_integers``, batched from the seed's uint32
    ``words``, or all from ``trial_rng`` when ``words`` is None."""
    bits = np.random.PCG64(reference)
    half = (size + 1) // 2
    for start in range(0, trials, _CHUNK):
        ts = range(start, min(start + _CHUNK, trials))
        if words is None:
            yield from (trial_rng(seed, t).integers(0, p, size=size).tolist() for t in ts)
            continue
        entropy = np.empty((len(words) + 1, len(ts)), dtype=np.uint32)
        entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
        entropy[-1] = ts
        state_words = _state_words(entropy)
        if start == 0:
            trial0 = state_words[:, 0].tolist()
            if (trial0 != reference.generate_state(4, np.uint64).tolist()
                    or bits.state["state"] != _pcg_seed(*trial0)):
                raise RuntimeError("numpy's SeedSequence or PCG64 seeding has changed; "
                                   "the batched level-2 draws would differ from trial_rng")
        raw = np.empty((len(ts), half), dtype=np.uint64)
        for i, words4 in enumerate(zip(*state_words.tolist())):
            bits.state = {"bit_generator": "PCG64", "state": _pcg_seed(*words4),
                          "has_uint32": 0, "uinteger": 0}
            raw[i] = bits.random_raw(half)
        halves = np.empty((len(ts), 2 * half), dtype=np.uint64)
        halves[:, 0::2] = raw & _M32
        halves[:, 1::2] = raw >> 32
        m = halves[:, :size] * p
        rows = (m >> 32).tolist()
        for i in np.flatnonzero(((m & _M32) < p).any(axis=1)).tolist():
            rows[i] = trial_rng(seed, start + i).integers(0, p, size=size).tolist()
        yield from rows


def check_trials(trials: int) -> int:
    """Read a trial count as an ``int`` and return it, refusing one below
    1: an empty run has no rate to report."""
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return trials


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion at z sigmas.

    ``check_trials`` reads the trial count: a count below 1, or one that
    is no integer, is refused.  The successes are read through
    ``operator.index`` too, and refused outside 0 <= successes <= trials.
    """
    trials = check_trials(trials)
    successes = operator.index(successes)
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
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
    if not ps:
        raise ValueError("ps must name at least one prime")
    if len(set(ps)) != len(ps):
        raise ValueError(f"ps must not repeat a prime, got {list(ps)}")
    trials = check_trials(trials)
    rows = []
    for p in ps:
        modulus = PrimeModulus(p)
        p = modulus.p
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


# The six ways to recover a level-1 secret: one DLOG or CDH call, on the
# fixed instance or a random one, or exhaustive search in order or at random.
RECOVERIES = ("dlog", "cdh", "dlog-random", "cdh-random", "brute", "brute-random")


def recover_secret(algo: str, oracle, rng) -> Tuple[Optional[Residue], int, int]:
    """Recover ``oracle``'s secret by the recovery ``algo``, one of
    :data:`RECOVERIES`, as (result, DLOG calls, CDH calls).

    A DLOG or CDH recovery asks an honest handle built through escrow;
    the ``-random`` ones and ``brute-random`` draw from ``rng``.  The
    result is None on a degenerate random instance.  An unknown name, or
    a random one without an ``rng``, raises ``ValueError`` before anything
    is built or charged.
    """
    if algo not in RECOVERIES:
        raise ValueError(f"unknown recovery {algo!r}, expected one of {', '.join(RECOVERIES)}")
    kind, _, order = algo.partition("-")
    if order and rng is None:
        raise ValueError(f"the recovery {algo!r} draws from an rng, got None")
    if kind == "brute":
        return brute_force_secret(oracle, rng if order else None), 0, 0
    if kind == "dlog":
        dlog = honest_dlog_oracle(oracle, Escrow())
        got = secret_from_dlog_random(dlog, rng) if order else secret_from_dlog(dlog)
        return got, dlog.calls, 0
    cdh = honest_cdh_oracle(oracle, Escrow())
    got = secret_from_cdh_random(cdh, oracle, rng) if order else secret_from_cdh(cdh, oracle)
    return got, 0, cdh.calls


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
    p = modulus.p
    trials = check_trials(trials)
    rows = []
    for tag, name, bound in ((1, "dlog-random", (p - 1) / p), (2, "cdh-random", (p - 2) / p)):
        successes = 0
        oracle_calls = 0
        id_queries = 0
        for t in range(trials):
            rng = trial_rng(seed, tag, t)
            s = int(rng.integers(0, p))
            oracle = IdentityOracle.level1(modulus, s)
            got, dlog_calls, cdh_calls = recover_secret(name, oracle, rng)
            oracle_calls += dlog_calls + cdh_calls
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


def run_lift_agreement(p: int, trials: int, seed: int) -> int:
    """How many of ``trials`` random level-1 quadruples keep their DDH
    answer one level up.

    Trial t draws, from ``trial_rng(seed, 300, t)``, a secret, a g
    redrawn until it generates the group, and h, k, l.  The quadruple is
    decided by the two-query level-1 algorithm and, lifted, by
    exhaustive search through the lifted oracle; the two agree on every
    instance when lifting preserves DDH answers.
    """
    modulus = PrimeModulus(p)
    trials = check_trials(trials)
    agree = 0
    for t in range(trials):
        rng = trial_rng(seed, 300, t)
        s = int(rng.integers(0, p))
        oracle = IdentityOracle.level1(modulus, s)
        g = random_element(modulus, 1, rng)
        while oracle.query(g) == 1:
            g = random_element(modulus, 1, rng)
        inst = DHInstance(
            g,
            random_element(modulus, 1, rng),
            random_element(modulus, 1, rng),
            random_element(modulus, 1, rng),
        )
        base_answer = ddh_decide_level1(oracle, inst, check_generator=False)
        lifted_answer = ddh_decide_by_search(lift_oracle(oracle), lift_instance(inst))
        if base_answer == lifted_answer:
            agree += 1
    return agree


def run_embedding(p: int, q: int, a: int, b: int, c: int
                  ) -> Tuple[Tuple[int, int, int, int], int, int, EmbeddedOracle]:
    """Decide the DDH input (g1, g1^a, g1^b, g1^c) of the order-p subgroup
    of the units mod q through its embedding, and by its exponents.

    g1 is the first w^((q-1)/p) != 1 for w = 2, 3, ...  Returns the four
    subgroup elements, the answer of exhaustive search on the embedded
    oracle, the answer c = ab (mod p), and the oracle, which holds the
    query and multiplication counts.  The two answers agree whenever the
    embedding is sound.
    """
    modulus = PrimeModulus(p)
    p = modulus.p
    powers = (pow(w, (q - 1) // p, q) for w in range(2, q))
    g1 = next((x for x in powers if x != 1), None)
    if g1 is None:
        raise ValueError(f"no order-{p} subgroup generator found mod {q}")
    gens = (g1, pow(g1, a % p, q), pow(g1, b % p, q), pow(g1, c % p, q))
    oracle, inst = embed_generic_group(modulus, q, gens)
    return gens, ddh_decide_by_search(oracle, inst), int(c % p == a * b % p), oracle


@dataclass(frozen=True)
class SolutionCountSample:
    """One random level-2 instance and its worst query line.

    ``solution_count`` is the largest number of common zeros of the
    quadruple polynomial and a line (1, u1, u2), (u1, u2) != (0, 0),
    which is p for a bad instance: its worst line is a component of the
    polynomial's zero set (see ``first_component_line``).
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


def _query_line(c: int, u1: int, u2: int, p: int) -> Optional[Tuple[int, int, int]]:
    """The query line (1, u1/c, u2/c), or None when c + u1 x + u2 y = 0
    passes through the origin (c = 0) or is the line at infinity."""
    c, u1, u2 = c % p, u1 % p, u2 % p
    if c == 0 or u1 == u2 == 0:
        return None
    inv = _inv_int(c, p)
    return (1, u1 * inv % p, u2 * inv % p)


def first_component_line(p: int, g, h, k, l) -> Optional[Tuple[int, int, int]]:
    """First query line on which the quadruple polynomial vanishes, or None.

    Homogenised, (g.v)(l.v) - (h.v)(k.v) is the ternary quadratic form of
    the symmetric matrix N = A + A^T with A = g l^T - h k^T (twice the
    form's matrix, which changes no rank or square class since p is odd).
    A line meets a conic in at most two points unless it is a component,
    so an instance is bad exactly when some query line 1 + u1 x + u2 y is
    a component of the form; such a line holds all of its p points.

    - rank 3 (det N != 0): a smooth conic, no component;
    - rank 2: two lines through the kernel point K, defined over F_p
      exactly when the form on a plane complementary to K has a square
      discriminant;
    - rank 1: the form is c L^2 for L any nonzero row of N;
    - N = 0: every line is a component.

    Among the admissible components the first in the grid's scan order is
    returned (u2 = 0 block first, then (u1, u2) lexicographic), so this
    agrees with ``max_line_solution_count``, the p x p reference, on every
    instance with a line of more than two solutions.  O(1) per instance.
    """
    g0, g1, g2 = g
    h0, h1, h2 = h
    k0, k1, k2 = k
    l0, l1, l2 = l
    n00 = 2 * (g0 * l0 - h0 * k0) % p
    n11 = 2 * (g1 * l1 - h1 * k1) % p
    n22 = 2 * (g2 * l2 - h2 * k2) % p
    n01 = (g0 * l1 + g1 * l0 - h0 * k1 - h1 * k0) % p
    n02 = (g0 * l2 + g2 * l0 - h0 * k2 - h2 * k0) % p
    n12 = (g1 * l2 + g2 * l1 - h1 * k2 - h2 * k1) % p
    # Cofactors: their matrix C is det(N) N^-1.  At rank 2 it is mu K K^T,
    # so C_jj != 0 exactly where K_j != 0; at rank 1 or 0 it vanishes.
    c00 = (n11 * n22 - n12 * n12) % p
    c01 = (n12 * n02 - n01 * n22) % p
    c02 = (n01 * n12 - n11 * n02) % p
    if (n00 * c00 + n01 * c01 + n02 * c02) % p:
        return None
    n = ((n00, n01, n02), (n01, n11, n12), (n02, n12, n22))
    c11 = (n00 * n22 - n02 * n02) % p
    c22 = (n00 * n11 - n01 * n01) % p
    if not (c00 or c11 or c22):
        row = next((row for row in n if any(row)), None)
        return (1, 1, 0) if row is None else _query_line(*row, p)
    c12 = (n01 * n02 - n00 * n12) % p
    cof = ((c00, c01, c02), (c01, c11, c12), (c02, c12, c22))
    j = 0 if c00 else 1 if c11 else 2
    kx, ky, kz = cof[j]
    roots = _sqrt_int(-cof[j][j], p)
    if roots is None:
        return None
    # On the plane of the unit vectors e_i1, e_i2, which completes K to a
    # basis, the form is a s^2 + 2b st + c t^2 with ac - b^2 = C_jj.
    i1, i2 = (j + 1) % 3, (j + 2) % 3
    a, b, c = n[i1][i1], n[i1][i2], n[i2][i2]
    if a:
        zeros = [(-b + r, a) for r in roots]
    elif c:
        zeros = [(c, -b + r) for r in roots]
    else:
        zeros = [(1, 0), (0, 1)]
    lines = []
    for s, t in zeros:
        w = [0, 0, 0]
        w[i1], w[i2] = s, t
        # The component through K and w has coefficients K x w.
        line = _query_line(ky * w[2] - kz * w[1], kz * w[0] - kx * w[2], kx * w[1] - ky * w[0], p)
        if line is not None:
            lines.append(line)
    # The grid's scan order: u2 = 0 block first, then (u1, u2).
    return min(lines, key=lambda u: (u[2] != 0, u[1], u[2]), default=None)


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

    Trial t draws its instance, 12 coordinates in [0, p), from
    ``trial_rng(seed, t)``, read in batches by ``_trial_integers``; each
    is checked against every line by ``first_component_line`` in O(1).
    The fraction is compared with min(1, 7/p) plus three binomial
    sigmas.  The guard refuses p > 31 unless ``force`` is set.
    """
    p = check_enumeration_guard(p, force)
    trials = check_trials(trials)
    bad = 0
    bad_samples: List[SolutionCountSample] = []
    for c in _trial_integers(seed, trials, p, 12):
        g, h, k, l = tuple(c[0:3]), tuple(c[3:6]), tuple(c[6:9]), tuple(c[9:12])
        line = first_component_line(p, g, h, k, l)
        if line is not None:
            bad += 1
            bad_samples.append(
                SolutionCountSample(instance=(g, h, k, l), worst_line=line, solution_count=p)
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
