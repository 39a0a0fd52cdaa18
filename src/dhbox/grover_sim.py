"""Classical simulation of Grover search over Z_p.

The searcher sees the hidden secret only through the one-query
point-search view of the identity oracle.  A run applies the phase
oracle (one counted query per application per standard quantum query
accounting) followed by inversion about the mean, and reports the
success probability of measuring the secret.

The phase flip needs the secret's position, which is taken once through
escrow at construction; simulating the oracle's action on every basis
state individually would otherwise charge p classical queries per
iteration and say nothing about quantum cost.  Each application is
instead charged as one identity query (s, -1), which must answer 1, so
the oracle's counter and budget see the quantum queries too.  Norm drift
is asserted, never corrected: a drifting norm means the simulation is
wrong.

Amplitudes are held as ``float64``.  The uniform start is real, and
both the phase flip (a sign change) and the inversion about the mean
(2 * mean - a, with a real mean) map real vectors to real vectors, so
the state stays in the real plane spanned by the target and the uniform
vector (Boyer, Brassard, Hoyer and Tapp, 1998).  A ``complex128`` state
would carry an imaginary half that is exactly 0 and double the bytes
every step reads and writes.  ``_step`` is dtype-generic, so a complex
state evolves under it too.

The state is therefore two values: the target's amplitude t and the
amplitude u that every other entry shares.  A run evolves the pair with
the float operations that ``_step`` applies to the vector, so its bits
equal the vector's and a seeded measurement is unchanged.  The
mean is the one step that touches every entry: numpy sums an array
pairwise (Higham, 1993), fewer than 8 items in order from 0.0, 8 to 128
items in 8 interleaved lanes combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
followed by the n mod 8 tail in order, and more items as the sum over
the first n2 = n//2 - (n//2 mod 8) plus the sum over the rest.  Every
subtree of that split without the target sums u alone, so its sum
depends on its size only, and ``_two_valued_sum`` rebuilds numpy's sum
in O(log n) float additions from a size tree built once per run.

Measurement needs no vector either.  ``Generator.choice`` with weights
draws one uniform double x and returns the first index whose partial
sum, over the last one, exceeds x.  numpy's partial sums add the
entries in order, and within one binade adding the same value adds the
same rounded number of ulps every step (ties to even settle after one
step), so ``_two_valued_cumsum`` holds them as O(log n) runs and
``_two_valued_choice`` bisects them: a seeded ``grover_search`` measures
what sampling the vector would, and builds nothing that grows with p.
``simulate_search`` returns the ``float64`` vector for its callers, and
``_step`` stays as the array reference that tests iterate.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

import numpy as np

from .algorithms import DishonestOracleError
from .blackbox import Escrow, first_on_line

MAX_STATES = 1 << 22
_NORM_TOL = 1e-9


class NormDriftError(FloatingPointError):
    """The simulated state stopped being a unit vector."""


def closed_form_success(n_states: int, iterations: int) -> float:
    """sin^2((2k+1) * asin(1/sqrt(N))): success after k Grover iterations."""
    theta = math.asin(1.0 / math.sqrt(n_states))
    return math.sin((2 * iterations + 1) * theta) ** 2


def optimal_iterations(n_states: int) -> int:
    """The standard iteration count round(pi/4 * sqrt(N) - 1/2)."""
    return max(0, round(math.pi / 4 * math.sqrt(n_states) - 0.5))


def _require_unit(norm: float) -> None:
    if abs(norm - 1.0) > _NORM_TOL:
        raise NormDriftError(f"state norm drifted to {norm!r}")


def _check_norm(amplitudes: np.ndarray) -> None:
    _require_unit(math.sqrt(np.vdot(amplitudes, amplitudes).real))


def _step(amplitudes: np.ndarray, target: int) -> np.ndarray:
    """One Grover iteration: phase flip at the target, then inversion
    about the mean.  Returns a new array; the state-vector reference that
    ``_two_valued_step`` reproduces bit for bit."""
    amplitudes = amplitudes.copy()
    amplitudes[target] = -amplitudes[target]
    amplitudes = 2 * amplitudes.mean() - amplitudes
    _check_norm(amplitudes)
    return amplitudes


_PW_BLOCKSIZE = 128  # numpy's PW_BLOCKSIZE: blocks up to this size sum in 8 lanes


def _pairwise_split(n: int) -> tuple:
    """numpy's split of a block of more than 128 items: first n2, then the rest."""
    n2 = n // 2
    n2 -= n2 % 8
    return n2, n - n2


@functools.lru_cache(maxsize=16)
def _pairwise_plan(n: int, j: int) -> tuple:
    """numpy's pairwise size tree for n items, seen from item j.

    Returns the leaf block holding item j as (size, index in it), the
    sizes of the target-free siblings on the way from that block up to
    the root, and every target-free subtree size in increasing order with
    its split (``None`` for a block), so each is summed after its parts.
    The tree depends on n and j alone, so a run builds it once.
    """
    siblings = []
    while n > _PW_BLOCKSIZE:
        n2, rest = _pairwise_split(n)
        if j < n2:
            siblings.append(rest)
            n = n2
        else:
            siblings.append(n2)
            n, j = rest, j - n2
    sizes, stack = set(), list(siblings)
    while stack:
        m = stack.pop()
        if m not in sizes:
            sizes.add(m)
            if m > _PW_BLOCKSIZE:
                stack.extend(_pairwise_split(m))
    pure = tuple((m, _pairwise_split(m) if m > _PW_BLOCKSIZE else None) for m in sorted(sizes))
    return (n, j), tuple(reversed(siblings)), pure


def _block_sum(m: int, i: int, u: float, t: float, lanes: list) -> float:
    """numpy's sum of a block of m <= 128 items, all u except item i = t
    (i = -1 for none): from 0.0 in order below 8 items, else 8 interleaved
    lanes combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    m mod 8 tail in order.  ``lanes[q]`` is the in-order sum of q copies
    of u, so lanes without t combine by doubling."""
    if m < 8:
        s = 0.0
        for k in range(m):
            s += t if k == i else u
        return s
    q = m // 8
    s = lanes[q]
    if 0 <= i < 8 * q:
        pos = i // 8
        x = t if pos == 0 else u
        for k in range(1, q):
            x += t if k == pos else u
        r = [s] * 8
        r[i % 8] = x
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    else:
        s += s
        s += s
        s += s
    for k in range(8 * q, m):
        s += t if k == i else u
    return s


def _two_valued_sum(n: int, j: int, u: float, t: float) -> float:
    """``np.add.reduce`` of the n-vector that is u everywhere but t at j,
    bit for bit, in O(log n) float additions: every subtree of numpy's
    pairwise sum without item j sums u alone, so its sum depends on its
    size only."""
    (m, i), siblings, pure = _pairwise_plan(n, j)
    lanes = [0.0, u]
    for _ in range(min(n, _PW_BLOCKSIZE) // 8 - 1):
        lanes.append(lanes[-1] + u)
    sums = {}
    for size, split in pure:
        sums[size] = _block_sum(size, -1, u, t, lanes) if split is None else sums[split[0]] + sums[split[1]]
    s = _block_sum(m, i, u, t, lanes)
    for size in siblings:
        s += sums[size]
    return s


def _two_valued_step(n: int, target: int, t: float, u: float) -> tuple:
    """``_step`` on a state that is t at the target and u elsewhere: the
    same float operations, so the same bits."""
    t = -t
    mean = _two_valued_sum(n, target, u, t) / n
    t, u = 2 * mean - t, 2 * mean - u
    _require_unit(math.sqrt(t * t + (n - 1) * (u * u)))
    return t, u


_ULP_TOP = 1 << 53  # the grid of one ulp spans 2**53 ulps, up to the next power of two


def _ulp_exponent(s: float) -> int:
    """The exponent e of the float grid 2**e that holds s >= 0 and every
    float from s up to the next power of two (the subnormals and the
    lowest binade share the grid 2**-1074)."""
    return max(math.frexp(s)[1] - 53, -1074) if s else -1074


def _add_runs(runs: list, first: int, end: int, s: float, a: float) -> float:
    """Append to ``runs`` the partial sums of entries first..end-1, each a
    float addition of ``a`` to the one before, from ``s`` before first;
    return the last (``s`` when first = end).

    A run is (first entry, value in ulps, increment in ulps, ulp exponent).
    While s and s + a lie on one grid, s + a adds to s the same rounded
    number of ulps every step, except that a tie at half an ulp rounds to
    even and so may add one ulp more on the first step only.  So once two
    steps from a sum on the grid stay on it, the second gives the
    increment of every later step below the grid's top; the steps at a
    grid's edge are real float additions.
    """
    while first < end:
        s1 = s + a
        e = _ulp_exponent(s1)
        v, d, count = int(math.ldexp(s1, -e)), 0, 1
        if first + 1 < end and _ulp_exponent(s) == e:
            s2 = s1 + a
            if _ulp_exponent(s2) == e:
                d = int(math.ldexp(s2 - s1, -e))
                count = end - first if d == 0 else min(end - first, (_ULP_TOP - 1 - v) // d + 1)
        runs.append((first, v, d, e))
        first += count
        s = math.ldexp(v + (count - 1) * d, e)
    return s


def _two_valued_cumsum(n: int, j: int, u: float, t: float):
    """``np.cumsum`` of the n-vector that is u everywhere but t at j, bit
    for bit, as a function of the entry index: numpy adds the entries in
    order, so the sums are O(log n) runs of equal ulp steps
    (``_add_runs``) around the one addition of t."""
    runs = []
    s = _add_runs(runs, 0, j, 0.0, u)
    s = _add_runs(runs, j, j + 1, s, t)
    _add_runs(runs, j + 1, n, s, u)
    firsts = [run[0] for run in runs]

    def partial_sum(i: int) -> float:
        first, v, d, e = runs[bisect.bisect_right(firsts, i) - 1]
        return math.ldexp(v + (i - first) * d, e)

    return partial_sum


def _two_valued_choice(n: int, j: int, t: float, u: float, x: float) -> int:
    """``Generator.choice(n, p=probs / probs.sum())`` on the vector of
    squared amplitudes (t at j, u elsewhere), for the one uniform double x
    that ``choice`` draws.  ``choice`` returns the first i whose
    normalised partial sum c_i / c_{n-1} exceeds x; the sum of the squares
    is ``_two_valued_sum`` and the partial sums ``_two_valued_cumsum``,
    so no n-sized array is built."""
    uu, tt = u * u, t * t
    total = _two_valued_sum(n, j, uu, tt)
    partial_sum = _two_valued_cumsum(n, j, uu / total, tt / total)
    last = partial_sum(n - 1)
    return bisect.bisect_right(range(n), x, key=lambda i: partial_sum(i) / last)


def _walk(n: int, target: int):
    """The pairs (t, u) after 0, 1, 2, ... steps from the uniform state,
    the norm checked after every step; a step is taken only when its
    pair is asked for."""
    t = u = 1.0 / math.sqrt(n)
    while True:
        yield t, u
        t, u = _two_valued_step(n, target, t, u)


def _iteration_count(iterations) -> int:
    """An exact iteration count, refused when negative."""
    k = operator.index(iterations)
    if k < 0:
        raise ValueError(f"iterations must be non-negative, got {k}")
    return k


def _check_states(n_states: int, target: int) -> None:
    if n_states < 2:
        raise ValueError(f"need at least 2 states, got {n_states}")
    if n_states > MAX_STATES:
        raise ValueError(f"{n_states} states exceed the state guard {MAX_STATES}")
    if not 0 <= target < n_states:
        raise ValueError(f"target {target} outside [0, {n_states})")


def simulate_search(n_states: int, target: int, iterations: int) -> np.ndarray:
    """Amplitudes after running Grover search from the uniform state.

    Works for any N >= 2 and any target, with no oracle attached; the
    self-test N = 4, k = 1 hits the textbook exact case.  The state is
    evolved as its two values, the target's amplitude and the one every
    other entry shares, each step the float operations of ``_step``
    (the reference): the mean is ``_two_valued_sum`` (numpy's pairwise
    order, rebuilt exactly) over N, so the result equals iterated
    ``_step`` bit for bit.  The norm of the two values is checked after
    every step, and the returned ``float64`` vector, built from them for
    the caller, by ``_check_norm``.  It is a ``complex128`` run's real
    part up to rounding (numpy sums the mean of a real array in another
    pairwise order, which moves the last bits).
    """
    _check_states(n_states, target)
    t, u = next(itertools.islice(_walk(n_states, target), _iteration_count(iterations), None))
    amplitudes = np.full(n_states, u, dtype=np.float64)
    amplitudes[target] = t
    _check_norm(amplitudes)
    return amplitudes


@dataclass(frozen=True)
class GroverRun:
    """Record of one simulated search: sizes, counts and the outcome."""

    p: int
    target: int
    iterations: int
    success_probability: float
    measured_outcome: int
    oracle_queries: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict())


def grover_search(oracle, iterations: Optional[int] = None, rng=None) -> GroverRun:
    """Search for the secret of a level-1 identity oracle.

    The number of iterations defaults to the optimal choice, and a
    negative one is refused before any query; each iteration applies the
    phase oracle once and is charged as one query on ``oracle``, so the
    reported query count equals the iteration count and a budget below
    it raises ``QueryBudgetExceeded``.
    The state is evolved as its two values (``_walk``), and measurement
    takes one uniform double from ``rng`` and returns what
    ``Generator.choice`` would draw from the squared state vector with
    it (``_two_valued_choice``), so a fixed rng implies a fixed outcome
    and no p-sized array is built.  ``MAX_STATES`` still bounds p, as in
    ``simulate_search`` and the curve (``_check_states``).
    """
    if oracle.level != 1:
        raise ValueError(f"level-1 oracle required, got level {oracle.level}")
    p = oracle.modulus.p
    target = oracle.reveal_hidden(Escrow()).coords[1]
    _check_states(p, target)
    k = optimal_iterations(p) if iterations is None else _iteration_count(iterations)
    # Charge the k phase-oracle applications before the state evolves,
    # so a budget below k runs no step.  Each asks about the escrowed
    # target, which must lie on the oracle's hidden line.
    for _ in range(k):
        if first_on_line(oracle, (target,)) is None:
            raise DishonestOracleError(f"oracle rejects its escrowed secret {target}")
    t, u = next(itertools.islice(_walk(p, target), k, None))
    if rng is None:
        rng = np.random.default_rng()
    return GroverRun(
        p=p,
        target=target,
        iterations=k,
        success_probability=t * t,
        measured_outcome=_two_valued_choice(p, target, t, u, rng.random()),
        oracle_queries=k,
    )


@dataclass(frozen=True)
class CurvePoint:
    """Smallest iteration count reaching success probability 2/3 at one p."""

    p: int
    iterations: int
    success_probability: float

    def to_dict(self) -> dict:
        return asdict(self)


def quantum_query_curve(ps: Sequence[int]) -> List[CurvePoint]:
    """For each p, the smallest k with simulated success >= 2/3.

    Walks one state per p, reading the success probability t * t after
    every iteration, as ``grover_search`` reports it.  The found k always
    satisfies k <= ceil(pi/4 * sqrt(p)); exceeding that bound would mean
    the simulator is broken and raises.  Each p is read through
    ``operator.index``, so a numpy integer gives the int's points.
    """
    points = []
    for p in map(operator.index, ps):
        _check_states(p, 0)
        bound = math.ceil(math.pi / 4 * math.sqrt(p))
        for k, (t, _) in enumerate(_walk(p, 0)):
            if t * t >= 2 / 3:
                break
            if k >= bound:
                raise AssertionError(
                    f"success 2/3 not reached within ceil(pi/4 sqrt(p)) = {bound}"
                )
        points.append(CurvePoint(p=p, iterations=k, success_probability=t * t))
    return points


def fit_sqrt_coefficient(points: Sequence[CurvePoint]) -> float:
    """Least-squares c for k ~ c * sqrt(p) through the origin."""
    num = sum(pt.iterations * math.sqrt(pt.p) for pt in points)
    den = sum(pt.p for pt in points)
    return num / den
