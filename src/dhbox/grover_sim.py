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
instead charged as one identity query (s, -1), which must answer 1,
asked through ``blackbox.grover_from_identity``, the one point-question
rule, so the oracle's counter and budget see the quantum queries too.
Norm drift is asserted, never corrected: a drifting norm means the
simulation is wrong.

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
pairwise (Higham, 1993), fewer than 8 items in order from -0.0, 8 to 128
items in 8 interleaved lanes combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
followed by the n mod 8 tail in order, and more items as the sum over
the first n2 = n//2 - (n//2 mod 8) plus the sum over the rest, and
``np.add.reduce`` adds that sum to its identity 0.0 (which turns a sum
of -0.0 into 0.0 and leaves every other sum as it is).  Every
subtree of that split without the target sums u alone, so its sum
depends on its size only.  ``_compiled_sum`` follows the split from the
root down to the target's leaf block once per (n, target) and makes
each float operation on the way one statement of a straight-line Python
function of (u, t), each target-free size once, so it does numpy's
operations and gives the same bits with no loop and no list;
``_two_valued_sum`` calls it, in O(log n) float operations.  A
target-free block of 8 equal lanes is one exact multiplication by 8.0,
as the three doublings of its lane combination are.  The last 16
functions are kept: a run steps at one (p, target), and a study at a few.

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
from .blackbox import Escrow, grover_from_identity

MAX_STATES = 1 << 22
_NORM_TOL = 1e-9


class NormDriftError(FloatingPointError):
    """The simulated state stopped being a unit vector."""


def _closed_form_states(n_states) -> int:
    """N for a closed form, read through ``operator.index`` and refused
    below 1.  No state guard: a closed form allocates nothing."""
    n = operator.index(n_states)
    if n < 1:
        raise ValueError(f"need at least 1 state, got {n}")
    return n


def closed_form_success(n_states: int, iterations: int) -> float:
    """sin^2((2k+1) * asin(1/sqrt(N))): success after k Grover iterations.
    N >= 1 and k >= 0 are exact ints (a numpy integer is the int it holds)."""
    theta = math.asin(1.0 / math.sqrt(_closed_form_states(n_states)))
    return math.sin((2 * _iteration_count(iterations) + 1) * theta) ** 2


def optimal_iterations(n_states: int) -> int:
    """The standard iteration count round(pi/4 * sqrt(N) - 1/2), N >= 1."""
    return round(math.pi / 4 * math.sqrt(_closed_form_states(n_states)) - 0.5)


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


@functools.lru_cache(maxsize=16)
def _compiled_sum(n: int, j: int):
    """numpy's pairwise sum of n items, item j apart, as one straight-line
    function of (u, t): t is item j and u every other item.

    numpy's split is followed from the root down to the leaf block that
    holds j, and every float operation on the way is one statement, so
    the function does the vector's operations and gives its bits.  A
    larger block splits at n2 = n//2 - (n//2 mod 8), which is
    8 * (n // 16).  Each target-free subtree size m is written once, as
    the local ``m<m>``: a block of m <= 128 items is its lane sum times
    8.0, exact as the three doublings ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    of 8 equal lanes, then its m mod 8 tail in order; a larger subtree is
    the sum of its two halves.  The source holds the lanes ``l<q>``, the
    in-order sums of q copies of u from -0.0, up to the longest one
    needed, then the subtrees in increasing size (each reads only smaller
    ones), the leaf block, the siblings from the leaf up to the root, and
    the reduction's addition to its identity.

    Seven of the leaf block's lanes are equal, and float addition
    commutes, so its lane combination is ((x + l) + 2l) + 4l for the
    target's lane x and the others' l; doubling is exact.  n and j are
    read through ``operator.index`` before anything is built: the source
    holds only integer literals and fixed names, and a float size or
    target raises ``TypeError`` with nothing cached.
    """
    n, j = operator.index(n), operator.index(j)
    lanes, sums = [], {}

    def lane(q: int) -> str:
        while len(lanes) <= q:
            k = len(lanes)
            lanes.append(f"l{k} = l{k - 1} + u" if k else "l0 = -0.0")
        return f"l{q}"

    def subtree(m: int) -> str:
        if m not in sums:
            if m > _PW_BLOCKSIZE:
                sums[m] = [f"m{m} = {subtree(8 * (m // 16))} + {subtree(m - 8 * (m // 16))}"]
            else:
                sums[m] = [f"m{m} = {lane(m // 8)} * 8.0"] + [f"m{m} += u"] * (m % 8)
        return f"m{m}"

    siblings = []
    while n > _PW_BLOCKSIZE:
        n2 = 8 * (n // 16)
        if j < n2:
            siblings.append(subtree(n - n2))
            n = n2
        else:
            siblings.append(subtree(n2))
            n, j = n - n2, j - n2
    q = n // 8
    if j < 8 * q:
        leaf = [f"s = {lane(j // 8)} + t"] + ["s += u"] * (q - j // 8 - 1)
        leaf += [f"s += {lane(q)}", f"s += {lane(q)} * 2.0", f"s += {lane(q)} * 4.0"]
        end = n % 8
    else:
        # numpy sums a block below 8 items in order from -0.0.
        leaf = [f"s = {lane(q)} * 8.0" if q else "s = -0.0"] + ["s += u"] * (j - 8 * q) + ["s += t"]
        end = n - j - 1
    lines = lanes + [line for m in sorted(sums) for line in sums[m]] + leaf
    lines += ["s += u"] * end + [f"s += {name}" for name in reversed(siblings)]
    # The reduction adds the pairwise sum to its identity.
    lines.append("s = 0.0 + s")
    source = "def pairwise_sum(u, t):\n" + "".join(f"    {line}\n" for line in lines) + "    return s\n"
    namespace = {}
    exec(source, namespace)
    return namespace["pairwise_sum"]


def _two_valued_sum(n: int, j: int, u: float, t: float) -> float:
    """``np.add.reduce`` of the n-vector that is u everywhere but t at j,
    bit for bit, in O(log n) float operations: every subtree of numpy's
    pairwise sum without item j sums u alone, so its sum depends on its
    size only, and ``_compiled_sum`` adds those sums in numpy's order by
    a function compiled once per (n, j)."""
    return _compiled_sum(n, j)(u, t)


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


def _check_states(n_states: int, target: int) -> tuple:
    """The state count and target as exact ints, read through
    ``operator.index`` (a float is refused, ``True`` is 1), each refused
    outside its range."""
    n_states, target = operator.index(n_states), operator.index(target)
    if n_states < 2:
        raise ValueError(f"need at least 2 states, got {n_states}")
    if n_states > MAX_STATES:
        raise ValueError(f"{n_states} states exceed the state guard {MAX_STATES}")
    if not 0 <= target < n_states:
        raise ValueError(f"target {target} outside [0, {n_states})")
    return n_states, target


def simulate_search(n_states: int, target: int, iterations: int) -> np.ndarray:
    """Amplitudes after running Grover search from the uniform state.

    Works for any N >= 2 and any target, with no oracle attached; the
    self-test N = 4, k = 1 hits the textbook exact case.  N and the
    target are read through ``operator.index`` before the first step, so
    a numpy integer is the int it holds, a float is refused and ``True``
    is index 1.  The state is
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
    n_states, target = _check_states(n_states, target)
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
    p, target = _check_states(p, target)
    k = optimal_iterations(p) if iterations is None else _iteration_count(iterations)
    # Charge the k phase-oracle applications before the state evolves,
    # so a budget below k runs no step.  Each is the point question at
    # the escrowed target, which the oracle must accept.
    for _ in range(k):
        if not grover_from_identity(oracle, target):
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
    Every p is checked before the first step: one above the state guard
    is refused, and so is p < 3, since with 2 states the success
    sin^2((2k+1) * pi/4) is 1/2 at every k and never reaches 2/3.
    """
    ps = list(map(operator.index, ps))
    for p in ps:
        _check_states(p, 0)
        if p < 3:
            raise ValueError(f"{p} states never reach success 2/3: it is 1/2 at every k")
    points = []
    for p in ps:
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
    """Least-squares c for k ~ c * sqrt(p) through the origin, refused
    for no points."""
    if not points:
        raise ValueError("need at least one curve point to fit")
    num = sum(pt.iterations * math.sqrt(pt.p) for pt in points)
    den = sum(pt.p for pt in points)
    return num / den
