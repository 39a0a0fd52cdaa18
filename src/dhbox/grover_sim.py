"""Classical state-vector simulation of Grover search over Z_p.

The searcher sees the hidden secret only through the one-query
point-search view of the identity oracle.  A run keeps the full amplitude
vector, applies the phase oracle (one counted query per application per
standard quantum query accounting) followed by inversion about the mean,
and reports the success probability of measuring the secret.

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
every step reads and writes.  The step functions are dtype-generic, so
a complex state evolves as before.
"""

from __future__ import annotations

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


def _check_norm(amplitudes: np.ndarray) -> None:
    norm = math.sqrt(np.vdot(amplitudes, amplitudes).real)
    if abs(norm - 1.0) > _NORM_TOL:
        raise NormDriftError(f"state norm drifted to {norm!r}")


def _step(amplitudes: np.ndarray, target: int) -> np.ndarray:
    """One Grover iteration: phase flip at the target, then inversion
    about the mean.  Returns a new array; the reference for ``_step_in_place``."""
    amplitudes = amplitudes.copy()
    amplitudes[target] = -amplitudes[target]
    amplitudes = 2 * amplitudes.mean() - amplitudes
    _check_norm(amplitudes)
    return amplitudes


def _step_in_place(amplitudes: np.ndarray, target: int) -> None:
    """``_step`` without the copies: the same operations, so the same bits."""
    amplitudes[target] = -amplitudes[target]
    np.subtract(2 * amplitudes.mean(), amplitudes, out=amplitudes)
    _check_norm(amplitudes)


def _iteration_count(iterations) -> int:
    """An exact iteration count, refused when negative."""
    k = operator.index(iterations)
    if k < 0:
        raise ValueError(f"iterations must be non-negative, got {k}")
    return k


def simulate_search(n_states: int, target: int, iterations: int) -> np.ndarray:
    """Amplitudes after running Grover search from the uniform state.

    Works for any N >= 2 and any target, with no oracle attached; the
    self-test N = 4, k = 1 hits the textbook exact case.  The state is
    ``float64``: every step maps real amplitudes to real ones, so this
    is a ``complex128`` run's real part up to rounding (numpy sums the
    mean of a real array in another pairwise order, which moves the
    last bits).
    """
    if n_states < 2:
        raise ValueError(f"need at least 2 states, got {n_states}")
    if n_states > MAX_STATES:
        raise ValueError(f"{n_states} states exceed the memory guard {MAX_STATES}")
    if not 0 <= target < n_states:
        raise ValueError(f"target {target} outside [0, {n_states})")
    iterations = _iteration_count(iterations)
    amplitudes = np.full(n_states, 1.0 / math.sqrt(n_states), dtype=np.float64)
    _check_norm(amplitudes)
    for _ in range(iterations):
        _step_in_place(amplitudes, target)
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
    Measurement samples the final distribution with ``rng`` (fixed rng
    implies a fixed outcome).
    """
    if oracle.level != 1:
        raise ValueError(f"level-1 oracle required, got level {oracle.level}")
    p = oracle.modulus.p
    if p > MAX_STATES:
        raise ValueError(f"p = {p} exceeds the memory guard {MAX_STATES}")
    target = oracle.reveal_hidden(Escrow()).coords[1]
    k = optimal_iterations(p) if iterations is None else _iteration_count(iterations)
    # Charge the k phase-oracle applications before the state is built,
    # so a budget below k allocates nothing.  Each asks about the escrowed
    # target, which must lie on the oracle's hidden line.
    for _ in range(k):
        if first_on_line(oracle, (target,)) is None:
            raise DishonestOracleError(f"oracle rejects its escrowed secret {target}")
    amplitudes = simulate_search(p, target, k)
    probs = np.square(amplitudes)
    if rng is None:
        rng = np.random.default_rng()
    measured = int(rng.choice(p, p=probs / probs.sum()))
    return GroverRun(
        p=p,
        target=target,
        iterations=k,
        success_probability=float(probs[target]),
        measured_outcome=measured,
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

    Evolves one state per p, reading the success probability after every
    iteration.  The found k always satisfies k <= ceil(pi/4 * sqrt(p));
    exceeding that bound would mean the simulator is broken and raises.
    """
    points = []
    for p in ps:
        amplitudes = simulate_search(p, 0, 0)
        bound = math.ceil(math.pi / 4 * math.sqrt(p))
        k = 0
        success = float(abs(amplitudes[0]) ** 2)
        while success < 2 / 3:
            if k >= bound:
                raise AssertionError(
                    f"success 2/3 not reached within ceil(pi/4 sqrt(p)) = {bound}"
                )
            _step_in_place(amplitudes, 0)
            k += 1
            success = float(abs(amplitudes[0]) ** 2)
        points.append(CurvePoint(p=p, iterations=k, success_probability=success))
    return points


def fit_sqrt_coefficient(points: Sequence[CurvePoint]) -> float:
    """Least-squares c for k ~ c * sqrt(p) through the origin."""
    num = sum(pt.iterations * math.sqrt(pt.p) for pt in points)
    den = sum(pt.p for pt in points)
    return num / den
