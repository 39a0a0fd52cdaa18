import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhbox.algorithms import DishonestOracleError
from dhbox import grover_sim
from dhbox.blackbox import (
    IdentityOracle,
    NormalVector,
    QueryBudgetExceeded,
    RawOracle,
    normalize_oracle,
)
from dhbox.grover_sim import (
    MAX_STATES,
    GroverRun,
    NormDriftError,
    _step,
    _two_valued_cumsum,
    _two_valued_step,
    _two_valued_sum,
    closed_form_success,
    fit_sqrt_coefficient,
    grover_search,
    optimal_iterations,
    quantum_query_curve,
    simulate_search,
)
from dhbox.modmath import PrimeModulus


def test_textbook_exact_case():
    # N = 4, one iteration: the target amplitude reaches exactly 1
    amp = simulate_search(4, 2, 1)
    assert abs(amp[2]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert closed_form_success(4, 1) == pytest.approx(1.0, abs=1e-12)


def test_zero_iterations_uniform():
    for p in (7, 101):
        amp = simulate_search(p, 3, 0)
        assert abs(amp[3]) ** 2 == pytest.approx(1 / p, abs=1e-12)


def test_simulator_matches_closed_form():
    for p in (11, 101, 1009):
        bound = math.ceil(math.pi / 4 * math.sqrt(p))
        amp = np.full(p, 1 / math.sqrt(p), dtype=np.complex128)
        for k in range(bound + 1):
            sim = abs(amp[5]) ** 2
            assert sim == pytest.approx(closed_form_success(p, k), abs=1e-9)
            from dhbox.grover_sim import _step

            amp = _step(amp, 5)


def test_norm_preserved_along_run():
    amp = simulate_search(1009, 17, 24)
    assert abs(np.linalg.norm(amp) - 1) < 1e-9


def test_in_place_steps_match_copying_reference():
    for p, target, k in ((4, 2, 1), (101, 0, 9), (1009, 17, 24), (65537, 65536, 5)):
        ref = np.full(p, 1 / math.sqrt(p), dtype=np.float64)
        for _ in range(k):
            ref = _step(ref, target)
        assert np.array_equal(simulate_search(p, target, k), ref)
    for p in (3, 101, 1009):
        amp = np.full(p, 1 / math.sqrt(p), dtype=np.float64)
        k = 0
        while abs(amp[0]) ** 2 < 2 / 3:
            amp = _step(amp, 0)
            k += 1
        (point,) = quantum_query_curve([p])
        assert (point.iterations, point.success_probability) == (k, float(abs(amp[0]) ** 2))


def _complex_reference(p, target, k):
    amp = np.full(p, 1 / math.sqrt(p), dtype=np.complex128)
    for _ in range(k):
        amp = _step(amp, target)
    return amp


def test_real_state_matches_complex_reference():
    # Both steps map real vectors to real vectors: the complex reference
    # keeps an imaginary part of exactly 0, and the real state equals its
    # real part up to the order in which numpy sums the mean.
    for p, target, k in ((101, 0, 9), (1009, 17, 24), (65537, 65536, 5)):
        ref = _complex_reference(p, target, k)
        amp = simulate_search(p, target, k)
        assert amp.dtype == np.float64
        assert not ref.imag.any()
        assert np.max(np.abs(amp - ref.real)) <= 1e-15


def test_seeded_search_matches_complex_reference():
    # Sampling the complex reference's distribution with the same seed
    # measures the same outcome, after the same iteration count.
    for p in (101, 1009, 10007):
        pm = PrimeModulus(p)
        for seed in range(40):
            target = (seed * 7919) % p
            run = grover_search(IdentityOracle.level1(pm, target), rng=np.random.default_rng(seed))
            k = optimal_iterations(p)
            probs = np.abs(_complex_reference(p, target, k)) ** 2
            measured = int(np.random.default_rng(seed).choice(p, p=probs / probs.sum()))
            assert (run.measured_outcome, run.iterations) == (measured, k), (p, seed)


def test_query_accounting_and_determinism():
    pm = PrimeModulus(101)
    o = IdentityOracle.level1(pm, 42)
    run1 = grover_search(o, iterations=7, rng=np.random.default_rng(5))
    assert o.queries == run1.oracle_queries
    run2 = grover_search(o, iterations=7, rng=np.random.default_rng(5))
    assert run1.oracle_queries == 7
    assert run1.iterations == 7
    assert run1.measured_outcome == run2.measured_outcome
    assert run1.success_probability == pytest.approx(closed_form_success(101, 7), abs=1e-9)
    assert run1.target == 42
    # high success probability: the sampled outcome is the target here
    assert run1.measured_outcome == 42


def test_query_budget_and_escrow_consistency():
    pm = PrimeModulus(101)
    o = IdentityOracle.level1(pm, 42, budget=3)
    with pytest.raises(QueryBudgetExceeded):
        grover_search(o, iterations=7, rng=np.random.default_rng(5))
    assert o.queries == 3  # charged before any state is built, refused at 4

    class _OtherSecretInEscrow(IdentityOracle):
        __slots__ = ()

        def reveal_hidden(self, escrow):
            return NormalVector.level1(self.modulus, 41)

    with pytest.raises(DishonestOracleError):
        grover_search(_OtherSecretInEscrow.level1(pm, 42), iterations=7)


def test_default_iterations_near_optimum():
    assert optimal_iterations(101) == 7
    assert optimal_iterations(4) == 1
    pm = PrimeModulus(101)
    run = grover_search(IdentityOracle.level1(pm, 3), rng=np.random.default_rng(0))
    assert run.iterations == 7
    assert run.success_probability > 0.99


def test_closed_forms_refuse_impossible_counts():
    # Each of these used to answer for a run that cannot exist, or fail
    # with ZeroDivisionError or a bare math domain error.
    with pytest.raises(ValueError, match="non-negative"):
        closed_form_success(4, -1)
    for bad in (0, -4):
        with pytest.raises(ValueError, match="at least 1 state"):
            closed_form_success(bad, 0)
        with pytest.raises(ValueError, match="at least 1 state"):
            optimal_iterations(bad)
    for args in ((4.0, 1), (4, 1.0)):
        with pytest.raises(TypeError):
            closed_form_success(*args)
    with pytest.raises(TypeError):
        optimal_iterations(4.0)
    # No state guard: the closed forms allocate nothing.
    assert closed_form_success(1, 0) == 1.0
    assert optimal_iterations(1) == 0
    assert optimal_iterations(1 << 24) == round(math.pi * 1024 - 0.5)  # above MAX_STATES
    assert closed_form_success(np.int64(101), np.int64(7)) == closed_form_success(101, 7)
    k = optimal_iterations(np.int64(101))
    assert k == 7 and type(k) is int


def test_curve_fixtures():
    points = quantum_query_curve([3, 11, 101, 1009])
    by_p = {pt.p: pt for pt in points}
    assert by_p[3].iterations == 1
    assert by_p[3].success_probability == pytest.approx(25 / 27, abs=1e-12)
    assert by_p[11].iterations == 2
    assert by_p[101].iterations == 5
    assert by_p[1009].iterations == 15
    for pt in points:
        assert pt.iterations <= math.ceil(math.pi / 4 * math.sqrt(pt.p))
        assert pt.success_probability >= 2 / 3


def test_curve_sqrt_fit():
    points = quantum_query_curve([11, 23, 53, 101, 211, 401, 809, 1009, 2003, 4099])
    c = fit_sqrt_coefficient(points)
    assert 0.4 <= c <= 0.9
    with pytest.raises(ValueError, match="at least one curve point"):
        fit_sqrt_coefficient([])


def test_guards():
    with pytest.raises(ValueError):
        simulate_search(MAX_STATES + 1, 0, 1)
    with pytest.raises(ValueError):
        simulate_search(10, 10, 1)
    with pytest.raises(ValueError):
        simulate_search(1, 0, 1)
    with pytest.raises(ValueError):
        quantum_query_curve([MAX_STATES + 1])
    with pytest.raises(ValueError, match="2/3"):
        quantum_query_curve([2])  # success is 1/2 at every k
    pm = PrimeModulus(7)
    from dhbox.blackbox import random_identity_oracle

    with pytest.raises(ValueError):
        grover_search(random_identity_oracle(pm, 2, np.random.default_rng(0)))


def _count_steps(monkeypatch):
    """Count the two-valued steps taken from here on."""
    steps = []
    step = grover_sim._two_valued_step

    def counting_step(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(grover_sim, "_two_valued_step", counting_step)
    return steps


def test_curve_refuses_two_states_before_any_step(monkeypatch):
    steps = _count_steps(monkeypatch)
    for ps in ([2], [3, 2], [101, 2, 11]):
        with pytest.raises(ValueError, match="2/3"):
            quantum_query_curve(ps)
    assert steps == []


class _MinimalProxy:
    """An oracle that is no ``OracleBase``: four names, passed through."""

    def __init__(self, inner):
        self.modulus = inner.modulus
        self.level = inner.level
        self.query_coords = inner.query_coords
        self.reveal_hidden = inner.reveal_hidden


def _view_of_raw(normal, room):
    """A normalized view of a raw level-1 oracle at p = 101, and the leaf
    behind it, whose budget leaves ``room`` queries after normalizing."""
    # Normalizing a level-1 oracle asks the one unit vector e_0.
    raw = RawOracle(normal, PrimeModulus(101), budget=None if room is None else room + 1)
    _, view = normalize_oracle(raw)
    assert raw.queries == 1
    return view, raw


def _proxy_of_identity(secret, room):
    leaf = IdentityOracle.level1(PrimeModulus(101), secret, budget=room)
    return _MinimalProxy(leaf), leaf


@pytest.mark.parametrize("secret, build", [
    # a leading coordinate 3, scaled away by the view, and a leading 0,
    # which the view swaps to the back (the secret is then 0)
    (42, lambda room: _view_of_raw((3, 3 * 42), room)),
    (0, lambda room: _view_of_raw((0, 5), room)),
    (42, lambda room: _proxy_of_identity(42, room)),
])
def test_search_through_a_view_or_a_proxy(secret, build, monkeypatch):
    k = optimal_iterations(101)
    ref = grover_search(IdentityOracle.level1(PrimeModulus(101), secret), rng=np.random.default_rng(5))
    oracle, leaf = build(None)
    before = leaf.queries
    assert grover_search(oracle, rng=np.random.default_rng(5)) == ref
    assert ref.target == secret and ref.oracle_queries == k
    assert leaf.queries - before == k
    # A leaf with room for k - 1 charges is refused at the k-th, and no
    # step of the state is taken.
    oracle, leaf = build(k - 1)
    before = leaf.queries
    steps = _count_steps(monkeypatch)
    with pytest.raises(QueryBudgetExceeded):
        grover_search(oracle, rng=np.random.default_rng(5))
    assert leaf.queries - before == k - 1
    assert steps == []


def test_negative_iterations_refused_uncharged():
    # A negative count used to run as 0 steps and report itself as the
    # query count; now it is refused before any query is charged.
    oracle = IdentityOracle.level1(PrimeModulus(101), 5)
    with pytest.raises(ValueError, match="iterations"):
        grover_search(oracle, iterations=-3)
    assert oracle.queries == 0
    with pytest.raises(ValueError, match="iterations"):
        simulate_search(8, 0, -1)
    with pytest.raises(TypeError):
        grover_search(oracle, iterations=2.0)
    # A numpy integer is taken as the exact int it holds.
    run = grover_search(oracle, iterations=np.int64(3), rng=np.random.default_rng(0))
    assert type(run.iterations) is int and run.iterations == run.oracle_queries == 3
    assert oracle.queries == 3


# numpy's pairwise sum changes rule at 8 and 128 items and splits larger
# blocks at multiples of 8, so the sizes sit on and around those edges.
_SUM_SIZES = sorted(
    set(range(1, 301))
    | {8 * k + d for k in range(1, 130) for d in (-1, 1)}
    | {(1 << k) + d for k in range(1, 23) for d in (-1, 0, 1)}
    | {65537, (1 << 17) - 1}
)


def _boundary_targets(n):
    return sorted({j for j in (0, 7, 8, 127, 128, n - n % 8, n - 1) if 0 <= j < n})


def test_two_valued_sum_is_numpy_pairwise_sum():
    rng = np.random.default_rng(19)
    for n in _SUM_SIZES:
        u = float(rng.standard_normal()) / math.sqrt(n)
        t = float(rng.standard_normal())
        a = np.full(n, u)
        for j in _boundary_targets(n):
            a[j] = t
            assert _two_valued_sum(n, j, u, t) == np.add.reduce(a), (n, j)
            a[j] = u
    # Every target at every size up to the first splits (129 to 136):
    # each lane and tail position of a leaf block, bit for bit.
    pairs = ((-0.0, -0.0), (0.1, 5e-324), (1 / 3, -7251.3))
    for n in range(2, 137):
        for j in range(n):
            for u, t in pairs:
                a = np.full(n, u)
                a[j] = t
                assert _bits(_two_valued_sum(n, j, u, t)) == _bits(float(np.add.reduce(a))), (n, j, u, t)


def _bits(x):
    return struct.pack("<d", x)


# Bounded so that no sum of up to 20000 items overflows to an infinity.
_SUM_VALUES = st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 20000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))), _SUM_VALUES, _SUM_VALUES)
# numpy adds a sum of -0.0 to its identity 0.0, at every size.
@example((3, 1), -0.0, -0.0)
@example((8, 0), -0.0, -0.0)
@example((65537, 65536), -0.0, -0.0)
def test_compiled_sum_is_numpy_pairwise_sum_bit_for_bit(nj, u, t):
    n, j = nj
    a = np.full(n, u)
    a[j] = t
    assert _bits(_two_valued_sum(n, j, u, t)) == _bits(float(np.add.reduce(a))), (n, j, u, t)


def test_search_is_the_same_with_caches_cold_warm_and_evicted():
    p = 65537
    pm = PrimeModulus(p)

    def run(target):
        return grover_search(IdentityOracle.level1(pm, target), rng=np.random.default_rng(target))

    cache = grover_sim._compiled_sum
    first, *others = [(k * 40503 + 11) % p for k in range(18)]
    cache.cache_clear()
    cold = run(first)
    assert cache.cache_info().misses == 1  # the walk and the measurement share one function
    warm = run(first)
    assert cache.cache_info().misses == 1
    for target in others:  # 17 more keys evict the first from the 16 kept
        run(target)
    assert cache.cache_info().currsize == 16
    misses = cache.cache_info().misses
    evicted = run(first)
    assert cache.cache_info().misses == misses + 1
    assert cold == warm == evicted
    assert cold.to_dict() == _array_grover_run(p, first, optimal_iterations(p), first).to_dict()


def test_sizes_and_targets_are_read_as_ints():
    # A float size or target used to cache a plan of floats under the key
    # it equals, so every later search at that int key raised TypeError.
    def reference(n, target, k):
        amp = np.full(n, 1 / math.sqrt(n), dtype=np.float64)
        for _ in range(k):
            amp = _step(amp, target)
        return amp

    grover_sim._compiled_sum.cache_clear()
    with pytest.raises(TypeError):
        simulate_search(9.0, 0, 1)
    with pytest.raises(TypeError):
        simulate_search(9, 2.0, 1)
    with pytest.raises(TypeError):
        _two_valued_sum(9.0, 0, 0.5, 0.5)
    assert grover_sim._compiled_sum.cache_info().currsize == 0
    assert np.array_equal(simulate_search(9, 0, 1), reference(9, 0, 1))
    assert np.array_equal(simulate_search(9, 2, 3), reference(9, 2, 3))
    # True is index 1, not a mask over every entry.
    assert np.array_equal(simulate_search(9, True, 1), reference(9, 1, 1))
    got = simulate_search(np.int64(129), np.int64(128), np.int64(4))
    assert np.array_equal(got, reference(129, 128, 4))
    assert got.shape == (129,)


def test_simulate_search_is_iterated_step_at_boundary_targets():
    for n, k in ((9, 3), (120, 4), (129, 4), (136, 3), (257, 5), (1031, 5), (4097, 4), (65537, 3)):
        for target in _boundary_targets(n):
            ref = np.full(n, 1 / math.sqrt(n), dtype=np.float64)
            for _ in range(k):
                ref = _step(ref, target)
            amp = simulate_search(n, target, k)
            assert amp.dtype == np.float64
            assert np.array_equal(amp, ref), (n, target)


def _array_measurement(amp, target, k, rng):
    """Sampling the state vector ``amp`` after k steps, as the array path did."""
    p = amp.size
    probs = np.square(amp)
    measured = int(rng.choice(p, p=probs / probs.sum()))
    return GroverRun(
        p=p, target=target, iterations=k, success_probability=float(probs[target]),
        measured_outcome=measured, oracle_queries=k,
    )


def _array_grover_run(p, target, k, seed):
    """The state-vector search: k steps of ``_step``, then sampling."""
    amp = np.full(p, 1 / math.sqrt(p), dtype=np.float64)
    for _ in range(k):
        amp = _step(amp, target)
    return _array_measurement(amp, target, k, np.random.default_rng(seed))


def test_seeded_search_at_65537_equals_the_array_path():
    p = 65537
    pm = PrimeModulus(p)
    k = optimal_iterations(p)
    for seed in range(10):
        target = (seed * 40503 + 7) % p
        run = grover_search(IdentityOracle.level1(pm, target), rng=np.random.default_rng(seed))
        assert run.to_dict() == _array_grover_run(p, target, k, seed).to_dict(), seed


def test_seeded_search_equals_the_array_path_below_2000():
    # At every prime below 2000 and each boundary target, the measured
    # outcome after 0, the optimal and 3x the optimal count (success near
    # 0 there) is the array path's, and the run draws one double as it does.
    primes = [p for p in range(3, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for p in primes:
        pm = PrimeModulus(p)
        opt = optimal_iterations(p)
        for target in _boundary_targets(p):
            amp = np.full(p, 1 / math.sqrt(p), dtype=np.float64)
            for k in range(3 * opt + 1):
                if k in (0, opt, 3 * opt):
                    seed = p * 7 + target * 3 + k
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    run = grover_search(IdentityOracle.level1(pm, target), iterations=k, rng=rng)
                    assert run == _array_measurement(amp, target, k, ref_rng), (p, target, k)
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
                amp = _step(amp, target)


def test_grover_search_builds_no_state_vector():
    # 4194301 is the largest prime below MAX_STATES; one float64 vector
    # of it is 32 MiB.
    import tracemalloc

    p = 4194301
    assert p <= MAX_STATES
    oracle = IdentityOracle.level1(PrimeModulus(p), 1234567)
    rng = np.random.default_rng(7)
    tracemalloc.start()
    try:
        run = grover_search(oracle, rng=rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert run.iterations == run.oracle_queries == optimal_iterations(p)
    assert run.success_probability == pytest.approx(closed_form_success(p, run.iterations), abs=1e-9)
    assert 0 <= run.measured_outcome < p


def _cumsum_case(n, j, qu, qt):
    a = np.full(n, qu)
    a[j] = qt
    partial_sum = _two_valued_cumsum(n, j, qu, qt)
    return np.array([partial_sum(i) for i in range(n)]), np.cumsum(a)


_ULP_1 = 2.0 ** -52  # the ulp of 1.0


@pytest.mark.parametrize("n, j, qu, qt", [
    # a tie at exactly half an ulp from an even start (1.0) stays there,
    # from an odd start it rounds up once to even and then stays
    (300, 0, _ULP_1 / 2, 1.0),
    (300, 0, _ULP_1 / 2, 1.0 + _ULP_1),
    # 1.5 ulps: +2 ulps a step from even, +1 then +2 from odd
    (300, 0, 1.5 * _ULP_1, 1.0),
    (300, 0, 1.5 * _ULP_1, 1.0 + _ULP_1),
    (300, 5, 1.5 * _ULP_1, 1.0 - 4 * _ULP_1),
    # an increment below half an ulp: the sum stops growing
    (300, 0, _ULP_1 / 4, 1.0),
    (1000, 999, 2.0 ** -60, 0.75),
    (1000, 500, 0.001, 1e20),
    # qt = 0 and a subnormal qt, the target first, in the middle and last
    (1009, 0, 1 / 1009, 0.0),
    (1009, 504, 1 / 1009, 0.0),
    (1009, 1008, 1 / 1009, 5e-324),
    (1009, 17, 1 / 1009, 5e-324),
    # subnormal and zero increments
    (500, 3, 5e-324, 0.0),
    (500, 250, 3 * 5e-324, 2.0 ** -1022),
    (64, 10, 0.0, 0.5),
    # the smallest vectors, and sums crossing many binades
    (2, 0, 0.25, 0.75),
    (2, 1, 0.75, 0.25),
    (4, 2, 0.1, 0.7),
    (65537, 40503, 0.99 / 65537, 0.01),
    (131071, 0, 1 / 131071, 1e-9),
    (131071, 131070, 0.3 / 131071, 0.7),
])
def test_two_valued_cumsum_is_numpy_cumsum(n, j, qu, qt):
    got, ref = _cumsum_case(n, j, qu, qt)
    assert np.array_equal(got, ref)


def test_two_valued_cumsum_on_grover_states():
    # The normalised squares of real runs, at the sizes numpy's pairwise
    # sum splits and at k from 0 to past the optimum.
    rng = np.random.default_rng(24)
    for n in (3, 8, 127, 129, 1031, 4097, 65537):
        for k in sorted({0, 1, optimal_iterations(n), 2 * optimal_iterations(n) + 1}):
            for j in _boundary_targets(n):
                amp = simulate_search(n, j, k)
                t, u, total = float(amp[j]), float(amp[(j + 1) % n]), float(np.square(amp).sum())
                got, ref = _cumsum_case(n, j, u * u / total, t * t / total)
                assert np.array_equal(got, ref), (n, j, k)
        qu, qt = rng.random(2) / [n, 1]
        got, ref = _cumsum_case(n, int(rng.integers(n)), float(qu), float(qt))
        assert np.array_equal(got, ref), n


def test_curve_equals_the_array_path_below_2000():
    primes = [p for p in range(3, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    points = quantum_query_curve(primes)
    for p, point in zip(primes, points):
        amp = np.full(p, 1 / math.sqrt(p), dtype=np.float64)
        k = 0
        while abs(amp[0]) ** 2 < 2 / 3:
            amp = _step(amp, 0)
            k += 1
        assert (point.p, point.iterations, point.success_probability) == (p, k, float(abs(amp[0]) ** 2))


def test_norm_checked_after_two_valued_step():
    with pytest.raises(NormDriftError):
        _two_valued_step(8, 0, 0.5, 0.5)  # norm sqrt(2)
    t, u = _two_valued_step(4, 2, 0.5, 0.5)
    assert (t, u) == (1.0, 0.0)  # the textbook exact case


def test_run_json_line():
    import json

    run = GroverRun(
        p=7, target=3, iterations=2, success_probability=0.9,
        measured_outcome=3, oracle_queries=2,
    )
    payload = json.loads(run.to_json_line())
    assert payload == {
        "p": 7,
        "target": 3,
        "iterations": 2,
        "success_probability": 0.9,
        "measured_outcome": 3,
        "oracle_queries": 2,
    }
