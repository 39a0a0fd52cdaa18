import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dhbox.adversary import adversary_bounds, case_count_extremes, classify, positive_pairs
from dhbox.algorithms import dh_polynomial, DHInstance, honest_cdh_oracle, honest_dlog_oracle
from dhbox.blackbox import Escrow, GroupElement, IdentityOracle
from dhbox import experiments
from dhbox.cli import main
from dhbox.experiments import (
    _CHUNK,
    _trial_integers,
    first_component_line,
    format_value,
    max_line_solution_count,
    rows_to_csv,
    run_embedding,
    run_level2_solution_counts,
    run_lift_agreement,
    run_reduction_success,
    run_scaling,
    trial_rng,
    wilson_interval,
)
from dhbox.grover_sim import quantum_query_curve
from dhbox.modmath import PrimeModulus, _roots_int, is_prime

ESCROW = Escrow()


def test_wilson_interval_sanity():
    low, high = wilson_interval(50, 100, z=3.0)
    assert low < 0.5 < high
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    low, high = wilson_interval(100, 100, z=3.0)
    assert high == pytest.approx(1.0) and low > 0.9
    # wider z widens the interval
    l1, h1 = wilson_interval(80, 100, z=1.0)
    l3, h3 = wilson_interval(80, 100, z=3.0)
    assert l3 < l1 and h3 > h1


def test_wilson_interval_refuses_impossible_successes():
    # Successes below 0 or above the trials, or no integer, have no
    # proportion to bound; the bounds 0 and trials do.
    for successes in (-1, 150):
        with pytest.raises(ValueError, match=f"got {successes}$"):
            wilson_interval(successes, 100)
    with pytest.raises(TypeError):
        wilson_interval(2.5, 10)
    for successes in (0, 10):
        low, high = wilson_interval(successes, 10)
        assert 0.0 <= low < high <= 1.0
    assert wilson_interval(np.int64(3), 10) == wilson_interval(3, 10)


def test_scaling_small_run():
    rows = run_scaling([31], 400, seed=5)
    row = rows[0]
    assert row.p == 31 and row.trials == 400
    assert row.max_queries <= 31
    assert row.mean_queries == pytest.approx(16.0, rel=0.15)
    assert row.expected_mean == 16.0


def test_scaling_worst_case_at_p3():
    row = run_scaling([3], 200, seed=8)[0]
    assert row.max_queries == 3  # the worst-case secret is hit eventually


def test_scaling_deterministic():
    a = run_scaling([11, 13], 200, seed=9)
    b = run_scaling([11, 13], 200, seed=9)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    c = run_scaling([11, 13], 200, seed=10)
    assert [r.to_dict() for r in a] != [r.to_dict() for r in c]


def test_scaling_row_order_independent_of_p_list():
    # per-trial streams derive from (seed, p, trial), not list position
    a = run_scaling([11, 13], 100, seed=3)
    b = run_scaling([13, 11], 100, seed=3)
    assert a[0].to_dict() == b[1].to_dict()
    assert a[1].to_dict() == b[0].to_dict()


def test_reduction_success_rates():
    rows = run_reduction_success(31, 2000, seed=2)
    by_name = {r.algorithm: r for r in rows}
    dl = by_name["dlog-random"]
    cd = by_name["cdh-random"]
    assert dl.bound == pytest.approx(30 / 31)
    assert cd.bound == pytest.approx(29 / 31)
    assert dl.consistent_with_bound
    assert cd.consistent_with_bound
    assert dl.rate == pytest.approx(30 / 31, abs=0.03)
    # canonical honest CDH answers make the true rate 1 - (2p-1)/p^2
    assert cd.rate == pytest.approx(1 - (2 * 31 - 1) / 31**2, abs=0.03)
    # resample overhead is visible in the artifact: about one extra DLOG
    # call per p trials, and the CDH route spends screening + root queries
    assert dl.mean_oracle_calls >= 1.0
    assert dl.mean_oracle_calls == pytest.approx(1 + 1 / 31, abs=0.03)
    assert cd.mean_oracle_calls == 1.0
    assert cd.mean_id_queries >= 1.0


def test_dlog_reduction_exhaustive_combinatorics_p3():
    # every (s, generator g, h) draw: the reduction succeeds exactly when
    # h is not a multiple of g, 6 of 9 draws whatever (s, g) is
    p = 3
    pm = PrimeModulus(p)
    total = success = 0
    for s in range(p):
        o = IdentityOracle.level1(pm, s)
        d = honest_dlog_oracle(o, ESCROW)
        for g in itertools.product(range(p), repeat=2):
            if (g[0] + g[1] * s) % p == 0:
                continue
            for h in itertools.product(range(p), repeat=2):
                total += 1
                dd = d(GroupElement(g, pm), GroupElement(h, pm))
                den = (h[1] - dd * g[1]) % p
                if den == 0:
                    continue
                rec = -(h[0] - dd * g[0]) * pow(den, -1, p) % p
                assert rec == s
                success += 1
    assert Fraction(success, total) == Fraction(2, 3)


def test_cdh_reduction_exhaustive_combinatorics_p3():
    # every (s, generator g, h, k) draw with the canonical honest oracle:
    # the equation is quadratic exactly when h1*k1 != 0, 4 of 9 draws
    p = 3
    pm = PrimeModulus(p)
    total = success = 0
    for s in range(p):
        o = IdentityOracle.level1(pm, s)
        c = honest_cdh_oracle(o, ESCROW)
        for g in itertools.product(range(p), repeat=2):
            if (g[0] + g[1] * s) % p == 0:
                continue
            for h in itertools.product(range(p), repeat=2):
                for k in itertools.product(range(p), repeat=2):
                    total += 1
                    ge, he, ke = (GroupElement(x, pm) for x in (g, h, k))
                    le = c(ge, he, ke)
                    a2, a1, a0 = dh_polynomial(DHInstance(ge, he, ke, le))
                    if a2 == 0:
                        continue
                    roots = _roots_int(a2, a1, a0, p)
                    assert s in roots
                    success += 1
    assert Fraction(success, total) == Fraction(4, 9)


def test_level2_good_instance_every_line_at_most_two():
    # frozen fixture: quadratic lead term nonzero on every line (checked
    # via the substitution coefficients), so no line exceeds two solutions
    p = 7
    g, h, k, l = (3, 4, 6), (5, 4, 3), (3, 6, 1), (5, 4, 0)
    assert (g[2] * l[2] - h[2] * k[2]) % p != 0
    count, _ = max_line_solution_count(p, g, h, k, l)
    assert count <= 2


def test_level2_degenerate_instance_flagged_bad():
    # h = k = zero class: the polynomial degenerates to a product of two
    # affine forms, and the zero line of the g form carries p solutions
    p = 7
    count, line = max_line_solution_count(p, (1, 2, 3), (0, 0, 0), (0, 0, 0), (2, 1, 5))
    assert count == 7
    assert line == (1, 2, 3)


def test_level2_counts_against_direct_enumeration():
    # the vectorized per-instance worst count agrees with a literal scan
    p = 5
    rng = np.random.default_rng(77)
    for _ in range(25):
        coords = [int(x) for x in rng.integers(0, p, size=12)]
        g, h, k, l = (tuple(coords[i:i + 3]) for i in (0, 3, 6, 9))

        def poly(x, y):
            return (
                (g[0] + g[1] * x + g[2] * y) * (l[0] + l[1] * x + l[2] * y)
                - (h[0] + h[1] * x + h[2] * y) * (k[0] + k[1] * x + k[2] * y)
            ) % p

        worst = 0
        for u1 in range(p):
            for u2 in range(p):
                if (u1, u2) == (0, 0):
                    continue
                cnt = sum(
                    1
                    for x in range(p)
                    for y in range(p)
                    if (1 + u1 * x + u2 * y) % p == 0 and poly(x, y) == 0
                )
                worst = max(worst, cnt)
        got, _ = max_line_solution_count(p, g, h, k, l)
        assert got == worst


def _assert_kernel_matches_grid(p, g, h, k, l):
    count, line = max_line_solution_count(p, g, h, k, l)
    got = first_component_line(p, g, h, k, l)
    if count > 2:
        assert (count, got) == (p, line), (p, g, h, k, l)
    else:
        assert got is None, (p, g, h, k, l)
    return got


def test_component_line_matches_grid_on_seeded_samples():
    # The draws of run_level2_solution_counts, and the same draws with
    # some coordinates zeroed, which makes degenerate forms common.
    for p in (q for q in range(3, 32) if is_prime(q)):
        bad = 0
        for t in range(300):
            rng = trial_rng(1, t)
            c = rng.integers(0, p, size=12)
            if t % 2:
                c[rng.integers(0, 12, size=int(rng.integers(1, 10)))] = 0
            g, h, k, l = (tuple(int(x) for x in c[i:i + 3]) for i in (0, 3, 6, 9))
            bad += _assert_kernel_matches_grid(p, g, h, k, l) is not None
        assert bad > 0


@pytest.mark.parametrize(
    "case, p, instance, expected",
    [
        # N = 0: every line is a component; the first is (1, 1, 0).
        ("zero form", 7, ((1, 2, 3), (1, 2, 3), (4, 5, 6), (4, 5, 6)), (1, 1, 0)),
        # Rank 1: (1 + 2x + 3y)^2.
        ("rank 1, admissible", 7, ((1, 2, 3), (0, 0, 0), (0, 0, 0), (1, 2, 3)), (1, 2, 3)),
        # Rank 1: (x + 2y)^2, a double line through the origin.
        ("rank 1, through origin", 7, ((0, 1, 2), (0, 0, 0), (0, 0, 0), (0, 1, 2)), None),
        # Rank 1: the constant 1, whose double line lies at infinity.
        ("rank 1, at infinity", 7, ((1, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0)), None),
        # Rank 2 split: (1 + 2x + 3y)(2 + x + 5y); (1, 4, 6) comes later.
        ("rank 2, split", 7, ((1, 2, 3), (0, 0, 0), (0, 0, 0), (2, 1, 5)), (1, 2, 3)),
        # Rank 2 split, u2 = 0 block first: (1 + 2x + y)(1 + 3x).
        ("rank 2, u2 = 0 first", 7, ((1, 2, 1), (0, 0, 0), (0, 0, 0), (1, 3, 0)), (1, 3, 0)),
        # Rank 2 split: (x - 1)^2 - 2 (y - 2)^2 = (x - 3y + 5)(x + 3y) mod 7;
        # the second line passes through the origin.
        ("rank 2, one line through origin", 7,
         ((6, 1, 0), (3, 0, 2), (5, 0, 1), (6, 1, 0)), (1, 3, 5)),
        # Rank 2, both lines through the origin: xy.
        ("rank 2, x y", 7, ((0, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 1)), None),
        # Rank 2 non-split: (x - 1)^2 - 3 (y - 2)^2, 3 a non-residue mod 7.
        ("rank 2, non-split", 7, ((6, 1, 0), (1, 0, 3), (5, 0, 1), (6, 1, 0)), None),
        # Rank 3: a smooth conic.
        ("rank 3", 7, ((3, 4, 6), (5, 4, 3), (3, 6, 1), (5, 4, 0)), None),
    ],
)
def test_component_line_cases(case, p, instance, expected):
    assert _assert_kernel_matches_grid(p, *instance) == expected


def test_level2_p3_exhaustive_bad_count():
    # Frozen: 213921 of the 3^12 = 531441 instances at p = 3 have a line
    # with more than two solutions.  The kernel reads an instance only
    # through N = A + A^T, A = g l^T - h k^T, so it is asked once per
    # distinct N (first instance with it) and weighted by the count of N.
    p = 3
    inst = np.indices((p,) * 12).reshape(12, -1).T
    g, h, k, l = inst[:, 0:3], inst[:, 3:6], inst[:, 6:9], inst[:, 9:12]
    a = g[:, :, None] * l[:, None, :] - h[:, :, None] * k[:, None, :]
    n = ((a + a.transpose(0, 2, 1)) % p).reshape(len(inst), 9)
    _, first, counts = np.unique(n @ p ** np.arange(9), return_index=True, return_counts=True)
    bad = sum(
        int(count)
        for i, count in zip(first, counts)
        if first_component_line(p, *(tuple(int(x) for x in inst[i, j:j + 3]) for j in (0, 3, 6, 9)))
    )
    assert (len(inst), bad) == (531441, 213921)


def test_level2_experiment_run():
    res = run_level2_solution_counts(13, 200, seed=4)
    assert res.trials == 200
    assert res.bad_count == len(res.bad_samples)
    assert res.bad_fraction <= res.threshold
    for sample in res.bad_samples:
        assert sample.solution_count > 2
        assert sample.bad
    again = run_level2_solution_counts(13, 200, seed=4)
    assert res.to_dict() == again.to_dict()


def test_level2_smallest_primes():
    # 7/p exceeds 1 below p = 7; the bound is a probability, so it is capped.
    for p in (3, 5):
        res = run_level2_solution_counts(p, 50, seed=9)
        assert res.bound == 1.0 and res.sigma == 0.0
        assert res.within_threshold


def test_level2_guard():
    with pytest.raises(ValueError):
        run_level2_solution_counts(37, 10, seed=0)
    res = run_level2_solution_counts(61, 50, seed=0, force=True)
    assert res.within_threshold
    for sample in res.bad_samples:
        assert sample.solution_count == 61


def test_empty_runs_refused():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_scaling([11], trials, seed=0)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_reduction_success(11, trials, seed=0)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_level2_solution_counts(11, trials, seed=0)
    with pytest.raises(ValueError, match="at least one prime"):
        run_scaling([], 10, seed=0)


def _embedding_summary(p):
    gens, answer, direct, oracle = run_embedding(p, 23, 2, 3, 6)
    return gens, answer, direct, oracle.queries, oracle.mults


@pytest.mark.parametrize(
    "entry, p",
    [
        (case_count_extremes, 2**61 - 1),
        (adversary_bounds, 31),
        (classify, 5),
        (positive_pairs, 31),
        (lambda p: run_level2_solution_counts(p, 200, 1), 31),
        (_embedding_summary, 11),
        (lambda p: run_scaling([p], 20, 1), 31),
        (lambda p: run_reduction_success(p, 20, 1), 31),
        (lambda p: run_lift_agreement(p, 5, 1), 31),
        (lambda p: quantum_query_curve([p]), 31),
    ],
    ids=["case_count_extremes", "adversary_bounds", "classify", "positive_pairs",
         "level2_counts", "embedding", "scaling", "reductions", "lift_agreement",
         "quantum_query_curve"],
)
def test_numpy_integer_prime_gives_the_int_result(entry, p):
    # The repr compares values and types: no numpy scalar reaches a result.
    # A numpy prime used to give case_count_extremes a 0, raise TypeError
    # in four entry points, and put np.int64, np.float64 and np.bool_
    # fields into the classification and the scaling, reduction and
    # curve rows.
    assert repr(entry(np.int64(p))) == repr(entry(p))


def test_repeated_prime_refused():
    # A repeated prime used to be run again with the same seeds, printing
    # an identical row.
    for ps in ([3, 3], [11, 13, 11]):
        with pytest.raises(ValueError, match="must not repeat a prime"):
            run_scaling(ps, 2, seed=0)
    assert [row.p for row in run_scaling([3, 5], 2, seed=0)] == [3, 5]


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(0.5) == "0.5"
    assert format_value(1 / 3) == "0.333333333333"
    assert format_value(Fraction(7, 3)) == "7/3"
    assert format_value(42) == "42"


def test_csv_layout_and_write():
    rows = [r.to_dict() for r in run_scaling([11], 50, seed=1)]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "p,trials,mean_queries,max_queries,expected_mean,rel_error,within_5pct"
    assert len(lines) == 2
    assert text.endswith("\n")


def test_trial_rng_streams_are_stable():
    a = trial_rng(7, 1, 2).integers(0, 1000, size=5)
    b = trial_rng(7, 1, 2).integers(0, 1000, size=5)
    c = trial_rng(7, 1, 3).integers(0, 1000, size=5)
    assert (a == b).all()
    assert not (a == c).all()


def _reference_rows(seed, trials, p, size):
    return [trial_rng(seed, t).integers(0, p, size=size).tolist() for t in range(trials)]


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**100 + 9, 2**140 + 1, np.int64(2**40 + 3)]
PRIMES = [3, 5, 31, 61, 1009, 2**31 - 1, 4294967291]


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("p", PRIMES)
def test_trial_integers_are_the_trial_rng_draws(seed, p):
    # 2**100 + 9 has 5 uint32 words, so with t the entropy runs past the
    # SeedSequence pool of 4.
    assert list(_trial_integers(seed, 40, p, 12)) == _reference_rows(seed, 40, p, 12)


def test_trial_integers_odd_size_and_one_past_a_chunk():
    for size in (1, 7):
        assert list(_trial_integers(5, 30, 61, size)) == _reference_rows(5, 30, 61, size)
    trials = _CHUNK + 1
    assert list(_trial_integers(3, trials, 31, 12)) == _reference_rows(3, trials, 31, 12)


def test_small_chunks_keep_each_trial_index(monkeypatch):
    # Batches of 3: rows of later batches, the trial_rng ones included,
    # keep their own t.
    monkeypatch.setattr(experiments, "_CHUNK", 3)
    for p in (31, 4294967291, 2**61 - 1):
        assert list(_trial_integers(2, 10, p, 5)) == _reference_rows(2, 10, p, 5)


def test_rejection_zone_rows_are_drawn_by_trial_rng(monkeypatch):
    # numpy's 32-bit rule may redraw when a leftover x·p mod 2^32 falls
    # below p; such rows, and every row for p >= 2^32, come from
    # trial_rng itself.  At p = 4294967291 that is nearly every row, at
    # p = 31 almost none.
    calls = []

    def counted(seed, *labels):
        calls.append(labels)
        return trial_rng(seed, *labels)

    monkeypatch.setattr(experiments, "trial_rng", counted)
    for p, most in ((4294967291, True), (31, False), (2**61 - 1, True), (2**32 + 15, True)):
        calls.clear()
        assert list(_trial_integers(8, 50, p, 12)) == _reference_rows(8, 50, p, 12)
        assert (len(calls) > 40) == most, (p, len(calls))


def _reference_level2(p, trials, seed):
    # The per-trial reference: one Generator per trial.
    bad = []
    for t in range(trials):
        c = trial_rng(seed, t).integers(0, p, size=12)
        inst = tuple(tuple(int(x) for x in c[i:i + 3]) for i in (0, 3, 6, 9))
        line = first_component_line(p, *inst)
        if line is not None:
            bad.append((inst, line))
    return bad


@pytest.mark.parametrize("p, trials, force", [(7, 300, False), (31, 200, False),
                                               (61, 50, True), (2**61 - 1, 30, True)])
def test_level2_run_decides_the_trial_rng_instances(p, trials, force):
    # p = 2^61 - 1 is past 2^32, so every trial takes the trial_rng path.
    res = run_level2_solution_counts(p, trials, 11, force=force)
    got = [(s.instance, s.worst_line) for s in res.bad_samples]
    assert got == _reference_level2(p, trials, 11)
    assert all(type(x) is int for s in res.bad_samples for e in s.instance for x in e)


def test_trial_integers_check_numpy_seeding(monkeypatch):
    # A numpy that hashed or seeded otherwise would draw other rows; the
    # check on trial 0 refuses before the first row.
    for name, value in (("_INIT_B", 0x8B51F9DC), ("_PCG_MULT", 0x2360ED051FC65DA44385DF649FCCF647)):
        with monkeypatch.context() as m:
            m.setattr(experiments, name, value)
            with pytest.raises(RuntimeError, match="seeding has changed"):
                next(_trial_integers(1, 5, 31, 12))


def _refusal(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0)], ids=repr)
def test_bad_seed_refused_as_trial_rng_refuses_it(seed, monkeypatch):
    expected = _refusal(lambda: trial_rng(seed, 0))
    assert expected[0] in (ValueError, TypeError)
    assert _refusal(lambda: _trial_integers(seed, 5, 31, 12)) == expected

    def no_draw(*args):
        raise AssertionError("drew an instance")

    monkeypatch.setattr(experiments, "_trial_rows", no_draw)
    monkeypatch.setattr(experiments, "first_component_line", no_draw)
    assert _refusal(lambda: run_level2_solution_counts(31, 5, seed)) == expected


def test_cli_refuses_a_negative_seed_before_any_draw(capsys, monkeypatch):
    _, message = _refusal(lambda: trial_rng(-1, 0))

    def no_draw(*args):
        raise AssertionError("drew an instance")

    monkeypatch.setattr(experiments, "_trial_rows", no_draw)
    assert main(["level2-counts", "--p", "7", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_trial_counts_are_read_as_ints():
    # A float count used to give an interval for 2.5 trials, and a numpy
    # count stayed an np.int64 in the result, which json.dumps refuses.
    with pytest.raises(TypeError):
        wilson_interval(2, 2.5)
    with pytest.raises(TypeError):
        run_level2_solution_counts(7, 3.0, 1)
    assert wilson_interval(2, np.int64(5)) == wilson_interval(2, 5)
    res = run_level2_solution_counts(7, np.int64(3), 1)
    assert type(res.trials) is int
    assert json.loads(json.dumps(res.to_dict())) == run_level2_solution_counts(7, 3, 1).to_dict()
    rows = [*run_scaling([7], np.int64(3), 1), *run_reduction_success(7, np.int64(3), 1)]
    assert all(type(row.trials) is int for row in rows)
    json.dumps([row.to_dict() for row in rows])
