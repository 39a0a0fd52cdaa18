"""The three level-1 checks that the CLI and the demos share:
``recover_secret`` over ``RECOVERIES``, ``run_lift_agreement`` and
``run_embedding``."""

from unittest import mock

import numpy as np
import pytest

from dhbox import experiments
from dhbox.algorithms import (
    honest_cdh_oracle,
    honest_dlog_oracle,
    secret_from_cdh_random,
    secret_from_dlog_random,
)
from dhbox.blackbox import Escrow, IdentityOracle
from dhbox.cli import build_parser
from dhbox.experiments import (
    RECOVERIES,
    recover_secret,
    run_embedding,
    run_lift_agreement,
    trial_rng,
)
from dhbox.modmath import PrimeModulus

P = 101


def _secret_oracle(seed):
    rng = trial_rng(seed, 100)
    s = int(rng.integers(0, P))
    return s, IdentityOracle.level1(PrimeModulus(P), s), rng


def test_recoveries_are_the_algo_choices():
    sub = build_parser()._subparsers._group_actions[0].choices["secret"]
    assert tuple(sub._option_string_actions["--algo"].choices) == RECOVERIES
    assert len(set(RECOVERIES)) == 6


@pytest.mark.parametrize("seed", range(10))
def test_fixed_recoveries_charge_one_call(seed):
    s, o, rng = _secret_oracle(seed)
    got, dlog_calls, cdh_calls = recover_secret("dlog", o, rng)
    assert (got.value, dlog_calls, cdh_calls, o.queries) == (s, 1, 0, 0)
    s, o, rng = _secret_oracle(seed)
    got, dlog_calls, cdh_calls = recover_secret("cdh", o, rng)
    assert (got.value, dlog_calls, cdh_calls) == (s, 0, 1)
    assert o.queries <= 2


@pytest.mark.parametrize("seed", range(10))
def test_brute_recoveries_charge_queries_only(seed):
    s, o, rng = _secret_oracle(seed)
    got, dlog_calls, cdh_calls = recover_secret("brute", o, rng)
    # in order, the hit at x = s costs s + 1 queries
    assert (got.value, dlog_calls, cdh_calls, o.queries) == (s, 0, 0, s + 1)
    s, o, rng = _secret_oracle(seed)
    got, dlog_calls, cdh_calls = recover_secret("brute-random", o, rng)
    assert (got.value, dlog_calls, cdh_calls) == (s, 0, 0)
    assert 1 <= o.queries <= P


@pytest.mark.parametrize("seed", range(10))
def test_random_recoveries_are_the_reductions_on_the_same_draws(seed):
    # Each random recovery is its reduction on an honest handle, with the
    # same draws from rng; a result is the secret or, on a degenerate
    # draw, None.
    s, o, rng = _secret_oracle(seed)
    got, dlog_calls, cdh_calls = recover_secret("dlog-random", o, rng)
    s2, o2, rng2 = _secret_oracle(seed)
    dlog = honest_dlog_oracle(o2, Escrow())
    ref = secret_from_dlog_random(dlog, rng2)
    assert got == ref and (got is None or got.value == s)
    assert (dlog_calls, cdh_calls, o.queries) == (dlog.calls, 0, 0) and dlog_calls >= 1

    s, o, rng = _secret_oracle(seed)
    got, dlog_calls, cdh_calls = recover_secret("cdh-random", o, rng)
    s2, o2, rng2 = _secret_oracle(seed)
    cdh = honest_cdh_oracle(o2, Escrow())
    ref = secret_from_cdh_random(cdh, o2, rng2)
    assert got == ref and (got is None or got.value == s)
    assert (dlog_calls, cdh_calls, o.queries) == (0, 1, o2.queries)


def test_random_recoveries_recover_the_secret():
    for algo in ("dlog-random", "cdh-random"):
        hits = 0
        for seed in range(20):
            s, o, rng = _secret_oracle(seed)
            got = recover_secret(algo, o, rng)[0]
            hits += got is not None and got.value == s
        assert hits >= 18, algo


@pytest.mark.parametrize("algo", ["", "DLOG", "cdh_random", "brute-force", None])
def test_unknown_recovery_is_refused_with_nothing_charged(algo):
    s, o, rng = _secret_oracle(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown recovery"):
        recover_secret(algo, o, rng)
    assert o.queries == 0 and rng.bit_generator.state == state


@pytest.mark.parametrize("algo", ["dlog-random", "cdh-random", "brute-random"])
def test_random_recovery_without_rng_is_refused_with_nothing_charged(algo):
    # A random order needs an rng: without one nothing is scanned in
    # order, and no handle is built.
    s, o, _ = _secret_oracle(0)
    built = AssertionError("a handle was built")
    with mock.patch.object(experiments, "honest_dlog_oracle", side_effect=built), \
            mock.patch.object(experiments, "honest_cdh_oracle", side_effect=built):
        with pytest.raises(ValueError, match="draws from an rng"):
            recover_secret(algo, o, None)
    assert o.queries == 0


@pytest.mark.parametrize("seed", [0, 1, 3, 20260810])
def test_lift_agreement_on_every_instance(seed):
    assert run_lift_agreement(7, 200, seed) == 200


def test_lift_agreement_refuses_an_empty_run():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_lift_agreement(7, 0, 0)


def _embedding_rows(p, q, rng):
    # every corner with a zero exponent, then c = ab and a near miss
    rows = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    for a, b in rng.integers(0, p, size=(20, 2)).tolist():
        rows += [(a, b, a * b % p), (a, b, (a * b + 1) % p)]
    return rows


@pytest.mark.parametrize("p, q", [(11, 23), (101, 607)])
def test_embedding_agrees_with_the_exponents(p, q):
    w = next(w for w in range(2, q) if pow(w, (q - 1) // p, q) != 1)
    g1 = pow(w, (q - 1) // p, q)
    for a, b, c in _embedding_rows(p, q, np.random.default_rng(p)):
        gens, answer, direct, oracle = run_embedding(p, q, a, b, c)
        assert gens == (g1, pow(g1, a, q), pow(g1, b, q), pow(g1, c, q))
        assert direct == (1 if c == a * b % p else 0)
        assert answer == direct, (a, b, c)
        assert 0 < oracle.queries <= 3 * p and oracle.mults > 0


def test_embedding_reduces_exponents_mod_p():
    assert run_embedding(11, 23, 3 + 11, 4 - 22, 1)[:3] == run_embedding(11, 23, 3, 4, 1)[:3]


def test_embedding_refuses_a_prime_that_does_not_divide_q_minus_1():
    with pytest.raises(ValueError, match="does not divide"):
        run_embedding(11, 29, 1, 2, 2)
    with pytest.raises(ValueError):
        run_embedding(9, 19, 1, 2, 2)
