import ast
import inspect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyxform.errors import UsageError
from polyxform.modcore import (
    cost_model,
    doubling_estimate,
    next_prime_at_or_above,
    sieve_atkin,
    trial_division_primes,
)


def test_sieve_golden_30():
    assert sieve_atkin(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_sieve_tiny():
    assert sieve_atkin(2) == (2,)
    assert sieve_atkin(1) == ()
    assert trial_division_primes(1) == ()


def test_sieve_against_trial_division_random_limits():
    rng = random.Random(2024)
    for limit in [rng.randint(2, 100_000) for _ in range(100)]:
        assert sieve_atkin(limit) == trial_division_primes(limit)


def test_sieve_million():
    assert len(sieve_atkin(10**6)) == 78498


@given(st.integers(min_value=1, max_value=2**40))
@settings(max_examples=300, deadline=None)
def test_doubling_estimate_bracket(n):
    p0 = doubling_estimate(n)
    assert p0**3 >= n
    if p0 > 1:
        assert (p0 // 2) ** 3 < n


def test_doubling_estimate_golden():
    assert doubling_estimate(1000) == 16
    assert doubling_estimate(1) == 1
    assert doubling_estimate(8) == 2
    with pytest.raises(UsageError, match="a transform size must be >= 1, not 0"):
        doubling_estimate(0)


def test_next_prime():
    assert next_prime_at_or_above(16).q == 17
    assert next_prime_at_or_above(17).q == 17
    assert next_prime_at_or_above(90).q == 97
    assert next_prime_at_or_above(-5).q == 2


def test_cost_model_golden():
    assert cost_model(10).sum_q_squared == 4 + 9 + 25 + 49
    assert cost_model(3).sum_q_squared == 4
    expected = sum(q * math.log(q) for q in (2, 3, 5, 7))
    assert cost_model(10).sum_q_log_q == pytest.approx(expected, rel=1e-9)
    with pytest.raises(UsageError, match="a cost-model bound must be >= 2, not 1"):
        cost_model(1)


def test_cost_model_scaling():
    # sum of q^2 below b scales like b^3 / ln(b^3); the measured ratio
    # between bounds 10^3 and 10^4 should be within a factor 2 of that
    small, large = cost_model(10**3), cost_model(10**4)
    measured = large.sum_q_squared / small.sum_q_squared
    predicted = (10**12 / math.log(10**12)) / (10**9 / math.log(10**9))
    assert 0.5 < measured / predicted < 2.0


def test_prime_functions_refuse_anything_but_an_int():
    for call, what in (
        (lambda: sieve_atkin(30.7), "a sieve limit"),
        (lambda: trial_division_primes(30.7), "a sieve limit"),
        (lambda: sieve_atkin(True), "a sieve limit"),
        (lambda: cost_model(10.5), "a cost-model bound"),
        (lambda: next_prime_at_or_above(16.5), "a prime scan's start"),
        (lambda: doubling_estimate(True), "a transform size"),
        (lambda: doubling_estimate(np.int64(300)), "a transform size"),
    ):
        with pytest.raises(UsageError, match=f"{what} is a Python int"):
            call()


def test_trial_division_oracle_shares_no_code_with_the_sieve():
    # the oracle lives beside what it judges; it may only call itself
    tree = ast.parse(inspect.getsource(trial_division_primes))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "trial_division_primes" in named
    assert not named & {"sieve_atkin", "is_prime", "PrimeModulus"}
