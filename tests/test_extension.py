import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyxform.errors import UsageError
from polyxform.extension import (
    ExtensionContext,
    ext_inv,
    ext_mul,
    ext_mul_array,
    ext_pow,
    ext_powers,
    find_noncube,
)
from polyxform.modcore import PrimeModulus


P7 = PrimeModulus(7)
CTX = ExtensionContext(P7, P7.residue(2))  # t^3 = 2, 2 is a non-cube mod 7


def poly_mul_oracle(u, v, p, y):
    """Schoolbook product in Z[t], then reduce t^3 -> y and coefficients mod p."""
    prod = [0] * 6
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] += a * b
    return tuple((prod[k] + y * prod[k + 3]) % p for k in range(3))


def test_context_rejects_foreign_residue():
    with pytest.raises(UsageError):
        ExtensionContext(P7, PrimeModulus(5).residue(2))


def test_element_normalizes_coefficients():
    e = CTX.element(-1, 9, 14)
    assert e.coeffs == (6, 2, 0)


def test_mul_golden():
    # (1 + t) * (1 + t^2) = 1 + t + t^2 + t^3 = 3 + t + t^2  (t^3 = 2)
    u = CTX.element(1, 1, 0)
    v = CTX.element(1, 0, 1)
    assert ext_mul(u, v).coeffs == (3, 1, 1)
    # t * t^2 = t^3 = 2
    assert ext_mul(CTX.element(0, 1, 0), CTX.element(0, 0, 1)).coeffs == (2, 0, 0)


def test_mul_identity_and_zero():
    u = CTX.element(3, 5, 6)
    assert ext_mul(u, CTX.one) == u
    assert ext_mul(u, CTX.zero) == CTX.zero


def test_mul_against_polynomial_oracle_exhaustive_slice():
    rng = random.Random(17)
    for _ in range(500):
        u = tuple(rng.randrange(7) for _ in range(3))
        v = tuple(rng.randrange(7) for _ in range(3))
        got = ext_mul(CTX.element(*u), CTX.element(*v)).coeffs
        assert got == poly_mul_oracle(u, v, 7, 2)


def test_mul_commutative_associative_distributive():
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (
            CTX.element(*(rng.randrange(7) for _ in range(3))) for _ in range(3)
        )
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mul_context_mismatch():
    other = ExtensionContext(P7, P7.residue(3))
    with pytest.raises(UsageError):
        ext_mul(CTX.element(1), other.element(1))


def test_pow_golden():
    t = CTX.element(0, 1, 0)
    assert ext_pow(t, 0) == CTX.one
    assert ext_pow(t, 3).coeffs == (2, 0, 0)
    assert ext_pow(t, 6).coeffs == (4, 0, 0)
    # group order: every nonzero element to the p^3 - 1 is one
    assert ext_pow(CTX.element(3, 4, 5), CTX.group_order) == CTX.one


def test_pow_negative_exponent():
    u = CTX.element(2, 3, 1)
    assert ext_mul(ext_pow(u, -1), u) == CTX.one
    assert ext_pow(u, -2) == ext_inv(ext_mul(u, u))


def test_inv_all_nonzero_elements_exhaustive():
    for a0 in range(7):
        for a1 in range(7):
            for a2 in range(7):
                if a0 == a1 == a2 == 0:
                    continue
                u = CTX.element(a0, a1, a2)
                assert ext_mul(ext_inv(u), u) == CTX.one


def test_inv_zero_raises():
    with pytest.raises(UsageError, match="zero has no inverse"):
        ext_inv(CTX.zero)


def test_inv_over_a_cube_y_refuses_a_zero_divisor():
    # y = 1 is a cube mod 7, so t^3 - 1 = (t - 1)(t^2 + t + 1) and 1 - t divides zero
    ring = ExtensionContext(P7, P7.residue(1))
    with pytest.raises(UsageError, match="not invertible; is y a non-cube mod p"):
        ext_inv(ring.element(1, 6, 0))


def test_reduce_at_golden():
    # 31 = 1 mod 3 and 2 has cube roots mod 31: 20^3 = 8000 = 2 mod 31
    q31 = PrimeModulus(31)
    root = q31.residue(20)
    assert pow(20, 3, 31) == 2
    u = CTX.element(1, 2, 3)
    # 1 + 2*20 + 3*400 = 1241 = 1 mod 31
    assert u.reduce_at(root).value == 1241 % 31


def test_reduce_at_is_ring_homomorphism():
    q31 = PrimeModulus(31)
    root = q31.residue(20)
    rng = random.Random(29)
    for _ in range(200):
        u = CTX.element(*(rng.randrange(7) for _ in range(3)))
        v = CTX.element(*(rng.randrange(7) for _ in range(3)))
        # additive and multiplicative only after mapping coefficients:
        # here coefficients are taken as naturals, so the map respects
        # the ring structure of the integer lifts
        lift_u = tuple(u.coeffs)
        lift_v = tuple(v.coeffs)
        prod = poly_mul_oracle(lift_u, lift_v, 31 * 7 * 100, 2)  # no wrap
        ctx31 = ExtensionContext(q31, q31.residue(2))
        w = ctx31.element(*prod)
        assert w.reduce_at(root) == u.reduce_at(root) * v.reduce_at(root)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([7, 13, 19, 103]), data=st.data())
def test_mul_array_matches_boxed(p, data):
    mod = PrimeModulus(p)
    ctx = ExtensionContext(mod, find_noncube(mod))
    triple = st.tuples(*[st.integers(0, p - 1)] * 3)
    pairs = data.draw(st.lists(st.tuples(triple, triple), min_size=1, max_size=30))
    top = (p - 1,) * 3
    pairs += [(top, top), (top, (0, 0, 0)), ((1, 0, 0), top)]
    a = np.array([u for u, _ in pairs])
    b = np.array([v for _, v in pairs])
    got = ext_mul_array(a, b, ctx)
    assert got.dtype == np.int64 and got.shape == a.shape
    assert [tuple(row) for row in got.tolist()] == [
        ext_mul(ctx.element(*u), ctx.element(*v)).coeffs for u, v in pairs
    ]


def test_mul_array_broadcasts_and_reduces_inputs():
    u = CTX.element(3, 5, 6)
    rows = np.array([[1, 2, 3], [-1, 9, 14], [7, 7, 7]])
    got = ext_mul_array(rows, u.coeffs, CTX).tolist()
    assert got == [list(ext_mul(CTX.element(*r), u).coeffs) for r in rows.tolist()]


def test_mul_array_rejects_p_beyond_int64():
    big = PrimeModulus(2**31 - 1)
    ctx = ExtensionContext(big, big.residue(3))
    with pytest.raises(UsageError):
        ext_mul_array(np.ones(3, dtype=np.int64), np.ones(3, dtype=np.int64), ctx)


@pytest.mark.parametrize("count", [0, 1, 2, 5, 342])
def test_powers_table_matches_ext_pow(count):
    u = CTX.element(3, 4, 5)
    table = ext_powers(u, count)
    assert table.shape == (count, 3)
    assert [tuple(row) for row in table.tolist()] == [
        ext_pow(u, k).coeffs for k in range(count)
    ]


def test_powers_table_of_plan_root(plan13):
    omega, n = plan13.omega, plan13.n
    table = ext_powers(omega, n)
    rng = random.Random(31)
    for k in [0, 1, 2, n - 1] + rng.sample(range(n), 20):
        assert tuple(table[k].tolist()) == ext_pow(omega, k).coeffs
