import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyxform.errors import UsageError
from polyxform.modcore import (
    PrimeModulus,
    Residue,
    inv_mod,
    is_prime,
    mul_mod,
    pow_mod,
)
from polyxform.oracles import CrtBasis, crt_reconstruct, determinant, invert_matrix

Q5 = PrimeModulus(5)


def solve(A, b):
    """x with A * x = b over the prime field, as the Gauss-Jordan inverse times b."""
    zero = b[0].modulus.residue(0)
    return [sum((e * v for e, v in zip(row, b)), zero) for row in invert_matrix(A)]


def test_prime_modulus_rejects_composites():
    with pytest.raises(UsageError):
        PrimeModulus(15)
    with pytest.raises(UsageError):
        PrimeModulus(1)


def test_prime_modulus_refuses_anything_but_an_int():
    for q, name in ((13.0, "float"), (np.int64(13), "int64"), ("13", "str"), (True, "bool")):
        with pytest.raises(UsageError, match=f"a prime modulus is a Python int, not {name}$"):
            PrimeModulus(q)


# psi_12 = 399,165,290,221 x 798,330,580,441 is the least strong pseudoprime to
# the first 12 prime bases; psi_13 fools the first 13 (Sorenson and Webster, 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_is_not_fooled_by_psi_12():
    assert not is_prime(PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    with pytest.raises(UsageError, match="is not prime"):
        PrimeModulus(PSI_12)


def test_is_prime_refuses_what_its_witnesses_cannot_decide():
    assert not is_prime(PSI_13 - 1)
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(UsageError, match="Miller-Rabin bound"):
            is_prime(n)
    for n in (7.0, np.int64(7), True):
        with pytest.raises(UsageError, match="a primality candidate is a Python int"):
            is_prime(n)


def test_residue_canonical_form_enforced():
    with pytest.raises(UsageError):
        Residue(5, Q5)
    assert Q5.residue(-1).value == 4
    for value, name in ((2.5, "float"), (True, "bool"), (np.int64(2), "int64")):
        with pytest.raises(UsageError, match=f"a residue is a Python int, not {name}$"):
            Q5.residue(value)
        with pytest.raises(UsageError, match=f"a residue is a Python int, not {name}$"):
            Residue(value, Q5)


def test_mul_mod_examples():
    assert mul_mod(Q5.residue(3), Q5.residue(4)).value == 2
    q = PrimeModulus(101)
    x = q.residue(77)
    assert mul_mod(q.residue(0), x).value == 0
    assert mul_mod(q.residue(1), x) == x


def test_mul_mod_exhaustive_z5():
    for a in range(5):
        for b in range(5):
            assert mul_mod(Q5.residue(a), Q5.residue(b)).value == a * b % 5


def test_mul_mod_modulus_mismatch():
    with pytest.raises(UsageError):
        mul_mod(Q5.residue(1), PrimeModulus(7).residue(1))


def test_pow_mod_examples():
    q = PrimeModulus(11)
    assert pow_mod(q.residue(2), 10).value == 1
    assert pow_mod(q.residue(7), 0).value == 1
    assert pow_mod(q.residue(7), 1).value == 7
    with pytest.raises(UsageError):
        pow_mod(q.residue(7), -1)
    for e in (2.0, True, np.int64(2)):
        with pytest.raises(UsageError, match="an exponent is a Python int"):
            pow_mod(q.residue(7), e)


def test_inv_mod_examples():
    assert inv_mod(Q5.residue(2)).value == 3
    q = PrimeModulus(97)
    assert inv_mod(q.residue(1)).value == 1
    assert inv_mod(q.residue(96)).value == 96  # (-1)^2 = 1
    with pytest.raises(UsageError, match="0 mod 97 has no inverse"):
        inv_mod(q.residue(0))


@pytest.mark.parametrize("q", [3, 5, 7, 11, 101, 199])
def test_inverse_and_fermat_exhaustive(q):
    mod = PrimeModulus(q)
    for a in range(1, q):
        r = mod.residue(a)
        assert mul_mod(inv_mod(r), r).value == 1
        assert pow_mod(r, q - 1).value == 1


def test_crt_golden():
    basis = CrtBasis.of([3, 5])
    assert crt_reconstruct([2, 3], basis) == 8
    assert crt_reconstruct([0, 0], basis) == 0
    assert crt_reconstruct([4], CrtBasis.of([7])) == 4


def test_crt_exhaustive_small():
    basis = CrtBasis.of([7, 11, 13])
    for x in range(basis.Q):
        assert crt_reconstruct([x % m for m in basis.moduli], basis) == x


def test_crt_rejects_noncoprime():
    with pytest.raises(UsageError):
        CrtBasis.of([6, 9])


@pytest.mark.parametrize("residues, message", [
    ([2], "residue count"), ([2, 3, 0], "residue count"),
    ([3, 3], "residue 3 out of range"), ([-1, 3], "residue -1 out of range"),
], ids=["too-few", "too-many", "too-large", "negative"])
def test_crt_rejects_residues_that_do_not_fit_the_basis(residues, message):
    with pytest.raises(UsageError, match=message):
        crt_reconstruct(residues, CrtBasis.of([3, 5]))


@pytest.mark.parametrize("call, message", [
    (lambda: CrtBasis.of([3.7, 5]), "a modulus is a Python int, not float"),
    (lambda: CrtBasis.of([1, 5]), "a modulus must be >= 2, not 1"),
    (lambda: crt_reconstruct([1.5, 2], CrtBasis.of([3, 5])), "a residue is a Python int, not float"),
    (lambda: crt_reconstruct([True, 2], CrtBasis.of([3, 5])), "a residue is a Python int, not bool"),
    (lambda: crt_reconstruct([np.int64(1), 2], CrtBasis.of([3, 5])),
     "a residue is a Python int, not int64"),
], ids=["float-modulus", "modulus-one", "float-residue", "bool-residue", "numpy-residue"])
def test_crt_oracle_takes_only_python_ints(call, message):
    # a float modulus would be truncated, a float residue gives a float, a
    # bool counts as 1 and a numpy int64 can wrap on large moduli
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call()


@given(st.integers(min_value=0, max_value=10**30 - 1))
@settings(max_examples=200, deadline=None)
def test_crt_roundtrip_large(x):
    basis = CrtBasis.of([2**31 - 1, 2**61 - 1, 999999937])
    x %= basis.Q
    assert crt_reconstruct([x % m for m in basis.moduli], basis) == x


def test_solve_linear_golden_recovery():
    # roots 2 and 3 mod 5 recover components (3, 1) from evals (0, 1)
    A = [
        [Q5.residue(1), Q5.residue(2)],
        [Q5.residue(1), Q5.residue(3)],
    ]
    b = [Q5.residue(0), Q5.residue(1)]
    x = solve(A, b)
    assert [r.value for r in x] == [3, 1]


def test_solve_linear_identity():
    q = PrimeModulus(13)
    A = [[q.residue(1 if i == j else 0) for j in range(3)] for i in range(3)]
    b = [q.residue(v) for v in (7, 0, 12)]
    assert solve(A, b) == b


def test_solve_linear_singular():
    A = [
        [Q5.residue(1), Q5.residue(1)],
        [Q5.residue(2), Q5.residue(2)],
    ]
    b = [Q5.residue(0), Q5.residue(0)]
    with pytest.raises(UsageError, match="matrix not invertible"):
        solve(A, b)
    assert determinant(A).value == 0


def test_solve_linear_random_roundtrip():
    rng = random.Random(7)
    primes = [p for p in range(5, 1000) if is_prime(p)]
    done = 0
    while done < 50:
        q = PrimeModulus(rng.choice(primes))
        n = rng.randint(2, 6)
        A = [[q.residue(rng.randrange(q.q)) for _ in range(n)] for _ in range(n)]
        if determinant(A).value == 0:
            continue
        x = [q.residue(rng.randrange(q.q)) for _ in range(n)]
        b = [
            sum((A[i][j] * x[j] for j in range(n)), q.residue(0))
            for i in range(n)
        ]
        assert solve(A, b) == x
        done += 1


@pytest.mark.parametrize("q", [2, 3, 13, 103, 7919])
def test_elimination_matches_sympy(q):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(q)
    mod = PrimeModulus(q)
    singular = 0
    for n in range(1, 7):
        for trial in range(8):
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            if trial % 2:  # last row a multiple of the first: singular
                c = rng.randrange(q)
                rows[-1] = [c * v % q for v in rows[0]] if n > 1 else [0]
            A = [[mod.residue(v) for v in row] for row in rows]
            M = sympy.Matrix(rows)
            det = int(M.det()) % q
            assert determinant(A).value == det
            if det == 0:
                singular += 1
                with pytest.raises(UsageError, match="matrix not invertible"):
                    invert_matrix(A)
                continue
            inverse = M.inv_mod(q)
            assert [[e.value for e in row] for row in invert_matrix(A)] == [
                [int(v) for v in inverse.row(r)] for r in range(n)
            ]
    assert singular >= 24


def test_elimination_validates_shape_and_modulus():
    q7 = PrimeModulus(7)
    with pytest.raises(UsageError):
        determinant([[Q5.residue(1), Q5.residue(2)]])
    with pytest.raises(UsageError):
        invert_matrix([[Q5.residue(1), Q5.residue(2)], [Q5.residue(3), q7.residue(4)]])
