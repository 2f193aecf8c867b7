import random

import pytest

from polyxform.errors import NoSuchRoot, NotInvertible, UsageError
from polyxform.cli import singularity_experiment
from polyxform.extension import ExtensionContext, find_extension_root_of_order, multiplicative_order
from polyxform.modcore import PrimeModulus, is_prime
from polyxform.oracles import (
    CirculantSpec,
    check_principal_root,
    circulant_det_bruteforce,
    circulant_det_formula,
    find_root_of_order,
    naive_dft,
    naive_inverse_dft,
)


def test_multiplicative_order_golden():
    q = PrimeModulus(7)
    assert multiplicative_order(q.residue(1), 6) == 1
    assert multiplicative_order(q.residue(6), 6) == 2
    assert multiplicative_order(q.residue(2), 6) == 3
    assert multiplicative_order(q.residue(3), 6) == 6
    with pytest.raises(UsageError):  # 3 has order 6 mod 7, which does not divide 4
        multiplicative_order(q.residue(3), 4)


def test_multiplicative_order_exhaustive_small_fields():
    for p in (5, 11, 13, 31):
        q = PrimeModulus(p)
        for a in range(1, p):
            d = multiplicative_order(q.residue(a), p - 1)
            assert pow(a, d, p) == 1
            assert all(pow(a, e, p) != 1 for e in range(1, d))


def test_find_root_of_order_golden():
    q13 = PrimeModulus(13)
    assert find_root_of_order(1, q13).value == 1
    assert find_root_of_order(2, q13).value == 12
    assert find_root_of_order(3, q13).value == 3
    assert find_root_of_order(4, q13).value == 5
    with pytest.raises(NoSuchRoot):
        find_root_of_order(5, q13)
    with pytest.raises(UsageError):
        find_root_of_order(0, q13)


def test_find_root_of_order_all_divisors():
    for p in (7, 13, 31, 43):
        q = PrimeModulus(p)
        for n in range(1, p):
            if (p - 1) % n:
                continue
            w = find_root_of_order(n, q)
            assert multiplicative_order(w, p - 1) == n


def test_principal_certificate_passes_for_true_roots():
    q = PrimeModulus(13)
    for n in (2, 3, 4, 6, 12):
        cert = check_principal_root(find_root_of_order(n, q), n)
        assert cert.passed and cert.failed_j is None


def test_principal_certificate_fails_for_wrong_order():
    q = PrimeModulus(13)
    # 3 has order 3, so it is not a principal 6th root: the j=3 sum is
    # 6 * 1 != 0
    cert = check_principal_root(q.residue(3), 6)
    assert cert.power_check  # 3^6 = 1 still holds
    assert not cert.sum_check
    assert cert.failed_j == 3


def test_principal_certificate_in_extension():
    p = PrimeModulus(7)
    ctx = ExtensionContext(p, p.residue(2))
    omega = find_extension_root_of_order(9, ctx)
    cert = check_principal_root(omega, 9)
    assert cert.passed


def test_find_extension_root_orders():
    p = PrimeModulus(7)
    ctx = ExtensionContext(p, p.residue(2))
    for n in (1, 2, 3, 6, 9, 18, 19, 342):
        assert ctx.group_order % n == 0
        omega = find_extension_root_of_order(n, ctx)
        assert multiplicative_order(omega, ctx.group_order) == n
    with pytest.raises(NoSuchRoot):
        find_extension_root_of_order(5, ctx)


def test_naive_dft_golden_mod5():
    # x = [1, 2, 3, 4], omega = 2 (order 4 mod 5)
    q = PrimeModulus(5)
    x = [q.residue(v) for v in (1, 2, 3, 4)]
    X = naive_dft(x, q.residue(2))
    # X0 = 10 = 0; X1 = 1 + 4 + 12 + 32 = 49 = 4; X2 = 1 - 2 + 3 - 4 = -2 = 3
    # X3 = 1 + 2*3 + 3*4 + 4*2 = 27 = 2
    assert [v.value for v in X] == [0, 4, 3, 2]


def test_naive_dft_rejects_order_mismatch():
    q = PrimeModulus(5)
    with pytest.raises(UsageError):
        naive_dft([q.residue(1)] * 3, q.residue(2))


def test_dft_roundtrip_base_field():
    rng = random.Random(31)
    for _ in range(50):
        p = rng.choice([13, 31, 61, 97])
        q = PrimeModulus(p)
        divisors = [n for n in range(2, p) if (p - 1) % n == 0 and n % p]
        n = rng.choice(divisors)
        omega = find_root_of_order(n, q)
        x = [q.residue(rng.randrange(p)) for _ in range(n)]
        assert naive_inverse_dft(naive_dft(x, omega), omega) == x


def test_dft_roundtrip_extension():
    p = PrimeModulus(7)
    ctx = ExtensionContext(p, p.residue(2))
    omega = find_extension_root_of_order(18, ctx)
    rng = random.Random(37)
    x = [ctx.element(*(rng.randrange(7) for _ in range(3))) for _ in range(18)]
    assert naive_inverse_dft(naive_dft(x, omega), omega) == x


def test_inverse_dft_rejects_characteristic_length():
    q = PrimeModulus(5)
    omega = find_root_of_order(1, q)
    with pytest.raises(NotInvertible):
        naive_inverse_dft([q.residue(1)] * 5, q.residue(1))


def test_dft_linearity():
    q = PrimeModulus(13)
    omega = find_root_of_order(6, q)
    rng = random.Random(41)
    for _ in range(20):
        x = [q.residue(rng.randrange(13)) for _ in range(6)]
        y = [q.residue(rng.randrange(13)) for _ in range(6)]
        c = q.residue(rng.randrange(13))
        lhs = naive_dft([a + c * b for a, b in zip(x, y)], omega)
        X, Y = naive_dft(x, omega), naive_dft(y, omega)
        assert lhs == [a + c * b for a, b in zip(X, Y)]


def test_dft_convolution_theorem():
    # cyclic convolution in time <=> pointwise product in frequency
    q = PrimeModulus(13)
    n = 6
    omega = find_root_of_order(n, q)
    rng = random.Random(43)
    for _ in range(20):
        x = [q.residue(rng.randrange(13)) for _ in range(n)]
        y = [q.residue(rng.randrange(13)) for _ in range(n)]
        conv = [
            sum(
                (x[k] * y[(j - k) % n] for k in range(n)),
                q.residue(0),
            )
            for j in range(n)
        ]
        X, Y = naive_dft(x, omega), naive_dft(y, omega)
        assert naive_dft(conv, omega) == [a * b for a, b in zip(X, Y)]


def test_circulant_materialize_golden():
    q = PrimeModulus(7)
    spec = CirculantSpec(tuple(q.residue(v) for v in (1, 2, 3)))
    rows = [[e.value for e in row] for row in spec.materialize()]
    assert rows == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]


def test_circulant_formula_vs_bruteforce_golden():
    q = PrimeModulus(7)
    spec = CirculantSpec(tuple(q.residue(v) for v in (1, 2, 3)))
    d1 = circulant_det_formula(spec, q)
    d2 = circulant_det_bruteforce(spec)
    assert d1 == d2
    # 1 + 8 + 27 - 18 = 18 = 4 mod 7
    assert d1.value == 4


def test_circulant_formula_vs_bruteforce_random():
    rng = random.Random(47)
    primes = [p for p in range(7, 200) if is_prime(p) and p % 3 == 1]
    for _ in range(300):
        q = PrimeModulus(rng.choice(primes))
        t = rng.choice([d for d in (2, 3, 4, 6) if (q.q - 1) % d == 0])
        spec = CirculantSpec(
            tuple(q.residue(rng.randrange(q.q)) for _ in range(t))
        )
        assert circulant_det_formula(spec, q) == circulant_det_bruteforce(spec)


def test_circulant_formula_needs_divisibility():
    q = PrimeModulus(7)
    spec = CirculantSpec(tuple(q.residue(v) for v in (1, 2, 3, 4)))
    with pytest.raises(NoSuchRoot):
        circulant_det_formula(spec, q)  # 4 does not divide 6


def test_singularity_experiment_deterministic():
    q = PrimeModulus(103)
    a = singularity_experiment(q, trials=50_000, seed=9)
    b = singularity_experiment(q, trials=50_000, seed=9)
    assert a == b
    assert a["trials"] == 50_000
    # exact rate: the DFT maps coefficient triples bijectively onto
    # eigenvalue triples, so singular count is q^3 - (q-1)^3
    exact = (103**3 - 102**3) / 103**3
    assert abs(a["fraction"] - exact) < 5e-3


def test_singularity_experiment_matches_slow_count():
    q = PrimeModulus(7)
    res = singularity_experiment(q, trials=5_000, seed=1)
    # independent oracle on the same fraction: exhaustive census mod 7
    singular_cells = sum(
        1
        for c0 in range(7)
        for c1 in range(7)
        for c2 in range(7)
        if (c0**3 + c1**3 + c2**3 - 3 * c0 * c1 * c2) % 7 == 0
    )
    expected = singular_cells / 7**3
    assert abs(res["fraction"] - expected) < 0.02


def test_singularity_experiment_validates_args():
    with pytest.raises(UsageError):
        singularity_experiment(PrimeModulus(103), trials=0, seed=1)
    with pytest.raises(UsageError):
        singularity_experiment(PrimeModulus(11), trials=10, seed=1)
