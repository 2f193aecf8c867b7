import random

import pytest

from polyxform.errors import UsageError
from polyxform.extension import find_noncube, is_cube
from polyxform.modcore import PrimeModulus, is_prime, pow_mod
from polyxform.oracles import (
    build_recovery,
    cube_root_fermat,
    cube_table,
    evaluate_components,
    recover_components,
)


def test_cube_table_golden():
    q7 = PrimeModulus(7)
    t = cube_table(q7)
    assert [r.value for r in t[q7.residue(1)]] == [1, 2, 4]
    assert t[q7.residue(2)] == ()
    q11 = PrimeModulus(11)
    assert [r.value for r in cube_table(q11)[q11.residue(9)]] == [4]


def test_cube_root_fermat_golden():
    q = PrimeModulus(11)
    assert cube_root_fermat(q.residue(9), q).value == 4
    assert cube_root_fermat(q.residue(0), q).value == 0
    assert cube_root_fermat(q.residue(1), q).value == 1


def test_cube_root_fermat_rejects_wrong_class():
    q = PrimeModulus(7)  # 7 = 1 mod 3
    with pytest.raises(UsageError):
        cube_root_fermat(q.residue(2), q)


def test_cubic_residue_count_small_primes():
    # q = 1 mod 3: exactly (q-1)/3 nonzero cubic residues
    for q in range(7, 500):
        if not is_prime(q) or q % 3 != 1:
            continue
        mod = PrimeModulus(q)
        t = cube_table(mod)
        nonzero_cubes = sum(
            1 for x, roots in t.items() if x.value != 0 and roots
        )
        assert nonzero_cubes == (q - 1) // 3


def test_fermat_cube_root_all_x_small_primes():
    for q in range(5, 200):
        if not is_prime(q) or q % 3 != 2:
            continue
        mod = PrimeModulus(q)
        for x in range(q):
            r = cube_root_fermat(mod.residue(x), mod)
            assert pow(r.value, 3, q) == x


def test_find_noncube_golden():
    assert find_noncube(PrimeModulus(7)).value == 2
    assert find_noncube(PrimeModulus(13)).value == 2
    with pytest.raises(UsageError, match="cubing is a bijection"):
        find_noncube(PrimeModulus(11))


def test_find_noncube_randomized_scan():
    y = find_noncube(PrimeModulus(103), rng_seed=5)
    assert not is_cube(y)


def test_noncube_density_exact():
    # exactly 2/3 of [1, p) are non-cubes when p = 1 mod 3
    for p in (7, 13, 103, 997):
        mod = PrimeModulus(p)
        count = sum(1 for v in range(1, p) if not is_cube(mod.residue(v)))
        assert 3 * count == 2 * (p - 1)


def test_build_recovery_golden_mod5():
    q = PrimeModulus(5)
    rm = build_recovery([q.residue(2), q.residue(3)])
    assert [[e.value for e in row] for row in rm.matrix] == [[1, 2], [1, 3]]
    rec = recover_components([q.residue(0), q.residue(1)], rm)
    assert [r.value for r in rec] == [3, 1]


def test_build_recovery_three_roots_mod7():
    q = PrimeModulus(7)
    rm = build_recovery([q.residue(1), q.residue(2), q.residue(4)])
    assert rm.dimension == 3
    c = q.residue(5)
    rec = recover_components([c, c, c], rm)
    assert [r.value for r in rec] == [5, 0, 0]


def test_build_recovery_rejects_bad_roots():
    q = PrimeModulus(7)
    with pytest.raises(UsageError):
        build_recovery([q.residue(1), q.residue(1)])
    with pytest.raises(UsageError):
        build_recovery([q.residue(0), q.residue(1)])


def test_recover_roundtrip_random():
    rng = random.Random(11)
    primes = [
        q for q in range(7, 10_000) if is_prime(q) and q % 3 == 1
    ]
    for _ in range(200):
        q = PrimeModulus(rng.choice(primes))
        roots = []
        while len(roots) < 3:
            v = rng.randrange(1, q.q)
            if v not in [r.value for r in roots]:
                roots.append(q.residue(v))
        rm = build_recovery(roots)
        comps = [q.residue(rng.randrange(q.q)) for _ in range(3)]
        evals = evaluate_components(comps, roots)
        assert recover_components(evals, rm) == comps


def test_singularity_rate_of_random_distinct_triples():
    # root-powered matrices on distinct nonzero roots are Vandermonde,
    # hence never singular; the 1/q rate belongs to random circulants
    q = PrimeModulus(31)
    rng = random.Random(3)
    for _ in range(500):
        vals = rng.sample(range(1, q.q), 3)
        rm = build_recovery([q.residue(v) for v in vals])
        assert rm.inverse  # inversion succeeded


def test_cube_roots_verified_by_cubing():
    for q in (7, 13, 31, 43):
        mod = PrimeModulus(q)
        for x, roots in cube_table(mod).items():
            for r in roots:
                assert pow_mod(r, 3) == x
