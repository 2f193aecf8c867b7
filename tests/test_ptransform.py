import ast
import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from polyxform import bigmul, extension, modcore, oracles, ptransform
from polyxform.cli import EXIT_USAGE, main
from polyxform.errors import PrimeSupplyExhausted, UsageError
from polyxform.extension import ext_mul, multiplicative_order
from polyxform.modcore import PrimeModulus, is_prime
from polyxform.oracles import CrtBasis, build_recovery, crt_reconstruct, naive_dft, recover_components
from polyxform.ptransform import (
    INPUT_AWARE,
    STRICT,
    IndexCheck,
    TransformReport,
    inverse_plan,
    matmul_mod,
    oracle_output,
    plan_from_json,
    plan_to_json,
    preprocess,
    spot_check,
    transform,
    transform_elements,
)


def test_preprocess_rejects_bad_args():
    with pytest.raises(UsageError):
        preprocess(p=7, bound_mode="loose")
    with pytest.raises(UsageError):
        preprocess(p=11)  # 11 = 2 mod 3
    with pytest.raises(UsageError):
        preprocess()  # neither n_target nor p
    with pytest.raises(UsageError, match="a prime modulus is a Python int, not float"):
        preprocess(p=13.0)
    with pytest.raises(UsageError, match="a transform size is a Python int, not float"):
        preprocess(n_target=300.5)
    # a plan file refuses all of these, so a plan may not hold them either;
    # 2^63 would admit input past int64
    for coeff_bound, form in ((-1, "must be in"), (0, "must be in"), (2**63, "must be in"),
                              (2.5, "is a Python int"), (12.0, "is a Python int"),
                              (True, "is a Python int")):
        with pytest.raises(UsageError, match=f"coeff_bound {form}"):
            preprocess(p=13, coeff_bound=coeff_bound)
    with pytest.raises(UsageError, match="not both"):
        preprocess(p=7, n_target=100000)  # n_target would pick a larger p
    assert main(["plan", "--p", "7", "--n-target", "100000"]) == EXIT_USAGE


def test_preprocess_from_target_size():
    plan = preprocess(n_target=300)
    # smallest prime p = 1 mod 3 with p^3 >= 300 is 13
    assert plan.p.q == 13
    assert plan.n == 13**3 - 1


def test_plan7_strict_shape(plan7):
    assert plan7.p.q == 7
    assert plan7.n == 342
    assert plan7.prime_product > plan7.target_bound == 9 * 7**6
    assert plan7.coeff_bound == 6


@pytest.mark.parametrize("p", [7, 13, 19, 43])
def test_bound_mode_keyword_selects_nothing(p):
    # perfbench still passes bound_mode; either value sizes the primes
    # against 9 p^6, so the mul-pt plan keeps its primes
    plans = [preprocess(p=p, bound_mode=mode, coeff_bound=1) for mode in (STRICT, INPUT_AWARE)]
    assert plans[0] == plans[1] and plans[0].prime_product > 9 * p**6
    if p == 13:
        assert [s.q.q for s in plans[0].slots] == [31, 43, 109, 127, 157]


def test_plan_slot_invariants(plan13):
    assert plan13.p.q == 13
    p = 13
    for slot in plan13.slots:
        q = slot.q.q
        assert q % 3 == 1 and q != p
        assert list(slot.roots) == sorted(slot.roots)
        assert len(set(slot.roots)) == 3
        for r, w, period in zip(slot.roots, slot.omegas, slot.periods):
            assert pow(r, 3, q) == plan13.y.value % q
            assert plan13.omega.reduce_at(slot.q.residue(r)).value == w
            assert pow(w, period, q) == 1
            assert multiplicative_order(slot.q.residue(w), q - 1) == period


def test_slot_rule_matches_the_boxed_cube_table(plan13):
    # every prime up to MAX_SCAN_FACTOR * 13, judged by oracles.cube_table
    y, omega, omega_inv = plan13.y, plan13.omega, plan13.omega**-1
    accepted = []
    for q in filter(is_prime, range(2, ptransform.MAX_SCAN_FACTOR * 13 + 1)):
        if q == 13:
            continue
        modulus = PrimeModulus(q)
        roots = oracles.cube_table(modulus)[modulus.residue(y.value)]
        usable = (len(roots) == 3 and 0 not in [r.value for r in roots]
                  and all(w.reduce_at(r).value for w in (omega, omega_inv) for r in roots))
        slot = ptransform._try_slot(modulus, y, omega, omega_inv)
        assert (slot is not None) == usable, q
        if usable:
            assert slot.roots == tuple(r.value for r in roots)
            accepted.append(q)
    assert accepted[:5] == [s.q.q for s in plan13.slots]
    # y = 0 mod q leaves no nonzero cube root
    seven = PrimeModulus(7)
    assert ptransform._try_slot(seven, PrimeModulus(13).residue(7), omega, omega_inv) is None


def test_slots_hold_plain_integers(plan7, plan13):
    # boxed values belong at the API and in the oracles, not in a plan's slots
    fields = {f.name for f in dataclasses.fields(ptransform.PTPrimeSlot)}
    assert fields == {"q", "roots", "omegas", "periods"}
    for plan in (plan7, plan13, inverse_plan(plan13)):
        for slot in plan.slots:
            for triple in (slot.roots, slot.omegas, slot.periods):
                assert len(triple) == 3 and all(type(v) is int for v in triple)


def test_plan_building_inverts_no_matrix(monkeypatch, plan13):
    # recovery is the closed-form Vandermonde inverse; Gauss-Jordan is an oracle
    calls = []
    invert = oracles.invert_matrix

    def counting(*args):
        calls.append(1)
        return invert(*args)

    monkeypatch.setattr(oracles, "invert_matrix", counting)
    build_recovery([PrimeModulus(7).residue(r) for r in (1, 2, 4)])
    assert calls == [1]  # the counter sees the binding build_recovery calls
    calls.clear()
    preprocess(p=13)
    plan_from_json(plan_to_json(plan13))
    inverse_plan(plan13)
    assert calls == []


def test_vandermonde_closed_form_matches_gauss_jordan():
    # every prime q = 1 mod 3 below 2000 at which y in {2, 3, 5} has three cube roots
    checked = 0
    for q in filter(is_prime, range(7, 2000, 6)):  # odd q = 1 mod 3 is 1 mod 6
        for y in (2, 3, 5):
            roots = [r for r in range(1, q) if (r**3 - y) % q == 0]
            if len(roots) != 3:
                continue
            forward, inverse = ptransform._vandermonde(roots, q)
            gauss_jordan = build_recovery([PrimeModulus(q).residue(r) for r in roots]).inverse
            assert inverse.tolist() == [[e.value for e in row] for row in gauss_jordan]
            assert (forward @ inverse % q == np.eye(3, dtype=np.int64)).all()
            checked += 1
    assert checked == 143  # of the 148 primes x 3 values of y


def test_plan_omega_has_full_order(plan13):
    ctx = plan13.context
    assert multiplicative_order(plan13.omega, ctx.group_order) == plan13.n


def test_prime_supply_exhausted_when_scan_capped(monkeypatch):
    monkeypatch.setattr(ptransform, "MAX_SCAN_FACTOR", 1)
    with pytest.raises(PrimeSupplyExhausted):
        preprocess(p=7)


def test_folding_identity(plan13):
    # dft(fold(x)) must equal the direct full-length sum for every output
    rng = random.Random(53)
    for _ in range(10):
        x = [rng.randrange(13) for _ in range(plan13.n)]
        slot = rng.choice(plan13.slots)
        i = rng.randrange(3)
        q = slot.q.q
        w, period = slot.omegas[i], slot.periods[i]
        folded = conftest.fold_coefficients(x, slot, i)
        assert len(folded) == period
        got = naive_dft(folded, slot.q.residue(w))
        for j in range(period):
            direct = sum(v * pow(w, j * k, q) for k, v in enumerate(x)) % q
            assert got[j].value == direct


def test_transform_validates_input(plan13):
    with pytest.raises(UsageError):
        transform([0] * (plan13.n - 1), plan13)
    with pytest.raises(UsageError):
        transform([13] + [0] * (plan13.n - 1), plan13)  # above coeff_bound
    with pytest.raises(UsageError):
        transform([0] * (plan13.n - 1) + [-1], plan13)
    with pytest.raises(UsageError):
        transform([2**70] + [0] * (plan13.n - 1), plan13)  # beyond int64 too


def test_transform_elements_validates_input(plan13):
    n = plan13.n
    with pytest.raises(UsageError):
        transform_elements([(0, 0, 0)] * (n - 1), plan13)
    with pytest.raises(UsageError):
        transform_elements([(0, 0)] * n, plan13)  # pairs, not triples
    with pytest.raises(UsageError):
        transform_elements([(0, 0, 0)] * (n - 1) + [(0, 0)], plan13)  # ragged
    with pytest.raises(UsageError):
        transform_elements([0] * n, plan13)  # scalars, not triples


def triples(outputs):
    """transform_elements' (n, 3) array as the list of tuples boxed_pipeline returns."""
    return [tuple(row) for row in outputs.tolist()]


def test_transform_elements_takes_a_column_and_returns_int64_array(plan13):
    rng = random.Random(19)
    x = [rng.randint(0, plan13.coeff_bound) for _ in range(plan13.n)]
    column = transform_elements(np.array(x)[:, None], plan13)
    widened = transform_elements([(v, 0, 0) for v in x], plan13)
    for out in (column, widened):
        assert isinstance(out, np.ndarray)
        assert out.shape == (plan13.n, 3) and out.dtype == np.int64
    assert np.array_equal(column, widened)
    with pytest.raises(UsageError):
        transform_elements(np.array(x[1:])[:, None], plan13)  # a column one short


def test_transform_returns_tuples_of_python_ints(plan13):
    out = transform([random.Random(23).randint(0, 12) for _ in range(plan13.n)], plan13)
    assert type(out) is list and len(out) == plan13.n
    assert all(type(row) is tuple and len(row) == 3 for row in out)
    assert all(type(v) is int for row in out for v in row)


def test_slot_table_on_column_matches_widened_triples(plan13):
    # the column is reduced at each root by 1 alone, the triples by (1, r, r^2)
    rng = random.Random(29)
    column = np.array([[rng.randint(0, 12)] for _ in range(plan13.n)])
    widened = np.concatenate([column, np.zeros((plan13.n, 2), dtype=column.dtype)], axis=1)
    for plan in (plan13, inverse_plan(plan13)):
        for slot in plan.slots:
            assert np.array_equal(
                ptransform._slot_table(column, slot, 12),
                ptransform._slot_table(widened, slot, 12),
            )


def boxed_pipeline(xs, plan):
    """The boxed composition the array kernels replaced, kept as a reference.

    Per slot and root: reduce, fold_coefficients, naive_dft; per index
    class, recover_components by the Gauss-Jordan build_recovery matrix;
    per output, crt_reconstruct(...) % p.
    """
    p = plan.p.q
    basis = CrtBasis.of([slot.q.q for slot in plan.slots])
    tables = []
    for slot in plan.slots:
        q = slot.q.q
        recovery = build_recovery([slot.q.residue(r) for r in slot.roots])
        dfts = []
        for i, (r, w) in enumerate(zip(slot.roots, slot.omegas)):
            reduced = [(a0 + a1 * r + a2 * r * r) % q for a0, a1, a2 in xs]
            folded = conftest.fold_coefficients(reduced, slot, i)
            dfts.append(naive_dft(folded, slot.q.residue(w)))
        tables.append([
            recover_components(
                [dfts[i][j % period] for i, period in enumerate(slot.periods)],
                recovery,
            )
            for j in range(slot.index_period)
        ])
    out = []
    for j in range(plan.n):
        rows = [table[j % len(table)] for table in tables]
        out.append(tuple(
            crt_reconstruct([row[t].value for row in rows], basis) % p for t in range(3)
        ))
    return out


@pytest.mark.parametrize("p", [7, 13])
def test_pipeline_matches_boxed_composition(p):
    plan = preprocess(p=p)
    rng = random.Random(p)
    x = [rng.randint(0, plan.coeff_bound) for _ in range(plan.n)]
    fwd = transform(x, plan)
    assert fwd == boxed_pipeline([(v, 0, 0) for v in x], plan)
    inv = inverse_plan(plan)
    assert triples(transform_elements(fwd, inv)) == boxed_pipeline(fwd, inv)


def test_pipeline_matches_boxed_composition_across_crt_blocks(monkeypatch):
    # with 97-row blocks every block after the first starts its gather at
    # a nonzero phase of each table (97 divides no index period), and
    # the slot stage reduces and folds the input in several row blocks
    monkeypatch.setattr(ptransform, "_ROW_BLOCK", 97)
    plan = preprocess(p=13)
    inv = inverse_plan(plan)
    assert all(slot.index_period % 97 for slot in plan.slots + inv.slots)
    rng = random.Random(97)
    x = [rng.randint(0, plan.coeff_bound) for _ in range(plan.n)]
    fwd = transform(x, plan)
    assert fwd == boxed_pipeline([(v, 0, 0) for v in x], plan)
    assert triples(transform_elements(fwd, inv)) == boxed_pipeline(fwd, inv)


@pytest.mark.parametrize("shape", [(342,), (342, 3)])
@pytest.mark.parametrize("period", [1, 9, 342, 7, 100, 400])  # divides n, not, > n
def test_fold_matches_loop(shape, period):
    q = 449
    values = np.random.default_rng(period).integers(0, q, size=shape)
    rows = values.reshape(len(values), -1).tolist()
    sums = [[0] * len(rows[0]) for _ in range(period)]
    for k, row in enumerate(rows):
        for c, v in enumerate(row):
            sums[k % period][c] += v
    expected = np.array(sums).reshape((period,) + shape[1:]) % q
    got = ptransform._fold(values, period, q)
    assert got.shape == expected.shape and (got == expected).all()


def _element_of_order(q, d):
    """w^((q-1)/d) for a generator w of F_q^*: an element of order d."""
    modulus = PrimeModulus(q)
    g = next(g for g in range(2, q) if multiplicative_order(modulus.residue(g), q - 1) == q - 1)
    return pow(g, (q - 1) // d, q)


@pytest.mark.parametrize("q, d", [(31, 1), (157, 156)])
def test_slot_dft_matches_naive_dft(q, d):
    w = _element_of_order(q, d)
    x = np.array([random.Random(d).randrange(q) for _ in range(d)], dtype=np.int64)
    modulus = PrimeModulus(q)
    boxed = naive_dft([modulus.residue(v) for v in x.tolist()], modulus.residue(w))
    assert (ptransform._dft_matrix(w, d, q) @ x % q).tolist() == [v.value for v in boxed]


def test_slot_dft_spanning_many_blocks():
    # d = 3000: the boxed naive_dft needs about a minute here, so sampled
    # rows of the full matrix are summed instead
    q, d = 3001, 3000
    w = _element_of_order(q, d)
    rng = random.Random(3001)
    x = [rng.randrange(q) for _ in range(d)]
    got = (ptransform._dft_matrix(w, d, q) @ np.array(x, dtype=np.int64) % q).tolist()
    powers = [pow(w, k, q) for k in range(d)]
    for j in [0, d - 1] + rng.sample(range(d), 100):
        assert got[j] == sum(v * powers[j * k % d] for k, v in enumerate(x)) % q


def test_slot_dft_refuses_int64_overflow():
    q = 2**31 - 1  # 4 * (q - 1)^2 >= 2^63
    with pytest.raises(UsageError):
        ptransform._dft_matrix(1, 4, q)
    with pytest.raises(UsageError):
        ptransform._dft_matrix(1, 3, q)
    assert ptransform._dft_matrix(1, 2, q).tolist() == [[1, 1], [1, 1]]  # 2 * (q - 1)^2 < 2^63


def _held_tables(plan):
    """Every input-independent array a plan's slots hold, by identity; all read-only."""
    held = []
    for slot in plan.slots:
        held += list(slot.vandermonde) + list(slot.dfts)
    assert not any(a.flags.writeable for a in held)
    return [id(a) for a in held]


def _second_call_builds_nothing(monkeypatch, plan, x, first, second):
    """Both outputs of transform_elements at indices first and then second,
    after checking that the second call builds no table and keeps every table
    the first one held."""
    before = transform_elements(x, plan, first)
    held = _held_tables(plan)
    schedule = plan._crt
    built = []
    for name in ("_vandermonde", "_dft_matrix", "_crt_schedule", "_Garner"):
        monkeypatch.setattr(ptransform, name, lambda *a: built.append(a))
    after = transform_elements(x, plan, second)
    assert built == [] and _held_tables(plan) == held and plan._crt is schedule
    return before, after


@pytest.mark.parametrize("indices", [None, [0, 5, 2000]])
def test_second_transform_rebuilds_no_table(monkeypatch, indices):
    plan = preprocess(p=13)
    x = np.random.default_rng(13).integers(0, 13, size=(plan.n, 3))
    first, again = _second_call_builds_nothing(monkeypatch, plan, x, indices, indices)
    assert np.array_equal(first, again)


@pytest.mark.parametrize("order", ["sampled-first", "all-n-first"])
def test_sampled_and_all_n_calls_share_their_tables(monkeypatch, order):
    # three rows, fewer than most root periods here: a sampled call builds
    # every table an all-n call reads, and an all-n call every table a
    # sampled one reads
    plan = preprocess(p=13)
    rows = [0, 5, 2000]
    assert len(rows) < max(d for slot in plan.slots for d in slot.periods)
    x = np.random.default_rng(13).integers(0, 13, size=(plan.n, 3))
    if order == "sampled-first":
        sampled, full = _second_call_builds_nothing(monkeypatch, plan, x, rows, None)
    else:
        full, sampled = _second_call_builds_nothing(monkeypatch, plan, x, None, rows)
    assert np.array_equal(sampled, full[rows])


def test_first_transform_builds_the_schedule_once(monkeypatch):
    # one schedule per plan, with one Garner per merge step plus the final
    # one, all on the first call, none in preprocess
    plan = preprocess(p=13)
    schedules, garners = [], []
    schedule_fn, garner_cls = ptransform._crt_schedule, ptransform._Garner
    monkeypatch.setattr(
        ptransform, "_crt_schedule", lambda *a: schedules.append(1) or schedule_fn(*a)
    )
    monkeypatch.setattr(ptransform, "_Garner", lambda *a: garners.append(a) or garner_cls(*a))
    assert "_crt" not in vars(plan)
    column = np.ones((plan.n, 1), dtype=np.int64)
    for indices in (None, [0, 5], None):
        transform_elements(column, plan, indices)
    moduli = [slot.q.q for slot in plan.slots]
    assert schedules == [1]
    assert garners == [((31, 43), 31 * 43), ([31 * 43] + moduli[2:], 13)]


@pytest.fixture(scope="module")
def plan13_big():
    """The strict p = 13 plan for coefficients up to 2^62."""
    return preprocess(p=13, coeff_bound=2**62)


@pytest.fixture(scope="module")
def plan13_grown(plan13_big):
    """plan13_big over 14 helper primes, the next nine its scan would take
    past 157, for a Q past 100 bits: a test-only plan, which preprocess never
    builds."""
    primes = [s.q.q for s in plan13_big.slots] + [223, 229, 277, 283, 307, 397, 433, 439, 457]
    assert primes[:5] == [31, 43, 109, 127, 157]
    big = plan13_big
    return ptransform._plan(big.p, big.y, big.omega, primes, big.coeff_bound)


def big_naturals(rng, n):
    """n naturals in [0, 2^62], at the bound and below it."""
    return [rng.choice((0, 1, 2**62, 2**62 - 1, rng.getrandbits(62))) for _ in range(n)]


def test_pipeline_reduces_inputs_up_to_2_62(plan13_big):
    x = big_naturals(random.Random(70), plan13_big.n)
    assert transform(x, plan13_big) == boxed_pipeline([(v, 0, 0) for v in x], plan13_big)


def test_transform_makes_no_boxed_calls(monkeypatch):
    plan = preprocess(p=13)
    x = [random.Random(3).randint(0, 12) for _ in range(plan.n)]
    calls = []

    def counting(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or fn(*a))

    counting(modcore, "mul_mod")
    counting(extension, "ext_mul")
    counting(oracles, "naive_dft")
    q7 = PrimeModulus(7)
    oracles.circulant_det_formula(oracles.CirculantSpec((q7.residue(1),) * 3), q7)
    assert "naive_dft" in calls and "mul_mod" in calls  # the counters see boxed calls
    calls.clear()
    transform(x, plan)
    assert calls == []


SMALL_PRIMES = [q for q in range(2, 1 << 16) if is_prime(q)]


@settings(max_examples=60, deadline=None)
@given(
    moduli=st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=12, unique=True),
    p=st.sampled_from(SMALL_PRIMES),
    seed=st.integers(0, 2**32 - 1),
)
@example(moduli=[65521, 65519, 65497, 65479, 65449], p=13, seed=0)  # product ~ 2^80
def test_garner_matches_crt_reconstruct(moduli, p, seed):
    rng = random.Random(seed)
    rows = [[rng.randrange(m) for m in moduli] for _ in range(8)]
    rows += [[0] * len(moduli), [m - 1 for m in moduli]]
    residues = [np.array(column, dtype=np.int64) for column in zip(*rows)]
    got = ptransform._crt_mod_p(residues, ptransform._Garner(moduli, p), len(rows)).tolist()
    basis = CrtBasis.of(moduli)
    assert got == [crt_reconstruct(row, basis) % p for row in rows]


def test_garner_on_plan_primes_beyond_64_bits(plan13_grown):
    moduli = [slot.q.q for slot in plan13_grown.slots]
    assert math.prod(moduli) > 2**64
    rng = random.Random(14)
    rows = [[rng.randrange(m) for m in moduli] for _ in range(200)]
    residues = [np.array(column, dtype=np.int64) for column in zip(*rows)]
    basis = CrtBasis.of(moduli)
    assert ptransform._crt_mod_p(residues, ptransform._Garner(moduli, 13), 200).tolist() == [
        crt_reconstruct(row, basis) % 13 for row in rows
    ]


# the largest prime Q with 3 * Q^2 < 2^63, and the next prime
_Q_AT_BOUND = next(q for q in range(math.isqrt((2**63 - 1) // 3), 0, -1) if is_prime(q))
_Q_PAST_BOUND = next(q for q in range(_Q_AT_BOUND + 1, 2 * _Q_AT_BOUND) if is_prime(q))
# the largest m with 3 * 61 * m < 2^63
_M_AT_BOUND = (2**63 - 1) // (3 * 61)


@pytest.mark.parametrize("moduli, m, past", [
    ((13, 31, _Q_AT_BOUND), 13, ((13, 31, _Q_PAST_BOUND), 13)),  # K * Q^2, m below Q
    ((31, 43, 61), _M_AT_BOUND, ((31, 43, 61), _M_AT_BOUND + 1)),  # K * Q * m, m above Q
])
def test_garner_is_exact_at_its_int64_bound_and_refused_past_it(moduli, m, past):
    def bound(moduli, m):
        return len(moduli) * max(moduli) * max(max(moduli), m)

    assert bound(moduli, m) < 2**63 <= bound(*past)
    rng = random.Random(63)
    rows = [[q - 1 for q in moduli], [0] * len(moduli)]
    rows += [[rng.randrange(q) for q in moduli] for _ in range(30)]
    tables = [np.array(column, dtype=np.int64) for column in zip(*rows)]
    got = ptransform._crt_mod_p(tables, ptransform._Garner(moduli, m), len(rows)).tolist()
    basis = CrtBasis.of(moduli)
    assert got == [crt_reconstruct(row, basis) % m for row in rows]
    with pytest.raises(UsageError):
        ptransform._Garner(*past)


@pytest.mark.parametrize("lengths, count", [
    ((5, 60, 1), 300),  # all shorter than a 97-row block; 300 is no multiple of 97
    ((400, 5, 97), 291),  # longer than count, shorter, and one block exactly
    ((130,), 500),  # one modulus
    ((5, 400), 0),  # no rows
])
def test_crt_mod_p_over_row_blocks_matches_crt_reconstruct(monkeypatch, lengths, count):
    monkeypatch.setattr(ptransform, "_ROW_BLOCK", 97)
    moduli = [65521, 65519, 65497][: len(lengths)]
    rng = random.Random(count)
    tables = [
        np.array([[rng.randrange(q) for _ in range(3)] for _ in range(size)], dtype=np.int64)
        for size, q in zip(lengths, moduli)
    ]
    got = ptransform._crt_mod_p(tables, ptransform._Garner(moduli, 13), count)
    assert got.shape == (count, 3)
    basis = CrtBasis.of(moduli)
    assert got.tolist() == [
        [crt_reconstruct([int(t[j % len(t), c]) for t in tables], basis) % 13 for c in range(3)]
        for j in range(count)
    ]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 16),
    q=st.sampled_from(SMALL_PRIMES),
    periods=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_step_at_the_int64_limit_matches_crt_reconstruct(k, q, periods, seed):
    # the largest group modulus M coprime to q with M * q within the limit
    # _merge_slots keeps for k slots, merged with q in the second position
    limit = math.isqrt((2**63 - 1) // k)
    m = next(m for m in range(limit // q, 0, -1) if math.gcd(m, q) == 1)
    rng = random.Random(seed)
    first = [m - 1, 0] + [rng.randrange(m) for _ in range(periods[0] - 2)]
    second = [q - 1, 0] + [rng.randrange(q) for _ in range(periods[1] - 2)]
    first, second = first[: periods[0]], second[: periods[1]]
    size = math.lcm(*periods)
    tables = [np.array(first, dtype=np.int64), np.array(second, dtype=np.int64)]
    got = ptransform._crt_mod_p(tables, ptransform._Garner((m, q), m * q), size).tolist()
    basis = CrtBasis.of([m, q])
    assert got == [
        crt_reconstruct([first[j % periods[0]], second[j % periods[1]]], basis)
        for j in range(size)
    ]


def flat_garner(xs, plan):
    """The CRT before slots were merged: every slot table gathered to n rows
    (in row blocks) and Garner's digits taken over all K primes.  The peak
    2^63 - 1 makes the slot stage reduce each block of xs mod q first."""
    x, p = np.asarray(xs), plan.p.q
    moduli = [slot.q.q for slot in plan.slots]
    tables = [ptransform._slot_table(x, slot, 2**63 - 1) for slot in plan.slots]
    out = np.empty((plan.n, 3), dtype=np.int64)
    for start in range(0, plan.n, 1 << 16):
        j = np.arange(start, min(start + (1 << 16), plan.n))
        digits = []
        for k, (table, q) in enumerate(zip(tables, moduli)):
            partial = sum(v * (math.prod(moduli[:i]) % q) for i, v in enumerate(digits))
            inverse = pow(math.prod(moduli[:k]), -1, q)
            digits.append((table[j % len(table)] - partial) % q * inverse % q)
        out[j] = sum(v * (math.prod(moduli[:k]) % p) for k, v in enumerate(digits)) % p
    return out


@pytest.mark.parametrize(
    "p, inverse", [(13, True), (19, True), (43, False), (43, True), (103, False)]
)
def test_merged_crt_matches_flat_garner(p, inverse):
    plan = preprocess(p=p)
    rng = random.Random(p)
    xs = np.array([[rng.randint(0, plan.coeff_bound)] for _ in range(plan.n)])
    if inverse:
        xs, plan = transform_elements(xs, plan), inverse_plan(plan)
    assert np.array_equal(transform_elements(xs, plan), flat_garner(xs, plan))


def test_merged_crt_matches_flat_garner_beyond_100_bits(plan13_grown):
    assert math.log2(plan13_grown.prime_product) > 100
    x = big_naturals(random.Random(141), plan13_grown.n)
    column = ptransform.natural_column(x, plan13_grown)
    want = flat_garner(column, plan13_grown)
    assert np.array_equal(transform_elements(column, plan13_grown), want)


@pytest.mark.parametrize("case", [
    "inside", "at +bound", "at -bound", "with -2^63", "negative triples inside",
])
def test_unreduced_fold_bound(monkeypatch, plan7, case):
    # with 97-row blocks the bound is ceil(2^63 / 97); an int64 input inside it
    # is folded without reducing its rows, any other is reduced block by block,
    # and both equal the reference, whose object rows are reduced exactly
    monkeypatch.setattr(ptransform, "_ROW_BLOCK", 97)
    bound = -(-(2**63) // 97)
    rng = np.random.default_rng(97)
    width = 3 if case == "negative triples inside" else 1
    x = rng.integers(-bound + 1, bound, size=(plan7.n, width))
    x[:4, 0] = [bound - 1, -(bound - 1), 0, 1]
    if case == "negative triples inside":
        x = -np.abs(x)
    edge = {"at +bound": bound, "at -bound": -bound, "with -2^63": -(2**63)}.get(case)
    if edge is not None:
        x[7, 0] = edge
    want = flat_garner(x.astype(object), plan7)
    fold, unreduced = ptransform._fold, []
    monkeypatch.setattr(
        ptransform,
        "_fold",
        lambda v, period, q: unreduced.append(bool(((v < 0) | (v >= q)).any())) or fold(v, period, q),
    )
    assert np.array_equal(transform_elements(x, plan7), want)
    assert any(unreduced) == (edge is None)


@pytest.mark.parametrize("row_block, peak, width, sums", [
    # the peak allows only k rows a folded entry: unreduced blocks of k * P rows
    (2, (2**63 - 1) // 2, 1, 2),
    (2, (2**63 - 1) // 3, 3, 3),
    (2, (2**63 - 1) // 5, 1, 5),
    # ceil(n / P) * peak < 2^63: one fold of the whole input per slot
    (1 << 14, 2**49 - 1, 3, "whole"),
    # just above 2^63 / _ROW_BLOCK: every block reduced mod q before its fold
    (1 << 14, 2**49, 1, "reduced"),
])
def test_first_fold_sums_what_the_peak_allows(monkeypatch, plan7, row_block, peak, width, sums):
    monkeypatch.setattr(ptransform, "_ROW_BLOCK", row_block)
    rng = np.random.default_rng(peak % 1000)
    x = rng.integers(-peak, peak, size=(plan7.n, width), endpoint=True)
    x[:2, 0] = [peak, -peak]
    want = flat_garner(x.astype(object), plan7)
    fold, calls = ptransform._fold, []

    def spy(values, period, q):
        calls.append((len(values), period, bool(((values < 0) | (values >= q)).any())))
        return fold(values, period, q)

    monkeypatch.setattr(ptransform, "_fold", spy)
    assert np.array_equal(transform_elements(x, plan7), want)
    # every _fold call is the first fold of one slot
    if sums == "reduced":
        assert not any(unreduced for *_, unreduced in calls)
    elif sums == "whole":
        whole = [(plan7.n, True)] * len(plan7.slots)
        assert [(rows, unreduced) for rows, _, unreduced in calls] == whole
    else:
        assert max(-(-rows // period) for rows, period, _ in calls) == sums
        assert len(calls) == sum(-(-plan7.n // (sums * s.index_period)) for s in plan7.slots)


def test_merge_slots_groups_at_p43():
    # slots merge in plan order while the table stays within n // 4 rows
    plan = preprocess(p=43)
    column = np.ones((plan.n, 1), dtype=np.int64)
    joins, final = plan._crt
    tables = ptransform._merge_slots(
        [ptransform._slot_table(column, slot, 1) for slot in plan.slots], joins
    )
    moduli = final.moduli
    assert [slot.q.q for slot in plan.slots] == [61, 67, 73, 103, 151, 193]
    assert moduli == (61 * 67 * 73, 103 * 151, 193)
    assert [len(t) for t in tables] == [3960, 2550, 192]


FAULTS_PER_CALL = """
import resource
import numpy as np
from polyxform import ptransform
plan = ptransform.preprocess(p=43)
column = np.random.default_rng(43).integers(0, plan.coeff_bound + 1, size=plan.n)[:, None]
for _ in range(7):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ptransform.transform_elements(column, plan)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_transform_elements_faults_in_no_fresh_pages_per_call():
    # A fresh interpreter with glibc's default malloc settings, so the heap
    # starts from a known state.  The first call's freed blocks raise glibc's
    # mmap threshold and the second grows the heap to the working size; past
    # that, blocks of _ROW_BLOCK rows keep the heap's free top below the trim
    # threshold, so no call hands pages back and faults them in again.
    # 16,384-row blocks fault in about 1,450 pages a call.
    src = Path(ptransform.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = [int(line) for line in done.stdout.split()]
    assert len(faults) == 7 and max(faults[2:]) < 50, faults


def test_transform_elements_at_indices(monkeypatch, plan13):
    # 97-row blocks: the merge steps and the gather both span several blocks
    monkeypatch.setattr(ptransform, "_ROW_BLOCK", 97)
    rng = random.Random(43)
    x = [rng.randint(0, plan13.coeff_bound) for _ in range(plan13.n)]
    column = np.array(x)[:, None]
    full = transform_elements(column, plan13)
    report = spot_check(x, plan13, sample=plan13.n, seed=4)
    assert [c.index for c in report.checks] == list(range(plan13.n))
    assert [c.pipeline for c in report.checks] == triples(full)
    picked = [plan13.n - 1, 0, 5, 5] + rng.sample(range(plan13.n), 200)
    assert np.array_equal(transform_elements(column, plan13, picked), full[picked])
    assert transform_elements(column, plan13, []).shape == (0, 3)
    for bad in ([plan13.n], [-1], [[0]]):
        with pytest.raises(UsageError):
            transform_elements(column, plan13, bad)


@pytest.mark.parametrize("p, sample", [
    (19, 2),  # fewer rows than every root period, so the merges run on 2 rows
    (19, 16),  # more rows than some periods, fewer than others
    (7, None),  # all n rows, reversed: every class table is read at every class
    (13, None),
])
def test_sampled_pipeline_matches_full_rows(p, sample):
    plan = preprocess(p=p)
    periods = [d for slot in plan.slots for d in slot.periods]
    rng = random.Random(p)
    column = np.array([rng.randint(0, plan.coeff_bound) for _ in range(plan.n)])[:, None]
    rows = rng.sample(range(plan.n), sample) if sample else list(range(plan.n))[::-1]
    if sample == 2:
        assert sample < min(periods)
    elif sample is None:
        assert plan.n > max(periods)
    full = transform_elements(column, plan)
    assert np.array_equal(transform_elements(column, plan, rows), full[rows])


def test_transform_zero_input(plan13):
    out = transform([0] * plan13.n, plan13)
    assert set(out) == {(0, 0, 0)}


def oracle_at(x, plan, index):
    """The direct oracle's output at one index, as a triple of Python ints."""
    return tuple(oracle_output(x, plan, [index])[0].tolist())


def test_transform_delta_input(plan13):
    # delta at 0 folds to delta, every small DFT output is 1, recovery
    # yields (1, 0, 0) and CRT keeps it; matches the oracle exactly
    x = [1] + [0] * (plan13.n - 1)
    out = transform(x, plan13)
    assert set(out) == {(1, 0, 0)}
    for j in (0, 1, 17, plan13.n - 1):
        assert oracle_at(x, plan13, j) == (1, 0, 0)


def test_slot_stage_is_linear_mod_q(plan13):
    # linearity holds per slot mod q (fold, dft, recovery are all linear);
    # it does NOT survive CRT + mod-p reduction, because the combined
    # value lives in [0, prod q) and wraps before the final reduction
    rng = random.Random(59)
    x = [(rng.randrange(7), 0, 0) for _ in range(plan13.n)]
    y = [(rng.randrange(6), 0, 0) for _ in range(plan13.n)]
    xy = [(a[0] + b[0], 0, 0) for a, b in zip(x, y)]
    slot = plan13.slots[0]
    tx, ty, txy = (ptransform._slot_table(np.array(v), slot, 12) for v in (x, y, xy))
    assert ((tx + ty) % slot.q.q == txy).all()


def boxed_dft(x, plan, index):
    """sum_k x[k] * omega^(index*k) in boxed extension arithmetic: the reference."""
    ctx = plan.context
    w = plan.omega ** index
    acc, term = ctx.zero, ctx.one
    for v in x:
        acc = acc + ext_mul(ctx.element(v), term)
        term = ext_mul(term, w)
    return acc.coeffs


def test_spot_check_every_index_matches_boxed_dft(plan7):
    rng = random.Random(7)
    x = [rng.randint(0, plan7.coeff_bound) for _ in range(plan7.n)]
    report = spot_check(x, plan7, sample=plan7.n, seed=1)
    assert [c.index for c in report.checks] == list(range(plan7.n))
    assert [c.oracle for c in report.checks] == [
        boxed_dft(x, plan7, j) for j in range(plan7.n)
    ]


def test_oracle_reduces_inputs_up_to_2_62(plan13_big):
    x = big_naturals(random.Random(71), plan13_big.n)
    for j in (0, 1, 1000, plan13_big.n - 1):
        assert oracle_at(x, plan13_big, j) == boxed_dft(x, plan13_big, j)


def test_oracle_refuses_n_beyond_int64():
    # (index*k) mod n and the weighted sum stay exact only while n^2 < 2^63
    plan = preprocess(p=1453)
    assert plan.n**2 >= 2**63
    with pytest.raises(UsageError):
        oracle_output([1], plan, [0])


def test_oracle_refuses_input_of_the_wrong_length(plan7):
    # a short list used to be read as zero-padded and a long one to wrap
    # k >= n onto k - n
    for length in (5, plan7.n - 1, plan7.n + 3):
        with pytest.raises(UsageError):
            oracle_output([1] * length, plan7, [1])
    x = [random.Random(8).randint(0, 6) for _ in range(plan7.n)]
    column = ptransform.natural_column(x, plan7)
    want = boxed_dft(x, plan7, 5)
    assert oracle_at(column, plan7, 5) == oracle_at(x, plan7, 5) == want


def gather_oracle(x, plan, indices):
    """One n-row table of omega^k and a gather of rows (j*k) mod n per index:
    the direct oracle as it was before baby-step/giant-step, kept as a reference."""
    p, n = plan.p.q, plan.n
    xr = np.array(x, dtype=np.int64) % p
    k = np.flatnonzero(xr)
    powers = extension.ext_powers(plan.omega, n)
    return [tuple((xr[k] @ powers[j * k % n] % p).tolist()) for j in indices]


def test_oracle_matches_gather_reference_across_blocks(monkeypatch):
    # 5 indices a block: the 21 indices below span five blocks, the last partial
    monkeypatch.setattr(ptransform, "_ORACLE_BLOCK", 5)
    plan = preprocess(p=19)
    n = plan.n
    factors = [f for f in range(2, n) if n % f == 0 and is_prime(f)]
    assert factors == [2, 3, 127]
    indices = [0, n - 1, 1]
    for f in factors:
        indices += [f, 2 * f, n - f, n // f, (f - 1) * n // f]
    indices += [3**3, 2 * 3**3 * 5, n // 2 + 1]
    rng = random.Random(19)
    x = [rng.randint(0, plan.coeff_bound) for _ in range(n)]
    got = oracle_output(x, plan, indices)
    assert got.shape == (len(indices), 3) and got.dtype == np.int64
    assert [tuple(row) for row in got.tolist()] == gather_oracle(x, plan, indices)


def test_spot_check_builds_no_n_row_table(monkeypatch):
    plan = preprocess(p=19)
    counts = []
    powers_fn = ptransform.ext_powers
    monkeypatch.setattr(
        ptransform, "ext_powers", lambda u, count: counts.append(count) or powers_fn(u, count)
    )
    x = [random.Random(6).randint(0, plan.coeff_bound) for _ in range(plan.n)]
    first = spot_check(x, plan, sample=16, seed=2)
    assert len(counts) == 2 and max(counts) <= 2 * math.isqrt(plan.n) + 2
    # the tables are kept with the plan: a second verdict builds none
    counts.clear()
    assert spot_check(x, plan, sample=16, seed=2).to_dict() == first.to_dict()
    assert counts == []


def test_oracle_tables_are_not_part_of_the_plan():
    plan = preprocess(p=13)
    twin = plan_from_json(plan_to_json(plan))
    text = plan_to_json(plan)
    baby, giant = plan._oracle_powers
    assert plan._oracle_powers[0] is baby  # kept, not rebuilt
    assert len(baby) - 1 == math.isqrt(plan.n - 1) + 1 and len(giant) * (len(baby) - 1) >= plan.n
    assert plan_to_json(plan) == text
    assert plan == twin and twin == plan and hash(plan) == hash(twin)
    assert [f.name for f in dataclasses.fields(plan)] == [
        "p", "y", "omega", "slots", "coeff_bound"
    ]
    for table in (baby, giant):
        with pytest.raises(ValueError):
            table[0, 0] = 2
    assert baby[0].tolist() == giant[0].tolist() == [1, 0, 0]


def test_crt_schedule_is_not_part_of_the_plan():
    plan = preprocess(p=13)
    twin = plan_from_json(plan_to_json(plan))
    text = plan_to_json(plan)
    inv = inverse_plan(plan)
    transform_elements(np.ones((plan.n, 1), dtype=np.int64), plan)
    schedule = plan._crt
    assert "_crt" in vars(plan) and "_crt" not in vars(twin)
    assert plan._crt is schedule  # kept, not rebuilt
    assert plan_to_json(plan) == text
    assert plan == twin and twin == plan and hash(plan) == hash(twin)
    assert [f.name for f in dataclasses.fields(plan)] == [
        "p", "y", "omega", "slots", "coeff_bound"
    ]
    # the inverse plan's slots have their own periods, so their own schedule
    assert inv._crt is not schedule and inv._crt is inverse_plan(plan)._crt

    def shape(schedule):
        joins, final = schedule
        assert len(joins) == len(plan.slots)
        return [join and join.moduli for join in joins], final.moduli

    assert shape(schedule) == (
        [None, (31, 43), None, None, None], (31 * 43, 109, 127, 157),
    )
    assert shape(inv._crt) == shape(ptransform._crt_schedule(inv.slots, inv.n, 13))


def test_oracle_matches_gather_reference_at_p43():
    # B = 282, against B = 83 at p = 19: the float64 inner products are longer
    plan = preprocess(p=43)
    n = plan.n
    assert len(plan._oracle_powers[0]) - 1 == 282
    factors = [f for f in range(2, n) if n % f == 0 and is_prime(f)]
    assert factors == [2, 3, 7, 631]
    indices = [0, 1, n - 1, n // 2]
    for f in factors:
        indices += [f, 2 * f, n - f, n // f, (f - 1) * n // f]
    rng = random.Random(43)
    x = [rng.randint(0, plan.coeff_bound) for _ in range(n)]
    shifted = [v + plan.p.q * rng.randrange(10) for v in x]  # reduced by the oracle
    want = gather_oracle(x, plan, indices)
    for given in (x, shifted, np.array(shifted)[:, None]):
        assert [tuple(row) for row in oracle_output(given, plan, indices).tolist()] == want


class _Watched(np.ndarray):
    """An array that records every ufunc run on it."""

    ufuncs = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Watched.ufuncs.append(ufunc.__name__)
        inputs = tuple(np.asarray(v) if isinstance(v, _Watched) else v for v in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_oracle_refuses_a_wrong_shape_before_reading_values(monkeypatch, plan7):
    as_array = ptransform._as_array
    monkeypatch.setattr(
        ptransform, "_as_array", lambda *args, **kwargs: as_array(*args, **kwargs).view(_Watched)
    )
    monkeypatch.setattr(_Watched, "ufuncs", [])
    n = plan7.n
    for wrong in (np.ones((n, 3), dtype=np.int64), [50] * (n + 1), [[1, 2]] * n):
        with pytest.raises(UsageError):
            oracle_output(wrong, plan7, [1])
    assert _Watched.ufuncs == []
    oracle_output([50] * n, plan7, [1])
    assert _Watched.ufuncs  # the watch sees the values read from a right shape


def test_matmul_mod_is_exact_at_its_bound():
    # length * (m-1)^2 just below 2^53, all entries m - 1: every partial sum
    # is an integer float64 holds exactly
    length = 2**13 - 1
    m = math.isqrt((2**53 - 1) // length) + 1
    assert length * (m - 1) ** 2 < 2**53 <= length * m**2
    a = np.full((2, length), m - 1)
    b = np.full((length, 3), m - 1)
    want = [[sum(int(u) * int(v) for u, v in zip(row, col)) % m for col in b.T] for row in a]
    got = matmul_mod(a, b, m)
    assert got.dtype == np.int64 and got.tolist() == want
    rng = np.random.default_rng(53)
    a, b = rng.integers(0, m, size=(3, length)), rng.integers(0, m, size=(length, 4))
    want = (a.astype(object) @ b.astype(object)) % m
    assert matmul_mod(a, b, m).tolist() == want.tolist()


def test_matmul_mod_refuses_one_step_past_its_bound():
    length = 2**13 - 1
    m = math.isqrt((2**53 - 1) // length) + 1
    for rows, m_past in ((length + 1, m), (length, m + 1), (2**13, 2**20 + 1)):
        assert rows * (m_past - 1) ** 2 >= 2**53
        a = np.full((2, rows), m_past - 1)
        b = np.full((rows, 3), m_past - 1)
        with pytest.raises(UsageError):
            matmul_mod(a, b, m_past)


def test_oracle_domain_lies_inside_the_float64_bound():
    # every p = 1 mod 3 the oracle accepts (n^2 < 2^63) keeps its inner
    # products of length B = ceil(sqrt(n)) below 2^53 by a factor 2^16
    accepted = [p for p in range(4, 2000, 3) if is_prime(p) and (p**3 - 1) ** 2 < 2**63]
    assert accepted[0] == 7 and accepted[-1] == 1447
    for p in accepted:
        b = math.isqrt(p**3 - 2) + 1
        assert b * (p - 1) ** 2 < 2**53 // 2**16


PIPELINE_STAGES = {
    "_slot_table", "_fold", "_dft_matrix", "_crt_mod_p", "_merge_slots", "_reduce",
    "_vandermonde", "transform_elements",
}


def test_oracle_shares_no_code_with_the_pipeline():
    named = set()
    for fn in (oracle_output, matmul_mod, ptransform.PTPlan._oracle_powers.func):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert {"matmul_mod", "ext_mul_array", "ext_powers", "_as_array"} <= named
    assert not named & PIPELINE_STAGES


def test_non_integer_input_is_refused(plan13):
    n = plan13.n
    floats = [1.9] * n
    for call in (
        lambda: transform(floats, plan13),
        lambda: transform(np.ones(n), plan13),
        lambda: transform([1] * (n - 1) + [1.5], plan13),
        lambda: transform([True] * n, plan13),
        lambda: transform(["1"] * n, plan13),
        lambda: transform([2**70] * (n - 1) + [1.5], plan13),  # beside an int beyond int64
        lambda: transform_elements([(1.5, 0, 0)] * n, plan13),
        lambda: transform_elements(np.ones((n, 1)), plan13),
        lambda: oracle_output(floats, plan13, [0]),
        lambda: spot_check(floats, plan13, sample=4, seed=1),
    ):
        with pytest.raises(UsageError):
            call()
    # integers beyond int64 are refused, although numpy alone reads [2^63, 1]
    # as float64, [2^63] as uint64 and [2^70] as object
    shapes = [(None,), (None, 3)]
    for big in ([2**63, 1], [2**63], np.array([2**63], dtype=np.uint64), [[2**70, 0, 1]]):
        with pytest.raises(UsageError):
            ptransform._as_array(big, shapes)
    for small in (np.array([2, 1], dtype=np.uint8), np.array([3], dtype=np.uint64), [5, -1]):
        got = ptransform._as_array(small, shapes)
        assert got.dtype == np.int64 and got.tolist() == np.asarray(small).tolist()


def test_natural_column_reads_uint64_below_2_63_as_int64():
    plan = preprocess(p=13, coeff_bound=2**63 - 1)
    rng = random.Random(63)
    x = [rng.randrange(2**63) for _ in range(plan.n)]
    column = ptransform.natural_column(np.array(x, dtype=np.uint64), plan)
    assert column.dtype == np.int64
    assert np.array_equal(column, ptransform.natural_column(x, plan))
    x[5] = 2**63
    with pytest.raises(UsageError):
        ptransform.natural_column(np.array(x, dtype=np.uint64), plan)


# Entries that are not int64: each makes k of them (ragged: k uneven rows).
NOT_INT64 = {
    "2^63 as a Python int": lambda k: [2**63] * k,  # numpy: uint64
    "np.uint64(2^63)": lambda k: [np.uint64(2**63)] * k,
    "[2^63, 1]": lambda k: [2**63] + [1] * (k - 1),  # numpy: float64
    "[2^70]": lambda k: [2**70] + [0] * (k - 1),  # numpy: object
    "floats": lambda k: [1.0] * k,
    "bools": lambda k: [True] * k,
    "strings": lambda k: ["1"] * k,
    "ragged": lambda k: [[1], [1, 2]] + [[1]] * (k - 2),
}


def zero_column(plan):
    return np.zeros((plan.n, 1), dtype=np.int64)


# Every function that takes an integer array, called with the array make(k)
# builds and the rest of its arguments valid.
INTEGER_ARRAY_ENTRIES = {
    "transform": lambda plan, make: transform(make(plan.n), plan),
    "transform_elements": lambda plan, make: transform_elements(
        [[v] for v in make(plan.n)], plan
    ),
    "transform_elements indices": lambda plan, make: transform_elements(
        zero_column(plan), plan, make(3)
    ),
    "natural_column": lambda plan, make: ptransform.natural_column(make(plan.n), plan),
    "oracle_output": lambda plan, make: oracle_output(make(plan.n), plan, [0]),
    "oracle_output indices": lambda plan, make: oracle_output(zero_column(plan), plan, make(3)),
    "spot_check": lambda plan, make: spot_check(make(plan.n), plan, sample=2, seed=0),
    "ntt": lambda plan, make: bigmul.ntt(make(4)),
    "ntt_convolve": lambda plan, make: bigmul.ntt_convolve([0] * 4, make(4)),
    "ntt_convolve x": lambda plan, make: bigmul.ntt_convolve(make(4), [0] * 4),
    "carry_propagate": lambda plan, make: bigmul.carry_propagate(make(4), 8),
}


@pytest.mark.parametrize("bad", NOT_INT64)
@pytest.mark.parametrize("entry", INTEGER_ARRAY_ENTRIES)
def test_every_integer_array_entry_refuses_what_is_not_int64(plan7, entry, bad):
    call = INTEGER_ARRAY_ENTRIES[entry]
    call(plan7, lambda k: [1] * k)  # the same call on int64 entries is taken
    with pytest.raises(UsageError):
        call(plan7, NOT_INT64[bad])


@pytest.mark.parametrize("shape", ["(n, 1)", "(n, 2)", "(n, 3)", "n triples"])
def test_natural_input_must_be_n_scalars(plan7, shape):
    # n rows of 1 to 3 columns are not n naturals; broadcast through the slot
    # stage, they would leave its tables partly unwritten
    width = 3 if shape == "n triples" else int(shape[4])
    x = np.random.default_rng(7).integers(0, plan7.coeff_bound + 1, size=(plan7.n, width))
    if shape == "n triples":
        x = [tuple(row) for row in x.tolist()]
    verdict = lambda x, plan: spot_check(x, plan, sample=4, seed=0)  # noqa: E731
    for call in (transform, verdict):
        with pytest.raises(UsageError, match=re.escape(f"input shape ({plan7.n}, {width})")):
            call(x, plan7)


def test_every_transform_goes_through_transform_elements(plan7, monkeypatch):
    # a tracer wraps transform_elements under its name, as perfbench does, and
    # must see every transform: one per transform or spot_check, and two
    # forward and one inverse per polynomial-transform multiply
    calls = []
    inner = ptransform.transform_elements

    def counting(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(ptransform, "transform_elements", counting)
    x = [k % plan7.p.q for k in range(plan7.n)]
    transform(x, plan7)
    assert calls == [plan7]
    calls.clear()
    spot_check(x, plan7, sample=4, seed=0)
    assert calls == [plan7]
    calls.clear()
    backend = bigmul.MulBackend(tag=bigmul.POLY_TRANSFORM, plan=plan7)
    bigmul.transform_mul(bigmul.BigNat(0x3039), bigmul.BigNat(0x1A85), backend)
    assert calls == [plan7, plan7, inverse_plan(plan7)]


def test_indices_are_validated_alike_by_pipeline_and_oracle(plan13):
    n = plan13.n
    x = [random.Random(9).randint(0, 12) for _ in range(n)]
    column = np.array(x)[:, None]
    for bad in ([1.7, 2.2], [-1], [n], [True], [[0]], [0, [1]], 3):
        with pytest.raises(UsageError):
            transform_elements(column, plan13, bad)
        with pytest.raises(UsageError):
            oracle_output(column, plan13, bad)
    for bad in (2.5, -1, n, None):
        with pytest.raises(UsageError):
            oracle_output(x, plan13, bad)
    for bad in (2.5, 0, -3, "4"):
        with pytest.raises(UsageError):
            spot_check(x, plan13, sample=bad, seed=1)
    assert oracle_at(x, plan13, np.int64(n - 1)) == boxed_dft(x, plan13, n - 1)
    assert oracle_output(column, plan13, []).shape == (0, 3)


def test_spot_check_calls_oracle_output_once(monkeypatch, plan13):
    # perfbench traces ptransform.oracle_output, so spot_check must reach it by that name
    calls = []
    real = ptransform.oracle_output
    monkeypatch.setattr(
        ptransform, "oracle_output", lambda *a: calls.append(a[2]) or real(*a)
    )
    x = [random.Random(4).randint(0, 12) for _ in range(plan13.n)]
    report = spot_check(x, plan13, sample=16, seed=2)
    assert calls == [[c.index for c in report.checks]]


def test_spot_check_makes_no_boxed_calls(monkeypatch, plan13):
    rng = random.Random(5)
    x = [rng.randint(0, 12) for _ in range(plan13.n)]
    calls = []
    ext_mul_fn = extension.ext_mul
    monkeypatch.setattr(extension, "ext_mul", lambda *a: calls.append(1) or ext_mul_fn(*a))
    spot_check(x, plan13, sample=16, seed=2)
    assert calls == []


def test_oracle_output_golden(plan13):
    x = [0] * plan13.n
    x[1] = 1
    # input delta at k=1: output j is omega^j itself
    assert oracle_at(x, plan13, 0) == (1, 0, 0)
    assert oracle_at(x, plan13, 1) == plan13.omega.coeffs
    assert oracle_at(x, plan13, 2) == ext_mul(plan13.omega, plan13.omega).coeffs


def test_spot_check_deterministic(plan13):
    rng = random.Random(61)
    x = [rng.randrange(13) for _ in range(plan13.n)]
    a = spot_check(x, plan13, sample=6, seed=5)
    b = spot_check(x, plan13, sample=6, seed=5)
    assert a.to_dict() == b.to_dict()
    assert a.verdict in ("confirmed", "refuted")
    assert a.matches + a.mismatches == 6
    with pytest.raises(UsageError):
        spot_check(x, plan13, sample=0, seed=5)


def test_spot_check_confirms_delta(plan13):
    x = [1] + [0] * (plan13.n - 1)
    report = spot_check(x, plan13, sample=5, seed=3)
    assert report.verdict == "confirmed"


def test_inverse_plan_omega(plan13):
    inv = inverse_plan(plan13)
    assert ext_mul(plan13.omega, inv.omega) == plan13.context.one
    assert [s.q.q for s in inv.slots] == [s.q.q for s in plan13.slots]
    for slot in inv.slots:
        for r, w in zip(slot.roots, slot.omegas):
            assert inv.omega.reduce_at(slot.q.residue(r)).value == w


# every p = 1 mod 3 from 7 to 619, the 54 plans whose helper primes serve both
# directions
PRIMES_TO_619 = [p for p in range(7, 620, 6) if is_prime(p)]

# the nine plans whose primes differ from those a rule checking omega alone
# would take: at each such p, omega^-1 reduces to zero at a root of one of
# those primes
PRIMES_FOR_BOTH_DIRECTIONS = {
    7: [43, 109, 127, 157],
    73: [43, 127, 157, 223, 229, 277],
    151: [127, 109, 31, 157, 223, 229, 277],
    163: [157, 127, 109, 43, 223, 229, 277],
    181: [157, 127, 109, 31, 223, 229, 277],
    199: [157, 127, 109, 223, 229, 277, 283],
    229: [193, 151, 103, 73, 271, 307, 367],
    433: [367, 307, 271, 193, 103, 73, 67, 61],
    541: [499, 457, 439, 433, 307, 283, 277],
}


@pytest.fixture(scope="module")
def plans_to_619():
    return {p: preprocess(p=p) for p in PRIMES_TO_619}


def test_plans_to_619_keep_y_omega_and_the_other_primes(plans_to_619):
    # digests of [p, y, omega] for all 54 plans and of [p, y, omega, primes]
    # for the other 45, as a rule checking omega alone chose them
    def digest(rows):
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    rows = [
        [p, plan.y.value, list(plan.omega.coeffs), [s.q.q for s in plan.slots]]
        for p, plan in plans_to_619.items()
    ]
    assert len(rows) == 54
    assert digest([row[:3] for row in rows]) == (
        "a257cc1d2c666cc09b198be82e40a5dd42c2769e7dbe7f42eb16799194ed080e"
    )
    assert digest([row for row in rows if row[0] not in PRIMES_FOR_BOTH_DIRECTIONS]) == (
        "491491cf6ab9b6621a836b7c744277290e66b52d1bab79cceca095bb908f8e4d"
    )
    changed = {row[0]: row[3] for row in rows if row[0] in PRIMES_FOR_BOTH_DIRECTIONS}
    assert changed == PRIMES_FOR_BOTH_DIRECTIONS


def test_every_plan_to_619_has_an_inverse(plans_to_619):
    for p, plan in plans_to_619.items():
        inv = inverse_plan(plan)
        assert [s.q.q for s in inv.slots] == [s.q.q for s in plan.slots], p
        for slot in inv.slots:
            at_roots = [inv.omega.reduce_at(slot.q.residue(r)).value for r in slot.roots]
            assert list(slot.omegas) == at_roots and 0 not in at_roots, (p, slot.q.q)


def test_only_the_prime_scan_raises_prime_supply_exhausted():
    # a plan fails only while preprocess scans for primes, never on inversion
    tree = ast.parse(inspect.getsource(ptransform))
    raisers = [
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and "PrimeSupplyExhausted" in ast.unparse(node)
    ]
    assert raisers == ["preprocess"]


def test_only_the_plan_builders_make_slots_and_plans():
    # preprocess's scan and _plan are the two places a plan is built, so every
    # prime-list refusal lives in _plan
    tree = ast.parse(inspect.getsource(ptransform))

    def callers(name):
        return sorted({
            fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == name
        })

    assert callers("PTPlan") == callers("_try_slot") == ["_plan", "preprocess"]


def test_plans_to_619_and_their_inverses_load_as_they_were_written(plans_to_619):
    for plan in plans_to_619.values():
        for x in (plan, inverse_plan(plan)):
            assert plan_from_json(plan_to_json(x)) == x


@pytest.mark.parametrize("p, primes", [
    (1009, [997, 919, 811, 739, 733, 727, 691]),
    (4003, [3943, 3889, 3823, 3631, 3607, 3541, 3463]),
    (10009, [9973, 9949, 9931, 9901, 9859, 9817, 9619]),
])
def test_large_plan_primes_are_pinned(p, primes):
    # recorded before the scan became one chain of ranges
    assert [s.q.q for s in preprocess(p=p).slots] == primes


@pytest.mark.parametrize("p", [7, 13])
def test_inverse_plan_file_loads(p):
    # the inverse plan's primes serve its own inverse, the forward plan
    plan = preprocess(p=p)
    loaded = plan_from_json(plan_to_json(inverse_plan(plan)))
    assert loaded == inverse_plan(plan)
    assert inverse_plan(loaded) == plan


def test_inverse_plan_is_built_once_per_plan(monkeypatch):
    plan = preprocess(p=13)
    inv = inverse_plan(plan)
    monkeypatch.setattr(ptransform, "_try_slot", lambda *a: pytest.fail("slot rebuilt"))
    assert inverse_plan(plan) is inv
    monkeypatch.undo()
    assert inverse_plan(plan_from_json(plan_to_json(plan))) is not inv  # a plan of its own
    omega_inv = extension.ext_pow(plan.omega, plan.n - 1)
    assert inv.omega == omega_inv
    assert inv.slots == tuple(
        ptransform._try_slot(s.q, plan.y, omega_inv, plan.omega) for s in plan.slots
    )


def test_held_tables_leave_plan_equality_and_json_alone():
    plan, twin = (preprocess(p=13) for _ in range(2))
    text = plan_to_json(plan)
    inv = inverse_plan(plan)
    transform_elements(np.ones((plan.n, 1), dtype=np.int64), plan)
    transform_elements(np.ones((plan.n, 3), dtype=np.int64), inv)
    assert plan == twin and plan.slots == twin.slots and hash(plan) == hash(twin)
    assert inv == replace(plan, omega=inv.omega, slots=inv.slots)
    assert plan_to_json(plan) == text == plan_to_json(twin)
    assert plan_from_json(text) == plan


def test_inverse_plan_roundtrips_delta(plan13):
    # an honest forward-then-inverse DFT gives n * x = -x mod p; this pipeline
    # does not (most recovered coefficients mismatch and most outputs carry
    # nonzero t, t^2 components), so what is pinned is that the array
    # pipeline's round trip is exactly the boxed composition's
    p = 13
    x = [0] * plan13.n
    x[2] = 5
    inv = inverse_plan(plan13)
    n_inv = pow(plan13.n % p, p - 2, p)

    def outcome(back):
        recovered = [(c[0] * n_inv) % p for c in back]
        strays = sum(1 for c in back if c[1] % p or c[2] % p)
        return back, recovered, strays

    back = triples(transform_elements(transform(x, plan13), inv))
    boxed = boxed_pipeline(boxed_pipeline([(v, 0, 0) for v in x], plan13), inv)
    assert outcome(back) == outcome(boxed)


def test_plan_json_roundtrip(plan7, plan13):
    for plan in (plan7, plan13):
        text = plan_to_json(plan)
        doc = json.loads(text)
        assert doc["format_version"] == ptransform.PLAN_FORMAT_VERSION == 3
        assert set(doc) == {"format_version", "p", "y", "omega", "coeff_bound", "primes"}
        loaded = plan_from_json(text)
        assert loaded == plan  # slots, n and both bounds re-derived identically
        assert plan_to_json(loaded) == text


def test_plan_fields_are_file_inputs(plan13):
    # a field beyond the file's inputs would be derived state stored twice
    keys = set(json.loads(plan_to_json(plan13))) - {"format_version", "primes"}
    assert {f.name for f in dataclasses.fields(ptransform.PTPlan)} == keys | {"slots"}


def test_plan_json_rejects_bad_version(plan13):
    doc = json.loads(plan_to_json(plan13))
    doc["format_version"] = 99
    with pytest.raises(UsageError):
        plan_from_json(json.dumps(doc))


def test_plan_json_rejects_corrupted_root(plan13):
    # the slot roots follow from omega: omega^2 has order n/2, not n
    doc = json.loads(plan_to_json(plan13))
    doc["omega"] = list(ext_mul(plan13.omega, plan13.omega).coeffs)
    with pytest.raises(UsageError):
        plan_from_json(json.dumps(doc))


def test_plan_json_rejects_corrupted_period(plan13):
    # the slot periods follow from the primes: q + 1 is even, so not prime
    doc = json.loads(plan_to_json(plan13))
    doc["primes"][0] += 1
    with pytest.raises(UsageError):
        plan_from_json(json.dumps(doc))


# Each case: an edit of a valid p = 7 plan file (a field set to MISSING is
# removed), and why the loader refuses it.
MISSING = object()
LOADER_CASES = {
    "v1-file": (lambda d: {"format_version": 1}, "format version 1"),
    # a version 2 file also named its bound mode, which no longer exists
    "v2-file": (lambda d: {"format_version": 2, "bound_mode": "input-aware"}, "format version 2"),
    # the last prime is the one whose product first met the bound
    "dropped-prime": (lambda d: {"primes": d["primes"][:-1]}, "<= required"),
    "duplicated-prime": (lambda d: {"primes": d["primes"] + d["primes"][:1]}, "duplicated"),
    # 5 = 2 mod 3, so y has a single cube root mod 5
    "unusable-prime": (lambda d: {"primes": [5] + d["primes"]}, "prime 5 is unusable"),
    # y is a non-cube mod p itself, so the base prime is never a helper
    "base-prime": (lambda d: {"primes": [7] + d["primes"]}, "prime 7 is unusable"),
    "identity-omega": (lambda d: {"omega": [1, 0, 0]}, "order p^3 - 1"),
    "cube-y": (lambda d: {"y": 1}, "is a cube"),
    "negative-coeff-bound": (lambda d: {"coeff_bound": -1}, f"coeff_bound must be in [1, {2**63})"),
    "zero-coeff-bound": (lambda d: {"coeff_bound": 0}, f"coeff_bound must be in [1, {2**63})"),
    # fields the loader never reads, a misspelt one among them
    "unknown-fields": (
        lambda d: {"bound_mode": "loose", "certified_bound": 1, "primez": [2]},
        "unknown plan fields ['bound_mode', 'certified_bound', 'primez']",
    ),
    "missing-field": (lambda d: {"omega": MISSING}, "missing plan fields ['omega']"),
    "primes-not-a-list": (lambda d: {"primes": 5}, "plan field primes must be a list of integers"),
}


@pytest.mark.parametrize("case", list(LOADER_CASES))
def test_plan_loader_rejects(plan7, tmp_path, capsys, case):
    edit, reason = LOADER_CASES[case]
    doc = json.loads(plan_to_json(plan7))
    doc.update(edit(doc))
    text = json.dumps({k: v for k, v in doc.items() if v is not MISSING})
    with pytest.raises(UsageError, match=re.escape(reason)):
        plan_from_json(text)
    path = tmp_path / "plan.json"
    path.write_text(text)
    assert main(["verify", "--plan", str(path), "--sample", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and reason in captured.err


def test_transform_report_dict_shape(plan13):
    x = [1] * plan13.n
    r = spot_check(x, plan13, sample=3, seed=11)
    d = r.to_dict()
    assert set(d) == {"plan_p", "seed", "sampled_indices", "checks", "aggregate"}
    assert d["aggregate"]["verdict"] == r.verdict
    assert len(d["checks"]) == 3


@pytest.mark.parametrize("matching, verdict", [(16, "confirmed"), (15, "refuted")])
def test_transform_report_confirms_only_when_every_index_matches(matching, verdict):
    # one mismatched index of 16 refutes; the rule is all indices, not any
    checks = tuple(IndexCheck(j, (j, 1, 2), (j, 1, 2 if j < matching else 3)) for j in range(16))
    report = TransformReport(plan_p=13, seed=0, checks=checks)
    assert (report.matches, report.mismatches, report.verdict) == (matching, 16 - matching, verdict)
    assert report.to_dict()["aggregate"] == {
        "matches": matching, "mismatches": 16 - matching, "verdict": verdict}
