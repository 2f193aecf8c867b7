import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from polyxform import bigmul, extension, ptransform
from polyxform.bigmul import (
    KARATSUBA,
    NTT_LIMB_BITS,
    NTT_PRIME,
    NTT_RADIX,
    NTT_ROOT,
    ORACLE_NTT,
    POLY_TRANSFORM,
    SCHOOLBOOK,
    BigNat,
    _ntt_mul,
    MulBackend,
    carry_propagate,
    karatsuba_mul,
    ntt,
    ntt_convolve,
    pack,
    schoolbook_mul,
    transform_mul,
)
from polyxform.errors import OverflowRisk, UsageError


def test_ntt_length_without_a_root_of_unity_is_refused_before_allocating():
    # NTT_PRIME - 1 = 15 * 2^27, so 2^28 points have no root of unity
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="has no root of unity"):
            bigmul._ntt_tables(2**28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ntt_modulus_constants():
    assert NTT_PRIME == 15 * 2**27 + 1
    assert pow(NTT_ROOT, NTT_PRIME - 1, NTT_PRIME) == 1
    # 31 generates the full group: no proper-divisor power is 1
    for r in (2, 3, 5):
        assert pow(NTT_ROOT, (NTT_PRIME - 1) // r, NTT_PRIME) != 1


def test_ntt_radix_keeps_float64_dot_products_exact():
    # a pass's dot product: NTT_RADIX terms of a 16-bit half of a DFT entry
    # times a value below the modulus
    assert NTT_RADIX * (2**16 - 1) * (NTT_PRIME - 1) < 2**53
    assert 2 * NTT_RADIX * (2**16 - 1) * (NTT_PRIME - 1) >= 2**53


def test_bignat_canonical_form():
    # a BigNat is its value, one Python int
    for value in (0, 1, 1 << 64):
        assert BigNat.from_int(value) == BigNat(value) and BigNat(value).value == value
    with pytest.raises(UsageError):
        BigNat.from_int(-3)


def test_products_and_their_limbs_are_canonical(monkeypatch):
    # a product is the BigNat of its value, a Python int equal to the oracle's
    monkeypatch.setattr(bigmul, "KARATSUBA_THRESHOLD", 2)
    rng = random.Random(64)
    values = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 640) - 1]
    values += [rng.getrandbits(700) for _ in range(20)]
    for a in map(BigNat.from_int, values):
        b = BigNat.from_int(rng.getrandbits(300))
        products = (schoolbook_mul(a, b), karatsuba_mul(a, b)[0])
        for nat in (a, *products):
            assert type(nat.value) is int
            rebuilt = BigNat(nat.value)
            assert rebuilt == nat and hash(rebuilt) == hash(nat)
        assert [nat.value for nat in products] == [a.value * b.value] * 2


def test_bignat_hex_roundtrip():
    n = BigNat.from_hex("0x3039")
    assert n.to_int() == 12345
    assert n.to_hex() == "0x3039"


def test_bignat_refuses_values_that_are_not_natural_ints():
    # a float would truncate, and a numpy integer or a bool would hash and
    # compare apart from the int of the same value
    for value in (1.5, True, np.uint64(3), "1", (3,), -1):
        with pytest.raises(UsageError):
            BigNat(value)
    assert BigNat(3).to_int() == 3


@given(st.integers(min_value=0, max_value=2**512))
@settings(max_examples=200, deadline=None)
def test_bignat_int_roundtrip(value):
    assert BigNat.from_int(value).to_int() == value


@given(st.integers(min_value=0, max_value=2**512))
@settings(max_examples=200, deadline=None)
def test_bignat_bit_length(value):
    assert BigNat.from_int(value).bit_length == value.bit_length()
    assert BigNat(0).bit_length == 0


CONVERSION_WIDTHS = (1, 3, 7, 8, 13, 32, 63, 64)


def conversion_values(width):
    """Edge values at a bit width, 64-bit limbs with the top bit set, random values."""
    rng = random.Random(width)
    top_bits = sum(((1 << 63) | rng.getrandbits(63)) << (64 * i) for i in range(5))
    edges = [v for k in (width, 64, 1000) for v in ((1 << k) - 1, 1 << k)]
    return [0, 1, top_bits, *edges, *(rng.getrandbits(b) for b in (65, 4_999, 200_000))]


@pytest.mark.parametrize("width", CONVERSION_WIDTHS)
def test_conversions_match_loop_references(width):
    for value in conversion_values(width):
        limbs = conftest.limbs_from_int(value, 64)
        n = BigNat.from_int(value)
        assert type(n.to_int()) is int
        assert n.to_int() == conftest.int_from_limbs(limbs, 64) == value


@pytest.mark.parametrize("width", CONVERSION_WIDTHS)
def test_pack_matches_loop_reference(width):
    for value in conversion_values(width)[:-1]:
        a = BigNat.from_int(value)
        fit = max(1, -(-value.bit_length() // width))
        for length in (fit, fit + 3):
            got = pack(a, width, length)
            assert got.dtype == np.uint64
            limbs = conftest.limbs_from_int(a.value, 64)
            assert got.tolist() == conftest.pack_limbs(limbs, width, length)
        if value:
            with pytest.raises(UsageError):
                pack(BigNat.from_int(value), width, fit - 1)


def test_ntt_refuses_at_the_modulus_bound_before_packing(monkeypatch):
    packed = []
    real = bigmul.pack
    monkeypatch.setattr(bigmul, "pack", lambda *args: packed.append(args[1:]) or real(*args))
    # a 131,072-bit product in 8-bit digits: length 16,384, worst 16,384 * 255^2 < NTT_PRIME
    a = BigNat.from_int((1 << 65_536) - 1)
    assert transform_mul(a, a, MulBackend(ORACLE_NTT)).verdict == "match"
    assert packed == [(8, 16_384)] * 2
    # one bit more pads to length 32,768: 32,768 * 255^2 = 2,130,739,200
    b = BigNat.from_int((1 << 65_537) - 1)
    with pytest.raises(OverflowRisk, match=f"worst convolution coefficient 2130739200 "
                                           f">= modulus {NTT_PRIME}$"):
        transform_mul(b, a, MulBackend(ORACLE_NTT))
    # 16-bit digits pass the bound at length 1: (2^16 - 1)^2 = 4,294,836,225
    with pytest.raises(OverflowRisk, match=f"worst convolution coefficient 4294836225 "
                                           f">= modulus {NTT_PRIME}$"):
        _ntt_mul(BigNat(1), BigNat(1), 16)
    assert packed == [(8, 16_384)] * 2  # a refused pair never reaches pack


def test_limb_widths_beyond_one_to_64_are_refused():
    for width in (0, 65):
        with pytest.raises(UsageError):
            pack(BigNat.from_int(5), width, 8)


def test_schoolbook_golden():
    a = BigNat.from_hex("0x3039")
    b = BigNat.from_hex("0x1a85")
    assert schoolbook_mul(a, b).to_int() == 12345 * 6789 == 83810205
    zero = BigNat.from_int(0)
    assert schoolbook_mul(a, zero).to_int() == 0
    one = BigNat.from_int(1)
    assert schoolbook_mul(a, one).to_int() == a.to_int()


@given(
    st.integers(min_value=0, max_value=2**2000),
    st.integers(min_value=0, max_value=2**2000),
)
@settings(max_examples=100, deadline=None)
def test_schoolbook_matches_python(a, b):
    got = schoolbook_mul(BigNat.from_int(a), BigNat.from_int(b))
    assert got.to_int() == a * b


@given(
    st.integers(min_value=0, max_value=2**4000),
    st.integers(min_value=0, max_value=2**4000),
)
@settings(max_examples=100, deadline=None)
def test_karatsuba_matches_python(a, b):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bigmul, "KARATSUBA_THRESHOLD", 4)
        got, _ = karatsuba_mul(BigNat.from_int(a), BigNat.from_int(b))
    assert got.to_int() == a * b


def test_karatsuba_unbalanced_operands(monkeypatch):
    monkeypatch.setattr(bigmul, "KARATSUBA_THRESHOLD", 2)
    a = (1 << 3000) - 1
    b = 7
    got, _ = karatsuba_mul(BigNat.from_int(a), BigNat.from_int(b))
    assert got.to_int() == a * b


ALL_ONES_LIMBS = (1, 16, 17, 157, 1024)


def test_schoolbook_all_ones_operands():
    # 2^(64k) - 1 has every 16-bit digit 2^16 - 1, so every column sum and
    # every carry is the largest its lengths allow
    for ka in ALL_ONES_LIMBS:
        for kb in ALL_ONES_LIMBS:
            a, b = (1 << 64 * ka) - 1, (1 << 64 * kb) - 1
            assert schoolbook_mul(BigNat(a), BigNat(b)).value == a * b, (ka, kb)


@pytest.mark.parametrize("threshold", [2, 4, bigmul.KARATSUBA_THRESHOLD])
def test_karatsuba_all_ones_operands(monkeypatch, threshold):
    monkeypatch.setattr(bigmul, "KARATSUBA_THRESHOLD", threshold)
    for ka in ALL_ONES_LIMBS:
        for kb in ALL_ONES_LIMBS:
            a, b = (1 << 64 * ka) - 1, (1 << 64 * kb) - 1
            assert karatsuba_mul(BigNat(a), BigNat(b))[0].value == a * b, (ka, kb)


def test_digit_columns_past_int64_are_refused():
    # decided from the limb counts alone, before any digit array exists
    limit, digit = bigmul.MAX_SHORTER_LIMBS, 2**16 - 1
    assert 4 * limit * digit**2 < 2**63 <= 4 * (limit + 1) * digit**2
    with pytest.raises(OverflowRisk):
        bigmul._digit_products([(1, limit + 1, 1, limit + 1)])
    # the shorter operand sets the column length, wherever the pair sits
    with pytest.raises(OverflowRisk):
        bigmul._digit_products([(3, 1, 5, 1), (1, 2 * limit, 1, limit + 1)])


def _full(rng, limbs):
    """A random natural of exactly `limbs` limbs, its top bit set."""
    return rng.getrandbits(64 * limbs) | 1 << (64 * limbs - 1)


_KERNEL_RNG = random.Random(37)
_A, _B, _C = (_full(_KERNEL_RNG, n) for n in (3, 5, 300))
_ONE = _full(_KERNEL_RNG, 1)


@pytest.mark.parametrize("pairs", [
    [],
    [(0, 1, 0, 1), (0, 4, _B, 5), (_A, 3, 0, 0)],
    [(_A, 3, _B, 5), (0, 3, _B, 5), (_B, 5, _A, 3)],
    [(_ONE, 1, _C, 300), (_A, 3, _A, 3)],
    [(_C, 300, _ONE, 1), (0, 2, 0, 2)],
    [(_A, 4, _B, 6), (_A >> 64, 3, _B, 5)],
    [(_A, 3, _A, 3), (_A, 3, _A, 3), (_B, 5, _B, 5)],
    [((1 << 64 * 16) - 1, 16, (1 << 64 * 16) - 1, 16)],
], ids=["empty", "all-zero", "zero-operand", "one-by-300-limbs", "300-by-one-and-zero",
        "carry-limb", "equal-pairs", "all-ones"])
def test_digit_products_match_python(pairs):
    # each live pair is one convolution of its own digits, whatever the
    # batch's longest operands; a declared limb above the values (a
    # Karatsuba sum's carry limb) changes nothing
    assert bigmul._digit_products(pairs) == [a * b for a, _, b, _ in pairs]


def test_carry_matches_loop_reference():
    rng = np.random.default_rng(16)
    columns = rng.integers(0, 2**63, size=(5, 9), dtype=np.int64)
    columns[:, -4:] = 0  # each sum below 2^(16 K)
    columns[0] = 0
    want = [sum(int(c) << (16 * k) for k, c in enumerate(row)) for row in columns]
    assert bigmul._carry(columns) == want


def test_unbalanced_pair_is_multiplied_without_padding_to_the_longest():
    # the recursion leaves many base cases of a zero and a long operand;
    # padding every pair to the longest would take hundreds of megabytes
    rng = random.Random(17)
    a = rng.getrandbits(17 * 64) | 1 << (17 * 64 - 1)
    b = rng.getrandbits(2**14 * 64) | 1 << (2**14 * 64 - 1)
    tracemalloc.start()
    try:
        product, _ = karatsuba_mul(BigNat(a), BigNat(b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.value == a * b
    assert peak < 8 * 2**20


def test_karatsuba_holds_one_subtree_of_base_cases_at_a_time():
    # 400,000-bit operands have 3^9 base cases: all of them and their
    # products held at once take 16 MiB, one subtree of at most
    # SUBTREE_LIMBS operand limbs at a time about 1 MiB
    rng = random.Random(400)
    a, b = (rng.getrandbits(400_000) | 1 << 399_999 for _ in "ab")
    tracemalloc.start()
    try:
        product, ops = karatsuba_mul(BigNat(a), BigNat(b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (product.value, ops) == (a * b, 3092042)
    assert peak < 4 * 2**20


def test_pack_golden():
    n = BigNat.from_int(0xABCD)
    assert pack(n, 8, 4).tolist() == [0xCD, 0xAB, 0, 0]
    assert pack(n, 4, 4).tolist() == [0xD, 0xC, 0xB, 0xA]
    with pytest.raises(UsageError):
        pack(n, 4, 3)  # does not fit


@given(st.integers(min_value=0, max_value=2**256), st.sampled_from([4, 8, 12]))
@settings(max_examples=100, deadline=None)
def test_pack_carry_roundtrip(value, bits):
    n = BigNat.from_int(value)
    length = max(1, -(-value.bit_length() // bits))
    assert carry_propagate(pack(n, bits, length), bits) == value


def test_carry_propagate_returns_int():
    value = carry_propagate([5, 0, 2**62, 1], 3)
    assert type(value) is int
    assert value == 5 + (2**62 << 6) + (1 << 9)
    assert carry_propagate([], 8) == 0


@given(
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=40),
    st.sampled_from([1, 3, 8, 31, 64, 100]),
)
@settings(max_examples=200, deadline=None)
def test_carry_propagate_matches_python_sum(coeffs, bits):
    # coefficients wider than limb_bits overlap their neighbours
    assert carry_propagate(coeffs, bits) == sum(c << (k * bits) for k, c in enumerate(coeffs))


def test_carry_propagate_rejects_coefficients_beyond_int64():
    with pytest.raises(UsageError):
        carry_propagate([1, 2**63], 8)


def test_carry_propagate_rejects_negative():
    with pytest.raises(UsageError):
        carry_propagate([1, -2], 8)


def test_carry_propagate_refuses_non_integers_and_widths_below_one():
    # [1.5, 2.7] at 8 bits used to return 513, and limb_bits = 0 to divide by zero
    for coeffs in ([1.5, 2.7], np.array([1.0, 2.0]), ["1"], [True]):
        with pytest.raises(UsageError):
            carry_propagate(coeffs, 8)
    for bits in (0, -3):
        with pytest.raises(UsageError):
            carry_propagate([1, 2], bits)
    assert carry_propagate(np.array([1, 2], dtype=np.uint64), 8) == 513


def test_ntt_golden_forward():
    # length 4, root of order 4 mod NTT_PRIME; X0 is the plain sum
    x = [1, 2, 3, 4]
    X = ntt(x)
    assert X[0] == 10
    assert ntt(X, invert=True).tolist() == x


def test_ntt_validates_length():
    with pytest.raises(UsageError):
        ntt([1, 2, 3])


def test_ntt_refuses_negative_or_non_integer_input():
    # ntt([-1, 2]) used to raise OverflowError and ntt([1.5, 2]) to truncate;
    # [2^63, 1], which numpy reads as float64, is past int64
    bad_inputs = ([-1, 2], [1.5, 2], [2**63, 1], [2**64, 1], [True, False],
                  np.array([1.0, 2.0]), [[1, 2]], np.array([2**63, 1], dtype=np.uint64))
    for bad in bad_inputs:
        with pytest.raises(UsageError):
            ntt(bad)
        with pytest.raises(UsageError):
            ntt_convolve([1, 2], bad)
        with pytest.raises(UsageError):
            ntt_convolve(bad, [1, 2])
    packed = pack(BigNat.from_int(0xABCD), 8, 4)
    as_list = [0xCD, 0xAB, 0, 0]
    assert ntt_convolve(packed, packed).tolist() == ntt_convolve(as_list, as_list).tolist()


def test_ntt_takes_uint64_input_below_2_63_as_the_same_list():
    # a uint64 array, pack's dtype, passes the same check as a list: entries
    # below 2^63, NTT_PRIME and past it, are taken and reduced alike
    x = [2**63 - 1, NTT_PRIME, 5, 0, 7, NTT_PRIME - 1, 2**40, 1]
    assert ntt(np.array(x, dtype=np.uint64)).tolist() == ntt(x).tolist()
    assert ntt(x).tolist() == ntt([v % NTT_PRIME for v in x]).tolist()


def _python_dft(rows):
    """The O(n^2) DFT mod NTT_PRIME of each of the equal-length rows, in
    Python ints."""
    n = len(rows[0])
    root = pow(NTT_ROOT, (NTT_PRIME - 1) // n, NTT_PRIME)
    powers = np.array([pow(root, e, NTT_PRIME) for e in range(n)], dtype=object)
    k = np.arange(n)
    matrix = powers[np.outer(k, k) % n]
    return [(matrix.dot(np.array(row, dtype=object)) % NTT_PRIME).tolist() for row in rows]


def test_ntt_matches_python_dft_in_one_and_two_passes():
    # lengths up to NTT_RADIX take one pass, longer ones up to 4,096 two;
    # all P - 1 gives every pass its largest dot products
    rng = random.Random(31)
    for e in range(13):
        n = 1 << e
        rows = [[NTT_PRIME - 1] * n, [rng.randrange(NTT_PRIME) for _ in range(n)]]
        for row, want in zip(rows, _python_dft(rows)):
            assert ntt(row).tolist() == want, n


def test_ntt_three_passes_roundtrip_and_convolve():
    rng = random.Random(37)
    for n in (2**13, 2**15):
        values = [rng.randrange(NTT_PRIME) for _ in range(n)]
        assert ntt(ntt(values), invert=True).tolist() == values
        # bytes in the low half: no product coefficient wraps, so the
        # convolution's carry is the product
        a, b = rng.randbytes(n // 2), rng.randbytes(n // 2)
        coeffs = ntt_convolve(list(a) + [0] * (n // 2), list(b) + [0] * (n // 2))
        want = int.from_bytes(a, "little") * int.from_bytes(b, "little")
        assert carry_propagate(coeffs, 8) == want


@given(st.lists(st.integers(min_value=0, max_value=NTT_PRIME - 1), min_size=2, max_size=64))
@settings(max_examples=100, deadline=None)
def test_ntt_roundtrip(values):
    n = 1
    while n < len(values):
        n <<= 1
    values = values + [0] * (n - len(values))
    assert ntt(ntt(values), invert=True).tolist() == values


def test_ntt_convolve_matches_direct():
    rng = random.Random(67)
    for n in (4, 8, 32):
        x = [rng.randrange(1000) for _ in range(n)]
        y = [rng.randrange(1000) for _ in range(n)]
        direct = [
            sum(x[k] * y[(j - k) % n] for k in range(n)) % NTT_PRIME
            for j in range(n)
        ]
        assert ntt_convolve(x, y).tolist() == direct
    with pytest.raises(UsageError, match="vectors must have equal length"):
        ntt_convolve([1, 2], [1, 2, 3, 4])
    # each operand is transformed before the lengths are compared
    with pytest.raises(UsageError, match="NTT length must be a power of two"):
        ntt_convolve([1, 2, 3, 4], [1, 2, 3])


def test_oracle_ntt_multiply_runs_its_three_transforms_through_ntt(monkeypatch):
    calls = []
    real = bigmul.ntt

    def counting(values, invert=False):
        calls.append(invert)
        return real(values, invert)

    monkeypatch.setattr(bigmul, "ntt", counting)
    rng = random.Random(83)
    a, b = BigNat(rng.getrandbits(10_000)), BigNat(rng.getrandbits(10_000))
    assert transform_mul(a, b, MulBackend(ORACLE_NTT)).verdict == "match"
    assert calls == [False, False, True]


def test_ntt_tables_are_built_once_per_length_and_read_only():
    rng = random.Random(89)
    x, y = ([rng.randrange(256) for _ in range(4096)] for _ in range(2))
    ntt_convolve([1, 2], [3, 4])  # another length, so the next call builds
    misses = bigmul._ntt_tables.cache_info().misses
    first = ntt_convolve(x, y)
    assert ntt_convolve(x, y).tolist() == first.tolist()
    assert bigmul._ntt_tables.cache_info().misses == misses + 1
    for table in (array for pair in bigmul._ntt_tables(4096) for array in pair):
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_ntt_mul_matches_python_from_zero_to_20000_bits():
    rng = random.Random(79)
    sizes = (0, 1, 2, 3, 7, 8, 63, 64, 65, 1000, 4095, 10_000, 20_000)
    for bits_a in sizes:
        for bits_b in (0, 1, 64, bits_a, 20_000):
            x = rng.getrandbits(bits_a) | (1 << bits_a >> 1)  # exactly bits_a bits
            y = rng.getrandbits(bits_b) | (1 << bits_b >> 1)
            product, _ = _ntt_mul(BigNat.from_int(x), BigNat.from_int(y), NTT_LIMB_BITS)
            assert product.to_int() == x * y
    # one-limb operands whose product fits one coefficient: a length-1 transform
    for x, y in ((3, 5), (0, 0)):
        product = _ntt_mul(BigNat.from_int(x), BigNat.from_int(y), NTT_LIMB_BITS)
        assert product == (BigNat.from_int(x * y), 0)


def test_ntt_limb_ops_unchanged_at_1_1000_10000_bits():
    # butterflies: length/2 per stage, three transforms; 2 bits pack into one
    # coefficient, 2,000 bits into 256 and 20,000 bits into 4,096
    for bits, ops in ((1, 0), (1000, 3 * 128 * 8), (10_000, 3 * 2048 * 12)):
        a = BigNat.from_int((1 << bits) - 1)
        assert limb_ops(a, a, ORACLE_NTT) == ops


def test_ntt_refuses_100000_bit_operands(monkeypatch):
    products = []

    class Operand(int):
        def __mul__(self, other):
            products.append(self)
            return int(self) * int(other)

    to_int = BigNat.to_int
    monkeypatch.setattr(BigNat, "to_int", lambda self: Operand(to_int(self)))
    a = BigNat.from_int((1 << 100_000) - 1)
    with pytest.raises(OverflowRisk):
        transform_mul(a, a, MulBackend(ORACLE_NTT))
    assert products == []  # refused before the oracle product is formed
    transform_mul(BigNat.from_int(6), BigNat.from_int(7), MulBackend(ORACLE_NTT))
    assert products == [6]


def test_transform_mul_backends_agree():
    rng = random.Random(71)
    for _ in range(100):
        a = BigNat.from_int(rng.getrandbits(rng.randrange(1, 2000)))
        b = BigNat.from_int(rng.getrandbits(rng.randrange(1, 2000)))
        for tag in (SCHOOLBOOK, KARATSUBA, ORACLE_NTT):
            report = transform_mul(a, b, MulBackend(tag))
            assert report.verdict == "match"
            assert report.product.to_int() == a.to_int() * b.to_int()


def test_transform_mul_adversarial_all_ones():
    for bits in (64, 1000, 5000):
        a = BigNat.from_int((1 << bits) - 1)
        for tag in (KARATSUBA, ORACLE_NTT):
            assert transform_mul(a, a, MulBackend(tag)).verdict == "match"


def test_transform_mul_unknown_backend():
    a = BigNat.from_int(3)
    with pytest.raises(UsageError):
        transform_mul(a, a, MulBackend("fft"))
    with pytest.raises(UsageError):
        transform_mul(a, a, MulBackend(POLY_TRANSFORM))  # no plan


def test_pt_backend_records_verdict(plan13):
    a = BigNat.from_int(12345)
    b = BigNat.from_int(6789)
    report = transform_mul(a, b, MulBackend(POLY_TRANSFORM, plan=plan13))
    # agreement is an experimental outcome, not a contract: both verdicts
    # are legal, but the report must carry the diagnostics either way
    assert report.verdict in ("match", "mismatch")
    assert report.oracle.to_int() == 83810205
    assert set(report.extra) >= {
        "limb_bits",
        "utilization",
        "outputs_with_nonreal_components",
    }
    assert 0 < report.extra["utilization"] <= 1


def limb_ops(a, b, tag):
    return transform_mul(a, b, MulBackend(tag)).extra["limb_ops"]


def test_limb_ops_monotone(monkeypatch):
    a = BigNat.from_int((1 << 1024) - 1)
    assert limb_ops(a, a, SCHOOLBOOK) == 16 * 16  # 1024 bits = 16 limbs
    big = BigNat.from_int((1 << 4096) - 1)
    assert limb_ops(big, big, SCHOOLBOOK) == 64 * 64
    monkeypatch.setattr(bigmul, "KARATSUBA_THRESHOLD", 4)
    assert karatsuba_mul(a, a)[1] == 168  # golden; transform_mul's limb_ops
    assert limb_ops(a, BigNat.from_int(0), KARATSUBA) == 0


def test_karatsuba_beats_schoolbook_on_op_count(monkeypatch):
    monkeypatch.setattr(bigmul, "KARATSUBA_THRESHOLD", 8)
    n = BigNat.from_int((1 << 8192) - 5)
    school = limb_ops(n, n, SCHOOLBOOK)
    kara = karatsuba_mul(n, n)[1]
    assert kara < school


def test_ntt_limb_ops_count_butterflies():
    # 1024-bit operands at 8 bits per coefficient pad to length 256:
    # three transforms of 8 stages, 128 butterflies each
    a = BigNat.from_int((1 << 1024) - 1)
    assert limb_ops(a, a, ORACLE_NTT) == 3 * 8 * 128


def test_transform_mul_calls_the_public_layers(monkeypatch, plan13):
    # perfbench traces these names, so the program must reach them by them
    calls = []
    for name in ("pack", "ntt_convolve", "karatsuba_mul"):
        real = getattr(bigmul, name)
        monkeypatch.setattr(
            bigmul, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
        )
    a, b = BigNat.from_int(12345), BigNat.from_int(6789)
    transform_mul(a, b, MulBackend(ORACLE_NTT))
    assert calls == ["pack", "pack", "ntt_convolve"]
    calls.clear()
    transform_mul(a, b, MulBackend(KARATSUBA))
    assert calls == ["karatsuba_mul"]
    calls.clear()
    transform_mul(a, b, MulBackend(POLY_TRANSFORM, plan=plan13))
    assert calls == ["pack", "pack"]


def test_second_pt_product_makes_no_boxed_multiply(monkeypatch):
    # the inverse plan (a boxed ext_pow of omega) is built by the first
    # product and kept with the plan; inverse_plan is still the name called
    plan = ptransform.preprocess(p=13, coeff_bound=1)
    calls = []
    real_mul, real_inverse = extension.ext_mul, ptransform.inverse_plan
    monkeypatch.setattr(extension, "ext_mul", lambda *a: calls.append("ext_mul") or real_mul(*a))
    monkeypatch.setattr(
        ptransform, "inverse_plan", lambda p: calls.append("inverse_plan") or real_inverse(p)
    )
    a, b = BigNat.from_int(0x3039), BigNat.from_int(0x1A85)
    first = transform_mul(a, b, MulBackend(POLY_TRANSFORM, plan=plan))
    assert calls.count("ext_mul") > 0 and calls.count("inverse_plan") == 1
    calls.clear()
    second = transform_mul(a, b, MulBackend(POLY_TRANSFORM, plan=plan))
    assert calls == ["inverse_plan"]
    assert second == first
