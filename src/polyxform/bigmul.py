"""Big-integer multiplication with pluggable backends.

CPython's own integer multiplication is the oracle.  Schoolbook,
Karatsuba and the NTT-convolution backend must agree with it exactly and
report their limb-operation count per call; the transform-pipeline
backend is an experiment whose agreement (or not) is recorded in a
MulReport rather than asserted.

Schoolbook and Karatsuba's base cases share one digit kernel: a batch of
operand pairs, cut into 16-bit digits, whose columns of digit products
numpy sums in int64 (exact while the shorter operand has at most
MAX_SHORTER_LIMBS limbs) and one carry turns into integers.  Python ints
only shift, mask, add and convert bytes, so these backends never use the
oracle's `*`.  Their counts are still 64-bit limb products.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import OverflowRisk, UsageError
from .extension import ext_mul_array
from .modcore import _as_int
from . import ptransform

# NTT modulus: 15 * 2^27 + 1, primitive root 31.  Products of two values
# below the modulus stay under 2^62, so int64 and uint64 vector math never wraps.
NTT_PRIME = 2013265921
NTT_ROOT = 31

# Points of the DFT that one NTT pass takes as a float64 matrix product: the
# largest power of two with NTT_RADIX·(2^16 − 1)·(NTT_PRIME − 1) < 2^53.
NTT_RADIX = 64

# Bits per BigNat limb.
LIMB_BITS = 64

# Operand length in limbs at and below which Karatsuba multiplies by schoolbook.
KARATSUBA_THRESHOLD = 16

# The longest shorter operand, in limbs, whose 16-bit digit products sum
# exactly in int64: 4·limbs·(2^16 − 1)^2 < 2^63.
MAX_SHORTER_LIMBS = (2**63 - 1) // (4 * (2**16 - 1) ** 2)

# Operand limbs of the largest Karatsuba subtree whose base cases go to the
# digit kernel in one batch, so however long the operands, only one such
# subtree's base cases and digit arrays are held at once.
SUBTREE_LIMBS = 1024

# Coefficient width the oracle-ntt backend packs operands into.
NTT_LIMB_BITS = 8


@dataclass(frozen=True)
class BigNat:
    """Arbitrary-precision natural, held as one Python int; anything else, a
    bool or a numpy integer included, is refused."""

    value: int

    def __post_init__(self):
        _as_int(self.value, "a BigNat", 0)

    @classmethod
    def from_int(cls, value: int) -> "BigNat":
        return cls(value)

    @classmethod
    def from_hex(cls, text: str) -> "BigNat":
        return cls(int(text, 16))

    def to_int(self) -> int:
        return self.value

    def to_hex(self) -> str:
        return hex(self.value)

    @property
    def bit_length(self) -> int:
        return self.value.bit_length()


def _limb_count(value: int) -> int:
    return -(-value.bit_length() // LIMB_BITS)


def _digit_rows(values: Sequence[int], limbs: int) -> np.ndarray:
    """values, each below 2^(64·limbs), as a (len(values), 4·limbs) int64
    array of 16-bit digits, least significant first."""
    data = b"".join(v.to_bytes(8 * limbs, "little") for v in values)
    return np.frombuffer(data, "<u2").reshape(len(values), 4 * limbs).astype("<i8")


def _carry(columns: np.ndarray) -> List[int]:
    """sum(columns[r, k] · 2^(16k)) for every row r of a (B, K) int64 array
    of entries in [0, 2^63), each sum below 2^(16K).

    Bits 16g up to 16g + 16 of every entry form one bit string, so each such
    group packs into one integer.  Their sum holds the B naturals side by
    side, natural r in bits 16Kr up to 16K(r + 1), and one to_bytes cuts
    them apart.
    """
    count, width = columns.shape[0], 2 * columns.shape[1]  # width in bytes
    pieces = columns.view("<u2").reshape(count, -1, 4)
    total = sum(
        int.from_bytes(pieces[:, :, g].tobytes(), "little") << (16 * g) for g in range(4)
    )
    data = memoryview(total.to_bytes(width * count, "little"))
    return [int.from_bytes(data[r * width:(r + 1) * width], "little") for r in range(count)]


def _size_class(limbs: int) -> int:
    """limbs rounded up to a multiple of the power of two at or below limbs / 2,
    so at most 1.5 times limbs."""
    step = 1 << max(0, limbs.bit_length() - 2)
    return -(-limbs // step) * step


def _long_multiply(xs: Sequence[int], la: int, ys: Sequence[int], lb: int) -> List[int]:
    """xs[r] · ys[r] for every r, each x below 2^(64·la) and each y below
    2^(64·lb): one einsum sums every column of 16-bit digit products, and
    one carry turns the columns into integers."""
    x, y = _digit_rows(xs, la), _digit_rows(ys, lb)
    if x.shape[1] > y.shape[1]:
        x, y = y, x
    dx, dy = x.shape[1], y.shape[1]
    # y between dx - 1 zero digits and dx more: its window k of dx digits
    # against x reversed sums column k of the long multiplication
    padded = np.zeros((len(xs), dy + 2 * dx - 1), dtype="<i8")
    padded[:, dx - 1:dx - 1 + dy] = y
    windows = np.ndarray((len(xs), dx + dy, dx), "<i8", padded, 0, (padded.strides[0], 8, 8))
    return _carry(np.einsum("rkj,rj->rk", windows, x[:, ::-1]))


def _digit_products(pairs: Sequence[Tuple[int, int, int, int]]) -> List[int]:
    """a · b for every (a, la, b, lb) pair, a and b held in la and lb limbs,
    by long multiplication of 16-bit digits, all pairs in one batch.

    A digit product is below 2^32, so an int64 column sum of the shorter
    operand's 4·min(la, lb) digit products is exact while
    4·min(la, lb)·(2^16 − 1)^2 < 2^63; a pair past that is refused before
    anything is allocated.  A pair with a zero operand has product 0 and is
    never padded.  The others are grouped by the size classes of la and lb
    and padded to the longest in their group, at most 1.5 times either
    side; each group is one _long_multiply call.
    """
    if any(min(la, lb) > MAX_SHORTER_LIMBS for _, la, _, lb in pairs):
        raise OverflowRisk(f"an int64 column sum of more than {4 * MAX_SHORTER_LIMBS} "
                           f"16-bit digit products could reach 2^63")
    products = [0] * len(pairs)
    groups = defaultdict(list)
    for i, (a, la, b, lb) in enumerate(pairs):
        if a and b:
            groups[_size_class(la), _size_class(lb)].append(i)
    for rows in groups.values():
        la, lb = max(pairs[i][1] for i in rows), max(pairs[i][3] for i in rows)
        got = _long_multiply([pairs[i][0] for i in rows], la, [pairs[i][2] for i in rows], lb)
        for i, product in zip(rows, got):
            products[i] = product
    return products


def schoolbook_mul(a: BigNat, b: BigNat) -> BigNat:
    """Exact product by long multiplication: the digit kernel of
    _digit_products on one pair.  Its int64 column sums are exact, and a
    shorter operand past MAX_SHORTER_LIMBS limbs is refused with
    OverflowRisk; transform_mul counts len(a) · len(b) 64-bit limb products."""
    (product,) = _digit_products([(a.value, _limb_count(a.value), b.value, _limb_count(b.value))])
    return BigNat(product)


def _split(a: int, la: int, b: int, lb: int) -> Tuple[int, tuple]:
    """One Karatsuba step on a and b held in la and lb limbs (the top ones may
    be zero): the shift 64m of the split at m = max(la, lb) // 2 limbs, and
    the (a, la, b, lb) of its half-size products z0, z2 and z1."""
    m = max(la, lb) // 2
    shift = m * LIMB_BITS
    low = (1 << shift) - 1
    a0, a1, b0, b1 = a & low, a >> shift, b & low, b >> shift
    la0, lb0 = min(la, m), min(lb, m)
    la1, lb1 = la - la0, lb - lb0
    # a sum takes one limb more than its longer half when it carries out of it
    sa, sb = a0 + a1, b0 + b1
    return shift, ((a0, la0, b0, lb0), (a1, la1, b1, lb1),
                   (sa, max(la0, la1, _limb_count(sa)), sb, max(lb0, lb1, _limb_count(sb))))


def _recombine(z0: int, z2: int, z1: int, shift: int) -> int:
    """z0 + ((z1 − z0 − z2) << 64m) + (z2 << 128m), for a split's shift 64m."""
    return z0 + ((z1 - z0 - z2) << shift) + (z2 << 2 * shift)


def _kara_leaves(a: int, la: int, b: int, lb: int, pairs: list, program: list) -> None:
    """Walk the recursion of a * b: append each base case (a, la, b, lb) to
    pairs, and to program None for a base case and the shift of a split
    after the entries of its three half-size products."""
    if min(la, lb) <= KARATSUBA_THRESHOLD:
        pairs.append((a, la, b, lb))
        program.append(None)
        return
    shift, halves = _split(a, la, b, lb)
    for half in halves:
        _kara_leaves(*half, pairs, program)
    program.append(shift)


def _kara(a: int, la: int, b: int, lb: int) -> Tuple[int, int]:
    """a * b and the limb products of its base cases.  A subtree of at most
    SUBTREE_LIMBS operand limbs runs in three passes: walk it, multiply
    its base cases in one _digit_products call, and recombine bottom-up.  A
    larger one is split here, so only one such subtree's base cases are
    held at once."""
    if la + lb > SUBTREE_LIMBS and min(la, lb) > KARATSUBA_THRESHOLD:
        shift, halves = _split(a, la, b, lb)
        (z0, ops0), (z2, ops2), (z1, ops1) = (_kara(*half) for half in halves)
        return _recombine(z0, z2, z1, shift), ops0 + ops2 + ops1
    pairs, program = [], []
    _kara_leaves(a, la, b, lb, pairs, program)
    products, stack = iter(_digit_products(pairs)), []
    for shift in program:
        if shift is None:
            stack.append(next(products))
        else:
            stack[-3:] = [_recombine(*stack[-3:], shift)]
    return stack.pop(), sum(la * lb for _, la, _, lb in pairs)


def karatsuba_mul(a: BigNat, b: BigNat) -> Tuple[BigNat, int]:
    """Exact product by recursion on two halves, three half-size products
    each, and the limb products spent in its base cases.

    The recursion splits at m = max(la, lb) // 2 limbs down to base cases of
    min(la, lb) <= KARATSUBA_THRESHOLD limbs, which the digit kernel of
    _digit_products multiplies in one batch per subtree of at most
    SUBTREE_LIMBS operand limbs (see _kara), exact under its int64
    column bound.  The count is the sum of la · lb over the base cases:
    64-bit limb products, although the kernel multiplies 16-bit digits.
    """
    product, ops = _kara(a.value, _limb_count(a.value), b.value, _limb_count(b.value))
    return BigNat(product), ops


def pack(a: BigNat, limb_bits: int, length: int) -> np.ndarray:
    """a as `length` uint64 coefficients of limb_bits bits each, least significant first.

    Read in order, the coefficients' bits form one bit string, so one numpy
    unpack cuts it into rows of limb_bits bits and one pack of those rows,
    zero-filled to 64 bits, gives the coefficients, linear in the bit length.
    """
    if a.bit_length > _as_int(limb_bits, "limb_bits", 1, 65) * _as_int(length, "a length", 0):
        raise UsageError("number does not fit in length * limb_bits bits")
    filled = -(-a.bit_length // limb_bits)  # coefficients past these are zero
    data = np.frombuffer(a.value.to_bytes(-(-a.bit_length // 8), "little"), np.uint8)
    grid = np.zeros((filled, 64), dtype=np.uint8)
    grid[:, :limb_bits] = np.unpackbits(data, count=filled * limb_bits,
                                        bitorder="little").reshape(filled, limb_bits)
    out = np.zeros(length, dtype=np.uint64)
    out[:filled] = np.packbits(grid, axis=1, bitorder="little").view("<u8").ravel()
    return out


def carry_propagate(coeffs: Sequence[int], limb_bits: int) -> int:
    """sum(coeffs[k] * 2^(k*limb_bits)), exactly, for a list of integer
    coefficients in [0, 2^63), checked by ptransform._as_array.

    Bits g*limb_bits up to (g+1)*limb_bits of every coefficient form one
    bit string without overlaps, so each such group packs into one integer.
    """
    _as_int(limb_bits, "limb_bits", 1)
    c = ptransform._as_array(coeffs, [(None,)], 0, 2**63, "convolution coefficients")
    c = np.ascontiguousarray(c, dtype="<i8")
    groups = -(-int(c.max(initial=0)).bit_length() // limb_bits)
    bits = np.unpackbits(c.view(np.uint8).reshape(-1, 8), axis=1, count=groups * limb_bits,
                         bitorder="little")
    # one limb_bits-byte void item per group, so a group's column copies whole items
    items = bits.view(f"V{limb_bits}")
    packed = (np.packbits(np.ascontiguousarray(items[:, g]).view(np.uint8), bitorder="little")
              for g in range(groups))
    return sum(
        int.from_bytes(p.tobytes(), "little") << (g * limb_bits) for g, p in enumerate(packed)
    )


# --- NTT convolution backend -------------------------------------------

@functools.lru_cache(maxsize=1)
def _ntt_tables(n: int) -> tuple:
    """Each pass's tables for a length-n transform, kept read-only for the last
    length asked: the low and high 16 bits of its radix-point DFT matrix as
    (2, radix, radix) float64, and its (radix, rest) int64 twiddles w^(k·j),
    for w of order radix·rest."""
    if n < 1 or n & (n - 1):
        raise UsageError("NTT length must be a power of two")
    if (NTT_PRIME - 1) % n:
        raise UsageError(f"length {n} has no root of unity mod {NTT_PRIME}")
    root = pow(NTT_ROOT, (NTT_PRIME - 1) // n, NTT_PRIME)
    powers = np.ones(1, dtype=np.int64)  # root^k for k < n, up to NTT_RADIX-fold longer a round
    while len(powers) < n:
        step, factors = pow(root, len(powers), NTT_PRIME), [1]
        while len(factors) < min(NTT_RADIX, n // len(powers)):
            factors.append(factors[-1] * step % NTT_PRIME)
        powers = ptransform._reduce(np.multiply.outer(factors, powers), NTT_PRIME).ravel()
    passes, width = [], n
    while width > 1:
        radix = min(NTT_RADIX, width)
        k = np.arange(radix)[:, None]
        dft = powers[n // radix * ((k * k.T) & (radix - 1))]
        width //= radix
        passes.append((ptransform._held(np.stack([dft & 0xFFFF, dft >> 16]).astype(np.float64)),
                       ptransform._held(powers[n // (radix * width) * (k * np.arange(width))])))
    return tuple(passes)


def ntt(values: Sequence[int], invert: bool = False) -> np.ndarray:
    """Transform mod NTT_PRIME, in passes of radix NTT_RADIX (length a power
    of two), of integers in [0, 2^63), as uint64: the one way into the NTT.
    Every input, a list or an array of any integer dtype, pack's uint64
    included, passes ptransform._as_array's check, so a uint64 entry of 2^63
    or more is refused, as the same value in a list is.

    A pass views each row of the data as (radix digit, rest) and takes the
    radix-point DFT over the digit as a float64 product with each 16-bit
    half of the DFT matrix: every dot product stays below
    NTT_RADIX·(2^16 − 1)·(P − 1) < 2^53, exact in any summation order.
    The halves are two products, not one of twice the height, so that up
    to length 4,096 each is at most 64³ multiply-adds, which OpenBLAS runs
    on the calling thread rather than leave a worker spinning after it.
    Each output row, times its twiddles, is a transform of length rest
    holding every radix-th output, so the pass moves its output digit to
    the end of the row, and one digit reversal puts the outputs in order.
    The inverse is the forward transform read at -k mod n, scaled by 1/n.
    """
    a = ptransform._as_array(values, [(None,)], 0, 2**63, "NTT input") % NTT_PRIME
    passes = _ntt_tables(len(a))
    for split, twiddles in passes:
        radix, rest = twiddles.shape
        low, high = (split @ a.reshape(radix, -1).astype(np.float64)).astype(np.int64)
        y = ptransform._reduce((ptransform._reduce(high, NTT_PRIME) << 16) + low, NTT_PRIME)
        if rest > 1:  # the last pass's twiddles are all 1
            y = ptransform._reduce(y.reshape(radix, rest, -1) * twiddles[:, :, None], NTT_PRIME)
        a = y.reshape(radix, -1).T
    a = a.reshape([len(twiddles) for _, twiddles in passes]).transpose().ravel()
    if invert:
        scale = pow(len(a), NTT_PRIME - 2, NTT_PRIME)
        a = ptransform._reduce(np.concatenate([a[:1], a[:0:-1]]) * scale, NTT_PRIME)
    return a.view(np.uint64)


def ntt_convolve(x: Sequence[int], y: Sequence[int]) -> np.ndarray:
    """Exact cyclic convolution mod NTT_PRIME of two equal-length vectors, as
    uint64: two forward ntt calls, a pointwise product and one inverse call."""
    fx, fy = ntt(x), ntt(y)
    if len(fx) != len(fy):
        raise UsageError("vectors must have equal length")
    return ntt(ptransform._reduce(fx * fy, NTT_PRIME), invert=True)


# --- backend dispatch ---------------------------------------------------

SCHOOLBOOK = "schoolbook"
KARATSUBA = "karatsuba"
ORACLE_NTT = "oracle-ntt"
POLY_TRANSFORM = "polynomial-transform"


@dataclass(frozen=True)
class MulBackend:
    tag: str
    plan: Optional["ptransform.PTPlan"] = None


@dataclass(frozen=True)
class MulReport:
    """Outcome of one multiplication, with the oracle cross-check.

    extra["limb_ops"] is the exact backends' operation count for this call:
    64-bit limb products for schoolbook and, in its base cases, karatsuba,
    and the radix-2 butterflies 3·(n/2)·log2(n) of oracle-ntt's three
    length-n transforms: cost models that their kernels, on 16-bit digits
    and in passes of radix NTT_RADIX, keep.
    """

    backend: str
    product: BigNat
    oracle: BigNat
    extra: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "match" if self.product == self.oracle else "mismatch"


def _ntt_mul(a: BigNat, b: BigNat, limb_bits: int) -> Tuple[BigNat, int]:
    """Product and its radix-2 butterfly count: length/2 per stage, three
    transforms.  Each convolution coefficient is at most
    length·(2^limb_bits − 1)², so a pair where that reaches NTT_PRIME is
    refused with OverflowRisk before anything is packed."""
    total_bits = max(a.bit_length + b.bit_length, 1)
    length = 1 << (-(-total_bits // limb_bits) - 1).bit_length()  # least power of two that fits
    worst = length * ((1 << limb_bits) - 1) ** 2
    if worst >= NTT_PRIME:
        raise OverflowRisk(f"worst convolution coefficient {worst} >= modulus {NTT_PRIME}")
    xa, xb = pack(a, limb_bits, length), pack(b, limb_bits, length)
    product = BigNat.from_int(carry_propagate(ntt_convolve(xa, xb), limb_bits))
    return product, 3 * (length // 2) * (length.bit_length() - 1)


def _pt_mul(a: BigNat, b: BigNat, plan: "ptransform.PTPlan") -> Tuple[BigNat, dict]:
    p = plan.p.q
    limb_bits = max(1, min(plan.coeff_bound.bit_length() - 1, p.bit_length() - 1))
    # zero-pad to the plan's full transform length; each digit is at most
    # 2^limb_bits - 1 <= coeff_bound, a column natural_column would accept
    fa, fb = (ptransform.transform_elements(pack(v, limb_bits, plan.n)[:, None], plan)
              for v in (a, b))
    pointwise = ext_mul_array(fa, fb, plan.context)
    inv = ptransform.inverse_plan(plan)
    back = ptransform.transform_elements(pointwise, inv)
    extra = {
        "limb_bits": limb_bits,
        "utilization": max(a.bit_length + b.bit_length, 1) / (plan.n * limb_bits),
        "outputs_with_nonreal_components": int(back[:, 1:].any(axis=1).sum()),
    }
    # n = p^3 - 1 is -1 mod p, so the 1/n scaling is negation mod p
    product = carry_propagate(-back[:, 0] % p, limb_bits)
    return BigNat.from_int(product), extra


def transform_mul(a: BigNat, b: BigNat, backend: MulBackend) -> MulReport:
    """Multiply through the requested backend, cross-checked vs CPython's `*`."""
    if backend.tag == SCHOOLBOOK:
        product = schoolbook_mul(a, b)
        extra = {"limb_ops": _limb_count(a.value) * _limb_count(b.value)}
    elif backend.tag == KARATSUBA:
        product, ops = karatsuba_mul(a, b)
        extra = {"limb_ops": ops}
    elif backend.tag == ORACLE_NTT:
        product, ops = _ntt_mul(a, b, NTT_LIMB_BITS)
        extra = {"limb_ops": ops}
    elif backend.tag == POLY_TRANSFORM:
        if backend.plan is None:
            raise UsageError("polynomial-transform backend needs a plan")
        product, extra = _pt_mul(a, b, backend.plan)
    else:
        raise UsageError(f"unknown backend {backend.tag!r}")
    # after the backend, so an operand pair it refuses costs no oracle product
    oracle = BigNat.from_int(a.to_int() * b.to_int())
    return MulReport(backend.tag, product, oracle, extra)
