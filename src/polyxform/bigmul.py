"""Big-integer multiplication with pluggable backends.

CPython's own integer multiplication is the oracle.  Schoolbook,
Karatsuba and the NTT-convolution backend must agree with it exactly and
report their limb-operation count per call; the transform-pipeline
backend is an experiment whose agreement (or not) is recorded in a
MulReport rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import OverflowRisk, UsageError
from .extension import ext_mul_array
from . import ptransform

# NTT modulus: 15 * 2^27 + 1, primitive root 31.  Products of two values
# below the modulus stay under 2^62, so uint64 vector math never wraps.
NTT_PRIME = 2013265921
NTT_ROOT = 31

DEFAULT_LIMB_BITS = 64

# Operand length in limbs at and below which Karatsuba multiplies by schoolbook.
KARATSUBA_THRESHOLD = 16

# Coefficient width the oracle-ntt backend packs operands into.
NTT_LIMB_BITS = 8


@dataclass(frozen=True)
class BigNat:
    """Arbitrary-precision natural: little-endian limbs in a power-of-two base.

    Canonical form: no trailing zero limb; zero is the empty limb tuple.
    """

    limbs: Tuple[int, ...]
    limb_bits: int = DEFAULT_LIMB_BITS

    def __post_init__(self):
        if not 1 <= self.limb_bits <= 64:
            raise UsageError("limb_bits must be 1 to 64")
        if self.limbs and (min(self.limbs) < 0 or max(self.limbs) >= 1 << self.limb_bits):
            raise UsageError("limb out of range for base")
        if self.limbs and self.limbs[-1] == 0:
            raise UsageError("trailing zero limb; not canonical")

    @classmethod
    def from_int(cls, value: int, limb_bits: int = DEFAULT_LIMB_BITS) -> "BigNat":
        if value < 0:
            raise UsageError("BigNat is unsigned")
        words = np.frombuffer(value.to_bytes(-(-value.bit_length() // 64) * 8, "little"), "<u8")
        limbs = _regroup(words, 64, limb_bits, value.bit_length())
        return cls(tuple(limbs.tolist()), limb_bits)

    @classmethod
    def from_hex(cls, text: str, limb_bits: int = DEFAULT_LIMB_BITS) -> "BigNat":
        return cls.from_int(int(text, 16), limb_bits)

    def to_int(self) -> int:
        limbs = np.array(self.limbs, dtype=np.uint64)
        words = _regroup(limbs, self.limb_bits, 64, len(limbs) * self.limb_bits)
        return int.from_bytes(words.tobytes(), "little")

    def to_hex(self) -> str:
        return hex(self.to_int())

    @property
    def bit_length(self) -> int:
        n = len(self.limbs)
        return (n - 1) * self.limb_bits + self.limbs[-1].bit_length() if n else 0


def _regroup(limbs: np.ndarray, src_bits: int, dst_bits: int, bits: int) -> np.ndarray:
    """A number held in src_bits-bit limbs, as ceil(bits / dst_bits) uint64 limbs of dst_bits.

    limbs is a little-endian unsigned array, least significant limb first,
    and the number has at most `bits` bits.  Read in order, the limbs' bits
    form one bit string, so regrouping is one numpy unpack and one pack,
    linear in the bit length.
    """
    if not 1 <= dst_bits <= 64:
        raise UsageError("limb_bits must be 1 to 64")
    out = np.zeros(-(-bits // dst_bits), dtype=np.uint64)
    if src_bits == dst_bits:  # already cut where asked: no bit string needed
        out[: len(limbs)] = limbs[: len(out)]
        return out
    rows = limbs.view(np.uint8).reshape(len(limbs), limbs.itemsize)
    stream = np.unpackbits(rows, axis=1, count=src_bits, bitorder="little").ravel()[:bits]
    filled = -(-len(stream) // dst_bits)  # limbs past these are zero
    nbytes = 1 << max(0, (dst_bits - 1).bit_length() - 3)  # 1, 2, 4 or 8 bytes a limb
    padded = np.zeros(filled * dst_bits, dtype=np.uint8)
    padded[: len(stream)] = stream
    grid = np.zeros((filled, 8 * nbytes), dtype=np.uint8)
    grid[:, :dst_bits] = padded.reshape(filled, dst_bits)
    out[:filled] = np.packbits(grid, axis=1, bitorder="little").view(f"<u{nbytes}").ravel()
    return out


def _canonical(limbs: List[int], limb_bits: int) -> BigNat:
    while limbs and limbs[-1] == 0:
        limbs.pop()
    return BigNat(tuple(limbs), limb_bits)


def _school_limbs(a: Sequence[int], b: Sequence[int], bits: int) -> List[int]:
    mask = (1 << bits) - 1
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        carry = 0
        for j, bj in enumerate(b):
            cur = out[i + j] + ai * bj + carry
            out[i + j] = cur & mask
            carry = cur >> bits
        k = i + len(b)
        while carry:
            cur = out[k] + carry
            out[k] = cur & mask
            carry = cur >> bits
            k += 1
    return out


def schoolbook_mul(a: BigNat, b: BigNat) -> BigNat:
    """Exact product by long multiplication."""
    if a.limb_bits != b.limb_bits:
        raise UsageError("limb bases differ")
    return _canonical(_school_limbs(a.limbs, b.limbs, a.limb_bits), a.limb_bits)


def _limb_add(a: Sequence[int], b: Sequence[int], bits: int) -> List[int]:
    mask = (1 << bits) - 1
    out = []
    carry = 0
    for i in range(max(len(a), len(b))):
        cur = (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) + carry
        out.append(cur & mask)
        carry = cur >> bits
    if carry:
        out.append(carry)
    return out


def _limb_sub(a: Sequence[int], b: Sequence[int], bits: int) -> List[int]:
    # requires a >= b
    mask = (1 << bits) - 1
    out = []
    borrow = 0
    for i in range(len(a)):
        cur = a[i] - (b[i] if i < len(b) else 0) - borrow
        borrow = 1 if cur < 0 else 0
        out.append(cur & mask)
    assert borrow == 0, "subtraction underflow"
    return out


def _kara_limbs(
    a: Sequence[int], b: Sequence[int], bits: int, threshold: int
) -> Tuple[List[int], int]:
    """Product limbs and the limb products spent in the schoolbook base cases."""
    if min(len(a), len(b)) <= threshold:
        return _school_limbs(a, b, bits), len(a) * len(b)
    m = max(len(a), len(b)) // 2
    a0, a1 = list(a[:m]), list(a[m:])
    b0, b1 = list(b[:m]), list(b[m:])
    z0, ops0 = _kara_limbs(a0, b0, bits, threshold) if a0 and b0 else ([0], 0)
    z2, ops2 = _kara_limbs(a1, b1, bits, threshold) if a1 and b1 else ([0], 0)
    sa = _limb_add(a0, a1, bits)
    sb = _limb_add(b0, b1, bits)
    z1, ops1 = _kara_limbs(sa, sb, bits, threshold)
    z1 = _limb_sub(z1, z0, bits)
    z1 = _limb_sub(z1, z2, bits)
    out = _limb_add(z0, [0] * m + z1, bits)
    out = _limb_add(out, [0] * (2 * m) + z2, bits)
    return out, ops0 + ops1 + ops2


def karatsuba_mul(a: BigNat, b: BigNat, threshold: int = KARATSUBA_THRESHOLD) -> BigNat:
    """Exact product by three-way split recursion, schoolbook at the base."""
    return _karatsuba(a, b, threshold)[0]


def _karatsuba(a: BigNat, b: BigNat, threshold: int) -> Tuple[BigNat, int]:
    """Karatsuba product and the limb products of its schoolbook base cases."""
    if threshold < 2:
        raise UsageError("threshold must be >= 2 limbs")
    if a.limb_bits != b.limb_bits:
        raise UsageError("limb bases differ")
    if not a.limbs or not b.limbs:
        return BigNat((), a.limb_bits), 0
    limbs, ops = _kara_limbs(a.limbs, b.limbs, a.limb_bits, threshold)
    return _canonical(limbs, a.limb_bits), ops


def pack(
    a: BigNat, limb_bits: int, length: int, modulus: Optional[int] = None
) -> List[int]:
    """Repack a number into `length` coefficients of limb_bits bits each.

    When a convolution modulus is given, refuse packings whose worst-case
    convolution coefficient could reach it.
    """
    return _pack(a, limb_bits, length, modulus).tolist()


def _pack(
    a: BigNat, limb_bits: int, length: int, modulus: Optional[int] = None
) -> np.ndarray:
    if a.bit_length > limb_bits * length:
        raise UsageError("number does not fit in length * limb_bits bits")
    if modulus is not None:
        worst = length * ((1 << limb_bits) - 1) ** 2
        if worst >= modulus:
            raise OverflowRisk(
                f"worst convolution coefficient {worst} >= modulus {modulus}"
            )
    return _regroup(np.array(a.limbs, dtype=np.uint64), a.limb_bits, limb_bits, limb_bits * length)


def carry_propagate(coeffs: Sequence[int], limb_bits: int) -> int:
    """sum(coeffs[k] * 2^(k*limb_bits)), exactly, for coefficients in [0, 2^63).

    Bits g*limb_bits up to (g+1)*limb_bits of every coefficient form one
    bit string without overlaps, so each such group packs into one integer.
    """
    try:
        c = np.ascontiguousarray(coeffs, dtype="<i8")
    except OverflowError as exc:
        raise UsageError(f"convolution coefficients must be below 2^63: {exc}") from exc
    if (c < 0).any():
        raise UsageError("convolution coefficients must be naturals")
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

def _ntt_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Bit-reversal index and twiddles root^k (k < n/2) of a length-n transform.

    Reshaping arange(n) to log2(n) axes of 2 and reversing the axes
    reverses the bits of every index.
    """
    if n < 1 or n & (n - 1):
        raise UsageError("NTT length must be a power of two")
    if (NTT_PRIME - 1) % n:
        raise UsageError(f"length {n} has no root of unity mod {NTT_PRIME}")
    rev = np.arange(n).reshape((2,) * (n.bit_length() - 1)).transpose().ravel()
    root = pow(NTT_ROOT, (NTT_PRIME - 1) // n, NTT_PRIME)
    # root^k by doubling; a stage of width m uses every (n/m)-th
    twiddles = np.ones(1, dtype=np.uint64)
    while len(twiddles) < n // 2:
        step = np.uint64(pow(root, len(twiddles), NTT_PRIME))
        twiddles = np.concatenate([twiddles, twiddles * step % NTT_PRIME])
    return rev, twiddles


def ntt(values: Sequence[int], invert: bool = False) -> List[int]:
    """Iterative radix-2 transform mod NTT_PRIME (length a power of two)."""
    return _ntt(np.asarray(values, dtype=np.uint64), _ntt_tables(len(values)), invert).tolist()


def _ntt(
    values: np.ndarray, tables: Tuple[np.ndarray, np.ndarray], invert: bool = False
) -> np.ndarray:
    """The transform of a uint64 array, with the tables of its length.

    The inverse is the forward transform read at -k mod n, scaled by 1/n.
    """
    rev, twiddles = tables
    n, prime = len(values), np.uint64(NTT_PRIME)
    a = values[rev] % NTT_PRIME
    for s in range(1, n.bit_length()):
        m = 1 << s
        half = m >> 1
        w = twiddles[:: n // m]
        blocks = a.reshape(-1, m)
        u, t = blocks[:, :half], blocks[:, half:] * w % NTT_PRIME
        total, diff = u + t, u + prime - t
        # for x < 2P, x - P wraps around to above x exactly when x < P, so
        # min(x, x - P) is x mod P
        blocks[:, :half] = np.minimum(total, total - prime)
        blocks[:, half:] = np.minimum(diff, diff - prime)
    if invert:
        n_inv = np.uint64(pow(n, NTT_PRIME - 2, NTT_PRIME))
        a = np.concatenate([a[:1], a[:0:-1]]) * n_inv % NTT_PRIME
    return a


def ntt_convolve(x: Sequence[int], y: Sequence[int]) -> List[int]:
    """Exact cyclic convolution mod NTT_PRIME of two equal-length vectors."""
    return _ntt_convolve(np.asarray(x, dtype=np.uint64), np.asarray(y, dtype=np.uint64)).tolist()


def _ntt_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if len(x) != len(y):
        raise UsageError("vectors must have equal length")
    tables = _ntt_tables(len(x))
    product = _ntt(x, tables) * _ntt(y, tables) % NTT_PRIME
    return _ntt(product, tables, invert=True)


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
    limb products for schoolbook, limb products in the schoolbook base
    cases for karatsuba, butterflies over the three transforms for
    oracle-ntt.
    """

    backend: str
    product: BigNat
    oracle: BigNat
    extra: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "match" if self.product == self.oracle else "mismatch"


def _ntt_mul(a: BigNat, b: BigNat, limb_bits: int) -> Tuple[BigNat, int]:
    """Product and its butterfly count: length/2 per stage, three transforms."""
    total_bits = max(a.bit_length + b.bit_length, 1)
    length = 1 << (-(-total_bits // limb_bits) - 1).bit_length()  # least power of two that fits
    xa = _pack(a, limb_bits, length, modulus=NTT_PRIME)
    xb = _pack(b, limb_bits, length, modulus=NTT_PRIME)
    conv = _ntt_convolve(xa, xb)
    product = BigNat.from_int(carry_propagate(conv, limb_bits), a.limb_bits)
    return product, 3 * (length // 2) * (length.bit_length() - 1)


def _pt_mul(a: BigNat, b: BigNat, plan: "ptransform.PTPlan") -> Tuple[BigNat, dict]:
    p = plan.p.q
    limb_bits = max(1, min(plan.coeff_bound.bit_length() - 1, p.bit_length() - 1))
    # zero-pad to the plan's full transform length
    xa, xb = (ptransform.natural_column(_pack(v, limb_bits, plan.n), plan) for v in (a, b))
    fa, fb = (ptransform.transform_elements(x, plan) for x in (xa, xb))
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
    return BigNat.from_int(product, a.limb_bits), extra


def transform_mul(a: BigNat, b: BigNat, backend: MulBackend) -> MulReport:
    """Multiply through the requested backend, cross-checked vs CPython's `*`."""
    if a.limb_bits != b.limb_bits:
        raise UsageError("limb bases differ")
    if backend.tag == SCHOOLBOOK:
        product = schoolbook_mul(a, b)
        extra = {"limb_ops": len(a.limbs) * len(b.limbs)}
    elif backend.tag == KARATSUBA:
        product, ops = _karatsuba(a, b, KARATSUBA_THRESHOLD)
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
    oracle = BigNat.from_int(a.to_int() * b.to_int(), a.limb_bits)
    return MulReport(backend.tag, product, oracle, extra)
