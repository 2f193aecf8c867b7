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
        base = 1 << self.limb_bits
        if any(l < 0 or l >= base for l in self.limbs):
            raise UsageError("limb out of range for base")
        if self.limbs and self.limbs[-1] == 0:
            raise UsageError("trailing zero limb; not canonical")

    @classmethod
    def from_int(cls, value: int, limb_bits: int = DEFAULT_LIMB_BITS) -> "BigNat":
        if value < 0:
            raise UsageError("BigNat is unsigned")
        limbs = []
        mask = (1 << limb_bits) - 1
        while value:
            limbs.append(value & mask)
            value >>= limb_bits
        return cls(tuple(limbs), limb_bits)

    @classmethod
    def from_hex(cls, text: str, limb_bits: int = DEFAULT_LIMB_BITS) -> "BigNat":
        return cls.from_int(int(text, 16), limb_bits)

    def to_int(self) -> int:
        value = 0
        for l in reversed(self.limbs):
            value = (value << self.limb_bits) | l
        return value

    def to_hex(self) -> str:
        return hex(self.to_int())

    @property
    def bit_length(self) -> int:
        n = len(self.limbs)
        return (n - 1) * self.limb_bits + self.limbs[-1].bit_length() if n else 0


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
    if a.bit_length > limb_bits * length:
        raise UsageError("number does not fit in length * limb_bits bits")
    if modulus is not None:
        worst = length * ((1 << limb_bits) - 1) ** 2
        if worst >= modulus:
            raise OverflowRisk(
                f"worst convolution coefficient {worst} >= modulus {modulus}"
            )
    limbs = BigNat.from_int(a.to_int(), limb_bits).limbs
    return list(limbs) + [0] * (length - len(limbs))


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
                         bitorder="little").reshape(len(c), groups, limb_bits)
    packed = (np.packbits(bits[:, g], bitorder="little").tobytes() for g in range(groups))
    return sum(int.from_bytes(b, "little") << (g * limb_bits) for g, b in enumerate(packed))


# --- NTT convolution backend -------------------------------------------

def _bit_reverse_permute(a: np.ndarray) -> np.ndarray:
    n = len(a)
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return a[rev]


def ntt(values: Sequence[int], invert: bool = False) -> List[int]:
    """Iterative radix-2 transform mod NTT_PRIME (length a power of two)."""
    return _ntt(np.asarray(values, dtype=np.uint64), invert).tolist()


def _ntt(values: np.ndarray, invert: bool = False) -> np.ndarray:
    n = len(values)
    if n & (n - 1):
        raise UsageError("NTT length must be a power of two")
    if (NTT_PRIME - 1) % n:
        raise UsageError(f"length {n} has no root of unity mod {NTT_PRIME}")
    a = _bit_reverse_permute(values % NTT_PRIME)
    root = pow(NTT_ROOT, (NTT_PRIME - 1) // n, NTT_PRIME)
    if invert:
        root = pow(root, NTT_PRIME - 2, NTT_PRIME)
    # root^k for k < n/2, by doubling; a stage of width m uses every (n/m)-th
    twiddles = np.ones(1, dtype=np.uint64)
    while len(twiddles) < n // 2:
        step = np.uint64(pow(root, len(twiddles), NTT_PRIME))
        twiddles = np.concatenate([twiddles, twiddles * step % NTT_PRIME])
    for s in range(1, n.bit_length()):
        m = 1 << s
        half = m >> 1
        w = twiddles[:: n // m]
        blocks = a.reshape(-1, m)
        u = blocks[:, :half].copy()
        t = blocks[:, half:] * w % NTT_PRIME
        blocks[:, :half] = (u + t) % NTT_PRIME
        blocks[:, half:] = (u + NTT_PRIME - t) % NTT_PRIME
    if invert:
        n_inv = pow(n, NTT_PRIME - 2, NTT_PRIME)
        a = a * np.uint64(n_inv) % NTT_PRIME
    return a


def ntt_convolve(x: Sequence[int], y: Sequence[int]) -> List[int]:
    """Exact cyclic convolution mod NTT_PRIME of two equal-length vectors."""
    if len(x) != len(y):
        raise UsageError("vectors must have equal length")
    X = _ntt(np.asarray(x, dtype=np.uint64))
    Y = _ntt(np.asarray(y, dtype=np.uint64))
    return _ntt(X * Y % NTT_PRIME, invert=True).tolist()


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
    xa = pack(a, limb_bits, length, modulus=NTT_PRIME)
    xb = pack(b, limb_bits, length, modulus=NTT_PRIME)
    conv = ntt_convolve(xa, xb)
    product = BigNat.from_int(carry_propagate(conv, limb_bits), a.limb_bits)
    return product, 3 * (length // 2) * (length.bit_length() - 1)


def _pt_mul(a: BigNat, b: BigNat, plan: "ptransform.PTPlan") -> Tuple[BigNat, dict]:
    p = plan.p.q
    limb_bits = max(1, min(plan.coeff_bound.bit_length() - 1, p.bit_length() - 1))
    # zero-pad to the plan's full transform length
    xa, xb = (ptransform.natural_column(pack(v, limb_bits, plan.n), plan) for v in (a, b))
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
    oracle = BigNat.from_int(a.to_int() * b.to_int(), a.limb_bits)
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
    return MulReport(backend.tag, product, oracle, extra)
