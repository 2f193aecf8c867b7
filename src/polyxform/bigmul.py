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

# Bits per BigNat limb.
LIMB_BITS = 64

# Operand length in limbs at and below which Karatsuba multiplies by schoolbook.
KARATSUBA_THRESHOLD = 16

# Coefficient width the oracle-ntt backend packs operands into.
NTT_LIMB_BITS = 8


@dataclass(frozen=True)
class BigNat:
    """Arbitrary-precision natural: little-endian 64-bit limbs, a tuple of Python ints.

    Canonical form: no trailing zero limb; zero is the empty limb tuple.
    """

    limbs: Tuple[int, ...]

    def __post_init__(self):
        if type(self.limbs) is not tuple or not set(map(type, self.limbs)) <= {int}:
            raise UsageError("limbs must be a tuple of Python ints")
        if self.limbs and (min(self.limbs) < 0 or max(self.limbs) >= 1 << LIMB_BITS):
            raise UsageError("limb out of range for base")
        if self.limbs and self.limbs[-1] == 0:
            raise UsageError("trailing zero limb; not canonical")

    @classmethod
    def _trusted(cls, limbs: Tuple[int, ...]) -> "BigNat":
        """A BigNat of limbs that are canonical and in range by construction,
        without __post_init__'s three scans of them."""
        nat = object.__new__(cls)
        object.__setattr__(nat, "limbs", limbs)
        return nat

    @classmethod
    def from_int(cls, value: int) -> "BigNat":
        if value < 0:
            raise UsageError("BigNat is unsigned")
        data = value.to_bytes(-(-value.bit_length() // LIMB_BITS) * 8, "little")
        return cls._trusted(tuple(np.frombuffer(data, "<u8").tolist()))

    @classmethod
    def from_hex(cls, text: str) -> "BigNat":
        return cls.from_int(int(text, 16))

    def to_int(self) -> int:
        return int.from_bytes(np.array(self.limbs, dtype="<u8").tobytes(), "little")

    def to_hex(self) -> str:
        return hex(self.to_int())

    @property
    def bit_length(self) -> int:
        n = len(self.limbs)
        return (n - 1) * LIMB_BITS + self.limbs[-1].bit_length() if n else 0


def _canonical(limbs: List[int]) -> BigNat:
    """The BigNat of limbs already masked to LIMB_BITS, trailing zeros dropped."""
    while limbs and limbs[-1] == 0:
        limbs.pop()
    return BigNat._trusted(tuple(limbs))


def _school_limbs(a: Sequence[int], b: Sequence[int]) -> List[int]:
    bits, mask = LIMB_BITS, (1 << LIMB_BITS) - 1
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
    return _canonical(_school_limbs(a.limbs, b.limbs))


def _limb_add(a: Sequence[int], b: Sequence[int]) -> List[int]:
    bits, mask = LIMB_BITS, (1 << LIMB_BITS) - 1
    out = []
    carry = 0
    for i in range(max(len(a), len(b))):
        cur = (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) + carry
        out.append(cur & mask)
        carry = cur >> bits
    if carry:
        out.append(carry)
    return out


def _limb_sub(a: Sequence[int], b: Sequence[int]) -> List[int]:
    # requires a >= b
    mask = (1 << LIMB_BITS) - 1
    out = []
    borrow = 0
    for i in range(len(a)):
        cur = a[i] - (b[i] if i < len(b) else 0) - borrow
        borrow = 1 if cur < 0 else 0
        out.append(cur & mask)
    assert borrow == 0, "subtraction underflow"
    return out


def _kara_limbs(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], int]:
    """Product limbs and the limb products spent in the schoolbook base cases."""
    if min(len(a), len(b)) <= KARATSUBA_THRESHOLD:
        return _school_limbs(a, b), len(a) * len(b)
    m = max(len(a), len(b)) // 2
    a0, a1 = list(a[:m]), list(a[m:])
    b0, b1 = list(b[:m]), list(b[m:])
    z0, ops0 = _kara_limbs(a0, b0) if a0 and b0 else ([0], 0)
    z2, ops2 = _kara_limbs(a1, b1) if a1 and b1 else ([0], 0)
    sa = _limb_add(a0, a1)
    sb = _limb_add(b0, b1)
    z1, ops1 = _kara_limbs(sa, sb)
    z1 = _limb_sub(z1, z0)
    z1 = _limb_sub(z1, z2)
    out = _limb_add(z0, [0] * m + z1)
    out = _limb_add(out, [0] * (2 * m) + z2)
    return out, ops0 + ops1 + ops2


def karatsuba_mul(a: BigNat, b: BigNat) -> Tuple[BigNat, int]:
    """Exact product by three-way split recursion, schoolbook at the base, and
    the limb products spent in those base cases."""
    if not a.limbs or not b.limbs:
        return BigNat(()), 0
    limbs, ops = _kara_limbs(a.limbs, b.limbs)
    return _canonical(limbs), ops


def pack(
    a: BigNat, limb_bits: int, length: int, modulus: Optional[int] = None
) -> np.ndarray:
    """a as `length` uint64 coefficients of limb_bits bits each, least significant first.

    When a convolution modulus is given, refuse packings whose worst-case
    convolution coefficient could reach it.  Read in order, the limbs' bits
    form one bit string, so repacking is one numpy unpack and one pack,
    linear in the bit length.
    """
    if not 1 <= limb_bits <= 64:
        raise UsageError("limb_bits must be 1 to 64")
    if a.bit_length > limb_bits * length:
        raise UsageError("number does not fit in length * limb_bits bits")
    if modulus is not None:
        worst = length * ((1 << limb_bits) - 1) ** 2
        if worst >= modulus:
            raise OverflowRisk(
                f"worst convolution coefficient {worst} >= modulus {modulus}"
            )
    stream = np.unpackbits(np.array(a.limbs, dtype="<u8").view(np.uint8), bitorder="little")
    filled = -(-a.bit_length // limb_bits)  # coefficients past these are zero
    nbytes = 1 << max(0, (limb_bits - 1).bit_length() - 3)  # 1, 2, 4 or 8 bytes a coefficient
    cut = np.zeros(filled * limb_bits, dtype=np.uint8)
    cut[: a.bit_length] = stream[: a.bit_length]
    grid = np.zeros((filled, 8 * nbytes), dtype=np.uint8)
    grid[:, :limb_bits] = cut.reshape(filled, limb_bits)
    out = np.zeros(length, dtype=np.uint64)
    out[:filled] = np.packbits(grid, axis=1, bitorder="little").view(f"<u{nbytes}").ravel()
    return out


def carry_propagate(coeffs: Sequence[int], limb_bits: int) -> int:
    """sum(coeffs[k] * 2^(k*limb_bits)), exactly, for integer coefficients in [0, 2^63).

    Bits g*limb_bits up to (g+1)*limb_bits of every coefficient form one
    bit string without overlaps, so each such group packs into one integer.
    """
    if limb_bits < 1:
        raise UsageError("limb_bits must be >= 1")
    c = np.asarray(coeffs)
    if c.size and c.dtype.kind not in "iu":
        raise UsageError("convolution coefficients must be integers in [0, 2^63)")
    c = np.ascontiguousarray(c, dtype="<i8")  # uint64 at or past 2^63 wraps negative
    if (c < 0).any():
        raise UsageError("convolution coefficients must be integers in [0, 2^63)")
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

def _naturals(values: Sequence[int]) -> np.ndarray:
    """values as a 1-D uint64 array, refused unless each is an integer in [0, 2^64);
    a uint64 array, as pack returns, is taken as it is, without a scan."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint64 and values.ndim == 1:
        return values
    array = ptransform._as_array(values)
    if array.ndim != 1 or ((array < 0) | (array >= 2**64)).any():
        raise UsageError("NTT input must be a list of integers in [0, 2^64)")
    return array.astype(np.uint64)


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


def ntt(values: Sequence[int], invert: bool = False) -> np.ndarray:
    """Iterative radix-2 transform mod NTT_PRIME (length a power of two), as uint64."""
    x = _naturals(values)
    return _ntt(x, _ntt_tables(len(x)), invert)


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


def ntt_convolve(x: Sequence[int], y: Sequence[int]) -> np.ndarray:
    """Exact cyclic convolution mod NTT_PRIME of two equal-length vectors, as uint64;
    the three transforms share one build of the tables."""
    x, y = _naturals(x), _naturals(y)
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
    xa = pack(a, limb_bits, length, modulus=NTT_PRIME)
    xb = pack(b, limb_bits, length, modulus=NTT_PRIME)
    product = BigNat.from_int(carry_propagate(ntt_convolve(xa, xb), limb_bits))
    return product, 3 * (length // 2) * (length.bit_length() - 1)


def _pt_mul(a: BigNat, b: BigNat, plan: "ptransform.PTPlan") -> Tuple[BigNat, dict]:
    p = plan.p.q
    limb_bits = max(1, min(plan.coeff_bound.bit_length() - 1, p.bit_length() - 1))
    # zero-pad to the plan's full transform length
    fa, fb = (ptransform.transform_naturals(pack(v, limb_bits, plan.n), plan) for v in (a, b))
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
        extra = {"limb_ops": len(a.limbs) * len(b.limbs)}
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
