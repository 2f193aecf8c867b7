"""Cubic extension arithmetic: elements a0 + a1*c + a2*c^2 with c^3 = y.

When y has no cube root mod p the quotient ring is a field with p^3
elements; that is the setting plan construction relies on.  The element
type stores raw integer coefficients for speed and carries its (p, y)
context for mismatch checks; `ext_mul_array` and `ext_powers` do the same
arithmetic on (..., 3) int64 coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NotInvertible, UsageError
from .modcore import PrimeModulus, Residue


@dataclass(frozen=True)
class ExtensionContext:
    """The pair (p, y) defining the quotient ring F_p[t]/(t^3 - y)."""

    p: PrimeModulus
    y: Residue

    def __post_init__(self):
        if self.y.modulus != self.p:
            raise UsageError("y must be a residue mod p")

    def element(self, a0: int, a1: int = 0, a2: int = 0) -> "ExtensionElement":
        q = self.p.q
        return ExtensionElement((a0 % q, a1 % q, a2 % q), self)

    @property
    def one(self) -> "ExtensionElement":
        return self.element(1)

    @property
    def zero(self) -> "ExtensionElement":
        return self.element(0)

    @property
    def group_order(self) -> int:
        return self.p.q ** 3 - 1


@dataclass(frozen=True)
class ExtensionElement:
    coeffs: Tuple[int, int, int]
    context: ExtensionContext

    def reduce_at(self, root: Residue) -> Residue:
        """Evaluate at a concrete cube root of y in another prime field."""
        a0, a1, a2 = self.coeffs
        q = root.q
        r = root.value
        return root.modulus.residue((a0 + a1 * r + a2 * r * r) % q)

    def __add__(self, other: "ExtensionElement") -> "ExtensionElement":
        _same_context(self, other)
        p = self.context.p.q
        return ExtensionElement(
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
            self.context,
        )

    def __sub__(self, other: "ExtensionElement") -> "ExtensionElement":
        _same_context(self, other)
        p = self.context.p.q
        return ExtensionElement(
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
            self.context,
        )

    def __mul__(self, other: "ExtensionElement") -> "ExtensionElement":
        return ext_mul(self, other)

    def __pow__(self, e: int) -> "ExtensionElement":
        return ext_pow(self, e)

    def __repr__(self):
        return f"Ext{self.coeffs} mod {self.context.p.q} (c^3={self.context.y.value})"


def _same_context(u: ExtensionElement, v: ExtensionElement) -> None:
    if u.context != v.context:
        raise UsageError("extension elements from different (p, y) contexts")


def ext_mul(u: ExtensionElement, v: ExtensionElement) -> ExtensionElement:
    """Product with the c^3 -> y reduction; 9 base multiplications."""
    _same_context(u, v)
    p = u.context.p.q
    y = u.context.y.value
    a0, a1, a2 = u.coeffs
    b0, b1, b2 = v.coeffs
    c0 = a0 * b0 + y * (a1 * b2 + a2 * b1)
    c1 = a0 * b1 + a1 * b0 + y * a2 * b2
    c2 = a0 * b2 + a1 * b1 + a2 * b0
    return ExtensionElement((c0 % p, c1 % p, c2 % p), u.context)


def ext_mul_array(a, b, ctx: ExtensionContext) -> np.ndarray:
    """ext_mul elementwise on (..., 3) int64 coefficient arrays (broadcasting)."""
    p = ctx.p.q
    y = ctx.y.value
    if 3 * (p - 1) ** 2 >= 2**63:
        raise UsageError(f"p = {p} is too large for int64 extension products")
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    out[..., 0] = (a0 * b0 + y * ((a1 * b2 + a2 * b1) % p)) % p
    out[..., 1] = (a0 * b1 + a1 * b0 + y * (a2 * b2 % p)) % p
    out[..., 2] = (a0 * b2 + a1 * b1 + a2 * b0) % p
    return out


def ext_powers(u: ExtensionElement, count: int) -> np.ndarray:
    """u^k for k < count as a (count, 3) int64 array, by doubling."""
    table = np.zeros((count, 3), dtype=np.int64)
    table[0, 0] = 1
    m = 1
    while m < count:
        step = ext_mul_array(table[m - 1], u.coeffs, u.context)  # u^m
        table[m : 2 * m] = ext_mul_array(table[: min(m, count - m)], step, u.context)
        m *= 2
    return table


def ext_pow(u: ExtensionElement, e: int) -> ExtensionElement:
    """u**e by square-and-multiply."""
    if e < 0:
        return ext_pow(ext_inv(u), -e)
    result = u.context.one
    base = u
    while e:
        if e & 1:
            result = ext_mul(result, base)
        base = ext_mul(base, base)
        e >>= 1
    return result


def ext_inv(u: ExtensionElement) -> ExtensionElement:
    """Inverse via the group order p^3 - 2 exponent (field case only)."""
    if u.coeffs == (0, 0, 0):
        raise NotInvertible("zero has no inverse")
    inv = ext_pow(u, u.context.group_order - 1)
    if ext_mul(inv, u) != u.context.one:
        raise NotInvertible(
            f"{u.coeffs} not invertible; is y a non-cube mod p?"
        )
    return inv
