"""The field F_p[t]/(t^3 - y) that a plan is built over.

Its elements are a0 + a1*c + a2*c^2 with c^3 = y.  When y has no cube
root mod p the quotient ring is a field with p^3 elements; that is the
setting plan construction relies on.  The module holds:

- the cube test and the non-cube search that pick y;
- the field's arithmetic.  The element type stores raw integer
  coefficients for speed and carries its (p, y) context for mismatch
  checks; `ext_mul_array` and `ext_powers` do the same arithmetic on
  (..., 3) int64 coefficient arrays;
- element orders, in F_p or in the field, and the search for the field's
  root of full order p^3 - 1, the omega of a plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .errors import UsageError
from .modcore import PrimeModulus, Residue, _as_array, _as_int


def is_cube(x: Residue) -> bool:
    """Cubic-residue test: exponent criterion for q = 1 mod 3, else always."""
    q = x.q
    if q % 3 != 1:
        return True
    if x.value == 0:
        return True
    return pow(x.value, (q - 1) // 3, q) == 1


def find_noncube(p: PrimeModulus, rng_seed: int = None) -> Residue:
    """A y with no cube root mod p (requires p = 1 mod 3).

    Deterministic scan from 2 by default; a seed (a nonzero `plan --seed`,
    which preprocess passes on) switches to a seeded random scan.  Non-cubes
    have density 2/3, so either way a handful of attempts suffices.
    """
    if p.q % 3 != 1:
        raise UsageError(f"p = {p.q} is 2 mod 3 (or 3); cubing is a bijection")
    if rng_seed is None:
        candidates = range(2, p.q)
    else:
        rng = random.Random(rng_seed)
        candidates = iter(lambda: rng.randrange(2, p.q), None)
    for y in candidates:
        r = p.residue(y)
        if not is_cube(r):
            return r
    raise AssertionError("unreachable: non-cubes exist for p = 1 mod 3")


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
        return ExtensionElement(tuple(_as_int(a, "a coefficient") % q for a in (a0, a1, a2)), self)

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
    """ext_mul elementwise on (3,), (k, 3) or (j, k, 3) int64 coefficient
    arrays (broadcasting), each checked by _as_array."""
    p = ctx.p.q
    y = ctx.y.value
    if 3 * (p - 1) ** 2 >= 2**63:
        raise UsageError(f"p = {p} is too large for int64 extension products")
    shapes = [(3,), (None, 3), (None, None, 3)]
    a = _as_array(a, shapes, name="extension coefficients") % p
    b = _as_array(b, shapes, name="extension coefficients") % p
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    out[..., 0] = (a0 * b0 + y * ((a1 * b2 + a2 * b1) % p)) % p
    out[..., 1] = (a0 * b1 + a1 * b0 + y * (a2 * b2 % p)) % p
    out[..., 2] = (a0 * b2 + a1 * b1 + a2 * b0) % p
    return out


def ext_powers(u: ExtensionElement, count: int) -> np.ndarray:
    """u^k for k < count as a (count, 3) int64 array, by doubling."""
    table = np.zeros((_as_int(count, "a power count", 0), 3), dtype=np.int64)
    table[:1, 0] = 1
    m = 1
    while m < count:
        step = ext_mul_array(table[m - 1], u.coeffs, u.context)  # u^m
        table[m : 2 * m] = ext_mul_array(table[: min(m, count - m)], step, u.context)
        m *= 2
    return table


def ext_pow(u: ExtensionElement, e: int) -> ExtensionElement:
    """u**e by square-and-multiply."""
    if _as_int(e, "an exponent") < 0:
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
        raise UsageError("zero has no inverse")
    inv = ext_pow(u, u.context.group_order - 1)
    if ext_mul(inv, u) != u.context.one:
        raise UsageError(f"{u.coeffs} not invertible; is y a non-cube mod p?")
    return inv


FieldElement = Union[Residue, ExtensionElement]


def multiplicative_order(omega: FieldElement, group_order: int) -> int:
    """Exact order of omega, given the order of the ambient group."""
    one = omega**0
    if omega**group_order != one:
        raise UsageError("element order does not divide the group order")
    order = group_order
    for r in _prime_factors(group_order):
        while order % r == 0 and omega ** (order // r) == one:
            order //= r
    return order


def _prime_factors(n: int) -> List[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def find_extension_root_of_order(
    n: int, ctx: ExtensionContext
) -> ExtensionElement:
    """Element of exact order n in the cubic extension (n | p^3 - 1).

    Scans for the lexicographically-smallest generator of the full
    multiplicative group outside F_p, whose orders divide p - 1, then powers
    it down to order n.  Validation is by order factor-checks; the O(n^2)
    certificate is left to callers at scales where it is affordable.
    """
    group = ctx.group_order
    if group % _as_int(n, "an order", 1) != 0:
        raise UsageError(f"{n} does not divide p^3 - 1 = {group}")
    factors = _prime_factors(group)
    one = ctx.one
    p = ctx.p.q
    for a2 in range(p):
        for a1 in range(a2 == 0, p):  # a1 = a2 = 0 is F_p
            for a0 in range(p):
                g = ctx.element(a0, a1, a2)
                if all(ext_pow(g, group // r) != one for r in factors):
                    return ext_pow(g, group // n)
    raise UsageError("no generator found; is the extension a field?")
