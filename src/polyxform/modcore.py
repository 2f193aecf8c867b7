"""Exact modular arithmetic: prime moduli and their boxed residues.

Everything here is a pure function over immutable values.  Machine-word
moduli are assumed small enough that Python's arbitrary-precision integers
make double-width intermediates a non-issue.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInvertible, UsageError

# Deterministic Miller-Rabin witnesses, sufficient for all n < 3.3e24
# (covers 64-bit inputs with a wide margin).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit-scale inputs."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, order=True)
class PrimeModulus:
    """An odd (or 2) prime modulus: a Python int, primality-checked at construction."""

    q: int

    def __post_init__(self):
        if type(self.q) is not int:
            raise UsageError(f"a prime modulus is a Python int, not {type(self.q).__name__}")
        if self.q < 2 or not is_prime(self.q):
            raise UsageError(f"{self.q} is not prime")

    def residue(self, value: int) -> "Residue":
        return Residue(value % self.q, self)

    def __repr__(self):
        return f"PrimeModulus({self.q})"


@dataclass(frozen=True)
class Residue:
    """Canonical representative in [0, q) of an integer mod q."""

    value: int
    modulus: PrimeModulus

    def __post_init__(self):
        if not 0 <= self.value < self.modulus.q:
            raise UsageError(f"{self.value} not canonical mod {self.modulus.q}")

    @property
    def q(self) -> int:
        return self.modulus.q

    def __add__(self, other: "Residue") -> "Residue":
        _same_modulus(self, other)
        return Residue((self.value + other.value) % self.q, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        _same_modulus(self, other)
        return Residue((self.value - other.value) % self.q, self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        return mul_mod(self, other)

    def __pow__(self, e: int) -> "Residue":
        return pow_mod(self, e) if e >= 0 else pow_mod(inv_mod(self), -e)

    def __repr__(self):
        return f"{self.value} mod {self.q}"


def _same_modulus(a: Residue, b: Residue) -> None:
    if a.modulus != b.modulus:
        raise UsageError(f"modulus mismatch: {a.q} vs {b.q}")


def mul_mod(a: Residue, b: Residue) -> Residue:
    """Product a*b mod q, canonical."""
    _same_modulus(a, b)
    return Residue(a.value * b.value % a.q, a.modulus)


def pow_mod(a: Residue, e: int) -> Residue:
    """a**e mod q by square-and-multiply (O(log e) multiplications)."""
    if e < 0:
        raise UsageError("negative exponent; use inv_mod first")
    return Residue(pow(a.value, e, a.q), a.modulus)


def inv_mod(a: Residue) -> Residue:
    """Multiplicative inverse, by Python's pow(a, -1, q)."""
    if a.value == 0:
        raise NotInvertible(f"0 mod {a.q} has no inverse")
    return Residue(pow(a.value, -1, a.q), a.modulus)
