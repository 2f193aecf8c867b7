"""Exact modular arithmetic, prime-field linear algebra, and CRT reconstruction.

Everything here is a pure function over immutable values.  Machine-word
moduli are assumed small enough that Python's arbitrary-precision integers
make double-width intermediates a non-issue; CRT reconstruction is exact
big-integer arithmetic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import NotInvertible, Singular, UsageError

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
    """An odd (or 2) prime modulus, primality-checked at construction."""

    q: int

    def __post_init__(self):
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

    def __neg__(self) -> "Residue":
        return Residue(-self.value % self.q, self.modulus)

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
    """Multiplicative inverse by the extended Euclidean algorithm."""
    if a.value == 0:
        raise NotInvertible(f"0 mod {a.q} has no inverse")
    # Extended Euclid, kept explicit rather than pow(a, -1, q) so the
    # computation is its own check against the Fermat route used in tests.
    old_r, r = a.value, a.q
    old_s, s = 1, 0
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
    assert old_r == 1  # gcd with a prime is 1 for nonzero a
    return Residue(old_s % a.q, a.modulus)


@dataclass(frozen=True)
class CrtBasis:
    """Ordered pairwise-coprime moduli with their exact product."""

    moduli: tuple
    Q: int

    @classmethod
    def of(cls, moduli: Sequence[int]) -> "CrtBasis":
        mods = tuple(int(m) for m in moduli)
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                if math.gcd(mods[i], mods[j]) != 1:
                    raise UsageError(
                        f"moduli {mods[i]} and {mods[j]} are not coprime"
                    )
        return cls(mods, math.prod(mods))


def crt_reconstruct(residues: Sequence[int], basis: CrtBasis) -> int:
    """Unique x in [0, Q) with x = residues[k] mod moduli[k], exact.

    Uses the idempotent combination: for each modulus, the integer that is
    1 mod that modulus and 0 mod every other one.
    """
    if len(residues) != len(basis.moduli):
        raise UsageError("residue count does not match basis size")
    x = 0
    for r, m in zip(residues, basis.moduli):
        if not 0 <= r < m:
            raise UsageError(f"residue {r} out of range for modulus {m}")
        others = basis.Q // m
        x += r * others * pow(others, -1, m)
    return x % basis.Q


def _eliminate(
    A: Sequence[Sequence[Residue]], extra: Sequence[Sequence[int]]
) -> Tuple[Residue, Optional[list]]:
    """Gauss-Jordan elimination of [A | extra] over the prime field.

    Returns det(A) mod q and the extra columns of the reduced matrix, which
    are A^-1 * extra; the columns are None when A is singular.
    """
    n = len(A)
    if n == 0 or any(len(row) != n for row in A) or len(extra) != n:
        raise UsageError("A must be square and match the extra columns")
    mod = A[0][0].modulus
    if any(e.modulus != mod for row in A for e in row):
        raise UsageError("matrix entries must share one modulus")
    q = mod.q
    m = [[e.value for e in row] + list(x) for row, x in zip(A, extra)]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Residue(0, mod), None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % q
        inv = pow(m[col][col], -1, q)
        m[col] = [v * inv % q for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [(a - factor * c) % q for a, c in zip(m[r], m[col])]
    return Residue(det % q, mod), [[Residue(v, mod) for v in row[n:]] for row in m]


def determinant(A: Sequence[Sequence[Residue]]) -> Residue:
    """Determinant over the prime field by elimination mod q."""
    return _eliminate(A, [[] for _ in A])[0]


def solve_linear_mod(
    A: Sequence[Sequence[Residue]], b: Sequence[Residue]
) -> list:
    """Solve A*x = b over the prime field by Gaussian elimination.

    Raises Singular (carrying determinant 0) when A is not invertible.
    """
    _, x = _eliminate(A, [[v.value] for v in b])
    if x is None:
        raise Singular("singular system", determinant=0)
    return [row[0] for row in x]


def invert_matrix(A: Sequence[Sequence[Residue]]) -> list:
    """Matrix inverse over the prime field; raises Singular when det = 0."""
    n = len(A)
    _, inverse = _eliminate(A, [[int(c == r) for c in range(n)] for r in range(n)])
    if inverse is None:
        raise Singular("matrix not invertible", determinant=0)
    return inverse
