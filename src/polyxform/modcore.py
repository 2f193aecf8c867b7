"""Exact modular arithmetic and the primes it stands on.

Prime moduli and their boxed residues are pure functions over immutable
values.  Machine-word moduli are assumed small enough that Python's
arbitrary-precision integers make double-width intermediates a non-issue.
The sieve of Atkin is the production path to the primes below a limit;
`trial_division_primes` is the independent oracle it is checked against.
The doubling estimate and the next prime at or above it pick a plan's base
prime p; the helper-prime scan lives with the plan builder in `ptransform`.
`_as_int` is the library's one check of a scalar integer argument: a
Python int in range, or UsageError for anything else (a bool, a float, a
numpy integer, a value out of range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import UsageError

# Deterministic Miller-Rabin witnesses: the first 13 primes decide every
# n below psi_13, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
# The first 12 alone are fooled by psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13


def _as_int(value, what: str, low: int = None, high: int = None) -> int:
    """value itself if it is a Python int (not a bool, a float or a numpy
    integer) in [low, high), where a bound left as None is open."""
    if type(value) is not int:
        raise UsageError(f"{what} is a Python int, not {type(value).__name__}")
    if (low is not None and value < low) or (high is not None and value >= high):
        bounds = (f">= {low}" if high is None else f"< {high}" if low is None
                  else f"in [{low}, {high})")
        raise UsageError(f"{what} must be {bounds}, not {value}")
    return value


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below psi_13 (about 3.3e24)."""
    if _as_int(n, "a primality candidate") < 2:
        return False
    if n >= _MR_BOUND:
        raise UsageError(f"{n} is not below the deterministic Miller-Rabin bound "
                         f"psi_13 = {_MR_BOUND}")
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
        if not is_prime(_as_int(self.q, "a prime modulus")):
            raise UsageError(f"{self.q} is not prime")

    def residue(self, value: int) -> "Residue":
        return Residue(_as_int(value, "a residue") % self.q, self)

    def __repr__(self):
        return f"PrimeModulus({self.q})"


@dataclass(frozen=True)
class Residue:
    """Canonical representative in [0, q) of an integer mod q."""

    value: int
    modulus: PrimeModulus

    def __post_init__(self):
        _as_int(self.value, "a residue", 0, self.modulus.q)

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
        return pow_mod(self, e) if _as_int(e, "an exponent") >= 0 else pow_mod(inv_mod(self), -e)

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
    return Residue(pow(a.value, _as_int(e, "an exponent", 0), a.q), a.modulus)


def inv_mod(a: Residue) -> Residue:
    """Multiplicative inverse, by Python's pow(a, -1, q)."""
    if a.value == 0:
        raise UsageError(f"0 mod {a.q} has no inverse")
    return Residue(pow(a.value, -1, a.q), a.modulus)


@dataclass(frozen=True)
class CostEstimate:
    """Prime-sum quantities below `bound`: sum q*ln(q) and sum q^2."""

    sum_q_log_q: float
    sum_q_squared: int


def sieve_atkin(limit: int) -> Tuple[int, ...]:
    """All primes <= limit via the Atkin quadratic-form sieve.

    Three forms toggle candidacy by residue class mod 12, then multiples
    of squares of primes are struck out.  Vectorized over y per x.
    """
    if _as_int(limit, "a sieve limit") < 2:
        return ()
    flags = np.zeros(limit + 1, dtype=bool)
    root = math.isqrt(limit)
    ylim = math.isqrt(limit) + 1
    y = np.arange(1, ylim + 1, dtype=np.int64)
    y2 = y * y
    for x in range(1, root + 1):
        x2 = x * x
        # 4x^2 + y^2 = n, n % 12 in {1, 5}
        n = 4 * x2 + y2
        sel = n[(n <= limit) & ((n % 12 == 1) | (n % 12 == 5))]
        np.logical_xor.at(flags, sel, True)
        # 3x^2 + y^2 = n, n % 12 == 7
        n = 3 * x2 + y2
        sel = n[(n <= limit) & (n % 12 == 7)]
        np.logical_xor.at(flags, sel, True)
        # 3x^2 - y^2 = n with x > y, n % 12 == 11
        n = 3 * x2 - y2[: x - 1]
        sel = n[(n <= limit) & (n % 12 == 11)]
        np.logical_xor.at(flags, sel, True)
    # squarefree filter: strike multiples of p^2 for every flagged p >= 5
    for p in range(5, root + 1):
        if flags[p]:
            flags[p * p :: p * p] = False
    flags[2] = True
    if limit >= 3:
        flags[3] = True
    return tuple(int(p) for p in np.nonzero(flags)[0])


def trial_division_primes(limit: int) -> Tuple[int, ...]:
    """Oracle sieve: n is composite iff some prime p <= sqrt(n) divides it.

    Implemented as vectorized trial division of every candidate by every
    prime up to sqrt(limit), which this function finds the same way.
    """
    if _as_int(limit, "a sieve limit") < 2:
        return ()
    n = np.arange(0, limit + 1, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in trial_division_primes(math.isqrt(limit)):
        composite |= (n % p == 0) & (n != p)
    return tuple(int(p) for p in np.nonzero(~composite)[0])


def doubling_estimate(n: int) -> int:
    """Smallest power-of-two p0 (from 1, doubling) with p0**3 >= n.

    The companion cube estimate is multiplied by 8 each step, so both
    updates are bit shifts.
    """
    _as_int(n, "a transform size", 1)
    p0 = 1
    n0 = 1  # p0 ** 3, maintained by shifts
    while n0 < n:
        p0 <<= 1
        n0 <<= 3
    return p0


def next_prime_at_or_above(x: int) -> PrimeModulus:
    """Smallest prime >= x."""
    if _as_int(x, "a prime scan's start") < 2:
        x = 2
    while not is_prime(x):
        x += 1
    return PrimeModulus(x)


def cost_model(bound: int) -> CostEstimate:
    """Exact sums over primes q < bound: sum q*ln(q) (float) and sum q^2 (int)."""
    _as_int(bound, "a cost-model bound", 2)
    primes = [p for p in sieve_atkin(bound) if p < bound]
    return CostEstimate(
        sum_q_log_q=float(sum(q * math.log(q) for q in primes)),
        sum_q_squared=sum(q * q for q in primes),
    )
