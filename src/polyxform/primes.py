"""Prime generation and selection, plus prime-sum cost quantities.

The sieve of Atkin is the production path; `trial_division_primes` is the
independent oracle it is checked against.  The doubling estimate and the
next prime at or above it pick a plan's base prime p; the helper-prime
scan lives with the plan builder in `ptransform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .modcore import PrimeModulus, is_prime


@dataclass(frozen=True)
class PrimeTable:
    limit: int
    primes: Tuple[int, ...]


@dataclass(frozen=True)
class CostEstimate:
    """Prime-sum quantities below `bound`: sum q*ln(q) and sum q^2."""

    sum_q_log_q: float
    sum_q_squared: int
    bound: int


def sieve_atkin(limit: int) -> PrimeTable:
    """All primes <= limit via the Atkin quadratic-form sieve.

    Three forms toggle candidacy by residue class mod 12, then multiples
    of squares of primes are struck out.  Vectorized over y per x.
    """
    if limit < 2:
        return PrimeTable(limit, ())
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
    if limit >= 2:
        flags[2] = True
    if limit >= 3:
        flags[3] = True
    return PrimeTable(limit, tuple(int(p) for p in np.nonzero(flags)[0]))


def trial_division_primes(limit: int) -> PrimeTable:
    """Oracle sieve: n is composite iff some prime p <= sqrt(n) divides it.

    Implemented as vectorized trial division of every candidate by every
    prime up to sqrt(limit).
    """
    if limit < 2:
        return PrimeTable(limit, ())
    n = np.arange(0, limit + 1, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    small = [p for p in range(2, math.isqrt(limit) + 1) if _trial_is_prime(p)]
    for p in small:
        composite |= (n % p == 0) & (n != p)
    return PrimeTable(limit, tuple(int(p) for p in np.nonzero(~composite)[0]))


def _trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def doubling_estimate(n: int) -> int:
    """Smallest power-of-two p0 (from 1, doubling) with p0**3 >= n.

    The companion cube estimate is multiplied by 8 each step, so both
    updates are bit shifts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p0 = 1
    n0 = 1  # p0 ** 3, maintained by shifts
    while n0 < n:
        p0 <<= 1
        n0 <<= 3
    return p0


def next_prime_at_or_above(x: int) -> PrimeModulus:
    """Smallest prime >= x."""
    if x < 2:
        x = 2
    while not is_prime(x):
        x += 1
    return PrimeModulus(x)


def cost_model(bound: int) -> CostEstimate:
    """Exact sums over primes q < bound: sum q*ln(q) (float) and sum q^2 (int)."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    primes = [p for p in sieve_atkin(bound).primes if p < bound]
    return CostEstimate(
        sum_q_log_q=float(sum(q * math.log(q) for q in primes)),
        sum_q_squared=sum(q * q for q in primes),
        bound=bound,
    )
