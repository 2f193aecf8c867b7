"""Roots of unity and the circulant singularity experiment.

Element orders in a prime field or the cubic extension, the search for
the extension's root of full order that a plan is built on, and the
measured rate at which random 3x3 circulants are singular.
"""

from __future__ import annotations

from typing import Dict, List, Union

import numpy as np

from .errors import NoSuchRoot, UsageError
from .extension import ExtensionContext, ExtensionElement, ext_pow
from .modcore import PrimeModulus, Residue

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
    if group % n != 0:
        raise NoSuchRoot(f"{n} does not divide p^3 - 1 = {group}")
    factors = _prime_factors(group)
    one = ctx.one
    p = ctx.p.q
    for a2 in range(p):
        for a1 in range(a2 == 0, p):  # a1 = a2 = 0 is F_p
            for a0 in range(p):
                g = ctx.element(a0, a1, a2)
                if all(ext_pow(g, group // r) != one for r in factors):
                    return ext_pow(g, group // n)
    raise NoSuchRoot("no generator found; is the extension a field?")


def singularity_experiment(
    q: PrimeModulus, trials: int, seed: int
) -> Dict[str, float]:
    """Fraction of random 3x3 circulants mod q that are singular.

    Trials are partitioned into fixed-size chunks with per-chunk seeds,
    counted in chunk order.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if q.q % 3 != 1:
        raise UsageError("3x3 singularity experiment needs q = 1 mod 3")
    chunk = 100_000
    singular = 0
    for offset in range(0, trials, chunk):
        rng = np.random.default_rng((seed, offset))
        c = rng.integers(0, q.q, size=(min(chunk, trials - offset), 3), dtype=np.int64)
        # det of circulant(c0, c1, c2) = c0^3 + c1^3 + c2^3 - 3*c0*c1*c2
        det = (
            np.sum(c * c % q.q * c % q.q, axis=1)
            - 3 * c[:, 0] % q.q * c[:, 1] % q.q * c[:, 2]
        ) % q.q
        singular += int(np.count_nonzero(det == 0))
    return {
        "q": q.q,
        "trials": trials,
        "singular": singular,
        "fraction": singular / trials,
        "reference": 1.0 / q.q,
    }

