"""Cubic residues: the cube test and the non-cube search that picks y."""

from __future__ import annotations

import random

from .errors import NoncubeImpossible
from .modcore import PrimeModulus, Residue


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

    Deterministic scan from 2 by default; a seed switches to a randomized
    scan for density experiments.  Non-cubes have density 2/3, so either
    way a handful of attempts suffices.
    """
    if p.q % 3 != 1:
        raise NoncubeImpossible(
            f"p = {p.q} is 2 mod 3 (or 3); cubing is a bijection"
        )
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
