"""Quadratic and cubic residue machinery.

Square roots of -1, exhaustive cube tables, the Fermat cube-root formula
for q = 2 mod 3, non-cube search, and the root-powered recovery matrix
that turns per-root evaluations back into components.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .errors import NoncubeImpossible, UsageError
from .modcore import (
    PrimeModulus,
    Residue,
    invert_matrix,
    pow_mod,
)


@dataclass(frozen=True)
class RootSet:
    """The value x together with every root found for it (cube or sqrt(-1))."""

    x: Residue
    roots: Tuple[Residue, ...]  # ascending order


def sqrt_minus_one(q: PrimeModulus) -> RootSet:
    """The square roots of -1 mod q: 1 when q = 2, two when q = 1 mod 4, else none.

    For q = 1 mod 4 the roots are g**((q-1)/4) and its negation for a
    quadratic non-residue g.
    """
    minus_one = q.residue(-1)
    if q.q % 4 != 1:  # mod 2, -1 = 1 is its own square root
        return RootSet(minus_one, (minus_one,) if q.q == 2 else ())
    g = 2
    while pow(g, (q.q - 1) // 2, q.q) != q.q - 1:  # find a non-residue
        g += 1
    r = pow(g, (q.q - 1) // 4, q.q)
    assert r * r % q.q == q.q - 1
    return RootSet(
        minus_one,
        tuple(sorted((q.residue(r), q.residue(-r)), key=lambda e: e.value)),
    )


def cube_table(q: PrimeModulus) -> Dict[Residue, RootSet]:
    """Complete cube-root sets for every x mod q, by cubing 0..q-1.

    Exactly two multiplications per value.
    """
    buckets: Dict[int, List[int]] = {}
    for v in range(q.q):
        cube = v * v % q.q * v % q.q
        buckets.setdefault(cube, []).append(v)
    table = {}
    for x in range(q.q):
        roots = tuple(q.residue(r) for r in sorted(buckets.get(x, [])))
        table[q.residue(x)] = RootSet(q.residue(x), roots)
    return table


def cube_root_fermat(x: Residue, q: PrimeModulus) -> Residue:
    """The unique cube root mod q = 2 mod 3, as x**((2q-1)/3).

    The exponent comes from combining Fermat's little theorem with itself:
    x**(2q-1) = x, and (2q-1)/3 is an integer exactly when q = 2 mod 3.
    """
    if q.q % 3 != 2:
        raise UsageError(f"q = {q.q} is not 2 mod 3; cube root not unique")
    if x.modulus != q:
        raise UsageError("residue modulus does not match q")
    root = pow_mod(x, (2 * q.q - 1) // 3)
    assert pow_mod(root, 3) == x
    return root


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


@dataclass(frozen=True)
class RecoveryMatrix:
    """Root-powered matrix (rows 1, r, r^2, ...) and its precomputed inverse."""

    roots: Tuple[Residue, ...]
    matrix: Tuple[Tuple[Residue, ...], ...]
    inverse: Tuple[Tuple[Residue, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.roots)


def build_recovery(roots: Sequence[Residue]) -> RecoveryMatrix:
    """Build the recovery matrix for an ordered set of distinct nonzero roots.

    The inverse comes from the general Gauss-Jordan kernel, so this is the
    oracle for the pipeline's closed-form inverse at the cube roots of y.
    """
    roots = tuple(roots)
    if len(set(r.value for r in roots)) != len(roots):
        raise UsageError("roots must be distinct")
    if any(r.value == 0 for r in roots):
        raise UsageError("roots must be nonzero")
    mod = roots[0].modulus
    if any(r.modulus != mod for r in roots):
        raise UsageError("roots must share one modulus")
    k = len(roots)
    matrix = tuple(
        tuple(pow_mod(r, t) for t in range(k)) for r in roots
    )
    inverse = invert_matrix([list(row) for row in matrix])
    return RecoveryMatrix(
        roots, matrix, tuple(tuple(row) for row in inverse)
    )


def evaluate_components(
    components: Sequence[Residue], roots: Sequence[Residue]
) -> List[Residue]:
    """Evaluate sum_t c_t * r^t at each root r (the forward direction)."""
    out = []
    for r in roots:
        acc = r.modulus.residue(0)
        for t, c in enumerate(components):
            acc = acc + c * pow_mod(r, t)
        out.append(acc)
    return out


def recover_components(
    evals: Sequence[Residue], rm: RecoveryMatrix
) -> List[Residue]:
    """Invert evaluation at the roots: the unique c with M*c = evals."""
    if len(evals) != rm.dimension:
        raise UsageError("evaluation count does not match matrix dimension")
    mod = rm.roots[0].modulus
    out = []
    for row in rm.inverse:
        acc = mod.residue(0)
        for entry, e in zip(row, evals):
            acc = acc + entry * e
        out.append(acc)
    return out
