"""The CRT/root-adjunction transform pipeline, end to end.

Preprocessing selects the base prime p, a non-cube y, a full-order root
of unity in the cubic extension, and helper primes q where y has three
cube roots and omega and 1/omega are nonzero at each, for both
directions.  The transform folds the input rows per prime to the prime's
index period (in one pass where int64 sums the rows exactly), reduces
the folded rows at all three roots in one product and folds each on to
its root's period, runs small DFTs as products with the root's DFT
matrix, recovers components by the closed-form Vandermonde inverse into
one table per prime over its index classes, merges the primes' tables by
CRT at their shared periods, and combines the merged groups mod p.  The
CRT is Garner's in carry form: its terms are solved on int64 tables, and
each output row forms only the carries (none in a merge step), in unsigned
rows as narrow as each level's bound allows, and one last sum.
`transform_elements` is the one way into it: `transform`, `spot_check`
and both directions of the polynomial-transform multiply call it.
Sampled output rows take the same path: each prime's class table is read
at the sampled rows before the merge.  The boxed
references each stage is tested against (`naive_dft`, the Gauss-Jordan
`recover_components`, `crt_reconstruct`) live in `oracles`, which no
program module imports.

Everything that does not depend on the input is built on first use and
kept with the plan: each slot's Vandermonde pair and its roots' DFT
matrices; the CRT schedule, one Garner join (or none) per slot and the
final Garner mod p; the direct oracle's baby and giant tables of omega's
powers; and the plan that inverse_plan returns.  None of it is a field, so plan
equality and the plan file see only the plan's inputs and slots.

Whether the end result agrees with the honest extension-field DFT is
deliberately NOT assumed anywhere: `spot_check` runs the comparison and
reports a verdict.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import PrimeSupplyExhausted, UsageError
from .extension import (ExtensionContext, ExtensionElement, ext_mul_array, ext_powers,
                        find_extension_root_of_order, find_noncube, is_cube, multiplicative_order)
from .modcore import (PrimeModulus, Residue, _as_array, _as_int, doubling_estimate, is_prime,
                      next_prime_at_or_above)

PLAN_FORMAT_VERSION = 3
PLAN_FIELDS = frozenset({"format_version", "p", "y", "omega", "coeff_bound", "primes"})

# The values preprocess still takes for its bound_mode keyword; both size
# the helper primes against 9 p^6.
STRICT = "strict-9p6"
INPUT_AWARE = "input-aware"

# preprocess scans helper primes up to this multiple of p
MAX_SCAN_FACTOR = 64


def _held(array: np.ndarray) -> np.ndarray:
    """array made read-only: a table kept for a plan's life is shared by every call."""
    array.setflags(write=False)
    return array


def _dft_matrix(w: int, d: int, q: int) -> np.ndarray:
    """The d x d matrix w^((j*k) mod d) mod q, for the period d of w mod q.

    A product with d values in [0, q) is exact in int64 while
    d * (q-1)^2 < 2^63, and the matrix is refused otherwise.
    """
    if d * (q - 1) ** 2 >= 2**63:
        raise UsageError(f"a DFT of length {d} mod {q} overflows int64")
    powers = np.array([pow(w, t, q) for t in range(d)], dtype=np.int64)
    k = np.arange(d)
    return _held(powers[np.multiply.outer(k, k) % d])


@dataclass(frozen=True)
class PTPrimeSlot:
    """One helper prime's slot; its tables are built on first use and kept."""

    q: PrimeModulus
    roots: Tuple[int, int, int]  # the cube roots of y mod q, ascending
    omegas: Tuple[int, int, int]  # omega reduced at each root
    periods: Tuple[int, int, int]  # multiplicative order of each omega mod q

    @property
    def index_period(self) -> int:
        """Output indices are equivalent for this slot mod this value."""
        return math.lcm(*self.periods)

    @cached_property
    def vandermonde(self) -> Tuple[np.ndarray, np.ndarray]:
        forward, inverse = _vandermonde(self.roots, self.q.q)
        return _held(forward), _held(inverse)

    @cached_property
    def dfts(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each root's DFT matrix, w^((j*k) mod d) mod q for its omega w and period d."""
        return tuple(_dft_matrix(w, d, self.q.q) for w, d in zip(self.omegas, self.periods))


@dataclass(frozen=True)
class PTPlan:
    """A plan's inputs and slots; n and the bound prod(q) must exceed are
    derived on read."""

    p: PrimeModulus
    y: Residue
    omega: ExtensionElement
    slots: Tuple[PTPrimeSlot, ...]
    coeff_bound: int  # largest input coefficient natural_column accepts, below 2^63

    def __post_init__(self):
        _as_int(self.coeff_bound, "coeff_bound", 1, 2**63)

    @property
    def n(self) -> int:
        """Transform length p^3 - 1."""
        return self.context.group_order

    @property
    def target_bound(self) -> int:
        """What prod(q) must exceed for this plan to be usable: 9 p^6."""
        return 9 * self.p.q**6

    @property
    def context(self) -> ExtensionContext:
        return self.omega.context

    @property
    def prime_product(self) -> int:
        return math.prod(s.q.q for s in self.slots)

    @cached_property
    def _inverse(self) -> "PTPlan":
        """The plan inverse_plan returns, built by _plan on first use and kept."""
        primes = [s.q.q for s in self.slots]
        return _plan(self.p, self.y, self.omega**-1, primes, self.coeff_bound)

    @cached_property
    def _oracle_powers(self) -> Tuple[np.ndarray, np.ndarray]:
        """The direct oracle's tables, built on first use and kept: omega^t for
        t <= B and omega^(s*B) for s < A, with B = ceil(sqrt(n)), A = ceil(n/B)."""
        b = math.isqrt(self.n - 1) + 1
        baby = ext_powers(self.omega, b + 1)
        giant = ext_powers(self.context.element(*baby[b].tolist()), -(-self.n // b))
        return _held(baby), _held(giant)

    @cached_property
    def _crt(self) -> "Tuple[Tuple[Optional[_Garner], ...], _Garner]":
        """(joins, final): one Garner join or None per slot, and the Garner over
        the group moduli mod p (see _crt_schedule); built on first use and kept."""
        return _crt_schedule(self.slots, self.n, self.p.q)


@dataclass(frozen=True)
class IndexCheck:
    index: int
    pipeline: Tuple[int, int, int]
    oracle: Tuple[int, int, int]

    @property
    def match(self) -> bool:
        return self.pipeline == self.oracle


@dataclass(frozen=True)
class TransformReport:
    plan_p: int
    seed: int
    checks: Tuple[IndexCheck, ...]

    @property
    def matches(self) -> int:
        return sum(1 for c in self.checks if c.match)

    @property
    def mismatches(self) -> int:
        return len(self.checks) - self.matches

    @property
    def verdict(self) -> str:
        return "confirmed" if self.mismatches == 0 else "refuted"

    def to_dict(self) -> dict:
        return {
            "plan_p": self.plan_p,
            "seed": self.seed,
            "sampled_indices": [c.index for c in self.checks],
            "checks": [
                {
                    "index": c.index,
                    "pipeline": list(c.pipeline),
                    "oracle": list(c.oracle),
                    "match": c.match,
                }
                for c in self.checks
            ],
            "aggregate": {
                "matches": self.matches,
                "mismatches": self.mismatches,
                "verdict": self.verdict,
            },
        }


def _try_slot(
    q: PrimeModulus, y: Residue, omega: ExtensionElement, omega_inv: ExtensionElement
) -> Optional[PTPrimeSlot]:
    """omega's slot for prime q, or None unless y has three cube roots mod q
    and omega and its inverse omega_inv both reduce to nonzero values at each.
    The rule is symmetric in the two, so every slot prime of a plan is a slot
    prime of its inverse plan."""
    if q.q % 3 != 1 or not is_cube(q.residue(y.value)):
        return None
    roots = tuple(r for r in range(1, q.q) if (r**3 - y.value) % q.q == 0)
    if len(roots) != 3:  # none when y = 0 mod q; ascending otherwise
        return None
    omegas, inverses = (tuple(w.reduce_at(q.residue(r)).value for r in roots)
                        for w in (omega, omega_inv))
    if 0 in omegas + inverses:
        return None
    periods = tuple(multiplicative_order(q.residue(w), q.q - 1) for w in omegas)
    return PTPrimeSlot(q, roots, omegas, periods)


def _plan(p: PrimeModulus, y: Residue, omega: ExtensionElement, primes: Sequence[int],
          coeff_bound: int) -> PTPlan:
    """The plan over the helper primes in slot order, for the loader and inverse_plan.
    UsageError, in this order, for a repeated prime, a prime above MAX_SCAN_FACTOR * p
    (preprocess never scans past it, and _try_slot's cube-root search takes time
    linear in q), a prime _try_slot refuses, and prod(q) <= 9 p^6."""
    if len(set(primes)) != len(primes):
        raise UsageError(f"duplicated helper prime in {list(primes)}")
    cap = MAX_SCAN_FACTOR * p.q
    if max(primes, default=0) > cap:
        raise UsageError(f"helper prime {max(primes)} is above {MAX_SCAN_FACTOR}*p = {cap}")
    omega_inv = omega**-1
    slots = tuple(_try_slot(PrimeModulus(q), y, omega, omega_inv) for q in primes)
    if None in slots:
        raise UsageError(f"helper prime {primes[slots.index(None)]} is unusable for this plan")
    plan = PTPlan(p, y, omega, slots, coeff_bound)
    if plan.prime_product <= plan.target_bound:
        raise UsageError(f"prod(q) = {plan.prime_product} <= required {plan.target_bound}")
    return plan


def preprocess(
    n_target: int = None,
    bound_mode: str = STRICT,
    seed: int = 0,
    p: int = None,
    coeff_bound: int = None,
) -> PTPlan:
    """Build a transform plan whose helper primes have prod(q) > 9 p^6.

    Exactly one of n_target (the requested transform size) and an explicit
    base prime p must be given.  coeff_bound (default p - 1) is the largest
    input coefficient natural_column accepts, in [1, 2^63), so every input
    the plan takes is int64.  bound_mode selects nothing:
    it must be STRICT or INPUT_AWARE, and it goes once perfbench stops
    passing it.

    The prime scan is one lazy pass, down from p and then up to
    MAX_SCAN_FACTOR * p, and the plan is built once the primes _try_slot
    accepts have a product over 9 p^6.  (With primes below p alone the bound is
    unreachable at desk scale; see the plan statistics for what was used.)
    """
    if bound_mode not in (STRICT, INPUT_AWARE):
        raise UsageError(f"unknown bound mode {bound_mode!r}")
    if p is not None and n_target is not None:
        raise UsageError(f"give n_target or p, not both (n_target = {n_target}, p = {p})")
    if p is None:
        if n_target is None:
            raise UsageError("need n_target >= 2 or an explicit p")
        p_mod = next_prime_at_or_above(doubling_estimate(_as_int(n_target, "a transform size", 2)))
        while p_mod.q % 3 != 1:
            p_mod = next_prime_at_or_above(p_mod.q + 1)
    else:
        p_mod = PrimeModulus(p)
        if p_mod.q % 3 != 1:
            raise UsageError(f"p = {p} must be 1 mod 3 for a non-cube to exist")
    y = find_noncube(p_mod, rng_seed=_as_int(seed, "a seed", 0) or None)
    ctx = ExtensionContext(p_mod, y)
    omega = find_extension_root_of_order(ctx.group_order, ctx)
    omega_inv = omega**-1
    target, top = 9 * p_mod.q**6, MAX_SCAN_FACTOR * p_mod.q
    slots, product = [], 1
    scan = itertools.chain(range(p_mod.q - 1, 1, -1), range(p_mod.q + 1, top + 1))
    for q in filter(is_prime, scan):
        slot = _try_slot(PrimeModulus(q), y, omega, omega_inv)
        if slot is not None:
            slots.append(slot)
            product *= q
            if product > target:
                bound = p_mod.q - 1 if coeff_bound is None else coeff_bound
                return PTPlan(p_mod, y, omega, tuple(slots), bound)
    raise PrimeSupplyExhausted(f"prod(q) = {product} <= required {target} scanning "
                               f"up to {MAX_SCAN_FACTOR}*p; try a larger scan")


# Rows per block when the slot stage reduces the input mod q before folding
# it, and when the CRT solves its terms and combines outputs; caps the
# temporaries of both.  A block's int64 triple temporary is 4,096 x 3 x 8 B
# = 96 KiB, below glibc's default 128 KiB mmap threshold, so the heap reuses
# it from call to call: with the CRT's terms in int64, 16,384 rows faulted
# in about 1,450 pages per p = 43 transform_elements call and 4,096 none.
# 2,048 rows ran slower, on loop overhead.
_ROW_BLOCK = 1 << 12


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, as x - (x // q) * q: numpy divides an int64 array by
    a scalar through a multiply by its precomputed reciprocal, and its
    remainder does not, so on long rows this is the faster of the two."""
    quotient = x // q
    quotient *= q
    x -= quotient
    return x


def _fold(values: np.ndarray, period: int, q: int) -> np.ndarray:
    """folded[t] = sum of values[k] over k = t mod period, reduced mod q.

    values is 1-D or (n, 3) int64 and need not be reduced: the sums over the
    full periods and the tail rows are exact while each stays within int64,
    that is while ceil(n / period) * max|values| < 2^63.
    """
    full, tail = divmod(len(values), period)
    acc = values[: full * period].reshape(full, period, *values.shape[1:]).sum(axis=0)
    acc[:tail] += values[full * period :]
    return acc % q


def _vandermonde(roots: Sequence[int], q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows (1, r, r^2) per root, and the inverse [k][i] = 1 / (3 * r_i^k) mod q.

    The roots of t^3 = y are r, zeta*r, zeta^2*r for a cube root of unity
    zeta, so sum_i r_i^(t-k) is 3 when t = k and 0 otherwise.
    """
    forward = np.array([[pow(r, t, q) for t in range(3)] for r in roots])
    inverse = np.array([[pow(3 * r**k, -1, q) for r in roots] for k in range(3)])
    return forward, inverse


def _slot_table(x: np.ndarray, slot: PTPrimeSlot, peak: int) -> np.ndarray:
    """Components mod q of the (n, c) int64 inputs x at each index class j < P
    of the slot's index period P: (P, 3).  Output row j of the slot is row j mod P.

    Folding and reducing at a root are both linear, so they commute: the
    input rows are folded first, to P, and only the folded rows are reduced,
    at all three roots by one product with the first c entries of each
    (1, r, r^2), so a natural-number column (c = 1) is never widened.  Every
    root's period d divides P, so each root's row folds on to d by a
    reshape-sum, its DFT is one product with the root's d x d matrix, and its
    P-row table is those d values repeated.

    The first fold reads the input in blocks that start at multiples of P.
    peak bounds every |x|, so a block sums up to (2^63 - 1) // peak input
    rows into each folded row, all exact, and is folded as it is: the whole
    input is one block when ceil(n / P) * peak < 2^63, as for naturals
    below p.  When that allows fewer than _ROW_BLOCK rows, each block of
    about _ROW_BLOCK rows is reduced mod q before it is folded.  Each
    block's fold is reduced mod q, and the folds are added with one
    reduction per added block, none when there is one block.
    """
    q, period = slot.q.q, slot.index_period
    forward, inverse = slot.vandermonde
    sums = (2**63 - 1) // max(peak, 1)
    if sums >= _ROW_BLOCK:
        block = period * min(sums, -(-len(x) // period))
        blocks = (x[start : start + block] for start in range(0, len(x), block))
    else:
        block = period * max(1, _ROW_BLOCK // period)
        blocks = (x[start : start + block] % q for start in range(0, len(x), block))
    parts = (_fold(values, period, q) for values in blocks)  # each reduced mod q
    folded = reduce(lambda acc, part: (acc + part) % q, parts)
    at_roots = forward[:, : x.shape[1]] @ folded.T % q
    evals = np.empty((3, period), dtype=np.int64)
    for out, at_root, d, dft in zip(evals, at_roots, slot.periods, slot.dfts):
        out.reshape(-1, d)[...] = dft @ (at_root.reshape(-1, d).sum(axis=0) % q) % q
    return evals.T @ inverse.T % q


class _Garner:
    """Garner's constants in carry form, for the x in [0, prod(moduli)) given
    by its residue r_i mod each modulus q_i, taken mod m.

    With P_k = q_0...q_{k-1}, level k < K solves digit k of x = sum P_k v_k,
    and level K gives x mod m.  Level k's sum is S_k = sum_i T_ki + c_{k-1}:
    term T_ki reads residue i alone (T_kk = r_k / P_k mod q_k, and
    T_ki = sum_l W_kl T_li over i <= l < k with W_kl = -P_l / P_k, all mod
    q_k, or W_Kl = P_l, all mod m, at level K), and c_k = S_k // q_k, at
    most k, is its carry.  Digit k, S_k - q_k c_k, is never formed: written
    so in a later level, each earlier carry's weight cancels but c_{k-1}'s,
    which is 1.  So x = sum_i T_Ki + c_{K-1} shift mod m, shift = -prod(moduli)
    mod m.  When m divides prod(moduli), as in a merge step, shift is 0 and
    level K runs alone: no carry is formed.

    The terms are solved in int64 and refused unless K * Q * max(Q, m) < 2^63
    for the largest modulus Q.  Each level runs in the narrowest of uint16,
    uint32 and uint64 that holds the bound derived here; level 1's carry is
    the comparison T_10 >= q_1 - T_11 of two values at most q_1.
    """

    def __init__(self, moduli: Sequence[int], m: int):
        top, count = max(moduli), len(moduli)
        if count * top * max(top, m) >= 2**63:
            raise UsageError(f"Garner's terms over {list(moduli)} mod {m} overflow int64")
        prefix = [math.prod(moduli[:k]) for k in range(count + 1)]
        self.moduli, self.m = tuple(moduli), m
        self.inverses = tuple(pow(c, -1, q) for c, q in zip(prefix, moduli))
        shift, bounds, carry = -prefix[-1] % m, [], 0  # carry: the largest c_{k-1}
        for k, q in enumerate(moduli[1:], 1):
            bounds.append(q if k == 1 else (k + 1) * (q - 1) + carry)
            carry = bounds[-1] // q
        bounds.append(count * (m - 1) + carry * shift)
        widths = [np.promote_types(np.min_scalar_type(b), np.uint16) for b in bounds]
        # per level k = 1 .. K: M_k, the weights W_kl and the level's width
        self.levels = tuple(
            (q, tuple(c % m if k == count else -c * self.inverses[k] % q for c in prefix[:k]),
             width)
            for k, (q, width) in enumerate(zip(self.moduli[1:] + (m,), widths), 1)
        )
        # the first level a row runs, and c_{K-1}'s weight at level K
        self.first, self.shift = 1 if shift else count, widths[-1].type(shift)

    def terms(self, residues: np.ndarray, i: int) -> list:
        """T_ki from rows of residue i's table, in int64, for each level k that
        reads it and runs (k >= max(i, 1, first)), with q_1 - T_11 for T_11."""
        chain = [residues if i == 0 else _reduce(residues * self.inverses[i], self.moduli[i])]
        for modulus, weights, _ in self.levels[i:]:
            acc = chain[0] * weights[i]
            for value, w in zip(chain[1:], weights[i + 1 :]):
                acc += value * w
            chain.append(_reduce(acc, modulus))
        if i == 1:
            chain[0] = self.moduli[1] - chain[0]
        return chain[max(i, 1, self.first) - i :]  # chain[j] is level i + j's


def _crt_schedule(
    slots: Sequence[PTPrimeSlot], n: int, p: int
) -> Tuple[Tuple[Optional[_Garner], ...], _Garner]:
    """The merge schedule for slots: (joins, final).  joins[k] is None when
    slot k starts a group, else the Garner step, exact mod M*q, by which it
    joins the group before it (modulus M) over the lcm of their periods.  A
    slot joins while M*q stays within the int64 limit of final, the Garner
    over the group moduli mod p, and the merged table within n // 4 rows."""
    limit = math.isqrt((2**63 - 1) // len(slots))
    joins, moduli, size = [], [], 0
    for slot in slots:
        q, joined = slot.q.q, math.lcm(size, slot.index_period)
        if moduli and moduli[-1] * q <= limit and joined <= n // 4:
            joins.append(_Garner((moduli[-1], q), moduli[-1] * q))
            moduli[-1], size = moduli[-1] * q, joined
        else:
            joins.append(None)
            moduli.append(q)
            size = slot.index_period
    return tuple(joins), _Garner(moduli, p)


def _crt_mod_p(tables: Sequence[np.ndarray], garner: _Garner, count: int) -> np.ndarray:
    """x mod garner.m at each row j < count, for the x in [0, prod(moduli))
    that is tables[k][j mod len(tables[k])] mod garner.moduli[k] for every k.

    Garner in carry form (see _Garner).  Each term of a level the rows run is
    solved once on its table's own rows, in int64 pieces of _ROW_BLOCK rows
    that stay in cache, and written in its level's width to the whole periods
    that cover one block of _ROW_BLOCK rows past its start, so a block's rows
    of it are one slice.  A block then forms the carries, if any, level 1's
    by one comparison, and the last sum, reduced once mod m into the int64
    output, in scratch rows of each level's width reused from block to block.
    """
    levels, first, shape = garner.levels, garner.first, tables[0].shape[1:]
    out = np.empty((count, *shape), dtype=np.int64)
    if not count:
        return out
    running = levels[first - 1 :]  # levels first .. K
    terms = [[] for _ in running]  # per level: (table index, tiled term) for each table it reads
    for i, table in enumerate(tables):
        period, low = len(table), max(i, 1, first)  # low: the first level tiled for table i
        reps = -(-min(count, period + _ROW_BLOCK - 1) // period)
        tiled = [np.empty((reps, *table.shape), level[2]) for level in levels[low - 1 :]]
        for lo in range(0, period, _ROW_BLOCK):
            for tile, value in zip(tiled, garner.terms(table[lo : lo + _ROW_BLOCK], i)):
                tile[:, lo : lo + _ROW_BLOCK] = value
        for k, tile in enumerate(tiled, low):
            terms[k - first].append((i, tile.reshape(-1, *shape)))

    block = (min(count, _ROW_BLOCK), *shape)
    scratch = [np.empty((2, *block), width) for _, _, width in running]  # a sum and a spare
    compared = np.empty(block, dtype=np.uint16)  # level 1's carry
    for start in range(0, count, _ROW_BLOCK):
        size = min(_ROW_BLOCK, count - start)
        at = [start % len(table) for table in tables]
        carry = None
        for k, ((modulus, _, _), tiles, rows) in enumerate(zip(running, terms, scratch), first):
            parts = [term[at[i] : at[i] + size] for i, term in tiles]
            if k == 1 < len(levels):  # T_10 >= q_1 - T_11
                carry = np.greater_equal(*parts, out=compared[:size])
                continue
            acc, spare = rows[:, :size]
            if len(parts) > 1:
                np.add(parts[0], parts[1], out=acc)
            else:
                acc[...] = parts[0]
            for part in parts[2:]:
                np.add(acc, part, out=acc)
            if k < len(levels):
                carry = np.floor_divide(np.add(acc, carry, out=acc), modulus, out=acc)
                continue
            if carry is not None:
                np.add(acc, np.multiply(carry, garner.shift, out=spare), out=acc)
            np.multiply(np.floor_divide(acc, modulus, out=spare), modulus, out=spare)
            out[start : start + size] = np.subtract(acc, spare, out=acc)
    return out


def _merge_slots(tables: Sequence[np.ndarray], joins: Sequence[Optional[_Garner]]) -> list:
    """The slot tables merged as joins says, each group a table mod the
    product of its primes.

    A joining slot's table is combined with its group's over the lcm of
    their lengths: the lcm of their periods for class tables, and the row
    count for tables gathered at given rows.  A join is Garner's
    two-modulus step mod the product of its moduli, so it forms no carry:
    each row sums the two last-level terms and reduces them once.  Each
    group holds the same x as its slots would, so the outputs are too.
    """
    merged = []
    for table, garner in zip(tables, joins):
        if garner is not None:
            group = merged.pop()
            table = _crt_mod_p((group, table), garner, math.lcm(len(group), len(table)))
        merged.append(table)
    return merged


def transform_elements(
    xs: Sequence, plan: PTPlan, indices: Optional[Sequence[int]] = None
) -> np.ndarray:
    """The pipeline, and the one way into it: the outputs as int64 rows.

    xs is n component triples mod p, or an (n, 1) column of naturals v,
    each standing for (v, 0, 0); the inverse direction needs triples.
    indices (default: all n, in order) name the output rows, one each.  Each
    slot's class table is built in full and, given indices, read at them; the
    tables are then merged at their shared periods and combined mod p at
    every output row.  Every entry must be int64.  The input's peak |x| (one
    scan of its min and max) sizes the slot stage's first fold: as few
    blocks as int64 sums exactly, unreduced, and one per slot when
    ceil(n / P) * peak < 2^63 for index period P; past that, each block is
    reduced mod q first.
    """
    x = _as_array(xs, [(plan.n, 3), (plan.n, 1)])
    rows = None if indices is None else _as_array(indices, [(None,)], 0, plan.n, "indices")
    peak = max(-int(x.min()), int(x.max()))
    tables = [_slot_table(x, slot, peak) for slot in plan.slots]
    if rows is not None:
        tables = [table[rows % len(table)] for table in tables]
    joins, final = plan._crt
    count = plan.n if rows is None else len(rows)
    return _crt_mod_p(_merge_slots(tables, joins), final, count)


def natural_column(x: Sequence[int], plan: PTPlan) -> np.ndarray:
    """x, n integers in [0, coeff_bound], as an (n, 1) int64 column."""
    return _as_array(x, [(plan.n,)], 0, plan.coeff_bound + 1)[:, None]


def transform(x: Sequence[int], plan: PTPlan) -> List[Tuple[int, int, int]]:
    """The pipeline on natural-number coefficients, as n triples of Python ints:
    transform_elements on natural_column(x), converted to a list once, here."""
    return list(zip(*transform_elements(natural_column(x, plan), plan).T.tolist()))


def inverse_plan(plan: PTPlan) -> PTPlan:
    """Plan for the inverse direction: same primes, omega replaced by 1/omega.

    The slots are rebuilt from scratch, by _plan, because reduction at a
    root does not commute with inversion mod p; their periods can differ
    from the forward plan's.  Rebuilding cannot fail: _try_slot took each
    prime for both directions.  Built once per plan: every call returns the
    same object, whose slots keep their tables.
    """
    return plan._inverse


# Indices per oracle_output block; caps its temporaries at O(block * sqrt(n)).
_ORACLE_BLOCK = 64


def matmul_mod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """a @ b mod m as int64, for integer entries in [0, m), on float64 BLAS.

    Each term of a dot product of length L is at most (m-1)^2, so while
    L * (m-1)^2 < 2^53 every partial sum is an integer that float64 holds
    exactly, in whatever order BLAS adds them; past that it is refused.  It
    is reduced as x - (x // m)·m in int64: np.fmod divides every element,
    and numpy's int64 floor division by a scalar is a multiply.
    """
    length = a.shape[-1]
    if length * (m - 1) ** 2 >= 2**53:
        raise UsageError(f"a dot product of length {length} mod {m} is not exact in float64")
    product = (np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)).astype(np.int64)
    return product - product // m * m


def oracle_output(x: Sequence[int], plan: PTPlan, indices: Sequence[int]) -> np.ndarray:
    """The honest DFT over F_{p^3}, sum_k x[k] * omega^(j*k), at each index j:
    (len(indices), 3) int64 rows.

    x is n int64 integers, as a list or an (n, 1) column; any other shape
    is refused before its values are read.  Independent of the pipeline: it
    reads only p, y, n, omega and x, and shares only ext_mul_array,
    ext_powers and the input checks.  Baby-step/giant-step: with
    k = s*B + t and B = ceil(sqrt(n)), each omega^e is
    baby[e mod B] * giant[e // B] from the plan's two tables, so no n-row
    table is built.  The input mod p is written once into a zero-padded
    (A, B) float64 matrix (no remainder when it is already in [0, p)), and
    a block of indices is one (A, B) @ (B, 3*block) matmul_mod of it on
    float64 BLAS.  That is exact while B * (p-1)^2 < 2^53, which holds with
    a margin over 2^16 wherever n^2 < 2^63 (p <= 1447), the bound that keeps
    the exponents j*t and j*s*B exact in int64 and past which the oracle
    refuses.
    """
    p, n = plan.p.q, plan.n
    if n * n >= 2**63:
        raise UsageError(f"n = {n} is too large for the direct oracle's int64 exponents")
    x = _as_array(x, [(n,), (n, 1)])
    rows = _as_array(indices, [(None,)], 0, n, "indices")
    ctx = plan.context
    baby, giant = plan._oracle_powers
    b, a = len(baby) - 1, len(giant)
    padded = np.zeros(a * b)
    x = x.reshape(n)
    reduced = 0 <= x.min() and x.max() < p
    padded[:n] = x if reduced else x % p
    padded = padded.reshape(a, b)
    t, sb = np.arange(b)[:, None], np.arange(a)[:, None] * b

    def power(e):
        return ext_mul_array(baby[e % b], giant[e // b], ctx)

    out = np.empty((len(rows), 3), dtype=np.int64)
    for start in range(0, len(rows), _ORACLE_BLOCK):
        j = rows[start : start + _ORACLE_BLOCK]
        inner = matmul_mod(padded, power(t * j % n).reshape(b, -1), p)
        steps = ext_mul_array(inner.reshape(a, len(j), 3), power(sb * j % n), ctx)
        out[start : start + _ORACLE_BLOCK] = steps.sum(axis=0) % p
    return out


def spot_check(
    x: Sequence[int], plan: PTPlan, sample: int, seed: int
) -> TransformReport:
    """Compare pipeline outputs against the direct oracle at random indices:
    x is checked once by natural_column, and that column goes to both
    transform_elements and oracle_output."""
    _as_int(sample, "sample", 1)
    rng = random.Random(_as_int(seed, "a seed", 0))
    indices = sorted(rng.sample(range(plan.n), min(sample, plan.n)))
    column = natural_column(x, plan)
    pipeline = transform_elements(column, plan, indices).tolist()
    oracle = oracle_output(column, plan, indices).tolist()
    checks = tuple(
        IndexCheck(j, tuple(row), tuple(want))
        for j, row, want in zip(indices, pipeline, oracle)
    )
    return TransformReport(plan_p=plan.p.q, seed=seed, checks=checks)


# --- plan serialization -------------------------------------------------

def plan_to_json(plan: PTPlan) -> str:
    """Serialize the plan's inputs; everything else is re-derived on load."""
    doc = {
        "format_version": PLAN_FORMAT_VERSION,
        "p": plan.p.q,
        "y": plan.y.value,
        "omega": list(plan.omega.coeffs),
        "coeff_bound": plan.coeff_bound,
        "primes": [s.q.q for s in plan.slots],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _json_ints(values, name: str, low: Optional[int] = None, high: Optional[int] = None,
               length: Optional[int] = None):
    """A plan file's list field: a JSON list, of the given length when one is given,
    of integers _as_int takes in [low, high)."""
    if type(values) is not list or length not in (None, len(values)):
        shape = "a list of" if length is None else f"a list of {length}"
        raise UsageError(f"plan field {name} must be {shape} integers, not {values!r}")
    return [_as_int(v, f"plan field {name}", low, high) for v in values]


def plan_from_json(text: str) -> PTPlan:
    """Rebuild a plan from its inputs; _plan turns its primes into slots.

    Raises UsageError for every document preprocess could not have produced,
    and ValueError for text that is not JSON.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise UsageError(f"a plan file holds a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if version != PLAN_FORMAT_VERSION:
        raise UsageError(f"unsupported plan format version {version!r}")
    _as_int(version, "plan field format_version")  # 3.0 == 3, but is not a JSON integer
    if set(doc) != PLAN_FIELDS:
        unknown, missing = sorted(set(doc) - PLAN_FIELDS), sorted(PLAN_FIELDS - set(doc))
        raise UsageError(f"unknown plan fields {unknown}, missing plan fields {missing}")
    p_mod = PrimeModulus(_as_int(doc["p"], "plan field p"))
    y = p_mod.residue(_as_int(doc["y"], "plan field y", 0, p_mod.q))
    if is_cube(y):
        raise UsageError(f"y = {y.value} is a cube mod {p_mod.q}")
    ctx = ExtensionContext(p_mod, y)
    omega = ctx.element(*_json_ints(doc["omega"], "omega", 0, p_mod.q, length=3))
    if multiplicative_order(omega, ctx.group_order) != ctx.group_order:
        raise UsageError(f"omega does not have order p^3 - 1 = {ctx.group_order}")
    return _plan(p_mod, y, omega, _json_ints(doc["primes"], "primes"), doc["coeff_bound"])
