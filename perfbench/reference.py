"""Independent NumPy references for checking every benchmark output.

These recompute the CRT and root-adjunction pipeline, the direct
extension-field DFT and the polynomial-transform product from the plan's
defining data alone (p, y, omega and the helper primes).  Cube roots,
reduced omegas, periods, the Vandermonde inverse and the CRT idempotents
are derived here, not read from the program, so a later change to the
program's kernels is checked against arithmetic it does not share.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

Triple = Tuple[int, int, int]


def _order(w: int, m: int) -> int:
    """Multiplicative order of w mod the prime m."""
    return min(d for d in range(1, m) if (m - 1) % d == 0 and pow(w, d, m) == 1)


def _vandermonde_inverse(roots: Sequence[int], m: int) -> np.ndarray:
    """inv[k, i]: coefficient of t^k in the Lagrange basis polynomial of root i.

    So component k of the recovered triple is sum_i inv[k, i] * eval_i.
    """
    inv = np.zeros((3, 3), dtype=np.int64)
    for i, r in enumerate(roots):
        a, b = (s for k, s in enumerate(roots) if k != i)
        scale = pow((r - a) * (r - b), -1, m)
        inv[:, i] = [a * b * scale % m, -(a + b) * scale % m, scale]
    return inv


def pipeline(xs: np.ndarray, p: int, y: int, omega: Triple, primes: Sequence[int]) -> np.ndarray:
    """Pipeline outputs for component triples xs (shape (n, 3), entries mod p).

    Per helper prime m and cube root r of y mod m: reduce at r, fold to the
    period d of omega reduced at r, DFT of length d, recover the three
    components at every index j from the evaluations at j mod d, then
    CRT-combine across primes and reduce mod p.
    """
    n = xs.shape[0]
    big_q = math.prod(primes)
    if big_q * (max(primes) + 1) >= 2**63:
        raise ValueError("CRT product too large for int64 accumulation")
    j = np.arange(n)
    acc = np.zeros((n, 3), dtype=np.int64)
    for m in primes:
        roots = [r for r in range(1, m) if pow(r, 3, m) == y % m]
        evals = []
        for r in roots:
            w = (omega[0] + omega[1] * r + omega[2] * r * r) % m
            d = _order(w, m)
            reduced = (xs[:, 0] + xs[:, 1] * r + xs[:, 2] * (r * r % m)) % m
            # float64 bincount is exact: the sums stay far below 2**53
            folded = np.bincount(j % d, weights=reduced, minlength=d).astype(np.int64) % m
            powers = np.array([pow(w, e, m) for e in range(d)], dtype=np.int64)
            s = np.arange(d)
            dft = powers[np.outer(s, s) % d] @ folded % m
            evals.append(dft[j % d])
        comps = _vandermonde_inverse(roots, m) @ np.stack(evals) % m
        others = big_q // m
        idempotent = others * pow(others, -1, m) % big_q
        acc = (acc + comps.T * idempotent) % big_q
    return acc % p


def naturals(x: Sequence[int]) -> np.ndarray:
    """Natural-number coefficients as component triples (v, 0, 0)."""
    xs = np.zeros((len(x), 3), dtype=np.int64)
    xs[:, 0] = x
    return xs


def ext_mul(a: np.ndarray, b: np.ndarray, y: int, p: int) -> np.ndarray:
    """Elementwise product in F_p[t]/(t^3 - y) of (..., 3) arrays."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack(
        [
            (a0 * b0 + y * ((a1 * b2 + a2 * b1) % p)) % p,
            (a0 * b1 + a1 * b0 + y * (a2 * b2 % p)) % p,
            (a0 * b2 + a1 * b1 + a2 * b0) % p,
        ],
        axis=-1,
    )


def ext_pow(u: Triple, e: int, y: int, p: int) -> Triple:
    result = np.array([1, 0, 0], dtype=np.int64)
    base = np.array(u, dtype=np.int64)
    while e:
        if e & 1:
            result = ext_mul(result, base, y, p)
        base = ext_mul(base, base, y, p)
        e >>= 1
    return tuple(int(v) for v in result)


def power_table(omega: Triple, n: int, y: int, p: int) -> np.ndarray:
    """omega^e for e in [0, n), shape (n, 3)."""
    table = np.zeros((n, 3), dtype=np.int64)
    cur = np.array([1, 0, 0], dtype=np.int64)
    w = np.array(omega, dtype=np.int64)
    for e in range(n):
        table[e] = cur
        cur = ext_mul(cur, w, y, p)
    return table


def oracle(x: np.ndarray, table: np.ndarray, index: int, p: int) -> Triple:
    """Direct DFT output sum_k x[k] * omega^(index*k) from a power table."""
    n = len(table)
    powers = table[index * np.arange(n, dtype=np.int64) % n]
    return tuple(int(v) for v in (x[:, None] * powers).sum(axis=0) % p)


def pt_product(a: int, b: int, limb_bits: int, p: int, y: int, omega: Triple,
               primes: Sequence[int]) -> int:
    """The polynomial-transform backend's product, recomputed.

    Forward transforms of the limb vectors, pointwise extension product,
    pipeline at omega^-1, scaling by 1/n mod p, carry propagation.
    """
    n = p**3 - 1
    mask = (1 << limb_bits) - 1
    limbs = [[(v >> (k * limb_bits)) & mask for k in range(n)] for v in (a, b)]
    fa, fb = (pipeline(naturals(v), p, y, omega, primes) for v in limbs)
    back = pipeline(ext_mul(fa, fb, y, p), p, y, ext_pow(omega, n - 1, y, p), primes)
    coeffs = back[:, 0] * pow(n % p, p - 2, p) % p
    return sum(int(c) << (k * limb_bits) for k, c in enumerate(coeffs))
