"""Ground-truth DFT machinery over prime fields and the cubic extension.

The DFTs here are deliberately naive O(n^2) sums: they are the trusted
oracles everything faster is judged against.  Also houses the principal
root-of-unity certificate, root search, and the circulant determinant
identity with its singularity experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .errors import NoSuchRoot, UsageError
from .extension import ExtensionContext, ExtensionElement, ext_pow
from .modcore import PrimeModulus, Residue, determinant

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


@dataclass(frozen=True)
class PrincipalRootCertificate:
    """Result of the two principal-root criteria for (omega, order)."""

    omega: FieldElement
    order: int
    power_check: bool  # omega^order == 1
    sum_check: bool  # sum_i omega^(i*j) == 0 for every j in 1..order-1
    failed_j: int = None  # first j whose sum was nonzero, if any

    @property
    def passed(self) -> bool:
        return self.power_check and self.sum_check


def check_principal_root(omega: FieldElement, n: int) -> PrincipalRootCertificate:
    """Evaluate both principal-root criteria exactly (all n-1 sums).

    Failure is reported in the certificate, never raised.
    """
    one = omega**0
    zero = one - one
    power_check = omega**n == one
    omega_j = one
    for j in range(1, n):
        omega_j = omega_j * omega  # omega^j
        acc = zero
        term = one
        for _ in range(n):
            acc = acc + term
            term = term * omega_j
        if acc != zero:
            return PrincipalRootCertificate(omega, n, power_check, False, j)
    return PrincipalRootCertificate(omega, n, power_check, True)


def find_root_of_order(n: int, q: PrimeModulus) -> Residue:
    """Smallest residue of exact multiplicative order n mod q.

    Requires n | q-1; the result additionally passes the full principal
    certificate before being returned.
    """
    if n < 1:
        raise UsageError("order must be >= 1")
    if (q.q - 1) % n != 0:
        raise NoSuchRoot(f"{n} does not divide {q.q - 1}")
    if n == 1:
        return q.residue(1)
    factors = _prime_factors(n)
    for a in range(2, q.q):
        cand = q.residue(a)
        if pow(a, n, q.q) != 1:
            continue
        if any(pow(a, n // r, q.q) == 1 for r in factors):
            continue
        cert = check_principal_root(cand, n)
        assert cert.passed  # exact order n in a field implies principal
        return cand
    raise NoSuchRoot(f"no element of order {n} mod {q.q}")


def find_extension_root_of_order(
    n: int, ctx: ExtensionContext
) -> ExtensionElement:
    """Element of exact order n in the cubic extension (n | p^3 - 1).

    Scans for the lexicographically-smallest generator of the full
    multiplicative group, then powers it down to order n.  Validation is
    by order factor-checks; the O(n^2) certificate is left to callers at
    scales where it is affordable.
    """
    group = ctx.group_order
    if group % n != 0:
        raise NoSuchRoot(f"{n} does not divide p^3 - 1 = {group}")
    factors = _prime_factors(group)
    one = ctx.one
    p = ctx.p.q
    for a2 in range(p):
        for a1 in range(p):
            for a0 in range(p):
                if a0 == 0 and a1 == 0 and a2 == 0:
                    continue
                g = ctx.element(a0, a1, a2)
                if all(ext_pow(g, group // r) != one for r in factors):
                    omega = ext_pow(g, group // n)
                    assert multiplicative_order(omega, group) == n
                    return omega
    raise NoSuchRoot("no generator found; is the extension a field?")


def naive_dft(
    x: Sequence[FieldElement], omega: FieldElement
) -> List[FieldElement]:
    """X[j] = sum_k x[k] * omega^(j*k); the O(n^2) trusted oracle.

    omega must have multiplicative order exactly len(x).
    """
    n = len(x)
    one = omega**0
    zero = one - one
    if omega**n != one:
        raise UsageError("omega^n != 1: order does not match input length")
    out = []
    omega_j = one
    for j in range(n):
        if j:
            omega_j = omega_j * omega
        acc = zero
        term = one
        for k in range(n):
            acc = acc + x[k] * term
            term = term * omega_j
        out.append(acc)
    return out


def naive_inverse_dft(
    X: Sequence[FieldElement], omega: FieldElement
) -> List[FieldElement]:
    """x[k] = n^-1 * sum_j X[j] * omega^(-j*k); exact round-trip partner."""
    one = omega**0
    n_elem = sum((one for _ in X), one - one)  # len(X) in the field
    n_inv = n_elem**-1  # raises NotInvertible when the length is 0 there
    return [n_inv * v for v in naive_dft(X, omega**-1)]


@dataclass(frozen=True)
class CirculantSpec:
    """First row c_1..c_t of a t x t circulant (rows rotate right)."""

    coeffs: Tuple[Residue, ...]

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    def materialize(self) -> List[List[Residue]]:
        t = self.dimension
        return [
            [self.coeffs[(c - r) % t] for c in range(t)] for r in range(t)
        ]


def circulant_det_formula(spec: CirculantSpec, q: PrimeModulus) -> Residue:
    """Determinant via the eigenvalue product over a t-th root of unity.

    det = prod_j sum_l c_l * omega^(j*l) with omega of order t mod q;
    requires t | q-1 so such an omega exists in the field.
    """
    omega = find_root_of_order(spec.dimension, q)  # NoSuchRoot unless t | q-1
    # the eigenvalues of a circulant are the DFT of its first row
    return math.prod(naive_dft(spec.coeffs, omega), start=q.residue(1))


def circulant_det_bruteforce(spec: CirculantSpec) -> Residue:
    """Independent oracle: Gaussian-elimination determinant."""
    return determinant(spec.materialize())


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

