"""The boxed references the tests, the acceptance criteria and the demos
judge the program against.

Each is a plain O(n^2) or Gauss-Jordan computation over boxed `Residue`
and `ExtensionElement` values: CRT reconstruction by idempotents, matrix
determinant and inverse, cube tables and Fermat cube roots, the recovery
matrix of arbitrary roots, the naive DFT and its inverse, the
principal-root certificate, and the circulant determinant identity.

None of it runs in the program.  No program module imports this one, and
it imports nothing from `ptransform`, `bigmul`, `cli` or `claims`, so a
pipeline stage and its reference share no code beyond the field
arithmetic of `modcore` and `extension`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import UsageError
from .extension import FieldElement, _prime_factors
from .modcore import PrimeModulus, Residue, _as_int, pow_mod

# --- CRT -------------------------------------------------------------------


@dataclass(frozen=True)
class CrtBasis:
    """Ordered pairwise-coprime moduli, Python ints >= 2, with their product."""

    moduli: tuple
    Q: int

    @classmethod
    def of(cls, moduli: Sequence[int]) -> "CrtBasis":
        mods = tuple(_as_int(m, "a modulus", 2) for m in moduli)
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                if math.gcd(mods[i], mods[j]) != 1:
                    raise UsageError(
                        f"moduli {mods[i]} and {mods[j]} are not coprime"
                    )
        return cls(mods, math.prod(mods))


def crt_reconstruct(residues: Sequence[int], basis: CrtBasis) -> int:
    """Unique x in [0, Q) with x = residues[k] mod moduli[k], exact, for
    residues that are Python ints in [0, moduli[k]).

    Uses the idempotent combination: for each modulus, the integer that is
    1 mod that modulus and 0 mod every other one.
    """
    if len(residues) != len(basis.moduli):
        raise UsageError("residue count does not match basis size")
    x = 0
    for r, m in zip(residues, basis.moduli):
        if not 0 <= _as_int(r, "a residue") < m:
            raise UsageError(f"residue {r} out of range for modulus {m}")
        others = basis.Q // m
        x += r * others * pow(others, -1, m)
    return x % basis.Q


# --- linear algebra over F_q -------------------------------------------------


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


def invert_matrix(A: Sequence[Sequence[Residue]]) -> list:
    """Matrix inverse over the prime field; raises UsageError when det = 0."""
    n = len(A)
    _, inverse = _eliminate(A, [[int(c == r) for c in range(n)] for r in range(n)])
    if inverse is None:
        raise UsageError("matrix not invertible")
    return inverse


# --- cube roots and component recovery ---------------------------------------


def cube_table(q: PrimeModulus) -> Dict[Residue, Tuple[Residue, ...]]:
    """Every x mod q with its cube roots in ascending order, by cubing 0..q-1.

    Exactly two multiplications per value.
    """
    buckets: Dict[int, List[int]] = {}
    for v in range(q.q):
        cube = v * v % q.q * v % q.q
        buckets.setdefault(cube, []).append(v)
    return {
        q.residue(x): tuple(q.residue(r) for r in sorted(buckets.get(x, [])))
        for x in range(q.q)
    }


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
    reference for the pipeline's closed-form inverse at the cube roots of y.
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


# --- DFTs and roots of unity -------------------------------------------------


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
    if (q.q - 1) % _as_int(n, "an order", 1) != 0:
        raise UsageError(f"{n} does not divide {q.q - 1}")
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
    raise UsageError(f"no element of order {n} mod {q.q}")


def naive_dft(
    x: Sequence[FieldElement], omega: FieldElement
) -> List[FieldElement]:
    """X[j] = sum_k x[k] * omega^(j*k), in O(n^2) field operations.

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
    n_inv = n_elem**-1  # raises UsageError when the length is 0 there
    return [n_inv * v for v in naive_dft(X, omega**-1)]


# --- circulant determinants --------------------------------------------------


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
    omega = find_root_of_order(spec.dimension, q)  # UsageError unless t | q-1
    # the eigenvalues of a circulant are the DFT of its first row
    return math.prod(naive_dft(spec.coeffs, omega), start=q.residue(1))


def circulant_det_bruteforce(spec: CirculantSpec) -> Residue:
    """Independent check of the formula: Gaussian-elimination determinant."""
    return determinant(spec.materialize())
