"""Finite-field transform laboratory.

A CRT- and root-adjunction-based DFT pipeline over finite fields, the
number theory that supports it, and a transform-backed big-integer
multiplier, with every stage cross-checked against independent
brute-force oracles.
"""

from .errors import (
    NoSuchRoot,
    NoncubeImpossible,
    NotInvertible,
    OverflowRisk,
    PlanNotCertified,
    PolyxformError,
    PrimeSupplyExhausted,
    Singular,
    UsageError,
)
from .extension import ExtensionContext, ExtensionElement, ext_inv, ext_mul, ext_pow
from .modcore import (
    CrtBasis,
    PrimeModulus,
    Residue,
    crt_reconstruct,
    inv_mod,
    is_prime,
    mul_mod,
    pow_mod,
    solve_linear_mod,
)
from .primes import (
    CostEstimate,
    PrimeTable,
    cost_model,
    descending_primes,
    doubling_estimate,
    next_prime_at_or_above,
    sieve_atkin,
    trial_division_primes,
)
from .ptransform import (
    PTPlan,
    PTPrimeSlot,
    TransformReport,
    certify_value_bound,
    inverse_plan,
    plan_from_json,
    plan_to_json,
    preprocess,
    spot_check,
    transform,
    transform_elements,
)
from .residues import (
    RecoveryMatrix,
    RootSet,
    build_recovery,
    cube_root_fermat,
    cube_table,
    evaluate_components,
    find_noncube,
    is_cube,
    recover_components,
    sqrt_minus_one,
)
from .transform import (
    CirculantSpec,
    PrincipalRootCertificate,
    check_principal_root,
    circulant_det_bruteforce,
    circulant_det_formula,
    find_extension_root_of_order,
    find_root_of_order,
    multiplicative_order,
    naive_dft,
    naive_inverse_dft,
    singularity_experiment,
)
from .bigmul import (
    BigNat,
    MulBackend,
    MulReport,
    carry_propagate,
    karatsuba_mul,
    ntt,
    ntt_convolve,
    pack,
    schoolbook_mul,
    transform_mul,
)

__version__ = "0.1.0"
