"""The trusted oracles in `polyxform.oracles`: naive DFTs over prime
fields and the cubic extension, the principal-root certificate, and the
circulant determinant identity, beside the program's singularity rate.

Run:  python demos/transform_oracles.py
"""

from polyxform.cli import singularity_experiment
from polyxform.extension import ExtensionContext, find_extension_root_of_order
from polyxform.modcore import PrimeModulus
from polyxform.oracles import (
    CirculantSpec,
    check_principal_root,
    circulant_det_bruteforce,
    circulant_det_formula,
    find_root_of_order,
    naive_dft,
    naive_inverse_dft,
)

# --- a DFT round trip in a small prime field ----------------------------
q13 = PrimeModulus(13)
omega = find_root_of_order(6, q13)
x = [q13.residue(v) for v in (1, 5, 0, 3, 12, 7)]
X = naive_dft(x, omega)
back = naive_inverse_dft(X, omega)
print("mod 13, omega =", omega.value, "(order 6)")
print("  x   =", [v.value for v in x])
print("  X   =", [v.value for v in X])
print("  inv =", [v.value for v in back], "\n")

# --- principal-root certificate: both criteria, all sums ----------------
cert = check_principal_root(omega, 6)
print(f"principal certificate for omega = {omega.value}, n = 6:",
      "passed" if cert.passed else f"failed at j = {cert.failed_j}")
# an element of the wrong order fails the sum criterion, not the power one
bad = check_principal_root(q13.residue(3), 6)
print(f"certificate for 3 (order 3) as a 6th root: power={bad.power_check},"
      f" sums={bad.sum_check}, first bad j={bad.failed_j}\n")

# --- the same machinery in the cubic extension --------------------------
p7 = PrimeModulus(7)
ctx = ExtensionContext(p7, p7.residue(2))  # t^3 = 2, a non-cube mod 7
w = find_extension_root_of_order(ctx.group_order, ctx)
print(f"generator of the order-{ctx.group_order} group of F_343: {w.coeffs}")
w18 = find_extension_root_of_order(18, ctx)
print("order-18 element:", w18.coeffs,
      "| certificate:", check_principal_root(w18, 18).passed, "\n")

# --- circulant determinants: formula vs brute force ---------------------
q = PrimeModulus(7)
spec = CirculantSpec(tuple(q.residue(v) for v in (1, 2, 3)))
print("circulant (1,2,3) mod 7:")
print("  eigenvalue-product formula:", circulant_det_formula(spec, q).value)
print("  gaussian elimination:      ", circulant_det_bruteforce(spec).value)

# how often is a random 3x3 circulant singular?  count, then compare
res = singularity_experiment(PrimeModulus(103), trials=100_000, seed=0)
exact = (103**3 - 102**3) / 103**3
print(f"\nsingular fraction at q = 103 over {res['trials']} trials: "
      f"{res['fraction']:.4f}")
print(f"  exact census (103^3 - 102^3)/103^3 = {exact:.4f}  ~ 3/q")
print(f"  the often-quoted 1/q would be       {1 / 103:.4f}  -- refuted")
