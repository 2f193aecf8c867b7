"""Worked tour of the residue toolkit: the boxed references in
`polyxform.oracles` (cube tables, Fermat cube roots, the Gauss-Jordan
recovery matrix) and the program's non-cube search.

Run:  python demos/residue_recovery.py
"""

from polyxform.extension import find_noncube
from polyxform.modcore import PrimeModulus
from polyxform.oracles import (
    build_recovery,
    cube_root_fermat,
    cube_table,
    evaluate_components,
    recover_components,
)

# --- the classic 2x2 example: recover components from evaluations ------
q5 = PrimeModulus(5)
roots = [q5.residue(2), q5.residue(3)]
rm = build_recovery(roots)
print("recovery matrix mod 5 for roots (2, 3):")
for row in rm.matrix:
    print("  ", [e.value for e in row])

evals = [q5.residue(0), q5.residue(1)]
components = recover_components(evals, rm)
print("evaluations (0, 1) come from components",
      tuple(c.value for c in components))
# sanity: evaluate them again
back = evaluate_components(components, roots)
print("re-evaluating gives", tuple(b.value for b in back), "\n")

# --- cube roots two ways ------------------------------------------------
q11 = PrimeModulus(11)
print("mod 11 (= 2 mod 3): cubing is a bijection, one root per value")
print("  cuberoot(9) =", cube_root_fermat(q11.residue(9), q11).value,
      " check: 4^3 mod 11 =", pow(4, 3, 11))

q7 = PrimeModulus(7)
table = cube_table(q7)
print("mod 7 (= 1 mod 3): cubes bunch up, most values have no root")
for x in range(7):
    roots7 = table[q7.residue(x)]
    print(f"  {x}: roots {[r.value for r in roots7] or '--'}")
print()

# --- non-cube scan: the y the extension is built on ---------------------
for p in (7, 13, 103):
    y = find_noncube(PrimeModulus(p))
    print(f"smallest non-cube mod {p}: y = {y.value}")

# the density is exactly 2/3 for p = 1 mod 3 -- count, don't estimate
p = PrimeModulus(103)
noncubes = sum(1 for v in range(1, 103) if not cube_table(p)[p.residue(v)])
print(f"non-cubes mod 103: {noncubes}/102 = {noncubes / 102:.4f} (exactly 2/3)")
