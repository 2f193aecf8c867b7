"""Big-integer multiplication backends, cross-checked against CPython's `*`.

Schoolbook, Karatsuba and the NTT-convolution backend must match the
oracle exactly and report their limb-operation counts; the
transform-pipeline backend is the experiment and reports its verdict.

Run:  python demos/bigmul_backends.py
"""

import random
import time

from polyxform import bigmul, ptransform
from polyxform.bigmul import BigNat, MulBackend

a = BigNat.from_hex("0x3039")   # 12345
b = BigNat.from_hex("0x1a85")   # 6789
print("operands:", a.to_hex(), "x", b.to_hex(), "=", hex(12345 * 6789), "\n")

for tag in (bigmul.SCHOOLBOOK, bigmul.KARATSUBA, bigmul.ORACLE_NTT):
    report = bigmul.transform_mul(a, b, MulBackend(tag))
    print(f"  {tag:<12} -> {report.product.to_hex()}  [{report.verdict}], "
          f"{report.extra['limb_ops']} limb ops")
print()

# --- operation counts at scale: where karatsuba starts winning ----------
rng = random.Random(0)
print(f"{'bits':>6} {'schoolbook ops':>14} {'karatsuba ops':>14}")
for bits in (1024, 4096, 16384, 65536):
    x = BigNat.from_int(rng.getrandbits(bits) | (1 << (bits - 1)))
    school, kara = (
        bigmul.transform_mul(x, x, MulBackend(tag)).extra["limb_ops"]
        for tag in (bigmul.SCHOOLBOOK, bigmul.KARATSUBA)
    )
    print(f"{bits:>6} {school:>14} {kara:>14}")
print()

# --- the experimental backend ------------------------------------------
print("transform-pipeline backend at p = 13 (building plan ...)")
t0 = time.perf_counter()
plan = ptransform.preprocess(p=13)
report = bigmul.transform_mul(a, b, MulBackend(bigmul.POLY_TRANSFORM, plan=plan))
print(f"  done in {time.perf_counter() - t0:.1f}s -> verdict "
      f"'{report.verdict}'")
print(f"  packed at {report.extra['limb_bits']} bits/coefficient, "
      f"utilization {report.extra['utilization']:.4f}")
print(f"  {report.extra['outputs_with_nonreal_components']} of {plan.n} "
      f"inverse outputs carried nonzero root components")
print("  (recorded, not asserted: this backend inherits the pipeline's "
      "end-to-end verdict)")
