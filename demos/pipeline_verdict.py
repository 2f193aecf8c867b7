"""Build a runnable transform plan and put the pipeline on trial.

The CRT/root-adjunction pipeline folds, DFTs, recovers, and recombines;
whether its outputs equal the honest extension-field DFT is the central
experiment, not an assumption.  This demo renders the verdict for a
delta input (where the pipeline provably agrees) and a random input.

Run:  python demos/pipeline_verdict.py
"""

import random
import time

from polyxform import ptransform

t0 = time.perf_counter()
plan = ptransform.preprocess(p=13)
print(f"plan built in {time.perf_counter() - t0:.1f}s:")
print(f"  p = {plan.p.q}, y = {plan.y.value}, n = p^3 - 1 = {plan.n}")
print(f"  omega = {plan.omega.coeffs} (order {plan.n} in F_p[t]/(t^3 - y))")
print(f"  helper primes: {[s.q.q for s in plan.slots]}")
print(f"  prime product {plan.prime_product} > 9 p^6 = {plan.target_bound}")
for slot in plan.slots:
    print(f"    q = {slot.q.q:>3}: roots {list(slot.roots)}"
          f" periods {list(slot.periods)}")
print()

# --- the case where agreement is provable -------------------------------
delta = [1] + [0] * (plan.n - 1)
report = ptransform.spot_check(delta, plan, sample=8, seed=1)
print(f"delta input, {len(report.checks)} sampled outputs: "
      f"{report.matches} match -> verdict '{report.verdict}'")

# --- the honest experiment: random input --------------------------------
rng = random.Random(1)
x = [rng.randrange(13) for _ in range(plan.n)]
report = ptransform.spot_check(x, plan, sample=8, seed=1)
print(f"random input, {len(report.checks)} sampled outputs: "
      f"{report.matches} match -> verdict '{report.verdict}'\n")

for check in report.checks[:4]:
    mark = "ok " if check.match else "DIFF"
    print(f"  [{mark}] output {check.index}: pipeline {check.pipeline} "
          f"vs oracle {check.oracle}")

print("\nEvery stage above (folding, small DFTs, recovery, CRT) passes its")
print("own exact oracle; the end-to-end disagreement is the finding.")
