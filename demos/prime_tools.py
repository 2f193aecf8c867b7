"""Prime machinery: the Atkin sieve against its trial-division oracle,
the doubling estimate for the base prime, and the DFT cost model.

Run:  python demos/prime_tools.py
"""

import time

from polyxform.modcore import (
    cost_model,
    doubling_estimate,
    next_prime_at_or_above,
    sieve_atkin,
    trial_division_primes,
)

limit = 1_000_000

t0 = time.perf_counter()
fast = sieve_atkin(limit)
t1 = time.perf_counter()
slow = trial_division_primes(limit)
t2 = time.perf_counter()

print(f"sieve of Atkin to {limit}: {len(fast)} primes in {t1 - t0:.3f}s")
print(f"trial-division oracle:     {len(slow)} primes in {t2 - t1:.3f}s")
print("elementwise agreement:", fast == slow)
print("last three primes:", fast[-3:], "\n")

# --- sizing the base prime ---------------------------------------------
print("doubling estimate: smallest power of two whose cube covers n")
for n in (300, 10**6, 10**9):
    p0 = doubling_estimate(n)
    p = next_prime_at_or_above(p0)
    while p.q % 3 != 1:
        p = next_prime_at_or_above(p.q + 1)
    print(f"  n = {n:>10}: estimate {p0:>5}, first usable prime p = {p.q}")
print()

# --- how much work the small DFTs cost ---------------------------------
print("cost model: sum q*ln(q) and sum q^2 over primes below each bound")
prev = None
for bound in (10**3, 10**4, 10**5):
    est = cost_model(bound)
    line = (f"  bound {bound:>6}: sum q ln q = {est.sum_q_log_q:.3e}, "
            f"sum q^2 = {est.sum_q_squared:.3e}")
    if prev is not None:
        line += f"  (q^2 ratio vs previous: {est.sum_q_squared / prev:.1f}x)"
    prev = est.sum_q_squared
    print(line)
