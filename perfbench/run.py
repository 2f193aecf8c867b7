"""polyxform benchmark: one closed-loop workload per run, every output checked.

    python3 perfbench/run.py --workload transform-p43 --seed 1 --seconds 24 --trace 0

Workloads (see perfbench/README.md for why each exists):

  transform-p43   ptransform.transform on the p = 43 strict plan (n = 79,506)
  verify-p19      ptransform.spot_check at 16 indices on the p = 19 strict plan
  mul-karatsuba   bigmul.transform_mul, karatsuba backend, 10,000-bit pairs
  mul-oracle-ntt  bigmul.transform_mul, oracle-ntt backend, 10,000-bit pairs
                  and a fixed share of 100,000-bit pairs that pack refuses
  mul-pt          bigmul.transform_mul, polynomial-transform backend, 12-bit
                  pairs at the p = 13 input-aware plan

One client in one thread sends the next op only when the previous one has
returned.  Inputs come from --workload and --seed only.  With --trace 0 the
run reports end-to-end metrics; with --trace 1 it runs half its time
untraced and half with the layers wrapped from outside (tracing.py) and
reports per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object; the lines before it are the same
numbers for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import polyxform
    from polyxform import bigmul, ptransform
    from polyxform.errors import OverflowRisk
except ImportError as exc:
    sys.exit(f"perfbench: cannot import polyxform from {SRC}: {exc}")
if SRC not in Path(polyxform.__file__).resolve().parents:
    sys.exit(f"perfbench: polyxform was imported from {polyxform.__file__}, not from {SRC}")

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

PLANS = {
    "transform-p43": {"p": 43, "bound_mode": ptransform.STRICT},
    "verify-p19": {"p": 19, "bound_mode": ptransform.STRICT},
    # The exact backends need no plan; their set-up is the import alone.
    "mul-karatsuba": None,
    "mul-oracle-ntt": None,
    "mul-pt": {"p": 13, "bound_mode": ptransform.INPUT_AWARE, "coeff_bound": 1},
}
# The delta input is the provable special case: every pipeline output
# equals the oracle's, which is (1, 0, 0).  Checked on every run.
DELTA_PLAN = PLANS["mul-pt"]
SAMPLE = 16  # indices per verdict, as `polyxform verify --sample 16`
SETUP_REPEATS = 5  # at least this many set-up samples per run

# The host's speed swings by up to 2x for tens of seconds at a time, so
# every time metric is scaled to a reference speed: wall time times
# CAL_REFERENCE_S over the time `calibrate` measures around it.  On a host
# where the calibration loop takes CAL_REFERENCE_S, scaled equals wall.
CAL_ITERATIONS = 10_000
CAL_REFERENCE_S = 0.003

MUL_BITS = {"karatsuba": 10_000, "oracle-ntt": 10_000,
            "polynomial-transform": 12, "oracle-ntt-100k": 100_000}
MUL_BACKENDS = {"karatsuba": bigmul.KARATSUBA, "oracle-ntt": bigmul.ORACLE_NTT,
                "oracle-ntt-100k": bigmul.ORACLE_NTT,
                "polynomial-transform": bigmul.POLY_TRANSFORM}
REFUSABLE = ("oracle-ntt-100k",)
PT_LIMB_BITS = 1  # what the p = 13 plan at coeff_bound 1 packs with

# SHA-256 of the first op's output in every run, whose input is drawn from
# the fixed stream "<workload>/digest".  Recorded at the commit that added
# this benchmark; results must stay byte-identical.
DIGESTS = {
    "transform-p43": "0aeeabb277e6948384f297c01b1d77dd2b16a30733b16a766c9202741c200d6b",
    "verify-p19": "52214baa85df1669d8d2ed1b2d4e5464047e9de70103f6f7787ad6750df9a230",
    "mul-pt": "26a64e9ee2a744e914a933a9983b5b2ae0dd31e23942d5385d46b15ec5abffc2",
}

# End-to-end metrics of an untraced run.  op_s.p50 is the median time of a
# completed op: transform_s, verdict_s or mul_s.<backend>.
END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics of a traced run, per op completed in its traced half;
# preprocess.s is per call.
PER_LAYER = (
    ("modcore.crt_reconstruct.calls", "count"),
    ("modcore.crt_reconstruct.s", "s"),
    ("ptransform.crt_per_output", "ratio"),
    ("ptransform.transform_elements.self_s", "s"),
    ("transform.naive_dft.calls", "count"),
    ("transform.naive_dft.s", "s"),
    ("transform.naive_dft.points", "count"),
    ("modcore.mul_mod.calls", "count"),
    ("residues.recover_components.calls", "count"),
    ("residues.recover_components.s", "s"),
    ("ptransform.oracle_output.calls", "count"),
    ("ptransform.oracle_output.s", "s"),
    ("extension.ext_mul.calls", "count"),
    ("bigmul.schoolbook_mul.s", "s"),
    ("bigmul.karatsuba_mul.s", "s"),
    ("bigmul.ntt_convolve.s", "s"),
    ("bigmul.pack.s", "s"),
    ("bigmul.carry_propagate.s", "s"),
    ("ptransform.preprocess.s", "s"),
    ("ptransform.inverse_plan.s", "s"),
    ("tracing.overhead_s", "s"),
)


class Inputs:
    """Every input of a run, drawn from one named stream."""

    def __init__(self, workload: str, seed):
        self.rnd = random.Random(f"{workload}/{seed}")
        self.np_rng = np.random.default_rng(self.rnd.getrandbits(128))

    def coefficients(self, n: int, bound: int) -> list:
        return self.np_rng.integers(0, bound + 1, size=n).tolist()

    def natural(self, bits: int) -> int:
        return self.rnd.getrandbits(bits) | (1 << (bits - 1))

    def sample_seed(self) -> int:
        return self.rnd.getrandbits(32)


class Stats:
    """Closed-loop op accounting: latencies of completed ops, failures, refusals."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.latency = defaultdict(list)  # wall seconds of completed ops
        self.scaled = defaultdict(list)  # the same ops at the calibration reference speed
        self.refused_s = []  # wall seconds an op ran before it was refused
        self._unscaled = []
        self.scales = []  # one per settle call
        self.errors = []
        self.tracer = None

    def run(self, kind: str, call, check) -> None:
        """Time call(), then check its result; an op that raises or fails counts."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.tracer.call(kind, call) if self.tracer else call()
        except OverflowRisk as exc:
            if kind in REFUSABLE:
                self.refused += 1
                self.refused_s.append(time.perf_counter() - start)
            else:
                self._fail(kind, repr(exc))
            return
        except Exception:  # one op's error must not end the run
            self._fail(kind, traceback.format_exc())
            return
        elapsed = time.perf_counter() - start
        try:
            ok = check(result)
        except Exception:
            self._fail(kind, "check raised:\n" + traceback.format_exc())
            return
        if not ok:
            self._fail(kind, "output check failed")
            return
        self.latency[kind].append(elapsed)
        self._unscaled.append((kind, elapsed))

    def settle(self, scale: float) -> None:
        """Record the ops completed since the last call at wall time * scale."""
        for kind, elapsed in self._unscaled:
            self.scaled[kind].append(elapsed * scale)
        self._unscaled.clear()
        self.scales.append(scale)

    def _fail(self, kind: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{kind}: {why}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def transform_digest(outputs) -> str:
    return digest(np.asarray(outputs, dtype=np.int64).tobytes())


def report_digest(report) -> str:
    return digest(json.dumps(report.to_dict(), sort_keys=True).encode())


def product_digest(product: int) -> str:
    return digest(hex(product).encode())


def median_or_none(samples: list):
    return statistics.median(samples) if samples else None


def plan_spec(plan) -> tuple:
    """(p, y, omega, helper primes): all the reference needs from a plan."""
    return plan.p.q, plan.y.value, plan.omega.coeffs, [s.q.q for s in plan.slots]


class TransformWorkload:
    name = "transform-p43"
    kinds = ("transform",)

    def __init__(self, plan, inputs: Inputs, stats: Stats):
        self.plan, self.inputs, self.stats = plan, inputs, stats
        self.spec = plan_spec(plan)

    def unit(self, i: int) -> None:
        first = i == 0
        source = Inputs(self.name, "digest") if first else self.inputs
        x = source.coefficients(self.plan.n, self.plan.coeff_bound)

        def check(outputs) -> bool:
            got = np.asarray(outputs, dtype=np.int64)
            want = reference.pipeline(reference.naturals(x), *self.spec)
            if not np.array_equal(got, want):
                return False
            return not first or transform_digest(got) == DIGESTS[self.name]

        self.stats.run("transform", lambda: ptransform.transform(x, self.plan), check)

    def op_seconds(self):
        return median_or_none(self.stats.scaled["transform"])


class VerifyWorkload:
    name = "verify-p19"
    kinds = ("verdict",)

    def __init__(self, plan, inputs: Inputs, stats: Stats):
        self.plan, self.inputs, self.stats = plan, inputs, stats
        self.spec = plan_spec(plan)
        p, y, omega, _ = self.spec
        self.powers = reference.power_table(omega, plan.n, y, p)

    def unit(self, i: int) -> None:
        first = i == 0
        source = Inputs(self.name, "digest") if first else self.inputs
        x = source.coefficients(self.plan.n, self.plan.coeff_bound)
        seed = source.sample_seed()

        def check(report) -> bool:
            indices = [c.index for c in report.checks]
            if len(set(indices)) != SAMPLE or not all(0 <= j < self.plan.n for j in indices):
                return False
            if (report.plan_p, report.seed) != (self.plan.p.q, seed):
                return False
            pipe = reference.pipeline(reference.naturals(x), *self.spec)
            xa = np.asarray(x, dtype=np.int64)
            for c in report.checks:
                if tuple(c.pipeline) != tuple(int(v) for v in pipe[c.index]):
                    return False
                if tuple(c.oracle) != reference.oracle(xa, self.powers, c.index, self.spec[0]):
                    return False
            return not first or report_digest(report) == DIGESTS[self.name]

        self.stats.run(
            "verdict", lambda: ptransform.spot_check(x, self.plan, SAMPLE, seed), check
        )

    def op_seconds(self):
        return median_or_none(self.stats.scaled["verdict"])


class MulWorkload:
    """Units of bigmul.transform_mul calls; UNIT lists the kinds of one unit."""

    UNIT: tuple

    def __init__(self, plan, inputs: Inputs, stats: Stats):
        self.plan, self.inputs, self.stats = plan, inputs, stats
        self.kinds = tuple(dict.fromkeys(self.UNIT))
        self.backends = {kind: bigmul.MulBackend(tag=MUL_BACKENDS[kind], plan=plan)
                         for kind in self.kinds}

    def unit(self, i: int) -> None:
        """One unit; the first op of a run is the digest pair where one is recorded."""
        for j, kind in enumerate(self.UNIT):
            first = i == j == 0 and self.name in DIGESTS
            source = Inputs(self.name, "digest") if first else self.inputs
            a, b = source.natural(MUL_BITS[kind]), source.natural(MUL_BITS[kind])
            big_a, big_b = bigmul.BigNat.from_int(a), bigmul.BigNat.from_int(b)
            backend = self.backends[kind]

            def check(report, a=a, b=b, kind=kind, first=first) -> bool:
                if report.oracle.to_int() != a * b:
                    return False
                product = report.product.to_int()
                if kind != "polynomial-transform":
                    return product == a * b
                spec = plan_spec(self.plan)
                if product != reference.pt_product(a, b, PT_LIMB_BITS, *spec):
                    return False
                return not first or product_digest(product) == DIGESTS[self.name]

            self.stats.run(
                kind,
                lambda x=big_a, y=big_b, backend=backend: bigmul.transform_mul(x, y, backend),
                check,
            )

    def op_seconds(self):
        return median_or_none(self.stats.scaled[self.kinds[0]])


# A unit lasts about a second, so that a calibration brackets it closely.
class KaratsubaWorkload(MulWorkload):
    name = "mul-karatsuba"
    UNIT = ("karatsuba",) * 64


class OracleNttWorkload(MulWorkload):
    # The 100,000-bit pair is refused by pack's OverflowRisk guard today; it
    # stays in every unit as a fixed share of 1/65.  Its schoolbook oracle
    # runs for about as long as 30 completed ops before the refusal.
    name = "mul-oracle-ntt"
    UNIT = ("oracle-ntt",) * 64 + ("oracle-ntt-100k",)


class PolyTransformWorkload(MulWorkload):
    name = "mul-pt"
    UNIT = ("polynomial-transform",)


WORKLOADS = {w.name: w for w in (TransformWorkload, VerifyWorkload, KaratsubaWorkload,
                                 OracleNttWorkload, PolyTransformWorkload)}

HUMAN_NAMES = {"transform": "transform_s", "verdict": "verdict_s"}


def calibrate() -> float:
    """Median wall time of five runs of a fixed pure-Python loop.

    The loop does what the program's hot paths do (small tuples, a dict,
    integer arithmetic), so it slows down with them when the host is busy.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(CAL_ITERATIONS):
            pair = (i, i * 7919 % 65521)
            table[i & 1023] = pair
            acc = (acc + pair[0] * pair[1]) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_scale(before: float) -> float:
    """CAL_REFERENCE_S over the mean of a calibration taken before and one now."""
    return CAL_REFERENCE_S / statistics.mean((before, calibrate()))


def run_units(workload, stats: Stats, seconds: float, first: int = 0, between=None) -> int:
    """Run workload units from index first until the next would likely end past seconds.

    At least one unit runs.  Each unit sits between two calibrations, and
    its ops are scaled by CAL_REFERENCE_S over their mean.  between(), if
    given, runs before each unit.  Returns the index after the last unit.
    """
    durations = []
    start = time.perf_counter()
    i = first
    while True:
        t0 = time.perf_counter()
        if between:
            between()
        before = calibrate()
        workload.unit(i)
        stats.settle(reference_scale(before))
        durations.append(time.perf_counter() - t0)
        i += 1
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return i


SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
from polyxform import bigmul, ptransform
plan_kwargs = json.loads(sys.argv[1])
if plan_kwargs is not None:
    ptransform.preprocess(**plan_kwargs)
print(time.perf_counter() - start)
"""


def make_plan(plan_kwargs):
    return None if plan_kwargs is None else ptransform.preprocess(**plan_kwargs)


def setup_once(plan_kwargs) -> float:
    """Import plus any plan construction in a fresh interpreter, at reference speed."""
    before = calibrate()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, json.dumps(plan_kwargs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) * reference_scale(before)


def delta_check(seed: int) -> bool:
    plan = ptransform.preprocess(**DELTA_PLAN)
    report = ptransform.spot_check([1] + [0] * (plan.n - 1), plan, SAMPLE, seed)
    return len(report.checks) == SAMPLE and all(
        tuple(c.pipeline) == tuple(c.oracle) == (1, 0, 0) for c in report.checks
    )


def tail(samples: list):
    """Highest of p99.9/p99/p95/p90/p75 with at least 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def latency_lines(stats: Stats, kinds) -> list:
    """Median and tail of each kind's completed ops, wall and at reference speed."""
    lines = []
    for kind in kinds:
        wall, scaled = stats.latency.get(kind), stats.scaled.get(kind)
        if not wall:
            continue
        name = HUMAN_NAMES.get(kind, f"mul_s.{kind}")
        n = len(wall)
        lines.append(f"{name}.p50 {statistics.median(wall):.6f} s wall, "
                     f"{statistics.median(scaled):.6f} s at reference speed (n={n})")
        high, high_scaled = tail(wall), tail(scaled)
        if high:
            lines.append(f"{name}.p{high[0]:g} {high[1]:.6f} s wall, "
                         f"{high_scaled[1]:.6f} s at reference speed (n={n})")
        else:
            lines.append(f"{name}.tail n/a (n={n}: no percentile has 10 samples beyond it)")
        if n <= 20:
            lines.append(f"{name} wall samples " + " ".join(f"{v:.3f}" for v in wall))
    return lines


def layer_metrics(tracer: Tracer, ops: int, scale: float, preprocess_s: float,
                  overhead) -> dict:
    """Per-layer metrics per traced op; times scaled to reference speed by scale."""
    calls = tracer.calls
    outputs = calls["ptransform.transform_elements.outputs"]
    values = {
        "ptransform.crt_per_output":
            calls["modcore.crt_reconstruct"] / (3 * outputs) if outputs else 0.0,
        "ptransform.transform_elements.self_s":
            tracer.self_seconds["ptransform.transform_elements"] * scale / ops,
        "transform.naive_dft.points": calls["transform.naive_dft.points"] / ops,
        "ptransform.preprocess.s": preprocess_s,
        "tracing.overhead_s": overhead,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]] / ops
        else:
            value = tracer.seconds[name[: -len(".s")]] * scale / ops
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def traced_run(args, inputs: Inputs, stats: Stats) -> dict:
    """Half the time untraced, half traced; per-layer metrics and tracing overhead."""
    plan_tracer = Tracer()
    before = calibrate()
    with plan_tracer:
        plan = make_plan(PLANS[args.workload])
    preprocess_s = plan_tracer.seconds["ptransform.preprocess"] * reference_scale(before)
    workload = WORKLOADS[args.workload](plan, inputs, stats)
    nxt = run_units(workload, stats, args.seconds / 2)
    untraced = workload.op_seconds()
    stats.latency.clear()
    stats.scaled.clear()
    settled = len(stats.scales)
    tracer = Tracer()
    stats.tracer = tracer
    with tracer:
        run_units(workload, stats, args.seconds / 2, first=nxt)
    stats.tracer = None
    ops = sum(len(v) for v in stats.latency.values())
    traced = workload.op_seconds()
    overhead = None if None in (traced, untraced) else traced - untraced
    scale = statistics.mean(stats.scales[settled:])
    metrics = layer_metrics(tracer, max(ops, 1), scale, preprocess_s, overhead)
    path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(path)
    print(f"{len(tracer.spans)} spans of {ops} completed traced ops written to "
          f"{path.relative_to(ROOT)}")
    print(f"op_s.p50 untraced {untraced} s, traced {traced} s at reference speed")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    return metrics


def untraced_run(args, inputs: Inputs, stats: Stats) -> dict:
    """End-to-end metrics: set-up time, median op time, peak memory."""
    plan_kwargs = PLANS[args.workload]
    workload = WORKLOADS[args.workload](make_plan(plan_kwargs), inputs, stats)
    # Set-up samples go between units, so they see the host as the ops do.
    setups = []
    run_units(workload, stats, args.seconds,
              between=lambda: setups.append(setup_once(plan_kwargs)))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(plan_kwargs))
    values = {
        "setup_s": statistics.median(setups),
        "op_s.p50": workload.op_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"setup_s {values['setup_s']:.6f} s at reference speed "
          f"(median of {len(setups)} fresh interpreters)")
    for line in latency_lines(stats, workload.kinds):
        print(line)
    if stats.refused_s:
        refused = sum(stats.refused_s)
        share = refused / (refused + sum(map(sum, stats.latency.values())))
        print(f"refused ops ran {statistics.median(stats.refused_s):.6f} s wall (median of "
              f"{len(stats.refused_s)}) before the refusal: {share:.1%} of op wall time")
    print(f"op_s.p50 {values['op_s.p50']} s at reference speed")
    print(f"peak_rss_mb {values['peak_rss_mb']:.3f} MB")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inputs = Inputs(args.workload, args.seed)
    stats = Stats()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    delta_ok = delta_check(inputs.sample_seed())
    print(f"delta check at p = 13: {'pass' if delta_ok else 'FAIL'}")
    metrics = (traced_run if args.trace else untraced_run)(args, inputs, stats)
    not_served = stats.failed + stats.refused
    print(
        f"failed_op_ratio {not_served / stats.attempted:.6f} ratio "
        f"({stats.failed} failed + {stats.refused} refused of {stats.attempted} attempted)"
    )
    for error in stats.errors[:5]:
        print(error, file=sys.stderr)
    correct = delta_ok and stats.failed == 0
    print(json.dumps({"correct": correct, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
