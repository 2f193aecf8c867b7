"""Experiment runner CLI.

Every subcommand emits a machine-readable report (JSON by default, CSV
for bench tables).  Reports are deterministic under a fixed seed; wall
times live in an isolated "timing" section so the rest of the document
is byte-comparable across runs.

Each cmd_* only computes: it returns its results, its exit code and the
claim it would record.  `main` does the rest once: the report's config is
the parsed arguments minus _NOT_CONFIG, the report is written to stdout
or `--out`, and then `--update-ledger` records the claim.

Exit codes: 0 success, 2 usage error (including a path that cannot be
read or written, and an operand pair a backend refuses), 3 plan failure,
4 oracle mismatch in a mode that asserts exactness.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
import time
from pathlib import Path

import numpy as np

from . import bigmul, claims, ptransform
from .errors import PolyxformError, PrimeSupplyExhausted, UsageError
from .extension import is_cube
from .modcore import PrimeModulus, _as_int, cost_model, sieve_atkin, trial_division_primes

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PLAN = 3
EXIT_MISMATCH = 4

# Parsed arguments that steer where a report goes, not what it computes.
_NOT_CONFIG = frozenset(
    {"command", "func", "format", "out", "plan_out", "update_ledger", "ledger"}
)


def _render(report: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = report["results"]["rows"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# Each cmd_* returns (results, exit code, claim); claim is None or the
# (claim_id, verdict, evidence) that --update-ledger records.
def cmd_sieve(args) -> tuple:
    primes = sieve_atkin(args.limit)
    results = {
        "limit": args.limit,
        "count": len(primes),
        "agreement": primes == trial_division_primes(args.limit),
        "first": list(primes[:10]),
        "last": list(primes[-3:]),
    }
    return results, EXIT_OK if results["agreement"] else EXIT_MISMATCH, None


def cmd_plan(args) -> tuple:
    plan = ptransform.preprocess(
        n_target=args.n_target,
        p=args.p,
        seed=args.seed,
        coeff_bound=args.coeff_bound,
    )
    plan_text = ptransform.plan_to_json(plan)
    if args.plan_out:
        Path(args.plan_out).write_text(plan_text)
    results = {
        "p": plan.p.q,
        "y": plan.y.value,
        "n": plan.n,
        "alpha": len(plan.slots),
        "primes": [s.q.q for s in plan.slots],
        "prime_product": plan.prime_product,
        "nine_p6": plan.target_bound,
        "exceeds_nine_p6": plan.prime_product > plan.target_bound,
        "plan": json.loads(plan_text),
    }
    return results, EXIT_OK, None


def _load_plan(path: str) -> ptransform.PTPlan:
    try:
        return ptransform.plan_from_json(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, or bytes not UTF-8
        raise UsageError(f"cannot read plan file {path}: {exc}") from exc


def cmd_verify(args) -> tuple:
    if args.update_ledger and args.input == "delta":
        raise UsageError("--update-ledger records random input only; delta is a control")
    plan = _load_plan(args.plan)
    if args.input == "delta":
        x = np.zeros(plan.n, dtype=np.int64)
        x[0] = 1
    else:
        x = np.random.default_rng(args.seed).integers(0, plan.coeff_bound + 1, size=plan.n)
    report = ptransform.spot_check(x, plan, sample=args.sample, seed=args.seed)
    evidence = (
        f"verify --plan p={plan.p.q} --input {args.input} --sample "
        f"{args.sample} --seed {args.seed}: "
        f"{report.matches}/{len(report.checks)} outputs matched"
    )
    return report.to_dict(), EXIT_OK, ("s2-pipeline-correctness", report.verdict, evidence)


def cmd_mul(args) -> tuple:
    if args.update_ledger and args.backend != bigmul.POLY_TRANSFORM:
        raise UsageError("--update-ledger records the polynomial-transform backend only")
    if args.plan and args.backend != bigmul.POLY_TRANSFORM:
        raise UsageError("--plan is taken by the polynomial-transform backend only")
    a, b = bigmul.BigNat.from_hex(args.a), bigmul.BigNat.from_hex(args.b)
    plan = _load_plan(args.plan) if args.plan else None
    backend = bigmul.MulBackend(tag=args.backend, plan=plan)
    report = bigmul.transform_mul(a, b, backend)
    results = {
        "backend": args.backend,
        "a": a.to_hex(),
        "b": b.to_hex(),
        "product": report.product.to_hex(),
        "oracle": report.oracle.to_hex(),
        "verdict": report.verdict,
        "extra": report.extra,
    }
    if args.backend != bigmul.POLY_TRANSFORM:  # an exact backend
        return results, EXIT_OK if report.verdict == "match" else EXIT_MISMATCH, None
    evidence = (
        f"mul --a {args.a} --b {args.b} --backend {args.backend} --plan "
        f"p={plan.p.q}: backend returned a "
        f"{len(results['product']) - 2}-digit hex value vs oracle "
        f"{results['oracle']} ({report.verdict}); "
        f"{report.extra['outputs_with_nonreal_components']} of {plan.n} "
        f"inverse-transform outputs carried nonzero root components; "
        f"packing utilization {report.extra['utilization']:.4f}"
    )
    verdict = "confirmed" if report.verdict == "match" else "refuted"
    return results, EXIT_OK, ("s5-multiplication", verdict, evidence)


def cmd_bench(args) -> tuple:
    rng = random.Random(args.seed)
    rows = []
    for bits in args.sizes:
        a = bigmul.BigNat.from_int(rng.getrandbits(bits) | (1 << (bits - 1)))
        b = bigmul.BigNat.from_int(rng.getrandbits(bits) | (1 << (bits - 1)))
        for tag in args.backends:
            backend = bigmul.MulBackend(tag=tag)
            best = math.inf
            for _ in range(args.repetitions):
                t0 = time.perf_counter()
                report = bigmul.transform_mul(a, b, backend)
                best = min(best, time.perf_counter() - t0)
                if report.verdict != "match":
                    raise PolyxformError(f"backend {tag} mismatched at {bits} bits")
            rows.append(
                {
                    "bits": bits,
                    "backend": tag,
                    "limb_ops": report.extra["limb_ops"],
                    "best_wall_seconds": f"{best:.6f}",
                }
            )
    return {"rows": rows}, EXIT_OK, None


def singularity_experiment(q: PrimeModulus, trials: int, seed: int) -> dict:
    """Fraction of random 3x3 circulants mod q that are singular.

    Trials are partitioned into fixed-size chunks with per-chunk seeds,
    counted in chunk order.
    """
    _as_int(trials, "trials", 1)
    _as_int(seed, "a seed", 0)
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


def cmd_experiments(args) -> tuple:
    if args.which == "density":
        p = PrimeModulus(103 if args.p is None else args.p)
        if p.q % 3 != 1:
            raise UsageError("density experiment needs p = 1 mod 3")
        noncubes = sum(1 for v in range(1, p.q) if not is_cube(p.residue(v)))
        results = {
            "p": p.q,
            "noncubes": noncubes,
            "fraction": noncubes / (p.q - 1),
            "reference": 2 / 3,
            "exact_two_thirds": 3 * noncubes == 2 * (p.q - 1),
        }
        verdict = "confirmed" if results["exact_two_thirds"] else "refuted"
        claim = "s3-noncube-density"
        evidence = f"experiments density --p {p.q}: {noncubes}/{p.q - 1} non-cubes"
    elif args.which == "singularity":
        q = PrimeModulus(103 if args.q is None else args.q)
        results = singularity_experiment(q, args.trials, args.seed)
        ok = abs(results["fraction"] - 1 / q.q) < 5 / math.sqrt(args.trials)
        results["within_statistical_tolerance"] = ok
        verdict = "confirmed" if ok else "refuted"
        claim = "s3-circulant-singularity"
        evidence = (
            f"experiments singularity --q {q.q} --trials {args.trials} "
            f"--seed {args.seed}: fraction {results['fraction']:.6f} vs 1/q "
            f"{1 / q.q:.6f}"
        )
    else:  # cost-model
        bounds = [1000, 10000] if args.bounds is None else args.bounds
        rows = []
        for bound in bounds:
            est = cost_model(bound)
            rows.append(
                {
                    "bound": bound,
                    "sum_q_log_q": est.sum_q_log_q,
                    "sum_q_squared": est.sum_q_squared,
                    "pred_q_log_q": bound**2 * math.log(bound) ** 2,
                    "pred_q_squared": bound**3 / math.log(bound**3),
                }
            )
        a, b = rows[0], rows[-1]
        ratios = {
            "measured_qlogq_ratio": b["sum_q_log_q"] / a["sum_q_log_q"],
            "predicted_qlogq_ratio": b["pred_q_log_q"] / a["pred_q_log_q"],
            "measured_qsq_ratio": b["sum_q_squared"] / a["sum_q_squared"],
            "predicted_qsq_ratio": b["pred_q_squared"] / a["pred_q_squared"],
        }
        results = {"bounds": rows, "ratios": ratios}
        within = all(
            0.5 < ratios[f"measured_{k}_ratio"] / ratios[f"predicted_{k}_ratio"] < 2.0
            for k in ("qlogq", "qsq")
        )
        results["scaling_within_factor_two"] = within
        verdict = "confirmed" if within else "refuted"
        claim = "s3-prime-sum-scaling"
        evidence = f"experiments cost-model --bounds {','.join(map(str, bounds))}"
    return results, EXIT_OK, (claim, verdict, evidence)


# argparse types: each checks the form of one argument, so a form error exits
# 2 from argparse before any command runs.  Rules that relate two arguments
# stay in the commands.
def _ints(name: str, minimum: int, items: int = 0):
    """The type of an integer >= minimum or, when items > 0, of a comma-separated
    list of at least that many (empty items are skipped)."""
    form = f"a comma-separated list of {items} or more integers" if items else "an integer"

    def parse(text: str):
        try:
            values = [int(s) for s in text.split(",") if s] if items else [int(text)]
            if len(values) >= items and min(values) >= minimum:
                return values if items else values[0]
        except ValueError:  # an item is not an integer
            pass
        raise argparse.ArgumentTypeError(f"{name} must be {form} >= {minimum}, not {text!r}")

    return parse


def _bounds(text: str) -> list:
    """The type of --bounds: the cost model's ratios divide its last bound's sums by
    its first's, so those two differ, and each is >= 3 (no prime lies below 2)."""
    bounds = _ints("bounds", 3, items=2)(text)
    if bounds[0] == bounds[-1]:
        raise argparse.ArgumentTypeError(f"the first and last bounds must differ, not {text!r}")
    return bounds


# The exact backends, which need no plan: the ones bench can time.
_EXACT_BACKENDS = (bigmul.SCHOOLBOOK, bigmul.KARATSUBA, bigmul.ORACLE_NTT)


def _backends(text: str) -> list:
    """The type of bench's --backends: a non-empty comma-separated list of _EXACT_BACKENDS."""
    backends = [b for b in text.split(",") if b]
    if not backends or not set(backends) <= set(_EXACT_BACKENDS):
        raise argparse.ArgumentTypeError(f"bench times {', '.join(_EXACT_BACKENDS)}, not {text!r}")
    return backends


def _hex(text: str) -> str:
    """The type of mul's operands: the hex text of a natural, kept as given."""
    try:
        if int(text, 16) >= 0:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"operands must be hexadecimal naturals, not {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyxform",
        description="Finite-field transform laboratory: experiments and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="", help="report path (default stdout)")

    def ledger(sp):
        sp.add_argument("--update-ledger", action="store_true")
        sp.add_argument("--ledger", default=None)

    sp = sub.add_parser("sieve", help="run the prime sieve against its oracle")
    sp.add_argument("--limit", type=_ints("limit", 2), required=True)
    common(sp)
    sp.set_defaults(func=cmd_sieve)

    sp = sub.add_parser("plan", help="build and serialize a transform plan")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--n-target", type=int, default=None)
    sp.add_argument("--coeff-bound", type=int, default=None)
    sp.add_argument("--plan-out", default="", help="where to write the plan JSON")
    sp.add_argument("--seed", type=_ints("seed", 0), default=0)
    common(sp)
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("verify", help="spot-check a plan against the oracle DFT")
    sp.add_argument("--plan", required=True)
    sp.add_argument("--input", choices=("random", "delta"), default="random")
    sp.add_argument("--sample", type=int, default=16)
    sp.add_argument("--seed", type=_ints("seed", 0), default=0)
    ledger(sp)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("mul", help="multiply two hex naturals via a backend")
    sp.add_argument("--a", type=_hex, required=True)
    sp.add_argument("--b", type=_hex, required=True)
    sp.add_argument(
        "--backend", choices=(*_EXACT_BACKENDS, bigmul.POLY_TRANSFORM), default=bigmul.SCHOOLBOOK
    )
    sp.add_argument("--plan", default="")
    ledger(sp)
    common(sp)
    sp.set_defaults(func=cmd_mul)

    sp = sub.add_parser("bench", help="wall time and limb-op counts per backend")
    sp.add_argument("--sizes", type=_ints("sizes", 1, items=1), required=True,
                    help="comma-separated bit sizes")
    sp.add_argument("--backends", type=_backends, default=[bigmul.SCHOOLBOOK, bigmul.KARATSUBA])
    sp.add_argument("--repetitions", type=_ints("repetitions", 1), default=3)
    sp.add_argument("--seed", type=_ints("seed", 0), default=0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("experiments", help="density / singularity / cost-model")
    sp.add_argument("--which", choices=("density", "singularity", "cost-model"), required=True)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=_ints("seed", 0), default=0)
    sp.add_argument("--bounds", type=_bounds, default=None)
    ledger(sp)
    common(sp)
    sp.set_defaults(func=cmd_experiments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        start = time.perf_counter()
        results, code, claim = args.func(args)
        record = claim is not None and args.update_ledger
        if record:
            results["ledger_entry"] = {"claim_id": claim[0], "verdict": claim[1]}
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG},
            "results": results,
            "timing": {"wall_seconds": time.perf_counter() - start},
        }
        # the ledger read before the report is written and saved after it,
        # so a refused ledger or --out path leaves the ledger as it was
        text = _render(report, getattr(args, "format", "json"))
        ledger = claims.set_verdict(*claim, path=args.ledger) if record else None
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        if record:
            claims.save_ledger(ledger, args.ledger)
        return code
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrimeSupplyExhausted as exc:
        print(f"plan error: {exc}", file=sys.stderr)
        return EXIT_PLAN
    except PolyxformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
