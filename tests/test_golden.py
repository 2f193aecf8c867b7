"""Golden digests: SHA-256 of outputs the pipeline must keep, bit for bit.

The pipeline's outputs are not the honest DFT (spot_check reports that), so
no formula pins them; these digests do.  Each hashes fixed seeded inputs
through the public API, so a refactor of any stage that changes one output
bit fails here.  A change that means to change outputs records new digests
and says why.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from polyxform import bigmul, ptransform


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(array: np.ndarray) -> str:
    """Digest of an int64 array's shape and little-endian bytes."""
    array = np.ascontiguousarray(array, dtype="<i8")
    return sha256(repr(array.shape).encode() + array.tobytes())


def natural_input(plan, seed):
    """n naturals in [0, coeff_bound] from numpy's generator at seed."""
    return np.random.default_rng(seed).integers(0, plan.coeff_bound + 1, size=plan.n)


@pytest.mark.parametrize("p, want", [
    # p = 7 (primes [43, 109, 127, 157]) was checked equal to the boxed
    # composition at all 342 rows when its digest was recorded
    (7, "391ca42b41d4229575ed793d4dea096c2ae92eb38366d0ec7d855a2082b7b65b"),
    (43, "b3129366a634fcbf069405275a5cda610323e90d98ffce51f79c8ed84ac5a673"),
    # the headline scale, n = 1,092,726: 267 final-combine row blocks, the
    # last one short; recorded at 16,384-row blocks and equal at 4,096
    (103, "90634c50469f7704af28c431afead815a76a8382f5e30a7e8721663dfec7aa5f"),
])
def test_all_n_strict_transform_digest(p, want):
    plan = ptransform.preprocess(p=p)
    column = natural_input(plan, p)[:, None]
    assert array_digest(ptransform.transform_elements(column, plan)) == want


def test_sampled_strict_transform_digest():
    # repeated and out-of-order rows at p = 103, n = 1,092,726
    plan = ptransform.preprocess(p=103)
    rng = random.Random(103)
    rows = [plan.n - 1, 0, 5, 5] + [rng.randrange(plan.n) for _ in range(12)]
    column = natural_input(plan, 103)[:, None]
    assert array_digest(ptransform.transform_elements(column, plan, rows)) == (
        "f3451c5d865fd993e6afd743c99f1da15b8a5f13430ce0b42f577696041f45bb"
    )


def test_sampled_strict_digest_of_62_bit_input():
    # int64 input up to 2^62 on the strict p = 13 plan: its peak is past 2^49,
    # so the slot stage reduces each block mod q before it folds
    plan = ptransform.preprocess(p=13, coeff_bound=2**62)
    rng = random.Random(70)
    column = np.array([rng.getrandbits(62) for _ in range(plan.n)], dtype=np.int64)[:, None]
    rows = [plan.n - 1, 0, 5, 5, 1000, 17]
    assert array_digest(ptransform.transform_elements(column, plan, rows)) == (
        "5b5039d486e22f85882f084c1a5d61c23305ed092d267aa1728c842510bf10ac"
    )


def test_input_aware_round_trip_digest(plan13):
    # forward on naturals, then the inverse plan on the (n, 3) forward output
    column = natural_input(plan13, 13)[:, None]
    forward = ptransform.transform_elements(column, plan13)
    back = ptransform.transform_elements(forward, ptransform.inverse_plan(plan13))
    assert (array_digest(forward), array_digest(back)) == (
        "d7cdb4ae78dfe1351d3de1171787c6cef6d497701372ff7972e226e769fb3da7",
        "cc6e2d0da4a9c0b1c314c2ce57a4be45dfe70d4bf74ade24b26504a2510bac6a",
    )


def test_spot_check_report_digest():
    plan = ptransform.preprocess(p=19)
    report = ptransform.spot_check(natural_input(plan, 19).tolist(), plan, sample=16, seed=2)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert sha256(text.encode()) == (
        "b13a44a77d0a956b40757b105a9c0f4bfe3739b9e2580a39fb5556a2594ab66d"
    )


def test_polynomial_transform_products_digest(plan13):
    # ten products through the backend `mul --backend polynomial-transform`
    # runs, with the extras it reports, on operands of 1 to 2,000 bits
    rng = np.random.default_rng(10)
    backend = bigmul.MulBackend(bigmul.POLY_TRANSFORM, plan13)
    lines = []
    for bits in (1, 2, 12, 12, 64, 100, 500, 1000, 1500, 2000):
        a, b = (int.from_bytes(rng.bytes(bits // 8 + 1), "little") % 2**bits for _ in "ab")
        report = bigmul.transform_mul(bigmul.BigNat.from_int(a), bigmul.BigNat.from_int(b), backend)
        lines.append(json.dumps(
            [hex(a), hex(b), report.product.to_hex(), report.verdict, report.extra],
            sort_keys=True,
        ))
    assert sha256("\n".join(lines).encode()) == (
        "4404303af1b1eb3445b1d6dde1a8a8f3eed002213645c573d01bef18cf867225"
    )


def exact_operand_pairs():
    """Zero, one-limb, unbalanced, all-ones and random operands up to 20,000
    bits, each pair in both orders."""
    rng = random.Random(20_000)
    ones = [(1 << bits) - 1 for bits in (64, 1000, 1025, 5000, 20_000)]
    pairs = [(0, 0), (0, ones[3]), (1, ones[4]), (ones[0], rng.getrandbits(20_000))]
    pairs += [(ones[4], 7), (rng.getrandbits(20_000), rng.getrandbits(640))]
    pairs += [(a, a) for a in ones] + [(ones[1], ones[2]), (ones[3], ones[4])]
    for bits in (100, 1500, 4000, 10_000, 19_923):
        pairs.append((rng.getrandbits(bits), rng.getrandbits(bits + 77)))
    return pairs + [(b, a) for a, b in pairs]


def test_exact_backend_products_digest(monkeypatch):
    # product and limb_ops of schoolbook, of karatsuba with its base case at
    # 2, 4 and 16 limbs, and of oracle-ntt, on every pair
    backends = [(bigmul.SCHOOLBOOK, None), (bigmul.ORACLE_NTT, None)]
    backends += [(bigmul.KARATSUBA, threshold) for threshold in (2, 4, 16)]
    lines = []
    for tag, threshold in backends:
        if threshold is not None:
            monkeypatch.setattr(bigmul, "KARATSUBA_THRESHOLD", threshold)
        for a, b in exact_operand_pairs():
            report = bigmul.transform_mul(
                bigmul.BigNat.from_int(a), bigmul.BigNat.from_int(b), bigmul.MulBackend(tag)
            )
            assert report.verdict == "match"
            lines.append(json.dumps([tag, threshold, report.product.to_hex(), report.extra]))
    assert sha256("\n".join(lines).encode()) == (
        "9ad786a3ebcb04297c1f6b531a946b2bf46c6db6a9dba3118fed56304bca300e"
    )


def top_bit_natural(rng, bits):
    return rng.getrandbits(bits) | (1 << (bits - 1))


def test_karatsuba_and_schoolbook_goldens():
    # recorded before the batched digit kernel replaced the limb loop: at the
    # default threshold, limb_ops and the SHA-256 of each product's hex
    rng = random.Random(2023)
    karatsuba = [
        ("10,000 bits", 10_000, 10_000, 8187,
         "a75f71332759ce20662fe1a565fc4cee344d036df59512cf3126dc1705bcb2da"),
        ("10,000 bits", 10_000, 10_000, 8176,
         "ed7f7d597e789caa98e730e0c7855cabf48ca8c60624bc699c052fea369cb186"),
        ("100,000 bits, 2,187 base cases", 100_000, 100_000, 342889,
         "13893118e5ffd31f5df12b4151ca1ad8381984c3b11ee2719871dd46020225ba"),
        ("17 x 2^14 limbs", 17 * 64, 16_384 * 64, 276461,
         "b81d0adea1418b98fe063131cd296aa6ca1f28cb016653f67f76be13ce1e16be"),
    ]
    for name, bits_a, bits_b, ops, digest in karatsuba:
        a, b = top_bit_natural(rng, bits_a), top_bit_natural(rng, bits_b)
        product, got_ops = bigmul.karatsuba_mul(bigmul.BigNat(a), bigmul.BigNat(b))
        assert (got_ops, sha256(product.to_hex().encode())) == (ops, digest), name
    schoolbook = [
        (1024, 256, "0636f638d6591f586f559a6d571ccdb110e16586722444cf8f48f8f7863ca148"),
        (65_536, 1_048_576, "418bed6f8ff02930885f35cf1e93b2077a223d1c806c228995118fcb508583bd"),
    ]
    for bits, ops, digest in schoolbook:
        a, b = top_bit_natural(rng, bits), top_bit_natural(rng, bits)
        report = bigmul.transform_mul(
            bigmul.BigNat(a), bigmul.BigNat(b), bigmul.MulBackend(bigmul.SCHOOLBOOK)
        )
        assert report.verdict == "match"
        assert (report.extra["limb_ops"], sha256(report.product.to_hex().encode())) == (
            ops, digest
        ), bits
