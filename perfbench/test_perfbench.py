"""Tests of the benchmark itself: tracing counts, failure accounting, inputs.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import run
from polyxform import bigmul, ptransform
from polyxform.errors import OverflowRisk
from tracing import Tracer


@pytest.fixture(scope="module")
def plan7():
    return ptransform.preprocess(p=7, bound_mode=ptransform.STRICT)


def test_tracer_counts_exact_calls_on_p7(plan7):
    x = run.Inputs("test", 1).coefficients(plan7.n, plan7.coeff_bound)
    original = ptransform.crt_reconstruct
    with Tracer() as tracer:
        ptransform.transform(x, plan7)
    assert ptransform.crt_reconstruct is original
    assert tracer.calls["modcore.crt_reconstruct"] == 3 * plan7.n == 1026
    assert tracer.calls["transform.naive_dft"] == 12  # 4 slots x 3 roots
    assert tracer.calls["ptransform.transform_elements.outputs"] == plan7.n
    elements = tracer.seconds["ptransform.transform_elements"]
    assert 0 < tracer.self_seconds["ptransform.transform_elements"] < elements


def test_reference_matches_program_on_p7(plan7):
    x = run.Inputs("test", 2).coefficients(plan7.n, plan7.coeff_bound)
    stats = run.Stats()
    run.TransformWorkload(plan7, run.Inputs("test", 2), stats).unit(1)
    assert (stats.attempted, stats.failed) == (1, 0)
    want = run.reference.pipeline(run.reference.naturals(x), *run.plan_spec(plan7))
    assert [tuple(int(v) for v in row) for row in want] == ptransform.transform(x, plan7)


def test_tampered_digest_is_a_failed_op(plan7, monkeypatch):
    stats = run.Stats()
    workload = run.TransformWorkload(plan7, run.Inputs("test", 1), stats)
    x = run.Inputs(workload.name, "digest").coefficients(plan7.n, plan7.coeff_bound)
    good = run.transform_digest(ptransform.transform(x, plan7))
    monkeypatch.setitem(run.DIGESTS, workload.name, good)
    workload.unit(0)
    assert (stats.attempted, stats.failed) == (1, 0)
    monkeypatch.setitem(run.DIGESTS, workload.name, "0" * 64)
    workload.unit(0)
    assert (stats.attempted, stats.failed) == (2, 1)
    assert len(stats.latency["transform"]) == 1


def test_corrupted_output_is_a_failed_op(plan7, monkeypatch):
    real = ptransform.transform

    def corrupted(x, plan):
        out = real(x, plan)
        a, b, c = out[5]
        out[5] = ((a + 1) % plan.p.q, b, c)
        return out

    monkeypatch.setattr(ptransform, "transform", corrupted)
    stats = run.Stats()
    run.TransformWorkload(plan7, run.Inputs("test", 1), stats).unit(1)
    assert (stats.attempted, stats.failed) == (1, 1)
    assert not stats.latency["transform"]


def test_overflow_risk_is_counted_not_raised():
    def refuse():
        raise OverflowRisk("injected")

    stats = run.Stats()
    stats.run("oracle-ntt-100k", refuse, lambda r: True)
    assert (stats.attempted, stats.refused, stats.failed) == (1, 1, 0)
    stats.run("oracle-ntt", refuse, lambda r: True)  # refusal where none is expected
    stats.run("karatsuba", lambda: 1 // 0, lambda r: True)
    assert (stats.attempted, stats.refused, stats.failed) == (3, 1, 2)
    assert not stats.latency


@pytest.mark.parametrize("name", ["mul-karatsuba", "mul-oracle-ntt", "mul-pt"])
def test_mul_unit_checks_every_op(name):
    stats = run.Stats()
    workload = run.WORKLOADS[name](run.make_plan(run.PLANS[name]), run.Inputs(name, 1), stats)
    workload.unit(0)  # on mul-pt, the digest pair
    assert stats.errors == []
    refused = workload.UNIT.count("oracle-ntt-100k")
    assert (stats.attempted, stats.refused, stats.failed) == (len(workload.UNIT), refused, 0)
    assert {k: len(v) for k, v in stats.latency.items()} == {
        workload.kinds[0]: len(workload.UNIT) - refused}
    assert workload.op_seconds() is None  # not yet scaled to reference speed
    stats.settle(2.0)
    completed = stats.latency[workload.kinds[0]]
    assert stats.scaled[workload.kinds[0]] == [2.0 * t for t in completed]
    assert workload.op_seconds() > 0


def test_refused_op_leaves_no_layer_totals():
    stats = run.Stats()
    a = bigmul.BigNat.from_int(run.Inputs("test", 1).natural(run.MUL_BITS["oracle-ntt-100k"]))
    backend = bigmul.MulBackend(tag=bigmul.ORACLE_NTT)
    with Tracer() as tracer:
        stats.tracer = tracer
        stats.run("oracle-ntt-100k", lambda: bigmul.transform_mul(a, a, backend), None)
    assert stats.refused == 1
    assert tracer.calls["bigmul.schoolbook_mul"] == 0
    assert tracer.seconds["bigmul.schoolbook_mul"] == 0
    assert [span[3] for span in tracer.spans] == ["bigmul.schoolbook_mul", "bigmul.pack", "oracle-ntt-100k"]


def test_delta_check_passes():
    assert run.delta_check(seed=3)


def test_inputs_repeat_per_seed_and_differ_across_seeds():
    def draw(seed):
        inputs = run.Inputs("verify-p19", seed)
        return (inputs.coefficients(50, 30), inputs.natural(64), inputs.sample_seed())

    assert draw(1) == draw(1)
    assert draw(1) != draw(2)


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail([float(v) for v in range(40)]) == (75, 29.0)
    assert run.tail([float(v) for v in range(1000)])[0] == 99
