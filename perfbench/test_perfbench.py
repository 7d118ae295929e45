"""Tests of the benchmark itself: its checks catch wrong answers, its inputs
are reproducible, and its tracer sees calls made through imported names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from perfbench import workloads as w
from perfbench.tracing import Tracer, layer_metrics

ob = w.ob


@pytest.fixture(scope="module")
def decoded():
    phi, y = w.gaussian_instance(3, w.STREAM_BODY, 0, w.SCALED)
    sol, cert = w.DecodeLarge.run(w.Op("body", 0, (phi, y)))
    return phi, y, sol, cert


def test_decode_check_accepts_the_true_answer(decoded):
    phi, y, sol, cert = decoded
    pytest.importorskip("scipy")
    assert cert.unique
    assert w.decode_problems(phi, y, sol, cert, w.highs_objective(phi, y)) == []


def test_decode_check_flags_a_sign_flipped_output(decoded):
    phi, y, sol, cert = decoded
    flipped = dataclasses.replace(sol, x=-sol.x)
    problems = w.decode_problems(phi, y, flipped, cert, w.SKIPPED)
    assert "output not sign-consistent" in problems


def test_decode_check_flags_a_perturbed_objective(decoded):
    phi, y, sol, cert = decoded
    pytest.importorskip("scipy")
    off = dataclasses.replace(sol, objective=sol.objective * (1 + 1e-4))
    problems = w.decode_problems(phi, y, off, cert, w.highs_objective(phi, y))
    assert any(p.startswith("objective") for p in problems)


def test_decode_check_flags_a_non_optimal_status(decoded):
    phi, y, sol, cert = decoded
    stalled = ob.BPSolution(status=ob.STALLED)
    assert w.decode_problems(phi, y, stalled, None, w.SKIPPED) == ["status stalled"]


def test_scaled_check_compares_with_the_unscaled_answer(decoded):
    phi, y, sol, cert = decoded
    c = 2.0
    scaled = dataclasses.replace(sol, x=sol.x / c, objective=sol.objective / c)
    assert w.scaled_problems(c, scaled, cert, sol, cert) == []
    assert w.scaled_problems(c, sol, cert, sol, cert) == ["output is not x/c"]


def _pool_answer(index):
    phi, y = w.sweep_instance(w.SWEEP_POOL_ENTROPY, index)
    entry = w.load_sweep_reference()[index]
    assert entry.shape == phi.shape
    return phi, y, w.sweep(phi, y), entry.digest, entry.verdicts


def test_sweep_check_accepts_the_recorded_verdicts():
    for index in range(5):
        phi, y, result, digest, expected = _pool_answer(index)
        assert w.input_digest(phi, y) == digest
        assert w.sweep_problems(phi, y, result, expected) == []


def test_sweep_check_flags_a_flipped_verdict():
    phi, y, (verdicts, witnesses, violations), _, expected = _pool_answer(0)
    flipped = dataclasses.replace(verdicts, rrsp_wrt_y=not verdicts.rrsp_wrt_y)
    problems = w.sweep_problems(phi, y, (flipped, witnesses, violations), expected)
    assert len(problems) == 1 and problems[0].startswith("verdicts")


def test_sweep_check_flags_a_bad_violation_direction():
    for index in range(50):
        phi, y, (verdicts, witnesses, violations), _, expected = _pool_answer(index)
        if violations:
            row, d = violations[0]
            bad = [(row, np.zeros_like(d))]
            problems = w.sweep_problems(phi, y, (verdicts, witnesses, bad), expected)
            assert problems == [f"relaxation violation at row {row} fails substitution"]
            return
    pytest.fail("no relaxation violation among the first pool instances")


def test_experiment_check_flags_an_inconsistent_bp_record():
    records, _ = w.experiment(w.experiment_config(w.WARMUP_ENTROPY, 1, trials=2))
    assert w.experiment_problems(records) == []
    bp = next(r for r in records if r.decoder == "bp" and r.status == ob.OPTIMAL)
    broken = [dataclasses.replace(bp, consistent=False)]
    assert len(w.experiment_problems(broken)) == 1


def test_stratified_order_keeps_each_prefix_mixed():
    strata = [i % 3 == 0 for i in range(300)]
    order = w.stratified_order(strata, np.random.default_rng(1))
    assert sorted(order) == list(range(300))
    for length in (10, 50, 101):
        share = sum(strata[i] for i in order[:length]) / length
        assert abs(share - 1 / 3) <= 1.5 / length


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name):
    def digests(seed):
        plan = w.make(name, seed).plan()
        return [w.input_digest(*(a for a in next(plan).inputs if isinstance(a, np.ndarray)))
                if name != "experiment-mid" else repr(next(plan).inputs[0])
                for _ in range(16)]

    assert digests(5) == digests(5)
    assert digests(5) != digests(6)


def test_tracer_sees_calls_through_imported_names_and_accounts_for_wall():
    cfg = w.experiment_config(w.WARMUP_ENTROPY, 1, trials=1)
    with Tracer() as tracer:
        t0 = time.perf_counter_ns()
        w.experiment(cfg)
        wall = time.perf_counter_ns() - t0
    assert ob.experiment.one_bit_bp is ob.decoders.one_bit_bp  # restored
    m = layer_metrics(tracer.names, tracer.spans, wall)
    # experiment calls one_bit_bp and uniqueness_certificate by imported name.
    assert m["decoders.one_bit_bp.calls"][0] == 1
    assert m["certify.uniqueness_certificate.calls"][0] == 1
    assert m["decoders.relaxation_gd.calls"][0] == 1
    assert m["lp.solve.calls"][0] >= 3
    assert math.isclose(m["trace.accounted_share"][0], 1.0, rel_tol=1e-9)
    assert m["bench.self_ms"][0] >= 0.0
