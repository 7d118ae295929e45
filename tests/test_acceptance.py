"""Acceptance gate: one test per criterion, strictest tolerances pinned.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Instance generators are seeded; nothing here depends on
wall-clock state beyond the explicit runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from onebitcs import lp
from onebitcs.certify import (
    SUFFICIENT,
    pattern_witness,
    rrsp_order_k,
    rrsp_wrt_y,
    uniqueness_certificate,
)
from onebitcs.decoders import encode_bp_lp, one_bit_bp
from onebitcs.experiment import ExperimentConfig, csv_lines, run_experiment, summary_json
from onebitcs.oracle import enumerate_P, enumerate_Yk, l0_min, lp_vertex_oracle
from onebitcs.repro import repro_example
from onebitcs.signmodel import SignMeasurement, is_consistent, sign_standard, signed_support

FLAGSHIP = np.array([[2., -1., 0., 2.], [-1., 1., 1., 0.]])
FLAGSHIP_Y = np.array([1, -1])


def test_criterion_1_counterexample_integer_exact():
    """The built-in audit proves, in integer arithmetic, that the relaxation
    cone holds points whose sign image differs from the measurement under
    both conventions, with the explicit cone direction d = (1, 1, 0, 0)."""
    t0 = time.perf_counter()
    report = repro_example()
    elapsed = time.perf_counter() - t0
    by_name = {c.name: c for c in report.checks}
    assert by_name["relaxation point alpha=1"].passed
    assert by_name["relaxation point alpha=2"].passed
    assert by_name["integer witness d"].passed
    assert by_name["audit nonstandard_x"].passed
    assert by_name["audit nonstandard_phix"].passed
    assert report.passed
    assert elapsed < 1.0


def test_criterion_2_bp_optimum_and_non_uniqueness():
    t0 = time.perf_counter()
    meas = SignMeasurement.from_y(FLAGSHIP_Y)
    sol = one_bit_bp(FLAGSHIP, meas)
    assert sol.status == lp.OPTIMAL
    assert abs(sol.objective - 1.0) <= 1e-8

    problem, _ = encode_bp_lp(FLAGSHIP, meas)
    oracle = lp_vertex_oracle(problem)
    assert oracle.status == lp.OPTIMAL
    assert abs(sol.objective - oracle.objective_value) <= 1e-8

    assert is_consistent(FLAGSHIP, sol.x, meas)

    report = uniqueness_certificate(FLAGSHIP, meas, sol.x)
    assert not report.unique

    lp_sol = lp.solve(problem)
    alt = lp.alternative_optimum(problem, lp_sol)
    assert alt is not None
    assert abs(problem.c @ alt - sol.objective) <= 1e-7
    assert np.linalg.norm(alt - lp_sol.primal) > 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0


def test_criterion_3_simplex_equals_vertex_oracle_on_random_lps():
    """200 seeded integer LPs: status labels agree exactly and optimal
    objectives match to 1e-7, with zero exceptions."""
    rng = np.random.default_rng(20260816)
    mismatched = []
    optimal = 0
    for idx in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-3, 4, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        rels = [("<=", ">=", "=")[int(t)] for t in rng.integers(0, 3, size=m)]
        free = rng.random(n) < 0.3
        sense = "min" if rng.random() < 0.5 else "max"
        p = lp.LPProblem.from_rows(c, list(zip(a, rels, b)), sense=sense, free=free)
        s = lp.solve(p)
        o = lp_vertex_oracle(p)
        if s.status != o.status:
            mismatched.append((idx, s.status, o.status))
            continue
        if s.status == lp.OPTIMAL:
            optimal += 1
            if abs(s.objective_value - o.objective_value) > 1e-7:
                mismatched.append((idx, s.objective_value, o.objective_value))
    assert mismatched == []
    assert optimal >= 30


def test_criterion_4_certificate_versus_alternative_optimum_search(rank_profile, boundary_h):
    """300 seeded decoder instances: the uniqueness certificate and the
    20-restart second-optimum search agree at >= 99%, and any disagreement
    sits within 10x of the margin or rank-pivot tolerance."""
    rng = np.random.default_rng(314159)
    t0 = time.perf_counter()
    agree = 0
    disagreements = []
    done = 0
    while done < 300:
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        phi = rng.normal(size=(m, n))
        y = sign_standard(phi @ rng.normal(size=n))
        meas = SignMeasurement.from_y(y)
        if meas.is_zero():
            continue
        sol = one_bit_bp(phi, meas)
        if sol.status != lp.OPTIMAL or np.abs(sol.x).max() < 1e-9:
            continue
        done += 1
        report = uniqueness_certificate(phi, meas, sol.x)
        problem, x_of = encode_bp_lp(phi, meas)
        lp_sol = lp.solve(problem)
        alt = lp.alternative_optimum(problem, lp_sol)
        found_second = alt is not None and np.linalg.norm(x_of(alt) - sol.x) > 1e-6
        if report.unique == (not found_second):
            agree += 1
        else:
            _, pivots = rank_profile(boundary_h(phi, meas, report))
            disagreements.append({
                "instance": done,
                "unique": report.unique,
                "second_found": found_second,
                "margin": report.margin,
                "min_pivot": float(pivots.min()) if pivots.size else 0.0,
            })
    elapsed = time.perf_counter() - t0
    for d in disagreements:
        print("certificate disagreement:", d)
        near_margin = abs(d["margin"]) <= 10 * 1e-8
        near_rank = d["min_pivot"] <= 10 * 1e-9
        assert near_margin or near_rank, d
    assert agree / done >= 0.99
    assert elapsed < 60.0


def _seeded_small_instances(rng, count):
    """Mixed family at m <= 6, n <= 6: identities, row-sparse draws, and
    dense gaussians, so the sufficient-property filter keeps a healthy set."""
    out = []
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            n = int(rng.integers(2, 4))
            phi = np.eye(n)
            x = np.zeros(n)
            supp = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
            x[supp] = rng.normal(size=supp.size)
        elif kind == 1:
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            phi = np.zeros((m, n))
            for i in range(m):
                v = 0.0
                while abs(v) < 0.3:
                    v = rng.normal()
                phi[i, rng.integers(0, n)] = v
            x = rng.normal(size=n)
        else:
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            phi = rng.normal(size=(m, n))
            x = rng.normal(size=n)
        y = sign_standard(phi @ x)
        meas = SignMeasurement.from_y(y)
        if not meas.is_zero():
            out.append((phi, meas))
    return out


def test_criterion_5_sufficient_property_forces_support_and_sign_recovery():
    """Wherever the for-all dual-witness property holds at sparsity k <= 2,
    the decoder output's support is contained in every k-sparse consistent
    signal's support, and its signs match every sparsest consistent signal."""
    rng = np.random.default_rng(271828)
    qualifying = 0
    for phi, meas in _seeded_small_instances(rng, 400):
        k = 2
        ok, _ = rrsp_wrt_y(phi, meas, k, SUFFICIENT)
        if not ok:
            continue
        patterns = enumerate_P(phi, meas, k)
        if not patterns:
            continue
        qualifying += 1
        sol = one_bit_bp(phi, meas)
        assert sol.status == lp.OPTIMAL
        support_hat = set(np.flatnonzero(np.abs(sol.x) > 1e-8).tolist())
        sp_hat, sm_hat = signed_support(sol.x)

        for sp, sm in patterns:
            x_star = pattern_witness(phi, meas, sp, sm)
            assert x_star is not None
            support_star = set(sp) | set(sm)
            assert support_hat <= support_star

        sparsest = l0_min(phi, meas, k_max=k)
        assert not math.isinf(sparsest.value)
        for (wsp, wsm), _x in sparsest.witnesses:
            assert tuple(sp_hat) == wsp
            assert tuple(sm_hat) == wsm
    assert qualifying >= 10


def _row_sparse_4x4_stream(rng):
    while True:
        phi = np.zeros((4, 4))
        for i in range(4):
            v = 0.0
            while abs(v) < 0.3:
                v = rng.normal()
            phi[i, rng.integers(0, 4)] = v
        yield phi


def test_criterion_6_uniform_one_sparse_recovery_on_certified_matrices():
    """Identity matrices and five seeded 4x4 draws certified by the order-1
    for-all property recover every 1-sparse signal's sign over the whole
    nonzero 1-sparse measurement image."""
    matrices = [np.eye(2), np.eye(3)]
    rng = np.random.default_rng(161803)
    stream = _row_sparse_4x4_stream(rng)
    found = 0
    tried = 0
    while found < 5:
        phi = next(stream)
        tried += 1
        assert tried <= 200, "certified 4x4 instances should be plentiful"
        ok, _ = rrsp_order_k(phi, 1, SUFFICIENT)
        if ok:
            matrices.append(phi)
            found += 1

    for phi in matrices:
        for meas in enumerate_Yk(phi, 1):
            if meas.is_zero():
                continue
            sol = one_bit_bp(phi, meas)
            assert sol.status == lp.OPTIMAL
            sparsest = l0_min(phi, meas, k_max=1)
            assert sparsest.value == 1
            sp_hat, sm_hat = signed_support(sol.x)
            for (wsp, wsm), _x in sparsest.witnesses:
                assert tuple(sp_hat) == wsp
                assert tuple(sm_hat) == wsm


def test_criterion_7_every_optimal_output_consistent_across_runs():
    configs = [
        ExperimentConfig(m=4, n=8, k_list=(1, 2), trials=40, seed=11),
        ExperimentConfig(m=5, n=7, k_list=(1, 3), trials=40, seed=12,
                         ensemble="unit_sphere_rows"),
        ExperimentConfig(m=3, n=6, k_list=(2,), trials=40, seed=13,
                         ensemble="rademacher"),
    ]
    checked = 0
    for cfg in configs:
        records, _ = run_experiment(cfg)
        for rec in records:
            if rec.decoder == "bp" and rec.status == "optimal":
                checked += 1
                assert rec.consistent
    assert checked >= 200


def test_criterion_8_experiment_bit_determinism():
    cfg = ExperimentConfig(m=4, n=8, k_list=(1, 2), trials=30, seed=20260816)
    r1, s1 = run_experiment(cfg)
    r2, s2 = run_experiment(cfg)
    assert "\n".join(csv_lines(r1)) == "\n".join(csv_lines(r2))
    assert summary_json(s1) == summary_json(s2)


def test_criterion_9_recovery_rate_non_increasing_in_sparsity():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(m=10, n=20, k_list=(1, 2, 4, 8), trials=100,
                           seed=20260816)
    records, summary = run_experiment(cfg)
    rates = [summary["rates"][str(k)]["bp"]["sign_recovery_rate"]
             for k in (1, 2, 4, 8)]
    assert all(a >= b for a, b in zip(rates, rates[1:])), rates
    for rec in records:
        if rec.decoder == "bp" and rec.status == "optimal":
            assert rec.consistent
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
