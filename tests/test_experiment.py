"""Seeded experiment harness: determinism, row accounting, rate summaries."""

import json

import numpy as np
import pytest

from onebitcs.experiment import (
    ExperimentConfig,
    csv_lines,
    run_experiment,
    summarize,
    summary_json,
    trial_rng,
    write_csv,
    write_summary,
)
from onebitcs.signmodel import sign_standard


def small_config(**overrides):
    base = dict(m=4, n=8, k_list=(1, 2), trials=10, seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            ExperimentConfig(m=4, n=8, k_list=(0,), trials=5)
        with pytest.raises(ValueError):
            ExperimentConfig(m=4, n=8, k_list=(9,), trials=5)

    def test_rejects_unknown_ensemble(self):
        with pytest.raises(ValueError):
            ExperimentConfig(m=4, n=8, k_list=(1,), trials=5, ensemble="cauchy")

    def test_rejects_unknown_decoder(self):
        with pytest.raises(ValueError):
            ExperimentConfig(m=4, n=8, k_list=(1,), trials=5, decoders=("omp",))

    @pytest.mark.parametrize("field,value", [("seed", 3.5), ("k_list", (2.5,)), ("m", 4.5)],
                             ids=["seed", "k_list", "m"])
    def test_rejects_non_integral_values(self, field, value):
        with pytest.raises(ValueError, match="integer"):
            small_config(**{field: value})

    def test_integral_float_seed_is_recorded_as_the_int(self):
        """seed=3.0 draws what seed=3 draws, so it must write the same bytes."""
        r_float, s_float = run_experiment(small_config(seed=3.0, trials=3))
        r_int, s_int = run_experiment(small_config(seed=3, trials=3))
        assert csv_lines(r_float) == csv_lines(r_int)
        assert summary_json(s_float) == summary_json(s_int)

    def test_integral_float_dimension_runs(self):
        cfg = small_config(m=4.0, trials=2)
        assert type(cfg.m) is int
        records, _ = run_experiment(cfg)
        assert {r.m for r in records} == {4}


def test_row_count_matches_grid():
    cfg = small_config()
    records, _ = run_experiment(cfg)
    assert len(records) == cfg.trials * len(cfg.k_list) * len(cfg.decoders)


def test_row_count_with_two_decoders():
    cfg = small_config(trials=5, decoders=("bp", "gd"))
    records, _ = run_experiment(cfg)
    assert len(records) == 20


def test_rerun_is_bit_identical():
    cfg = small_config()
    r1, s1 = run_experiment(cfg)
    r2, s2 = run_experiment(cfg)
    assert csv_lines(r1) == csv_lines(r2)
    assert summary_json(s1) == summary_json(s2)


def test_trial_rng_streams_are_stable_and_distinct():
    a = trial_rng(5, 1, 0).standard_normal(4)
    b = trial_rng(5, 1, 0).standard_normal(4)
    c = trial_rng(5, 1, 1).standard_normal(4)
    d = trial_rng(5, 2, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_optimal_rows_are_always_consistent():
    cfg = small_config(trials=25, ensemble="rademacher")
    records, _ = run_experiment(cfg)
    for rec in records:
        if rec.decoder == "bp" and rec.status == "optimal":
            assert rec.consistent


def test_summary_shape_and_rates():
    cfg = small_config(trials=8)
    records, summary = run_experiment(cfg)
    assert summary == summarize(cfg, records)
    assert set(summary["rates"].keys()) == {"1", "2"}
    bp1 = summary["rates"]["1"]["bp"]
    assert bp1["trials"] == 8
    for key in ("optimal_rate", "consistent_rate", "sign_recovery_rate",
                "support_subset_rate", "unique_rate"):
        assert 0.0 <= bp1[key] <= 1.0
    assert summary["config"]["ensemble"] == "gaussian"


def test_identity_scale_recovery():
    """A square rademacher draw at n = m = 2 is +-1 entries; whenever the
    draw is invertible the decoder recovers 1-sparse signs exactly."""
    cfg = ExperimentConfig(m=2, n=2, k_list=(1,), trials=30, seed=3,
                           ensemble="rademacher")
    records, summary = run_experiment(cfg)
    for rec in records:
        if rec.status == "optimal":
            assert rec.consistent


def test_csv_written_with_fixed_header(tmp_path):
    cfg = small_config(trials=3)
    records, summary = run_experiment(cfg)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_csv(records, csv_path)
    write_summary(summary, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("seed,m,n,k,trial_index,decoder,status,objective,"
                        "consistent,sign_recovered,support_subset,unique_certified")
    assert len(lines) == 1 + len(records)
    parsed = json.loads(json_path.read_text())
    assert parsed["config"]["seed"] == 7


def test_gd_rows_marked_domain_error_on_zero_measurements():
    """The relaxation needs plus/minus-only measurements; draws whose sign
    image contains a zero are recorded, not silently dropped."""
    cfg = ExperimentConfig(m=3, n=4, k_list=(1,), trials=40, seed=99,
                           decoders=("gd",))
    records, _ = run_experiment(cfg)
    statuses = {rec.status for rec in records}
    assert statuses <= {"optimal", "infeasible", "domain_error",
                        "degenerate_measurement"}
