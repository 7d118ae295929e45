"""Seeded recovery experiments with bit-reproducible reports.

Each trial derives its own RNG stream from (master seed, sparsity, trial
index), so re-running a configuration reproduces every matrix and signal
draw exactly.  The canonical outputs (CSV of trial records, JSON summary)
contain no timing and serialize floats via repr, making consecutive runs
byte-identical; wall time is reported separately on stderr by the CLI.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import lp
from .certify import uniqueness_certificate
from .decoders import bp_output_consistent, one_bit_bp, relaxation_gd
from .linalg import TolerancePolicy
from .signmodel import SignMeasurement, sign_standard, signed_support

ENSEMBLES = ("gaussian", "unit_sphere_rows", "rademacher")
DECODERS = ("bp", "gd")


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    n: int
    k_list: tuple[int, ...]
    trials: int
    ensemble: str = "gaussian"
    seed: int = 0
    tolerances: TolerancePolicy = field(default_factory=TolerancePolicy)
    decoders: tuple[str, ...] = ("bp",)

    def __post_init__(self) -> None:
        for name in ("m", "n", "trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        ks = tuple(_integer("sparsity", k) for k in self.k_list)
        if not ks:
            raise ValueError("k_list must be nonempty")
        for k in ks:
            if not (1 <= k <= self.n):
                raise ValueError(f"sparsity {k} outside [1, {self.n}]")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"ensemble must be one of {ENSEMBLES}")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        decs = tuple(self.decoders)
        if not decs or any(d not in DECODERS for d in decs):
            raise ValueError(f"decoders must be a nonempty subset of {DECODERS}")
        object.__setattr__(self, "k_list", ks)
        object.__setattr__(self, "decoders", decs)


def _integer(name: str, value) -> int:
    """value as an int, so that it is recorded as the value it runs as;
    ValueError unless integral (3.0 passes, 3.5 and "3" do not)."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class TrialRecord:
    seed: int
    m: int
    n: int
    k: int
    trial_index: int
    decoder: str
    status: str
    objective: float
    consistent: bool
    sign_recovered: bool
    support_subset: bool
    unique_certified: bool


CSV_FIELDS = tuple(f.name for f in fields(TrialRecord))


def trial_rng(seed: int, k: int, trial_index: int) -> np.random.Generator:
    """The per-trial stream: PCG64 seeded by SeedSequence(seed, spawn_key=(k, trial))."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(k), int(trial_index)))
    return np.random.Generator(np.random.PCG64(ss))


def draw_matrix(rng: np.random.Generator, m: int, n: int, ensemble: str) -> np.ndarray:
    if ensemble == "gaussian":
        return rng.standard_normal((m, n))
    if ensemble == "unit_sphere_rows":
        g = rng.standard_normal((m, n))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    if ensemble == "rademacher":
        return (rng.integers(0, 2, size=(m, n)) * 2 - 1).astype(float)
    raise ValueError(f"unknown ensemble {ensemble!r}")


def draw_signal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    support = np.sort(rng.choice(n, size=k, replace=False))
    x = np.zeros(n)
    x[support] = rng.standard_normal(k)
    return x


def _recovery_flags(x_hat: np.ndarray | None, x_star: np.ndarray,
                    tol: TolerancePolicy) -> tuple[bool, bool]:
    """(sign_recovered, support_subset) of the estimate against the truth."""
    if x_hat is None:
        return False, False
    sp_h, sm_h = signed_support(x_hat, tol)
    sp_s, sm_s = signed_support(x_star, tol)
    sign_rec = bool(np.array_equal(sp_h, sp_s) and np.array_equal(sm_h, sm_s))
    supp_h = set(int(j) for j in sp_h) | set(int(j) for j in sm_h)
    supp_s = set(int(j) for j in sp_s) | set(int(j) for j in sm_s)
    return sign_rec, supp_h <= supp_s


def run_experiment(cfg: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """Run the configured trials; returns (records, summary dict).

    Per trial: draw the matrix and a k-sparse standard-normal signal from
    the trial stream, measure with the standard sign, then run each
    configured decoder.  The consistent decoder's output additionally gets
    a uniqueness certificate.  A relaxation LP that breaks down raises
    RuntimeError (see relaxation_gd) rather than being recorded.
    """
    pol = cfg.tolerances
    records: list[TrialRecord] = []
    for k in cfg.k_list:
        for t in range(cfg.trials):
            rng = trial_rng(cfg.seed, k, t)
            phi = draw_matrix(rng, cfg.m, cfg.n, cfg.ensemble)
            x_star = draw_signal(rng, cfg.n, k)
            y = sign_standard(phi @ x_star, pol)
            degenerate = not np.any(y)
            meas = None if degenerate else SignMeasurement.from_y(y)
            for dec in cfg.decoders:
                status = "degenerate_measurement"
                objective = float("nan")
                consistent = False
                sign_rec = False
                supp_sub = False
                unique = False
                if not degenerate and dec == "bp":
                    sol = one_bit_bp(phi, meas)
                    status = sol.status
                    if sol.status == lp.OPTIMAL:
                        objective = float(sol.objective)
                        consistent = bp_output_consistent(phi, meas, sol, pol)
                        sign_rec, supp_sub = _recovery_flags(sol.x, x_star, pol)
                        cert = uniqueness_certificate(phi, meas, sol.x, pol)
                        unique = bool(cert.unique)
                elif not degenerate and dec == "gd":
                    if np.all(y != 0):
                        x_gd, obj_gd, cons_gd = relaxation_gd(phi, y, pol)
                        if x_gd is None:
                            status = lp.INFEASIBLE
                        else:
                            status = lp.OPTIMAL
                            objective = float(obj_gd)
                            consistent = bool(cons_gd)
                            sign_rec, supp_sub = _recovery_flags(x_gd, x_star, pol)
                    else:
                        status = "domain_error"
                records.append(TrialRecord(
                    seed=cfg.seed, m=cfg.m, n=cfg.n, k=k, trial_index=t,
                    decoder=dec, status=status, objective=objective,
                    consistent=consistent, sign_recovered=sign_rec,
                    support_subset=supp_sub, unique_certified=unique))
    return records, summarize(cfg, records)


def summarize(cfg: ExperimentConfig, records: list[TrialRecord]) -> dict:
    """Per-(k, decoder) success rates plus the configuration echo."""
    rates: dict[str, dict] = {}
    for k in cfg.k_list:
        by_dec: dict[str, dict] = {}
        for dec in cfg.decoders:
            rows = [r for r in records if r.k == k and r.decoder == dec]
            n_rows = len(rows)
            def rate(pred) -> float:
                return sum(1 for r in rows if pred(r)) / n_rows if n_rows else 0.0
            by_dec[dec] = {
                "trials": n_rows,
                "optimal_rate": rate(lambda r: r.status == lp.OPTIMAL),
                "consistent_rate": rate(lambda r: r.consistent),
                "sign_recovery_rate": rate(lambda r: r.sign_recovered),
                "support_subset_rate": rate(lambda r: r.support_subset),
                "unique_rate": rate(lambda r: r.unique_certified),
            }
        rates[str(k)] = by_dec
    return {
        "config": {
            "m": cfg.m, "n": cfg.n, "k_list": list(cfg.k_list),
            "trials": cfg.trials, "ensemble": cfg.ensemble,
            "seed": cfg.seed, "decoders": list(cfg.decoders),
            "tolerances": asdict(cfg.tolerances),
        },
        "rates": rates,
    }


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_lines(records: list[TrialRecord]) -> list[str]:
    """Canonical CSV: fixed header, repr floats, no timing column."""
    lines = [",".join(CSV_FIELDS)]
    for r in records:
        lines.append(",".join(_csv_cell(getattr(r, f)) for f in CSV_FIELDS))
    return lines


def write_csv(records: list[TrialRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(csv_lines(records)) + "\n")


def summary_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def write_summary(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_json(summary))
