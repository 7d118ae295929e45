"""The three workloads: seeded inputs, one operation each, answer checks.

decode-large    one_bit_bp + uniqueness_certificate on Gaussian instances: a
                40x80 body, two 80x160 target instances, and a 20x40 slice
                decoded at c*phi for c in {1e-6, 1e6}.  A few large LPs.
sweep-small     the full certificate sweep on one instance of the
                criterion-5 family (m, n <= 6).  Thousands of tiny LPs.
experiment-mid  one run_experiment call per k at 20x40, 25 trials, bp+gd.
                Mid-size LPs of two shapes, certify and serialization.

Every input is a function of (entropy, stream, index), so a workload seed
reproduces its inputs byte for byte.  The library only sees the generated
arrays, and for experiment-mid the ExperimentConfig that run_experiment
takes.  sweep-small and experiment-mid draw from fixed pools whose answers
were recorded at the seed commit (see reference/); the workload seed picks
the order in which the pool is visited.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from . import load_library

ob = load_library()

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Same dead zone as the library's default sign_tol.
SIGN_DEAD_ZONE = 1e-8
# Seed-independent entropy of the warm-up inputs, so set-up time does not
# depend on which instance a seed happens to draw.
WARMUP_ENTROPY = 14125514

BODY = (40, 80, 5)
TARGET = (80, 160, 8)
SCALED = (20, 40, 3)
SCALES = (1e-6, 1e6)
TARGET_COUNT = 2
SCALED_COUNT = 6
STREAM_TARGET, STREAM_SCALED, STREAM_BODY, STREAM_ORDER = 1, 2, 3, 4

# Relative agreement demanded of objectives and rescaled outputs.
OBJECTIVE_RTOL = 1e-6
# Absolute slack of the direct-substitution checks, relative to row scale.
SUBSTITUTION_TOL = 1e-7

SWEEP_POOL_ENTROPY = 271828
SWEEP_POOL_SIZE = 6000
SWEEP_REFERENCE = REFERENCE_DIR / "sweep_small.csv"

EXPERIMENT_SHAPE = (20, 40)
EXPERIMENT_KS = (1, 2, 3, 4)
EXPERIMENT_TRIALS = 25
EXPERIMENT_SEED_BASE = 1412000
EXPERIMENT_POOL_SIZE = 16
EXPERIMENT_REFERENCE = REFERENCE_DIR / "experiment_mid.csv"


@dataclass(frozen=True, eq=False)
class Op:
    """One closed-loop operation: its kind, index within the kind, inputs.

    kind is "body", "target" or "scaled" (decode-large), "sweep" or
    "experiment".  Scaled ops carry the unscaled matrix and c as well.
    """

    kind: str
    index: int
    inputs: tuple


def signs(v: np.ndarray) -> np.ndarray:
    return np.where(v > SIGN_DEAD_ZONE, 1, np.where(v < -SIGN_DEAD_ZONE, -1, 0))


def _rng(entropy: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=key))


def gaussian_instance(entropy: int, stream: int, index: int,
                      shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian phi and the standard signs of a k-sparse Gaussian signal."""
    m, n, k = shape
    rng = _rng(entropy, stream, index)
    phi = rng.standard_normal((m, n))
    x = np.zeros(n)
    x[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    y = signs(phi @ x)
    if not y.any():
        raise RuntimeError(f"zero measurement at stream {stream}, index {index}")
    return phi, y


def sweep_instance(entropy: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """One draw of the criterion-5 family: identity, row-sparse or dense
    Gaussian matrices with m, n <= 6, redrawn until the measurement is nonzero."""
    rng = _rng(entropy, index)
    while True:
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
        y = signs(phi @ x)
        if y.any():
            return phi, y


def input_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _cycle(order: np.ndarray) -> Iterator[int]:
    while True:
        yield from (int(i) for i in order)


# ---------------------------------------------------------------- decode-large

class _Skipped:
    def __repr__(self) -> str:
        return "SKIPPED"


# Stands in for a reference that could not be computed (scipy missing).
SKIPPED = _Skipped()


def highs_objective(phi: np.ndarray, y: np.ndarray) -> float | None:
    """Optimal l1 objective of the consistent decoder by HiGHS, None if HiGHS
    finds no optimum.  x = p - q with p, q >= 0."""
    from scipy.optimize import linprog

    m, n = phi.shape
    a = np.hstack([phi, -phi])
    signed = y != 0
    res = linprog(
        np.ones(2 * n),
        A_ub=-(y[signed, None] * a[signed]), b_ub=-np.ones(int(signed.sum())),
        A_eq=a[~signed] if (~signed).any() else None,
        b_eq=np.zeros(int((~signed).sum())) if (~signed).any() else None,
        bounds=(0, None), method="highs")
    return float(res.fun) if res.status == 0 else None


def witness_ok(phi: np.ndarray, y: np.ndarray, cert) -> bool:
    """witness_is_valid on the row partition the certificate was built for."""
    active = [int(i) for i in cert.active.active]
    pos = [i for i in active if y[i] == 1]
    neg = [i for i in active if y[i] == -1]
    zero = [int(i) for i in cert.active.inactive_plus] + \
        [int(i) for i in cert.active.inactive_minus]
    return ob.witness_is_valid(phi, cert.witness, cert.s_plus, cert.s_minus,
                               pos, neg, zero)


def decode_problems(phi, y, sol, cert, reference) -> list[str]:
    """Why a decode+certify answer is wrong; empty when it passes.

    reference is the HiGHS objective, None when HiGHS found no optimum, or
    SKIPPED when scipy is unavailable (the check is then not made).
    """
    if sol.status != ob.OPTIMAL:
        return [f"status {sol.status}"]
    problems = []
    if not ob.bp_output_consistent(phi, ob.SignMeasurement.from_y(y), sol):
        problems.append("output not sign-consistent")
    if reference is None:
        problems.append("HiGHS reference found no optimum")
    elif reference is not SKIPPED and \
            abs(sol.objective - reference) > OBJECTIVE_RTOL * max(1.0, abs(reference)):
        problems.append(f"objective {sol.objective!r} vs HiGHS {reference!r}")
    if cert is None:
        problems.append("no certificate")
    elif cert.unique and not witness_ok(phi, y, cert):
        problems.append("unique verdict with an invalid witness")
    return problems


def scaled_problems(c: float, sol, cert, ref_sol, ref_cert) -> list[str]:
    """Why decoding c*phi disagrees with the c=1 answer; empty when it agrees.

    With a unique c=1 optimum the output must be x/c; otherwise only the
    objective must scale.  The certificate verdict must not change.
    """
    if sol.status != ob.OPTIMAL:
        return [f"status {sol.status}"]
    problems = []
    if ref_cert.unique:
        scale = max(1.0, float(np.max(np.abs(ref_sol.x))))
        if float(np.max(np.abs(c * sol.x - ref_sol.x))) > OBJECTIVE_RTOL * scale:
            problems.append("output is not x/c")
    elif abs(c * sol.objective - ref_sol.objective) > \
            OBJECTIVE_RTOL * max(1.0, abs(ref_sol.objective)):
        problems.append("objective does not scale by 1/c")
    if cert is None or cert.unique != ref_cert.unique:
        problems.append("certificate verdict differs from c=1")
    return problems


def _highs_or_skip(phi, y):
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return SKIPPED
    return highs_objective(phi, y)


class DecodeLarge:
    name = "decode-large"
    latency_kinds = ("body",)
    probe_kinds = ("scaled",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._unscaled: dict[int, tuple] = {}

    def warmup(self) -> Op:
        return Op("warmup", 0, gaussian_instance(WARMUP_ENTROPY, 0, 0, SCALED) + (1.0, None))

    def plan(self) -> Iterator[Op]:
        for i in range(TARGET_COUNT):
            yield Op("target", i, gaussian_instance(self.seed, STREAM_TARGET, i, TARGET)
                     + (1.0, None))
        for i in range(SCALED_COUNT):
            phi, y = gaussian_instance(self.seed, STREAM_SCALED, i, SCALED)
            for c in SCALES:
                yield Op("scaled", i, (c * phi, y, c, phi))
        for i in count():
            yield Op("body", i, gaussian_instance(self.seed, STREAM_BODY, i, BODY)
                     + (1.0, None))

    @staticmethod
    def run(op: Op):
        phi, y = op.inputs[0], op.inputs[1]
        sol = ob.one_bit_bp(phi, y)
        cert = ob.uniqueness_certificate(phi, y, sol.x) if sol.status == ob.OPTIMAL else None
        return sol, cert

    def check(self, op: Op, result) -> list[str]:
        phi, y, c, base = op.inputs
        sol, cert = result
        if op.kind != "scaled":
            return decode_problems(phi, y, sol, cert, _highs_or_skip(phi, y))
        if op.index not in self._unscaled:
            self._unscaled[op.index] = self.run(Op("scaled", op.index, (base, y)))
        return scaled_problems(c, sol, cert, *self._unscaled[op.index])

    def info(self, done) -> dict:
        return {}


# ----------------------------------------------------------------- sweep-small

@dataclass(frozen=True)
class SweepVerdicts:
    rrsp_wrt_y: bool
    l0_min: float
    relaxation_holds: bool
    rrsp_order_k: bool

    def row(self) -> tuple[str, str, str, str]:
        return (str(int(self.rrsp_wrt_y)), repr(self.l0_min),
                str(int(self.relaxation_holds)), str(int(self.rrsp_order_k)))


def sweep(phi: np.ndarray, y: np.ndarray):
    """The four quantified certificate calls of one sweep operation."""
    wrt, _ = ob.rrsp_wrt_y(phi, y, 2, ob.SUFFICIENT)
    sparsest = ob.l0_min(phi, y, k_max=2)
    holds, violations = ob.relaxation_consistency(phi, y, ob.STANDARD_COND)
    order, _ = ob.rrsp_order_k(phi, 1, ob.SUFFICIENT)
    verdicts = SweepVerdicts(bool(wrt), float(sparsest.value), bool(holds), bool(order))
    return verdicts, sparsest.witnesses, violations


def _row_tol(phi: np.ndarray, d: np.ndarray) -> np.ndarray:
    return SUBSTITUTION_TOL * (1.0 + np.abs(phi) @ np.abs(d))


def sweep_problems(phi, y, result, expected: tuple[str, ...]) -> list[str]:
    """Why a sweep answer is wrong; empty when it passes.

    Verdicts must equal the recorded ones.  Every l0_min witness must
    reproduce y within its support bound, and every relaxation violation
    must lie in its row's null space and in the cone, with phi @ d != 0.
    """
    verdicts, witnesses, violations = result
    problems = []
    if verdicts.row() != tuple(expected):
        problems.append(f"verdicts {verdicts.row()} differ from recorded {tuple(expected)}")
    for (sp, sm), x in witnesses:
        v, tol = phi @ x, _row_tol(phi, x)
        ok = (np.all(v[y == 1] >= 1.0 - tol[y == 1])
              and np.all(v[y == -1] <= -1.0 + tol[y == -1])
              and np.all(np.abs(v[y == 0]) <= tol[y == 0])
              and np.count_nonzero(np.abs(x) > SIGN_DEAD_ZONE) <= verdicts.l0_min)
        if not ok:
            problems.append(f"l0_min witness {(sp, sm)} is not consistent")
    for row, d in violations:
        v, tol = phi @ d, _row_tol(phi, d)
        in_cone = (np.all(y * v >= -tol) and np.all(np.abs(v[y == 0]) <= tol[y == 0]))
        nondegenerate = float(np.max(np.abs(v))) > SUBSTITUTION_TOL * (
            1.0 + float(np.max(np.abs(phi))) * float(np.max(np.abs(d))))
        if abs(v[row]) > tol[row] or not in_cone or not nondegenerate:
            problems.append(f"relaxation violation at row {row} fails substitution")
    return problems


@dataclass(frozen=True)
class PoolEntry:
    """One recorded sweep-small instance: its shape, input digest and verdicts."""

    shape: tuple[int, int]
    digest: str
    verdicts: tuple[str, str, str, str]


def load_sweep_reference(path: Path = SWEEP_REFERENCE) -> list[PoolEntry]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["index"]) for r in rows] != list(range(len(rows))):
        raise RuntimeError(f"{path} is not indexed 0..{len(rows) - 1} in order")
    return [PoolEntry((int(r["m"]), int(r["n"])), r["digest"],
                      (r["rrsp_wrt_y"], r["l0_min"], r["relaxation_holds"], r["rrsp_order_k"]))
            for r in rows]


def stratified_order(strata: list, rng: np.random.Generator) -> np.ndarray:
    """A seeded order of range(len(strata)) in which every prefix holds each
    stratum in nearly its share of the whole, so a run's instance mix does
    not depend on how far the run gets."""
    keys = np.empty(len(strata))
    groups: dict = {}
    for i, s in enumerate(strata):
        groups.setdefault(s, []).append(i)
    for s in sorted(groups):
        members = rng.permutation(groups[s])
        keys[members] = (np.arange(members.size) + rng.random()) / members.size
    return np.argsort(keys, kind="stable")


class SweepSmall:
    name = "sweep-small"
    latency_kinds = ("sweep",)
    probe_kinds = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = load_sweep_reference()
        if len(self.reference) != SWEEP_POOL_SIZE:
            raise RuntimeError(f"{SWEEP_REFERENCE} has {len(self.reference)} rows, "
                               f"expected {SWEEP_POOL_SIZE}")

    def warmup(self) -> Op:
        return Op("warmup", 0, sweep_instance(WARMUP_ENTROPY, 0))

    def plan(self) -> Iterator[Op]:
        # A sweep's cost depends on the shape and, through early exits, on
        # the verdicts, so the order is stratified by both to keep the cost
        # mix of a run independent of the seed.
        order = stratified_order([(e.shape, e.verdicts) for e in self.reference],
                                 _rng(self.seed, STREAM_ORDER))
        for index in _cycle(order):
            yield Op("sweep", index, sweep_instance(SWEEP_POOL_ENTROPY, index))

    @staticmethod
    def run(op: Op):
        return sweep(*op.inputs)

    def check(self, op: Op, result) -> list[str]:
        phi, y = op.inputs
        entry = self.reference[op.index]
        if input_digest(phi, y) != entry.digest:
            return [f"pool instance {op.index} does not match its recorded digest"]
        return sweep_problems(phi, y, result, entry.verdicts)

    def info(self, done) -> dict:
        return {}


# -------------------------------------------------------------- experiment-mid

def experiment_config(seed: int, k: int, trials: int = EXPERIMENT_TRIALS):
    m, n = EXPERIMENT_SHAPE
    return ob.ExperimentConfig(m=m, n=n, k_list=(k,), trials=trials,
                               decoders=("bp", "gd"), seed=seed)


def experiment(cfg):
    """run_experiment plus the canonical serialization of its outputs."""
    records, summary = ob.run_experiment(cfg)
    text = "\n".join(ob.csv_lines(records)) + "\n"
    ob.summary_json(summary)
    return records, text


def experiment_problems(records) -> list[str]:
    """Every bp record of a nonzero measurement must be optimal and consistent."""
    return [f"bp record k={r.k} trial={r.trial_index}: status {r.status}, "
            f"consistent {r.consistent}"
            for r in records
            if r.decoder == "bp" and r.status != "degenerate_measurement"
            and not (r.status == ob.OPTIMAL and r.consistent)]


def load_experiment_reference(path: Path = EXPERIMENT_REFERENCE) -> dict[tuple[int, int], str]:
    """(experiment seed, k) -> sha256 of the canonical CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {(int(r["seed"]), int(r["k"])): r["csv_sha256"] for r in csv.DictReader(fh)}


class ExperimentMid:
    name = "experiment-mid"
    latency_kinds = ("experiment",)
    probe_kinds = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = load_experiment_reference()

    def warmup(self) -> Op:
        return Op("warmup", 0, (experiment_config(WARMUP_ENTROPY, 1, trials=1),))

    def plan(self) -> Iterator[Op]:
        order = _rng(self.seed, STREAM_ORDER).permutation(EXPERIMENT_POOL_SIZE)
        for i, j in enumerate(_cycle(order)):
            for k in EXPERIMENT_KS:
                yield Op("experiment", i * len(EXPERIMENT_KS) + k - 1,
                         (experiment_config(EXPERIMENT_SEED_BASE + j, k),))

    @staticmethod
    def run(op: Op):
        return experiment(*op.inputs)

    def check(self, op: Op, result) -> list[str]:
        return experiment_problems(result[0])

    def info(self, done) -> dict:
        """Canonical-CSV digests that differ from the recorded ones.

        A changed digest is information, not a failure: a later change may
        legitimately move a decoder output to another optimal vertex.
        """
        changed = []
        for op, result in done:
            cfg = op.inputs[0]
            key = (cfg.seed, cfg.k_list[0])
            digest = hashlib.sha256(result[1].encode()).hexdigest()
            if self.reference.get(key) != digest:
                changed.append(f"seed={key[0]} k={key[1]}")
        return {"csv_digest_changes": changed}


WORKLOADS = {w.name: w for w in (DecodeLarge, SweepSmall, ExperimentMid)}


def make(name: str, seed: int) -> Any:
    return WORKLOADS[name](seed)
