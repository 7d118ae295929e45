"""Brute-force ground truth at desk scale.

Everything in this module trades time for certainty: vertices are
enumerated outright, supports are swept exhaustively, and sign images are
built from the planar geometry of two-column restrictions.  Each entry
point refuses instances beyond its enumeration budget instead of sampling
silently; the one sampling fallback (sign images for sparsity above two)
flags its output as possibly incomplete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import lp
from .certify import patterns_of_measurement
from .linalg import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    as_matrix,
    as_vector,
    column_rank,
    null_space_basis,
)
from .signmodel import (
    ActiveSets,
    SignMeasurement,
    active_sets,
    is_consistent,
    minimal_scaling,
    sign_standard,
    signed_support,
)

VERTEX_BUDGET = 300_000
L0_MAX_COLS = 14
L0_MAX_SPARSITY = 3


def _feas_tol(a_row: np.ndarray, x: np.ndarray, rhs: float) -> float:
    return 1e-7 * (1.0 + float(np.abs(a_row) @ np.abs(x)) + abs(rhs))


def _independent_rows(a: np.ndarray, tol: TolerancePolicy) -> list[int]:
    kept: list[int] = []
    for i in range(a.shape[0]):
        trial = a[kept + [i]]
        if column_rank(trial, tol) == len(kept) + 1:
            kept.append(i)
    return kept


def _vertex_sweep(eqs, eq_rhs, ineqs, c_eff, tol, budget):
    """Enumerate vertices of {eq rows hold, ineq rows hold} and minimize c_eff.

    eqs is an (r, n) array (possibly empty), ineqs a list of
    (normal, relation, rhs).  Returns (feasible, best_x, best_obj).
    Raises ValueError when the candidate count exceeds the budget.
    """
    n = eqs.shape[1]
    if eqs.shape[0]:
        aug = np.hstack([eqs, eq_rhs[:, None]])
        if column_rank(aug, tol) > column_rank(eqs, tol):
            return False, None, None
        kept = _independent_rows(eqs, tol)
        eq_a = eqs[kept]
        eq_b = eq_rhs[kept]
    else:
        eq_a = np.zeros((0, n))
        eq_b = np.zeros(0)
    r0 = eq_a.shape[0]
    slots = n - r0

    def feasible_point(x: np.ndarray) -> bool:
        for a_row, b in zip(eqs, eq_rhs):
            if abs(float(a_row @ x) - b) > _feas_tol(a_row, x, b):
                return False
        for a_row, rel, b in ineqs:
            v = float(a_row @ x)
            ft = _feas_tol(a_row, x, b)
            if rel == ">=" and v < b - ft:
                return False
            if rel == "<=" and v > b + ft:
                return False
        return True

    best_x = None
    best_obj = None
    if slots == 0:
        try:
            x = np.linalg.solve(eq_a, eq_b)
        except np.linalg.LinAlgError:
            return False, None, None
        if feasible_point(x):
            return True, x, float(c_eff @ x)
        return False, None, None

    count = math.comb(len(ineqs), slots)
    if count > budget:
        raise ValueError(
            f"vertex enumeration needs {count} candidates, beyond the "
            f"budget of {budget}; instance too large for the oracle")
    for chosen in combinations(range(len(ineqs)), slots):
        m_rows = np.vstack([eq_a] + [ineqs[i][0][None, :] for i in chosen])
        rhs = np.concatenate([eq_b, [ineqs[i][2] for i in chosen]])
        try:
            x = np.linalg.solve(m_rows, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if float(np.max(np.abs(m_rows @ x - rhs), initial=0.0)) > 1e-6 * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
            continue
        if not feasible_point(x):
            continue
        obj = float(c_eff @ x)
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj = obj
            best_x = x
    if best_x is None:
        return False, None, None
    return True, best_x, best_obj


def lp_vertex_oracle(p: lp.LPProblem, budget: int = VERTEX_BUDGET,
                     tol: TolerancePolicy | None = None) -> lp.LPSolution:
    """Solve a small LP by exhaustive vertex enumeration.

    Vertices are active-constraint subsets of the original mixed form:
    every equality row is always active, and the remaining active set runs
    over subsets of the inequality rows and nonnegativity bounds.
    Unboundedness is decided by pinning the lineality space and, when a
    sign precheck cannot certify boundedness, scanning the vertices of the
    recession cone boxed to [-1, 1]^n for a cost-decreasing direction.
    Never consults the simplex; intended as its independent cross-check.
    """
    pol = tol or DEFAULT_TOLERANCES
    n = p.n_vars
    sign = -1.0 if p.sense == "max" else 1.0
    c_eff = sign * p.c

    eq_rows = [i for i, r in enumerate(p.rels) if r == "="]
    eqs = p.a[eq_rows] if eq_rows else np.zeros((0, n))
    eq_rhs = p.b[eq_rows] if eq_rows else np.zeros(0)
    ineqs: list[tuple[np.ndarray, str, float]] = []
    for i, r in enumerate(p.rels):
        if r != "=":
            ineqs.append((p.a[i].copy(), r, float(p.b[i])))
    for j in range(n):
        if not p.free[j]:
            e = np.zeros(n)
            e[j] = 1.0
            ineqs.append((e, ">=", 0.0))

    # Lineality space: directions along which every constraint is blind.
    normal_stack = np.vstack([eqs] + [a[None, :] for a, _, _ in ineqs]) \
        if (eqs.shape[0] or ineqs) else np.zeros((0, n))
    lin = null_space_basis(normal_stack, pol)
    extra_eqs = []
    if lin.shape[1]:
        cl = c_eff @ lin
        pinned = [(lin[:, i], 0.0) for i in range(lin.shape[1])]
        extra_eqs = pinned
        if float(np.max(np.abs(cl))) > 1e-9 * (1.0 + float(np.max(np.abs(c_eff), initial=0.0))):
            eqs2 = np.vstack([eqs] + [d[None, :] for d, _ in pinned])
            rhs2 = np.concatenate([eq_rhs, np.zeros(len(pinned))])
            feas, _, _ = _vertex_sweep(eqs2, rhs2, ineqs, np.zeros(n), pol, budget)
            if not feas:
                return lp.LPSolution(status=lp.INFEASIBLE)
            i_best = int(np.argmax(np.abs(cl)))
            ray = -np.sign(cl[i_best]) * lin[:, i_best]
            return lp.LPSolution(status=lp.UNBOUNDED, ray=ray)

    if extra_eqs:
        eqs = np.vstack([eqs] + [d[None, :] for d, _ in extra_eqs])
        eq_rhs = np.concatenate([eq_rhs, np.zeros(len(extra_eqs))])

    feas, x_best, _ = _vertex_sweep(eqs, eq_rhs, ineqs, c_eff, pol, budget)
    if not feas:
        return lp.LPSolution(status=lp.INFEASIBLE)

    # Boundedness.  Cheap certificate first: a minimization whose cost is
    # zero on free variables and nonnegative on sign-constrained ones is
    # bounded below on the feasible set.
    precheck = all(
        (p.free[j] and abs(c_eff[j]) <= 1e-15) or (not p.free[j] and c_eff[j] >= -1e-15)
        for j in range(n)
    )
    if not precheck:
        cone_ineqs = [(a, rel, 0.0) for a, rel, _ in ineqs]
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            cone_ineqs.append((e, "<=", 1.0))
            cone_ineqs.append((e, ">=", -1.0))
        cone_eqs = eqs.copy()
        cone_rhs = np.zeros(eqs.shape[0])
        feas_cone, d_best, d_obj = _vertex_sweep(
            cone_eqs, cone_rhs, cone_ineqs, c_eff, pol, budget)
        if feas_cone and d_obj is not None and d_obj < -1e-9 * (1.0 + float(np.max(np.abs(c_eff)))):
            return lp.LPSolution(status=lp.UNBOUNDED, primal=x_best, ray=d_best)

    return lp.LPSolution(
        status=lp.OPTIMAL,
        primal=x_best,
        objective_value=float(p.c @ x_best),
    )


@dataclass
class SparsestSet:
    """Minimum support size among consistent signals, with all witnesses.

    value is math.inf when no support up to the sweep limit is consistent.
    witnesses lists ((positive support, negative support), representative)
    for every support of minimal size admitting a consistent signal.
    """

    value: float
    witnesses: list[tuple[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray]]


def l0_min(phi, y, k_max: int | None = None,
           tol: TolerancePolicy | None = None) -> SparsestSet:
    """Sparsest consistent signal by exhaustive support sweep.

    For each support size (ascending) and each support, a margin LP on the
    decoding constraints restricted to that support decides feasibility;
    the first size with any hit is the answer.  A support on which some
    signed row of phi is identically zero is infeasible (that row would
    need 0 >= 1) and is skipped without an LP.  Refuses wide instances
    unless the sweep is capped at small sparsity.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    m, n = phi.shape
    meas = y if isinstance(y, SignMeasurement) else SignMeasurement.from_y(y)
    if meas.m != m:
        raise ValueError(f"measurement has {meas.m} rows, matrix has {m}")
    if meas.is_zero():
        raise ValueError("sparsest-signal search is undefined for the zero measurement")
    if k_max is None:
        k_max = n
    if n > L0_MAX_COLS and k_max > L0_MAX_SPARSITY:
        raise ValueError(
            f"support sweep beyond budget: needs columns <= {L0_MAX_COLS} "
            f"or sparsity cap <= {L0_MAX_SPARSITY}")

    # Rows: j_plus (>= 1), j_minus (<= -1), then j_zero (= 0).
    order = np.concatenate([meas.j_plus, meas.j_minus, meas.j_zero])
    signed = meas.j_plus.size + meas.j_minus.size
    rels = (">=",) * meas.j_plus.size + ("<=",) * meas.j_minus.size + ("=",) * meas.j_zero.size
    b = meas.y[order].astype(float)
    strict = range(signed)
    for size in range(1, min(k_max, n) + 1):
        hits = []
        for supp in combinations(range(n), size):
            cols = np.array(supp, dtype=int)
            block = phi[np.ix_(order, cols)]
            if not block[:signed].any(axis=1).all():
                continue
            cert = lp.max_margin_feasibility(block, rels, b, strict, cap=1.0)
            if cert.t_star < 0.0:
                continue
            x = np.zeros(n)
            x[cols] = cert.witness
            sp, sm = signed_support(x, pol)
            hits.append(((tuple(int(j) for j in sp), tuple(int(j) for j in sm)), x))
        if hits:
            return SparsestSet(value=float(size), witnesses=hits)
    return SparsestSet(value=math.inf, witnesses=[])


def enumerate_P(phi, y, k: int,
                tol: TolerancePolicy | None = None
                ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All signed supports of size <= k realized by consistent signals."""
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    meas = y if isinstance(y, SignMeasurement) else SignMeasurement.from_y(y)
    if meas.is_zero():
        raise ValueError("pattern enumeration is undefined for the zero measurement")
    if phi.shape[1] > L0_MAX_COLS and k > L0_MAX_SPARSITY:
        raise ValueError(
            f"pattern sweep beyond budget: needs columns <= {L0_MAX_COLS} "
            f"or sparsity <= {L0_MAX_SPARSITY}")
    return patterns_of_measurement(phi, meas, k, pol)


@dataclass
class YkResult:
    """Sign images of k-sparse signals.  exact=False marks a sampled,
    possibly incomplete enumeration."""

    measurements: list[SignMeasurement]
    exact: bool


def _support_realizable(phi, y_arr: np.ndarray, cols: np.ndarray,
                        tol: TolerancePolicy) -> bool:
    """Margin LP: is y_arr the exact standard sign of phi restricted to
    cols at some coefficient vector?  Zero rows are equalities."""
    j_plus = np.flatnonzero(y_arr > 0)
    j_minus = np.flatnonzero(y_arr < 0)
    j_zero = np.flatnonzero(y_arr == 0)
    order = np.concatenate([j_plus, j_minus, j_zero])
    signed = j_plus.size + j_minus.size
    # Sign rows (j_plus >= 0, j_minus <= 0, j_zero = 0), then the box
    # -1 <= z_j <= 1 as two rows per coefficient.
    a = np.vstack([phi[np.ix_(order, cols)], np.repeat(np.eye(cols.size), 2, axis=0)])
    rels = ((">=",) * j_plus.size + ("<=",) * j_minus.size
            + ("=",) * j_zero.size + ("<=", ">=") * cols.size)
    b = np.concatenate([np.zeros(order.size), np.tile([1.0, -1.0], cols.size)])
    cert = lp.max_margin_feasibility(a, rels, b, range(signed), cap=1.0)
    if not signed:
        return cert.t_star >= 0.0
    return cert.t_star >= tol.margin_tol


def enumerate_Yk(phi, k: int, tol: TolerancePolicy | None = None,
                 sampling: bool | None = None, samples: int = 4000,
                 seed: int = 0) -> YkResult:
    """All sign measurements producible by k-sparse signals.

    Exact for k <= 2: single columns are scanned directly, and column
    pairs through the angular arrangement of the induced row lines in the
    coefficient plane (sector midpoints, the rays themselves, and the
    origin), every candidate confirmed by a margin LP.  For k >= 3 the
    enumeration falls back to seeded sampling and flags the result as
    possibly incomplete.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    m, n = phi.shape
    if k < 0 or k > n:
        raise ValueError(f"sparsity must lie in [0, {n}], got {k}")
    if sampling is None:
        sampling = k > 2
    elif not sampling and k > 2:
        raise ValueError(
            f"exact enumeration covers sparsity <= 2, got {k}; use sampling")

    found: dict[tuple[int, ...], SignMeasurement] = {}

    def add(y_arr: np.ndarray) -> None:
        key = tuple(int(v) for v in y_arr)
        if key not in found:
            found[key] = SignMeasurement.from_y(y_arr)

    add(np.zeros(m, dtype=int))

    if sampling:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        for _ in range(samples):
            size = int(rng.integers(1, k + 1))
            cols = np.sort(rng.choice(n, size=size, replace=False))
            z = rng.standard_normal(size)
            add(sign_standard(phi[:, cols] @ z, pol))
        ordered = [found[k_] for k_ in sorted(found)]
        return YkResult(measurements=ordered, exact=False)

    if k >= 1:
        for j in range(n):
            cols = np.array([j], dtype=int)
            for s in (1.0, -1.0):
                cand = sign_standard(s * phi[:, j], pol)
                if tuple(int(v) for v in cand) in found:
                    continue
                if _support_realizable(phi, cand, cols, pol):
                    add(cand)
    if k >= 2:
        for pair in combinations(range(n), 2):
            cols = np.array(pair, dtype=int)
            normals = phi[:, cols]
            angles: list[float] = []
            for r in range(m):
                a, b = normals[r]
                if abs(a) < 1e-13 and abs(b) < 1e-13:
                    continue
                base = math.atan2(b, a) + math.pi / 2.0
                for extra in (0.0, math.pi):
                    angles.append((base + extra) % (2.0 * math.pi))
            angles = sorted(set(round(a, 12) for a in angles))
            test_angles: list[float] = []
            if not angles:
                test_angles.append(0.0)
            else:
                for idx, a in enumerate(angles):
                    nxt = angles[(idx + 1) % len(angles)]
                    if idx + 1 == len(angles):
                        nxt += 2.0 * math.pi
                    test_angles.append(a)
                    test_angles.append((a + nxt) / 2.0)
            for ang in test_angles:
                z = np.array([math.cos(ang), math.sin(ang)])
                cand = sign_standard(normals @ z, pol)
                if tuple(int(v) for v in cand) in found:
                    continue
                if _support_realizable(phi, cand, cols, pol):
                    add(cand)

    ordered = [found[k_] for k_ in sorted(found)]
    return YkResult(measurements=ordered, exact=True)


@dataclass
class AugmentationStep:
    """One move of the active-set walk.

    new_active_row is the measurement row that became binding (None for a
    support-shrink move); shrunk_index is the signal coordinate driven to
    zero (None for a row-activation move)."""

    direction: np.ndarray
    step: float
    new_active_row: int | None
    shrunk_index: int | None


@dataclass
class AugmentationTrace:
    steps: list[AugmentationStep]
    final_x: np.ndarray
    final_active: ActiveSets
    stack_full_rank: bool
    support_shrunk: bool


def active_set_augmentation(phi, y, x,
                            tol: TolerancePolicy | None = None) -> AugmentationTrace:
    """Walk a consistent signal to a point whose active stack has full column rank.

    First rescales by minimal_scaling (recorded as a step when the factor
    is not 1), then repeatedly moves along a null direction of the active
    stack until a new row binds or a support coordinate hits zero; a
    shrink restarts the walk on the smaller support.  Active rows are
    never deactivated and every intermediate point stays feasible.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    m, n = phi.shape
    meas = y if isinstance(y, SignMeasurement) else SignMeasurement.from_y(y)
    x = as_vector(x, n).copy()
    if not is_consistent(phi, x, meas, tol=pol):
        raise ValueError("walk needs a sign-consistent starting signal")

    alpha = minimal_scaling(phi, x, meas, pol)
    steps: list[AugmentationStep] = []
    if abs(alpha - 1.0) > 1e-12:
        v = phi @ x
        signed_rows = np.concatenate([meas.j_plus, meas.j_minus])
        newly = [int(i) for i in signed_rows
                 if abs(alpha * abs(v[i]) - 1.0) <= pol.active_tol]
        nrm = float(np.linalg.norm(x))
        steps.append(AugmentationStep(
            direction=x / nrm, step=(alpha - 1.0) * nrm,
            new_active_row=min(newly), shrunk_index=None))
        x = alpha * x

    support_shrunk = False
    guard = (m + n + 2) ** 2
    while True:
        if len(steps) > guard:
            raise RuntimeError("active-set walk failed to terminate")
        sp, sm = signed_support(x, pol)
        support = np.sort(np.concatenate([sp, sm]))
        acts = active_sets(phi, x, meas, pol)
        rows = np.concatenate([acts.active, meas.j_zero]).astype(int)
        stack = phi[np.ix_(rows, support)] if rows.size else np.zeros((0, support.size))
        if column_rank(stack, pol) == support.size:
            return AugmentationTrace(
                steps=steps, final_x=x,
                final_active=acts, stack_full_rank=True,
                support_shrunk=support_shrunk)

        d_s = null_space_basis(stack, pol)[:, 0]
        d = np.zeros(n)
        d[support] = d_s
        w = phi @ d
        v = phi @ x
        events: list[tuple[float, int, int]] = []  # (lambda, kind, index); kind 0=row, 1=shrink
        for i in acts.inactive_plus:
            if abs(w[i]) > 1e-12:
                events.append(((1.0 - v[i]) / w[i], 0, int(i)))
        for i in acts.inactive_minus:
            if abs(w[i]) > 1e-12:
                events.append(((-1.0 - v[i]) / w[i], 0, int(i)))
        for j in support:
            if abs(d[j]) > 1e-12:
                events.append((-x[j] / d[j], 1, int(j)))
        if not events:
            raise RuntimeError("active-set walk found no blocking event")
        events.sort(key=lambda e: (abs(e[0]), 0 if e[0] > 0 else 1, e[1], e[2]))
        lam, kind, idx = events[0]
        x = x + lam * d
        if kind == 1:
            x[idx] = 0.0
            support_shrunk = True
            steps.append(AugmentationStep(direction=d, step=lam,
                                          new_active_row=None, shrunk_index=idx))
        else:
            steps.append(AugmentationStep(direction=d, step=lam,
                                          new_active_row=idx, shrunk_index=None))
