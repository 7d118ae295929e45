"""Brute-force ground truth at desk scale.

Everything in this module trades time for certainty: vertices are
enumerated outright, supports are swept exhaustively, and sign images and
patterns are read off the faces of the hyperplane arrangement of each
support, each face confirmed by its own point or, where that point misses
margin_tol, by the membership margin LP.  Each entry point refuses
instances beyond its enumeration budget instead of sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from . import lp
from .certify import _sign_faces, _signed_patterns
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
    as_measurement,
    is_consistent,
    minimal_scaling,
    signed_support,
)

VERTEX_BUDGET = 300_000
L0_MAX_COLS = 14
L0_MAX_SPARSITY = 3
YK_BUDGET = 300_000


# Candidate active sets solved per batch.
_CHUNK = 1024


def _independent_rows(a: np.ndarray, tol: TolerancePolicy) -> list[int]:
    kept: list[int] = []
    for i in range(a.shape[0]):
        trial = a[kept + [i]]
        if column_rank(trial, tol) == len(kept) + 1:
            kept.append(i)
    return kept


def _feasible(x: np.ndarray, a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Which rows of x (one candidate point each) satisfy every row of
    (a, b, s) within 1e-7 (1 + |a_i| |x| + |b_i|)."""
    v = x @ a.T
    ft = 1e-7 * (1.0 + np.abs(x) @ np.abs(a).T + np.abs(b))
    ok = np.where(s > 0, v >= b - ft,
                  np.where(s < 0, v <= b + ft, np.abs(v - b) <= ft))
    return ok.all(axis=1)


def _vertex_sweep(a, b, s, c_eff, tol):
    """Enumerate vertices of the row form (a, b, s) and minimize c_eff.

    Every equality row (s_i = 0) is active; the remaining active set runs
    over subsets of the inequality rows, in combinations order, and the
    first candidate beating the best objective by more than 1e-12 wins.
    Returns (feasible, best_x, best_obj).  Raises ValueError when the
    candidate count exceeds VERTEX_BUDGET.
    """
    n = a.shape[1]
    eq = s == 0
    eq_a, eq_b = a[eq], b[eq]
    if eq_a.shape[0]:
        aug = np.hstack([eq_a, eq_b[:, None]])
        if column_rank(aug, tol) > column_rank(eq_a, tol):
            return False, None, None
        kept = _independent_rows(eq_a, tol)
        eq_a, eq_b = eq_a[kept], eq_b[kept]
    g, h = a[~eq], b[~eq]
    slots = n - eq_a.shape[0]

    count = math.comb(g.shape[0], slots)
    if count > VERTEX_BUDGET:
        raise ValueError(
            f"vertex enumeration needs {count} candidates, beyond the "
            f"budget of {VERTEX_BUDGET}; instance too large for the oracle")
    best_x = None
    best_obj = None
    sets = combinations(range(g.shape[0]), slots)
    while chunk := list(islice(sets, _CHUNK)):
        chosen = np.array(chunk, dtype=int).reshape(len(chunk), slots)
        mats = np.concatenate(
            [np.broadcast_to(eq_a, (len(chunk), *eq_a.shape)), g[chosen]], axis=1)
        rhs = np.concatenate(
            [np.broadcast_to(eq_b, (len(chunk), eq_b.size)), h[chosen]], axis=1)
        # An exactly zero LU pivot: the sets np.linalg.solve would refuse.
        regular = np.linalg.slogdet(mats)[0] != 0
        mats, rhs = mats[regular], rhs[regular]
        x = np.linalg.solve(mats, rhs[..., None])[..., 0]
        finite = np.isfinite(x).all(axis=1)
        mats, rhs, x = mats[finite], rhs[finite], x[finite]
        resid = np.abs((mats @ x[..., None])[..., 0] - rhs).max(axis=1, initial=0.0)
        x = x[resid <= 1e-6 * (1.0 + np.abs(rhs).max(axis=1, initial=0.0))]
        for xi in x[_feasible(x, a, b, s)]:
            obj = float(c_eff @ xi)
            if best_obj is None or obj < best_obj - 1e-12:
                best_obj = obj
                best_x = xi
    if best_x is None:
        return False, None, None
    return True, best_x, best_obj


def lp_vertex_oracle(p: lp.LPProblem, tol: TolerancePolicy | None = None) -> lp.LPSolution:
    """Solve a small LP by exhaustive vertex enumeration.

    Vertices are active-constraint subsets of the original mixed form:
    every equality row is always active, and the remaining active set runs
    over subsets of the inequality rows and nonnegativity bounds.
    Unboundedness is decided by pinning the lineality space and, when a
    sign precheck cannot certify boundedness, scanning the vertices of the
    recession cone boxed to [-1, 1]^n for a cost-decreasing direction.
    Never consults the simplex; intended as its independent cross-check.
    Raises ValueError when a sweep needs more than VERTEX_BUDGET candidate
    active sets (read at call time).
    """
    pol = tol or DEFAULT_TOLERANCES
    n = p.n_vars
    sign = -1.0 if p.sense == "max" else 1.0
    c_eff = sign * p.c

    # Row form s_i (a_i x - b_i) >= 0, or a_i x = b_i where s_i is 0, with
    # the senses of p (rows are never negated): equality rows, inequality
    # rows, then x_j >= 0 for each sign-constrained variable.
    eq = p.senses == 0
    bounded = ~p.free
    a = np.vstack([p.a[eq], p.a[~eq], np.eye(n)[bounded]])
    b = np.concatenate([p.b[eq], p.b[~eq], np.zeros(int(bounded.sum()))])
    s = np.concatenate([p.senses[eq], p.senses[~eq], np.ones(int(bounded.sum()))])

    # Lineality space: directions along which every constraint is blind;
    # pinned to zero as extra equality rows.
    lin = null_space_basis(a, pol)
    if lin.shape[1]:
        cl = c_eff @ lin
        a = np.vstack([a, lin.T])
        b = np.concatenate([b, np.zeros(lin.shape[1])])
        s = np.concatenate([s, np.zeros(lin.shape[1])])
        if float(np.max(np.abs(cl))) > 1e-9 * (1.0 + float(np.max(np.abs(c_eff), initial=0.0))):
            feas, _, _ = _vertex_sweep(a, b, s, np.zeros(n), pol)
            if not feas:
                return lp.LPSolution(status=lp.INFEASIBLE)
            i_best = int(np.argmax(np.abs(cl)))
            ray = -np.sign(cl[i_best]) * lin[:, i_best]
            return lp.LPSolution(status=lp.UNBOUNDED, ray=ray)

    feas, x_best, _ = _vertex_sweep(a, b, s, c_eff, pol)
    if not feas:
        return lp.LPSolution(status=lp.INFEASIBLE)

    # Boundedness.  Cheap certificate first: a minimization whose cost is
    # zero on free variables and nonnegative on sign-constrained ones is
    # bounded below on the feasible set.
    if not np.where(p.free, np.abs(c_eff) <= 1e-15, c_eff >= -1e-15).all():
        # Recession cone: every row with zero right-hand side, boxed by
        # d_j <= 1 then d_j >= -1 for each variable.
        cone_a = np.vstack([a, np.repeat(np.eye(n), 2, axis=0)])
        cone_b = np.concatenate([np.zeros(a.shape[0]), np.tile([1.0, -1.0], n)])
        cone_s = np.concatenate([s, np.tile([-1.0, 1.0], n)])
        feas_cone, d_best, d_obj = _vertex_sweep(cone_a, cone_b, cone_s, c_eff, pol)
        if feas_cone and d_obj < -1e-9 * (1.0 + float(np.max(np.abs(c_eff)))):
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
    need 0 >= 1) and is skipped without an LP.  So is a one-column support
    {j} whose signed rows' y_i phi_ij take both signs (x_j would need both
    signs) or that a zero row with phi_ij != 0 pins to x_j = 0.  Refuses a
    negative cap, and wide instances unless the sweep is capped at small
    sparsity.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    m, n = phi.shape
    meas = as_measurement(y, m)
    if meas.is_zero():
        raise ValueError("sparsest-signal search is undefined for the zero measurement")
    if k_max is None:
        k_max = n
    if k_max < 0:
        raise ValueError(f"sparsity must be nonnegative, got {k_max}")
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
    y_phi = b[:signed, None] * phi[order[:signed]]
    one_signed = (y_phi > 0.0).all(axis=0) | (y_phi < 0.0).all(axis=0)
    solvable_alone = one_signed & ~phi[order[signed:]].any(axis=0)
    for size in range(1, min(k_max, n) + 1):
        hits = []
        for supp in combinations(range(n), size):
            if size == 1 and not solvable_alone[supp[0]]:
                continue
            cols = np.array(supp, dtype=int)
            block = phi[order[:, None], cols]
            if not block[:signed].any(axis=1).all():
                continue
            cert = lp.max_margin_feasibility(block, rels, b, strict)
            if cert.t_star < 0.0:
                continue
            x = np.zeros(n)
            x[cols] = cert.witness
            sp, sm = signed_support(x, pol)
            hits.append(((tuple(int(j) for j in sp), tuple(int(j) for j in sm)), x))
        if hits:
            return SparsestSet(value=float(size), witnesses=hits)
    return SparsestSet(value=math.inf, witnesses=[])


def _faces(phi: np.ndarray, k: int, tol: TolerancePolicy, carried=None) -> dict:
    """_sign_faces, refused before any work when its path count C(n, k)
    (m + k)^k, m + k hyperplanes at each of k levels, exceeds YK_BUDGET."""
    m, n = phi.shape
    count = math.comb(n, k) * (m + k) ** k
    if count > YK_BUDGET:
        raise ValueError(
            f"sign-image walk needs {count} hyperplane paths, beyond the budget of "
            f"{YK_BUDGET}; instance too large for the oracle")
    return _sign_faces(phi, k, tol, carried)


def enumerate_P(phi, y, k: int,
                tol: TolerancePolicy | None = None
                ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All nonempty signed supports of size <= k realized by consistent
    signals, in (size, support, signs) lexicographic order: the patterns
    of the faces that carry y, walked over the supports of size min(k, n);
    only the faces whose sign row is y are confirmed.  k must be
    nonnegative and y nonzero; refuses walks beyond YK_BUDGET."""
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    n = phi.shape[1]
    meas = as_measurement(y, phi.shape[0])
    if meas.is_zero():
        raise ValueError("pattern enumeration is undefined for the zero measurement")
    if k < 0:
        raise ValueError(f"sparsity must be nonnegative, got {k}")
    faces = _faces(phi, min(k, n), pol, meas.y)
    return [p for p in _signed_patterns(n, min(k, n)) if p in faces]


def enumerate_Yk(phi, k: int, tol: TolerancePolicy | None = None
                 ) -> list[SignMeasurement]:
    """All sign measurements producible by k-sparse signals, sorted.

    Exact for every k: the zero measurement and the y of every confirmed
    face of the walk over the supports of size k (_sign_faces).  Refuses,
    before any work, walks beyond YK_BUDGET.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    m, n = phi.shape
    if k < 0 or k > n:
        raise ValueError(f"sparsity must lie in [0, {n}], got {k}")
    found = {(0,) * m}.union(*_faces(phi, k, pol).values())
    return [SignMeasurement.from_y(np.array(key, dtype=int)) for key in sorted(found)]


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
    meas = as_measurement(y, m)
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
