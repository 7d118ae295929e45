"""Package LPs against formulations solved by HiGHS.

The membership LP runs over the support columns only (a one-column
support is answered in closed form), and l0_min over the columns of each
candidate support.  Both must give the optimum of the full formulation,
which HiGHS (scipy.optimize.linprog) solves independently of the package's
simplex.  The sign-cone relaxation must reach the HiGHS
optimum of the same p - q program on seeded experiment instances.
"""

import math
from itertools import combinations, product

import numpy as np
import pytest

from onebitcs.certify import _membership_margin
from onebitcs.decoders import relaxation_gd
from onebitcs.experiment import draw_matrix, draw_signal, trial_rng
from onebitcs.oracle import l0_min
from onebitcs.signmodel import SignMeasurement, sign_standard

linprog = pytest.importorskip("scipy.optimize").linprog

INSTANCES = 50
PATTERNS_PER_INSTANCE = 6


def instance(rng):
    """Dense Gaussian or row-sparse (one nonzero per row) phi with m, n <= 6,
    measured at a sparse signal so that zero rows occur; never y = 0."""
    while True:
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            phi = rng.normal(size=(m, n))
        else:
            phi = np.zeros((m, n))
            phi[np.arange(m), rng.integers(0, n, size=m)] = rng.choice([-1, 1], size=m) \
                * rng.uniform(0.3, 2.0, size=m)
        x = np.zeros(n)
        supp = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
        x[supp] = rng.normal(size=supp.size)
        v = phi @ x
        y = np.where(v > 1e-8, 1, np.where(v < -1e-8, -1, 0))
        if y.any():
            return phi, y


def full_membership_t(phi, y, sp, sm):
    """max t over (x, t): s_j x_j >= t on the support, x_j = 0 off it,
    y_i phi_i x >= t on signed rows, phi_i x = 0 on zero rows, |x| <= 1,
    0 <= t <= 1."""
    n = phi.shape[1]
    s = np.zeros(n)
    s[list(sp)] = 1.0
    s[list(sm)] = -1.0
    on = s != 0
    signed = y != 0
    a_ub = np.vstack([
        np.hstack([-np.diag(s)[on], np.ones((int(on.sum()), 1))]),
        np.hstack([-(y[signed, None] * phi[signed]), np.ones((int(signed.sum()), 1))]),
    ])
    a_eq = np.vstack([np.hstack([np.eye(n)[~on], np.zeros((int((~on).sum()), 1))]),
                      np.hstack([phi[~signed], np.zeros((int((~signed).sum()), 1))])])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]),
                  A_eq=a_eq if a_eq.shape[0] else None,
                  b_eq=np.zeros(a_eq.shape[0]) if a_eq.shape[0] else None,
                  bounds=[(-1.0, 1.0)] * n + [(0.0, 1.0)], method="highs")
    assert res.status == 0
    return -res.fun


def full_l0(phi, y):
    """Smallest support carrying some x with y_i phi_i x >= 1 on the signed
    rows and phi_i x = 0 on the zero rows, by HiGHS feasibility solves."""
    n = phi.shape[1]
    signed = y != 0
    for size in range(1, n + 1):
        for supp in combinations(range(n), size):
            sub = phi[:, list(supp)]
            res = linprog(np.zeros(size), A_ub=-(y[signed, None] * sub[signed]),
                          b_ub=-np.ones(int(signed.sum())),
                          A_eq=sub[~signed] if (~signed).any() else None,
                          b_eq=np.zeros(int((~signed).sum())) if (~signed).any() else None,
                          bounds=[(None, None)] * size, method="highs")
            if res.status == 0:
                return float(size)
    return math.inf


def test_membership_and_l0_agree_with_highs():
    rng = np.random.default_rng(20141218)
    row_sparse_with_zeros = one_column = 0
    for _ in range(INSTANCES):
        phi, y = instance(rng)
        meas = SignMeasurement.from_y(y)
        row_sparse_with_zeros += bool(np.count_nonzero(phi) == phi.shape[0] and meas.j_zero.size)
        n = phi.shape[1]
        patterns = [(supp, signs) for size in (1, 2)
                    for supp in combinations(range(n), size)
                    for signs in product((1, -1), repeat=size)]
        for idx in rng.choice(len(patterns), size=PATTERNS_PER_INSTANCE, replace=False):
            supp, signs = patterns[idx]
            sp = tuple(j for j, s in zip(supp, signs) if s == 1)
            sm = tuple(j for j, s in zip(supp, signs) if s == -1)
            cert = _membership_margin(phi, meas, sp, sm)
            # One-column supports the signs do not refute take the closed form.
            signed = y != 0
            one_column += len(supp) == 1 and bool(np.all(
                y[signed] * phi[signed, supp[0]] * signs[0] > 0))
            assert cert.t_star == pytest.approx(full_membership_t(phi, y, sp, sm), abs=1e-9)
            x = cert.witness
            assert np.all(x[list(sp)] >= cert.t_star - 1e-9)
            assert np.all(x[list(sm)] <= -cert.t_star + 1e-9)
            assert np.count_nonzero(x) <= len(supp)
        assert l0_min(phi, y).value == full_l0(phi, y)
    assert row_sparse_with_zeros >= 5
    assert one_column >= 10


# (experiment seed, k, trial) at 20 x 40: a seeded grid, plus four trials
# on which the earlier 2n-bound-row encoding of the relaxation stalled in
# phase 1 although the LP is feasible.
RELAXATION_TRIALS = (
    [(1412000 + s, k, t) for s in range(4) for k in (1, 2, 3) for t in range(3)]
    + [(1412000, 1, 8), (1412000, 1, 24), (1412001, 1, 3), (1412001, 1, 16)]
)


def highs_relaxation(phi, y):
    """min 1'(p + q) over p, q >= 0 with Y phi (p - q) >= 0 and
    sum(Y phi (p - q)) = m, by HiGHS."""
    m, n = phi.shape
    yphi = y[:, None] * phi
    a = np.hstack([yphi, -yphi])
    res = linprog(np.ones(2 * n), A_ub=-a, b_ub=np.zeros(m),
                  A_eq=a.sum(axis=0)[None, :], b_eq=[float(m)],
                  bounds=[(0.0, None)] * (2 * n), method="highs")
    assert res.status == 0
    return res.fun


def test_relaxation_agrees_with_highs():
    for seed, k, t in RELAXATION_TRIALS:
        rng = trial_rng(seed, k, t)
        phi = draw_matrix(rng, 20, 40, "gaussian")
        y = sign_standard(phi @ draw_signal(rng, 40, k))
        assert np.all(y != 0)
        x, obj, _ = relaxation_gd(phi, y)
        assert x is not None, (seed, k, t)
        assert obj == pytest.approx(highs_relaxation(phi, y), rel=1e-6), (seed, k, t)
        v = y * (phi @ x)
        assert np.all(v >= -1e-9 * (1.0 + np.abs(phi) @ np.abs(x))), (seed, k, t)
        assert v.sum() == pytest.approx(20.0, rel=1e-9), (seed, k, t)
