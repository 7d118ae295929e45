"""Uniqueness certificates, dual witnesses, and relaxation audits."""

import dataclasses
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import onebitcs
from onebitcs import certify, lp, oracle
from onebitcs.certify import (
    NECESSARY,
    NONSTANDARD_PHIX,
    NONSTANDARD_X,
    STANDARD_COND,
    SUFFICIENT,
    RrspEvidence,
    RrspWitness,
    TPair,
    _eliminated_witness_margin,
    _kept_stack,
    _membership_margin,
    _pair_evidence,
    _pair_test,
    _row_roles,
    _sign_faces,
    _sign_witness_margin,
    _signed_patterns,
    _tpairs,
    membership_P,
    pattern_witness,
    patterns_of_measurement,
    relaxation_consistency,
    rrsp_order_k,
    rrsp_wrt_y,
    uniqueness_certificate,
    witness_is_valid,
)
from onebitcs.decoders import one_bit_bp
from onebitcs.linalg import DEFAULT_TOLERANCES, TolerancePolicy, column_rank
from onebitcs.oracle import enumerate_P, enumerate_Yk, l0_min
from onebitcs.signmodel import (
    NONSTANDARD,
    SignMeasurement,
    is_consistent,
    sign_standard,
)

PHI = np.array([[2., -1., 0., 2.], [-1., 1., 1., 0.]])
Y = np.array([1, -1])
MEAS = SignMeasurement.from_y(Y)


class TestAssembleH:
    """The boundary submatrix H whose rank uniqueness_certificate reports,
    built from phi and the report by the boundary_h fixture."""

    def test_flagship_single_active_row(self, boundary_h):
        rep = uniqueness_certificate(PHI, Y, np.array([1., 0., 0., 0.]))
        h = boundary_h(PHI, Y, rep)
        assert h.shape == (1, 1)
        assert h[0, 0] == -1.0
        assert rep.h_rank == 1 and rep.h_full_rank
        assert rep.witness_rows == ((), (1,), (0,))
        assert rep.s_plus == (0,)
        assert rep.s_minus == ()

    def test_identity_full_boundary(self, boundary_h):
        y = np.array([1, -1])
        rep = uniqueness_certificate(np.eye(2), y, np.array([1., -1.]))
        np.testing.assert_array_equal(boundary_h(np.eye(2), y, rep), np.eye(2))
        assert rep.h_rank == 2 and rep.h_full_rank

    def test_interior_point_has_empty_row_set(self, boundary_h):
        y = np.array([1, -1])
        rep = uniqueness_certificate(np.eye(2), y, np.array([2., -2.]))
        assert boundary_h(np.eye(2), y, rep).shape == (0, 2)
        assert rep.h_rank == 0 and not rep.h_full_rank

    def test_rows_and_columns_follow_the_report(self, boundary_h):
        """The matrix whose rank the certificate tests is phi on the witness
        rows then j_zero, by s_plus then s_minus, and h_rank is its rank."""
        rng = np.random.default_rng(18)
        zero_rows = 0
        for _ in range(40):
            phi = rng.normal(size=(5, 4))
            phi[rng.integers(0, 5), :] = 0.0
            meas = SignMeasurement.from_y(sign_standard(phi @ rng.normal(size=4)))
            sol = one_bit_bp(phi, meas)
            if sol.status != lp.OPTIMAL:
                continue
            rep = uniqueness_certificate(phi, meas, sol.x)
            zero_rows += meas.j_zero.size
            h = boundary_h(phi, meas, rep)
            roles = _row_roles(meas, rep.active.inactive_plus, rep.active.inactive_minus)
            np.testing.assert_array_equal(h, _kept_stack(phi, roles, rep.s_plus, rep.s_minus))
            assert rep.h_rank == column_rank(h)
            assert rep.h_full_rank == (rep.h_rank == h.shape[1])
        assert zero_rows


class TestRrspAt:
    """The pointwise RRSP test inside uniqueness_certificate."""

    def test_identity_boundary_point_holds(self):
        check = uniqueness_certificate(np.eye(2), np.array([1, -1]), np.array([1., -1.]))
        assert check.rrsp_holds
        assert check.margin == pytest.approx(1.0)
        np.testing.assert_allclose(check.witness.w, [1.0, -1.0], atol=1e-9)
        np.testing.assert_allclose(check.witness.eta, [1.0, -1.0], atol=1e-9)

    def test_flagship_decoder_point_fails(self):
        check = uniqueness_certificate(PHI, Y, np.array([1., 0., 0., 0.]))
        assert not check.rrsp_holds
        assert check.margin == pytest.approx(0.0, abs=1e-12)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            uniqueness_certificate(PHI, Y, np.zeros(4))


class TestUniquenessCertificate:
    def test_identity_unique(self):
        rep = uniqueness_certificate(np.eye(2), np.array([1, -1]), np.array([1., -1.]))
        assert rep.unique
        assert rep.h_full_rank and rep.rrsp_holds
        assert rep.notes == ()

    def test_flagship_not_unique(self):
        rep = uniqueness_certificate(PHI, Y, np.array([1., 0., 0., 0.]))
        assert not rep.unique
        assert rep.h_full_rank
        assert not rep.rrsp_holds
        assert any("margin" in note for note in rep.notes)

    def test_interior_point_fails_on_rank(self):
        rep = uniqueness_certificate(np.eye(2), np.array([1, -1]), np.array([2., -2.]))
        assert not rep.unique
        assert not rep.h_full_rank
        assert rep.h_rank == 0

    def test_witness_rechecks_independently(self):
        rep = uniqueness_certificate(np.eye(2), np.array([1, -1]), np.array([1., -1.]))
        w = rep.witness
        assert witness_is_valid(np.eye(2), w, rep.s_plus, rep.s_minus,
                                [0], [1], [])
        # corrupting the witness must fail the recheck
        bad = RrspWitness(eta=w.eta.copy(), w=-w.w, margin=w.margin)
        assert not witness_is_valid(np.eye(2), bad, rep.s_plus, rep.s_minus,
                                    [0], [1], [])

    def test_witness_recheck_reads_the_policy(self):
        """sign_tol governs the equalities, margin_tol the strict checks."""
        rep = uniqueness_certificate(np.eye(2), np.array([1, -1]), np.array([1., -1.]))
        w = rep.witness
        args = (rep.s_plus, rep.s_minus, [0], [1], [])
        shifted = RrspWitness(eta=w.eta + 1e-7, w=w.w, margin=w.margin)
        assert not witness_is_valid(np.eye(2), shifted, *args)
        assert witness_is_valid(np.eye(2), shifted, *args, tol=TolerancePolicy(sign_tol=1e-6))
        overstated = RrspWitness(eta=w.eta, w=w.w, margin=w.margin + 1e-7)
        assert not witness_is_valid(np.eye(2), overstated, *args)
        assert witness_is_valid(np.eye(2), overstated, *args,
                                tol=TolerancePolicy(margin_tol=1e-5))

    def test_partition_is_computed_once(self, monkeypatch):
        import onebitcs.certify as certify
        calls = {"active_sets": 0, "signed_support": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(certify, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(certify, name, counted)
        rep = uniqueness_certificate(PHI, Y, np.array([1., 0., 0., 0.]))
        assert calls == {"active_sets": 1, "signed_support": 1}
        assert rep.witness_rows == ((), (1,), (0,))

    def test_duplicate_active_row_keeps_verdict(self):
        """Appending a copy of an already-active row never flips the
        certificate."""
        phi = np.eye(2)
        y = np.array([1, -1])
        x = np.array([1., -1.])
        base = uniqueness_certificate(phi, y, x)
        for i in (0, 1):
            phi2 = np.vstack([phi, phi[i]])
            y2 = np.append(y, y[i])
            rep = uniqueness_certificate(phi2, y2, x)
            assert rep.unique == base.unique
        # same exercise on a non-unique instance
        base2 = uniqueness_certificate(PHI, Y, np.array([1., 0., 0., 0.]))
        phi3 = np.vstack([PHI, PHI[1]])
        y3 = np.append(Y, Y[1])
        rep3 = uniqueness_certificate(phi3, y3, np.array([1., 0., 0., 0.]))
        assert rep3.unique == base2.unique


class TestEmpiricalUniquenessAgreement:
    def test_certificate_tracks_alternative_search(self, rank_profile, boundary_h):
        """Certificate verdict versus the 20-restart second-optimum hunt.

        A short version of the full acceptance sweep: every disagreement
        must sit in the tolerance band (margin or rank pivot within 10x)."""
        from onebitcs.decoders import encode_bp_lp

        rng = np.random.default_rng(42)
        agree = disagree = 0
        for _ in range(60):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            phi = rng.normal(size=(m, n))
            y = sign_standard(phi @ rng.normal(size=n))
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            sol = one_bit_bp(phi, meas)
            if sol.status != lp.OPTIMAL or np.abs(sol.x).max() < 1e-9:
                continue
            rep = uniqueness_certificate(phi, meas, sol.x)
            problem, x_of = encode_bp_lp(phi, meas)
            lp_sol = lp.solve(problem)
            alt = lp.alternative_optimum(problem, lp_sol)
            found = alt is not None and np.linalg.norm(x_of(alt) - sol.x) > 1e-6
            if rep.unique == (not found):
                agree += 1
            else:
                disagree += 1
                near_margin = abs(rep.margin) <= 10 * 1e-8
                _, pivots = rank_profile(boundary_h(phi, meas, rep))
                near_rank = pivots.size and pivots.min() <= 10 * 1e-9
                assert near_margin or near_rank
        assert agree >= 30
        assert disagree <= max(1, (agree + disagree) // 50)


def _sweep_finds_direction(phi, meas, i, mode):
    """Reference audit of row i by one LP per coordinate and sign: d_j >= 1
    or -d_j >= 1 in "nonstandard_x" mode, s * phi_r d >= 1 otherwise."""
    m, n = phi.shape
    rows = [(phi[i], "=", 0.0)]
    rows += [(phi[r], ">=", 0.0) for r in meas.j_plus]
    rows += [(phi[r], "<=", 0.0) for r in meas.j_minus]
    rows += [(phi[r], "=", 0.0) for r in meas.j_zero]
    normals = np.eye(n) if mode == NONSTANDARD_X else phi
    for v, s in product(normals, (1.0, -1.0)):
        p = lp.LPProblem.from_rows(np.zeros(n), rows + [(s * v, ">=", 1.0)],
                                   free=np.ones(n, dtype=bool))
        if lp.solve(p).status == lp.OPTIMAL:
            return True
    return False


class TestRelaxationAudit:
    def test_flagship_nonstandard_violations(self):
        for mode in (NONSTANDARD_X, NONSTANDARD_PHIX):
            holds, violations = relaxation_consistency(PHI, Y, mode)
            assert not holds
            rows = [i for i, _ in violations]
            assert rows == [1]
            d = violations[0][1]
            v = PHI @ d
            assert abs(v[1]) <= 1e-8  # in the audited row's null space
            assert v[0] >= -1e-8      # still inside the sign cone

    def test_single_positive_row_holds(self):
        holds, violations = relaxation_consistency(
            np.array([[1.0]]), np.array([-1]), NONSTANDARD_X)
        assert holds
        assert violations == []

    def test_identity_standard_mode_violated(self):
        holds, violations = relaxation_consistency(
            np.eye(2), np.array([1, -1]), STANDARD_COND)
        assert not holds
        assert violations[0][0] == 0
        d = violations[0][1]
        # the witness annihilates row 0 while staying in the cone
        assert abs(d[0]) <= 1e-8
        assert d[1] <= 1e-8

    def test_one_lp_per_audited_row(self, monkeypatch):
        """Each audited row costs one LP, and the verdict per row matches the
        coordinate sweep (s * phi_r d >= 1 over every row r and sign s)."""
        solves = []
        real_solve = lp.solve
        monkeypatch.setattr(lp, "solve", lambda p: solves.append(p) or real_solve(p))
        rng = np.random.default_rng(11)
        cases = [(PHI, Y, NONSTANDARD_PHIX), (np.eye(2), np.array([1, -1]), STANDARD_COND)]
        while len(cases) < 30:
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, m + 1))
            phi = rng.normal(size=(m, n))
            y = sign_standard(phi @ rng.normal(size=n))
            if rng.random() < 0.3:
                y[rng.integers(0, m)] = 0
            meas = SignMeasurement.from_y(y)
            if meas.j_zero.size == 0 and meas.j_minus.size:
                cases.append((phi, y, (NONSTANDARD_X, NONSTANDARD_PHIX)[len(cases) % 2]))
            elif not meas.is_zero():
                cases.append((phi, y, STANDARD_COND))
        for phi, y, mode in cases:
            meas = SignMeasurement.from_y(y)
            audited = meas.j_minus if mode != STANDARD_COND else np.flatnonzero(y)
            solves.clear()
            holds, violations = relaxation_consistency(phi, y, mode)
            assert len(solves) == audited.size
            solves.clear()
            expected = [int(i) for i in audited if _sweep_finds_direction(phi, meas, i, mode)]
            assert [i for i, _ in violations] == expected
            assert holds == (not expected)

    @pytest.mark.parametrize("status", [lp.STALLED, lp.INACCURATE])
    def test_broken_audit_lp_raises(self, monkeypatch, status):
        """Only optimal counted as a violation, so a broken audit LP once
        read as holding."""
        monkeypatch.setattr(lp, "solve", lambda p: lp.LPSolution(status=status))
        with pytest.raises(RuntimeError, match=f"audit LP did not solve cleanly: status {status}"):
            relaxation_consistency(np.eye(2), np.array([1, -1]), STANDARD_COND)

    def test_rank_deficient_x_mode_uses_null_direction(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(3, 5))
        y = np.array([1, -1, -1])
        holds, violations = relaxation_consistency(phi, y, NONSTANDARD_X)
        assert not holds
        assert [i for i, _ in violations] == [1, 2]
        for _, d in violations:
            assert np.linalg.norm(d) > 0.5
            assert np.max(np.abs(phi @ d)) <= 1e-9

    def test_mode_preconditions(self):
        with pytest.raises(ValueError):
            relaxation_consistency(PHI, np.array([1, 0]), NONSTANDARD_X)
        with pytest.raises(ValueError):
            relaxation_consistency(PHI, np.array([1, 1]), NONSTANDARD_PHIX)
        with pytest.raises(ValueError):
            relaxation_consistency(PHI, np.array([0, 0]), STANDARD_COND)
        with pytest.raises(ValueError):
            relaxation_consistency(PHI, Y, "bogus")

    def test_nonstandard_equivalence_when_no_negative_rows(self):
        """With y = e the sign cone and the nonstandard consistency set
        coincide; sampled membership must agree outside the tolerance band."""
        rng = np.random.default_rng(42)
        phi = rng.normal(size=(2, 3))
        y = np.ones(2, dtype=int)
        meas = SignMeasurement.from_y(y)
        checked = 0
        for _ in range(10_000):
            x = rng.normal(size=3)
            v = phi @ x
            if np.min(np.abs(v)) <= 1e-7:
                continue
            checked += 1
            cone = (y * v >= 0).all()
            assert is_consistent(phi, x, meas, NONSTANDARD) == cone
        assert checked > 9000

    def test_holds_verdict_never_contradicted_by_sampling(self):
        """On low-dimensional instances a 'holds' audit means every sampled
        cone point (normalized, outside tolerance bands) reproduces y."""
        rng = np.random.default_rng(42)
        audited = 0
        for _ in range(40):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            phi = rng.normal(size=(m, n))
            x0 = rng.normal(size=n)
            y = sign_standard(phi @ x0)
            meas = SignMeasurement.from_y(y)
            if meas.is_zero() or meas.j_zero.size or meas.j_minus.size == 0:
                continue
            holds, _ = relaxation_consistency(phi, y, NONSTANDARD_X)
            if not holds:
                continue
            audited += 1
            for _ in range(250):
                x = rng.normal(size=n)
                v = phi @ x
                if not (y * v >= 0).all():
                    continue
                s = float((y * v).sum())
                if s <= 1e-9:
                    continue
                x_norm = (m / s) * x
                v_norm = phi @ x_norm
                if np.min(np.abs(v_norm)) <= 1e-7:
                    continue
                from onebitcs.signmodel import sign_nonstandard
                np.testing.assert_array_equal(sign_nonstandard(v_norm), y)
        assert audited >= 1


class TestMembershipAndPatterns:
    def test_membership_examples(self):
        assert membership_P(np.eye(2), np.array([1, -1]), (0,), (1,))
        assert not membership_P(np.eye(2), np.array([1, -1]), (0,), ())
        assert membership_P(PHI, Y, (0,), ())
        assert membership_P(PHI, Y, (), (1,))
        assert not membership_P(PHI, Y, (2,), ())

    def test_membership_rejects_overlap(self):
        with pytest.raises(ValueError):
            membership_P(PHI, Y, (0,), (0,))

    def test_pattern_order_is_canonical(self):
        pats = patterns_of_measurement(PHI, MEAS, 1)
        assert pats == [((0,), ()), ((), (1,))]

    def test_identity_patterns(self):
        meas = SignMeasurement.from_y(np.array([1, -1]))
        assert patterns_of_measurement(np.eye(2), meas, 1) == []
        assert patterns_of_measurement(np.eye(2), meas, 2) == [((0,), (1,))]

    @pytest.mark.parametrize("y", [np.array([1]), np.array([1, -1, 1])])
    def test_rejects_measurement_of_other_length(self, y):
        msg = f"measurement has {y.size} rows, matrix has 2"
        meas = SignMeasurement.from_y(y)
        calls = [lambda: membership_P(PHI, y, (0,), ()),
                 lambda: pattern_witness(PHI, y, (0,), ()),
                 lambda: patterns_of_measurement(PHI, meas, 1),
                 lambda: enumerate_P(PHI, y, 1),
                 lambda: rrsp_wrt_y(PHI, y, 1, SUFFICIENT)]
        for call in calls:
            with pytest.raises(ValueError, match=msg):
                call()

    @pytest.mark.parametrize("s_plus, s_minus, msg", [
        ((-1,), (), "outside"),
        ((), (4,), "outside"),
        ((0, 0), (), "repeats"),
        ((), (1, 1), "repeats"),
    ])
    def test_rejects_bad_pattern_columns(self, s_plus, s_minus, msg):
        for fn in (membership_P, pattern_witness):
            with pytest.raises(ValueError, match=msg):
                fn(PHI, Y, s_plus, s_minus)


def _lp_only_membership_margin(phi, meas, s_plus, s_minus) -> lp.MarginCertificate:
    """The membership margin LP over the support columns, always solved:
    the reference for the sign refutation and the one-column closed form
    in _membership_margin."""
    m, n = phi.shape
    support = np.array(list(s_plus) + list(s_minus), dtype=int)
    s = np.array([1.0] * len(s_plus) + [-1.0] * len(s_minus))
    k = support.size
    rows = np.concatenate([meas.j_plus, meas.j_minus, meas.j_zero])
    signed = meas.j_plus.size + meas.j_minus.size
    a = np.zeros((m + 2 * k, k))
    a[:k] = np.eye(k)
    a[k:k + m] = phi[np.ix_(rows, support)] * s
    a[k:k + signed] *= meas.y[rows[:signed], None]
    a[k + m:] = np.eye(k)
    rels = (">=",) * (k + signed) + ("=",) * (m - signed) + ("<=",) * k
    b = np.zeros(m + 2 * k)
    b[k + m:] = 1.0
    return lp.max_margin_feasibility(a, rels, b, range(k + signed),
                                     free=np.zeros(k, dtype=bool))


def _lp_only_l0_min(phi, meas, k_max):
    """l0_min's support sweep with an LP on every support: (value, witness
    signals) as the reference for the skipped supports."""
    n = phi.shape[1]
    order = np.concatenate([meas.j_plus, meas.j_minus, meas.j_zero])
    signed = meas.j_plus.size + meas.j_minus.size
    rels = ((">=",) * meas.j_plus.size + ("<=",) * meas.j_minus.size
            + ("=",) * meas.j_zero.size)
    b = meas.y[order].astype(float)
    for size in range(1, min(k_max, n) + 1):
        hits = []
        for supp in combinations(range(n), size):
            cols = np.array(supp, dtype=int)
            cert = lp.max_margin_feasibility(phi[np.ix_(order, cols)], rels, b,
                                             range(signed))
            if cert.t_star < 0.0:
                continue
            x = np.zeros(n)
            x[cols] = cert.witness
            hits.append(x)
        if hits:
            return float(size), hits
    return math.inf, []


def _refutation_cases():
    """Seeded (phi, y): identity, dense Gaussian and row-sparse matrices
    with exact zeros, each with three measurements of sparse signals and
    one arbitrary measurement."""
    rng = np.random.default_rng(2027)
    mats = [np.eye(n) for n in (2, 3, 4)]
    for _ in range(6):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        mats.append(rng.normal(size=(m, n)))
        mats.append(rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4))
    cases = []
    for phi in mats:
        m, n = phi.shape
        for _ in range(3):
            x = rng.normal(size=n) * (rng.random(n) < 0.5)
            cases.append((phi, SignMeasurement.from_y(sign_standard(phi @ x))))
        cases.append((phi, SignMeasurement.from_y(rng.integers(-1, 2, size=m))))
    return cases


class TestSignRefutation:
    """Supports that the signs refute never reach an LP, and the answers
    stay those of an LP on every support."""

    @staticmethod
    def _count_solves(monkeypatch):
        solves = []
        real_solve = lp.solve
        monkeypatch.setattr(lp, "solve", lambda p: solves.append(p) or real_solve(p))
        return solves

    def test_membership_agrees_with_lp(self, monkeypatch):
        """Over supports of up to 3 columns: _membership_margin's optimum
        is the LP's, LP-free answers included, and membership_P decides as
        the LP does.  Of the 1,064 patterns, 932 margins need no LP (762
        before zero rows refuted supports), and membership_P confirms 35
        more from the sign point x_S = s."""
        solves = self._count_solves(monkeypatch)
        tol = DEFAULT_TOLERANCES.margin_tol
        refuted = confirmed = members = 0
        for phi, meas in _refutation_cases():
            for sp, sm in _signed_patterns(phi.shape[1], 3):
                solves.clear()
                t_star = _membership_margin(phi, meas, sp, sm).t_star
                margin_free = not solves
                ref = _lp_only_membership_margin(phi, meas, sp, sm).t_star
                assert abs(t_star - ref) <= 1e-9
                assert (t_star >= tol) == (ref >= tol)
                solves.clear()
                assert membership_P(phi, meas, sp, sm) == (ref >= tol)
                refuted += margin_free
                confirmed += not solves and not margin_free
                members += ref >= tol
        assert refuted >= 850 and members >= 100
        assert confirmed >= 20

    def test_l0_min_agrees_with_lp(self, monkeypatch):
        solves = self._count_solves(monkeypatch)
        checked = skipped = 0
        for phi, meas in _refutation_cases():
            if meas.is_zero():
                continue
            solves.clear()
            res = l0_min(phi, meas, k_max=2)
            used = len(solves)
            solves.clear()
            value, xs = _lp_only_l0_min(phi, meas, 2)
            skipped += len(solves) - used
            assert res.value == value
            assert len(res.witnesses) == len(xs)
            for (_, x), ref in zip(res.witnesses, xs):
                np.testing.assert_array_equal(x, ref)
            checked += 1
        assert checked >= 40
        # 117 skipped LPs, 83 before one-column supports were skipped.
        assert skipped >= 100

    def test_refuted_membership_solves_no_lp(self, monkeypatch):
        solves = self._count_solves(monkeypatch)
        assert not membership_P(np.eye(2), np.array([1, -1]), (0,), ())
        assert solves == []
        assert pattern_witness(np.eye(2), np.array([1, -1]), (0,), ()) is None
        assert solves == []

    def test_l0_min_skips_supports_with_a_zero_signed_row(self, monkeypatch):
        solves = self._count_solves(monkeypatch)
        phi = np.array([[1., 0., 2.], [0., 3., 0.]])
        res = l0_min(phi, np.array([1, -1]))
        assert res.value == 2
        assert sorted(pat for pat, _ in res.witnesses) == [((0,), (1,)), ((2,), (1,))]
        # Only {0, 1} and {1, 2} reach the LP: every other support of size
        # at most 2 leaves row 0 or row 1 without a nonzero entry.
        assert len(solves) == 2


class TestClosedForms:
    """The two margin questions with nothing left to optimize are answered
    without an LP, and agree with the LP they replace."""

    def test_one_column_membership_matches_its_lp(self, monkeypatch):
        solves = TestSignRefutation._count_solves(monkeypatch)
        tol = DEFAULT_TOLERANCES.margin_tol
        kinds = dict.fromkeys(("zero row", "capped", "fractional"), 0)
        for phi, meas in _refutation_cases():
            for j in range(phi.shape[1]):
                for sign in (1.0, -1.0):
                    pattern = ((j,), ()) if sign > 0 else ((), (j,))
                    solves.clear()
                    cert = _membership_margin(phi, meas, *pattern)
                    assert solves == []
                    ref = _lp_only_membership_margin(phi, meas, *pattern)
                    x = np.zeros(phi.shape[1])
                    x[j] = sign * ref.witness[0]
                    assert abs(cert.t_star - ref.t_star) <= 1e-12
                    np.testing.assert_allclose(cert.witness, x, rtol=0, atol=1e-12)
                    assert (cert.t_star >= tol) == (ref.t_star >= tol)
                    assert membership_P(phi, meas, *pattern) == (ref.t_star >= tol)
                    signed = meas.y != 0
                    if (meas.y[signed] * phi[signed, j] * sign > 0).all():
                        if phi[~signed, j].any():
                            kinds["zero row"] += 1
                        elif cert.t_star == 1.0:
                            kinds["capped"] += 1
                        else:
                            kinds["fractional"] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_eliminated_witness_matches_its_lp(self):
        """Every full-rank restriction pair whose kept stack leaves at most two
        free directions (d = |K| - |S|), over patterns of size at most 2
        under the refutation cases and the measurements of a 1-sparse and a
        dense signal on each criterion-5 matrix, a hand-made 1x2 instance
        whose pattern {0} has the margin 2^-27, in (0, margin_tol), and a
        3x3 one whose directions differ in scale by 1e13."""
        tol = DEFAULT_TOLERANCES
        tiny = np.array([[1.0, 1.0 - 2.0 ** -27]])
        # Under y = (1, 0, 0), pattern {0} leaves w_1 and w_2 free, and
        # eta_1 = 1e13 w_1 while eta_2 = w_0 + w_2.  A rounding cut-off taken
        # over both directions at once read the +-1 of w_2 as 0 and the
        # margin as 0.0; the optimum is 1.0, at w = (1, 0, -1).
        spread = np.array([[1.0, 0.0, 1.0], [0.0, 1e13, 0.0], [0.0, 0.0, 1.0]])
        roles = _row_roles(SignMeasurement.from_y([1, 0, 0]), (), ())
        h = _kept_stack(spread, roles, (0,), ())
        assert _eliminated_witness_margin(spread, h, (0,), (), roles) == 1.0
        rng = np.random.default_rng(34)
        cases = _refutation_cases()
        for phi in _criterion5_family(2, 3):
            for size in (1, phi.shape[1]):
                x = np.zeros(phi.shape[1])
                x[rng.choice(x.size, size=size, replace=False)] = rng.normal(size=size)
                cases.append((phi, SignMeasurement.from_y(sign_standard(phi @ x))))
        cases = [(phi, meas, _signed_patterns(phi.shape[1], 2)) for phi, meas in cases]
        cases.append((tiny, SignMeasurement.from_y([1]), [((0,), ())]))
        cases.append((spread, SignMeasurement.from_y([1, 0, 0]), [((0,), ())]))
        margins, dirs = [], []
        for phi, meas, patterns in cases:
            for sp, sm in patterns:
                for pair in _tpairs(meas):
                    roles = _row_roles(meas, pair.t1, pair.t2)
                    h = _kept_stack(phi, roles, sp, sm)
                    d = h.shape[0] - h.shape[1]
                    if d > 2 or column_rank(h) < h.shape[1]:
                        continue
                    margin = _eliminated_witness_margin(phi, h, sp, sm, roles)
                    ref_holds, _, ref_margin = _sign_witness_margin(phi, sp, sm, roles, tol)
                    assert (margin >= tol.margin_tol) == ref_holds
                    assert math.isclose(margin, ref_margin, rel_tol=1e-12), (margin, ref_margin)
                    margins.append(margin)
                    dirs.append(d)
        assert min(dirs.count(d) for d in (0, 1, 2)) >= 100, [dirs.count(d) for d in (0, 1, 2)]
        assert margins.count(1.0) >= 10
        assert margins.count(-1.0) >= 10
        assert any(0.0 < t < tol.margin_tol for t in margins)
        # Pattern {1} of the same instance needs eta_0 = 1 / (1 - 2^-27) > 1
        # off its support, so no witness exists.  The LP accepts a point
        # breaking |eta_0| <= 1 by 7.5e-9 within its feasibility tolerance
        # and reads 0.0; the elimination reads -1.0, at d = 0 and, with a
        # zero row appended as a free direction, at d = 1.
        for phi, y in ((tiny, [1]), (np.vstack([tiny, [0.0, 0.0]]), [1, 0])):
            roles = _row_roles(SignMeasurement.from_y(y), (), ())
            h = _kept_stack(phi, roles, (1,), ())
            assert _eliminated_witness_margin(phi, h, (1,), (), roles) == -1.0
            assert _sign_witness_margin(phi, (1,), (), roles, tol)[2] == 0.0
        assert h.shape == (2, 1)

    def test_eliminated_witness_is_exact_on_wide_scales(self):
        """On matrices whose columns are scaled by 1e-6 to 1e7, the elimination
        agrees with itself in rational arithmetic (_exact_witness_margin)
        on every full-rank pair with d <= 2 over patterns of size at most
        2: equal holds, and margins within 1e-5.  Rounding in w0 and N
        grows with the spread of the scales (to 1.5e-6 here), but a
        coefficient misread as 0 or as nonzero moves a margin by far more:
        a rounding cut-off taken per direction, from its largest |alpha|,
        read 1.0 and 0.99 on three pairs whose optimum is -1.0.  The
        witness LP is no reference here: its tolerances scale with the
        entries, and it reads -1.0 on some pairs whose exact optimum is 1.0."""
        tol = DEFAULT_TOLERANCES
        rng = np.random.default_rng(5)
        margins, dirs = [], []
        for trial in range(6):
            m, n = int(rng.integers(3, 6)), int(rng.integers(2, 5))
            base = (rng.integers(-1, 2, size=(m, n)).astype(float) if trial % 2
                    else rng.normal(size=(m, n)))
            phi = base * 10.0 ** rng.uniform(-6, 7, size=n)
            for _ in range(2):
                meas = SignMeasurement.from_y(rng.integers(-1, 2, size=m))
                if meas.is_zero():
                    continue
                for sp, sm in _signed_patterns(n, 2):
                    for pair in _tpairs(meas):
                        roles = _row_roles(meas, pair.t1, pair.t2)
                        h = _kept_stack(phi, roles, sp, sm)
                        d = h.shape[0] - h.shape[1]
                        if d > 2 or column_rank(h) < h.shape[1]:
                            continue
                        margin = _eliminated_witness_margin(phi, h, sp, sm, roles)
                        exact = _exact_witness_margin(phi, sp, sm, roles)
                        assert (margin >= tol.margin_tol) == (exact >= tol.margin_tol)
                        assert abs(margin - exact) <= 1e-5, (margin, exact)
                        margins.append(exact)
                        dirs.append(d)
        assert min(dirs.count(d) for d in (0, 1, 2)) >= 50, [dirs.count(d) for d in (0, 1, 2)]
        assert margins.count(-1.0) >= 10 and margins.count(1.0) >= 10
        assert sum(0.0 <= t < 1.0 for t in margins) >= 10

    def test_one_column_rank_is_a_nonzero_test(self):
        """column_rank of a one-column stack is 1 exactly when the column has
        a nonzero entry, which _pair_test reads instead: on every
        one-column kept stack of the criterion-5 family under the nonzero
        measurements at k <= 2, on an all-zero column, on an empty one and
        on a column spanning 1e-300 to 1e300."""
        stacks = [np.zeros((3, 1)), np.zeros((0, 1)), np.array([[1e300], [1e-300]]),
                  np.array([[1e-300]])]
        for phi in _criterion5_family(2, 3):
            ys = {tuple(meas.y) for k in (1, 2) for meas in enumerate_Yk(phi, k)
                  if not meas.is_zero()}
            for meas in map(SignMeasurement.from_y, sorted(ys)):
                for j in range(phi.shape[1]):
                    stacks += [_kept_stack(phi, _row_roles(meas, pair.t1, pair.t2), (j,), ())
                               for pair in _tpairs(meas)]
        for h in stacks:
            assert h.any() == (column_rank(h) == 1)
        nonzero = sum(bool(h.any()) for h in stacks)
        assert nonzero >= 1000 and len(stacks) - nonzero >= 100

    def test_closed_forms_skip_their_lps(self, monkeypatch):
        """Each one-column membership and each full-rank kept stack with at
        most two free directions costs no LP.  On eye(3) at k = 1 every
        membership and every witness LP goes; on the seeded 3x3 below, the
        pair stream of one two-column pattern has four full-rank pairs,
        three of them square, and solves none.  A one-column pattern under
        four signed rows keeps three free directions and solves its LP; with
        one row pinned it keeps two and solves none.  The margin is
        1 / sum(phi) over the kept rows, where every w_i equals it."""
        calls = []
        real = lp.max_margin_feasibility
        monkeypatch.setattr(lp, "max_margin_feasibility",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        assert rrsp_order_k(np.eye(3), 1, SUFFICIENT)[0]
        assert calls == []

        rng = np.random.default_rng(1406)
        phi = rng.normal(size=(3, 3))
        meas = SignMeasurement.from_y(sign_standard(phi @ rng.normal(size=3)))
        evidence = list(_pair_evidence(phi, meas, (0,), (1,), DEFAULT_TOLERANCES, {}))
        kept = [meas.j_plus.size - len(ev.tpair.t1) + meas.j_minus.size
                - len(ev.tpair.t2) + meas.j_zero.size for ev in evidence]
        assert (len(evidence), kept.count(2)) == (4, 3)
        assert calls == []

        phi = np.arange(1.0, 5.0)[:, None]
        meas = SignMeasurement.from_y([1, 1, 1, 1])
        for pair, lps, margin in ((TPair((), ()), 1, 1 / 10), (TPair((0,), ()), 0, 1 / 9)):
            calls.clear()
            holds, t = _pair_test(phi, meas, (0,), (), pair, DEFAULT_TOLERANCES)
            assert holds and t == pytest.approx(margin, rel=1e-12)
            assert len(calls) == lps


def _exact_witness_margin(phi, s_plus, s_minus, roles) -> float:
    """The witness LP's optimum by Fourier-Motzkin elimination in rational
    arithmetic on phi's float entries: w_K = w0 + N z from the reduced row
    echelon form of [h.T | s] (h of full column rank), then the rows of
    _eliminated_witness_margin with exact sign tests."""
    cols = list(s_plus) + list(s_minus)
    kept = np.concatenate([roles.pos, roles.neg, roles.free]).tolist()
    a = [[Fraction(phi[i, j]) for i in kept] + [Fraction(1 if j in s_plus else -1)]
         for j in cols]
    pivots = []
    for c in range(len(kept)):
        k = len(pivots)
        r = next((r for r in range(k, len(a)) if a[r][c] != 0), None)
        if r is not None:
            a[k], a[r] = a[r], a[k]
            a[k] = [v / a[k][c] for v in a[k]]
            a = [row if i == k else [v - row[c] * u for v, u in zip(row, a[k])]
                 for i, row in enumerate(a)]
            pivots.append(c)
    free = [c for c in range(len(kept)) if c not in pivots]
    d = len(free)
    w = {i: [Fraction(0)] * (d + 1) for i in kept}
    for f, c in enumerate(free):
        w[kept[c]][1 + f] = Fraction(1)
    for k, c in enumerate(pivots):
        w[kept[c]] = [a[k][-1]] + [-a[k][c2] for c2 in free]
    cap = [Fraction(1)] + [Fraction(0)] * d
    rows = [w[i] for i in roles.pos.tolist()] + [[-v for v in w[i]] for i in roles.neg.tolist()]
    for j in range(phi.shape[1]):
        if j not in cols:
            eta = [sum(Fraction(phi[i, j]) * w[i][c] for i in kept) for c in range(d + 1)]
            rows += [[u - v for u, v in zip(cap, eta)], [u + v for u, v in zip(cap, eta)]]
    rows.append(cap)
    for c in range(1, d + 1):
        rows = [r for r in rows if r[c] == 0] + [
            [(p[c] * q[i] - q[c] * p[i]) / (p[c] - q[c]) for i in range(d + 1)]
            for p in rows if p[c] > 0 for q in rows if q[c] < 0]
    t = min(r[0] for r in rows)
    return -1.0 if t < 0 else float(t)


def _row_sparse(rng, m: int, n: int) -> np.ndarray:
    """One entry of magnitude at least 0.3 per row, as in criterion 5."""
    phi = np.zeros((m, n))
    for i in range(m):
        v = 0.0
        while abs(v) < 0.3:
            v = rng.normal()
        phi[i, rng.integers(0, n)] = v
    return phi


def _criterion5_family(seed: int, draws: int) -> list[np.ndarray]:
    """Dense, row-sparse and zero-column matrices, m, n in [2, 5], three per draw."""
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(draws):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        zero_column = rng.normal(size=(m, n))
        zero_column[:, rng.integers(0, n)] = 0.0
        family += [rng.normal(size=(m, n)), _row_sparse(rng, m, n), zero_column]
    return family


def _order_k_every_measurement(phi, k: int, variant: str, share_twins: bool = True
                               ) -> tuple[bool, list[RrspEvidence]]:
    """rrsp_order_k with the carriers of each pattern found by testing
    every nonzero measurement of enumerate_Yk for membership.  With
    share_twins every _pair_evidence call gets the one dict of the sweep,
    as in rrsp_order_k; without it each gets its own, so nothing is reused
    between sign-mirrored twins."""
    nonzero = [meas for meas in enumerate_Yk(phi, k) if not meas.is_zero()]
    twins: dict = {}
    all_evidence: list[RrspEvidence] = []
    for sp, sm in _signed_patterns(phi.shape[1], k):
        carriers = [meas for meas in nonzero if membership_P(phi, meas, sp, sm)]
        found = None
        for meas in carriers:
            label = tuple(int(v) for v in meas.y)
            pairs = _pair_evidence(phi, meas, sp, sm, DEFAULT_TOLERANCES,
                                   twins if share_twins else {}, label)
            if variant == NECESSARY:
                found = next((ev for ev in pairs if ev.holds), None)
                if found is not None:
                    break
                continue
            tested = len(all_evidence)
            for ev in pairs:
                all_evidence.append(ev)
                if not ev.holds:
                    return False, all_evidence
            if len(all_evidence) == tested:
                return False, all_evidence + [RrspEvidence(
                    s_plus=sp, s_minus=sm, tpair=None, y=label, margin=-1.0,
                    holds=False, note="no full-rank restriction pair")]
        if variant == NECESSARY:
            if found is None:
                return False, [RrspEvidence(
                    s_plus=sp, s_minus=sm, tpair=None, y=None, margin=-1.0, holds=False,
                    note="no measurement carries this pattern with a witness")]
            all_evidence.append(found)
    return True, all_evidence


class TestQuantifiedRrsp:
    def test_identity_wrt_y_sufficient_k2(self):
        ok, evidence = rrsp_wrt_y(np.eye(2), np.array([1, -1]), 2, SUFFICIENT)
        assert ok
        ev = evidence[0]
        assert ev.tpair.t1 == () and ev.tpair.t2 == ()
        assert ev.margin == pytest.approx(1.0)

    def test_identity_wrt_y_sufficient_k1_vacuous(self):
        ok, evidence = rrsp_wrt_y(np.eye(2), np.array([1, -1]), 1, SUFFICIENT)
        assert ok
        assert evidence == []

    def test_identity_wrt_y_necessary_k1_false(self):
        ok, _ = rrsp_wrt_y(np.eye(2), np.array([1, -1]), 1, NECESSARY)
        assert not ok

    def test_flagship_wrt_y_sufficient_k1_false(self):
        ok, evidence = rrsp_wrt_y(PHI, Y, 1, SUFFICIENT)
        assert not ok
        assert not evidence[-1].holds

    def test_order_k_identity_k1(self):
        ok, _ = rrsp_order_k(np.eye(2), 1, SUFFICIENT)
        assert ok

    def test_order_k_single_row_false(self):
        ok, evidence = rrsp_order_k(np.array([[1., 1.]]), 1, SUFFICIENT)
        assert not ok

    def test_order_k_identity_k2_necessary(self):
        ok, _ = rrsp_order_k(np.eye(2), 2, NECESSARY)
        assert ok

    def test_budget_refusals(self):
        with pytest.raises(ValueError):
            rrsp_wrt_y(np.ones((2, 11)), np.array([1, 1]), 1, SUFFICIENT)
        for shape, k in (((9, 8), 2), ((8, 9), 2), ((7, 6), 3), ((6, 7), 3), ((4, 4), 4)):
            with pytest.raises(ValueError, match="budget"):
                rrsp_order_k(np.ones(shape), k, SUFFICIENT)
        with pytest.raises(ValueError):
            rrsp_wrt_y(np.eye(2), np.array([1, -1]), 1, "both")

    def test_negative_sparsity_is_rejected(self):
        """k = -1 once gave vacuous answers: (True, []), [] and inf."""
        phi, y = np.eye(2), np.array([1, -1])
        with pytest.raises(ValueError, match="sparsity must"):
            rrsp_wrt_y(phi, y, -1, SUFFICIENT)
        with pytest.raises(ValueError, match="sparsity must"):
            patterns_of_measurement(phi, SignMeasurement.from_y(y), -1)
        with pytest.raises(ValueError, match="sparsity must"):
            enumerate_P(phi, y, -1)
        with pytest.raises(ValueError, match="sparsity must"):
            l0_min(phi, y, k_max=-3)

    def test_zero_and_oversized_sparsity_stay_valid(self):
        phi, y = np.eye(2), np.array([1, -1])
        assert rrsp_wrt_y(phi, y, 0, SUFFICIENT) == (True, [])
        assert patterns_of_measurement(phi, SignMeasurement.from_y(y), 0) == []
        assert enumerate_P(phi, y, 0) == []
        assert [meas.y.tolist() for meas in enumerate_Yk(phi, 0)] == [[0, 0]]
        assert rrsp_order_k(phi, 0, SUFFICIENT) == (True, [])
        assert enumerate_P(phi, y, 3) == [((0,), (1,))]
        assert l0_min(phi, y, k_max=0).value == math.inf
        assert l0_min(phi, y, k_max=5).value == 2.0

    def test_order_k_rejects_sparsity_outside_range(self):
        for k in (-1, 3):
            with pytest.raises(ValueError, match="sparsity"):
                rrsp_order_k(np.eye(2), k, SUFFICIENT)

    @pytest.mark.parametrize("variant", [SUFFICIENT, NECESSARY])
    def test_order_k_carriers_match_every_measurement(self, variant):
        """The face walk's carriers give the verdict and evidence of the
        full carrier loop at k = 1 and 2 on the seeded criterion-5 family,
        zero columns included, and at k = 3 on eye(3), two 4x4 matrices and a
        4x3."""
        rng = np.random.default_rng(31415)
        cases = [(np.eye(3), 1), (np.eye(3), 2), (np.eye(3), 3)]
        for _ in range(4):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            for phi in (rng.normal(size=(m, n)), _row_sparse(rng, m, n)):
                cases += [(phi, 1), (phi, 2)]
        cases += [(rng.normal(size=(4, 4)), 3), (_row_sparse(rng, 4, 4), 3),
                  (_row_sparse(rng, 4, 3), 3)]
        assert any(not phi.any(axis=0).all() for phi, _ in cases)
        for phi, k in cases:
            assert rrsp_order_k(phi, k, variant) == _order_k_every_measurement(phi, k, variant)

    @pytest.mark.parametrize("variant", [SUFFICIENT, NECESSARY])
    def test_order_k_twins_share_answers(self, variant):
        """A pattern whose lowest column is negative reads the margin and
        holds of its sign-mirrored twin (s_minus, s_plus) under -y and the
        swapped pair, exactly; and the evidence matches a sweep that reuses
        nothing, field by field, margins within 1e-12 relative.  Solved
        afresh, 9 twin margins of this family differ in their last bits."""
        compared = 0
        for phi in _criterion5_family(2, 3):
            for k in range(1, min(3, phi.shape[1]) + 1):
                ok, evidence = rrsp_order_k(phi, k, variant)
                by_key = {(ev.s_plus, ev.s_minus, ev.y, ev.tpair): ev
                          for ev in evidence if ev.tpair is not None}
                for ev in evidence:
                    sp, sm = ev.s_plus, ev.s_minus
                    if ev.tpair is None or not sm or (sp and sp[0] < sm[0]):
                        continue
                    twin = by_key.get((sm, sp, tuple(-v for v in ev.y),
                                       TPair(t1=ev.tpair.t2, t2=ev.tpair.t1)))
                    if twin is not None:
                        assert (ev.margin, ev.holds) == (twin.margin, twin.holds)
                        compared += 1
                ref_ok, ref = _order_k_every_measurement(phi, k, variant, share_twins=False)
                assert ok == ref_ok and len(evidence) == len(ref)
                for ev, r in zip(evidence, ref):
                    assert dataclasses.replace(ev, margin=r.margin) == r
                    assert math.isclose(ev.margin, r.margin, rel_tol=1e-12)
        assert compared >= 20

    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_patterns_of_measurement_is_the_filtered_pattern_list(self, k):
        """The per-support refutation keeps exactly the patterns that
        membership_P accepts, in _signed_patterns order, for measurements
        of 1-sparse and dense signals."""
        rng = np.random.default_rng(5)
        for phi in _criterion5_family(2, 3):
            n = phi.shape[1]
            for size in (1, n):
                x = np.zeros(n)
                x[rng.choice(n, size=size, replace=False)] = rng.normal(size=size)
                meas = SignMeasurement.from_y(sign_standard(phi @ x))
                expected = [p for p in _signed_patterns(n, k) if membership_P(phi, meas, *p)]
                assert patterns_of_measurement(phi, meas, k) == expected

    @pytest.mark.parametrize("k", [1, 2])
    def test_wrt_y_sufficient_implies_necessary(self, k):
        """On the family drawn below: the for-all variant with some
        realizable pattern implies the exists variant, and the exists
        variant returns one holding pair when true and nothing when false."""
        rng = np.random.default_rng(42)
        implied = 0
        for _ in range(40):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            phi = rng.normal(size=(m, n))
            y = sign_standard(phi @ rng.normal(size=n))
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            necessary, evidence = rrsp_wrt_y(phi, meas, k, NECESSARY)
            if necessary:
                assert len(evidence) == 1 and evidence[0].holds
                assert isinstance(evidence[0], RrspEvidence)
            else:
                assert evidence == []
            sufficient, _ = rrsp_wrt_y(phi, meas, k, SUFFICIENT)
            if sufficient and patterns_of_measurement(phi, meas, k):
                assert necessary
                implied += 1
        assert implied >= 3

    def test_sufficient_implies_full_rank_supports(self):
        """Whenever the for-all variant holds, the full column submatrix
        over every realizable pattern support has full rank."""
        rng = np.random.default_rng(42)
        verified = 0
        for _ in range(40):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            phi = rng.normal(size=(m, n))
            y = sign_standard(phi @ rng.normal(size=n))
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            k = 2
            ok, _ = rrsp_wrt_y(phi, meas, k, SUFFICIENT)
            if not ok:
                continue
            for sp, sm in patterns_of_measurement(phi, meas, k):
                cols = sorted(set(sp) | set(sm))
                sub = phi[:, cols]
                assert column_rank(sub) == len(cols)
                verified += 1
        assert verified >= 3


def _exhaustive_faces(phi, k: int, tol: TolerancePolicy) -> dict:
    """_sign_faces by exhaustion: every nonzero y over {-1, 0, 1}^m and every
    pattern of size at most k, kept where membership_P accepts the pair."""
    found: dict = {}
    for y in product((-1, 0, 1), repeat=phi.shape[0]):
        if any(y):
            for p in _signed_patterns(phi.shape[1], k):
                if membership_P(phi, np.array(y), *p, tol):
                    found.setdefault(p, []).append(y)
    return found


class TestSignFaces:
    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The certificates _membership_margin returns, in call order."""
        certs = []
        real = certify._membership_margin
        monkeypatch.setattr(certify, "_membership_margin",
                            lambda *a, **kw: certs.append(real(*a, **kw)) or certs[-1])
        return certs

    def test_fallback_matches_exhaustion_at_a_loose_policy(self, fallbacks):
        """At margin_tol 0.25 many walk points miss the threshold, so the
        membership margin decides their faces, accepting some and rejecting
        others.  The carriers, enumerate_Yk and enumerate_P still equal the
        exhaustive answer of membership_P at that policy, zero column
        included."""
        pol = TolerancePolicy(margin_tol=0.25)
        rng = np.random.default_rng(2718)
        matrices = [rng.normal(size=(3, 4)), rng.normal(size=(2, 3)), _row_sparse(rng, 4, 3)]
        matrices[1][:, 1] = 0.0
        decided = []
        for phi in matrices:
            m, n = phi.shape
            for k in (1, 2):
                expected = _exhaustive_faces(phi, k, pol)
                fallbacks.clear()
                assert _sign_faces(phi, k, pol) == expected
                decided += [cert.t_star >= pol.margin_tol for cert in fallbacks]
                ys = sorted({(0,) * m}.union(*expected.values()))
                assert [tuple(meas.y.tolist()) for meas in enumerate_Yk(phi, k, pol)] == ys
                for y in product((-1, 0, 1), repeat=m):
                    if any(y):
                        assert enumerate_P(phi, np.array(y), k, pol) == [
                            p for p in _signed_patterns(n, k) if y in expected.get(p, ())]
        assert decided.count(True) >= 10 and decided.count(False) >= 10

    def test_enumerate_P_confirms_only_its_own_faces(self, monkeypatch):
        """At margin_tol 0.25, every membership margin that enumerate_P asks
        for, on the matrices of the loose-policy test at k = 1 and 2, is
        under the measurement it was given: the faces of the other
        measurements are dropped before their confirmation."""
        pol = TolerancePolicy(margin_tol=0.25)
        rng = np.random.default_rng(2718)
        matrices = [rng.normal(size=(3, 4)), rng.normal(size=(2, 3)), _row_sparse(rng, 4, 3)]
        matrices[1][:, 1] = 0.0
        asked = []
        real = certify._membership_margin
        monkeypatch.setattr(certify, "_membership_margin",
                            lambda phi, meas, *a, **kw: asked.append(meas.y) or real(
                                phi, meas, *a, **kw))
        calls = 0
        for phi in matrices:
            for k in (1, 2):
                for y in product((-1, 0, 1), repeat=phi.shape[0]):
                    if any(y):
                        asked.clear()
                        enumerate_P(phi, np.array(y), k, pol)
                        assert all(tuple(v.tolist()) == y for v in asked)
                        calls += len(asked)
        assert calls >= 20

    def test_fallback_rejects_a_near_threshold_face(self, fallbacks):
        """Row 0 reads 1e-9 on column 0, so a face that signs row 0 by x_0
        alone, or zeroes it with x_1 = -1e-9 x_0, has a margin near 1e-9 or
        is refuted by the signs.  The fallback rejects each such face at the
        default policy, as membership_P does, and column 0 carries no
        measurement on its own."""
        phi = np.array([[1e-9, 1.0], [1.0, -1.0]])
        tol = DEFAULT_TOLERANCES
        for k in (1, 2):
            fallbacks.clear()
            faces = _sign_faces(phi, k, tol)
            assert fallbacks and all(cert.t_star < tol.margin_tol for cert in fallbacks)
            assert any(cert.t_star > 0.0 for cert in fallbacks)
            assert ((0,), ()) not in faces and ((), (0,)) not in faces
            assert faces == _exhaustive_faces(phi, k, tol)

    def test_enumerate_P_does_not_consult_the_code_it_checks(self, monkeypatch):
        """With patterns_of_measurement and membership_P unreachable under
        every name the oracle could use, enumerate_P still answers, and it
        equals patterns_of_measurement on the criterion-5 family at k = 1
        and 2, zero columns included."""
        rng = np.random.default_rng(8)
        cases = []
        for phi in _criterion5_family(2, 3):
            n = phi.shape[1]
            for size in (1, n):
                x = np.zeros(n)
                x[rng.choice(n, size=size, replace=False)] = rng.normal(size=size)
                meas = SignMeasurement.from_y(sign_standard(phi @ x))
                if not meas.is_zero():
                    cases += [(phi, meas, k, patterns_of_measurement(phi, meas, k))
                              for k in (1, 2)]
        assert any(not phi.any(axis=0).all() for phi, *_ in cases)
        assert sum(bool(expected) for *_, expected in cases) >= 20

        def unreachable(*args, **kwargs):
            raise AssertionError("enumerate_P consulted the code it checks")

        for module in (onebitcs, certify, oracle):
            for name in ("patterns_of_measurement", "membership_P"):
                monkeypatch.setattr(module, name, unreachable, raising=False)
        for phi, meas, k, expected in cases:
            assert enumerate_P(phi, meas, k) == expected
