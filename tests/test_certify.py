"""Uniqueness certificates, dual witnesses, and relaxation audits."""

import math
from itertools import combinations, product

import numpy as np
import pytest

from onebitcs import lp
from onebitcs.certify import (
    NECESSARY,
    NONSTANDARD_PHIX,
    NONSTANDARD_X,
    STANDARD_COND,
    SUFFICIENT,
    RrspWitness,
    _membership_margin,
    _signed_patterns,
    assemble_H,
    membership_P,
    pattern_witness,
    patterns_of_measurement,
    relaxation_consistency,
    rrsp_at,
    rrsp_order_k,
    rrsp_wrt_y,
    uniqueness_certificate,
    witness_is_valid,
)
from onebitcs.decoders import one_bit_bp
from onebitcs.linalg import DEFAULT_TOLERANCES, TolerancePolicy, column_rank
from onebitcs.oracle import enumerate_P, l0_min
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
    def test_flagship_single_active_row(self):
        cm = assemble_H(PHI, MEAS, np.array([1., 0., 0., 0.]))
        assert cm.h.shape == (1, 1)
        assert cm.h[0, 0] == -1.0
        assert cm.row_labels == (("minus_active", 1),)
        assert cm.col_labels == (("plus", 0),)

    def test_identity_full_boundary(self):
        meas = SignMeasurement.from_y(np.array([1, -1]))
        cm = assemble_H(np.eye(2), meas, np.array([1., -1.]))
        np.testing.assert_array_equal(cm.h, np.eye(2))

    def test_interior_point_has_empty_row_set(self):
        meas = SignMeasurement.from_y(np.array([1, -1]))
        cm = assemble_H(np.eye(2), meas, np.array([2., -2.]))
        assert cm.h.shape == (0, 2)
        assert column_rank(cm.h) == 0


class TestRrspAt:
    def test_identity_boundary_point_holds(self):
        meas = SignMeasurement.from_y(np.array([1, -1]))
        check = rrsp_at(np.eye(2), meas, np.array([1., -1.]))
        assert check.holds
        assert check.margin == pytest.approx(1.0)
        np.testing.assert_allclose(check.witness.w, [1.0, -1.0], atol=1e-9)
        np.testing.assert_allclose(check.witness.eta, [1.0, -1.0], atol=1e-9)

    def test_flagship_decoder_point_fails(self):
        check = rrsp_at(PHI, MEAS, np.array([1., 0., 0., 0.]))
        assert not check.holds
        assert check.margin == pytest.approx(0.0, abs=1e-12)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            rrsp_at(PHI, MEAS, np.zeros(4))


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
    def test_certificate_tracks_alternative_search(self):
        """Certificate verdict versus the 20-restart second-optimum hunt.

        A short version of the full acceptance sweep: every disagreement
        must sit in the tolerance band (margin or rank pivot within 10x)."""
        from onebitcs.decoders import encode_bp_lp
        from onebitcs.linalg import rank_profile

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
            problem, _ = encode_bp_lp(phi, meas)
            lp_sol = lp.solve(problem)
            alt = lp.alternative_optimum(problem, lp_sol)
            found = alt is not None and np.linalg.norm(alt[:n] - sol.x) > 1e-6
            if rep.unique == (not found):
                agree += 1
            else:
                disagree += 1
                near_margin = abs(rep.margin) <= 10 * 1e-8
                _, pivots = rank_profile(rep.cert_matrix.h)
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


def _lp_only_membership_margin(phi, meas, s_plus, s_minus) -> float:
    """t_star of the membership margin LP, always solved: the reference
    for the sign refutation in _membership_margin."""
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
                                     free=np.zeros(k, dtype=bool)).t_star


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
        solves = self._count_solves(monkeypatch)
        tol = DEFAULT_TOLERANCES.margin_tol
        refuted = members = 0
        for phi, meas in _refutation_cases():
            for sp, sm in _signed_patterns(phi.shape[1], 2):
                solves.clear()
                t_star = _membership_margin(phi, meas, sp, sm).t_star
                refuted += not solves
                ref = _lp_only_membership_margin(phi, meas, sp, sm)
                assert abs(t_star - ref) <= 1e-9
                assert (t_star >= tol) == (ref >= tol)
                assert membership_P(phi, meas, sp, sm) == (ref >= tol)
                members += ref >= tol
        assert refuted >= 400 and members >= 100

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
        assert skipped >= 60

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
        with pytest.raises(ValueError):
            rrsp_order_k(np.eye(3), 3, SUFFICIENT)
        with pytest.raises(ValueError):
            rrsp_wrt_y(np.eye(2), np.array([1, -1]), 1, "both")

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
