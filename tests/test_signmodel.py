"""Sign conventions, measurement partitions, and active sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onebitcs.certify import uniqueness_certificate
from onebitcs.decoders import bp_output_consistent, encode_bp_lp, one_bit_bp, relaxation_gd
from onebitcs.oracle import active_set_augmentation, l0_min
from onebitcs.signmodel import (
    NONSTANDARD,
    STANDARD,
    SignMeasurement,
    active_sets,
    is_consistent,
    measure,
    minimal_scaling,
    sign_nonstandard,
    sign_standard,
    signed_support,
)

PHI = np.array([[2., -1., 0., 2.], [-1., 1., 1., 0.]])
Y = np.array([1, -1])


def test_sign_conventions_on_small_values():
    v = np.array([3.0, -2.0, 0.0, 1e-12])
    np.testing.assert_array_equal(sign_standard(v), [1, -1, 0, 0])
    np.testing.assert_array_equal(sign_nonstandard(v), [1, -1, 1, 1])


def test_nonstandard_never_emits_zero():
    rng = np.random.default_rng(42)
    v = rng.normal(size=200)
    v[::7] = 0.0
    s = sign_nonstandard(v)
    assert set(np.unique(s)) <= {-1, 1}


@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=1, max_size=8),
       st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_standard_sign_scale_invariant(vals, alpha):
    """Positive scaling never changes the standard sign away from the
    tolerance band; entries inside the band are indeterminate by design."""
    v = np.array(vals)
    band = np.abs(v) <= 1e-8 / min(alpha, 1.0)
    s1 = sign_standard(v)
    s2 = sign_standard(alpha * v)
    np.testing.assert_array_equal(s1[~band], s2[~band])


def test_partition_covers_all_rows():
    meas = SignMeasurement.from_y(np.array([1, -1, 0, 1, 0]))
    assert meas.j_plus.tolist() == [0, 3]
    assert meas.j_minus.tolist() == [1]
    assert meas.j_zero.tolist() == [2, 4]
    assert len(meas.j_plus) + len(meas.j_minus) + len(meas.j_zero) == meas.m


def test_measurement_rejects_bad_entries():
    with pytest.raises(ValueError):
        SignMeasurement.from_y(np.array([1, 2]))
    # not truncated to [0, -1]
    with pytest.raises(ValueError):
        SignMeasurement.from_y([0.6, -1.4])


def test_measure_consistency_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(40):
        m, n = rng.integers(1, 6), rng.integers(1, 6)
        phi = rng.normal(size=(m, n))
        x = rng.normal(size=n)
        for mode in (STANDARD, NONSTANDARD):
            meas = measure(phi, x, mode)
            assert is_consistent(phi, x, meas, mode)


def test_signed_support_partition():
    sp, sm = signed_support(np.array([0.0, 2.0, -1.0, 1e-12]))
    assert sp.tolist() == [1]
    assert sm.tolist() == [2]


X0 = np.array([1., 0., 0., 0.])
_TAKES_Y = {
    "uniqueness_certificate": lambda y: uniqueness_certificate(PHI, y, X0),
    "encode_bp_lp": lambda y: encode_bp_lp(PHI, SignMeasurement.from_y(y)),
    "one_bit_bp": lambda y: one_bit_bp(PHI, y),
    "relaxation_gd": lambda y: relaxation_gd(PHI, y),
    "l0_min": lambda y: l0_min(PHI, y),
    "active_set_augmentation": lambda y: active_set_augmentation(PHI, y, X0),
    "is_consistent": lambda y: is_consistent(PHI, X0, SignMeasurement.from_y(y)),
    "bp_output_consistent": lambda y: bp_output_consistent(
        PHI, SignMeasurement.from_y(y), one_bit_bp(PHI, Y)),
    "minimal_scaling": lambda y: minimal_scaling(PHI, X0, SignMeasurement.from_y(y)),
}


@pytest.mark.parametrize("y", [np.array([1]), np.array([1, -1, 1])], ids=["short", "long"])
@pytest.mark.parametrize("name", sorted(_TAKES_Y))
def test_measurement_of_other_length_is_rejected(name, y):
    with pytest.raises(ValueError, match=f"measurement has {y.size} rows, matrix has 2"):
        _TAKES_Y[name](y)


def test_signed_support_of_zero():
    sp, sm = signed_support(np.zeros(3))
    assert sp.size == 0 and sm.size == 0


class TestActiveSets:
    def test_flagship_point(self):
        acts = active_sets(PHI, np.array([1., 0., 0., 0.]),
                           SignMeasurement.from_y(Y))
        assert acts.active.tolist() == [1]
        assert acts.inactive_plus.tolist() == [0]
        assert acts.inactive_minus.tolist() == []

    def test_identity_boundary(self):
        acts = active_sets(np.eye(2), np.array([1., -1.]),
                           SignMeasurement.from_y(np.array([1, -1])))
        assert acts.active.tolist() == [0, 1]

    def test_rejects_infeasible_point(self):
        with pytest.raises(ValueError, match="row 0"):
            active_sets(PHI, np.array([0.1, 0., 0., 0.]),
                        SignMeasurement.from_y(Y))

    def test_rejects_row_count_mismatch(self):
        for y in ([1], [1, -1, 1]):
            with pytest.raises(ValueError, match="matrix has 2"):
                active_sets(PHI, np.array([1., 0., 0., 0.]), SignMeasurement.from_y(y))

    def test_names_first_violated_row_by_class(self):
        """j_plus rows are checked before j_minus rows, j_minus before
        j_zero, and the lowest row of the first violated class is named."""
        phi = np.eye(6)
        meas = SignMeasurement.from_y(np.array([0, -1, 1, -1, 1, 0]))
        x = np.array([0.5, -0.5, 0.5, 0.5, 0.2, 3.])
        with pytest.raises(ValueError, match=r"^row 2 requires phi@x >= 1 "):
            active_sets(phi, x, meas)
        x[[2, 4]] = 1.0
        with pytest.raises(ValueError, match=r"^row 1 requires phi@x <= -1 "):
            active_sets(phi, x, meas)
        x[1] = -1.0
        with pytest.raises(ValueError, match=r"^row 3 requires phi@x <= -1 "):
            active_sets(phi, x, meas)
        x[3] = -2.0
        with pytest.raises(ValueError, match=r"^row 0 requires phi@x == 0 but has value 0.5$"):
            active_sets(phi, x, meas)
        x[0] = 0.0
        with pytest.raises(ValueError, match=r"^row 5 requires phi@x == 0 "):
            active_sets(phi, x, meas)
        x[5] = 0.0
        acts = active_sets(phi, x, meas)
        assert acts.active.tolist() == [1, 2, 4]
        assert acts.inactive_plus.tolist() == []
        assert acts.inactive_minus.tolist() == [3]


class TestMinimalScaling:
    def test_already_on_boundary(self):
        meas = SignMeasurement.from_y(Y)
        assert minimal_scaling(PHI, np.array([1., 0., 0., 0.]), meas) == pytest.approx(1.0)

    def test_interiorish_point_scales_up(self):
        meas = SignMeasurement.from_y(Y)
        a = minimal_scaling(PHI, np.array([0.5, 0., 0., 0.]), meas)
        assert a == pytest.approx(2.0)

    def test_scales_down(self):
        meas = SignMeasurement.from_y(np.array([1, -1]))
        a = minimal_scaling(np.eye(2), np.array([4., -5.]), meas)
        assert a == pytest.approx(0.25)

    def test_scaled_point_touches_boundary(self):
        """After rescaling by the minimal factor some row must be active."""
        rng = np.random.default_rng(42)
        for _ in range(30):
            phi = rng.normal(size=(3, 4))
            x = rng.normal(size=4)
            meas = measure(phi, x)
            if meas.is_zero():
                continue
            a = minimal_scaling(phi, x, meas)
            acts = active_sets(phi, a * x, meas)
            assert acts.active.size > 0
