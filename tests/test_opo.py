import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvopo import (
    SWEEP_COLUMNS,
    CoupledStateParams,
    ModeBasis,
    OpoParams,
    below_threshold_covariance,
    below_threshold_variances,
    coupled_covariance,
    eof,
    gemellity_from_covariance,
    log_negativity,
    separability,
    sweep,
    symplectic_eigenvalues,
    to_basis,
    twin_difference_spectrum,
    variance_to_db,
)
from cvopo.errors import CvopoError, OutOfRangeError, UnphysicalBlockError

from conftest import PUBLISHED_APM

sigmas = st.floats(0.0, 0.99, allow_nan=False)
omegas = st.floats(0.0, 20.0, allow_nan=False)
etas = st.floats(0.0, 1.0, allow_nan=False)


class TestBelowThreshold:
    def test_reference_operating_point(self):
        state = below_threshold_covariance(OpoParams(sigma=0.9, omega=0.0, eta=1.0))
        assert state.basis is ModeBasis.PLUS_MINUS
        # anchor values to three significant figures
        assert state.entries[0, 0] == pytest.approx(361.0, abs=0.5)
        assert state.entries[1, 1] == pytest.approx(0.00277, abs=5e-6)
        assert state.entries[2, 2] == pytest.approx(0.00277, abs=5e-6)
        assert state.entries[3, 3] == pytest.approx(361.0, abs=0.5)
        assert np.allclose(state.cross, 0.0)

    def test_zero_pump_is_vacuum(self):
        state = below_threshold_covariance(OpoParams(sigma=0.0))
        assert np.allclose(state.entries, np.eye(4), atol=1e-15)

    def test_losses_applied(self):
        state = below_threshold_covariance(OpoParams(sigma=0.9, omega=0.0, eta=0.34))
        v_sq = below_threshold_variances(0.9, 0.0)[0]
        assert state.entries[1, 1] == pytest.approx(0.34 * v_sq + 0.66, abs=1e-12)
        assert state.entries[1, 1] == pytest.approx(0.6609, abs=1e-4)
        assert variance_to_db(state.entries[1, 1]) == pytest.approx(-1.80, abs=5e-3)

    @given(sigma=sigmas, omega=omegas)
    @settings(max_examples=200)
    def test_minimum_uncertainty_at_all_frequencies(self, sigma, omega):
        v_sq, v_anti = below_threshold_variances(sigma, omega)
        assert v_sq * v_anti == pytest.approx(1.0, rel=1e-12)

    @given(sigma=sigmas, omega=omegas, eta=etas)
    @settings(max_examples=200, deadline=None)
    def test_always_physical(self, sigma, omega, eta):
        state = below_threshold_covariance(OpoParams(sigma=sigma, omega=omega, eta=eta))
        assert symplectic_eigenvalues(state)[0] >= 1.0 - 1e-9

    def test_squeezing_monotone_in_pump(self):
        values = [below_threshold_variances(s, 0.0)[0] for s in np.linspace(0, 0.95, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_squeezing_degrades_with_frequency(self):
        values = [below_threshold_variances(0.9, w)[0] for w in np.linspace(0, 30, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=1.0),
            dict(sigma=-0.1),
            dict(sigma=0.5, omega=-1.0),
            dict(sigma=0.5, eta=1.2),
            dict(sigma=0.5, eta=-0.2),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(OutOfRangeError):
            OpoParams(**kwargs)


class TestCoupled:
    def test_zero_tilt_reduces_to_uncoupled(self):
        base = OpoParams(sigma=0.9, omega=0.0)
        v_sq, v_anti = below_threshold_variances(0.9, 0.0)
        coupled = coupled_covariance(
            CoupledStateParams(base=base, tilt_theta=0.0, v_minus=(v_sq, v_anti))
        )
        uncoupled = below_threshold_covariance(base)
        assert np.allclose(coupled.entries, uncoupled.entries, atol=1e-15)

    def test_reproduces_published_tilted_block(self):
        # independent eigen-decomposition oracle for the published A- block
        block = PUBLISHED_APM[2:, 2:]
        w, vecs = np.linalg.eigh(block)
        theta = float(np.arctan2(vecs[1, 0], vecs[0, 0]) % np.pi)
        state = coupled_covariance(
            CoupledStateParams(
                base=OpoParams(sigma=0.9), tilt_theta=theta, v_minus=(0.677, 1.476)
            )
        )
        assert np.allclose(state.block_b, block, atol=1e-2)
        assert np.allclose(state.cross, 0.0)

    def test_published_state_log_negativity(self):
        block = PUBLISHED_APM[2:, 2:]
        w, vecs = np.linalg.eigh(block)
        theta = float(np.arctan2(vecs[1, 0], vecs[0, 0]) % np.pi)
        state = coupled_covariance(
            CoupledStateParams(
                base=OpoParams(sigma=0.9),
                tilt_theta=theta,
                v_minus=(float(w[0]), float(w[1])),
            )
        )
        assert log_negativity(state)[0] == pytest.approx(4.06, abs=0.01)

    def test_unphysical_block_rejected(self):
        with pytest.raises(UnphysicalBlockError):
            CoupledStateParams(base=OpoParams(sigma=0.5), tilt_theta=0.1, v_minus=(0.5, 1.0))

    def test_unordered_variances_rejected(self):
        with pytest.raises(OutOfRangeError):
            CoupledStateParams(base=OpoParams(sigma=0.5), tilt_theta=0.1, v_minus=(2.0, 1.0))

    @given(
        sigma=st.floats(0.1, 0.95),
        theta=st.floats(0.0, np.pi),
        v1=st.floats(0.05, 1.0),
        excess=st.floats(1.0, 1.5),
        eta=st.floats(0.3, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_physical(self, sigma, theta, v1, excess, eta):
        params = CoupledStateParams(
            base=OpoParams(sigma=sigma, eta=eta),
            tilt_theta=theta,
            v_minus=(v1, excess / v1),
        )
        state = coupled_covariance(params)
        assert symplectic_eigenvalues(state)[0] >= 1.0 - 1e-9


class TestTwinSpectrum:
    def test_no_correlation(self):
        for omega in (0.0, 0.5, 3.0):
            assert twin_difference_spectrum(omega, 0.0) == 1.0

    def test_high_frequency_returns_to_shot_noise(self):
        assert twin_difference_spectrum(1e6, 0.9) == pytest.approx(1.0, abs=1e-9)

    def test_floor_matches_published_reduction(self):
        s = twin_difference_spectrum(0.0, 0.893)
        assert s == pytest.approx(0.107, abs=1e-9)
        assert variance_to_db(s) == pytest.approx(-9.7, abs=0.02)

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            twin_difference_spectrum(-1.0, 0.5)
        with pytest.raises(OutOfRangeError):
            twin_difference_spectrum(1.0, 1.5)

    @given(omega=omegas, eta=etas)
    @settings(max_examples=200)
    def test_bounded(self, omega, eta):
        s = twin_difference_spectrum(omega, eta)
        assert 1.0 - eta <= s <= 1.0


def _single_state_rows(sigmas, omegas, eta, coupled):
    """The sweep rows point by point, through the single-state functions."""
    rows = []
    for sigma in sigmas:
        for omega in omegas:
            base = OpoParams(sigma=sigma, omega=omega, eta=eta)
            if coupled is None:
                state = below_threshold_covariance(base)
            else:
                theta, v1, v2 = coupled
                state = coupled_covariance(CoupledStateParams(base, theta, (v1, v2)))
            pm = to_basis(state, ModeBasis.PLUS_MINUS).entries
            sep = separability(state)
            rows.append(
                (
                    sigma,
                    omega,
                    pm[1, 1],
                    pm[0, 0],
                    gemellity_from_covariance(state, "x_difference"),
                    sep,
                    eof(sep),
                    log_negativity(state)[0],
                )
            )
    return [tuple(repr(float(v)) for v in row) for row in rows]


def _sweep_rows(sigmas, omegas, eta, coupled):
    columns = sweep(sigmas, omegas, eta, coupled)
    assert tuple(columns) == SWEEP_COLUMNS
    return list(zip(*(map(repr, columns[name].tolist()) for name in SWEEP_COLUMNS)))


class TestSweep:
    @given(
        sigmas=st.lists(st.floats(0.0, 0.99999999), min_size=1, max_size=4),
        omegas=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
        eta=etas,
        coupled=st.none()
        | st.tuples(st.floats(-7.0, 7.0), st.floats(0.05, 2.0), st.floats(1.0, 20.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_single_state_path_bitwise(self, sigmas, omegas, eta, coupled):
        if coupled is not None:
            theta, v1, product = coupled
            coupled = (theta, v1, max(v1, product / v1))
        try:
            expected = _single_state_rows(sigmas, omegas, eta, coupled)
        except CvopoError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                sweep(sigmas, omegas, eta, coupled)
            return
        assert _sweep_rows(sigmas, omegas, eta, coupled) == expected

    def test_near_threshold_rows(self):
        sigmas = [0.99, 0.999, 0.9999, 0.99999999]
        for coupled in (None, (1.2228661116636982, 0.677, 1.476)):
            for eta in (1.0, 0.97):
                expected = _single_state_rows(sigmas, [0.0, 0.05], eta, coupled)
                assert _sweep_rows(sigmas, [0.0, 0.05], eta, coupled) == expected

    def test_sigma_major_order(self):
        columns = sweep([0.1, 0.2], [0.0, 1.0, 2.0], 0.9)
        assert columns["sigma"].tolist() == [0.1, 0.1, 0.1, 0.2, 0.2, 0.2]
        assert columns["omega"].tolist() == [0.0, 1.0, 2.0] * 2

    @pytest.mark.parametrize(
        "sigmas, omegas, eta, coupled, error, message",
        [
            ([0.5, 0.9, 1.5], [0.0], 1.0, None, OutOfRangeError, "sigma must lie in [0, 1), got 1.5"),
            ([0.5, math.nan], [0.0], 1.0, None, OutOfRangeError, "sigma must lie in [0, 1), got nan"),
            ([0.5], [0.0, math.inf], 1.0, None, OutOfRangeError, "omega must be non-negative and finite, got inf"),
            ([0.5, 2.0], [0.0, -1.0], 1.0, None, OutOfRangeError, "omega must be non-negative and finite, got -1.0"),
            ([0.5, 0.7], [0.0], 1.5, None, OutOfRangeError, "eta must lie in [0, 1], got 1.5"),
            ([1.5], [0.0], 1.5, None, OutOfRangeError, "sigma must lie in [0, 1), got 1.5"),
            ([0.5], [0.0], 1.0, (0.3, 2.0, 1.0), OutOfRangeError, "v_minus must be ordered v1 <= v2, got (2.0, 1.0)"),
            ([0.5], [0.0], 1.0, (0.3, 0.1, 1.0), UnphysicalBlockError, "A- block violates the uncertainty bound: v1*v2 = 0.1"),
            ([0.5], [0.0], 1.0, (math.nan, 1.0, 1.0), OutOfRangeError, "tilt_theta must be finite, got nan"),
        ],
    )  # fmt: skip
    def test_first_offending_point_names_the_error(
        self, sigmas, omegas, eta, coupled, error, message
    ):
        with pytest.raises(error, match=re.escape(message)):
            sweep(sigmas, omegas, eta, coupled)
        with pytest.raises(error, match=re.escape(message)):
            _single_state_rows(sigmas, omegas, eta, coupled)

    def test_empty_grid(self):
        columns = sweep([], [0.0], 0.9)
        assert all(values.size == 0 for values in columns.values())
