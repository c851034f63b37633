import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvopo import (
    LossModel,
    ModeBasis,
    add_losses,
    apply_passive,
    beamsplitter_pm,
    change_basis_pm,
    composite,
    half_wave,
    is_physical,
    make_covariance,
    phase_shift,
    polarization_rotation,
    quarter_wave,
    symplectic_eigenvalues,
    vacuum_state,
)
from cvopo.condprep import CondPrepConfig
from cvopo.criteria import CorrelationStats
from cvopo.errors import (
    BadCorrelationError,
    BadEfficiencyError,
    BadShapeError,
    InvalidTransformError,
    NonFiniteError,
    NonSymmetricError,
    OutOfRangeError,
)
from cvopo.gaussian import SYMPLECTIC_FORM, CovarianceMatrix, PassiveTransform, to_basis
from cvopo.opo import CoupledStateParams, OpoParams

from conftest import PUBLISHED_A1A2, PUBLISHED_APM, random_physical_state

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
seeds = st.integers(0, 2**32 - 1)


def transform_samples(rng):
    yield beamsplitter_pm()
    yield phase_shift(0, rng.uniform(0, 2 * np.pi))
    yield phase_shift(1, rng.uniform(0, 2 * np.pi))
    yield polarization_rotation(rng.uniform(0, np.pi))
    yield half_wave(rng.uniform(0, np.pi))
    yield quarter_wave(rng.uniform(0, np.pi))
    yield composite([phase_shift(0, 0.3), half_wave(0.2), quarter_wave(1.1)])


class TestMakeCovariance:
    def test_vacuum_accepted(self):
        state = make_covariance(np.eye(4), ModeBasis.SIGNAL_IDLER)
        assert np.array_equal(state.entries, np.eye(4))
        assert state.basis is ModeBasis.SIGNAL_IDLER

    def test_published_signal_idler_table_accepted(self):
        state = make_covariance(PUBLISHED_A1A2, ModeBasis.SIGNAL_IDLER)
        assert state.entries[0, 0] == 181.192
        assert state.entries[0, 3] == -0.255
        assert is_physical(state)[0]

    def test_asymmetric_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 1.0  # G_12 = 1, G_21 = 0
        with pytest.raises(NonSymmetricError):
            make_covariance(bad, ModeBasis.SIGNAL_IDLER)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (2, 8), (4,)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(BadShapeError):
            make_covariance(np.ones(shape), ModeBasis.SIGNAL_IDLER)

    def test_tiny_asymmetry_symmetrized(self):
        m = np.array(PUBLISHED_APM)
        m[2, 3] += 1e-13
        state = make_covariance(m, ModeBasis.PLUS_MINUS)
        assert state.entries[2, 3] == state.entries[3, 2]

    def test_entries_read_only(self):
        state = vacuum_state()
        with pytest.raises(ValueError):
            state.entries[0, 0] = 2.0


class TestPhysicality:
    def test_vacuum(self):
        ok, nu = is_physical(vacuum_state())
        assert ok and nu == pytest.approx(1.0, abs=1e-12)

    def test_subvacuum_mode_rejected(self):
        state = make_covariance(np.diag([0.5, 0.5, 1.0, 1.0]), ModeBasis.SIGNAL_IDLER)
        ok, nu = is_physical(state)
        assert not ok
        assert nu == pytest.approx(0.5, abs=1e-9)

    def test_published_tables_pass_with_default_tolerance(self):
        # Table rounding puts both symplectic eigenvalues a few 1e-4 below 1
        # (361 * 0.00277 = 0.99997), so the default gate must accept them
        # while a strict one must not.
        for entries, basis in (
            (PUBLISHED_APM, ModeBasis.PLUS_MINUS),
            (PUBLISHED_A1A2, ModeBasis.SIGNAL_IDLER),
        ):
            state = make_covariance(entries, basis)
            ok, nu = is_physical(state)
            assert ok
            assert nu == pytest.approx(1.0, abs=1e-3)
            assert not is_physical(state, tol=1e-9)[0]

    def test_plus_minus_block_eigenvalues(self):
        # zero cross block: symplectic eigenvalues are sqrt(det) per block
        state = make_covariance(PUBLISHED_APM, ModeBasis.PLUS_MINUS)
        nu = symplectic_eigenvalues(state)
        assert nu[1] == pytest.approx(np.sqrt(361 * 0.00277), abs=1e-9)
        assert nu[0] == pytest.approx(np.sqrt(1.383 * 0.770 - 0.256**2), abs=1e-9)


class TestBasisChange:
    def test_fixture_pair_are_exact_images(self, a1a2_state, apm_state):
        assert np.allclose(
            change_basis_pm(a1a2_state).entries, apm_state.entries, atol=1e-9
        )
        assert change_basis_pm(a1a2_state).basis is ModeBasis.PLUS_MINUS

    def test_published_table_variance_structure(self):
        # The published signal/idler table maps onto the published
        # plus/minus table in its mode variances (to table rounding), but
        # its X-P cross terms land as -0.255 in the A+ block and +0.255 in
        # the A- block instead of the published 0 and -0.256: the two
        # tables are not exact images of each other.
        si = make_covariance(PUBLISHED_A1A2, ModeBasis.SIGNAL_IDLER)
        pm = change_basis_pm(si).entries
        assert pm[0, 0] == pytest.approx(361.0, abs=1e-9)
        assert pm[1, 1] == pytest.approx(0.00277, abs=1e-3)
        assert pm[2, 2] == pytest.approx(1.383, abs=1.5e-3)
        assert pm[3, 3] == pytest.approx(0.770, abs=1.5e-3)
        assert abs(pm[2, 3]) == pytest.approx(0.256, abs=1.5e-3)
        assert pm[0, 1] == pytest.approx(-0.255, abs=1e-9)
        assert np.allclose(pm[:2, 2:], 0.0, atol=1e-9)

    def test_involution_on_fixture(self, a1a2_state):
        twice = change_basis_pm(change_basis_pm(a1a2_state))
        assert np.allclose(twice.entries, a1a2_state.entries, atol=1e-12, rtol=1e-12)
        assert twice.basis is a1a2_state.basis

    def test_conversion_is_kept_and_bitwise_fresh(self, a1a2_state):
        state = make_covariance(a1a2_state.entries, ModeBasis.SIGNAL_IDLER)
        pm = to_basis(state, ModeBasis.PLUS_MINUS)
        assert change_basis_pm(state) is pm
        assert to_basis(state, ModeBasis.SIGNAL_IDLER) is state
        h = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=float)
        fresh = make_covariance(h @ state.entries @ h.T / 2.0, ModeBasis.PLUS_MINUS)
        assert np.array_equal(pm.entries, fresh.entries)
        back = make_covariance(h @ pm.entries @ h.T / 2.0, ModeBasis.SIGNAL_IDLER)
        assert np.array_equal(to_basis(pm, ModeBasis.SIGNAL_IDLER).entries, back.entries)

    def test_vacuum_maps_to_vacuum(self):
        out = change_basis_pm(vacuum_state())
        assert np.allclose(out.entries, np.eye(4), atol=1e-15)

    @given(seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_involution_and_invariants_random(self, seed):
        state = random_physical_state(np.random.default_rng(seed))
        flipped = change_basis_pm(state)
        twice = change_basis_pm(flipped)
        scale = np.abs(state.entries).max()
        assert np.abs(twice.entries - state.entries).max() <= 1e-12 * max(1.0, scale)
        assert flipped.determinant() == pytest.approx(state.determinant(), rel=1e-9)
        assert np.allclose(
            symplectic_eigenvalues(flipped), symplectic_eigenvalues(state), rtol=1e-9
        )
        # both invariants are read off the +-45 degree entries, so compare the
        # entries of the two bases directly as well
        assert np.linalg.det(flipped.entries) == pytest.approx(
            np.linalg.det(state.entries), rel=1e-9
        )
        spectra = [np.abs(np.linalg.eigvals(SYMPLECTIC_FORM @ g.entries)) for g in (state, flipped)]
        assert np.allclose(np.sort(spectra[0]), np.sort(spectra[1]), rtol=1e-9, atol=0.0)


class TestPassiveTransforms:
    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_symplectic_and_orthogonal(self, seed):
        rng = np.random.default_rng(seed)
        for t in transform_samples(rng):
            s = t.matrix
            assert np.abs(s @ SYMPLECTIC_FORM @ s.T - SYMPLECTIC_FORM).max() <= 1e-10
            assert np.allclose(s @ s.T, np.eye(4), atol=1e-12)

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_vacuum_is_invariant(self, seed):
        rng = np.random.default_rng(seed)
        for t in transform_samples(rng):
            out = apply_passive(vacuum_state(), t)
            assert np.allclose(out.entries, np.eye(4), atol=1e-12)

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_det_and_spectrum_preserved(self, seed):
        rng = np.random.default_rng(seed)
        state = random_physical_state(rng)
        for t in transform_samples(rng):
            out = apply_passive(state, t)
            assert out.determinant() == pytest.approx(state.determinant(), rel=1e-9)
            assert np.allclose(
                symplectic_eigenvalues(out), symplectic_eigenvalues(state), rtol=1e-9
            )

    def test_pi_shift_on_both_modes_is_identity(self, a1a2_state):
        flip = composite([phase_shift(0, np.pi), phase_shift(1, np.pi)])
        out = apply_passive(a1a2_state, flip)
        assert np.allclose(out.entries, a1a2_state.entries, atol=1e-12)

    def test_phase_shift_touches_only_its_mode(self, apm_state):
        out = apply_passive(apm_state, phase_shift(1, 0.7))
        assert np.allclose(out.block_a, apm_state.block_a, atol=1e-15)
        assert not np.allclose(out.block_b, apm_state.block_b)

    def test_published_diagonalizing_shift(self, apm_state):
        # tan(2 theta) = 2 * (-0.256) / (1.383 - 0.770); the eigenvalue
        # ordering that keeps the squeezed variance first adds pi/2
        theta = np.arctan2(2.0 * (-0.256), 1.383 - 0.770) / 2.0 + np.pi / 2.0
        out = apply_passive(apm_state, phase_shift(1, theta))
        assert out.entries[2, 2] == pytest.approx(0.677, abs=1e-2)
        assert out.entries[3, 3] == pytest.approx(1.476, abs=1e-2)
        assert out.entries[2, 3] == pytest.approx(0.0, abs=1e-9)

    def test_invalid_matrix_rejected(self):
        bad = PassiveTransform(kind="broken", matrix=np.diag([1.0, 1.0, 1.0, -1.0]))
        with pytest.raises(InvalidTransformError):
            apply_passive(vacuum_state(), bad)

    def test_half_wave_at_zero_flips_second_mode_sign(self):
        s = half_wave(0.0).matrix
        assert np.allclose(s, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_beamsplitter_matches_basis_change(self, a1a2_state):
        via_transform = apply_passive(a1a2_state, beamsplitter_pm())
        via_basis = change_basis_pm(a1a2_state)
        assert np.allclose(via_transform.entries, via_basis.entries, atol=1e-12)


class TestLosses:
    def test_unit_efficiency_identity(self, apm_state):
        out = add_losses(apm_state, LossModel(1.0, 1.0))
        assert np.allclose(out.entries, apm_state.entries, atol=1e-15)

    def test_zero_efficiency_gives_vacuum(self, apm_state):
        out = add_losses(apm_state, LossModel(0.0, 0.0))
        assert np.allclose(out.entries, np.eye(4), atol=1e-15)

    def test_squeezed_variance_formula(self):
        state = make_covariance(
            np.diag([361.0, 0.00277, 0.00277, 361.0]), ModeBasis.PLUS_MINUS
        )
        out = add_losses(state, LossModel(0.66, 0.66))
        assert out.entries[1, 1] == pytest.approx(0.66 * 0.00277 + 0.34, abs=1e-12)

    @pytest.mark.parametrize("eta", [-0.1, 1.1, 2.0])
    def test_bad_efficiency(self, eta):
        with pytest.raises(BadEfficiencyError):
            LossModel(eta, 0.5)

    @given(seed=seeds, eta_a=st.floats(0, 1), eta_b=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_losses_keep_states_physical(self, seed, eta_a, eta_b):
        state = random_physical_state(np.random.default_rng(seed))
        out = add_losses(state, LossModel(eta_a, eta_b))
        assert symplectic_eigenvalues(out)[0] >= 1.0 - 1e-9


def _with_entry(value):
    m = np.eye(4)
    m[1, 2] = m[2, 1] = value
    return m


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: CondPrepConfig(math.nan, 1.0, 0.1, 0.1, 20_000, 1), OutOfRangeError),
        (lambda: CondPrepConfig(math.inf, 1.0, 0.1, 0.1, 20_000, 1), OutOfRangeError),
        (lambda: CondPrepConfig(1.0, 1.0, math.nan, 0.1, 20_000, 1), OutOfRangeError),
        (lambda: CondPrepConfig(1.0, 1.0, 0.1, math.nan, 20_000, 1), OutOfRangeError),
        (lambda: CondPrepConfig(1.0, 1.0, 0.1, 0.1, 20_000, 1, math.nan), OutOfRangeError),
        (lambda: CorrelationStats(math.nan, 0.5), BadCorrelationError),
        (lambda: CorrelationStats(1.0, math.nan), BadCorrelationError),
        (lambda: CorrelationStats.from_gemellity(1.0, math.nan), BadCorrelationError),
        (lambda: OpoParams(0.5, omega=math.nan), OutOfRangeError),
        (lambda: OpoParams(0.5, omega=math.inf), OutOfRangeError),
        (lambda: CoupledStateParams(OpoParams(0.5), 0.1, (math.nan, math.nan)), OutOfRangeError),
        (lambda: CoupledStateParams(OpoParams(0.5), 0.1, (1.0, math.inf)), OutOfRangeError),
        (lambda: CoupledStateParams(OpoParams(0.5), math.nan), OutOfRangeError),
        (lambda: make_covariance(_with_entry(math.nan), ModeBasis.PLUS_MINUS), NonFiniteError),
        (lambda: make_covariance(_with_entry(math.inf), ModeBasis.SIGNAL_IDLER), NonFiniteError),
        (lambda: apply_passive(vacuum_state(), phase_shift(0, math.nan)), InvalidTransformError),
    ],
)
def test_library_rejects_nan_and_infinite_parameters(build, error):
    with pytest.raises(error):
        build()
    # an infinite band keeps every sample and stays valid
    assert CondPrepConfig(1.0, 1.0, 0.1, math.inf, 20_000, 1).band_halfwidth == math.inf
