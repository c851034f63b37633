import math

import numpy as np
import pytest

from cvopo import (
    CoupledStateParams,
    CovarianceMatrix,
    ModeBasis,
    OpoParams,
    apply_passive,
    apply_waveplate_sequence,
    below_threshold_covariance,
    change_basis_pm,
    coupled_covariance,
    diagonalizing_phase,
    log_negativity,
    make_covariance,
    max_log_negativity,
    optimize_nonlocal_phase,
    phase_shift,
    to_basis,
    vacuum_state,
)

from conftest import random_physical_state


def brute_force_phase_scan(gamma_pm, n_points: int) -> tuple[float, float]:
    """Closed-form dense scan of E_N over the A- phase, independent of the
    transform/matrix pipeline.

    With uncorrelated +-45 modes the signal/idler blocks are (P +- M)/2, so
    D(phi) = [det(P + M(phi)) - det(P - M(phi))] / 2 while det(Gamma) stays
    det(P) det(M); the rotation of M enters through trig polynomials only.
    """
    p = gamma_pm.entries[:2, :2]
    m = gamma_pm.entries[2:, 2:]
    assert np.allclose(gamma_pm.entries[:2, 2:], 0.0, atol=1e-12)
    phi = np.linspace(0.0, np.pi, n_points, endpoint=False)
    c, s = np.cos(phi), np.sin(phi)
    m11 = c**2 * m[0, 0] + 2 * c * s * m[0, 1] + s**2 * m[1, 1]
    m22 = s**2 * m[0, 0] - 2 * c * s * m[0, 1] + c**2 * m[1, 1]
    m12 = -c * s * m[0, 0] + (c**2 - s**2) * m[0, 1] + c * s * m[1, 1]

    def det_pm(sign):
        return (p[0, 0] + sign * m11) * (p[1, 1] + sign * m22) - (p[0, 1] + sign * m12) ** 2

    d = (det_pm(+1.0) - det_pm(-1.0)) / 2.0
    det_gamma = np.linalg.det(p) * np.linalg.det(m)
    xi2 = (d - np.sqrt(d * d - 4.0 * det_gamma)) / 2.0
    e_n = np.maximum(0.0, -0.5 * np.log2(xi2))
    best = int(np.argmax(e_n))
    return float(phi[best]), float(e_n[best])


def random_coupled_state(rng: np.random.Generator):
    v1 = rng.uniform(0.05, 1.0)
    return coupled_covariance(
        CoupledStateParams(
            base=OpoParams(
                sigma=rng.uniform(0.3, 0.95),
                omega=rng.uniform(0.0, 2.0),
                eta=rng.uniform(0.5, 1.0),
            ),
            tilt_theta=rng.uniform(0.0, np.pi),
            v_minus=(v1, rng.uniform(1.0, 1.5) / v1),
        )
    )


class TestOptimizeNonlocalPhase:
    def test_reference_state(self, a1a2_state):
        outcome = optimize_nonlocal_phase(a1a2_state)
        assert outcome.e_n_before == pytest.approx(4.06, abs=0.01)
        assert outcome.e_n_after == pytest.approx(4.53, abs=0.01)
        assert outcome.e_n_after == pytest.approx(outcome.e_n_max, abs=1e-6)
        assert outcome.transform.kind == "phase_shift"
        # transformed state is returned in both bases and is consistent
        assert outcome.state_plus_minus.basis is ModeBasis.PLUS_MINUS
        assert outcome.state_signal_idler.basis is ModeBasis.SIGNAL_IDLER
        assert np.allclose(
            change_basis_pm(outcome.state_plus_minus).entries,
            outcome.state_signal_idler.entries,
            atol=1e-9,
        )
        assert log_negativity(outcome.state_signal_idler)[0] == pytest.approx(
            outcome.e_n_after, abs=1e-9
        )

    def test_standard_form_input_needs_no_shift(self):
        state = below_threshold_covariance(OpoParams(sigma=0.7, omega=0.3))
        outcome = optimize_nonlocal_phase(state)
        assert outcome.best_phase == 0.0
        assert outcome.e_n_after == pytest.approx(outcome.e_n_before, abs=1e-9)

    def test_vacuum(self):
        outcome = optimize_nonlocal_phase(vacuum_state())
        assert outcome.e_n_before == pytest.approx(0.0, abs=1e-12)
        assert outcome.e_n_after == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_oracle(self, seed):
        state = random_coupled_state(np.random.default_rng(seed))
        outcome = optimize_nonlocal_phase(state)
        _, oracle_best = brute_force_phase_scan(state, 100_000)
        assert abs(outcome.e_n_after - oracle_best) <= 1e-6

    @pytest.mark.parametrize("seed", [1, 5, 9, 13])
    def test_improvement_and_bound(self, seed):
        state = random_physical_state(np.random.default_rng(seed))
        outcome = optimize_nonlocal_phase(state)
        assert outcome.e_n_after >= outcome.e_n_before - 1e-9
        assert outcome.e_n_after <= outcome.e_n_max + 1e-6

    def test_attains_maximum_on_uncorrelated_family(self):
        for seed in range(6):
            state = random_coupled_state(np.random.default_rng(100 + seed))
            outcome = optimize_nonlocal_phase(state)
            assert outcome.e_n_after == pytest.approx(outcome.e_n_max, abs=1e-6)

    def test_trace_records_evaluations(self, a1a2_state):
        outcome = optimize_nonlocal_phase(a1a2_state)
        assert len(outcome.trace) == 4
        phis, values = zip(*outcome.trace)
        assert phis[:3] == (0.0, math.pi / 4, math.pi / 2)
        assert phis[3] == outcome.best_phase
        assert max(values) == outcome.e_n_after

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_scan_on_correlated_modes(self, seed):
        # random_physical_state correlates the +-45 modes, which the closed-form
        # scan above does not cover; scan log_negativity itself instead
        pm = change_basis_pm(random_physical_state(np.random.default_rng(seed)))
        outcome = optimize_nonlocal_phase(pm)
        best = -np.inf
        for phi in np.linspace(0.0, np.pi, 20_000, endpoint=False):
            c, s = np.cos(phi), np.sin(phi)
            r = np.eye(4)
            r[2:, 2:] = [[c, s], [-s, c]]
            shifted = CovarianceMatrix(entries=r @ pm.entries @ r.T, basis=ModeBasis.PLUS_MINUS)
            best = max(best, log_negativity(shifted)[0])
        assert outcome.e_n_after >= best - 1e-9

    def test_separable_at_every_phase_keeps_zero_phase(self):
        # Gamma >= I, so E_N = 0 for every phase; the D optimum would sit at 0.4
        c, s = math.cos(0.4), math.sin(0.4)
        rot = np.array([[c, -s], [s, c]])
        entries = np.zeros((4, 4))
        entries[:2, :2] = np.diag([3.0, 2.0])
        entries[2:, 2:] = rot @ np.diag([1.5, 4.0]) @ rot.T
        outcome = optimize_nonlocal_phase(make_covariance(entries, ModeBasis.PLUS_MINUS))
        assert outcome.best_phase == 0.0
        assert outcome.e_n_after == 0.0


class TestDiagonalizingPhase:
    def test_reference_block(self, apm_state):
        phi = diagonalizing_phase(apm_state)
        shifted = apply_passive(apm_state, phase_shift(1, phi))
        assert abs(shifted.entries[2, 3]) <= 1e-9
        # squeezed variance first
        assert shifted.entries[2, 2] == pytest.approx(0.677, abs=1e-2)
        assert shifted.entries[3, 3] == pytest.approx(1.476, abs=1e-2)

    def test_agrees_with_optimizer(self, apm_state):
        phi = diagonalizing_phase(apm_state)
        shifted = apply_passive(apm_state, phase_shift(1, phi))
        outcome = optimize_nonlocal_phase(apm_state)
        assert log_negativity(shifted)[0] == pytest.approx(outcome.e_n_after, abs=1e-6)
        assert phi == pytest.approx(outcome.best_phase, abs=1e-4)

    def test_already_diagonal_returns_zero(self):
        state = below_threshold_covariance(OpoParams(sigma=0.5))
        assert diagonalizing_phase(state) == 0.0

    def test_requires_plus_minus_basis(self, a1a2_state):
        with pytest.raises(ValueError):
            diagonalizing_phase(a1a2_state)

    def test_requires_diagonal_plus_block(self):
        entries = np.array(
            [
                [2.0, 0.5, 0.0, 0.0],
                [0.5, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.5, 0.2],
                [0.0, 0.0, 0.2, 1.0],
            ]
        )
        with pytest.raises(ValueError):
            diagonalizing_phase(make_covariance(entries, ModeBasis.PLUS_MINUS))


class TestWaveplates:
    def test_axis_aligned_plates_leave_e_n_unchanged(self, a1a2_state):
        for alpha in (0.0, math.pi / 2):
            out = apply_waveplate_sequence(a1a2_state, alpha, alpha)
            assert log_negativity(out)[0] == pytest.approx(
                log_negativity(a1a2_state)[0], abs=1e-9
            )

    def test_basis_preserved(self, apm_state, a1a2_state):
        assert apply_waveplate_sequence(apm_state, 0.3, 0.7).basis is ModeBasis.PLUS_MINUS
        assert (
            apply_waveplate_sequence(a1a2_state, 0.3, 0.7).basis is ModeBasis.SIGNAL_IDLER
        )

    def test_plates_can_realize_the_optimal_phase(self, a1a2_state):
        # 2-D grid search oracle over the plate angles
        target = optimize_nonlocal_phase(a1a2_state).e_n_after
        best, best_angles = -1.0, None
        grid = np.linspace(0.0, np.pi, 181, endpoint=False)
        for a_half in grid:
            for a_quarter in grid:
                value = log_negativity(
                    apply_waveplate_sequence(a1a2_state, a_half, a_quarter)
                )[0]
                if value > best:
                    best, best_angles = value, (a_half, a_quarter)
        assert best == pytest.approx(target, abs=1e-3)

        from scipy.optimize import minimize

        refined = minimize(
            lambda p: -log_negativity(apply_waveplate_sequence(a1a2_state, *p))[0],
            best_angles,
            method="Nelder-Mead",
            options=dict(xatol=1e-10, fatol=1e-12),
        )
        assert -refined.fun == pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_spectrum_and_passive_bound_invariant(self, seed):
        rng = np.random.default_rng(seed)
        state = random_physical_state(rng)
        out = apply_waveplate_sequence(state, rng.uniform(0, np.pi), rng.uniform(0, np.pi))
        assert out.determinant() == pytest.approx(state.determinant(), rel=1e-9)
        assert max_log_negativity(out) == pytest.approx(max_log_negativity(state), abs=1e-9)
        assert log_negativity(out)[0] <= max_log_negativity(state) + 1e-6
