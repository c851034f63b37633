import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvopo import (
    CorrelationStats,
    ModeBasis,
    OpoParams,
    apply_passive,
    below_threshold_covariance,
    change_basis_pm,
    classify,
    composite,
    conditional_variance,
    conditional_variance_from_gemellity,
    db_to_variance,
    eof,
    epr_product,
    gemellity,
    gemellity_from_covariance,
    is_physical,
    log_negativity,
    make_covariance,
    max_log_negativity,
    phase_shift,
    polarization_rotation,
    separability,
    symmetric_covariance,
    to_basis,
    vacuum_state,
    variance_to_db,
)
from cvopo.criteria import (
    conditional_variance_from_stats,
    gemellity_from_stats,
    is_standard_form,
)
from cvopo.errors import (
    BadCorrelationError,
    DegenerateVarianceError,
    NonPositiveSeparabilityError,
    NonPositiveVarianceError,
    NumericalFailureError,
)
from cvopo.opo import OpoParams, below_threshold_covariance, below_threshold_variances

from conftest import random_physical_state

# measured below-threshold operating point: individual noise 6.6 with the
# two squeezed variances at -4.7 dB and -4.9 dB
F_MEASURED = 6.6
V_47 = db_to_variance(-4.7)
V_49 = db_to_variance(-4.9)


class TestStats:
    def test_coherent_boundary(self):
        assert gemellity_from_stats(CorrelationStats(f=1.0, c12=0.0)) == 1.0

    @pytest.mark.parametrize("f", [0.5, 1.0, 42.0])
    def test_perfect_correlation(self, f):
        assert gemellity_from_stats(CorrelationStats(f=f, c12=1.0)) == 0.0

    def test_strong_twin_beams(self):
        stats = CorrelationStats.from_gemellity(f=110.0, g=0.18)
        assert stats.c12 == pytest.approx(0.9983636, abs=1e-7)
        assert gemellity_from_stats(stats) == pytest.approx(0.18, abs=1e-12)

    def test_invalid_stats(self):
        with pytest.raises(BadCorrelationError):
            CorrelationStats(f=-1.0, c12=0.0)
        with pytest.raises(BadCorrelationError):
            CorrelationStats(f=1.0, c12=1.5)
        with pytest.raises(BadCorrelationError):
            CorrelationStats.from_gemellity(f=1.0, g=3.0)


class TestConditionalVariance:
    def test_no_information(self):
        assert conditional_variance_from_stats(CorrelationStats(f=7.0, c12=0.0)) == 7.0

    def test_perfect_correlation(self):
        assert conditional_variance_from_stats(CorrelationStats(f=7.0, c12=1.0)) == 0.0

    def test_gemellity_form_agrees(self):
        # V = 2G - G^2/F with G = 0.339 at F = 6.6
        v = conditional_variance_from_gemellity(6.6, 0.339)
        assert v == pytest.approx(2 * 0.339 - 0.339**2 / 6.6, abs=1e-15)
        stats = CorrelationStats.from_gemellity(6.6, 0.339)
        assert conditional_variance_from_stats(stats) == pytest.approx(v, abs=1e-12)

    @given(
        f=st.floats(1e-2, 1e3, allow_nan=False),
        c12=st.floats(-1.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_two_forms_identical(self, f, c12):
        g = gemellity(f, c12)
        assert abs(conditional_variance(f, c12) - conditional_variance_from_gemellity(f, g)) <= 1e-10


class TestGemellityFromCovariance:
    def test_vacuum(self):
        assert gemellity_from_covariance(vacuum_state(), "x_difference") == 1.0
        assert gemellity_from_covariance(vacuum_state(), "p_sum") == 1.0

    def test_reference_state(self, a1a2_state):
        # G_X equals Var(X) of the A- mode, G_P equals Var(P) of A+
        assert gemellity_from_covariance(a1a2_state, "x_difference") == pytest.approx(
            1.383, abs=1e-12
        )
        assert gemellity_from_covariance(a1a2_state, "p_sum") == pytest.approx(
            0.00277, abs=1e-12
        )

    def test_plus_minus_input_converted(self, apm_state, a1a2_state):
        for quadrature in ("x_difference", "p_sum"):
            assert gemellity_from_covariance(apm_state, quadrature) == pytest.approx(
                gemellity_from_covariance(a1a2_state, quadrature), abs=1e-12
            )

    def test_uncoupled_opo(self):
        state = below_threshold_covariance(OpoParams(sigma=0.9))
        assert gemellity_from_covariance(state, "x_difference") == pytest.approx(
            0.00277, abs=1e-6
        )

    def test_unknown_quadrature(self):
        with pytest.raises(ValueError):
            gemellity_from_covariance(vacuum_state(), "y_difference")


class TestSeparability:
    def test_vacuum_boundary(self):
        assert separability(vacuum_state()) == 1.0

    def test_measured_squeezed_variances(self):
        state = symmetric_covariance(F_MEASURED, V_47, V_49)
        assert separability(state) == pytest.approx(0.3312, abs=5e-4)

    def test_ideal_opo(self):
        state = below_threshold_covariance(OpoParams(sigma=0.9))
        assert separability(state) == pytest.approx(0.00277, abs=1e-6)

    def test_standard_form_detection(self, a1a2_state):
        assert is_standard_form(symmetric_covariance(2.0, 0.5, 0.7))
        assert is_standard_form(vacuum_state())
        assert not is_standard_form(a1a2_state)


class TestEof:
    def test_boundary(self):
        assert eof(1.0) == 0.0
        assert eof(2.5) == 0.0

    def test_known_values(self):
        assert eof(0.33) == pytest.approx(1.0951158462631256, abs=1e-12)
        # brute evaluation of c+- at I = 0.25: c+ = 1.5625, c- = 0.5625
        expected = 1.5625 * math.log2(1.5625) - 0.5625 * math.log2(0.5625)
        assert eof(0.25) == pytest.approx(expected, abs=1e-12)
        assert eof(0.25) == pytest.approx(1.473, abs=5e-4)

    def test_measured_point(self):
        assert eof((V_47 + V_49) / 2) == pytest.approx(1.0902, abs=5e-4)

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveSeparabilityError):
            eof(0.0)
        with pytest.raises(NonPositiveSeparabilityError):
            eof(-0.2)

    def test_matches_high_precision_reference(self):
        # 60-digit c+ log2 c+ - c- log2 c-, down to the near-threshold regime
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            near_one = 1.0 - np.geomspace(1e-12, 1e-3, 100)
            for i in np.concatenate([np.geomspace(1e-17, 0.999, 300), near_one]):
                root = mpmath.sqrt(mpmath.mpf(float(i)))
                c_plus = (1 / root + root) ** 2 / 4
                c_minus = (1 / root - root) ** 2 / 4
                expected = float(c_plus * mpmath.log(c_plus, 2) - c_minus * mpmath.log(c_minus, 2))
                assert eof(float(i)) == pytest.approx(expected, rel=1e-13)

    @given(
        i1=st.floats(1e-4, 1.0, exclude_max=True),
        i2=st.floats(1e-4, 1.0, exclude_max=True),
    )
    @settings(max_examples=200)
    def test_strictly_decreasing(self, i1, i2):
        lo, hi = sorted((i1, i2))
        if hi - lo <= 1e-9 * hi:  # below float resolution of the formula
            return
        assert eof(lo) > eof(hi)


class TestEprProduct:
    def test_vacuum_boundary(self):
        assert epr_product(vacuum_state()) == 1.0

    def test_measured_state(self):
        state = symmetric_covariance(F_MEASURED, V_47, V_49)
        v_x = conditional_variance_from_gemellity(F_MEASURED, V_47)
        v_p = conditional_variance_from_gemellity(F_MEASURED, V_49)
        assert epr_product(state) == pytest.approx(v_x * v_p, abs=1e-12)
        assert epr_product(state) == pytest.approx(0.4169, abs=5e-4)

    def test_reference_state(self, a1a2_state):
        # direct Schur-complement evaluation on the fixture entries
        m = a1a2_state.entries
        expected = (m[0, 0] - m[0, 2] ** 2 / m[2, 2]) * (m[1, 1] - m[1, 3] ** 2 / m[3, 3])
        value = epr_product(a1a2_state)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value < 1.0

    def test_degenerate_conditioning(self):
        state = make_covariance(np.diag([1.0, 1.0, 0.0, 1.0]), ModeBasis.SIGNAL_IDLER)
        with pytest.raises(DegenerateVarianceError):
            epr_product(state)


class TestLogNegativity:
    def test_vacuum(self):
        e_n, xi = log_negativity(vacuum_state())
        assert e_n == 0.0
        assert xi == pytest.approx(1.0, abs=1e-12)

    def test_reference_state(self, a1a2_state):
        e_n, xi = log_negativity(a1a2_state)
        assert e_n == pytest.approx(4.06, abs=0.01)
        assert xi < 1.0

    def test_post_operation_state(self):
        from conftest import load_fixture_matrix

        e_n, _ = log_negativity(load_fixture_matrix("fig_matrix_a1a2_optimized.json"))
        assert e_n == pytest.approx(4.53, abs=0.01)

    def test_basis_invariance(self, a1a2_state, apm_state):
        assert log_negativity(apm_state)[0] == pytest.approx(
            log_negativity(a1a2_state)[0], abs=1e-9
        )

    @given(seed=st.integers(0, 2**32 - 1), angle=st.floats(0, 2 * np.pi))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_joint_phase_shifts(self, seed, angle):
        state = random_physical_state(np.random.default_rng(seed))
        rotated = apply_passive(
            state, composite([phase_shift(0, angle), phase_shift(1, angle)])
        )
        assert log_negativity(rotated)[0] == pytest.approx(
            log_negativity(state)[0], abs=1e-9
        )
        assert log_negativity(change_basis_pm(state))[0] == pytest.approx(
            log_negativity(state)[0], abs=1e-9
        )

    @pytest.mark.parametrize("sigma", [0.9, 0.98, 0.99, 0.995, 0.999])
    @pytest.mark.parametrize("omega", [0.0, 0.05])
    @pytest.mark.parametrize("eta", [1.0, 0.99, 0.95])
    def test_near_threshold_xi(self, sigma, omega, eta):
        # the ideal +-45 degree state is diagonal, and xi, G_X and the two
        # smallest eigenvalues all equal the lossy squeezed variance
        v_sq, _ = below_threshold_variances(sigma, omega)
        expected = eta * v_sq + (1.0 - eta)
        report = classify(below_threshold_covariance(OpoParams(sigma, omega, eta)))
        assert report.xi == pytest.approx(expected, rel=1e-12)
        assert report.gemellity_x == pytest.approx(expected, rel=1e-12)
        assert report.log_negativity == pytest.approx(-math.log2(expected), rel=1e-12)
        assert report.max_log_negativity == pytest.approx(-math.log2(expected), rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.99, 0.995, 0.999, 0.9995])
    @pytest.mark.parametrize("eta", [1.0, 0.99, 0.97])
    def test_signal_idler_input_matches_high_precision(self, sigma, eta):
        # the signal/idler entries are ~V_anti/2 and hold V_sq only as a
        # large-minus-large remainder; the invariants of that stored matrix
        # must still come out to rounding
        mpmath = pytest.importorskip("mpmath")
        state = to_basis(
            below_threshold_covariance(OpoParams(sigma, 0.0, eta)), ModeBasis.SIGNAL_IDLER
        )
        with mpmath.workdps(60):
            g = mpmath.matrix(state.entries.tolist())
            dets = [mpmath.det(g[i : i + 2, j : j + 2]) for i, j in ((0, 0), (2, 2), (0, 2))]

            def smallest_symplectic(sign):  # of g (+1) or of its partial transpose (-1)
                d = dets[0] + dets[1] + sign * 2 * dets[2]
                # g has a double symplectic eigenvalue, so its disc is 0 up to 1e-50
                disc = max(d * d - 4 * mpmath.det(g), 0)
                return mpmath.sqrt((d - mpmath.sqrt(disc)) / 2)

            nu_min = float(smallest_symplectic(1))
            xi = float(smallest_symplectic(-1))
            v_x = float(g[0, 0] - g[0, 2] ** 2 / g[2, 2])
        assert is_physical(state)[1] == pytest.approx(nu_min, rel=1e-12)
        assert log_negativity(state)[1] == pytest.approx(xi, rel=1e-12)
        assert classify(state).conditional_variance_x == pytest.approx(v_x, rel=1e-12)

    @pytest.mark.parametrize("n", [123.4, 2.7e3, 3.1e4, 5.5e5])
    @pytest.mark.parametrize("seed", range(5))
    def test_scrambled_thermal_state(self, n, seed):
        # Gamma = n I stays n I under passive optics up to rounding; both
        # partial-transpose eigenvalues equal n, so D^2 - 4 det G is 0
        rng = np.random.default_rng(seed)
        scramble = composite(
            [
                phase_shift(0, rng.uniform(0.0, 2.0 * np.pi)),
                polarization_rotation(rng.uniform(0.0, np.pi)),
                phase_shift(1, rng.uniform(0.0, 2.0 * np.pi)),
            ]
        )
        state = apply_passive(make_covariance(n * np.eye(4), ModeBasis.SIGNAL_IDLER), scramble)
        e_n, xi = log_negativity(state)
        assert e_n == 0.0
        assert xi == pytest.approx(n, rel=1e-6)

    def test_inconsistent_matrix_rejected(self):
        entries = np.array(
            [
                [1.0, 0.0, 3.0, 0.0],
                [0.0, 1.0, 0.0, 3.0],
                [3.0, 0.0, 1.0, 0.0],
                [0.0, 3.0, 0.0, 1.0],
            ]
        )
        with pytest.raises(NumericalFailureError):
            log_negativity(make_covariance(entries, ModeBasis.SIGNAL_IDLER))


class TestMaxLogNegativity:
    def test_vacuum(self):
        assert max_log_negativity(vacuum_state()) == 0.0

    def test_reference_state(self, apm_state):
        value = max_log_negativity(apm_state)
        lam = np.sort(np.linalg.eigvalsh(apm_state.entries))
        assert lam[0] == pytest.approx(0.00277, abs=1e-9)
        assert lam[1] == pytest.approx(0.677, abs=1e-3)
        assert value == pytest.approx(-math.log2(lam[0] * lam[1]) / 2, abs=1e-12)
        assert value == pytest.approx(4.53, abs=0.01)

    def test_pure_two_mode_squeezed_state(self):
        # already on orthogonal quadratures: no phase shift can improve E_N,
        # verified against a dense grid of phase shifts
        r = 0.8
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        entries = np.array(
            [
                [ch, 0.0, sh, 0.0],
                [0.0, ch, 0.0, -sh],
                [sh, 0.0, ch, 0.0],
                [0.0, -sh, 0.0, ch],
            ]
        )
        state = make_covariance(entries, ModeBasis.SIGNAL_IDLER)
        e_n = log_negativity(state)[0]
        e_n_max = max_log_negativity(state)
        assert e_n == pytest.approx(e_n_max, abs=1e-9)
        pm = change_basis_pm(state)
        grid = [
            log_negativity(apply_passive(pm, phase_shift(1, phi)))[0]
            for phi in np.linspace(0, np.pi, 360, endpoint=False)
        ]
        assert max(grid) <= e_n_max + 1e-9

    @pytest.mark.parametrize("sigma", [0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("basis", list(ModeBasis))
    def test_near_threshold_against_mpmath(self, sigma, basis):
        # the ideal state as stored in either basis; the oracle is the exact
        # spectrum of the stored entries
        mpmath = pytest.importorskip("mpmath")
        ideal = below_threshold_covariance(OpoParams(sigma=sigma))
        stored = make_covariance(to_basis(ideal, basis).entries, basis)
        if sigma == 0.9999 and basis is ModeBasis.SIGNAL_IDLER:
            # V_sq = 2.5e-9 lies below the rounding of the ~2e8 signal/idler
            # entries: the +-45 degree reading of the squeezed variance is 0
            with pytest.raises(NumericalFailureError):
                max_log_negativity(stored)
            return
        with mpmath.workdps(60):
            lam = sorted(mpmath.eigsy(mpmath.matrix(stored.entries.tolist()))[0])
            expected = float(-mpmath.log(lam[0] * lam[1], 2) / 2)
        assert max_log_negativity(stored) == pytest.approx(expected, abs=1e-12)

    def test_indefinite_matrix_raises_typed_error(self):
        state = make_covariance(np.diag([-1.0, 1.0, 1.0, 1.0]), ModeBasis.SIGNAL_IDLER)
        with pytest.raises(NumericalFailureError):
            max_log_negativity(state)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_upper_bounds_log_negativity(self, seed):
        state = random_physical_state(np.random.default_rng(seed))
        assert max_log_negativity(state) >= log_negativity(state)[0] - 1e-6


class TestDbConversions:
    def test_unity(self):
        assert variance_to_db(1.0) == 0.0

    def test_published_values(self):
        assert db_to_variance(-9.7) == pytest.approx(0.107, abs=1e-3)
        assert variance_to_db(0.00277) == pytest.approx(-25.575, abs=1e-3)

    def test_non_positive(self):
        with pytest.raises(NonPositiveVarianceError):
            variance_to_db(0.0)

    @given(v=st.floats(1e-12, 1e12))
    @settings(max_examples=200)
    def test_round_trip(self, v):
        assert db_to_variance(variance_to_db(v)) == pytest.approx(v, rel=1e-12)


class TestClassify:
    def test_measured_state_all_flags(self):
        report = classify(symmetric_covariance(F_MEASURED, V_47, V_49))
        assert report.nonclassical_correlation
        assert report.qnd_correlated
        assert report.inseparable
        assert report.epr_correlated
        assert report.separability == pytest.approx(0.3312, abs=5e-4)
        assert report.eof_ebits == pytest.approx(1.0902, abs=5e-4)
        assert report.epr_product == pytest.approx(0.4169, abs=5e-4)
        assert report.standard_form and report.balanced

    def test_vacuum_all_flags_false(self):
        report = classify(vacuum_state())
        assert not any(report.flags.values())
        for name, value in report.scalars().items():
            if name in ("eof_ebits", "log_negativity", "max_log_negativity"):
                assert value == 0.0
            else:
                assert value == pytest.approx(1.0, abs=1e-12)

    def test_nonclassical_but_not_qnd(self):
        # G = 0.7 at F = 100: V = 2*0.7 - 0.49/100 = 1.3951 > 1
        report = classify(symmetric_covariance(100.0, 0.7, 0.7))
        assert report.nonclassical_correlation
        assert not report.qnd_correlated
        assert report.conditional_variance_x == pytest.approx(1.3951, abs=1e-12)

    def test_stats_overrides(self):
        stats = CorrelationStats.from_gemellity(100.0, 0.7)
        report = classify(vacuum_state(), stats_x=stats, stats_p=stats)
        assert report.gemellity_x == pytest.approx(0.7, abs=1e-12)
        assert report.conditional_variance_x == pytest.approx(1.3951, abs=1e-10)
        assert report.nonclassical_correlation
        assert not report.qnd_correlated

    def test_flags_consistent_with_scalars(self, a1a2_state):
        report = classify(a1a2_state)
        assert report.nonclassical_correlation == (
            min(report.gemellity_x, report.antigemellity_p) < 1
        )
        assert report.qnd_correlated == (
            min(report.conditional_variance_x, report.conditional_variance_p) < 1
        )
        assert report.inseparable == (report.xi < 1)
        assert report.epr_correlated == (report.epr_product < 1)


class TestMonteCarloOracle:
    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_sampled_moments_match_analytic(self, seed):
        rng = np.random.default_rng(seed)
        state = random_physical_state(rng)
        n = 1_000_000
        draws = rng.standard_normal((n, 4)) @ np.linalg.cholesky(state.entries).T
        g_x_emp = 0.5 * np.var(draws[:, 0] - draws[:, 2], ddof=1)
        g_p_emp = 0.5 * np.var(draws[:, 1] + draws[:, 3], ddof=1)
        g_x = gemellity_from_covariance(state, "x_difference")
        g_p = gemellity_from_covariance(state, "p_sum")
        se = math.sqrt(2.0 / (n - 1))
        assert abs(g_x_emp - g_x) <= 5 * g_x * se
        assert abs(g_p_emp - g_p) <= 5 * g_p * se
        m = state.entries
        for i, j in ((0, 2), (1, 3)):
            slope = np.cov(draws[:, i], draws[:, j])[0, 1] / np.var(draws[:, j], ddof=1)
            resid = np.var(draws[:, i] - slope * draws[:, j], ddof=1)
            analytic = m[i, i] - m[i, j] ** 2 / m[j, j]
            assert abs(resid - analytic) <= 5 * analytic * se
