import math
import tracemalloc

import numpy as np
import pytest

import cvopo.condprep
from cvopo.condprep import (
    BLOCK_SIZE,
    CondPrepConfig,
    band_centers,
    conditional_select,
    estimate_fano,
    run_conditional_prep,
    sample_block,
    sample_photocurrents,
)
from cvopo.condprep import _band_index, _fano_from_moments
from cvopo.errors import BadCorrelationError, OutOfRangeError, TooFewSamplesError
from cvopo.fixtures import CONDPREP_REFERENCE


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def make_config(**overrides) -> CondPrepConfig:
    fields = dict(
        fano_signal=110.0,
        fano_idler=110.0,
        gemellity=0.18,
        band_halfwidth=0.1,
        n_samples=200_000,
        seed=12345,
    )
    fields.update(overrides)
    return CondPrepConfig(**fields)


class TestConfig:
    def test_derived_correlation(self):
        cfg = make_config()
        assert cfg.c12 == pytest.approx(1.0 - 0.18 / 110.0, abs=1e-15)

    def test_full_width_convention_halves_the_window(self):
        cfg = make_config(band_convention="full_width")
        assert cfg.selection_halfwidth == pytest.approx(0.05)
        assert make_config().selection_halfwidth == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(fano_signal=0.0),
            dict(fano_idler=-1.0),
            dict(gemellity=-0.1),
            dict(band_halfwidth=0.0),
            dict(n_samples=0),
            dict(n_bands=0),
            dict(band_convention="sideways"),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(OutOfRangeError):
            make_config(**overrides)

    def test_excessive_gemellity_rejected(self):
        # G > 2 sqrt(Fs Fi) would need |c12| > 1
        with pytest.raises(BadCorrelationError):
            make_config(fano_signal=1.0, fano_idler=1.0, gemellity=2.5)


class TestSampling:
    def test_deterministic(self):
        a = sample_photocurrents(make_config())
        b = sample_photocurrents(make_config())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_chunking_invariance(self):
        cfg = make_config(n_samples=3 * BLOCK_SIZE + 123)
        i_s, i_i = sample_photocurrents(cfg)
        # assemble from blocks processed in an arbitrary order
        blocks = {b: sample_block(cfg, b) for b in (3, 0, 2, 1)}
        alt_s = np.concatenate([blocks[b][0] for b in range(4)])[: cfg.n_samples]
        alt_i = np.concatenate([blocks[b][1] for b in range(4)])[: cfg.n_samples]
        assert np.array_equal(i_s, alt_s) and np.array_equal(i_i, alt_i)

    def test_uncorrelated_configuration(self):
        # gemellity sqrt(Fs Fi) makes c12 exactly zero
        cfg = make_config(gemellity=110.0)
        assert cfg.c12 == 0.0
        i_s, i_i = sample_photocurrents(cfg)
        corr = np.corrcoef(i_s, i_i)[0, 1]
        assert abs(corr) <= 5.0 / math.sqrt(cfg.n_samples)

    def test_empirical_gemellity(self):
        cfg = make_config()
        i_s, i_i = sample_photocurrents(cfg)
        g_emp = 0.5 * np.var(i_s - i_i, ddof=1)
        se = cfg.gemellity * math.sqrt(2.0 / (cfg.n_samples - 1))
        assert abs(g_emp - cfg.gemellity) <= 5 * se

    def test_marginal_variances(self):
        cfg = make_config(fano_signal=50.0, fano_idler=80.0, gemellity=1.0)
        i_s, i_i = sample_photocurrents(cfg)
        se = math.sqrt(2.0 / (cfg.n_samples - 1))
        assert abs(np.var(i_s, ddof=1) - 50.0) <= 5 * 50.0 * se
        assert abs(np.var(i_i, ddof=1) - 80.0) <= 5 * 80.0 * se

    def test_acquisition_size_runs(self):
        i_s, i_i = sample_photocurrents(make_config(n_samples=200_000))
        assert i_s.size == i_i.size == 200_000


class TestSelection:
    def test_infinite_band_keeps_everything(self):
        cfg = make_config()
        i_s, i_i = sample_photocurrents(cfg)
        kept = conditional_select(i_s, i_i, 0.0, math.inf)
        assert kept.size == cfg.n_samples
        fano, stderr = estimate_fano(kept)
        assert abs(fano - cfg.fano_signal) <= 5 * cfg.fano_signal * math.sqrt(
            2.0 / cfg.n_samples
        )

    def test_reference_band_success_rate(self):
        cfg = make_config()
        i_s, i_i = sample_photocurrents(cfg)
        kept = conditional_select(i_s, i_i, 0.0, cfg.selection_halfwidth)
        std = math.sqrt(cfg.fano_idler)
        p = 2.0 * normal_cdf(0.1 / std) - 1.0
        se = math.sqrt(p * (1.0 - p) / cfg.n_samples)
        assert abs(kept.size / cfg.n_samples - p) <= 5 * se

    def test_offset_band_matches_tail_mass(self):
        cfg = make_config(
            fano_signal=4.0,
            fano_idler=4.0,
            gemellity=0.3,
            band_halfwidth=0.5,
            band_center=6.0,  # 3 sigma off the mean
            n_samples=1_000_000,
            seed=3,
        )
        result = run_conditional_prep(cfg)
        std = 2.0
        p = normal_cdf((6.0 + 0.5) / std) - normal_cdf((6.0 - 0.5) / std)
        se = math.sqrt(p * (1.0 - p) / cfg.n_samples)
        assert abs(result.success_rate - p) <= 5 * se

    def test_empty_selection_reported(self):
        cfg = make_config(band_center=1e6, n_samples=20_000)
        result = run_conditional_prep(cfg)
        assert result.empty_selection
        assert result.success_rate == 0.0
        assert result.n_selected == 0

    def test_zero_width_rejected(self):
        with pytest.raises(OutOfRangeError):
            conditional_select(np.zeros(4), np.zeros(4), 0.0, 0.0)


class TestFanoEstimate:
    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            estimate_fano(np.zeros(99))

    def test_stderr_formula(self):
        values = np.random.default_rng(0).standard_normal(1000)
        fano, stderr = estimate_fano(values)
        assert stderr == pytest.approx(fano * math.sqrt(2.0 / 999), rel=1e-12)

    def test_sigma0_scaling(self):
        values = np.random.default_rng(1).standard_normal(500) * 3.0
        fano_unit, _ = estimate_fano(values, sigma0=1.0)
        fano_scaled, _ = estimate_fano(values, sigma0=3.0)
        assert fano_scaled == pytest.approx(fano_unit / 9.0, rel=1e-12)

    def test_matches_unbiased_variance(self):
        values = np.random.default_rng(2).standard_normal(1000) * 2.0 + 40.0
        fano, _ = estimate_fano(values)
        assert fano == pytest.approx(float(np.var(values, ddof=1)), rel=1e-12)

    def test_fewer_than_two_values_give_nan(self):
        assert all(math.isnan(v) for v in _fano_from_moments(0, 0.0))
        assert all(math.isnan(v) for v in _fano_from_moments(1, 0.0))


class TestRun:
    def test_reference_run(self):
        result = run_conditional_prep(CONDPREP_REFERENCE)
        v = CONDPREP_REFERENCE.fano_signal * (1.0 - CONDPREP_REFERENCE.c12**2)
        broadened = v + CONDPREP_REFERENCE.c12**2 * 0.1**2 / 3.0
        assert abs(result.fano_conditioned - broadened) <= 5 * result.fano_stderr
        assert result.fano_conditioned < 1.0

    def test_sub_poissonian_with_99_percent_confidence(self):
        result = run_conditional_prep(CONDPREP_REFERENCE)
        assert result.fano_conditioned + 2.576 * result.fano_stderr < 1.0

    def test_large_noise_limit_is_twice_the_gemellity(self):
        v = 2 * 0.18 - 0.18**2 / 110.0
        assert v == pytest.approx(2 * 0.18, abs=3e-4)
        result = run_conditional_prep(CONDPREP_REFERENCE)
        assert result.fano_conditioned == pytest.approx(0.36, abs=0.05)

    def test_uncorrelated_conditioning_does_nothing(self):
        cfg = make_config(gemellity=110.0, band_halfwidth=1.0, n_samples=100_000)
        result = run_conditional_prep(cfg)
        se = result.fano_stderr
        assert abs(result.fano_conditioned - cfg.fano_signal) <= 5 * se

    def test_window_bias_is_quadratic(self):
        # fano(dI) = V + c12^2 dI^2 / 3 + O(dI^4) for a central band
        rho = 1.0 - 0.18 / 100.0
        v = 100.0 * (1.0 - rho**2)
        for halfwidth in (0.25, 0.5, 1.0):
            cfg = make_config(
                fano_signal=100.0,
                fano_idler=100.0,
                band_halfwidth=halfwidth,
                n_samples=1_000_000,
                seed=7,
            )
            result = run_conditional_prep(cfg)
            model = v + rho**2 * halfwidth**2 / 3.0
            assert abs(result.fano_conditioned - model) <= 5 * result.fano_stderr

    def test_statistics_need_enough_samples(self):
        with pytest.raises(OutOfRangeError):
            run_conditional_prep(make_config(n_samples=5_000))

    def test_headline_averages_the_estimated_bands_only(self, monkeypatch):
        # bands [-1.5, -0.5), [-0.5, 0.5), [0.5, 1.5): one sample, 5 samples, 7 samples
        cfg = make_config(n_bands=3, band_halfwidth=0.5, n_samples=BLOCK_SIZE)
        idler = np.full(BLOCK_SIZE, 10.0)
        idler[:13] = [-1.0] + [0.0] * 5 + [1.0] * 7
        signal = np.arange(BLOCK_SIZE, dtype=float) ** 2

        def sparse_block(cfg, block_index, size=BLOCK_SIZE):
            return signal, idler

        monkeypatch.setattr(cvopo.condprep, "sample_block", sparse_block)
        result = run_conditional_prep(cfg)
        lone, middle, upper = result.per_band
        assert [b.count for b in result.per_band] == [1, 5, 7]
        assert math.isnan(lone.fano)
        assert middle.fano == pytest.approx(np.var(signal[1:6], ddof=1), rel=1e-12)
        assert upper.fano == pytest.approx(np.var(signal[6:13], ddof=1), rel=1e-12)
        assert result.n_selected == 13
        assert not result.empty_selection
        assert result.fano_conditioned == pytest.approx(
            (5 * middle.fano + 7 * upper.fano) / 12, rel=1e-12
        )
        assert result.fano_stderr == pytest.approx(
            math.hypot(5 * middle.fano_stderr, 7 * upper.fano_stderr) / 12, rel=1e-12
        )

    def test_no_estimated_band_gives_nan(self):
        # a single sample falls in this narrow band: no estimate, not a Fano factor of 0
        result = run_conditional_prep(
            make_config(n_samples=20_000, band_halfwidth=1e-4, seed=14)
        )
        assert result.n_selected == 1
        assert not result.empty_selection
        assert math.isnan(result.fano_conditioned)
        assert math.isnan(result.fano_stderr)


class TestMultiBand:
    def test_band_centers_tile_without_overlap(self):
        cfg = make_config(n_bands=8, band_halfwidth=0.25)
        centers = band_centers(cfg)
        assert centers.size == 8
        assert centers[0] == pytest.approx(-8 * 0.25 + 0.25)
        assert centers[-1] == pytest.approx(8 * 0.25 - 0.25)
        gaps = np.diff(centers)
        assert np.allclose(gaps, 2 * 0.25)

    def test_single_infinite_band(self):
        cfg = make_config(band_halfwidth=math.inf, n_samples=50_000)
        result = run_conditional_prep(cfg)
        assert result.success_rate == 1.0
        assert result.fano_conditioned == pytest.approx(
            cfg.fano_signal, rel=5 * math.sqrt(2.0 / cfg.n_samples)
        )

    def test_overall_rate_is_sum_of_band_rates(self):
        cfg = make_config(n_bands=20, n_samples=100_000)
        result = run_conditional_prep(cfg)
        assert result.success_rate == pytest.approx(
            sum(b.success_rate for b in result.per_band), abs=1e-15
        )

    def test_coverage_matches_normal_mass(self):
        cfg = make_config(n_bands=20, band_halfwidth=0.5, n_samples=200_000)
        result = run_conditional_prep(cfg)
        span = 20 * 0.5
        p = 2.0 * normal_cdf(span / math.sqrt(cfg.fano_idler)) - 1.0
        se = math.sqrt(p * (1.0 - p) / cfg.n_samples)
        assert abs(result.success_rate - p) <= 5 * se

    def test_bands_are_homoscedastic(self):
        cfg = make_config(
            fano_signal=100.0,
            fano_idler=100.0,
            band_halfwidth=0.25,
            n_bands=10,
            n_samples=400_000,
            seed=11,
        )
        result = run_conditional_prep(cfg)
        fanos = [b.fano for b in result.per_band]
        assert all(b.count >= 100 for b in result.per_band)
        assert max(fanos) - min(fanos) <= 0.08


class TestStreaming:
    """The single-pass run against full-record masks on sample_photocurrents."""

    def test_matches_mask_reference(self):
        cfg = make_config(n_samples=3 * BLOCK_SIZE + 123, n_bands=20, band_halfwidth=0.5)
        rows = []
        result = run_conditional_prep(cfg, lambda bands, values: rows.append((bands, values)))
        i_s, i_i = sample_photocurrents(cfg)
        h = cfg.selection_halfwidth
        edges = band_centers(cfg)[0] - h + 2.0 * h * np.arange(cfg.n_bands + 1)
        # no sample near an edge, so the closed and half-open rules agree
        assert np.min(np.abs(i_i[:, None] - edges[None, :])) > 1e-9
        dumped_bands = np.concatenate([b for b, _ in rows])
        dumped_values = np.concatenate([v for _, v in rows])
        for index, band in enumerate(result.per_band):
            reference = conditional_select(i_s, i_i, band.center, h)
            assert band.count == reference.size
            assert np.array_equal(dumped_values[dumped_bands == index], reference)
            assert band.fano == pytest.approx(np.var(reference, ddof=1), rel=1e-12)
        assert result.n_selected == dumped_values.size

    def test_does_not_build_the_record(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("the streaming run must not build the full record")

        monkeypatch.setattr(cvopo.condprep, "sample_photocurrents", refuse)
        result = run_conditional_prep(make_config(n_bands=10, band_halfwidth=1.0))
        assert result.n_selected > 0

    def test_memory_stays_per_block(self):
        cfg = make_config(n_samples=2_000_000, n_bands=100)
        record_bytes = 2 * 8 * cfg.n_samples  # 32 MB for (I_s, I_i)
        tracemalloc.start()
        try:
            run_conditional_prep(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < record_bytes / 8

    def test_sparse_bands_keep_nan_fano(self):
        cfg = make_config(fano_signal=1.0, fano_idler=1.0, gemellity=0.1, n_bands=40,
                          band_halfwidth=0.5, n_samples=20_000)
        result = run_conditional_prep(cfg)
        sparse = [b for b in result.per_band if b.count < 2]
        assert sparse and all(math.isnan(b.fano) and math.isnan(b.fano_stderr) for b in sparse)
        assert math.isfinite(result.fano_conditioned)


class TestBandEdges:
    """Bands are half-open, [lo + 2hk, lo + 2h(k+1))."""

    def test_band_index_of_exact_edges(self):
        lo, h, n_bands = -2.0, 0.25, 8
        edges = lo + 2.0 * h * np.arange(n_bands + 1)
        mask, bands = _band_index(edges, lo, h, n_bands)
        assert np.array_equal(mask, [True] * n_bands + [False])
        assert np.array_equal(bands, np.arange(n_bands))
        below = edges - 1e-9
        mask, bands = _band_index(below, lo, h, n_bands)
        assert np.array_equal(mask, [False] + [True] * n_bands)
        assert np.array_equal(bands, np.arange(n_bands))

    def test_edge_samples_count_once(self, monkeypatch):
        cfg = make_config(n_bands=8, band_halfwidth=0.25, n_samples=BLOCK_SIZE)
        edges = -2.0 + 0.5 * np.arange(9)
        assert band_centers(cfg)[0] - 0.25 == edges[0]
        idler = np.resize(edges, BLOCK_SIZE)

        def edge_block(cfg, block_index, size=BLOCK_SIZE):
            return np.arange(size, dtype=float), idler

        monkeypatch.setattr(cvopo.condprep, "sample_block", edge_block)
        result = run_conditional_prep(cfg)
        per_edge = [int(np.count_nonzero(idler == e)) for e in edges]
        assert [b.count for b in result.per_band] == per_edge[:-1]
        assert result.n_selected == BLOCK_SIZE - per_edge[-1]
