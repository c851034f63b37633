"""Monte Carlo conditional preparation on continuous variables.

Signal and idler photocurrents are modeled as zero-mean jointly Gaussian
records in units of the shot-noise standard deviation sigma_0.  Selecting
the signal only while the idler falls inside a narrow band yields a
conditioned ensemble whose Fano factor approaches the conditional variance
F (1 - C12^2) as the band shrinks.

Sampling is deterministic: the record is produced in fixed-size blocks,
each seeded independently from (seed, block index), so any parallel chunking
over whole blocks reproduces the sequential record exactly.

``run_conditional_prep`` streams: it bins each block's idler once, keeps
per-band (count, mean, M2) moments and merges them block by block in block
order (Chan, Golub & LeVeque 1979), so it never holds the record and needs
O(BLOCK_SIZE + n_bands) memory.  The bands are half-open: band k holds the
samples with k = floor((I_i - lo) / 2h), that is lo + 2hk <= I_i <
lo + 2h(k+1) up to the rounding of that quotient, where lo = centers[0] - h;
a sample on an edge shared by two bands counts in the upper one only.  An
infinite halfwidth puts every sample in band 0.  ``conditional_select``
keeps its own closed window |I_i - c| <= h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCorrelationError, OutOfRangeError, TooFewSamplesError

__all__ = [
    "BLOCK_SIZE",
    "BandResult",
    "CondPrepConfig",
    "CondPrepResult",
    "band_centers",
    "conditional_select",
    "estimate_fano",
    "run_conditional_prep",
    "sample_block",
    "sample_photocurrents",
]

BLOCK_SIZE = 1 << 14

#: Minimum record length for the statistics operations.
MIN_SAMPLES = 10_000

#: Minimum selected count for a Fano estimate.
MIN_SELECTED = 100


@dataclass(frozen=True)
class CondPrepConfig:
    """Configuration of one conditional-preparation run.

    ``band_halfwidth`` is interpreted per ``band_convention``: the default
    ``"half_width"`` selects I_0 - h <= I_i < I_0 + h with h = band_halfwidth,
    while ``"full_width"`` treats the value as the total width of the window.
    ``band_center`` (single band) and band positions are in sigma_0 units
    offset from the mean.
    """

    fano_signal: float
    fano_idler: float
    gemellity: float
    band_halfwidth: float
    n_samples: int
    seed: int
    band_center: float = 0.0
    n_bands: int = 1
    band_convention: str = "half_width"

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not (0.0 < self.fano_signal < math.inf and 0.0 < self.fano_idler < math.inf):
            raise OutOfRangeError(
                f"Fano factors must be positive and finite, "
                f"got {self.fano_signal}, {self.fano_idler}"
            )
        if not self.gemellity >= 0.0:
            raise OutOfRangeError(f"gemellity must be non-negative, got {self.gemellity}")
        if not self.band_halfwidth > 0.0:
            raise OutOfRangeError(
                f"band halfwidth must be positive, got {self.band_halfwidth}"
            )
        if not math.isfinite(self.band_center):
            raise OutOfRangeError(f"band center must be finite, got {self.band_center}")
        if not self.n_samples >= 1:
            raise OutOfRangeError(f"n_samples must be positive, got {self.n_samples}")
        if not self.n_bands >= 1:
            raise OutOfRangeError(f"n_bands must be positive, got {self.n_bands}")
        if self.band_convention not in ("half_width", "full_width"):
            raise OutOfRangeError(
                f"band_convention must be 'half_width' or 'full_width', "
                f"got {self.band_convention!r}"
            )
        if not abs(self.c12) <= 1.0:
            raise BadCorrelationError(
                f"gemellity {self.gemellity} with Fano factors "
                f"{self.fano_signal}, {self.fano_idler} implies |c12| = {abs(self.c12)} > 1"
            )

    @property
    def c12(self) -> float:
        """Correlation coefficient, 1 - G / sqrt(F_s F_i)."""
        return 1.0 - self.gemellity / math.sqrt(self.fano_signal * self.fano_idler)

    @property
    def selection_halfwidth(self) -> float:
        if self.band_convention == "full_width":
            return self.band_halfwidth / 2.0
        return self.band_halfwidth


def sample_block(cfg: CondPrepConfig, block_index: int, size: int = BLOCK_SIZE):
    """One deterministic block of (I_s, I_i) pairs in sigma_0 units.

    The block RNG depends only on (seed, block_index), never on how blocks
    are distributed over workers.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(block_index,))
    )
    z = rng.standard_normal((size, 2))
    rho = cfg.c12
    i_i = math.sqrt(cfg.fano_idler) * z[:, 0]
    i_s = math.sqrt(cfg.fano_signal) * (rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1])
    return i_s, i_i


def sample_photocurrents(cfg: CondPrepConfig):
    """The full record of cfg.n_samples correlated (I_s, I_i) pairs."""
    n_blocks = (cfg.n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    parts = [sample_block(cfg, b) for b in range(n_blocks)]
    i_s = np.concatenate([p[0] for p in parts])[: cfg.n_samples]
    i_i = np.concatenate([p[1] for p in parts])[: cfg.n_samples]
    return i_s, i_i


def conditional_select(
    i_s: np.ndarray, i_i: np.ndarray, center: float, halfwidth: float
) -> np.ndarray:
    """Signal values recorded while |I_i - center| <= halfwidth.

    An empty selection is a reportable outcome, not an error.
    """
    if not halfwidth > 0.0:
        raise OutOfRangeError(f"selection halfwidth must be positive, got {halfwidth}")
    mask = np.abs(i_i - center) <= halfwidth
    return i_s[mask]


def _fano_from_moments(n: int, m2: float, sigma0: float = 1.0) -> tuple[float, float]:
    """Fano factor M2/(n-1)/sigma_0^2 and its standard error; NaN for n < 2.

    M2 is the sum of squared deviations from the mean, so M2/(n-1) is the
    unbiased variance; the standard error follows from the Gaussian
    fourth-moment expression Var(s^2) = 2 sigma^4 / (n-1).
    """
    if n < 2:
        return math.nan, math.nan
    fano = m2 / (n - 1) / sigma0**2
    return fano, fano * math.sqrt(2.0 / (n - 1))


def estimate_fano(values: np.ndarray, sigma0: float = 1.0) -> tuple[float, float]:
    """Fano factor Var(values)/sigma_0^2 with its asymptotic standard error."""
    n = int(values.size)
    if n < MIN_SELECTED:
        raise TooFewSamplesError(f"need at least {MIN_SELECTED} selected values, got {n}")
    deviations = values - values.mean()
    return _fano_from_moments(n, float(np.dot(deviations, deviations)), sigma0)


def band_centers(cfg: CondPrepConfig) -> np.ndarray:
    """Band centers: the configured one, or a non-overlapping tiling.

    With n_bands > 1 the bands tile [-n h, +n h] around the mean, where h is
    the selection halfwidth.
    """
    if cfg.n_bands == 1:
        return np.array([cfg.band_center])
    h = cfg.selection_halfwidth
    k = np.arange(cfg.n_bands)
    return -cfg.n_bands * h + (2.0 * k + 1.0) * h


@dataclass(frozen=True)
class BandResult:
    center: float
    halfwidth: float
    count: int
    success_rate: float
    fano: float
    fano_stderr: float


@dataclass(frozen=True)
class CondPrepResult:
    """Estimates from one run; multi-band runs list every band (see ``run_conditional_prep``)."""

    fano_conditioned: float
    fano_stderr: float
    success_rate: float
    n_selected: int
    n_samples: int
    empty_selection: bool
    per_band: tuple[BandResult, ...] = field(default=())


def _band_index(i_i: np.ndarray, lo: float, h: float, n_bands: int):
    """(mask, band index) of the idler values that fall in a band.

    Band k is the half-open [lo + 2hk, lo + 2h(k+1)), k = 0 .. n_bands - 1;
    an infinite halfwidth puts every value in band 0.
    """
    if math.isinf(h):
        return np.ones(i_i.size, dtype=bool), np.zeros(i_i.size, dtype=np.intp)
    q = np.floor((i_i - lo) / (2.0 * h))
    mask = (q >= 0.0) & (q < n_bands)
    return mask, q[mask].astype(np.intp)


def _merge_moments(count, mean, m2, bands: np.ndarray, values: np.ndarray) -> None:
    """Fold one block's per-band (count, mean, M2) into the running totals.

    The block's moments come from ``np.bincount`` (counts, sums, then squared
    deviations from the block mean); the pairwise update of Chan, Golub &
    LeVeque (1979) merges them in place.
    """
    n_block = np.bincount(bands, minlength=count.size)
    mean_block = np.bincount(bands, weights=values, minlength=count.size) / np.maximum(n_block, 1)
    deviations = values - mean_block[bands]
    m2_block = np.bincount(bands, weights=deviations * deviations, minlength=count.size)
    total = count + n_block
    delta = mean_block - mean
    share = n_block / np.maximum(total, 1)
    mean += delta * share
    m2 += m2_block + delta * delta * count * share
    count[:] = total


def run_conditional_prep(cfg: CondPrepConfig, sink=None) -> CondPrepResult:
    """Sample, select on the idler band(s) and estimate the conditioned Fano.

    One pass over the blocks, in block order; the full record is never
    built.  ``sink``, when given, is called once per block with the band
    index and the signal value of each selected sample of that block, in
    record order.

    For several bands the headline Fano is the count-weighted mean of the
    per-band estimates (each band prepares its own conditioned ensemble;
    pooling raw values across bands would just recover the full spread).
    Only bands with an estimate (at least 2 samples) take part; with none,
    the headline and its standard error are NaN.
    """
    if cfg.n_samples < MIN_SAMPLES:
        raise OutOfRangeError(
            f"statistics need at least {MIN_SAMPLES} samples, got {cfg.n_samples}"
        )
    h = cfg.selection_halfwidth
    centers = band_centers(cfg)
    lo = float(centers[0]) - h
    count = np.zeros(cfg.n_bands, dtype=np.int64)
    mean = np.zeros(cfg.n_bands)
    m2 = np.zeros(cfg.n_bands)
    for block in range((cfg.n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE):
        i_s, i_i = sample_block(cfg, block)
        stop = cfg.n_samples - block * BLOCK_SIZE
        mask, bands = _band_index(i_i[:stop], lo, h, cfg.n_bands)
        values = i_s[:stop][mask]
        if sink is not None:
            sink(bands, values)
        _merge_moments(count, mean, m2, bands, values)

    per_band = tuple(
        BandResult(float(center), h, n, n / cfg.n_samples, *_fano_from_moments(n, band_m2))
        for center, n, band_m2 in zip(centers, count.tolist(), m2.tolist())
    )
    n_selected = sum(b.count for b in per_band)
    estimated = [b for b in per_band if not math.isnan(b.fano)]
    weight = sum(b.count for b in estimated)
    shares = [(b.count / weight, b) for b in estimated]
    return CondPrepResult(
        fano_conditioned=sum(w * b.fano for w, b in shares) if shares else math.nan,
        fano_stderr=(
            math.sqrt(sum((w * b.fano_stderr) ** 2 for w, b in shares)) if shares else math.nan
        ),
        success_rate=sum(b.success_rate for b in per_band),
        n_selected=n_selected,
        n_samples=cfg.n_samples,
        empty_selection=n_selected == 0,
        per_band=per_band,
    )
