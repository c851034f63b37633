"""Bundled reference states and configs, byte-stable across releases.

``fig_matrix_apm.json`` is the published covariance table of a
self-phase-locked OPO below threshold (sigma = 0.9, Omega = 0, plate angle
1.3 degrees) in the +-45 degree basis; ``fig_matrix_a1a2.json`` is the exact
basis change of that table into the signal/idler basis.  The ``_optimized``
variants are the same state after the A- phase shift that aligns the two
squeezing ellipses on orthogonal quadratures.
"""

from __future__ import annotations

from pathlib import Path

from .condprep import CondPrepConfig
from .formats import condprep_config_to_document, dumps_canonical, matrix_to_document
from .gaussian import ModeBasis, make_covariance, vacuum_state

__all__ = ["fixture_document", "fixture_names", "write_fixtures"]


_APM_ENTRIES = [
    [361.0, 0.0, 0.0, 0.0],
    [0.0, 0.00277, 0.0, 0.0],
    [0.0, 0.0, 1.383, -0.256],
    [0.0, 0.0, -0.256, 0.770],
]

# Exact 50/50 basis change of _APM_ENTRIES; the A- tilt -0.256 splits into
# +-0.128 X-P cross terms between the signal and idler modes.
_A1A2_ENTRIES = [
    [181.1915, -0.128, 179.8085, 0.128],
    [-0.128, 0.386385, 0.128, -0.383615],
    [179.8085, 0.128, 181.1915, -0.128],
    [0.128, -0.383615, -0.128, 0.386385],
]

_APM_OPT_ENTRIES = [
    [361.0, 0.0, 0.0, 0.0],
    [0.0, 0.00277, 0.0, 0.0],
    [0.0, 0.0, 0.677, 0.0],
    [0.0, 0.0, 0.0, 1.476],
]

_A1A2_OPT_ENTRIES = [
    [180.8385, 0.0, 180.1615, 0.0],
    [0.0, 0.739385, 0.0, -0.736615],
    [180.1615, 0.0, 180.8385, 0.0],
    [0.0, -0.736615, 0.0, 0.739385],
]

_COUPLED_META = {"sigma": 0.9, "omega": 0.0, "plate_angle_deg": 1.3}

#: name -> (entries, basis, description) of the published state and its images.
_COUPLED_FIXTURES = {
    "fig_matrix_apm.json": (
        _APM_ENTRIES,
        ModeBasis.PLUS_MINUS,
        "self-phase-locked OPO below threshold, +-45 degree modes",
    ),
    "fig_matrix_a1a2.json": (
        _A1A2_ENTRIES,
        ModeBasis.SIGNAL_IDLER,
        "same state as fig_matrix_apm.json, exact change to the signal/idler basis",
    ),
    "fig_matrix_apm_optimized.json": (
        _APM_OPT_ENTRIES,
        ModeBasis.PLUS_MINUS,
        "fig_matrix_apm.json after the A- phase shift aligning the squeezing ellipses",
    ),
    "fig_matrix_a1a2_optimized.json": (
        _A1A2_OPT_ENTRIES,
        ModeBasis.SIGNAL_IDLER,
        "same state as fig_matrix_apm_optimized.json in the signal/idler basis",
    ),
}

#: Reference conditional-preparation run: 20 dB beams with gemellity 0.18,
#: selection band of half-width 0.1 sigma_0 around the mean.
CONDPREP_REFERENCE = CondPrepConfig(
    fano_signal=110.0,
    fano_idler=110.0,
    gemellity=0.18,
    band_halfwidth=0.1,
    n_samples=200_000,
    seed=12345,
)


def _fixture_documents() -> dict[str, dict]:
    docs = {
        name: matrix_to_document(
            make_covariance(entries, basis), {"description": description, **_COUPLED_META}
        )
        for name, (entries, basis, description) in _COUPLED_FIXTURES.items()
    }
    docs["vacuum.json"] = matrix_to_document(
        vacuum_state(), {"description": "two independent vacua"}
    )
    docs["condprep_reference.json"] = condprep_config_to_document(CONDPREP_REFERENCE)
    return docs


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_fixture_documents()))


def fixture_document(name: str) -> dict:
    docs = _fixture_documents()
    if name not in docs:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(sorted(docs))}")
    return docs[name]


def write_fixtures(directory) -> list[Path]:
    """Write every fixture into ``directory``; returns the paths written."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in sorted(_fixture_documents().items()):
        path = base / name
        path.write_text(dumps_canonical(doc), encoding="utf-8")
        paths.append(path)
    return paths
