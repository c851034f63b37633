"""Seeded input generation for the four benchmark workloads.

Every function here is a pure function of (workload, seed, smoke): the same
arguments give byte-identical request lists and matrix documents.  Nothing
here imports the package under test; matrix documents are built from the
model formulas stated in the package documentation, so a change to the
package cannot change the benchmark's inputs.

A workload is a *pool* of distinct requests that the closed-loop client
cycles through in order; the pool is small enough that every request is
sent several times in a run (the timing metrics take each request's
fastest repetition) and the oracle evaluates each distinct request once.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "analyze", "condprep_bands", "condprep_stream")

#: The sweep pool ends with this many near-threshold, near-lossless probes of
#: the ideal state (sigma in [0.95, 0.999], eta in [0.95, 1]), where the seed
#: code is known to lose xi to cancellation or to raise NumericalFailureError.
#: The client sends each probe once, outside the timed loop, and its verdict
#: is reported on its own (sweep.probe_failed_frac and the sigma-bin
#: histogram) rather than as a failed operation, so a run's failure count does
#: not depend on how many requests fit in --seconds.  Half of the other
#: requests use --coupled.
SWEEP_PROBES = 3
SWEEP_GRID = 10  # sigma values x omega values per request

#: Pools are small so that each request is sent k ~ 50-130 times in a 40 s
#: run: the timing metrics take each request's fastest repetition, and on a
#: shared host the fastest of a few repetitions still varies by ~20%.
SIZES = {
    # name: (pool size, smoke pool size)
    "sweep": (16, 6),  # regular requests, plus SWEEP_PROBES
    "analyze": (2, 1),  # generated coupled-family states (x2 bases) and scrambled states
    "condprep_bands": (4, 2),
    "condprep_stream": (2, 2),
}

#: condprep_bands keeps the idler record (1.6 MB) near the 2 MB per-core L2
#: cache and its requests short (~0.1 s); with 2e6 samples (~1 s a request)
#: the memory-bound masking made run medians spread by up to 28% on a shared
#: host.  condprep_stream's requests (~0.3 s) still repeat ~60 times in a
#: run; its 5e6-sample record arrays (40 MB each) stay above glibc's largest
#: mmap threshold (32 MB), so they are always returned to the system when
#: freed and peak RSS does not depend on heap fragmentation (with 4e6
#: samples it read 159 MB on most seeds and 189 MB on one).
CONDPREP_SAMPLES = {"condprep_bands": (200_000, 50_000), "condprep_stream": (5_000_000, 400_000)}
CONDPREP_BANDS = {"condprep_bands": (100, 10), "condprep_stream": (1, 1)}
CONDPREP_HALFWIDTH = 0.1

#: Fixtures written by ``cvopo fixtures --write`` that hold matrix documents.
FIXTURE_MATRICES = (
    "fig_matrix_a1a2.json",
    "fig_matrix_a1a2_optimized.json",
    "fig_matrix_apm.json",
    "fig_matrix_apm_optimized.json",
    "vacuum.json",
)

MATRIX_SCHEMA = "cvopo.matrix.v1"
ORDERING = "X_A,P_A,X_B,P_B"

_SQ2 = 1.0 / math.sqrt(2.0)
#: 50/50 map between the signal/idler and +-45 degree bases (an involution).
S_PM = np.array(
    [
        [_SQ2, 0.0, _SQ2, 0.0],
        [0.0, _SQ2, 0.0, _SQ2],
        [_SQ2, 0.0, -_SQ2, 0.0],
        [0.0, _SQ2, 0.0, -_SQ2],
    ]
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _num(x: float, digits: int = 6) -> str:
    """A short decimal string; the oracle parses the same string back."""
    return repr(round(float(x), digits))


def generate(workload: str, seed: int, workdir: Path, smoke: bool = False) -> dict:
    """Write the workload's input files under ``workdir`` and return its spec.

    The spec is JSON-serialisable: ``{"workload", "seed", "requests"}``; each
    request carries the argv (or document) the client sends plus the
    parameters the oracle needs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    pool = SIZES[workload][1 if smoke else 0]
    if workload == "sweep":
        requests = _sweep_requests(rng, pool)
    elif workload == "analyze":
        requests = _analyze_requests(rng, pool, Path(workdir))
    else:
        requests = _condprep_requests(rng, workload, pool, smoke)
    return {"workload": workload, "seed": seed, "smoke": smoke, "requests": requests}


# -- sweep ---------------------------------------------------------------------


def _sweep_requests(rng: random.Random, pool: int) -> list[dict]:
    requests = []
    for i in range(pool + SWEEP_PROBES):
        probe = i >= pool
        if probe:
            # ideal states: the coupled family's A- block keeps xi away from
            # the cancellation until much closer to threshold
            coupled = False
            sigma = (_num(rng.uniform(0.95, 0.97)), _num(rng.uniform(0.99, 0.999)))
            omega = ("0.0", _num(rng.uniform(0.0, 0.1)))
            # every other probe is lossless: xi is 20% wrong at sigma = 0.98
            # and NumericalFailureError (exit 3) follows from sigma ~ 0.985
            lossless = (i - pool) % 2 == 0
            eta = "1.0" if lossless else _num(rng.uniform(0.95, 0.99))
        else:
            coupled = i % 2 == 0
            sigma = (_num(rng.uniform(0.0, 0.4)), _num(rng.uniform(0.6, 0.9)))
            omega = ("0.0", _num(rng.uniform(0.5, 3.0)))
            eta = _num(rng.uniform(0.5, 1.0))
        argv = [
            "opo-sweep",
            "--sigma", f"{sigma[0]}:{sigma[1]}:{SWEEP_GRID}",
            "--omega", f"{omega[0]}:{omega[1]}:{SWEEP_GRID}",
            "--eta", eta,
        ]  # fmt: skip
        coupled_params = None
        if coupled:
            v1 = rng.uniform(0.2, 1.0)
            coupled_params = [
                _num(rng.uniform(0.0, math.pi)),
                _num(v1),
                _num((1.0 + rng.uniform(0.0, 3.0)) / v1),
            ]
            argv += ["--coupled", ",".join(coupled_params)]
        requests.append(
            {
                "argv": argv,
                "probe": probe,
                "sigma": [float(sigma[0]), float(sigma[1]), SWEEP_GRID],
                "omega": [float(omega[0]), float(omega[1]), SWEEP_GRID],
                "eta": float(eta),
                "coupled": None if coupled_params is None else [float(v) for v in coupled_params],
            }
        )
    return requests


def grid(spec) -> list[float]:
    """The inclusive START:STOP:COUNT grid a sweep request asks for."""
    lo, hi, n = spec
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


# -- analyze -------------------------------------------------------------------


def coupled_entries_pm(sigma, omega, eta, theta, v1, v2) -> np.ndarray:
    """Lossy coupled-family state in the +-45 degree basis (README model).

    A+ = diag(V_anti, V_sq), A- = R(-theta) diag(v1, v2) R(-theta)^T, no
    correlation between them, then eta*G + (1 - eta)*I on every mode.
    """
    lo = (1.0 - sigma) ** 2 + omega**2
    hi = (1.0 + sigma) ** 2 + omega**2
    v_sq, v_anti = lo / hi, hi / lo
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    block = r @ np.diag([v1, v2]) @ r.T
    g = np.zeros((4, 4))
    g[:2, :2] = np.diag([v_anti, v_sq])
    g[2:, 2:] = (block + block.T) / 2.0
    return eta * g + (1.0 - eta) * np.eye(4)


def to_other_basis(entries: np.ndarray) -> np.ndarray:
    out = S_PM @ entries @ S_PM.T
    return (out + out.T) / 2.0


def waveplate_scramble(entries_si: np.ndarray, alpha_half: float, alpha_quarter: float):
    """Half-wave then quarter-wave plate on the signal/idler modes.

    The same map as ``cvopo.optimize.apply_waveplate_sequence`` (re-derived
    here so the inputs do not depend on the code under test; the self-check
    compares the two).
    """

    def rot(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]], dtype=float)

    def phase_b(a):
        m = np.eye(4)
        c, s = math.cos(a), math.sin(a)
        m[2:, 2:] = [[c, s], [-s, c]]
        return m

    hwp = rot(2.0 * alpha_half) @ phase_b(math.pi)
    qwp = rot(alpha_quarter) @ phase_b(math.pi / 2.0) @ rot(alpha_quarter).T
    s = qwp @ hwp
    out = s @ entries_si @ s.T
    return (out + out.T) / 2.0


def _matrix_text(entries, basis: str, metadata: dict) -> str:
    doc = {
        "schema_version": MATRIX_SCHEMA,
        "basis": basis,
        "ordering": ORDERING,
        "entries": [[float(v) for v in row] for row in np.asarray(entries)],
        "metadata": metadata,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _analyze_requests(rng: random.Random, count: int, workdir: Path) -> list[dict]:
    docs = workdir / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    requests = [
        {"doc": f"fixtures/{name}", "family": "fixture", "expect": [0]}
        for name in FIXTURE_MATRICES
    ]

    def state():
        v1 = rng.uniform(0.2, 1.0)
        params = {
            "sigma": rng.uniform(0.5, 0.9),
            "omega": rng.uniform(0.0, 1.0),
            "eta": rng.uniform(0.6, 0.98),
            "theta": rng.uniform(0.0, math.pi),
            "v1": v1,
            "v2": (1.0 + rng.uniform(0.0, 3.0)) / v1,
        }
        return params, coupled_entries_pm(**params)

    for k in range(count):
        params, pm = state()
        for basis, entries in (("plus_minus", pm), ("signal_idler", to_other_basis(pm))):
            name = f"docs/coupled_{basis}_{k:02d}.json"
            (workdir / name).write_text(_matrix_text(entries, basis, params), encoding="utf-8")
            requests.append({"doc": name, "family": "coupled", "expect": [0]})

    for k in range(count):
        _, pm = state()
        angles = {"alpha_half": rng.uniform(0.0, math.pi), "alpha_quarter": rng.uniform(0.0, math.pi)}
        si = waveplate_scramble(to_other_basis(pm), **angles)
        basis = rng.choice(("signal_idler", "plus_minus"))
        entries = si if basis == "signal_idler" else to_other_basis(si)
        name = f"docs/scrambled_{k:02d}.json"
        (workdir / name).write_text(_matrix_text(entries, basis, angles), encoding="utf-8")
        requests.append({"doc": name, "family": "scrambled", "expect": [0]})

    # deliberately invalid documents: each must get its documented exit code
    _, pm = state()
    text = _matrix_text(pm, "plus_minus", {})
    bad = {
        "malformed": (text[: rng.randint(10, len(text) - 10)], [2]),
        "bad_shape": (_matrix_text(pm[:3], "plus_minus", {}), [2]),
        "asymmetric": (_asymmetric_text(pm, rng), [2, 3]),
        "unphysical": (_matrix_text(0.3 * pm, "plus_minus", {}), [3]),
    }
    for kind, (body, expect) in bad.items():
        name = f"docs/bad_{kind}.json"
        (workdir / name).write_text(body, encoding="utf-8")
        requests.append({"doc": name, "family": "bad", "expect": expect})

    rng.shuffle(requests)
    return requests


def _asymmetric_text(pm: np.ndarray, rng: random.Random) -> str:
    entries = np.array(pm)
    i, j = rng.choice(((0, 2), (1, 3), (2, 3), (0, 1)))
    entries[i, j] += 1e-3 * float(np.abs(pm).max())
    return _matrix_text(entries, "plus_minus", {})


# -- condprep ------------------------------------------------------------------


def _condprep_requests(rng: random.Random, workload: str, count: int, smoke: bool) -> list[dict]:
    n_samples = CONDPREP_SAMPLES[workload][1 if smoke else 0]
    n_bands = CONDPREP_BANDS[workload][1 if smoke else 0]
    requests = []
    for _ in range(count):
        cfg = {
            "fano_signal": float(_num(rng.uniform(90.0, 130.0))),
            "fano_idler": float(_num(rng.uniform(90.0, 130.0))),
            "gemellity": float(_num(rng.uniform(0.12, 0.25))),
            "band_center": float(_num(rng.uniform(-1.0, 1.0))) if n_bands == 1 else 0.0,
            "band_halfwidth": CONDPREP_HALFWIDTH,
            "band_convention": "half_width",
            "n_bands": n_bands,
            "n_samples": n_samples,
            "seed": rng.randrange(2**31),
        }
        argv = [
            "condprep",
            "--fano-signal", repr(cfg["fano_signal"]),
            "--fano-idler", repr(cfg["fano_idler"]),
            "--gemellity", repr(cfg["gemellity"]),
            "--band-center", repr(cfg["band_center"]),
            "--band-halfwidth", repr(cfg["band_halfwidth"]),
            "--samples", str(n_samples),
            "--bands", str(n_bands),
            "--seed", str(cfg["seed"]),
        ]  # fmt: skip
        requests.append({"argv": argv, "cfg": cfg})
    return requests
