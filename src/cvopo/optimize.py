"""Entanglement extraction by passive polarization operations.

The tool here is the "non-local" phase shift: a quadrature rotation of the
A- superposition mode relative to A+.  For states whose +-45 degree form has
uncorrelated modes and a diagonal A+ block, the right phase aligns the two
squeezing ellipses on orthogonal quadratures and attains the passive bound
on the log negativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import _negativity, _seralian, max_log_negativity
from .gaussian import (
    CovarianceMatrix,
    ModeBasis,
    PassiveTransform,
    apply_passive,
    change_basis_pm,
    composite,
    half_wave,
    phase_shift,
    quarter_wave,
    to_basis,
)

__all__ = [
    "OptimizationOutcome",
    "apply_waveplate_sequence",
    "diagonalizing_phase",
    "optimize_nonlocal_phase",
]

#: Rotating A- by pi swaps the signal and idler modes, which leaves the log
#: negativity unchanged, so E_N(phi) is pi-periodic.
_PERIOD = math.pi

#: Phases at which D(phi) is sampled to fix its three Fourier coefficients.
_PROBES = (0.0, math.pi / 4.0, math.pi / 2.0)


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of a phase-shift optimization.

    ``trace`` records every (phi, E_N) evaluation in order: the three probe
    phases, then the D optimum phi*.  The transformed state is returned in
    both mode bases.
    """

    best_phase: float
    e_n_before: float
    e_n_after: float
    e_n_max: float
    transform: PassiveTransform
    trace: tuple[tuple[float, float], ...]
    state_plus_minus: CovarianceMatrix
    state_signal_idler: CovarianceMatrix


def optimize_nonlocal_phase(gamma: CovarianceMatrix) -> OptimizationOutcome:
    """Maximize E_N over a phase shift of A- relative to A+, in closed form.

    The shift leaves det G unchanged, and xi^2 = 2 det G / (D + sqrt(D^2 -
    4 det G)) falls strictly as the seralian D grows, so the E_N optimum is
    the D optimum.  D(phi) = a + b cos 2phi + c sin 2phi: probes at 0, pi/4
    and pi/2 give b and c, and the maximum sits at phi* = atan2(c, b)/2
    mod pi.  When phi* gains no more than 1e-9 in E_N over phi = 0 (flat D,
    or a state separable at every phase) the result is phi = 0.
    """
    pm = to_basis(gamma, ModeBasis.PLUS_MINUS)
    trace: list[tuple[float, float]] = []

    def evaluate(phi: float) -> tuple[float, CovarianceMatrix]:
        shifted = apply_passive(pm, phase_shift(1, phi))
        d, det = _seralian(shifted)
        trace.append((phi, _negativity(d, det)[0]))
        return d, shifted

    (d0, at_zero), (d1, _), (d2, _) = [evaluate(phi) for phi in _PROBES]
    best_phase = 0.5 * math.atan2(d1 - (d0 + d2) / 2.0, (d0 - d2) / 2.0) % _PERIOD
    after_pm = evaluate(best_phase)[1]
    e_n_before, e_n_after = trace[0][1], trace[-1][1]
    if e_n_after <= e_n_before + 1e-9:
        best_phase, e_n_after, after_pm = 0.0, e_n_before, at_zero

    return OptimizationOutcome(
        best_phase=best_phase,
        e_n_before=e_n_before,
        e_n_after=e_n_after,
        e_n_max=max_log_negativity(pm),
        transform=phase_shift(1, best_phase),
        trace=tuple(trace),
        state_plus_minus=after_pm,
        state_signal_idler=change_basis_pm(after_pm),
    )


def diagonalizing_phase(gamma: CovarianceMatrix, atol: float = 1e-9) -> float:
    """Phase shift of A- that diagonalizes its block, squeezed variance first.

    Requires a +-45 degree basis matrix whose A+ block is already diagonal.
    Returns 0 for an already-diagonal A- block.
    """
    if gamma.basis is not ModeBasis.PLUS_MINUS:
        raise ValueError("diagonalizing_phase expects a plus/minus basis matrix")
    scale = max(1.0, float(np.abs(gamma.entries).max()))
    if abs(gamma.block_a[0, 1]) > atol * scale:
        raise ValueError("A+ block must be diagonal")
    block = gamma.block_b
    if abs(block[0, 1]) <= atol * scale:
        return 0.0
    w, vecs = np.linalg.eigh(block)
    u = vecs[:, 0]  # eigenvector of the squeezed (smallest) variance
    return float(math.atan2(u[1], u[0]) % _PERIOD)


def apply_waveplate_sequence(
    gamma: CovarianceMatrix, alpha_half: float, alpha_quarter: float
) -> CovarianceMatrix:
    """One half-wave then one quarter-wave plate on the physical beam.

    The plates act on the signal/idler polarization modes; the result is
    returned in the input's basis.  Both plates are orthogonal symplectics,
    so the determinant, the symplectic spectrum and the passive bound
    E_N^max are all preserved.
    """
    si = to_basis(gamma, ModeBasis.SIGNAL_IDLER)
    out = apply_passive(si, composite([half_wave(alpha_half), quarter_wave(alpha_quarter)]))
    return to_basis(out, gamma.basis)
