"""Covariance matrices emitted by a type-II OPO below threshold.

The ideal model is anchored to the reference operating point sigma = 0.9,
Omega = 0, where the antisqueezed and squeezed variances are 361 and 0.00277:

    V_sq(sigma, Omega)   = 1 - 4 sigma / ((1 + sigma)^2 + Omega^2)
    V_anti(sigma, Omega) = 1 + 4 sigma / ((1 - sigma)^2 + Omega^2)

The product V_sq * V_anti is identically 1, so the ideal state is pure at
every analysis frequency.  sigma is the pump amplitude normalized to
threshold and Omega the noise frequency in cavity-bandwidth units (the
mapping to absolute frequency is left to document metadata).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRangeError, UnphysicalBlockError
from .gaussian import (
    PHYSICALITY_TOL,
    CovarianceMatrix,
    LossModel,
    ModeBasis,
    add_losses,
    make_covariance,
)

__all__ = [
    "CoupledStateParams",
    "OpoParams",
    "below_threshold_covariance",
    "below_threshold_variances",
    "coupled_covariance",
    "twin_difference_spectrum",
]


@dataclass(frozen=True)
class OpoParams:
    """Below-threshold operating point with an overall detection efficiency."""

    sigma: float
    omega: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise OutOfRangeError(f"sigma must lie in [0, 1), got {self.sigma}")
        if not 0.0 <= self.omega < math.inf:
            raise OutOfRangeError(f"omega must be non-negative and finite, got {self.omega}")
        if not 0.0 <= self.eta <= 1.0:
            raise OutOfRangeError(f"eta must lie in [0, 1], got {self.eta}")


def below_threshold_variances(sigma: float, omega: float = 0.0) -> tuple[float, float]:
    """(V_sq, V_anti) of the ideal below-threshold OPO.

    Evaluated in the equivalent ratio form, which stays accurate near
    threshold where 1 - 4 sigma / ((1+sigma)^2 + omega^2) cancels badly:
    (1+sigma)^2 - 4 sigma = (1-sigma)^2.
    """
    lo = (1.0 - sigma) ** 2 + omega**2
    hi = (1.0 + sigma) ** 2 + omega**2
    return lo / hi, hi / lo


def below_threshold_covariance(params: OpoParams) -> CovarianceMatrix:
    """Uncoupled OPO output in the +-45 degree basis.

    A+ is squeezed on P and antisqueezed on X, A- the other way around, with
    no correlation between them; detection losses are applied last.
    """
    v_sq, v_anti = below_threshold_variances(params.sigma, params.omega)
    entries = np.diag([v_anti, v_sq, v_sq, v_anti])
    gamma = make_covariance(entries, ModeBasis.PLUS_MINUS)
    if params.eta < 1.0:
        gamma = add_losses(gamma, LossModel(eta_a=params.eta, eta_b=params.eta))
    return gamma


@dataclass(frozen=True)
class CoupledStateParams:
    """Self-phase-locked OPO family: the A- squeezing ellipse is tilted.

    ``tilt_theta`` is the phase-shift angle that re-diagonalizes the A-
    block (squeezed variance first); ``v_minus`` holds the A- principal
    variances (v1, v2) with v1 <= v2 and v1*v2 >= 1.  The dependence of
    these parameters on the intracavity plate angle is not modeled; states
    are parametrized directly or loaded from fixture files.
    """

    base: OpoParams
    tilt_theta: float
    v_minus: tuple[float, float] = field(default=(1.0, 1.0))

    def __post_init__(self):
        # every check is written so that NaN fails it
        v1, v2 = self.v_minus
        if not v1 <= v2:
            raise OutOfRangeError(f"v_minus must be ordered v1 <= v2, got {self.v_minus}")
        if not (0.0 < v1 and v2 < math.inf):
            raise OutOfRangeError(
                f"principal variances must be positive and finite, got {self.v_minus}"
            )
        if not math.isfinite(self.tilt_theta):
            raise OutOfRangeError(f"tilt_theta must be finite, got {self.tilt_theta}")
        # same slack as the physicality gate: published variances are rounded
        # to three figures and undershoot v1*v2 = 1 by up to a few 1e-4
        if not v1 * v2 >= 1.0 - PHYSICALITY_TOL:
            raise UnphysicalBlockError(
                f"A- block violates the uncertainty bound: v1*v2 = {v1 * v2}"
            )


def coupled_covariance(params: CoupledStateParams) -> CovarianceMatrix:
    """Coupled-OPO output in the +-45 degree basis.

    The A+ block is the uncoupled one; the A- block is the tilted ellipse
    R(-theta) diag(v1, v2) R(-theta)^T, so a phase shift of A- by
    ``tilt_theta`` (see ``cvopo.optimize.diagonalizing_phase``) restores the
    diagonal form.  The two modes stay uncorrelated.
    """
    v_sq, v_anti = below_threshold_variances(params.base.sigma, params.base.omega)
    theta = params.tilt_theta
    c, s = math.cos(theta), math.sin(theta)
    r_inv = np.array([[c, -s], [s, c]])
    entries = np.zeros((4, 4))
    entries[:2, :2] = np.diag([v_anti, v_sq])
    entries[2:, 2:] = r_inv @ np.diag(params.v_minus) @ r_inv.T
    gamma = make_covariance(entries, ModeBasis.PLUS_MINUS)
    if params.base.eta < 1.0:
        gamma = add_losses(gamma, LossModel(eta_a=params.base.eta, eta_b=params.base.eta))
    return gamma


def twin_difference_spectrum(omega: float, eta_overall: float) -> float:
    """Toy Lorentzian intensity-difference spectrum in shot-noise units.

    S(omega) = 1 - eta / (1 + omega^2); the floor 1 - eta is reached at zero
    frequency and the spectrum returns to shot noise at high frequency.
    """
    if not omega >= 0.0:
        raise OutOfRangeError(f"omega must be non-negative, got {omega}")
    if not 0.0 <= eta_overall <= 1.0:
        raise OutOfRangeError(f"eta must lie in [0, 1], got {eta_overall}")
    return 1.0 - eta_overall / (1.0 + omega**2)
