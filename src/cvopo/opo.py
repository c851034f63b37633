"""Covariance matrices emitted by a type-II OPO below threshold.

The ideal model is anchored to the reference operating point sigma = 0.9,
Omega = 0, where the antisqueezed and squeezed variances are 361 and 0.00277:

    V_sq(sigma, Omega)   = 1 - 4 sigma / ((1 + sigma)^2 + Omega^2)
    V_anti(sigma, Omega) = 1 + 4 sigma / ((1 - sigma)^2 + Omega^2)

The product V_sq * V_anti is identically 1, so the ideal state is pure at
every analysis frequency.  sigma is the pump amplitude normalized to
threshold and Omega the noise frequency in cavity-bandwidth units (the
mapping to absolute frequency is left to document metadata).

``sweep`` evaluates a whole sigma-major grid as one ``(n, 4, 4)`` stack
through the same invariant core as the single-state functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import _e_n, _gemellities, _invariants, _separability, _xi, eof
from .errors import OutOfRangeError, UnphysicalBlockError
from .gaussian import (
    PHYSICALITY_TOL,
    CovarianceMatrix,
    ModeBasis,
    _covariance_stack,
    _flip_basis,
    _lossy_entries,
    make_covariance,
)

__all__ = [
    "SWEEP_COLUMNS",
    "CoupledStateParams",
    "OpoParams",
    "below_threshold_covariance",
    "below_threshold_variances",
    "coupled_covariance",
    "sweep",
    "twin_difference_spectrum",
]

#: Columns of ``sweep`` and of the ``opo-sweep`` CSV, in order (frozen; see README).
SWEEP_COLUMNS = (
    "sigma",
    "omega",
    "v_sq",
    "v_anti",
    "gemellity_x",
    "separability",
    "eof_ebits",
    "log_negativity",
)


@dataclass(frozen=True)
class OpoParams:
    """Below-threshold operating point with an overall detection efficiency."""

    sigma: float
    omega: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        bad = _first_out_of_range(self.sigma, self.omega, self.eta)
        if bad is not None:
            raise bad[1]


def _first_out_of_range(sigma, omega, eta) -> tuple[int, OutOfRangeError] | None:
    """``OpoParams``'s range checks over a flat grid of points (or one point).

    Returns the index of the first point outside the ranges, with the error
    naming its first bad parameter, or None.  Written so that NaN fails.
    """
    values = np.broadcast_arrays(sigma, omega, eta)
    s, w, e = values
    checks = (
        ("sigma", (0.0 <= s) & (s < 1.0), "must lie in [0, 1)"),
        ("omega", (0.0 <= w) & (w < math.inf), "must be non-negative and finite"),
        ("eta", (0.0 <= e) & (e <= 1.0), "must lie in [0, 1]"),
    )
    bad = np.flatnonzero(~(checks[0][1] & checks[1][1] & checks[2][1]))
    if bad.size == 0:
        return None
    k = int(bad[0])
    name, text, value = next(
        (name, text, value) for (name, ok, text), value in zip(checks, values) if not ok.flat[k]
    )
    return k, OutOfRangeError(f"{name} {text}, got {value.flat[k].item()}")


def _pow2(x):
    """x ** 2 through libm ``pow``, elementwise on arrays: numpy squares as
    x * x, which rounds differently on about 0.1% of inputs, and the sweep
    CSV keeps every digit."""
    if isinstance(x, np.ndarray):
        return np.reshape([v**2 for v in x.ravel().tolist()], x.shape)
    return x**2


def below_threshold_variances(sigma, omega=0.0):
    """(V_sq, V_anti) of the ideal below-threshold OPO; scalars or arrays.

    Evaluated in the equivalent ratio form, which stays accurate near
    threshold where 1 - 4 sigma / ((1+sigma)^2 + omega^2) cancels badly:
    (1+sigma)^2 - 4 sigma = (1-sigma)^2.
    """
    lo = _pow2(1.0 - sigma) + _pow2(omega)
    hi = _pow2(1.0 + sigma) + _pow2(omega)
    return lo / hi, hi / lo


def _output_entries(v_sq, v_anti, eta: float, minus_block=None) -> np.ndarray:
    """Validated ``(..., 4, 4)`` +-45 degree entries of the OPO output.

    A+ is diag(v_anti, v_sq); A- is diag(v_sq, v_anti), or ``minus_block``
    for the coupled family; the modes are uncorrelated.  Detection losses
    (efficiency ``eta`` on both modes) are applied last.
    """
    v_sq = np.asarray(v_sq)
    m = np.zeros(v_sq.shape + (4, 4))
    m[..., 0, 0] = v_anti
    m[..., 1, 1] = v_sq
    if minus_block is None:
        m[..., 2, 2] = v_sq
        m[..., 3, 3] = v_anti
    else:
        m[..., 2:, 2:] = minus_block
    m = _covariance_stack(m)
    if eta < 1.0:
        m = _covariance_stack(_lossy_entries(m, eta, eta))
    return m


def below_threshold_covariance(params: OpoParams) -> CovarianceMatrix:
    """Uncoupled OPO output in the +-45 degree basis.

    A+ is squeezed on P and antisqueezed on X, A- the other way around, with
    no correlation between them; detection losses are applied last.
    """
    v_sq, v_anti = below_threshold_variances(params.sigma, params.omega)
    return make_covariance(_output_entries(v_sq, v_anti, params.eta), ModeBasis.PLUS_MINUS)


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
    base = params.base
    v_sq, v_anti = below_threshold_variances(base.sigma, base.omega)
    entries = _output_entries(v_sq, v_anti, base.eta, _tilted_block(params))
    return make_covariance(entries, ModeBasis.PLUS_MINUS)


def _tilted_block(params: CoupledStateParams) -> np.ndarray:
    """The A- block R(-theta) diag(v1, v2) R(-theta)^T of the coupled family."""
    c, s = math.cos(params.tilt_theta), math.sin(params.tilt_theta)
    r_inv = np.array([[c, -s], [s, c]])
    return r_inv @ np.diag(params.v_minus) @ r_inv.T


def sweep(sigmas, omegas, eta: float, coupled=None) -> dict[str, np.ndarray]:
    """Every ``SWEEP_COLUMNS`` quantity over the sigma-major grid, as arrays.

    ``coupled`` is None for the uncoupled OPO or ``(theta, v1, v2)`` for the
    coupled family (see ``CoupledStateParams``).  The grid goes through the
    single-state path's checks and formulas as one ``(n, 4, 4)`` stack, so
    each row equals the one ``below_threshold_covariance`` or
    ``coupled_covariance`` gives, to the last digit.  An invalid grid raises
    the error of its first offending point's ``OpoParams`` or
    ``CoupledStateParams``, unless evaluating the valid points before it
    fails first.
    """
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    omegas = np.asarray(omegas, dtype=float).ravel()
    sigma, omega = np.repeat(sigmas, omegas.size), np.tile(omegas, sigmas.size)
    bad = _first_out_of_range(sigma, omega, eta)
    if bad is not None and bad[0] == 0:
        raise bad[1]
    minus_block = None
    if coupled is not None and sigma.size > 0:
        theta, v1, v2 = coupled
        base = OpoParams(sigma=float(sigma[0]), omega=float(omega[0]), eta=eta)
        minus_block = _tilted_block(CoupledStateParams(base, theta, (v1, v2)))
    # the valid points before the first offending one are evaluated first,
    # so a failure among them takes precedence, as point by point
    n = sigma.size if bad is None else bad[0]
    sigma, omega = sigma[:n], omega[:n]

    pm = _output_entries(*below_threshold_variances(sigma, omega), eta, minus_block)
    g_x, g_p = _gemellities(pm)
    sep = _separability(g_x, g_p)
    # eof and -log2 xi stay on libm, point by point: numpy's log1p, arctanh
    # and log2 differ from it in the last digit on some arguments
    eof_ebits = np.array([eof(i) for i in sep.tolist()])
    d, det = _invariants(_covariance_stack(_flip_basis(pm)), pm)
    e_n = np.array([_e_n(xi) for xi in _xi(d, det).tolist()])
    if bad is not None:
        raise bad[1]
    columns = (sigma, omega, pm[:, 1, 1], pm[:, 0, 0], g_x, sep, eof_ebits, e_n)
    return dict(zip(SWEEP_COLUMNS, columns))


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
