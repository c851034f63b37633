"""Two-mode Gaussian states as covariance matrices, plus passive optics.

Quadrature ordering is fixed as (X_A, P_A, X_B, P_B) and second moments are
vacuum-normalized, so the 4x4 identity matrix represents two independent
vacua.  All operations are pure functions of immutable values.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadEfficiencyError,
    BadShapeError,
    InvalidTransformError,
    NonFiniteError,
    NonSymmetricError,
)

__all__ = [
    "ModeBasis",
    "CovarianceMatrix",
    "LossModel",
    "PassiveTransform",
    "SYMPLECTIC_FORM",
    "add_losses",
    "apply_passive",
    "beamsplitter_pm",
    "change_basis_pm",
    "composite",
    "half_wave",
    "is_physical",
    "make_covariance",
    "phase_shift",
    "polarization_rotation",
    "quarter_wave",
    "symplectic_eigenvalues",
    "vacuum_state",
]

#: Symplectic form J for the (X_A, P_A, X_B, P_B) ordering.
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)
SYMPLECTIC_FORM.setflags(write=False)

# Relative asymmetry accepted before a matrix is rejected; matrices within
# tolerance are symmetrized by averaging.
SYMMETRY_TOL = 1e-12

# S J S^T = J must hold to this absolute tolerance for every transform.
SYMPLECTIC_TOL = 1e-10

# Default slack on the uncertainty bound nu >= 1.  Reference states read from
# published tables are rounded to a few digits and can undershoot the bound by
# a few 1e-4, so the gate is deliberately looser than machine precision.
PHYSICALITY_TOL = 1e-3


class ModeBasis(enum.Enum):
    """Mode pair the matrix refers to: signal/idler or the +-45 degree superpositions."""

    SIGNAL_IDLER = "signal_idler"
    PLUS_MINUS = "plus_minus"

    def flipped(self) -> "ModeBasis":
        if self is ModeBasis.SIGNAL_IDLER:
            return ModeBasis.PLUS_MINUS
        return ModeBasis.SIGNAL_IDLER


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 symmetric matrix of quadrature second moments with a basis tag."""

    entries: np.ndarray
    basis: ModeBasis

    @property
    def block_a(self) -> np.ndarray:
        """2x2 covariance block of the first mode."""
        return self.entries[:2, :2]

    @property
    def block_b(self) -> np.ndarray:
        """2x2 covariance block of the second mode."""
        return self.entries[2:, 2:]

    @property
    def cross(self) -> np.ndarray:
        """2x2 intermodal correlation block."""
        return self.entries[:2, 2:]

    def determinant(self) -> float:
        """det Gamma, read off the +-45 degree entries (see ``symplectic_eigenvalues``)."""
        return float(_pm_determinant(to_basis(self, ModeBasis.PLUS_MINUS).entries))

    @functools.cached_property
    def counterpart(self) -> "CovarianceMatrix":
        """The same state in the other basis, converted on first use (see ``change_basis_pm``).

        It does not point back: converting it again is a fresh computation.
        """
        return make_covariance(_flip_basis(self.entries), self.basis.flipped())


def make_covariance(entries, basis: ModeBasis) -> CovarianceMatrix:
    """Validate and wrap a 4x4 symmetric matrix.

    Asymmetry up to ``SYMMETRY_TOL`` (relative to the largest entry) is
    repaired by averaging; anything larger raises ``NonSymmetricError``, and
    a NaN or infinite entry raises ``NonFiniteError``.
    """
    m = np.asarray(entries, dtype=float)
    if m.shape != (4, 4):
        raise BadShapeError(f"expected a 4x4 matrix, got shape {m.shape}")
    return CovarianceMatrix(entries=_covariance_stack(m), basis=basis)


# -- invariant core over (..., 4, 4) stacks; the single-state functions call
# it with one matrix, so each formula exists once.


def _covariance_stack(entries) -> np.ndarray:
    """``make_covariance``'s checks and symmetrization over a ``(..., 4, 4)``
    stack, each matrix against its own largest entry; the first offending
    matrix names the error.  The result is read-only.
    """
    m = np.asarray(entries, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise BadShapeError(f"expected 4x4 matrices, got shape {m.shape}")
    m_t = np.swapaxes(m, -1, -2)
    # the maximum of an array holding NaN is NaN, so NaN survives into scale
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    # np.count_nonzero is any() at a third of the cost on one matrix's scalars
    nonfinite = ~np.isfinite(scale)
    if np.count_nonzero(nonfinite):
        largest = _first_where(nonfinite, scale)
        raise NonFiniteError(f"matrix entries must be finite, got largest |G_ij| = {largest}")
    asym = np.abs(m - m_t).max(axis=(-2, -1))
    asymmetric = asym > SYMMETRY_TOL * scale
    if np.count_nonzero(asymmetric):
        raise NonSymmetricError(
            f"matrix is asymmetric: max |G_ij - G_ji| = {_first_where(asymmetric, asym):.3e} "
            f"exceeds {SYMMETRY_TOL:.0e} relative tolerance"
        )
    sym = (m + m_t) / 2.0
    sym.setflags(write=False)
    return sym


def _first_where(mask, values) -> float:
    """The entry of ``values`` at the first true entry of ``mask`` (scalars or arrays)."""
    return float(np.ravel(values)[np.flatnonzero(mask)[0]])


def _flip_basis(entries: np.ndarray) -> np.ndarray:
    """H Gamma H^T / 2 over a ``(..., 4, 4)`` stack: the +-1 basis change.

    Only sums, differences and an exact halving touch the entries; the
    result is not yet validated (see ``_covariance_stack``).
    """
    return _H_PM @ entries @ _H_PM.T / 2.0


def _pm_determinant(pm: np.ndarray) -> np.ndarray:
    """det Gamma over a ``(..., 4, 4)`` stack of +-45 degree entries.

    det Gamma is basis-invariant, but near threshold the signal/idler
    entries hold V_sq only as a large-minus-large remainder.
    """
    return np.linalg.det(pm)


def _lossy_entries(entries: np.ndarray, eta_a: float, eta_b: float) -> np.ndarray:
    """Vacuum-mixing loss over a ``(..., 4, 4)`` stack (see ``add_losses``); not validated."""
    out = np.array(entries)
    out[..., :2, :2] = eta_a * entries[..., :2, :2] + (1.0 - eta_a) * np.eye(2)
    out[..., 2:, 2:] = eta_b * entries[..., 2:, 2:] + (1.0 - eta_b) * np.eye(2)
    out[..., :2, 2:] = math.sqrt(eta_a * eta_b) * entries[..., :2, 2:]
    out[..., 2:, :2] = np.swapaxes(out[..., :2, 2:], -1, -2)
    return out


def vacuum_state(basis: ModeBasis = ModeBasis.SIGNAL_IDLER) -> CovarianceMatrix:
    """Two independent vacua (identity matrix)."""
    return make_covariance(np.eye(4), basis)


def symplectic_eigenvalues(gamma: CovarianceMatrix) -> np.ndarray:
    """Both symplectic eigenvalues, sorted ascending.

    Computed as the moduli of the eigenvalues of J @ Gamma, which come in
    pairs (+i nu, -i nu), from the +-45 degree entries: near threshold the
    signal/idler entries hold V_sq only as a large-minus-large remainder.
    """
    pm = to_basis(gamma, ModeBasis.PLUS_MINUS).entries
    ev = np.abs(np.linalg.eigvals(SYMPLECTIC_FORM @ pm))
    return np.sort(ev)[[0, 2]]


def is_physical(gamma: CovarianceMatrix, tol: float = PHYSICALITY_TOL) -> tuple[bool, float]:
    """Uncertainty-principle gate.

    Returns ``(ok, nu_min)`` where ``ok`` is true iff both symplectic
    eigenvalues satisfy nu >= 1 - tol, and ``nu_min`` is the smaller one.
    """
    nu = symplectic_eigenvalues(gamma)
    nu_min = float(nu[0])
    return nu_min >= 1.0 - tol, nu_min


# 50/50 mixing map taking (X_1, P_1, X_2, P_2) to (X_+, P_+, X_-, P_-) with
# X_pm = (X_1 +- X_2)/sqrt(2) and likewise for P.  _S_PM = _H_PM / sqrt(2) is
# symmetric orthogonal, so it is its own inverse.
_H_PM = np.array(
    [
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
)
_H_PM.setflags(write=False)
_S_PM = _H_PM / math.sqrt(2.0)
_S_PM.setflags(write=False)


def change_basis_pm(gamma: CovarianceMatrix) -> CovarianceMatrix:
    """Switch between the signal/idler and +-45 degree superposition bases.

    The map is an involution: applying it twice returns the original matrix.
    Determinant and symplectic spectrum are preserved.  Evaluated as
    H Gamma H^T / 2 with the +-1 matrix H, so only sums, differences and an
    exact halving touch the entries (vacuum maps to exactly the identity).
    The result is kept as ``gamma.counterpart``, so each state converts once.
    """
    return gamma.counterpart


def to_basis(gamma: CovarianceMatrix, basis: ModeBasis) -> CovarianceMatrix:
    """Return ``gamma`` expressed in ``basis``, converting if necessary."""
    return gamma if gamma.basis is basis else gamma.counterpart


@dataclass(frozen=True)
class PassiveTransform:
    """A passive (energy-preserving) linear-optics map on the two modes.

    ``matrix`` is the 4x4 symplectic matrix acting on the quadrature vector
    in the basis the caller applies it in; modes are indexed 0 and 1 within
    that basis.
    """

    kind: str
    matrix: np.ndarray
    params: tuple = field(default=())


def _rotation2(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def _embed(mode: int, block: np.ndarray) -> np.ndarray:
    s = np.eye(4)
    s[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = block
    return s


def beamsplitter_pm() -> PassiveTransform:
    """50/50 mixing of the two modes, (A_1 +- A_2)/sqrt(2)."""
    return PassiveTransform(kind="beamsplitter_pm", matrix=_S_PM.copy())


def phase_shift(mode: int, angle: float) -> PassiveTransform:
    """Quadrature rotation of one mode: X -> X cos(a) + P sin(a), P -> -X sin(a) + P cos(a)."""
    if mode not in (0, 1):
        raise InvalidTransformError(f"mode must be 0 or 1, got {mode}")
    return PassiveTransform(
        kind="phase_shift", matrix=_embed(mode, _rotation2(angle)), params=(mode, angle)
    )


def polarization_rotation(angle: float) -> PassiveTransform:
    """Rotation of the polarization frame by ``angle``, mixing the two modes."""
    c, s = math.cos(angle), math.sin(angle)
    m = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, s],
            [-s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return PassiveTransform(kind="polarization_rotation", matrix=m, params=(angle,))


def half_wave(angle: float) -> PassiveTransform:
    """Half-wave plate with its fast axis at ``angle``.

    Standard Jones action lifted to quadratures: a rotation by 2*angle
    composed with a pi phase (full sign flip) of the second mode.  A flip of
    only one quadrature would not be symplectic.
    """
    m = polarization_rotation(2.0 * angle).matrix @ _embed(1, _rotation2(math.pi))
    return PassiveTransform(kind="half_wave", matrix=m, params=(angle,))


def quarter_wave(angle: float) -> PassiveTransform:
    """Quarter-wave plate at ``angle``: rotate to the plate frame, apply a
    pi/2 relative phase on the second mode, rotate back."""
    rot = polarization_rotation(angle).matrix
    m = rot @ _embed(1, _rotation2(math.pi / 2.0)) @ rot.T
    return PassiveTransform(kind="quarter_wave", matrix=m, params=(angle,))


def composite(transforms) -> PassiveTransform:
    """Sequence of transforms; the first element is applied first."""
    m = np.eye(4)
    for t in transforms:
        m = t.matrix @ m
    kinds = tuple(t.kind for t in transforms)
    return PassiveTransform(kind="composite", matrix=m, params=kinds)


def apply_passive(gamma: CovarianceMatrix, transform: PassiveTransform) -> CovarianceMatrix:
    """Apply S Gamma S^T after checking that S preserves the symplectic form."""
    s = np.asarray(transform.matrix, dtype=float)
    if s.shape != (4, 4):
        raise InvalidTransformError(f"transform matrix must be 4x4, got {s.shape}")
    defect = float(np.abs(s @ SYMPLECTIC_FORM @ s.T - SYMPLECTIC_FORM).max())
    if not defect <= SYMPLECTIC_TOL:
        raise InvalidTransformError(
            f"matrix is not symplectic: |S J S^T - J| = {defect:.3e} exceeds {SYMPLECTIC_TOL:.0e}"
        )
    return make_covariance(s @ gamma.entries @ s.T, gamma.basis)


@dataclass(frozen=True)
class LossModel:
    """Independent beamsplitter-with-vacuum loss on each mode."""

    eta_a: float
    eta_b: float

    def __post_init__(self):
        for name, eta in (("eta_a", self.eta_a), ("eta_b", self.eta_b)):
            if not 0.0 <= eta <= 1.0:
                raise BadEfficiencyError(f"{name} must lie in [0, 1], got {eta}")


def add_losses(gamma: CovarianceMatrix, loss: LossModel) -> CovarianceMatrix:
    """Mix each mode with vacuum: blocks map as eta*G + (1 - eta)*I, the
    cross block scales by sqrt(eta_a * eta_b)."""
    return make_covariance(_lossy_entries(gamma.entries, loss.eta_a, loss.eta_b), gamma.basis)
