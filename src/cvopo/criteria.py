"""Quantum-correlation criteria for two-mode Gaussian states.

Every criterion is evaluated on the signal/idler mode split, so all scalars
reported here are invariant under the +-45 degree basis change.  Near
threshold the signal/idler entries are large numbers whose differences carry
the squeezing, so quantities with a +-45 degree or basis-free form are read
off the +-45 degree entries, which the +-1 basis change forms by exact
differences.

Conventions (vacuum variance = 1 throughout):

* gemellity          G_X = <(dX_1 - dX_2)^2>/2, non-classical iff G < 1
* conditional var.   V_1|2 = F (1 - C12^2),     QND iff V < 1
* separability       I = (G_X + G_P)/2,         entangled if I < 1
* EPR product        V = V_X1|X2 * V_P1|P2,     EPR-correlated iff V < 1
* log negativity     E_N = -log2(xi),           entangled iff xi < 1
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadCorrelationError,
    DegenerateVarianceError,
    NonPositiveSeparabilityError,
    NonPositiveVarianceError,
    NumericalFailureError,
)
from .gaussian import (
    CovarianceMatrix,
    ModeBasis,
    _first_where,
    _pm_determinant,
    make_covariance,
    to_basis,
)

__all__ = [
    "CorrelationStats",
    "CriteriaReport",
    "classify",
    "conditional_variance",
    "conditional_variance_from_gemellity",
    "conditional_variance_from_stats",
    "db_to_variance",
    "eof",
    "epr_product",
    "gemellity",
    "gemellity_from_covariance",
    "gemellity_from_stats",
    "is_balanced",
    "is_standard_form",
    "log_negativity",
    "max_log_negativity",
    "separability",
    "symmetric_covariance",
    "variance_to_db",
]


@dataclass(frozen=True)
class CorrelationStats:
    """Balanced-beam summary statistics: individual noise ``f`` (shot-noise
    units) and normalized correlation coefficient ``c12``."""

    f: float
    c12: float

    def __post_init__(self):
        # written so that NaN fails the checks
        if not 0.0 < self.f < math.inf:
            raise BadCorrelationError(f"noise variance must be positive and finite, got {self.f}")
        if not abs(self.c12) <= 1.0:
            raise BadCorrelationError(f"|c12| must not exceed 1, got {self.c12}")

    @classmethod
    def from_gemellity(cls, f: float, g: float) -> "CorrelationStats":
        """Invert G = F (1 - |C12|) assuming a non-negative correlation."""
        c12 = 1.0 - g / f
        if not abs(c12) <= 1.0:
            raise BadCorrelationError(
                f"gemellity {g} with noise {f} implies |c12| = {abs(c12)} > 1"
            )
        return cls(f=f, c12=c12)


def gemellity(f, c12):
    """G = F (1 - |C12|).  Accepts scalars or arrays."""
    return f * (1.0 - np.abs(c12))


def conditional_variance(f, c12):
    """V = F (1 - C12^2).  Accepts scalars or arrays."""
    return f * (1.0 - np.square(c12))


def conditional_variance_from_gemellity(f, g):
    """Equivalent form V = 2 G - G^2 / F."""
    return 2.0 * g - np.square(g) / f


def gemellity_from_stats(stats: CorrelationStats) -> float:
    return float(gemellity(stats.f, stats.c12))


def conditional_variance_from_stats(stats: CorrelationStats) -> float:
    return float(conditional_variance(stats.f, stats.c12))


def gemellity_from_covariance(gamma: CovarianceMatrix, quadrature: str = "x_difference") -> float:
    """Gemellity of the X difference or antigemellity of the P sum.

    ``quadrature`` is ``"x_difference"`` for G_X = (G11 + G33 - 2 G13)/2 or
    ``"p_sum"`` for G_P = (G22 + G44 + 2 G24)/2, read off the +-45 degree
    basis as G_X = Var X_- and G_P = Var P_+.
    """
    g_x, g_p = _gemellities(to_basis(gamma, ModeBasis.PLUS_MINUS).entries)
    if quadrature == "x_difference":
        return float(g_x)
    if quadrature == "p_sum":
        return float(g_p)
    raise ValueError(f"quadrature must be 'x_difference' or 'p_sum', got {quadrature!r}")


def separability(gamma: CovarianceMatrix) -> float:
    """Half-sum of the X-difference gemellity and the P-sum antigemellity."""
    return float(_separability(*_gemellities(to_basis(gamma, ModeBasis.PLUS_MINUS).entries)))


# -- invariant core over (..., 4, 4) stacks (see ``cvopo.opo.sweep``); the
# single-state functions call it with one matrix.


def _gemellities(pm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(G_X, G_P) = (Var X_-, Var P_+)``, read off +-45 degree entries."""
    return pm[..., 2, 2], pm[..., 1, 1]


def _separability(g_x, g_p):
    """I = (G_X + G_P) / 2, elementwise."""
    return (g_x + g_p) / 2.0


def _det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _invariants(si: np.ndarray, pm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(D, det G)`` from one state's entries in both bases.

    D = det g_A + det g_B - 2 det s_AB on the signal/idler blocks (V_anti^2 +
    V_sq^2 for the ideal state, no cancellation).  det G is read off the
    +-45 degree entries: near threshold it is ~1 while the signal/idler
    entries are ~V_anti/2.
    """
    d = _det2(si[..., :2, :2]) + _det2(si[..., 2:, 2:]) - 2.0 * _det2(si[..., :2, 2:])
    return d, _pm_determinant(pm)


def _xi(d, det) -> np.ndarray:
    """Smallest symplectic eigenvalue of the partial transpose, elementwise.

    xi^2 = 2 det G / (D + sqrt(D^2 - 4 det G)) is the conjugate of
    (D - sqrt(D^2 - 4 det G)) / 2, which avoids its cancellation.  The first
    inconsistent entry raises ``NumericalFailureError``.
    """
    disc = d * d - 4.0 * det
    # both terms are ~D^2, so rounding alone leaves |disc| up to a few eps D^2
    bad = disc < -1e-9 * np.maximum(1.0, d * d)
    if np.count_nonzero(bad):
        raise NumericalFailureError(
            f"negative discriminant {_first_where(bad, disc):.3e}: inconsistent matrix"
        )
    denom = d + np.sqrt(np.maximum(disc, 0.0))
    bad = (denom <= 0.0) | (det <= 0.0)
    if np.count_nonzero(bad):
        raise NumericalFailureError(
            f"non-positive xi^2 (D = {_first_where(bad, d):.3e}, "
            f"det = {_first_where(bad, det):.3e}): inconsistent matrix"
        )
    return np.sqrt(2.0 * det / denom)


def _e_n(xi: float) -> float:
    """max(0, -log2 xi) for one point, through libm: numpy's log2 differs
    from it in the last digit on about 0.2% of arguments."""
    return max(0.0, -math.log2(xi))


def is_standard_form(gamma: CovarianceMatrix, tol: float = 1e-9) -> bool:
    """True when the signal/idler form is diag(n,n), diag(m,m) with a
    diagonal cross block.

    Only in this form does I < 1 read as a necessary-and-sufficient
    entanglement criterion (and even then after the Duan normalization);
    I < 1 is sufficient for entanglement in every case.
    """
    m = to_basis(gamma, ModeBasis.SIGNAL_IDLER).entries
    scale = max(1.0, float(np.abs(m).max()))
    a, b, c = m[:2, :2], m[2:, 2:], m[:2, 2:]
    checks = (
        abs(a[0, 1]),
        abs(b[0, 1]),
        abs(c[0, 1]),
        abs(c[1, 0]),
        abs(a[0, 0] - a[1, 1]),
        abs(b[0, 0] - b[1, 1]),
    )
    return bool(max(checks) <= tol * scale)


def is_balanced(gamma: CovarianceMatrix, tol: float = 1e-6) -> bool:
    """True when both beams carry the same individual variances."""
    m = to_basis(gamma, ModeBasis.SIGNAL_IDLER).entries
    scale = max(1.0, float(np.abs(m).max()))
    return bool(
        abs(m[0, 0] - m[2, 2]) <= tol * scale and abs(m[1, 1] - m[3, 3]) <= tol * scale
    )


def eof(i: float) -> float:
    """Entanglement of formation in ebits as a function of the separability.

    Returns c+ log2(c+) - c- log2(c-) with c+- = (i^-1/2 +- i^1/2)^2 / 4 for
    i < 1, and 0 for i >= 1 (the formula's continuous limit at i = 1).

    Both terms grow like log2(i)/(4i) as i -> 0 and cancel, so the value is
    evaluated as [2 log1p(u) + 4 c- atanh(i)] / ln 2, using c+ - c- = 1,
    c+/c- = ((1+i)/(1-i))^2 and ln c+ = 2 log1p(u),
    u = ((1-i)/(1+sqrt i))^2 / (2 sqrt i).
    """
    if i <= 0.0:
        raise NonPositiveSeparabilityError(f"separability must be positive, got {i}")
    if i >= 1.0:
        return 0.0
    root = math.sqrt(i)
    u = ((1.0 - i) / (1.0 + root)) ** 2 / (2.0 * root)
    c_minus = (1.0 - i) ** 2 / (4.0 * i)
    return (2.0 * math.log1p(u) + 4.0 * c_minus * math.atanh(i)) / math.log(2.0)


def _conditional_variance(gamma: CovarianceMatrix, quadrature: int) -> float:
    """Var of quadrature 0 (X) or 1 (P) of beam 1 given beam 2: the Schur
    complement G_qq - G_q,q+2^2 / G_q+2,q+2, evaluated as det / G_q+2,q+2
    with the basis-invariant det of that quadrature's 2x2 block read off the
    +-45 degree entries.
    """
    var_2 = to_basis(gamma, ModeBasis.SIGNAL_IDLER).entries[2 + quadrature, 2 + quadrature]
    if var_2 <= 0.0:
        raise DegenerateVarianceError(
            f"Var {'XP'[quadrature]}_2 must be positive, got {var_2}"
        )
    pm = to_basis(gamma, ModeBasis.PLUS_MINUS).entries
    return float(_det2(pm[quadrature::2, quadrature::2]) / var_2)


def epr_product(gamma: CovarianceMatrix) -> float:
    """Product of the X and P conditional variances across the two beams."""
    return _conditional_variance(gamma, 0) * _conditional_variance(gamma, 1)


def _seralian(gamma: CovarianceMatrix) -> tuple[float, float]:
    """``(D, det G)`` of one state (see ``_invariants``)."""
    si = to_basis(gamma, ModeBasis.SIGNAL_IDLER).entries
    d, det = _invariants(si, to_basis(gamma, ModeBasis.PLUS_MINUS).entries)
    return float(d), float(det)


def _negativity(d: float, det: float) -> tuple[float, float]:
    """``(e_n, xi)`` from the seralian D and det G of the state (see ``_xi``)."""
    xi = float(_xi(d, det))
    return _e_n(xi), xi


def log_negativity(gamma: CovarianceMatrix) -> tuple[float, float]:
    """Logarithmic negativity of the signal/idler split.

    Returns ``(e_n, xi)`` where xi is the smallest symplectic eigenvalue of
    the partially transposed matrix,

        xi^2 = 2 det G / (D + sqrt(D^2 - 4 det G)),
        D    = det g_A + det g_B - 2 det s_AB,

    and e_n = max(0, -log2 xi).  The state is entangled iff xi < 1.  The
    conjugate of (D - sqrt(D^2 - 4 det G)) / 2 avoids its cancellation.
    """
    return _negativity(*_seralian(gamma))


def max_log_negativity(gamma: CovarianceMatrix) -> float:
    """Largest log negativity reachable by passive operations.

    Set by the two smallest ordinary eigenvalues of the covariance matrix:
    -log2(l1 l2)/2, clamped at zero.  The eigenvalues are basis-invariant and
    taken of the +-45 degree entries, which hold the squeezed variances
    without the large-minus-large remainder of the signal/idler entries.  A
    non-positive l1 l2 (an unphysical matrix) raises ``NumericalFailureError``.
    """
    lam = np.linalg.eigvalsh(to_basis(gamma, ModeBasis.PLUS_MINUS).entries)
    product = float(lam[0] * lam[1])
    if not product > 0.0:
        raise NumericalFailureError(
            f"non-positive eigenvalue product l1 l2 = {product:.3e}: unphysical matrix"
        )
    return max(0.0, -math.log2(product) / 2.0)


def variance_to_db(variance: float) -> float:
    """Noise power relative to shot noise, 10 log10(variance)."""
    if variance <= 0.0:
        raise NonPositiveVarianceError(f"variance must be positive, got {variance}")
    return 10.0 * math.log10(variance)


def db_to_variance(db: float) -> float:
    return 10.0 ** (db / 10.0)


def symmetric_covariance(f: float, g_x: float, g_p: float) -> CovarianceMatrix:
    """Balanced standard-form state with given individual noise and gemellities.

    Both beams carry variance ``f`` on each quadrature; the cross terms are
    fixed by G_X = f - c_x and G_P = f + c_p.
    """
    c_x = f - g_x
    c_p = g_p - f
    entries = np.array(
        [
            [f, 0.0, c_x, 0.0],
            [0.0, f, 0.0, c_p],
            [c_x, 0.0, f, 0.0],
            [0.0, c_p, 0.0, f],
        ]
    )
    return make_covariance(entries, ModeBasis.SIGNAL_IDLER)


@dataclass(frozen=True)
class CriteriaReport:
    """All scalar criteria for one state, with the classification flags."""

    gemellity_x: float
    antigemellity_p: float
    conditional_variance_x: float
    conditional_variance_p: float
    separability: float
    eof_ebits: float
    epr_product: float
    xi: float
    log_negativity: float
    max_log_negativity: float
    standard_form: bool
    balanced: bool
    nonclassical_correlation: bool
    qnd_correlated: bool
    inseparable: bool
    epr_correlated: bool

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "nonclassical_correlation": self.nonclassical_correlation,
            "qnd_correlated": self.qnd_correlated,
            "inseparable": self.inseparable,
            "epr_correlated": self.epr_correlated,
        }

    def scalars(self) -> dict[str, float]:
        """Every float-typed field, by name."""
        return {name: getattr(self, name) for name in _SCALAR_FIELDS}

    def db_renderings(self) -> dict[str, float]:
        """dB views of the variance-like scalars, derived on the fly."""
        return {
            "gemellity_x_db": variance_to_db(self.gemellity_x),
            "antigemellity_p_db": variance_to_db(self.antigemellity_p),
            "conditional_variance_x_db": variance_to_db(self.conditional_variance_x),
            "conditional_variance_p_db": variance_to_db(self.conditional_variance_p),
            "separability_db": variance_to_db(self.separability),
        }


_SCALAR_FIELDS = tuple(
    name for name, kind in typing.get_type_hints(CriteriaReport).items() if kind is float
)


def classify(
    gamma: CovarianceMatrix,
    stats_x: CorrelationStats | None = None,
    stats_p: CorrelationStats | None = None,
) -> CriteriaReport:
    """Evaluate every criterion and classify the state.

    When measured summary statistics are supplied for a quadrature, its
    gemellity and conditional variance come from those instead of from the
    matrix; the negativities always come from the matrix.
    """
    if stats_x is not None:
        g_x = gemellity_from_stats(stats_x)
        v_x = conditional_variance_from_stats(stats_x)
    else:
        g_x = gemellity_from_covariance(gamma, "x_difference")
        v_x = _conditional_variance(gamma, 0)

    if stats_p is not None:
        g_p = gemellity_from_stats(stats_p)
        v_p = conditional_variance_from_stats(stats_p)
    else:
        g_p = gemellity_from_covariance(gamma, "p_sum")
        v_p = _conditional_variance(gamma, 1)

    sep = _separability(g_x, g_p)
    e_n, xi = log_negativity(gamma)
    report = CriteriaReport(
        gemellity_x=g_x,
        antigemellity_p=g_p,
        conditional_variance_x=v_x,
        conditional_variance_p=v_p,
        separability=sep,
        eof_ebits=eof(sep),
        epr_product=v_x * v_p,
        xi=xi,
        log_negativity=e_n,
        max_log_negativity=max_log_negativity(gamma),
        standard_form=is_standard_form(gamma),
        balanced=is_balanced(gamma),
        nonclassical_correlation=min(g_x, g_p) < 1.0,
        qnd_correlated=min(v_x, v_p) < 1.0,
        inseparable=xi < 1.0,
        epr_correlated=v_x * v_p < 1.0,
    )
    return report
