"""cvopo: two-mode Gaussian states of a type-II OPO.

Covariance-matrix model of the light emitted by a type-II optical parametric
oscillator, the full set of quantum-correlation criteria (gemellity, QND
conditional variance, separability, entanglement of formation, EPR product,
logarithmic negativity), Monte Carlo conditional state preparation, and
optimization of entanglement extraction by passive polarization operations.
"""

__version__ = "0.2.0"

from .condprep import (
    BandResult,
    CondPrepConfig,
    CondPrepResult,
    conditional_select,
    estimate_fano,
    run_conditional_prep,
    sample_photocurrents,
)
from .criteria import (
    CorrelationStats,
    CriteriaReport,
    classify,
    conditional_variance,
    conditional_variance_from_gemellity,
    db_to_variance,
    eof,
    epr_product,
    gemellity,
    gemellity_from_covariance,
    log_negativity,
    max_log_negativity,
    separability,
    symmetric_covariance,
    variance_to_db,
)
from .gaussian import (
    CovarianceMatrix,
    LossModel,
    ModeBasis,
    PassiveTransform,
    add_losses,
    apply_passive,
    beamsplitter_pm,
    change_basis_pm,
    composite,
    half_wave,
    is_physical,
    make_covariance,
    phase_shift,
    polarization_rotation,
    quarter_wave,
    symplectic_eigenvalues,
    to_basis,
    vacuum_state,
)
from .opo import (
    CoupledStateParams,
    OpoParams,
    below_threshold_covariance,
    below_threshold_variances,
    coupled_covariance,
    twin_difference_spectrum,
)
from .optimize import (
    OptimizationOutcome,
    apply_waveplate_sequence,
    diagonalizing_phase,
    optimize_nonlocal_phase,
)
