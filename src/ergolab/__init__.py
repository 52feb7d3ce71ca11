"""ergolab: a numerical laboratory for operator means.

Summability schemes applied to operator powers, their backward iterates,
Kreiss-type resolvent functionals, power-growth estimation, ergodic
projections, and exact coefficient arithmetic for the weighted-shift
examples (Dirichlet spaces, a Cesaro-bounded 3-isometry, modified Shields
spaces).
"""

from .linop import (
    BadDimension,
    DimensionMismatch,
    GramGeometry,
    NonPositiveDefiniteGram,
    OperatorModel,
    as_operator,
    diag_operator,
    dirichlet_shift,
    identity_operator,
    jordan_block,
    load_operator,
    op_norm,
    power,
    random_operator,
    save_operator,
    volterra_operator,
)
from .means import (
    DegenerateRow,
    MeanRow,
    MeanScheme,
    RowOutOfRange,
    SpectralRadiusTooLarge,
    abel,
    apply_mean,
    backit_identity_residual,
    backward_iterate,
    backward_row_from_definition,
    binomial,
    block_mean_residual,
    cesaro,
    cesaro_identity_residuals,
    cesaro_mean_sequence,
    identity_powers,
    mean_norms,
    parse_scheme,
    power_series,
    scalar_mean,
    zweier,
)
from .spectral import (
    AnnulusGrid,
    FunctionalReport,
    SingularResolvent,
    abel_summation_residual,
    kreiss_functional,
    mean_growth_functional,
    partial_sum_functional,
    resolvent_norm,
    resolvent_series_residual,
    uniform_kreiss_mean_bound,
)
from .ergodic import (
    GrowthReport,
    NonPositiveValues,
    NonSimplePole,
    QuotientModel,
    WindowTooSmall,
    almost_convergence_defect,
    alternating_sum_residual,
    ergodic_projection,
    fitted,
    gamma_quotient,
    growth_exponent,
    log_fit,
    mean_convergence_report,
    power_norm_samples,
    power_norm_sequence,
)
from .spaces import (
    BadTruncation,
    TooFewNodes,
    cesaro_multiplier,
    circle_abs_mean,
    d_alpha_norm,
    h1_gram,
    h1_geometry,
    h1_mean_norm,
    h1_mean_pairing,
    h1_norm,
    h1_shift_lower_bound,
    h1_star_norm,
    m_isometry_defect,
    poly_derivative,
    poly_mul,
    shields_report,
    shift_by_z,
    xr_norm,
)

__version__ = "0.1.0"
