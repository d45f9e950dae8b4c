"""q-weighted digital sums, Takagi-Landsberg curves, and exact
Trollope-Delange identity checks."""

from .digit_sums import (
    S_q_counts,
    S_q_direct,
    S_q_pow2,
    S_q_recursive,
    bit_counts,
    s_q,
)
from .errors import DomainError, ModeError, ParseError, TdqError, VerificationError
from .odometer import (
    FluctuationCurve,
    G_q,
    Normalization,
    OdometerPoint,
    birkhoff_deviation,
    birkhoff_mean,
    ergodic_sum,
    odometer_step,
    phi_curve,
    prop2_R,
    prop2_exact,
    stabilizer_search,
    sup_distance_to_limit,
)
from .scalar import (
    Mode,
    QWeight,
    Regime,
    Scalar,
    as_qweight,
    as_scalar,
    parse_scalar,
)
from .takagi import (
    DeRhamSystem,
    F_q,
    G_tilde_gamma,
    derham_eval,
    fq_system,
    hat_F_q,
    takagi_at,
    takagi_dyadic_exact,
    takagi_grid,
    takagi_series,
    takagi_system,
    tilde_F_q,
    tilde_F_q_log2,
)
from .trollope import (
    classic_formula,
    dyadic_formula,
    larcher_residual,
    theorem1_rhs,
    vdc_star_discrepancy,
)

__version__ = "0.1.0"
