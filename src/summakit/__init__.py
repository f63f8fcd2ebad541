"""summakit: absolute matrix summability toolkit.

Normal (lower triangular, nonzero diagonal) matrix algebra, weighted-mean
transforms of series, truncated absolute k-norm profiles, boundedness
diagnostics for the summability factor conditions, and a verification
harness that replays the underlying algebraic identities numerically.
"""

__version__ = "0.1.0"

from .conditions import (
    PROBE_DIFFERENCE,
    PROBE_SHIFT,
    ConditionReport,
    L1LkBound,
    TailSpec,
    check_c9,
    check_c10,
    check_c11,
    check_c12,
    check_c13,
    check_c14,
    check_c15,
    check_c16,
    check_theorem_a,
    classify_trend,
    l1_lk_bound,
    probe_deltas,
)
from .errors import (
    BadExponentError,
    ConfigError,
    DegenerateProbeError,
    IndexOutOfRangeError,
    LengthMismatchError,
    MixedArithmeticError,
    PowerOverflowError,
    ShapeMismatchError,
    SizeMismatchError,
    SummakitError,
    TailUnavailableError,
    WeightOverflowError,
    ZeroDiagonalError,
)
from .harness import (
    Decomposition,
    ProbePass,
    build_cnv,
    build_dnr,
    decompose,
    empirical_constant,
    key_identity_check,
    probe_series,
)
from .matrices import (
    NormalMatrix,
    WeightSequence,
    apply_hat,
    apply_lower,
    cesaro_matrix,
    hat_columns,
    hat_inverse,
    hat_of,
    identity_matrix,
    invert_hat,
    make_normal,
    riesz_matrix,
)
from .series import (
    AbsKProfile,
    FactorSequence,
    SeriesSample,
    abs_k_profile,
)

__all__ = [
    "__version__",
    # matrices
    "NormalMatrix",
    "WeightSequence",
    "make_normal",
    "identity_matrix",
    "cesaro_matrix",
    "riesz_matrix",
    "hat_of",
    "hat_columns",
    "hat_inverse",
    "invert_hat",
    "apply_hat",
    "apply_lower",
    # series
    "SeriesSample",
    "FactorSequence",
    "AbsKProfile",
    "abs_k_profile",
    # conditions
    "TailSpec",
    "ConditionReport",
    "L1LkBound",
    "classify_trend",
    "check_c9",
    "check_c10",
    "check_c11",
    "check_c12",
    "check_c13",
    "check_c14",
    "check_c15",
    "check_c16",
    "check_theorem_a",
    "l1_lk_bound",
    "probe_deltas",
    # harness
    "PROBE_DIFFERENCE",
    "PROBE_SHIFT",
    "ProbePass",
    "Decomposition",
    "probe_series",
    "empirical_constant",
    "decompose",
    "key_identity_check",
    "build_cnv",
    "build_dnr",
    # errors
    "SummakitError",
    "ZeroDiagonalError",
    "ShapeMismatchError",
    "LengthMismatchError",
    "SizeMismatchError",
    "TailUnavailableError",
    "BadExponentError",
    "IndexOutOfRangeError",
    "DegenerateProbeError",
    "WeightOverflowError",
    "PowerOverflowError",
    "MixedArithmeticError",
    "ConfigError",
]
