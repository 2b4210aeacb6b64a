"""qvmart: pathwise quadratic variation, simple portfolio proportions,
stochastic exponentials, growth-optimal drift inference, and an insider
jump-model stress suite, all seeded and Monte-Carlo verifiable."""

__version__ = "0.1.0"

from .errors import ConfigurationError, ContractViolation
from .path_core import (
    Ensemble,
    TimeGrid,
    qv_matrix,
    refine_and_compare_qv,
)
from .simulate import (
    BrownianModel,
    DriftedDiffusion,
    ModelSpec,
    SeedStream,
    gen_bundles,
    gen_ensemble,
    m_variance,
    make_insider_grid,
)
from .strategy import (
    EvalContext,
    GridRuleStrategy,
    HitRule,
    Leg,
    band_check,
    evaluate,
    h2_norm,
    legs_strategy,
)
from .wealth import (
    UtilityReport,
    dd_residual,
    log_utility,
)
from .inference import (
    BinSpec,
    DriftEstimate,
    decompose,
    estimate_alpha,
    estimate_lambda,
    growth_optimal_value,
    optimality_gap,
)
