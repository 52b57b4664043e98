"""Boosted tree ensembles for arbitrary losses, queried by value only.

The learner never differentiates the loss: weak-hypothesis weights, step
sizes, and decrease guarantees all come from finite secant slopes at nonzero
offsets, with feasibility certified by a chord-over-curve oracle.
"""

from .boost import (
    BoostConfig,
    BoostIterState,
    Ensemble,
    TELEMETRY_COLUMNS,
    convergence_certificate,
    guaranteed_decrease_bound,
    initialize,
    run,
    telemetry_to_csv,
)
from .bregman import ObiQuery, bregman_secant, obi, offset_feasible, q_star
from .data import (
    Dataset,
    FoldPlan,
    dataset_from_columns,
    dataset_from_numeric,
    load_csv,
    stratified_folds,
)
from .errors import (
    ConfigError,
    ConstantLossError,
    DataError,
    DiscontinuityCollisionError,
)
from .leverage import (
    LeveragingResult,
    alpha_from_smoothness,
    edge,
    epsilon_from,
    find_alpha,
    partial_weights,
    second_order_mean,
    w2_from_alpha,
)
from .losses import (
    BUILTIN_NAMES,
    LossSpec,
    empirical_loss,
    inject_label_noise,
    load_table_loss,
    make_builtin,
    register_loss,
    registered_names,
    table_loss,
)
from .offsets import OffsetRequest, find_offset, sanitize_offset
from .trees import WeakHypothesis, max_confidence, nonzero_shift, train_tree
from .vderiv import (
    V_derivative,
    V_derivative_expansion,
    secant_slopes,
    v_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "BoostConfig",
    "BoostIterState",
    "ConfigError",
    "ConstantLossError",
    "DataError",
    "Dataset",
    "DiscontinuityCollisionError",
    "Ensemble",
    "FoldPlan",
    "LeveragingResult",
    "LossSpec",
    "ObiQuery",
    "OffsetRequest",
    "TELEMETRY_COLUMNS",
    "V_derivative",
    "V_derivative_expansion",
    "WeakHypothesis",
    "alpha_from_smoothness",
    "bregman_secant",
    "convergence_certificate",
    "dataset_from_columns",
    "dataset_from_numeric",
    "edge",
    "empirical_loss",
    "epsilon_from",
    "find_alpha",
    "find_offset",
    "guaranteed_decrease_bound",
    "initialize",
    "inject_label_noise",
    "load_csv",
    "load_table_loss",
    "make_builtin",
    "max_confidence",
    "nonzero_shift",
    "obi",
    "offset_feasible",
    "partial_weights",
    "q_star",
    "register_loss",
    "registered_names",
    "run",
    "sanitize_offset",
    "second_order_mean",
    "secant_slopes",
    "stratified_folds",
    "table_loss",
    "telemetry_to_csv",
    "train_tree",
    "v_derivative",
    "w2_from_alpha",
]
