"""Causal order discovery for heavy-tailed linear structural causal models.

Provides closed-form population causal tail coefficients, their rank-based
estimators, extremal ancestral search over coefficient matrices, and a
seeded simulation and benchmark harness, plus a CLI (``heavytail``).
"""

__version__ = "0.1.0"

from .errors import (CapacityError, ConfigError, DomainError, HeavytailError,
                     ModeError, ValidationError)
from .noise import HillEstimate, NoiseSpec, hill_tail_index, sample_noise
from .graph import (CausalOrder, Dag, GeneratorConfig, OrderValidation, Scm,
                    check_path_faithful, path_weights, random_scm, validate_order)
from .data import CoefMatrix, Dataset
from .simulate import GridSpec, Scenario, SimSetting, simulate, simulate_grid
from .oracle import (COMMON_CAUSE, I_CAUSES_J, INDETERMINATE, J_CAUSES_I,
                     NO_CAUSAL_LINK, classify_pair, gamma_population,
                     mistake_bound_margin, psi_population)
from .estimators import (EstimatorConfig, coefficient_matrix, ecdf_values, gamma_estimate,
                         psi_estimate, resolve_k)
from .ease import EaseStep, ease, ease_trace
from .evaluate import (BenchmarkRow, OrderScore, SensitivityRow, benchmark, k_sensitivity,
                       score_order, sensitivity_rows_to_csv)

# the names, not the submodules: "from heavytail import *" binds no module
__all__ = [
    "CapacityError", "ConfigError", "DomainError", "HeavytailError", "ModeError",
    "ValidationError",
    "HillEstimate", "NoiseSpec", "hill_tail_index", "sample_noise",
    "CausalOrder", "Dag", "GeneratorConfig", "OrderValidation", "Scm",
    "check_path_faithful", "path_weights", "random_scm", "validate_order",
    "Dataset",
    "GridSpec", "Scenario", "SimSetting", "simulate", "simulate_grid",
    "COMMON_CAUSE", "I_CAUSES_J", "INDETERMINATE", "J_CAUSES_I", "NO_CAUSAL_LINK",
    "CoefMatrix", "classify_pair", "gamma_population", "mistake_bound_margin",
    "psi_population",
    "EstimatorConfig", "coefficient_matrix", "ecdf_values", "gamma_estimate",
    "psi_estimate", "resolve_k",
    "EaseStep", "ease", "ease_trace",
    "BenchmarkRow", "OrderScore", "SensitivityRow", "benchmark", "k_sensitivity",
    "score_order", "sensitivity_rows_to_csv",
]
