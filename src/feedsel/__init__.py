"""Minimum-cost output-feedback pattern selection for structured systems."""

from .model import (
    INF,
    CostMatrix,
    DimensionError,
    FeedbackPattern,
    PreconditionError,
    SetCoverInstance,
    StructuredSystem,
    cost_of,
    full_pattern,
)
from .graphs import Condensation, condense
from .sfm import SfmVerdict, check_no_sfm
from .solvers import (
    BudgetExceededError,
    Solution,
    dp_cover,
    exact_oracle,
    greedy_set_cover,
    greedy_single_input,
    min_cost_condition_b,
    reduce_set_cover,
    solve_dp,
    two_stage,
)
from .generators import random_line_system, random_single_input_system
from .fileio import (
    SchemaError,
    emit_system,
    load_setcover,
    load_system,
    parse_setcover,
    parse_system,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "BudgetExceededError",
    "Condensation",
    "CostMatrix",
    "DimensionError",
    "FeedbackPattern",
    "PreconditionError",
    "SchemaError",
    "SetCoverInstance",
    "SfmVerdict",
    "Solution",
    "StructuredSystem",
    "check_no_sfm",
    "condense",
    "cost_of",
    "dp_cover",
    "emit_system",
    "exact_oracle",
    "full_pattern",
    "greedy_set_cover",
    "greedy_single_input",
    "load_setcover",
    "load_system",
    "min_cost_condition_b",
    "parse_setcover",
    "parse_system",
    "random_line_system",
    "random_single_input_system",
    "reduce_set_cover",
    "solve_dp",
    "two_stage",
]
