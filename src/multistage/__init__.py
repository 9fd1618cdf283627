"""Multistage stochastic optimization on finite scenario trees.

The package makes the measure-theoretic picture of multistage problems
executable at desk scale: scenario trees carry the filtration, policies
attach decisions to its atoms, intermediate value functions are computed
both by backward recursion and by exhaustive enumeration, optimality of a
policy is verified through the martingale property of its value processes,
and the classical dynamic-programming recursions (additive costs, Markov
decision processes, stationary fixed points, stagewise independent noise)
fall out as special cases.
"""

from .bundle import (
    ProblemBundle,
    bundle_from_json,
    load_bundle,
    load_mdp,
    load_stagewise,
)
from .costs import CostSpec, verify_holder
from .dp_solvers import (
    MDPSpec,
    SddpSpec,
    ShiftedProcess,
    ValueIterationResult,
    lag_recursion_check,
    mdp_backward_induction,
    mdp_from_json,
    sddp_from_json,
    sddp_recursion,
    sddp_to_mdp,
    sddp_to_product_tree,
    tilde_shift,
    unroll_mdp_to_tree,
    value_iteration,
)
from .exceptions import (
    ConvergenceError,
    DecomposableClassRequiredError,
    EnumerationCapError,
    IncompleteFunctionError,
    InfeasiblePolicyError,
    InputFormatError,
    MultistageError,
    UnboundedObjectiveError,
    UnknownNodeError,
)
from .policy import Policy, PolicyClass
from .scenario_tree import Node, ScenarioTree, tree_from_json, validate
from .value_process import (
    ValueTables,
    backward_tables,
    brute_force_optimum,
    compute_V,
    compute_v,
    expected_value,
    greedy_policy_from_tables,
    tail_conditional_value,
    value_process_for_policy,
)
from .verification import (
    DynamicRelationsReport,
    InterchangeReport,
    MartingaleReport,
    check_dynamic_relations,
    check_submartingale,
    interchange_gap,
    interchange_monotone,
    verify_policy,
)

__version__ = "0.1.0"

__all__ = [
    "CostSpec",
    "ConvergenceError",
    "DecomposableClassRequiredError",
    "DynamicRelationsReport",
    "EnumerationCapError",
    "IncompleteFunctionError",
    "InfeasiblePolicyError",
    "InputFormatError",
    "InterchangeReport",
    "MDPSpec",
    "MartingaleReport",
    "MultistageError",
    "Node",
    "Policy",
    "PolicyClass",
    "ProblemBundle",
    "ScenarioTree",
    "SddpSpec",
    "ShiftedProcess",
    "UnboundedObjectiveError",
    "UnknownNodeError",
    "ValueIterationResult",
    "ValueTables",
    "backward_tables",
    "brute_force_optimum",
    "bundle_from_json",
    "check_dynamic_relations",
    "check_submartingale",
    "compute_V",
    "compute_v",
    "expected_value",
    "greedy_policy_from_tables",
    "interchange_gap",
    "interchange_monotone",
    "lag_recursion_check",
    "load_bundle",
    "load_mdp",
    "load_stagewise",
    "mdp_backward_induction",
    "mdp_from_json",
    "sddp_from_json",
    "sddp_recursion",
    "sddp_to_mdp",
    "sddp_to_product_tree",
    "tail_conditional_value",
    "tilde_shift",
    "tree_from_json",
    "unroll_mdp_to_tree",
    "validate",
    "value_iteration",
    "value_process_for_policy",
    "verify_holder",
    "verify_policy",
]
