"""Exception types shared across the package, and the JSON file reader and
object, integer and number checks that raise one."""

from __future__ import annotations

import json


class MultistageError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(MultistageError):
    """Malformed or inconsistent problem data (JSON files, constructors)."""


class UnknownNodeError(MultistageError):
    """A node id does not exist in the tree."""


class IncompleteFunctionError(MultistageError):
    """A node-indexed function is missing required entries."""


class EnumerationCapError(MultistageError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"enumeration of {count} items exceeds the cap of {cap}")
        self.count = count
        self.cap = cap


class NotAdaptedError(MultistageError):
    """A leaf-indexed control table is not adapted to the tree filtration."""

    def __init__(self, node_id: int, stage: int):
        super().__init__(
            f"values at stage {stage} disagree across the leaves below node {node_id}; "
            "the table cannot be factorized into stagewise functions"
        )
        self.node_id = node_id
        self.stage = stage


class InfeasiblePolicyError(MultistageError):
    """A policy picks a decision outside the feasible sets of a class."""


class PastingInfeasibleError(MultistageError):
    """Pasting two feasible policies left the class: non-decomposability evidence.

    Carries the offending pasted policy so tests can inspect the witness.
    """

    def __init__(self, stage: int, node_ids: tuple[int, ...], policy):
        super().__init__(
            f"pasted policy is infeasible at stage {stage} (nodes {list(node_ids)}); "
            "the class is not closed under pasting"
        )
        self.stage = stage
        self.node_ids = node_ids
        self.policy = policy


class DecomposableClassRequiredError(MultistageError):
    """Backward recursion was requested for a class where only inequality holds."""

    def __init__(self, kind: str):
        super().__init__(
            f"backward recursion requires a nodewise (decomposable) class, got {kind!r}; "
            "use compute_v/compute_V, which only guarantee the one-sided inequality"
        )
        self.kind = kind


class UnboundedObjectiveError(MultistageError):
    """An objective evaluated to a non-finite value on the feasible grid."""


class ConvergenceError(MultistageError):
    """Fixed-point iteration exhausted its iteration budget."""

    def __init__(
        self, max_iters: int, residuals: list[float], rounding_bounds: list[float]
    ):
        last = residuals[-1] if residuals else float("nan")
        super().__init__(
            f"no convergence within {max_iters} iterations (last residual {last:.3e})"
        )
        self.max_iters = max_iters
        self.residuals = residuals
        self.rounding_bounds = rounding_bounds


def read_json(path: str):
    """The JSON document in the file at ``path``; an input error naming the
    file if it is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise InputFormatError(f"{path}: {exc}") from exc


def require_object(value, what: str) -> dict:
    """``value`` itself if it is a JSON object; an input error naming ``what`` otherwise."""
    if not isinstance(value, dict):
        raise InputFormatError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def require_int(value, what: str) -> int:
    """``value`` as an int if it is a JSON integer: an int, or a float with no
    fractional part such as 2.0, never a boolean; an input error naming
    ``what`` otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputFormatError(f"{what} must be an integer, got {value!r}")


def require_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number: an int or a float, never a
    boolean or a string; an input error naming ``what`` otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise InputFormatError(f"{what} must be a number, got {value!r}")
