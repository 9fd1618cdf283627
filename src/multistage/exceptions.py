"""Exception types shared across the package, and the JSON file loader and
object, integer and number checks that raise one."""

from __future__ import annotations

import gc
import io
import json
from typing import Any, Callable, Iterable, TypeVar

import orjson

T = TypeVar("T")


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


#: ``bytes.translate`` table that maps every digit to ``0``, keeps ``.`` and
#: maps any other byte to a space: an integer part of n digits becomes a space
#: and n zeros, the digits of a fraction follow a ``.``
_DIGIT_SHAPE = bytes(
    ord("0") if b in b"0123456789" else b if b == ord(".") else ord(" ") for b in range(256)
)
_LONG_INTEGER = b"0" * 19
_LONG_FRACTION = b"0" * 750


def _decode(raw: bytes) -> Any:
    """The JSON document in ``raw``: what ``json.load`` of the file in text
    mode returns, or the ``ValueError`` it raises.

    orjson decodes the bytes 3-4 times faster than ``json`` and returns
    json's values for every document it accepts, except for two kinds of
    number: an integer outside [-2^63, 2^64) comes back as a float, and a
    mantissa of more than 768 digits is rounded from its first 768, so a
    tie can round the wrong way. ``json`` therefore decodes a text with a
    run of 19 or more digits that does not follow a ``.`` or a run of 750
    or more digits (every such integer has the first, every such mantissa
    one of the two), and every text orjson rejects: NaN and ±Infinity,
    numbers that overflow to ±inf, lone surrogate escapes, a BOM, invalid
    UTF-8, any syntax error.
    """
    shape = raw.translate(_DIGIT_SHAPE)
    if not (
        b" " + _LONG_INTEGER in shape
        or shape.startswith(_LONG_INTEGER)
        or _LONG_FRACTION in shape
    ):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8") as text:
        return json.load(text)


def load_json(path: str, build: Callable[[Any], T]) -> T:
    """``build`` applied to the JSON document in the file at ``path``; an input
    error naming the file if it is not UTF-8 JSON, or if it nests too deeply
    to decode or build. Every input file is read through here.

    The file's bytes are read once and decoded by :func:`_decode`. The
    cyclic garbage collector is paused for the decode and the build: a
    decoded document holds no reference cycles, so the collections its many
    containers would trigger free nothing. The collector is left as it was
    found, enabled or not, on return and on error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            data = _decode(raw)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise InputFormatError(f"{path}: {exc}") from exc
        return build(data)
    except RecursionError as exc:
        raise InputFormatError(f"{path}: nested too deeply to read") from exc
    finally:
        if enabled:
            gc.enable()


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


def require_node_key(key, what: str) -> int:
    """The node id that a key of a node-indexed object names: an int, or a
    string that is the canonical decimal form of one (``"1"``, not ``"01"``,
    ``" 1"`` or ``"+1"``), so that no two keys of one object name the same
    node; an input error naming ``what`` and the key otherwise."""
    node_id = int(key)
    if isinstance(key, str) and str(node_id) != key:
        raise InputFormatError(f"{what} node key {key!r} must be written {str(node_id)!r}")
    return node_id


def require_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number: an int or a float, never a
    boolean or a string; an input error naming ``what`` otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise InputFormatError(f"{what} must be a number, got {value!r}")


def require_numbers(values, what: str) -> tuple[float, ...]:
    """The entries of a JSON vector, each a JSON number (:func:`require_number`), as floats."""
    return tuple(require_number(x, what) for x in values)


def all_numbers(values: Iterable) -> bool:
    """Whether every entry of ``values`` is a JSON number as :func:`require_number`
    has it, tested once per distinct type: one pass for a whole document's
    entries, where a call per entry would cost more than reading them."""
    return all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, values)))
