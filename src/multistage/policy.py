"""Nonanticipative decision processes on scenario trees.

A :class:`Policy` attaches one decision vector to every tree node, which
makes it adapted to the filtration by construction: the stage-t decision is
a function of the stage-t atom. A :class:`PolicyClass` is a finite feasible
set per node plus one slot map (:meth:`PolicyClass.slots`), which says which
nodes share a decision: every node has a slot, all nodes of one slot take
the same decision, and each slot has a grid of candidates. A policy belongs
to the class when every node's decision lies in its feasible set and every
slot holds one decision. The class's ``kind`` fixes the map:

* ``nodewise``: every node is its own slot, with its feasible set as grid.
  These classes are closed under pasting two members along any measurable
  set, i.e. decomposable by construction.
* ``history_blind``: one slot per stage, whose grid holds the values feasible
  at every node of the stage. With at least two same-stage nodes and two
  candidate values they are the simplest enumerable classes that are not
  decomposable.

Enumeration walks the product of the slot grids, slots in order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .exceptions import (
    EnumerationCapError,
    IncompleteFunctionError,
    InputFormatError,
    all_numbers,
    load_kept,
    require_int,
    require_node_key,
    require_numbers,
    require_object,
)
from .scenario_tree import ScenarioTree

#: default bound on the number of policies an enumeration may produce
DEFAULT_ENUMERATION_CAP = 10_000_000

Decision = tuple[float, ...]


def rebuild_from_fields(obj) -> tuple:
    """``__reduce__`` of a frozen dataclass that holds read-only mappings: its
    class called on its fields, each read-only mapping as a dict, since
    :mod:`pickle` and :mod:`copy` cannot copy a read-only mapping."""
    values = (getattr(obj, f.name) for f in fields(obj))
    return type(obj), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)


@dataclass(frozen=True)
class Policy:
    """One decision vector per tree node; immutable, with ``decisions`` a
    read-only mapping from node ids to tuples of floats."""

    decisions: Mapping[int, Decision]
    decision_dim: int

    __reduce__ = rebuild_from_fields

    def __post_init__(self):
        if not all_numbers(itertools.chain.from_iterable(self.decisions.values())):
            for k, v in self.decisions.items():
                require_numbers(v, f"decision at node {k}")
        normalized = {
            require_node_key(k, "policy"): tuple(map(float, v))
            for k, v in self.decisions.items()
        }
        object.__setattr__(self, "decisions", MappingProxyType(normalized))
        for nid, dec in normalized.items():
            if len(dec) != self.decision_dim:
                raise InputFormatError(
                    f"decision at node {nid} has dimension {len(dec)}, "
                    f"expected {self.decision_dim}"
                )

    @classmethod
    def _of_grids(cls, decisions: dict[int, Decision], decision_dim: int) -> Policy:
        """The policy of ``decisions`` picked from the grids of a
        :class:`PolicyClass` of ``decision_dim``, which hold checked
        decisions already, so they are not checked again."""
        policy = object.__new__(cls)
        object.__setattr__(policy, "decisions", MappingProxyType(decisions))
        object.__setattr__(policy, "decision_dim", decision_dim)
        return policy

    def decision_paths(self, tree: ScenarioTree) -> dict[int, tuple[Decision, ...]]:
        """Every node's decision history, each extending its parent's, top down."""
        out: dict[int, tuple[Decision, ...]] = {}
        for nid in tree.top_down():
            if nid not in self.decisions:
                raise IncompleteFunctionError(f"policy has no decision for node {nid}")
            parent = tree.nodes[nid].parent
            out[nid] = (() if parent is None else out[parent]) + (self.decisions[nid],)
        return out


@dataclass(frozen=True)
class PolicyClass:
    """Finite feasible decision sets per node and a slot map of shared
    decisions; immutable, with ``feasible`` a read-only mapping."""

    feasible: Mapping[int, tuple[Decision, ...]]
    kind: str
    decision_dim: int

    __reduce__ = rebuild_from_fields

    def __post_init__(self):
        if self.kind not in ("nodewise", "history_blind"):
            raise InputFormatError(f"unknown class kind {self.kind!r}")
        grids = self.feasible.values()
        if not all_numbers(itertools.chain.from_iterable(itertools.chain.from_iterable(grids))):
            for k, grid in self.feasible.items():
                for dec in grid:
                    require_numbers(dec, f"feasible decision at node {k}")
        normalized: dict[int, tuple[Decision, ...]] = {}
        for k, grid in self.feasible.items():
            nid = require_node_key(k, "policy class")
            entries = tuple(tuple(map(float, dec)) for dec in grid)
            if not entries:
                raise InputFormatError(f"feasible set at node {nid} is empty")
            for dec in entries:
                if len(dec) != self.decision_dim:
                    raise InputFormatError(
                        f"feasible decision at node {nid} has dimension {len(dec)}, "
                        f"expected {self.decision_dim}"
                    )
            normalized[nid] = entries
        object.__setattr__(self, "feasible", MappingProxyType(normalized))

    # -- structure ---------------------------------------------------------

    def stage_grid(self, tree: ScenarioTree, t: int) -> tuple[Decision, ...]:
        """Values available to every stage-t node at once.

        Ordered like the feasible list of the lowest-id stage-t node,
        filtered to membership in all other same-stage sets.
        """
        ids = tree.stage_nodes(t)
        if not ids:
            return ()
        first = self.feasible[ids[0]]
        rest = [set(self.feasible[i]) for i in ids[1:]]
        return tuple(u for u in first if all(u in s for s in rest))

    def slots(
        self, tree: ScenarioTree
    ) -> tuple[tuple[int, ...], tuple[tuple[Decision, ...], ...]]:
        """Which nodes share a decision: ``(slot_of_node, slot_grids)``.

        ``slot_of_node[n]`` is the slot of node n and ``slot_grids[s]`` the
        candidates of slot s; slots are numbered 0..S-1 in enumeration order.
        A nodewise class gives node n slot n with grid ``feasible[n]``; a
        history-blind class gives every stage-t node slot t with grid
        :meth:`stage_grid`.
        """
        if self.kind == "nodewise":
            return (
                tuple(n.id for n in tree.nodes),
                tuple(self.feasible[n.id] for n in tree.nodes),
            )
        return (
            tuple(n.stage for n in tree.nodes),
            tuple(self.stage_grid(tree, t) for t in range(tree.horizon + 1)),
        )

    def count(self, tree: ScenarioTree) -> int:
        """Number of policies in the class: the product of the slot grid sizes."""
        return math.prod(len(g) for g in self.slots(tree)[1])

    def contains(self, tree: ScenarioTree, policy: Policy) -> bool:
        """Feasibility of a policy in this class (exact membership)."""
        for n in tree.nodes:
            if policy.decisions.get(n.id) not in self.feasible[n.id]:
                return False
        return _split_slot(self.slots(tree)[0], policy) is None


def _split_slot(slot_of: Sequence[int], policy: Policy) -> int | None:
    """The first slot whose nodes hold more than one decision, if any."""
    held: dict[int, set[Decision]] = {}
    for nid, s in enumerate(slot_of):
        held.setdefault(s, set()).add(policy.decisions[nid])
    return min((s for s, decs in held.items() if len(decs) > 1), default=None)


# -- enumeration -------------------------------------------------------------


def _index_product(
    grids: Sequence[Sequence[Decision]], cap: int
) -> Iterator[tuple[int, ...]]:
    """Index tuples into the slot grids, lexicographically; their count is
    checked against ``cap`` before this returns."""
    count = math.prod(len(g) for g in grids)
    if count > cap:
        raise EnumerationCapError(count, cap)
    return itertools.product(*(range(len(g)) for g in grids))


def _policy_at(
    cls: PolicyClass,
    slot_of: Sequence[int],
    grids: Sequence[Sequence[Decision]],
    indices: Sequence[int],
) -> Policy:
    """The policy that gives every node entry ``indices[s]`` of its slot's grid."""
    return Policy._of_grids(
        {nid: grids[s][indices[s]] for nid, s in enumerate(slot_of)}, cls.decision_dim
    )


# -- JSON ----------------------------------------------------------------------


def policy_to_json(policy: Policy) -> dict:
    return {
        "decision_dim": policy.decision_dim,
        "decisions": {str(k): list(v) for k, v in sorted(policy.decisions.items())},
    }


def policy_from_json(data: dict) -> Policy:
    require_object(data, "policy")
    try:
        decisions = require_object(data["decisions"], "policy decisions")
        decision_dim = require_int(data["decision_dim"], "policy decision_dim")
        return Policy(decisions=decisions, decision_dim=decision_dim)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed policy JSON: {exc}") from exc


def policy_class_from_json(data: dict) -> PolicyClass:
    require_object(data, "policy class")
    try:
        feasible = require_object(data["feasible"], "policy class feasible sets")
        return PolicyClass(
            feasible=feasible, kind=str(data["kind"]),
            decision_dim=require_int(data["decision_dim"], "policy class decision_dim"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed policy class JSON: {exc}") from exc


def load_policy(path: str) -> Policy:
    """The policy in the JSON file at ``path``, as :func:`policy_from_json`
    builds it; built once while the file's bytes stay the same
    (:func:`~multistage.exceptions.load_kept`)."""
    return load_kept(path, policy_from_json)
