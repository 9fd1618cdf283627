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

The module also provides the bridge between the two representations of a
control process: leaf-indexed tables (one full decision sequence per
trajectory) and node-indexed policies, related by adaptedness checking and
factorization into stagewise functions of the history.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .exceptions import (
    EnumerationCapError,
    IncompleteFunctionError,
    InfeasiblePolicyError,
    InputFormatError,
    NotAdaptedError,
    PastingInfeasibleError,
    UnknownNodeError,
    read_json,
    require_int,
    require_object,
)
from .scenario_tree import ScenarioTree
from .tolerances import ADAPTED_TOL

#: default bound on the number of policies an enumeration may produce
DEFAULT_ENUMERATION_CAP = 10_000_000

Decision = tuple[float, ...]


@dataclass(frozen=True)
class Policy:
    """One decision vector per tree node; immutable."""

    decisions: dict[int, Decision]
    decision_dim: int

    def __post_init__(self):
        normalized = {
            int(k): tuple(map(float, v)) for k, v in self.decisions.items()
        }
        object.__setattr__(self, "decisions", normalized)
        for nid, dec in normalized.items():
            if len(dec) != self.decision_dim:
                raise InputFormatError(
                    f"decision at node {nid} has dimension {len(dec)}, "
                    f"expected {self.decision_dim}"
                )

    def decision_path(self, tree: ScenarioTree, node_id: int) -> tuple[Decision, ...]:
        """Decision history (u_0, ..., u_t) along the root-to-node path."""
        out = []
        for i in tree.path_nodes(node_id):
            if i not in self.decisions:
                raise IncompleteFunctionError(f"policy has no decision for node {i}")
            out.append(self.decisions[i])
        return tuple(out)

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
    """Finite feasible decision sets per node and a slot map of shared decisions."""

    feasible: dict[int, tuple[Decision, ...]]
    kind: str
    decision_dim: int

    def __post_init__(self):
        if self.kind not in ("nodewise", "history_blind"):
            raise InputFormatError(f"unknown class kind {self.kind!r}")
        normalized: dict[int, tuple[Decision, ...]] = {}
        for k, grid in self.feasible.items():
            nid = int(k)
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
        object.__setattr__(self, "feasible", normalized)

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
    return Policy(
        decisions={nid: grids[s][indices[s]] for nid, s in enumerate(slot_of)},
        decision_dim=cls.decision_dim,
    )


def enumerate_policies(
    tree: ScenarioTree, cls: PolicyClass, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Policy]:
    """Every policy of the class exactly once, in reproducible order."""
    slot_of, grids = cls.slots(tree)
    for indices in _index_product(grids, cap):
        yield _policy_at(cls, slot_of, grids, indices)


# -- adaptedness and factorization -------------------------------------------


def _leaf_table(
    tree: ScenarioTree, leafwise: Mapping[int, Sequence[Decision]]
) -> dict[int, tuple[Decision, ...]]:
    table: dict[int, tuple[Decision, ...]] = {}
    for leaf in tree.leaves():
        if leaf not in leafwise:
            raise IncompleteFunctionError(f"leaf {leaf} is missing from the table")
        seq = tuple(tuple(float(x) for x in dec) for dec in leafwise[leaf])
        if len(seq) != tree.horizon + 1:
            raise IncompleteFunctionError(
                f"leaf {leaf}: expected {tree.horizon + 1} stage decisions, got {len(seq)}"
            )
        table[leaf] = seq
    return table


def _agreement(values: Iterable[Decision], tol: float) -> bool:
    it = iter(values)
    ref = next(it)
    for v in it:
        if len(v) != len(ref):
            return False
        if any(abs(a - b) > tol for a, b in zip(ref, v)):
            return False
    return True


def check_adapted(
    tree: ScenarioTree,
    leafwise: Mapping[int, Sequence[Decision]],
    tol: float = ADAPTED_TOL,
) -> bool:
    """Whether a leaf-indexed control table is adapted to the filtration.

    True iff for every stage t and every stage-t node, the stage-t entry
    agrees (within ``tol``) across all leaves below that node.
    """
    table = _leaf_table(tree, leafwise)
    for n in tree.nodes:
        vals = (table[leaf][n.stage] for leaf in tree.leaves_below(n.id))
        if not _agreement(vals, tol):
            return False
    return True


def doob_dynkin_factorize(
    tree: ScenarioTree,
    leafwise: Mapping[int, Sequence[Decision]],
    tol: float = ADAPTED_TOL,
) -> Policy:
    """Factorize an adapted leaf table into one decision per node.

    The stage-t decision of the returned policy at a node is the common
    stage-t value of the table on the leaves below that node; evaluating
    the policy back along each leaf path reproduces the table. Raises
    :class:`NotAdaptedError` naming the offending node otherwise.
    """
    table = _leaf_table(tree, leafwise)
    decisions: dict[int, Decision] = {}
    dim: int | None = None
    for n in tree.nodes:
        leaves = tree.leaves_below(n.id)
        if not _agreement((table[leaf][n.stage] for leaf in leaves), tol):
            raise NotAdaptedError(n.id, n.stage)
        decisions[n.id] = table[leaves[0]][n.stage]
        dim = len(decisions[n.id]) if dim is None else dim
    return Policy(decisions=decisions, decision_dim=dim or 0)


def policy_to_leafwise(
    tree: ScenarioTree, policy: Policy
) -> dict[int, tuple[Decision, ...]]:
    """Evaluate a policy along every leaf path: the inverse of factorization."""
    return {leaf: policy.decision_path(tree, leaf) for leaf in tree.leaves()}


# -- pasting -----------------------------------------------------------------


def paste(
    tree: ScenarioTree,
    cls: PolicyClass,
    u1: Policy,
    u2: Policy,
    leaf_set: Iterable[int],
) -> Policy:
    """Paste two feasible policies along a set of trajectories.

    The result follows ``u1`` at nodes whose descendant leaves all lie in
    ``leaf_set`` and ``u2`` elsewhere. Nodewise classes are closed under
    this operation; for history-blind classes the result can leave the
    class, in which case :class:`PastingInfeasibleError` carries the pasted
    policy as non-decomposability evidence.
    """
    leaves = set(tree.leaves())
    chosen = set(int(i) for i in leaf_set)
    unknown = chosen - leaves
    if unknown:
        raise UnknownNodeError(f"not leaves of the tree: {sorted(unknown)}")
    for name, pol in (("u1", u1), ("u2", u2)):
        if not cls.contains(tree, pol):
            raise InfeasiblePolicyError(f"policy {name} is not feasible in the class")

    decisions: dict[int, Decision] = {}
    for n in tree.nodes:
        inside = set(tree.leaves_below(n.id)) <= chosen
        decisions[n.id] = (u1 if inside else u2).decisions[n.id]
    pasted = Policy(decisions=decisions, decision_dim=cls.decision_dim)

    slot_of = cls.slots(tree)[0]
    split = _split_slot(slot_of, pasted)
    if split is not None:
        ids = tuple(nid for nid, s in enumerate(slot_of) if s == split)
        raise PastingInfeasibleError(tree.node(ids[0]).stage, ids, pasted)
    return pasted


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


def policy_class_to_json(cls: PolicyClass) -> dict:
    return {
        "kind": cls.kind,
        "decision_dim": cls.decision_dim,
        "feasible": {
            str(k): [list(dec) for dec in grid] for k, grid in sorted(cls.feasible.items())
        },
    }


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
    return policy_from_json(read_json(path))
