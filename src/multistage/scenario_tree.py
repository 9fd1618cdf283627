"""Finite scenario trees: filtered probability spaces in rooted-tree form.

A scenario tree stores a discrete-time process X_0, ..., X_T with finitely
many trajectories. The depth-t nodes are the atoms of the sigma algebra
generated by the first t observations, so conditioning on the history
amounts to selecting a node, and conditional expectations are per-edge
probability-weighted sums over children.

Trees are immutable after construction and all operations here are pure
reads, safe to run concurrently on a shared instance.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .exceptions import InputFormatError, UnknownNodeError, require_int, require_number
from .tolerances import PROB_TOL


class Node(NamedTuple):
    """One atom of the filtration: a tree node at a given stage.

    ``cond_prob`` is the probability of reaching this node given its parent;
    ``obs`` is the realization of X_t on this atom. A node is an immutable
    named tuple, built at tuple speed.
    """

    id: int
    stage: int
    parent: int | None
    cond_prob: float
    obs: tuple[float, ...]


class ScenarioTree:
    """Rooted tree with per-edge conditional probabilities.

    Construction only enforces structural usability (dense ids, a single
    parentless root, acyclic parent links). Probability normalization,
    stage consistency and leaf depth are checked by :func:`validate`,
    which reports violations as data rather than raising.

    A tree is read-only: its attributes cannot be set or deleted, its nodes
    are named tuples and every query returns a tuple, so one tree can be
    shared by every caller.
    """

    def __init__(self, nodes: Sequence[Node], horizon: int, obs_dim: int):
        ordered = tuple(sorted(nodes, key=lambda n: n.id))
        ids = [n.id for n in ordered]
        if ids != list(range(len(ids))):
            raise InputFormatError("node ids must be dense 0..N-1")
        if not ordered or ordered[0].parent is not None:
            raise InputFormatError("node 0 must be the parentless root")

        # ``ordered`` runs in id order, so every child list comes out sorted
        child_lists: dict[int, list[int]] = {n.id: [] for n in ordered}
        for n in ordered:
            if n.parent is None:
                if n.id != 0:
                    raise InputFormatError(f"node {n.id} has no parent but is not the root")
                continue
            if n.parent not in child_lists:
                raise InputFormatError(f"node {n.id} references unknown parent {n.parent}")
            child_lists[n.parent].append(n.id)
        children = {i: tuple(c) for i, c in child_lists.items()}

        # Root paths, each extending its parent's, breadth first from the root;
        # a node this walk does not reach sits on a parent cycle.
        paths: dict[int, tuple[int, ...]] = {0: (0,)}
        order = [0]
        for nid in order:
            for c in children[nid]:
                paths[c] = paths[nid] + (c,)
                order.append(c)
        if len(order) != len(ordered):
            raise InputFormatError("parent links contain a cycle")

        stage_map: dict[int, list[int]] = {}
        for n in ordered:
            stage_map.setdefault(n.stage, []).append(n.id)
        leaves = tuple(n.id for n in ordered if not children[n.id])

        # The leaves run in id order, so every tuple comes out sorted.
        below: dict[int, list[int]] = {n.id: [] for n in ordered}
        for leaf in leaves:
            for nid in paths[leaf]:
                below[nid].append(leaf)

        # set once, past :meth:`__setattr__`, which makes the tree read-only
        self.__dict__.update(
            nodes=ordered,
            horizon=int(horizon),
            obs_dim=int(obs_dim),
            _children=children,
            _paths=paths,
            _top_down=tuple(order),
            _stages={t: tuple(ids) for t, ids in stage_map.items()},
            _leaves=leaves,
            _leaves_below={i: tuple(b) for i, b in below.items()},
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"a ScenarioTree is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a ScenarioTree is read-only: cannot delete {name!r}")

    # -- structure queries -------------------------------------------------

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise UnknownNodeError(f"no node with id {node_id}")
        return self.nodes[node_id]

    def _lookup(self, table: dict, node_id: int):
        try:
            return table[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node with id {node_id}") from None

    def children(self, node_id: int) -> tuple[int, ...]:
        return self._lookup(self._children, node_id)

    def leaves(self) -> tuple[int, ...]:
        return self._leaves

    def leaves_below(self, node_id: int) -> tuple[int, ...]:
        return self._lookup(self._leaves_below, node_id)

    def stage_nodes(self, t: int) -> tuple[int, ...]:
        return self._stages.get(t, ())

    def path_nodes(self, node_id: int) -> tuple[int, ...]:
        """Node ids along the root-to-node path, root first."""
        return self._lookup(self._paths, node_id)

    def top_down(self) -> tuple[int, ...]:
        """Every node id once, each parent before its children: breadth first
        from the root, siblings in id order. Ids need not put parents first."""
        return self._top_down

    def __len__(self) -> int:
        return len(self.nodes)


def validate(tree: ScenarioTree) -> list[str]:
    """Check every tree invariant and return a description per violation.

    An empty list means the tree is a well-formed finite filtered space:
    the root carries probability one, every edge probability is in (0, 1],
    children probabilities sum to one, parent stages precede child stages
    by one, and every leaf sits at the final stage.
    """
    problems: list[str] = []
    if tree.horizon < 0:
        problems.append(f"horizon {tree.horizon} is negative")
    for n in tree.nodes:
        if len(n.obs) != tree.obs_dim:
            problems.append(
                f"node {n.id}: observation has dimension {len(n.obs)}, expected {tree.obs_dim}"
            )
        if not 0 <= n.stage <= tree.horizon:
            problems.append(f"node {n.id}: stage {n.stage} outside 0..{tree.horizon}")
        if n.parent is None:
            if abs(n.cond_prob - 1.0) > PROB_TOL:
                problems.append(f"node {n.id}: root conditional probability {n.cond_prob} != 1")
        else:
            parent = tree.nodes[n.parent]
            if parent.stage != n.stage - 1:
                problems.append(
                    f"node {n.id}: parent {n.parent} at stage {parent.stage}, "
                    f"expected stage {n.stage - 1}"
                )
            if not 0.0 < n.cond_prob <= 1.0 + PROB_TOL:
                problems.append(
                    f"node {n.id}: conditional probability {n.cond_prob} outside (0, 1]"
                )
        kids = tree.children(n.id)
        if kids:
            total = sum(tree.nodes[c].cond_prob for c in kids)
            if abs(total - 1.0) > PROB_TOL:
                problems.append(
                    f"node {n.id}: children probabilities sum to {total!r}, not 1"
                )
        elif n.stage != tree.horizon:
            problems.append(
                f"node {n.id}: leaf at stage {n.stage}, expected leaves only at stage "
                f"{tree.horizon}"
            )
    return problems


def path(tree: ScenarioTree, node_id: int) -> tuple[tuple[float, ...], ...]:
    """Observations (x_0, ..., x_t) along the root-to-node path."""
    return tuple(tree.nodes[i].obs for i in tree.path_nodes(node_id))


def unconditional_probability(tree: ScenarioTree, node_id: int) -> float:
    """Probability of reaching the node: product of edge probabilities."""
    prob = 1.0
    for i in tree.path_nodes(node_id):
        prob *= tree.nodes[i].cond_prob
    return prob


# -- JSON ------------------------------------------------------------------


def tree_from_json(data: dict) -> ScenarioTree:
    """Tree from ``{"horizon", "obs_dim", "nodes": [...]}``, a node
    ``{"id", "stage", "parent", "cond_prob", "obs"}`` with ``parent`` left out
    or null at the root; raises on malformed input. ``cond_prob`` and the
    ``obs`` entries must be JSON numbers (``require_number``)."""
    try:
        horizon = require_int(data["horizon"], "tree horizon")
        obs_dim = require_int(data["obs_dim"], "tree obs_dim")
        nodes = [
            Node(
                require_int(entry["id"], "node id"),
                require_int(entry["stage"], "node stage"),
                None if entry.get("parent") is None
                else require_int(entry["parent"], "node parent"),
                require_number(entry["cond_prob"], "node cond_prob"),
                tuple(require_number(x, "node obs entry") for x in entry["obs"]),
            )
            for entry in data["nodes"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed tree JSON: {exc}") from exc
    return ScenarioTree(nodes, horizon=horizon, obs_dim=obs_dim)

