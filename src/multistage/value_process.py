"""Intermediate value functions and value processes on finite trees.

Two value functions are attached to every node and decision history:

* v_t(node, u_{0..t}): best conditional cost over all feasible tail
  decisions for stages t+1..T, after the stage-t decision was made.
* V_t(node, u_{0..t-1}): the same before the stage-t decision, i.e. the
  minimum of v_t over the stage-t candidates. V_0 at the root with empty
  history is the optimal value of the whole problem.

On a finite tree with finite grids the essential infimum over a family of
tail controls is the pointwise minimum, so both functions are computed
exactly. Two independent routes are provided: definitional enumeration of
tail decisions (``compute_v``/``compute_V``, valid for every class), and
backward recursion (``backward_tables``, valid for nodewise classes, where
the interchange of minimum and conditional expectation is an identity).
``brute_force_optimum`` enumerates whole policies and serves as the oracle
for the recursion.

The definitional route keeps one cache per call of ``compute_v``,
``compute_V``, ``check_dynamic_relations`` or the history-blind
``value_process_for_policy``: per leaf, the objective on the leaf's whole
path grid product (one ``CostSpec.evaluate_grid`` call); v per
(node, head); and per node, its tail axes, whose count is checked against
the cap before anything is evaluated. v_t(node, head) slices every leaf
array below the node at the head, adds rel_prob * slice into one
accumulator over the node's whole tail product (leaves in order, from
0.0, as ``tail_conditional_value`` adds them) and takes the joint minimum
over that product. It never nests minima and expectations, which would
be the recursion. A leaf's array is built at the first head on the grids
asked of it, as long as the leaf arrays stay within ``cap`` entries in all;
past that budget, and for heads off the grids (or holding a -0.0 where the
grid has 0.0, or the reverse), the leaf is evaluated for the one head asked,
with the head given as one-point grids. Memory: the leaf arrays hold at
most ``cap`` float64 entries in all, the accumulator at most ``cap``, and
one weighted leaf slice at most the accumulator's size, plus the working
arrays of the ``evaluate_grid`` call that builds a leaf array. So ``cap``
bounds memory as well as work: about three times ``cap`` float64 entries,
240 MB at the default cap of 10^7 (measured peaks: 1.0 to 2.3 times
``cap`` entries, on chain and binary trees).

Decision histories are free parameters of the value functions: they need
not be feasible for the class, only the tail being optimized is
constrained. Tables, however, materialize grid histories only: one array
per node, with one axis per node on its root path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .costs import CostSpec, holder_pairs
from .exceptions import (
    DecomposableClassRequiredError,
    EnumerationCapError,
    IncompleteFunctionError,
    InfeasiblePolicyError,
    MultistageError,
)
from .policy import (
    DEFAULT_ENUMERATION_CAP,
    Decision,
    Policy,
    PolicyClass,
    _index_product,
    _policy_at,
)
from .scenario_tree import ScenarioTree, path, unconditional_probability

History = tuple[Decision, ...]


def essential_infimum(
    family: Sequence[Mapping[int, float]]
) -> dict[int, float]:
    """Pointwise minimum of a finite nonempty family of node-indexed maps.

    On a finite space this is the essential infimum: it is a lower bound of
    the family and dominates every other lower bound. The fold order over
    the family is immaterial.
    """
    if not family:
        raise MultistageError("essential infimum of an empty family is undefined")
    keys = set(family[0])
    for f in family[1:]:
        if set(f) != keys:
            raise IncompleteFunctionError("family members are defined on different node sets")
    return {k: min(f[k] for f in family) for k in sorted(keys)}


# -- definitional route ----------------------------------------------------------


def tail_conditional_value(
    tree: ScenarioTree,
    cost: CostSpec,
    node_id: int,
    u_head: History,
    tail: Mapping[int, Decision],
) -> float:
    """Conditional expected cost at a node for one head history and one tail.

    The head covers stages 0..t (t the node's stage); the tail assigns a
    decision to every strict descendant. The result is the probability
    weighted average, over leaves below the node, of the objective on the
    leaf trajectory with the decisions read off head and tail.
    """
    stage = tree.node(node_id).stage
    if len(u_head) != stage + 1:
        raise MultistageError(
            f"head history has length {len(u_head)}, expected {stage + 1}"
        )
    total = 0.0
    for leaf in tree.leaves_below(node_id):
        rel_prob = 1.0
        decisions = list(u_head)
        for nid in tree.path_nodes(leaf)[stage + 1:]:
            rel_prob *= tree.nodes[nid].cond_prob
            if nid not in tail:
                raise IncompleteFunctionError(f"tail is missing node {nid}")
            decisions.append(tail[nid])
        total += rel_prob * cost.evaluate(path(tree, leaf), decisions)
    return total


def _exact(u: Decision):
    """A dict key for a decision that tells -0.0 from 0.0 (they compare equal)."""
    if 0.0 in u:
        return u, tuple(math.copysign(1.0, x) for x in u)
    return u


class _Definitional:
    """v_t and V_t by direct minimization over every feasible tail, with reuse.

    A tail assigns a decision to every strict descendant of a node, one axis
    per distinct slot below the node (sorted), shared by the slot's nodes.
    The slot map is read once; ``grids[slot_of[n]]`` are node n's
    candidates. The cache is the one the module docstring describes. Heads
    are matched to grid positions and memo keys by ``_exact``, so a signed
    zero reads the entry of the same sign, as ``tail_conditional_value``
    would.
    """

    def __init__(self, tree: ScenarioTree, cost: CostSpec, cls: PolicyClass, cap: int):
        self.tree = tree
        self.cost = cost
        self.cap = cap
        self.slot_of, self.grids = cls.slots(tree)
        self._first: list[dict] = []  # per slot: first grid position of each decision
        for grid in self.grids:
            first: dict = {}
            for k, u in enumerate(grid):
                first.setdefault(_exact(u), k)
            self._first.append(first)
        self._tails: dict[int, tuple] = {}
        self._leaf_values: dict[int, np.ndarray] = {}
        self._leaf_entries = 0
        self._v: dict[tuple, float] = {}

    def candidates(self, node_id: int) -> tuple[Decision, ...]:
        """A node's candidates: the grid of its slot."""
        return self.grids[self.slot_of[node_id]]

    def _tail(self, node_id: int):
        """The node's stage, tail product shape and per-leaf broadcast data.

        Per leaf below the node: the leaf, its probability given the node,
        and the axis order and shape that place its tail slice on the tail
        product.
        """
        if node_id in self._tails:
            return self._tails[node_id]
        tree = self.tree
        stage = tree.node(node_id).stage
        below = {leaf: tree.path_nodes(leaf)[stage + 1:] for leaf in tree.leaves_below(node_id)}
        tail_slots = sorted({self.slot_of[nid] for nids in below.values() for nid in nids})
        axis = {s: k for k, s in enumerate(tail_slots)}
        shape = tuple(len(self.grids[s]) for s in tail_slots)
        count = math.prod(max(n, 1) for n in shape)
        if count > self.cap:
            raise EnumerationCapError(count, self.cap)
        if 0 in shape:
            raise MultistageError(f"no feasible tails below node {node_id}")
        leaves = []
        for leaf, nids in below.items():
            rel_prob = 1.0
            for nid in nids:
                rel_prob *= tree.nodes[nid].cond_prob
            positions = [axis[self.slot_of[nid]] for nid in nids]
            order = sorted(range(len(nids)), key=positions.__getitem__)
            bshape = [1] * len(shape)
            for p in positions:
                bshape[p] = shape[p]
            leaves.append((leaf, rel_prob, order, tuple(bshape)))
        self._tails[node_id] = (stage, shape, leaves)
        return self._tails[node_id]

    def _leaf_grid_values(self, leaf: int) -> np.ndarray | None:
        """Objective on the leaf's whole path grid product, or None past the budget.

        Built once per leaf, as long as the leaf arrays hold at most ``cap``
        entries in all.
        """
        if leaf in self._leaf_values:
            return self._leaf_values[leaf]
        grids = [self.candidates(nid) for nid in self.tree.path_nodes(leaf)]
        size = math.prod(len(g) for g in grids)
        if self._leaf_entries + size > self.cap:
            return None
        self._leaf_entries += size
        values = self.cost.evaluate_grid(path(self.tree, leaf), grids)
        self._leaf_values[leaf] = values
        return values

    def v(self, node_id: int, u_head: History) -> float:
        """v_t at a node for a head history of stages 0..t."""
        stage, shape, leaves = self._tail(node_id)
        head = tuple(tuple(u) for u in u_head)
        if len(head) != stage + 1:
            raise MultistageError(
                f"head history has length {len(head)}, expected {stage + 1}"
            )
        key = (node_id, tuple(_exact(u) for u in head))
        if key in self._v:
            return self._v[key]
        index: tuple | None = ()
        for nid, u in zip(self.tree.path_nodes(node_id), key[1]):
            k = self._first[self.slot_of[nid]].get(u)
            if k is None:
                index = None
                break
            index += (k,)
        acc = np.zeros(shape)
        for leaf, rel_prob, order, bshape in leaves:
            values = None
            if index is not None:
                values = self._leaf_grid_values(leaf)
            if values is None:
                below = self.tree.path_nodes(leaf)[stage + 1:]
                grids = [(u,) for u in head] + [self.candidates(nid) for nid in below]
                values = self.cost.evaluate_grid(path(self.tree, leaf), grids)
                tail = values[(0,) * len(head) + (...,)]
            else:
                tail = values[index + (...,)]
            acc += (rel_prob * tail).transpose(order).reshape(bshape)
        value = float(_first_min(acc.reshape(-1)))
        self._v[key] = value
        return value

    def V(self, node_id: int, u_head: History) -> float:
        """V_t at a node: minimum of v_t over the stage-t candidates."""
        stage = self.tree.node(node_id).stage
        if len(u_head) != stage:
            raise MultistageError(
                f"head history has length {len(u_head)}, expected {stage}"
            )
        candidates = self.candidates(node_id)
        if not candidates:
            raise MultistageError(f"empty feasible set at node {node_id}")
        head = tuple(u_head)
        return min(self.v(node_id, head + (u,)) for u in candidates)


def compute_v(
    tree: ScenarioTree,
    cost: CostSpec,
    cls: PolicyClass,
    node_id: int,
    u_head: History,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """v_t at a node by direct minimization over all feasible tails."""
    return _Definitional(tree, cost, cls, cap).v(node_id, u_head)


def compute_V(
    tree: ScenarioTree,
    cost: CostSpec,
    cls: PolicyClass,
    node_id: int,
    u_head: History,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """V_t at a node: minimum of v_t over the stage-t candidates."""
    return _Definitional(tree, cost, cls, cap).V(node_id, u_head)


# -- backward recursion -------------------------------------------------------


@dataclass
class ValueTables:
    """v and V on every node as dense arrays over the grids along its root path.

    ``axes[node]`` lists the feasible grids of the nodes on the root path
    (root first). ``v[node]`` has one axis per grid: its entry
    (k_0, ..., k_t) is v_t(node, h) for the history h that picks entry k_s
    of grid s. ``V[node]`` drops the node's own axis and holds V_t(node, h)
    for the stage 0..t-1 part of such a history. :meth:`index` maps a
    decision history to its grid positions.
    """

    v: dict[int, np.ndarray]
    V: dict[int, np.ndarray]
    axes: dict[int, tuple[tuple[Decision, ...], ...]]

    def index(self, node_id: int, hist: History) -> tuple[int, ...]:
        """Grid positions of a decision history along the node's root path.

        A history of the full path length indexes ``v[node_id]``, one entry
        shorter ``V[node_id]``; a decision listed twice in a grid maps to its
        first position.
        """
        axes = self.axes[node_id]
        if len(hist) > len(axes):
            raise MultistageError(
                f"history of length {len(hist)} is longer than the path to node {node_id}"
            )
        try:
            return tuple(grid.index(u) for grid, u in zip(axes, hist))
        except ValueError:
            raise MultistageError(
                f"decision history {hist!r} leaves the grids on the path to node {node_id}"
            ) from None

    @property
    def root_value(self) -> float:
        """Optimal value of the problem: V_0 at the root with empty history."""
        return float(self.V[0][()])


def _first_min(values: np.ndarray) -> np.ndarray:
    """Minimum over the last axis, as Python's ``min`` picks it.

    Equal nonzero floats are identical, so only a zero minimum can differ
    (+0.0 against -0.0); then the entry at the first ``argmin`` is read.
    """
    low = values.min(axis=-1)
    if low.all():
        return low
    best = values.argmin(axis=-1)[..., None]
    return np.take_along_axis(values, best, axis=-1)[..., 0]


def backward_tables(
    tree: ScenarioTree,
    cost: CostSpec,
    cls: PolicyClass,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ValueTables:
    """Backward recursion for nodewise classes.

    Stage T seeds v with the raw objective on each leaf's grid product; then,
    walking backwards, V_t(node, .) is the stage minimum of v_t over the
    node's own axis and v_t(node, .) the conditional expectation of V_{t+1}
    over the children. For nodewise (decomposable) classes this reproduces
    the definitional values exactly; other classes are refused because only
    the one-sided inequality holds for them.
    """
    if cls.kind != "nodewise":
        raise DecomposableClassRequiredError(cls.kind)

    total_entries = 0
    for n in tree.nodes:
        count = 1
        for i in tree.path_nodes(n.id):
            count *= len(cls.feasible[i])
        total_entries += count
        if total_entries > cap:
            raise EnumerationCapError(total_entries, cap)

    axes = {
        n.id: tuple(cls.feasible[i] for i in tree.path_nodes(n.id)) for n in tree.nodes
    }
    v: dict[int, np.ndarray] = {}
    V: dict[int, np.ndarray] = {}
    for t in range(tree.horizon, -1, -1):
        for nid in tree.stage_nodes(t):
            if t == tree.horizon:
                v[nid] = cost.evaluate_grid(path(tree, nid), axes[nid])
            else:
                acc = np.zeros(tuple(len(g) for g in axes[nid]))
                for c in tree.children(nid):
                    acc = acc + tree.nodes[c].cond_prob * V[c]
                v[nid] = acc
            V[nid] = _first_min(v[nid])
    return ValueTables(v=v, V=V, axes=axes)


def greedy_policy_from_tables(
    tree: ScenarioTree, cls: PolicyClass, tables: ValueTables
) -> Policy:
    """First-argmin policy read off the v tables, walking the tree downward."""
    decisions: dict[int, Decision] = {}

    def descend(node_id: int, idx: tuple[int, ...]):
        best = int(tables.v[node_id][idx].argmin())
        decisions[node_id] = cls.feasible[node_id][best]
        for c in tree.children(node_id):
            descend(c, idx + (best,))

    descend(0, ())
    return Policy(decisions=decisions, decision_dim=cls.decision_dim)


# -- brute force ---------------------------------------------------------------


def expected_value(tree: ScenarioTree, cost: CostSpec, policy: Policy) -> float:
    """E v(X, U): probability weighted objective over all leaf trajectories."""
    total = 0.0
    for leaf in tree.leaves():
        total += unconditional_probability(tree, leaf) * cost.evaluate(
            path(tree, leaf), policy.decision_path(tree, leaf)
        )
    return total


def _leaf_codes(
    tree: ScenarioTree, slot_of: Sequence[int], grids: Sequence[Sequence[Decision]]
):
    """Per leaf: probability, slot positions along the path and mixed-radix strides.

    The code sum(index * stride) of a decision history is its position in
    the C-order ravel of the leaf's grid-product array.
    """
    leaf_data = []
    for leaf in tree.leaves():
        prob = unconditional_probability(tree, leaf)
        positions = [slot_of[i] for i in tree.path_nodes(leaf)]
        strides = []
        acc = 1
        for p in reversed(positions):
            strides.append(acc)
            acc *= len(grids[p])
        strides.reverse()
        leaf_data.append((leaf, prob, positions, strides))
    return leaf_data


def brute_force_optimum(
    tree: ScenarioTree,
    cost: CostSpec,
    cls: PolicyClass,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[float, Policy]:
    """Exhaustive minimum of E v(X, U) over every policy of the class.

    Ties go to the first minimizer in enumeration order. The objective is
    evaluated once per (leaf, decision history along the leaf) pair, on the
    leaf's whole grid product at once, and the policy sweep only recombines
    those cached values, so the scan stays independent of the backward
    recursion it serves as an oracle for.
    """
    slot_of, grids = cls.slots(tree)
    policies = _index_product(grids, cap)

    caches = []
    for leaf, prob, positions, strides in _leaf_codes(tree, slot_of, grids):
        values = cost.evaluate_grid(path(tree, leaf), [grids[p] for p in positions])
        caches.append((prob, positions, strides, values.ravel()))

    best_value = None
    best_indices = None
    for indices in policies:
        total = 0.0
        for prob, positions, strides, values in caches:
            code = 0
            for p, s in zip(positions, strides):
                code += indices[p] * s
            total += prob * values[code]
        if best_value is None or total < best_value:
            best_value = total
            best_indices = indices
    if best_value is None:
        raise MultistageError("the policy class is empty")
    return best_value, _policy_at(cls, slot_of, grids, best_indices)


# -- value processes -----------------------------------------------------------


def value_process_for_policy(
    tree: ScenarioTree,
    cost: CostSpec,
    cls: PolicyClass,
    policy: Policy,
    tables: ValueTables | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[dict[int, float], dict[int, float]]:
    """The adapted processes v_t(X, U) and V_t(X, U) as node-indexed maps.

    For nodewise classes the values are read from the backward tables (built
    on demand); for other classes they are computed definitionally, since
    the recursion is not valid there.
    """
    if not cls.contains(tree, policy):
        raise InfeasiblePolicyError("policy is not feasible in the class")
    v_proc: dict[int, float] = {}
    V_proc: dict[int, float] = {}
    if cls.kind == "nodewise":
        if tables is None:
            tables = backward_tables(tree, cost, cls, cap=cap)
        for n in tree.nodes:
            idx = tables.index(n.id, policy.decision_path(tree, n.id))
            v_proc[n.id] = float(tables.v[n.id][idx])
            V_proc[n.id] = float(tables.V[n.id][idx[:-1]])
    else:
        route = _Definitional(tree, cost, cls, cap)
        for n in tree.nodes:
            hist = policy.decision_path(tree, n.id)
            v_proc[n.id] = route.v(n.id, hist)
            V_proc[n.id] = route.V(n.id, hist[:-1])
    return v_proc, V_proc


# -- Hoelder propagation --------------------------------------------------------


def holder_table_violation(
    tree: ScenarioTree,
    tables: ValueTables,
    C: float,
    alpha: float,
    delta: float,
) -> float:
    """Worst excess of |v_t(n,h1) - v_t(n,h2)| over C ||h1-h2||^alpha.

    Conditional expectations and pointwise minima are nonexpansive, so a
    Hoelder bound verified on the raw objective must survive into every
    value table; the returned excess should not exceed numerical slack.
    """
    worst = -float("inf")
    for nid, table in tables.v.items():
        hists = list(itertools.product(*tables.axes[nid]))
        dist, dv = holder_pairs(hists, table.ravel(), delta)
        if len(dist):
            excess = (dv - C * dist ** alpha).max()
            worst = max(worst, float(excess))
    return worst if worst > -float("inf") else 0.0
