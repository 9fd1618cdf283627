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
``brute_force_optimum``, the oracle for the recursion, is the definitional
route's minimum at the root: V_0 with empty history, with its minimizer.

Both routes read the objective on whole leaf grid products through
``costs.leaf_batches``: one ``CostSpec.evaluate_leaves`` call per batch of
leaves with equal grid sizes, a leaf axis in front. The recursion takes each
leaf's v as a view of its batch and the V of a whole batch with one
``_first_min``. That evaluator is the shared definition of the objective;
each route keeps its own arithmetic on the leaf values.

The definitional route keeps one cache per call of ``compute_v``,
``compute_V``, ``brute_force_optimum``, ``check_dynamic_relations`` or
the history-blind ``value_process_for_policy``: per leaf, the objective
on the leaf's whole path grid product; per node, its tail axes, whose
count is checked against the cap before anything is evaluated, and its
prefix length; and per (node, head prefix of that length) a block, v_t
over every grid continuation of the prefix to stage t. One rule picks
the prefix length of a stage-t node: the shortest of t - 1 (the parent's
and the node's own decision free; the root has no parent, so its own
alone, at 0), t (the parent's decision fixed) and t + 1 (the whole head
fixed) whose block, free head axes times tail product, holds at most
``cap`` entries. The last always fits, since the tails do. A block takes
one pass over the leaves below the node: each leaf array is sliced at
the prefix, and rel_prob * slice is added into one accumulator over the
free head axes and the node's whole tail product (leaves in order, from
0.0, as ``tail_conditional_value`` adds them); the joint minimum over
the tail product then gives v_t for every continuation. Every v, V and
``V_next`` query reads these blocks: a head at least as long as the
prefix indexes one block, and a shorter one stacks the blocks over the
grid entries it leaves free. V_t is the minimum of a block row over the
node's candidates. It never nests minima and expectations, which would
be the recursion. ``check_dynamic_relations`` and the history-blind
``value_process_for_policy`` build each block once. A head off the grids
(or holding a -0.0 where the grid has 0.0, or the reverse) takes one
uncached pass at the head itself, which fits ``cap`` because the head is
at least as long as the prefix (a shorter one stacks passes over its
free grid entries). An on-grid pass starts with one batched call that
builds the arrays of its leaves not built yet, as long as the leaf
arrays stay within ``cap`` entries in all, decided leaf by leaf in
order. A leaf past that budget, and every leaf in a pass off the grids,
is evaluated for the one prefix asked, given as one-point grids. Every
entry goes through the same float operations either way. Memory: the
leaf arrays hold at most ``cap`` float64 entries in all, the accumulator
at most ``cap``, and one weighted leaf slice at most the accumulator's
size, plus the working arrays of one batch (a few arrays of
``costs.LEAF_BATCH_ENTRIES`` entries, or of one larger leaf). So ``cap`` bounds memory as well as
work: about three times ``cap`` float64 entries, 240 MB at the default
cap of 10^7 (measured peaks: 1.0 to 2.3 times ``cap`` entries, on chain
and binary trees), for ``solve``'s brute force as for ``verify`` and
``dynamic-check``. A fixed part of some 10 to 20 KB comes on top and
dominates at small caps (brute-force peaks of 26.4 times ``cap`` entries
at cap 96 and 621.5 times at cap 2, in ``BENCH_30.json``).

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

from .costs import CostSpec, holder_pairs, leaf_arrays, leaf_batches
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
    _policy_at,
)
from .scenario_tree import ScenarioTree, path, unconditional_probability

History = tuple[Decision, ...]


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
    candidates. The cache is the one the module docstring describes: v, V
    and :meth:`V_next` at a node read its blocks (:meth:`_values`), v_t
    over the grid continuations of a head prefix whose length one rule
    fixes per node (:meth:`_tail`), each built by one leaf pass
    (:meth:`_accumulate`). Heads are
    matched to grid positions by ``_exact``, so a signed zero reads the
    entry of the same sign, as ``tail_conditional_value`` would; a head off
    the grids takes one uncached pass of its own.
    """

    def __init__(self, tree: ScenarioTree, cost: CostSpec, cls: PolicyClass, cap: int):
        self.tree = tree
        self.cost = cost
        self.cap = cap
        self.slot_of, self.grids = cls.slots(tree)
        firsts: list[dict] = []  # per slot: first grid position of each decision
        for grid in self.grids:
            first: dict = {}
            for k, u in enumerate(grid):
                first.setdefault(_exact(u), k)
            firsts.append(first)
        self._node_first = [firsts[s] for s in self.slot_of]  # per node: its slot's dict
        self._tails: dict[int, tuple] = {}
        self._leaf_values: dict[int, np.ndarray] = {}
        self._leaf_entries = 0
        self._blocks: dict[tuple, np.ndarray] = {}

    def candidates(self, node_id: int) -> tuple[Decision, ...]:
        """A node's candidates: the grid of its slot."""
        return self.grids[self.slot_of[node_id]]

    def _free_shape(self, node_id: int, p: int) -> tuple[int, ...]:
        """Grid sizes of a node's root path from stage p on: the free head
        axes after a prefix of length p."""
        return tuple(len(self.candidates(nid)) for nid in self.tree.path_nodes(node_id)[p:])

    def _tail(self, node_id: int):
        """The node's stage, tail slots, tail shape, per-leaf data and prefix length.

        The tail slots are the slots below the node, sorted: one axis each.
        Per leaf below the node: the leaf, its probability given the node,
        and the axis order (None if the slice's axes are already in slot
        order) and shape that place its tail slice on the tail product. The
        prefix length is that of the node's blocks: the shortest of t - 1,
        t and t + 1 (0 and 1 at the root) whose block, the free head axes
        times the tail product, holds at most ``cap`` entries.
        """
        if node_id in self._tails:
            return self._tails[node_id]
        tree, slot_of = self.tree, self.slot_of
        stage = tree.node(node_id).stage
        below = [(leaf, tree.path_nodes(leaf)[stage + 1:]) for leaf in tree.leaves_below(node_id)]
        tail_slots = sorted({slot_of[nid] for _, nids in below for nid in nids})
        axis = {s: k for k, s in enumerate(tail_slots)}
        shape = tuple(len(self.grids[s]) for s in tail_slots)
        count = math.prod(max(n, 1) for n in shape)
        if count > self.cap:
            raise EnumerationCapError(count, self.cap)
        if 0 in shape:
            raise MultistageError(f"no feasible tails below node {node_id}")
        leaves = []
        for leaf, nids in below:
            rel_prob = 1.0
            for nid in nids:
                rel_prob *= tree.nodes[nid].cond_prob
            positions = [axis[slot_of[nid]] for nid in nids]
            order = None
            if positions != sorted(positions):
                order = sorted(range(len(nids)), key=positions.__getitem__)
            bshape = [1] * len(shape)
            for p in positions:
                bshape[p] = shape[p]
            leaves.append((leaf, rel_prob, order, tuple(bshape)))
        prefix = max(0, stage - 1)
        while prefix <= stage and math.prod(self._free_shape(node_id, prefix)) * count > self.cap:
            prefix += 1
        self._tails[node_id] = (stage, tail_slots, shape, leaves, prefix)
        return self._tails[node_id]

    def _build_leaves(self, leaves: Sequence[tuple]) -> None:
        """Objective on the whole path grid product of every ``_tail`` leaf
        not built yet that fits the leaf budget, in one batched evaluation.

        The leaf arrays hold at most ``cap`` entries in all, decided leaf by
        leaf in ``leaves`` order: a leaf past the budget is skipped, and a
        later, smaller one may still fit.
        """
        run, grids_list = [], []
        for leaf, *_ in leaves:
            if leaf in self._leaf_values:
                continue
            grids = [self.candidates(nid) for nid in self.tree.path_nodes(leaf)]
            size = math.prod(len(g) for g in grids)
            if self._leaf_entries + size <= self.cap:
                self._leaf_entries += size
                run.append(leaf)
                grids_list.append(grids)
        if run:
            paths = [path(self.tree, leaf) for leaf in run]
            self._leaf_values.update(zip(run, leaf_arrays(self.cost, paths, grids_list)))

    def _positions(self, nids: Sequence[int], head: History) -> tuple[int, ...] | None:
        """Grid positions of a head's decisions at ``nids``, or None if one is off its grid."""
        index = []
        for nid, u in zip(nids, head):
            k = self._node_first[nid].get(_exact(u))
            if k is None:
                return None
            index.append(k)
        return tuple(index)

    def _accumulate(self, node_id: int, prefix: History, index) -> np.ndarray:
        """Conditional expected cost at a node for every continuation of a head
        prefix and every tail: one leaf pass.

        The prefix holds the decisions of stages 0..p-1, p <= t + 1 (t the
        node's stage), and ``index`` their grid positions (None if the
        prefix leaves the grids). The result has one free axis per head
        stage p..t, on the grid of the node's root path at that stage, then
        the tail product (axes in sorted slot order): each entry is what
        ``tail_conditional_value`` gives for the head that continues the
        prefix by the free axes' decisions, and that tail. Each leaf below
        the node is sliced at the prefix, weighted and added once, in leaf
        order from 0.0, so every entry goes through the float operations of
        a pass with its whole head as the prefix. An on-grid pass first
        builds the leaf arrays that fit (:meth:`_build_leaves`); a leaf past
        the budget, and every leaf of an off-grid pass, is evaluated with
        the prefix given as one-point grids.
        """
        _, _, shape, leaves, _ = self._tail(node_id)
        p = len(prefix)
        free_shape = self._free_shape(node_id, p)
        free = tuple(range(len(free_shape)))
        at = None if index is None else index + (...,)
        if at is not None:
            self._build_leaves(leaves)
        acc = np.zeros(free_shape + shape)
        for leaf, rel_prob, order, bshape in leaves:
            values = None if at is None else self._leaf_values.get(leaf)
            if values is None:
                below = self.tree.path_nodes(leaf)[p:]
                grids = [(u,) for u in prefix] + [self.candidates(nid) for nid in below]
                values = self.cost.evaluate_grid(path(self.tree, leaf), grids)
                tail = rel_prob * values[(0,) * p + (...,)]
            else:
                tail = rel_prob * values[at]
            if order is not None:
                tail = tail.transpose(free + tuple(len(free) + k for k in order))
            acc += tail.reshape(free_shape + bshape)
        return acc

    def _minimum(self, node_id: int, prefix: History, index) -> np.ndarray:
        """v_t over the free head axes after a prefix: one leaf pass, then
        the first minimum over the tail product."""
        acc = self._accumulate(node_id, prefix, index)
        free = acc.ndim - len(self._tail(node_id)[2])
        return _first_min(acc.reshape(acc.shape[:free] + (-1,)))

    def _values(self, node_id: int, head: History) -> np.ndarray:
        """v_t at a node over every grid continuation of a head of stages 0..q-1
        (q <= t + 1), one axis per stage q..t.

        A head at least as long as the node's prefix length p reads the
        block of its first p grid positions, built once. A shorter head
        stacks the values after each candidate of its next stage. A head off
        the grids takes one pass of its own, uncached; it fits ``cap``
        because it is at least p long.
        """
        p = self._tail(node_id)[4]
        nids = self.tree.path_nodes(node_id)
        if len(head) < p:
            grid = self.candidates(nids[len(head)])
            stacked = [self._values(node_id, head + (u,)) for u in grid]
            return np.array(stacked).reshape(self._free_shape(node_id, len(head)))
        index = self._positions(nids, head)
        if index is None:
            return self._minimum(node_id, head, None)
        key = (node_id, index[:p])
        if key not in self._blocks:
            decisions = tuple(self.candidates(nid)[k] for nid, k in zip(nids, key[1]))
            self._blocks[key] = self._minimum(node_id, decisions, key[1])
        return self._blocks[key][index[p:]]

    def _rows(self, node_id: int, head: History) -> list:
        """:meth:`_values` as nested lists, for a head that leaves the node's own stage free."""
        if not self.candidates(node_id):
            raise MultistageError(f"empty feasible set at node {node_id}")
        return self._values(node_id, tuple(map(tuple, head))).tolist()

    def v(self, node_id: int, u_head: History) -> float:
        """v_t at a node for a head history of stages 0..t."""
        stage = self._tail(node_id)[0]
        head = tuple(map(tuple, u_head))
        if len(head) != stage + 1:
            raise MultistageError(
                f"head history has length {len(head)}, expected {stage + 1}"
            )
        return float(self._values(node_id, head))

    def V(self, node_id: int, u_head: History) -> float:
        """V_t at a node: minimum of v_t over the stage-t candidates, in candidate order."""
        stage = self.tree.node(node_id).stage
        if len(u_head) != stage:
            raise MultistageError(
                f"head history has length {len(u_head)}, expected {stage}"
            )
        return min(self._rows(node_id, u_head))

    def V_next(self, node_id: int, u_head: History) -> list[float]:
        """V_t at a non-root node for the head of stages 0..t-2 followed by each
        of its parent's candidates in turn, as :meth:`V` gives them."""
        node = self.tree.node(node_id)
        if node.parent is None or len(u_head) != node.stage - 1:
            raise MultistageError(
                f"head history has length {len(u_head)}, expected {node.stage - 1}"
            )
        return [min(row) for row in self._rows(node_id, u_head)]


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
    (+0.0 against -0.0); then the entry at the first ``argmin`` is read. A
    last axis shorter than the number of minima is folded with
    ``np.minimum``, which numpy runs far faster than a reduction over it.
    """
    n = values.shape[-1]
    if 0 < n * n <= values.size:
        low = values[..., 0]
        for k in range(1, n):
            low = np.minimum(low, values[..., k])
    else:
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

    # Each node's observation path, axes and entry count extend its parent's;
    # the cap check sums the counts in node-id order.
    paths: dict[int, tuple[tuple[float, ...], ...]] = {}
    axes: dict[int, tuple[tuple[Decision, ...], ...]] = {}
    counts: dict[int, int] = {}
    for nid in tree.top_down():
        node, grid = tree.nodes[nid], cls.feasible[nid]
        if node.parent is None:
            paths[nid], axes[nid], counts[nid] = (node.obs,), (grid,), len(grid)
        else:
            paths[nid] = paths[node.parent] + (node.obs,)
            axes[nid] = axes[node.parent] + (grid,)
            counts[nid] = counts[node.parent] * len(grid)
    total_entries = 0
    for nid in range(len(tree)):
        total_entries += counts[nid]
        if total_entries > cap:
            raise EnumerationCapError(total_entries, cap)

    leaves = tree.stage_nodes(tree.horizon)
    seed: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for members, values in leaf_batches(
        cost, [paths[n] for n in leaves], [axes[n] for n in leaves]
    ):
        low = _first_min(values)
        seed.update((leaves[i], (values[k], low[k])) for k, i in enumerate(members))
    v: dict[int, np.ndarray] = {}
    V: dict[int, np.ndarray] = {}
    for t in range(tree.horizon, -1, -1):
        for nid in tree.stage_nodes(t):
            if t == tree.horizon:
                v[nid], V[nid] = seed[nid]
                continue
            acc = np.zeros(tuple(len(g) for g in axes[nid]))
            for c in tree.children(nid):
                acc = acc + tree.nodes[c].cond_prob * V[c]
            v[nid] = acc
            V[nid] = _first_min(acc)
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
    leaves = tree.leaves()
    hists = policy.decision_paths(tree)
    points: dict[int, tuple[Decision]] = {}  # per node: its decision as a one-point grid
    grids_list = [
        [points.setdefault(n, (u,)) for n, u in zip(tree.path_nodes(leaf), hists[leaf])]
        for leaf in leaves
    ]
    values = leaf_arrays(cost, [path(tree, leaf) for leaf in leaves], grids_list)
    total = 0.0
    for leaf, value in zip(leaves, values):
        total += unconditional_probability(tree, leaf) * value.item()
    return total


def brute_force_optimum(
    tree: ScenarioTree,
    cost: CostSpec,
    cls: PolicyClass,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[float, Policy]:
    """Exhaustive minimum of E v(X, U) over every policy of the class.

    This is V_0 at the root with empty history, read off the definitional
    route: one leaf pass at the root with the empty prefix, the pass of
    ``compute_V(tree, cost, cls, 0, ())``, gives the expected cost of every
    root candidate and tail at once. A policy is the root's grid position
    and a position in the tail product, and the first minimum over both,
    in C order, is kept: ties go to the first minimizer in enumeration
    order. The class size is checked against ``cap`` before anything is
    evaluated. The route never calls the backward recursion this serves as
    an oracle for.
    """
    count = cls.count(tree)
    if count > cap:
        raise EnumerationCapError(count, cap)
    if count == 0:
        raise MultistageError("the policy class is empty")
    route = _Definitional(tree, cost, cls, cap)
    acc = route._accumulate(0, (), ())
    flat = acc.reshape(-1)  # argmin and .flat take at most 32 axes
    best = int(flat.argmin())
    k, *tail = np.unravel_index(best, acc.shape)
    indices = [0] * len(route.grids)
    indices[route.slot_of[0]] = int(k)
    for s, i in zip(route._tail(0)[1], tail):
        indices[s] = int(i)
    return float(flat[best]), _policy_at(cls, route.slot_of, route.grids, indices)


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
        # a node's grid positions extend its parent's by its own decision's
        positions: dict[int, tuple[int, ...]] = {}
        for nid in tree.top_down():
            parent = tree.nodes[nid].parent
            head = () if parent is None else positions[parent]
            idx = positions[nid] = head + (tables.axes[nid][-1].index(policy.decisions[nid]),)
            v_proc[nid] = float(tables.v[nid][idx])
            V_proc[nid] = float(tables.V[nid][head])
    else:
        route = _Definitional(tree, cost, cls, cap)
        hists = policy.decision_paths(tree)
        for n in tree.nodes:
            hist = hists[n.id]
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
