"""Specialized dynamic equations: additive, Markovian, stationary, independent.

For additive costs the value function splits into accumulated past costs
and a discounted cost-to-go,

    V_t(x_{:t}, u_{:t-1}) = sum_{i<=t} gamma^(i-1) c_i(...) + gamma^t Vtilde_t,

and Vtilde satisfies a one-step dynamic equation, which every solver below
applies through one operator, ``_bellman_min``, fed according to the
structure of the driving process:

* lag-l processes: Vtilde_t depends only on the last l observations and
  the last l-1 decisions (``lag_recursion_check`` verifies both the window
  collapse and the recursion on a tree).
* Markov decision processes (lag 1): plain backward induction over a state
  grid, optionally with action-dependent transition kernels.
* stationary infinite horizon: the Bellman operator is a |gamma|
  contraction; ``value_iteration`` solves the fixed-point equation with an
  a-priori stopping rule.
* stagewise independent noise: the conditional expectation degenerates to
  an unconditional one (``sddp_recursion``, every kernel row is the noise
  law), matching the recursion of cut-based methods, here solved on grids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .costs import (
    CostSpec,
    GridWindow,
    _callable_from_json,
    stage_magnitudes,
    u_window,
    x_window,
)
from .exceptions import (
    ConvergenceError,
    InputFormatError,
    MultistageError,
    UnboundedObjectiveError,
)
from .policy import DEFAULT_ENUMERATION_CAP, Decision, Policy, PolicyClass
from .scenario_tree import Node, ScenarioTree, path
from .tolerances import EQUALITY_TOL, KERNEL_TOL
from .value_process import ValueTables


# -- Markov decision processes -------------------------------------------------


@dataclass(frozen=True)
class MDPSpec:
    """Finite MDP with bounded stepwise costs c(x, x', u) and |gamma| < 1.

    ``kernel`` has shape (n, n) when transitions ignore the action and
    (a, n, n) when they depend on it. ``cost`` has shape (n, n, a); for
    stage-dependent problems pass ``stage_costs`` (one such array per
    transition) to the backward induction instead.
    """

    states: tuple[tuple[float, ...], ...]
    actions: tuple[tuple[float, ...], ...]
    kernel: np.ndarray
    cost: np.ndarray | None
    gamma: float
    bound_K: float
    stage_costs: tuple[np.ndarray, ...] | None = None
    actions_by_state: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kernel", np.asarray(self.kernel, dtype=float))
        if self.cost is not None:
            object.__setattr__(self, "cost", np.asarray(self.cost, dtype=float))
        if self.stage_costs is not None:
            object.__setattr__(
                self,
                "stage_costs",
                tuple(np.asarray(c, dtype=float) for c in self.stage_costs),
            )

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def action_indices(self, state_index: int) -> tuple[int, ...]:
        if self.actions_by_state is None:
            return tuple(range(self.n_actions))
        return self.actions_by_state[state_index]

    @property
    def action_mask(self) -> np.ndarray | None:
        """(n, a) mask of the allowed actions; None when every action is."""
        if self.actions_by_state is None:
            return None
        actions = range(self.n_actions)
        return np.array([[k in row for k in actions] for row in self.actions_by_state])

    def validate(self) -> list[str]:
        problems: list[str] = []
        n, a = self.n_states, self.n_actions
        if not -1.0 < self.gamma < 1.0:
            problems.append(f"gamma {self.gamma} outside (-1, 1)")
        if self.kernel.ndim == 2:
            rows = [("", self.kernel)]
        elif self.kernel.ndim == 3:
            if self.kernel.shape[0] != a:
                problems.append(
                    f"kernel has {self.kernel.shape[0]} action slices, expected {a}"
                )
            rows = [(f"action {k}: ", self.kernel[k]) for k in range(self.kernel.shape[0])]
        else:
            return [f"kernel must be 2- or 3-dimensional, got shape {self.kernel.shape}"]
        for label, mat in rows:
            if mat.shape != (n, n):
                problems.append(f"{label}kernel shape {mat.shape}, expected {(n, n)}")
                continue
            if (mat < 0).any():
                problems.append(f"{label}kernel has negative entries")
            bad = np.abs(mat.sum(axis=1) - 1.0) > KERNEL_TOL
            for i in np.nonzero(bad)[0]:
                problems.append(
                    f"{label}kernel row {int(i)} sums to {mat[i].sum()!r}, not 1"
                )
        costs = list(self.stage_costs or ())
        if self.cost is not None:
            costs.append(self.cost)
        for c in costs:
            if c.shape != (n, n, a):
                problems.append(f"cost shape {c.shape}, expected {(n, n, a)}")
            elif np.abs(c).max() > self.bound_K + KERNEL_TOL:
                problems.append(
                    f"cost magnitude {np.abs(c).max()} exceeds the bound {self.bound_K}"
                )
        by_state = self.actions_by_state
        if by_state is not None and len(by_state) != n:
            problems.append(f"actions_by_state has {len(by_state)} rows, expected {n}")
        for i, allowed in enumerate(by_state or ()):
            bad = [k for k in allowed if not 0 <= k < a]
            if not allowed or bad:
                problems.append(
                    f"actions_by_state row {i} must list actions in 0..{a - 1}, "
                    f"got {list(allowed)}"
                )
        return problems


def _bellman_min(kernel, cost, gamma, v, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """Min and first argmin over a of Q[i, a] = sum_j K_a[i, j] (c[i, j, a] + gamma v[j]).

    ``kernel`` is (n, m) or (a, n, m), ``cost`` (n, m, a), ``v`` (m,); actions
    with a false ``mask[i, a]`` count as +inf. Runs in the inputs' dtype. Each
    Q entry is one dot product of two contiguous rows, which keeps float64
    results bit-identical to ``np.dot``; einsum or a strided target is not.
    """
    target = np.ascontiguousarray(np.moveaxis(cost + gamma * v[:, None], 2, 1))
    rows = kernel[:, None, :] if kernel.ndim == 2 else np.moveaxis(kernel, 0, 1)
    q = np.matmul(rows[..., None, :], target[..., :, None])[..., 0, 0]
    if mask is not None:
        q = np.where(mask, q, np.inf)
    return q.min(axis=1), q.argmin(axis=1)


def mdp_backward_induction(
    mdp: MDPSpec,
    horizon: int,
    terminal: Sequence[float] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Finite-horizon backward induction.

    Vtilde_t(x) = min_u E_u[ c_{t+1}(x, X', u) + gamma Vtilde_{t+1}(X') ],
    seeded with the terminal values (default zero). Returns the value
    arrays for t = 0..T and the first-argmin greedy action indices for
    t = 0..T-1.
    """
    problems = mdp.validate()
    if problems:
        raise InputFormatError("; ".join(problems))
    if horizon < 0:
        raise InputFormatError(f"horizon {horizon} is negative")
    if mdp.stage_costs is not None and len(mdp.stage_costs) < horizon:
        raise InputFormatError(
            f"{len(mdp.stage_costs)} stage costs cannot cover horizon {horizon}"
        )
    mask = mdp.action_mask
    v_end = np.zeros(mdp.n_states) if terminal is None else np.array(terminal, dtype=float)
    values, greedy = [v_end], []
    for t in range(horizon - 1, -1, -1):
        if mdp.stage_costs is not None:
            cost = mdp.stage_costs[t]
        elif mdp.cost is not None:
            cost = mdp.cost
        else:
            raise InputFormatError("the MDP defines neither cost nor stage_costs")
        v, g = _bellman_min(mdp.kernel, cost, mdp.gamma, values[-1], mask)
        values.append(v)
        greedy.append(g)
    return values[::-1], greedy[::-1]


def bellman_apply(mdp: MDPSpec, v: np.ndarray) -> np.ndarray:
    """One sweep of the stationary Bellman operator."""
    if mdp.cost is None:
        raise InputFormatError("the Bellman operator needs a stationary cost")
    return _bellman_min(mdp.kernel, mdp.cost, mdp.gamma, v, mdp.action_mask)[0]


@dataclass
class ValueIterationResult:
    values: np.ndarray
    iterations: int
    residuals: list[float]
    greedy: np.ndarray


def value_iteration(
    mdp: MDPSpec,
    epsilon: float = 1e-8,
    max_iters: int = 100_000,
) -> ValueIterationResult:
    """Solve the stationary fixed-point equation by iterating from zero.

    Stops once the sup-norm step falls below eps (1 - |gamma|) / (2 |gamma|),
    which bounds the distance to the fixed point by eps/2; with gamma = 0
    the operator is constant and one sweep suffices. The residual history is
    returned so the per-step contraction ratio (at most |gamma|) can be
    inspected.
    """
    problems = mdp.validate()
    if problems:
        raise InputFormatError("; ".join(problems))
    if mdp.cost is None:
        raise InputFormatError("value iteration needs a stationary cost")
    g = abs(mdp.gamma)
    threshold = float("inf") if g == 0.0 else epsilon * (1.0 - g) / (2.0 * g)

    # The sweep runs in extended precision: residuals shrink to the stopping
    # threshold, where plain double rounding on O(1) values would already
    # distort the per-step contraction ratio beyond the 1e-9 slack it is
    # checked against.
    kernel = mdp.kernel.astype(np.longdouble)
    cost = mdp.cost.astype(np.longdouble)
    gamma = np.longdouble(mdp.gamma)
    mask = mdp.action_mask
    v = np.zeros(mdp.n_states, dtype=np.longdouble)
    residuals: list[float] = []
    for iteration in range(1, max_iters + 1):
        nxt, _ = _bellman_min(kernel, cost, gamma, v, mask)
        residual = float(np.max(np.abs(nxt - v)))
        residuals.append(residual)
        v = nxt
        if residual <= threshold:
            values = v.astype(float)
            _, greedy = _bellman_min(mdp.kernel, mdp.cost, mdp.gamma, values, mask)
            return ValueIterationResult(
                values=values, iterations=iteration, residuals=residuals, greedy=greedy
            )
    raise ConvergenceError(max_iters, residuals)


# -- discount-normalized value process on trees ---------------------------------


@dataclass
class ShiftedProcess:
    """Vtilde values per stage and node; stages where the shift is undefined
    (gamma = 0 and t >= 1) are listed in ``skipped_stages``."""

    stages: dict[int, dict[int, float]]
    skipped_stages: list[int]


def shifted_table_value(
    tree: ScenarioTree,
    tables: ValueTables,
    cost: CostSpec,
    node_id: int,
    head: tuple[Decision, ...],
) -> float:
    """Vtilde_t(node, head) = gamma^-t (V_t(node, head) - accumulated costs).

    ``head`` is the decision history through stage t-1; the accumulated
    stage costs through t only need decisions through t-1 by the lag
    convention.
    """
    t = tree.node(node_id).stage
    if cost.form != "additive":
        raise MultistageError("the discount shift requires an additive cost")
    if cost.gamma == 0.0 and t >= 1:
        raise MultistageError("gamma = 0 leaves the shift undefined for t >= 1")
    raw = float(tables.V[node_id][tables.index(node_id, head)])
    acc = cost.additive_prefix(path(tree, node_id), list(head) + [None], t)
    return (raw - acc) / cost.gamma**t if t else raw - acc


def tilde_shift(
    tree: ScenarioTree,
    tables: ValueTables,
    cost: CostSpec,
    policy: Policy,
) -> ShiftedProcess:
    """Discount-normalized value process of V along a policy.

    Vtilde_0 equals V_0; later stages subtract the realized accumulated
    costs and divide by gamma^t. With gamma = 0 the shift is undefined for
    t >= 1 and those stages are reported as skipped.
    """
    if cost.form != "additive":
        raise MultistageError("the discount shift requires an additive cost")
    stages: dict[int, dict[int, float]] = {}
    skipped: list[int] = []
    for t in range(tree.horizon + 1):
        if cost.gamma == 0.0 and t >= 1:
            skipped.append(t)
            continue
        level: dict[int, float] = {}
        for nid in tree.stage_nodes(t):
            head = policy.decision_path(tree, nid)[:-1]
            level[nid] = shifted_table_value(tree, tables, cost, nid, head)
        stages[t] = level
    return ShiftedProcess(stages=stages, skipped_stages=skipped)


# -- lag-l recursion on trees ----------------------------------------------------


def _round_vec(vec: Sequence[float], ndigits: int = 9) -> tuple[float, ...]:
    return tuple(round(float(x), ndigits) for x in vec)


def _obs_window_key(tree: ScenarioTree, node_id: int, lag: int) -> tuple:
    t = tree.node(node_id).stage
    nodes = tree.path_nodes(node_id)[max(0, t - lag + 1):]
    return tuple(_round_vec(tree.nodes[i].obs) for i in nodes)


def _subtree_signature(tree: ScenarioTree, cls: PolicyClass, node_id: int) -> tuple:
    """Canonical form of the conditional law and grids below a node."""
    grid = tuple(sorted(_round_vec(u) for u in cls.feasible[node_id]))
    kids = tree.children(node_id)
    child_sigs = sorted(
        (
            round(tree.nodes[c].cond_prob, 9),
            _round_vec(tree.nodes[c].obs),
            _subtree_signature(tree, cls, c),
        )
        for c in kids
    )
    return (grid, tuple(child_sigs))


@dataclass
class LagRecursionReport:
    applicable: bool
    reason: str | None
    witness: dict | None
    window_values: dict[int, dict[tuple, float]]
    max_collapse_deviation: float
    max_recursion_violation: float
    equality_everywhere: bool
    skipped_stages: list[int]
    tolerance: float


def lag_recursion_check(
    tree: ScenarioTree,
    cost: CostSpec,
    cls: PolicyClass,
    tol: float = EQUALITY_TOL,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> LagRecursionReport:
    """Verify the lag-l structure and the windowed recursion on a tree.

    Structural precondition: stage-t nodes sharing the observation window
    x_{t-l+1..t} must carry identical subtrees (conditional law and grids);
    otherwise the check is inapplicable and a witness pair is reported.
    Then, on the backward tables, Vtilde_t must depend only on the lag
    window (observations plus decisions u_{t-l+1..t-1}) and satisfy

        Vtilde_t >= min_u E[ c_{t+1} + gamma Vtilde_{t+1} ]

    at every node and grid history. For nodewise classes and gamma >= 0 the
    recursion is an identity; with gamma < 0 the division by gamma^t turns
    the shifted value into a maximum at odd stages, so only the one-sided
    bound remains.
    """
    from .value_process import backward_tables

    if cost.form != "additive":
        raise MultistageError("the lag recursion requires an additive cost")
    lag = cost.lag

    for t in range(tree.horizon + 1):
        groups: dict[tuple, list[int]] = {}
        for nid in tree.stage_nodes(t):
            groups.setdefault(_obs_window_key(tree, nid, lag), []).append(nid)
        for window, ids in groups.items():
            sigs = {_subtree_signature(tree, cls, i) for i in ids}
            if len(sigs) > 1:
                return LagRecursionReport(
                    applicable=False,
                    reason="two nodes share a lag window but have different "
                    "conditional laws below",
                    witness={"t": t, "window": list(window), "nodes": sorted(ids)},
                    window_values={},
                    max_collapse_deviation=float("nan"),
                    max_recursion_violation=float("nan"),
                    equality_everywhere=False,
                    skipped_stages=[],
                    tolerance=tol,
                )

    tables = backward_tables(tree, cost, cls, cap=cap)
    gamma = cost.gamma
    skipped = [t for t in range(1, tree.horizon + 1) if gamma == 0.0]

    shifted: dict[int, dict[tuple, float]] = {n.id: {} for n in tree.nodes}
    window_values: dict[int, dict[tuple, float]] = {}
    collapse_dev = 0.0
    for t in range(tree.horizon + 1):
        if gamma == 0.0 and t >= 1:
            continue
        level: dict[tuple, float] = {}
        for nid in tree.stage_nodes(t):
            obs_key = _obs_window_key(tree, nid, lag)
            for head in itertools.product(*tables.axes[nid][:-1]):
                value = shifted_table_value(tree, tables, cost, nid, head)
                shifted[nid][head] = value
                u_key = tuple(
                    _round_vec(u) for u in head[max(0, t - lag + 1):]
                )
                key = (obs_key, u_key)
                if key in level:
                    collapse_dev = max(collapse_dev, abs(level[key] - value))
                else:
                    level[key] = value
        window_values[t] = level

    def one_step(t: int, head: tuple, c: int, u: Decision) -> float:
        """Step cost into child c after u, plus the child's discounted Vtilde."""
        decisions = list(head) + [u, None]
        step = cost.stage_costs[t](
            x_window(path(tree, c), t + 1, lag), u_window(decisions, t + 1, lag)
        )
        if gamma == 0.0:
            return step
        return step + gamma * shifted_table_value(tree, tables, cost, c, head + (u,))

    violation = -float("inf")
    equality = True
    for t in range(tree.horizon):
        if gamma == 0.0 and t >= 1:
            continue
        for nid in tree.stage_nodes(t):
            kids, grid = tree.children(nid), cls.feasible[nid]
            probs = np.array([[tree.nodes[c].cond_prob for c in kids]])
            for head, lhs in shifted[nid].items():
                q = np.array([[one_step(t, head, c, u) for c in kids] for u in grid])
                rhs = float(_bellman_min(probs, q.T[None], 0.0, np.zeros(len(kids)))[0][0])
                violation = max(violation, rhs - lhs)
                if abs(lhs - rhs) > tol:
                    equality = False
    return LagRecursionReport(
        applicable=True,
        reason=None,
        witness=None,
        window_values=window_values,
        max_collapse_deviation=collapse_dev,
        max_recursion_violation=violation if violation > -float("inf") else 0.0,
        equality_everywhere=equality,
        skipped_stages=skipped,
        tolerance=tol,
    )


# -- stagewise independent recursion ----------------------------------------------


@dataclass(frozen=True)
class SddpSpec:
    """Stagewise independent problem: noise, decisions and step costs per stage.

    ``stage_noise[t]`` is the distribution of X_{t+1} as (probability,
    value) pairs, independent of everything before it; the state transition
    is x_{t+1} = X_{t+1}. ``step_cost`` is the cost incurred on the step in
    window form, ``c(xs, us)`` with ``xs = (x_t, x_{t+1})`` and
    ``us = (u_t,)``: the lag-1 stage cost c_{t+1} of an additive tree cost,
    with the same callable shape. Pass ``stage_step_costs`` for
    stage-dependent costs.
    """

    initial_state: tuple[float, ...]
    horizon: int
    stage_noise: tuple[tuple[tuple[float, tuple[float, ...]], ...], ...]
    stage_decisions: tuple[tuple[Decision, ...], ...]
    gamma: float
    step_cost: Callable[[tuple, tuple], float] | None = None
    stage_step_costs: tuple[Callable, ...] | None = None
    payload: dict | None = None

    def __post_init__(self):
        if len(self.stage_noise) != self.horizon:
            raise InputFormatError(
                f"{len(self.stage_noise)} noise stages for horizon {self.horizon}"
            )
        if len(self.stage_decisions) != self.horizon:
            raise InputFormatError(
                f"{len(self.stage_decisions)} decision stages for horizon "
                f"{self.horizon}"
            )
        if self.step_cost is None and self.stage_step_costs is None:
            raise InputFormatError("either step_cost or stage_step_costs is required")
        if self.stage_step_costs is not None and len(self.stage_step_costs) < self.horizon:
            raise InputFormatError(
                f"{len(self.stage_step_costs)} stage costs cannot cover horizon "
                f"{self.horizon}"
            )
        for t, atoms in enumerate(self.stage_noise):
            total = sum(p for p, _ in atoms)
            if abs(total - 1.0) > KERNEL_TOL:
                raise InputFormatError(
                    f"stage {t + 1} noise probabilities sum to {total!r}, not 1"
                )
            for p, value in atoms:
                if not np.isfinite(p) or not all(np.isfinite(x) for x in value):
                    raise InputFormatError(
                        f"stage {t + 1} noise support contains a non-finite entry"
                    )

    def cost_at(self, t: int) -> Callable:
        if self.stage_step_costs is not None:
            return self.stage_step_costs[t]
        return self.step_cost

    def support(self, t: int) -> tuple[tuple[float, ...], ...]:
        """States reachable at stage t."""
        if t == 0:
            return (self.initial_state,)
        return tuple(value for _, value in self.stage_noise[t - 1])


@dataclass
class SddpResult:
    values: list[dict[tuple[float, ...], float]]
    greedy: list[dict[tuple[float, ...], Decision]]


def sddp_recursion(spec: SddpSpec) -> SddpResult:
    """Exact solve of the stagewise independent dynamic equation.

    Vtilde_t(x) = min_u E[ c_{t+1}((x, X_{t+1}), (u,)) + gamma Vtilde_{t+1}(X_{t+1}) ]
    with an unconditional expectation: independence makes conditioning on
    x_t irrelevant for the law of X_{t+1}. A compiled step cost fills each
    stage's step array with one ``grid`` call; any other cost is called
    entry by entry.
    """
    T = spec.horizon
    values: list[dict[tuple[float, ...], float]] = [dict() for _ in range(T + 1)]
    greedy: list[dict[tuple[float, ...], Decision]] = [dict() for _ in range(T)]
    for x in spec.support(T):
        values[T][x] = 0.0
    for t in range(T - 1, -1, -1):
        cost = spec.cost_at(t)
        atoms = spec.stage_noise[t]
        decisions = spec.stage_decisions[t]
        if not decisions:
            raise MultistageError(f"no decisions at stage {t}")
        states, outcomes = spec.support(t), spec.support(t + 1)
        shape = (len(states), len(outcomes), len(decisions))
        if hasattr(cost, "grid"):  # step[x, j, u] = c((x, xi_j), (u,))
            with np.errstate(all="ignore"):
                step = cost.grid(
                    GridWindow([states, outcomes], [0, 1], 3), GridWindow([decisions], [2], 3)
                )
            step = np.broadcast_to(step, shape)
        else:
            step = np.array([
                [[float(cost((x, xi), (u,))) for u in decisions] for xi in outcomes]
                for x in states
            ])
        bad = np.argwhere(~np.isfinite(step))
        if len(bad):
            k, j, i = bad[0]
            raise UnboundedObjectiveError(
                f"step cost of stage {t} evaluated to {float(step[k, j, i])!r} at "
                f"x={states[k]!r}, w={outcomes[j]!r}, u={decisions[i]!r}; it must be finite"
            )
        best, arg = _bellman_min(
            np.broadcast_to([p for p, _ in atoms], shape[:2]),
            step,
            spec.gamma,
            np.array([values[t + 1][xi] for xi in outcomes]),
        )
        for k, x in enumerate(states):
            values[t][x] = float(best[k])
            greedy[t][x] = decisions[arg[k]]
    return SddpResult(values=values, greedy=greedy)


# -- bridges between the formulations ----------------------------------------------


def sddp_to_product_tree(spec: SddpSpec) -> tuple[ScenarioTree, CostSpec, PolicyClass]:
    """Unroll a stagewise independent problem into a scenario tree.

    Every stage-t node branches into the stage-(t+1) noise atoms, the cost
    becomes an additive lag-1 stack, and the class is nodewise with the
    stage decision grid at every node (plus a dummy singleton at the
    leaves, whose decision never enters the cost).
    """
    nodes = [Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=spec.initial_state)]
    frontier = [0]
    for t in range(1, spec.horizon + 1):
        atoms = spec.stage_noise[t - 1]
        new_frontier = []
        for parent in frontier:
            for p, value in atoms:
                nid = len(nodes)
                nodes.append(
                    Node(id=nid, stage=t, parent=parent, cond_prob=float(p), obs=value)
                )
                new_frontier.append(nid)
        frontier = new_frontier
    tree = ScenarioTree(nodes, horizon=spec.horizon, obs_dim=len(spec.initial_state))
    cost_spec = CostSpec.additive(
        stage_costs=tuple(spec.cost_at(t) for t in range(spec.horizon)),
        gamma=spec.gamma,
        lag=1,
    )
    m = len(spec.stage_decisions[0][0])
    feasible: dict[int, tuple[Decision, ...]] = {}
    for n in tree.nodes:
        if n.stage < spec.horizon:
            feasible[n.id] = spec.stage_decisions[n.stage]
        else:
            feasible[n.id] = ((0.0,) * m,)
    cls = PolicyClass(feasible=feasible, kind="nodewise", decision_dim=m)
    return tree, cost_spec, cls


def sddp_to_mdp(spec: SddpSpec) -> tuple[MDPSpec, int]:
    """Stationary MDP matching a shared-noise, stationary-cost instance.

    Requires the same noise distribution at every stage and a stationary
    step cost. States are the initial state plus the noise support; every
    kernel row is the shared marginal. Returns the spec and the index of
    the initial state.
    """
    if spec.stage_step_costs is not None:
        raise MultistageError("the MDP bridge requires a stationary step cost")
    first = spec.stage_noise[0]
    for atoms in spec.stage_noise[1:]:
        if atoms != first:
            raise MultistageError("the MDP bridge requires shared noise across stages")
    for grid in spec.stage_decisions[1:]:
        if grid != spec.stage_decisions[0]:
            raise MultistageError("the MDP bridge requires shared decision grids")

    states: list[tuple[float, ...]] = []
    for value in (spec.initial_state,) + tuple(v for _, v in first):
        if value not in states:
            states.append(value)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    marginal = np.zeros(n)
    for p, value in first:
        marginal[index[value]] += p
    kernel = np.tile(marginal, (n, 1))
    actions = spec.stage_decisions[0]
    cost = np.zeros((n, n, len(actions)))
    for i, x in enumerate(states):
        for j, y in enumerate(states):
            for a, u in enumerate(actions):
                cost[i, j, a] = float(spec.step_cost((x, y), (u,)))
    mdp = MDPSpec(
        states=tuple(states),
        actions=tuple(actions),
        kernel=kernel,
        cost=cost,
        gamma=spec.gamma,
        bound_K=float(np.abs(cost).max()),
    )
    return mdp, index[spec.initial_state]


def unroll_mdp_to_tree(
    mdp: MDPSpec, start_index: int, horizon: int
) -> tuple[ScenarioTree, CostSpec, PolicyClass]:
    """Unroll an action-independent MDP into a scenario tree.

    Only possible when the kernel ignores the action: the tree carries the
    exogenous state process, zero-probability transitions are pruned, and
    actions survive as nodewise decision grids entering the cost alone.
    """
    if mdp.kernel.ndim != 2:
        raise MultistageError(
            "only action-independent kernels unroll into a scenario tree"
        )
    if mdp.cost is None:
        raise MultistageError("the unrolling requires a stationary cost")
    nodes = [
        Node(
            id=0, stage=0, parent=None, cond_prob=1.0, obs=mdp.states[start_index]
        )
    ]
    state_of = {0: start_index}
    frontier = [0]
    for t in range(1, horizon + 1):
        new_frontier = []
        for parent in frontier:
            i = state_of[parent]
            for j in range(mdp.n_states):
                p = float(mdp.kernel[i, j])
                if p <= 0.0:
                    continue
                nid = len(nodes)
                nodes.append(
                    Node(id=nid, stage=t, parent=parent, cond_prob=p, obs=mdp.states[j])
                )
                state_of[nid] = j
                new_frontier.append(nid)
        frontier = new_frontier
    tree = ScenarioTree(nodes, horizon=horizon, obs_dim=len(mdp.states[0]))

    state_index = {s: i for i, s in enumerate(mdp.states)}
    action_index = {u: a for a, u in enumerate(mdp.actions)}

    def step(xw, uw):
        i = state_index[tuple(xw[-2])]
        j = state_index[tuple(xw[-1])]
        a = action_index[tuple(uw[-1])]
        return float(mdp.cost[i, j, a])

    cost_spec = CostSpec.additive(
        stage_costs=tuple(step for _ in range(horizon)), gamma=mdp.gamma, lag=1
    )
    m = len(mdp.actions[0])
    feasible: dict[int, tuple[Decision, ...]] = {}
    for n in tree.nodes:
        if n.stage < horizon:
            feasible[n.id] = tuple(
                mdp.actions[a] for a in mdp.action_indices(state_of[n.id])
            )
        else:
            feasible[n.id] = ((0.0,) * m,)
    cls = PolicyClass(feasible=feasible, kind="nodewise", decision_dim=m)
    return tree, cost_spec, cls


# -- JSON -------------------------------------------------------------------------


def _action_index(entry) -> int:
    """An ``actions_by_state`` entry: an integer, possibly written as 2.0."""
    if isinstance(entry, bool) or not (
        isinstance(entry, int) or (isinstance(entry, float) and entry.is_integer())
    ):
        raise InputFormatError(f"actions_by_state entry {entry!r} is not an action index")
    return int(entry)


def mdp_from_json(data: dict) -> MDPSpec:
    try:
        return MDPSpec(
            states=tuple(tuple(float(x) for x in s) for s in data["states"]),
            actions=tuple(tuple(float(x) for x in a) for a in data["actions"]),
            kernel=np.asarray(data["kernel"], dtype=float),
            cost=None if data.get("cost") is None else np.asarray(data["cost"], dtype=float),
            gamma=float(data["gamma"]),
            bound_K=float(data["bound_K"]),
            stage_costs=(
                tuple(np.asarray(c, dtype=float) for c in data["stage_costs"])
                if data.get("stage_costs")
                else None
            ),
            actions_by_state=(
                tuple(tuple(_action_index(a) for a in row) for row in data["actions_by_state"])
                if data.get("actions_by_state") is not None
                else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed MDP JSON: {exc}") from exc


def mdp_to_json(mdp: MDPSpec) -> dict:
    out: dict = {
        "states": [list(s) for s in mdp.states],
        "actions": [list(a) for a in mdp.actions],
        "kernel": mdp.kernel.tolist(),
        "gamma": mdp.gamma,
        "bound_K": mdp.bound_K,
    }
    if mdp.cost is not None:
        out["cost"] = mdp.cost.tolist()
    if mdp.stage_costs is not None:
        out["stage_costs"] = [c.tolist() for c in mdp.stage_costs]
    if mdp.actions_by_state is not None:
        out["actions_by_state"] = [list(r) for r in mdp.actions_by_state]
    return out


# Step-cost roles in window form: (role, offset from the window end).
_STEP_ROLES = {"x": ("x", 1), "w": ("x", 0), "u": ("u", 0)}


def _step_cost_from_json(spec: dict, dims: dict[str, int]) -> Callable:
    """Step cost from JSON, compiled as the lag-1 window cost c((x, w), (u,)).

    The payload names the state x = x_t, the noise value w = x_{t+1} and the
    decision u = u_t. A ``poly`` term's variables map to the window roles
    of :func:`costs.poly_cost` (``dims`` bounds each role's components), a
    ``table`` entry ``{x, w, u, value}`` to ``{"x": [x, w], "u": [u], "value"}``.
    """
    if "poly" in spec:
        terms = []
        for k, term in enumerate(spec["poly"]["terms"]):
            variables = []
            for role, comp, power in term["vars"]:
                role, comp = str(role), int(comp)
                if not 0 <= comp < dims.get(role, 0):
                    raise InputFormatError(
                        f"step-cost term {k}: no component {comp} of role {role!r} {dims}"
                    )
                variables.append([*_STEP_ROLES[role], comp, power])
            terms.append({"coef": term["coef"], "vars": variables})
        return _callable_from_json({"poly": {"terms": terms}}, window_relative=True)
    if "table" in spec:
        entries = [
            {"x": [e["x"], e["w"]], "u": [e["u"]], "value": e["value"]}
            for e in spec["table"]["entries"]
        ]
        table = {**spec["table"], "entries": entries}
        return _callable_from_json({"table": table}, window_relative=True)
    raise InputFormatError("step cost spec needs one of: poly, table")


def sddp_from_json(data: dict) -> SddpSpec:
    """Stagewise independent problem from JSON, its step costs checked at load.

    A compiled step cost's ``problems`` runs at every stage t < horizon, on
    the states, noise values and decisions of that step, so a 0 under a
    negative power or a power that overflows a float is rejected here.
    """
    try:
        stage_noise = tuple(
            tuple((float(a["prob"]), tuple(float(x) for x in a["value"])) for a in atoms)
            for atoms in data["stage_noise"]
        )
        stage_decisions = tuple(
            tuple(tuple(float(x) for x in u) for u in grid)
            for grid in data["stage_decisions"]
        )
        initial_state = tuple(float(x) for x in data["initial_state"])
        noise_dims = [len(value) for atoms in stage_noise for _, value in atoms]
        dims = {
            "x": min([len(initial_state)] + noise_dims),
            "w": min(noise_dims, default=0),
            "u": min((len(u) for grid in stage_decisions for u in grid), default=0),
        }
        spec = SddpSpec(
            initial_state=initial_state,
            horizon=int(data["horizon"]),
            stage_noise=stage_noise,
            stage_decisions=stage_decisions,
            gamma=float(data["gamma"]),
            step_cost=_step_cost_from_json(data["cost"], dims) if "cost" in data else None,
            stage_step_costs=(
                tuple(_step_cost_from_json(c, dims) for c in data["stage_costs"])
                if "stage_costs" in data
                else None
            ),
            payload=data,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed stagewise-independent JSON: {exc}") from exc

    # In the window (t + 1, 1), x[1] = x_t and u[0] = u_t are read at stage t
    # and the noise value x[0] = x_{t+1} at stage t + 1.
    magnitudes = stage_magnitudes(
        lambda role, t: spec.stage_decisions[t] if role == "u" else spec.support(t)
    )
    window_dims = {"x": max(dims["x"], dims["w"]), "u": dims["u"]}
    problems = [
        f"step-cost {p}"
        for t in range(spec.horizon)
        if hasattr(spec.cost_at(t), "problems")
        for p in spec.cost_at(t).problems(spec.horizon, (t + 1, 1), window_dims, magnitudes)
    ]
    if problems:
        raise InputFormatError(
            "; ".join(problems) + " (x[1] is the state x, x[0] the noise value w)"
        )
    return spec
