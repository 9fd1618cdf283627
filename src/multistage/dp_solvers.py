"""Specialized dynamic equations: additive, Markovian, stationary, independent.

For additive costs the value function splits into accumulated past costs
and a discounted cost-to-go,

    V_t(x_{:t}, u_{:t-1}) = sum_{i<=t} gamma^(i-1) c_i(...) + gamma^t Vtilde_t,

and Vtilde satisfies a one-step dynamic equation, which the solvers below
apply according to the structure of the driving process. Backward
induction, the stagewise recursion and the lag check take each minimum
through one operator, ``_bellman_min``; value iteration's sweeps run a
minimum of their own:

* lag-l processes: Vtilde_t depends only on the last l observations and
  the last l-1 decisions (``lag_recursion_check`` verifies both the window
  collapse and the recursion on a tree).
* Markov decision processes (lag 1): plain backward induction over a state
  grid, optionally with action-dependent transition kernels.
* stationary infinite horizon: the Bellman operator is a |gamma|
  contraction; ``value_iteration`` solves the fixed-point equation with an
  a-priori stopping rule. The expected step cost
  sum_j K_u[x, j] c(x, j, u) does not depend on Vtilde, so it is computed
  once, before the sweeps. Each sweep is then one long-double mat-vec and
  an action-major minimum over the actions in index order, as
  ``_bellman_min`` takes it, and reports a bound on its rounding error.
  Only the greedy actions after the last sweep come from ``_bellman_min``.
* stagewise independent noise: the conditional expectation degenerates to
  an unconditional one (``sddp_recursion``, every kernel row is the noise
  law), matching the recursion of cut-based methods, here solved on grids.
  The problem holds one step cost per stage, and the solve returns value
  and greedy arrays per stage, as backward induction does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .costs import (
    CostSpec,
    GridWindow,
    _callable_from_json,
    _compiled,
    leaf_arrays,
    stage_magnitudes,
    window_values,
)
from .exceptions import (
    ConvergenceError,
    EnumerationCapError,
    InputFormatError,
    MultistageError,
    UnboundedObjectiveError,
    all_numbers,
    require_int,
    require_number,
    require_numbers,
    require_object,
)
from .policy import DEFAULT_ENUMERATION_CAP, Decision, Policy, PolicyClass
from .scenario_tree import Node, ScenarioTree, path
from .tolerances import DEFAULT_TOL, EQUALITY_TOL, KERNEL_TOL, LAG_KEY_DIGITS
from .value_process import ValueTables, backward_tables


# -- Markov decision processes -------------------------------------------------


def _float_array(x, what: str) -> np.ndarray:
    """``x`` as a float64 array, as ``np.asarray(x, dtype=float)`` reads it:
    the same values, shape and exceptions, except that an entry of the flat
    pass that is not a JSON number (a string, a boolean, a null or an
    object) is an input error naming ``what``.

    Nested lists of equal lengths, as JSON decodes an array, are read in one
    flat pass: a walk over the nesting levels finds the shape, one
    ``np.fromiter`` converts the entries of the innermost lists, and one
    :func:`all_numbers` pass checks that they are JSON numbers; only when it
    fails does a pass per entry run, to name the first fault. Anything else,
    and any list the walk cannot read (ragged, of mixed depth, with a
    sequence such as a tuple or an array among the entries), is left to
    ``np.asarray``.
    """
    if type(x) is list:
        shape, level = [], [x]
        while set(map(type, level)) == {list}:
            lengths = set(map(len, level))
            if len(lengths) != 1:
                break
            shape.append(lengths.pop())
            if shape[-1] == 0:
                return np.empty(shape)
            if type(level[0][0]) is list:
                level = list(itertools.chain.from_iterable(level))
                continue
            entries = list(itertools.chain.from_iterable(level))
            try:
                flat = np.fromiter(entries, float, len(entries))
            except (TypeError, ValueError):  # a sequence, or an entry numpy cannot read
                if any(map(np.ndim, entries)):
                    break
                flat = None
            if not all_numbers(entries):
                require_numbers(entries, f"MDP {what} entry")
            if flat is None:
                break
            return flat.reshape(shape)
    return np.asarray(x, dtype=float)


def _read_only(x, what: str) -> np.ndarray:
    """``x`` as a read-only float64 array: a decoded JSON list read by
    :func:`_float_array`, anything else copied, so an array of the caller's
    stays writable."""
    out = _float_array(x, what) if type(x) is list else np.array(x, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MDPSpec:
    """Finite MDP with bounded stepwise costs c(x, x', u) and |gamma| < 1.

    ``kernel`` has shape (n, n) when transitions ignore the action and
    (a, n, n) when they depend on it. ``cost`` has shape (n, n, a); for
    stage-dependent problems pass ``stage_costs`` (one such array per
    transition) to the backward induction instead. The spec checks itself
    when it is built: :meth:`validate`'s problems raise one
    :class:`InputFormatError`. Its arrays are read-only copies
    (:func:`_read_only`), so one spec can be shared by every caller.
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
        object.__setattr__(self, "kernel", _read_only(self.kernel, "kernel"))
        if self.cost is not None:
            object.__setattr__(self, "cost", _read_only(self.cost, "cost"))
        if self.stage_costs is not None:
            object.__setattr__(self, "stage_costs", tuple(
                _read_only(c, f"stage_costs[{t}]") for t, c in enumerate(self.stage_costs)
            ))
        problems = self.validate()
        if problems:
            raise InputFormatError("; ".join(problems))

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
        if n == 0 or a == 0:
            return [f"the MDP needs at least one state and one action, got {n} and {a}"]
        if not -1.0 < self.gamma < 1.0:
            problems.append(f"gamma {self.gamma} outside (-1, 1)")
        if not np.isfinite(self.bound_K):
            problems.append(f"bound_K {self.bound_K} is not finite")
        if self.cost is None and self.stage_costs is None:
            problems.append("the MDP defines neither cost nor stage_costs")
        arrays = [("kernel", self.kernel), ("cost", self.cost)] + [
            (f"stage_costs[{t}]", c) for t, c in enumerate(self.stage_costs or ())
        ]
        for label, arr in arrays:
            if arr is not None and not np.isfinite(arr).all():
                problems.append(f"{label} has non-finite entries")
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


def _transposed(cost) -> np.ndarray:
    """The contiguous (n, a, m) transpose of a cost array (n, m, a): row [i, a]
    holds c[i, :, a], the target that ``_expected_cost`` dots with K_a[i]."""
    return np.ascontiguousarray(np.moveaxis(cost, 2, 1))


def _expected_cost(kernel, target) -> np.ndarray:
    """Q[i, a] = sum_j K_a[i, j] target[i, a, j] for ``kernel`` (n, m) or (a, n, m).

    ``target`` is a contiguous (n, a, m) array, such as ``_transposed(cost)``
    for Q[i, a] = sum_j K_a[i, j] c[i, j, a]. Runs in the inputs' dtype. Each
    entry is one dot product of two contiguous rows, which keeps float64
    results bit-identical to ``np.dot``; einsum or a strided target is not.
    """
    rows = kernel[:, None, :] if kernel.ndim == 2 else np.moveaxis(kernel, 0, 1)
    return np.matmul(rows[..., None, :], target[..., :, None])[..., 0, 0]


def _bellman_min(kernel, target, gamma, v, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """Min and first argmin over a of Q[i, a] = sum_j K_a[i, j] (c[i, j, a] + gamma v[j]).

    ``kernel`` is (n, m) or (a, n, m), ``target`` the (n, a, m) transpose of
    the cost c (``_transposed``), ``v`` (m,); actions with a false
    ``mask[i, a]`` count as +inf. Runs in the inputs' dtype, and Q is
    ``_expected_cost`` of the target c + gamma v, each entry c[i, j, a] +
    (gamma v[j]) as it would be added in the (n, m, a) layout.
    """
    q = _expected_cost(kernel, target + gamma * v)
    if mask is not None:
        q = np.where(mask, q, np.inf)
    return q.min(axis=1), q.argmin(axis=1)


def mdp_backward_induction(
    mdp: MDPSpec, horizon: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Finite-horizon backward induction.

    Vtilde_t(x) = min_u E_u[ c_{t+1}(x, X', u) + gamma Vtilde_{t+1}(X') ],
    seeded with zero terminal values. Returns the value arrays for
    t = 0..T and the first-argmin greedy action indices for t = 0..T-1.
    Each cost array is transposed once per call (``_transposed``), and each
    stage adds gamma Vtilde_{t+1} to that transpose. The (horizon + 1) value
    arrays hold at most ``DEFAULT_ENUMERATION_CAP`` entries in all, checked
    before the first stage.
    """
    if horizon < 0:
        raise InputFormatError(f"horizon {horizon} is negative")
    if mdp.stage_costs is not None and len(mdp.stage_costs) < horizon:
        raise InputFormatError(
            f"{len(mdp.stage_costs)} stage costs cannot cover horizon {horizon}"
        )
    entries = (horizon + 1) * mdp.n_states
    if entries > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(entries, DEFAULT_ENUMERATION_CAP)
    mask = mdp.action_mask
    stationary = _transposed(mdp.cost) if mdp.stage_costs is None else None
    values, greedy = [np.zeros(mdp.n_states)], []
    for t in range(horizon - 1, -1, -1):
        target = stationary if mdp.stage_costs is None else _transposed(mdp.stage_costs[t])
        v, g = _bellman_min(mdp.kernel, target, mdp.gamma, values[-1], mask)
        values.append(v)
        greedy.append(g)
    return values[::-1], greedy[::-1]


#: the most sweeps value iteration makes before it reports no convergence
MAX_SWEEPS = 100_000


@dataclass
class ValueIterationResult:
    values: np.ndarray
    iterations: int
    residuals: list[float]
    greedy: np.ndarray
    rounding_bounds: list[float]


def value_iteration(
    mdp: MDPSpec,
    epsilon: float = DEFAULT_TOL,
    max_iters: int = MAX_SWEEPS,
) -> ValueIterationResult:
    """Solve the stationary fixed-point equation by iterating from zero.

    Stops once the sup-norm step falls below eps (1 - |gamma|) / (2 |gamma|),
    which bounds the distance to the fixed point by eps/2; with gamma = 0
    the operator is constant and one sweep suffices. The residual history is
    returned so the per-step contraction ratio (at most |gamma|) can be
    inspected, with a bound delta_k on the rounding error of each step:
    r_{k+1} <= |gamma| r_k + delta_k + delta_{k+1}. It also stops, converged,
    at the rounding floor r_k <= delta_{k-1} + delta_k once a sweep returns
    the iterate of the sweep before: from there the iterates alternate
    between two values forever, so with eps = 0 the threshold is never met.
    """
    if mdp.cost is None:
        raise InputFormatError("value iteration needs a stationary cost")
    if not epsilon >= 0.0:
        raise InputFormatError(f"tolerance {epsilon!r} must be a number >= 0")
    if max_iters < 1:
        raise InputFormatError(f"max_iters {max_iters} must be at least 1")
    g = abs(mdp.gamma)
    threshold = float("inf") if g == 0.0 else epsilon * (1.0 - g) / (2.0 * g)

    # The sweep runs in extended precision: residuals shrink to the stopping
    # threshold, where plain double rounding on O(1) values would already
    # distort the per-step contraction ratio beyond the 1e-9 slack it is
    # checked against. The expected step cost does not depend on v and is
    # computed once, so a sweep is one mat-vec. The sweep is action-major:
    # q[a, i] = expected[i, a] + gamma (K_a v)[i], K_a[i] row a n + i of the
    # (a n, m) kernel (the (n, m) kernel itself when it ignores the action),
    # a masked action's expected cost +inf, and the minimum runs over the
    # actions in index order, as ``_bellman_min``'s does.
    kernel = mdp.kernel.astype(np.longdouble)
    gamma = np.longdouble(mdp.gamma)
    expected = _expected_cost(kernel, _transposed(mdp.cost.astype(np.longdouble)))
    rounding_bound = _rounding_bound(kernel, expected, gamma)
    rows = kernel.reshape(-1, kernel.shape[-1])
    expected_t = np.ascontiguousarray(expected.T)
    mask = mdp.action_mask
    if mask is not None:
        expected_t[~mask.T] = np.inf
    shape = (-1 if kernel.ndim == 3 else 1, mdp.n_states)
    v = previous = np.zeros(mdp.n_states, dtype=np.longdouble)
    residuals, bounds = [], []
    for _ in range(max_iters):
        norm = np.max(np.abs(v))
        nxt = (expected_t + gamma * np.dot(rows, v).reshape(shape)).min(axis=0)
        r = float(np.max(np.abs(nxt - v)))
        residuals.append(r)
        bounds.append(rounding_bound(norm, r))
        cycles = r <= sum(bounds[-2:]) and np.array_equal(nxt, previous)
        previous, v = v, nxt
        if r <= threshold or cycles:
            break
    else:
        raise ConvergenceError(max_iters, residuals, bounds)
    values = v.astype(float)
    _, greedy = _bellman_min(mdp.kernel, _transposed(mdp.cost), mdp.gamma, values, mask)
    return ValueIterationResult(
        values=values,
        iterations=len(residuals),
        residuals=residuals,
        greedy=greedy,
        rounding_bounds=bounds,
    )


def _rounding_bound(kernel, expected, gamma) -> Callable[[np.longdouble, float], float]:
    """The bound delta_k = bound(||v_{k-1}||, r_k) of sweep k, rounded up to
    float64, such that the printed residuals obey
    r_{k+1} <= |gamma| r_k + delta_k + delta_{k+1}.

    The sweep's entries expected + gamma (K v) take m products and sums and
    two more operations, so each is off by at most (m + 2) u (|expected| +
    |gamma| rho ||v_{k-1}||) to first order, u the long-double unit roundoff
    and rho a bound on the kernel's row sums; one more u covers the
    higher-order terms and the float64 rounding of the printed residuals.
    ``expected`` is rounded once, before the sweeps: it defines a nearby MDP
    that the sweeps iterate on, so its rounding does not enter. The second
    term, |gamma| max(0, rho (1 + 2^-50) - 1) r_k, covers the float64
    rounding of the printed residuals in the ratio and any kernel row that
    sums above 1.
    """
    c = (kernel.shape[-1] + 3) * np.finfo(np.longdouble).eps / 2
    rho = kernel.sum(axis=-1).max() * (1 + c)
    g = abs(gamma)
    largest = np.max(np.abs(expected))
    printed = g * max(rho * (1 + np.longdouble(2.0) ** -50) - 1, 0)

    def bound(norm: np.longdouble, residual: float) -> float:
        delta = c * (largest + g * rho * norm) + printed * np.longdouble(residual)
        return math.nextafter(float(delta), math.inf)

    return bound


# -- discount-normalized value process on trees ---------------------------------


@dataclass
class ShiftedProcess:
    """Vtilde values per stage and node; stages where the shift is undefined
    (gamma = 0 and t >= 1) are listed in ``skipped_stages``."""

    stages: dict[int, dict[int, float]]
    skipped_stages: list[int]


def _stage_cost_tables(
    tree: ScenarioTree, tables: ValueTables, cost: CostSpec, t: int
) -> list[np.ndarray]:
    """c_t(node, .) on the grids of ``tables.V[node]`` for every stage-t node
    (t >= 1), in ``stage_nodes`` order.

    One :func:`costs.leaf_arrays` call evaluates the stage cost alone on the
    stage-t root paths, as :meth:`CostSpec._accumulate` evaluates its term.
    c_t does not read u_t, so the node's own grid is cut to its first
    candidate, and that axis is dropped.
    """
    if len(cost.stage_costs) < t:
        raise MultistageError(
            f"additive cost has {len(cost.stage_costs)} stage costs but the "
            f"trajectory needs {t}"
        )
    a, stage = max(0, t - cost.lag), cost.stage_costs[t - 1]
    alone = CostSpec.general(_compiled(lambda xs, us: window_values(stage, xs[a:], us[a:t])))
    nodes = tree.stage_nodes(t)
    grids = [tables.axes[n][:-1] + (tables.axes[n][-1][:1],) for n in nodes]
    arrays = leaf_arrays(alone, [path(tree, n) for n in nodes], grids)
    return [values[..., 0] for values in arrays]


def shifted_tables(
    tree: ScenarioTree, tables: ValueTables, cost: CostSpec
) -> dict[int, np.ndarray]:
    """Vtilde_t(node, .) = gamma^-t (V_t(node, .) - prefix_t) on the grids of ``tables.V[node]``.

    One array for every node of a stage where the shift is defined (every
    stage, or only stage 0 when gamma = 0), in stage order, then in
    ``stage_nodes`` order. The prefix, the discounted stage costs through t,
    is the parent's prefix plus gamma^(t-1) c_t (:func:`_stage_cost_tables`),
    from 0.0 at the root: the float operations of
    :meth:`CostSpec._accumulate`, in its order, with each stage cost
    evaluated once.
    """
    if cost.form != "additive":
        raise MultistageError("the discount shift requires an additive cost")
    return _shift_pass(tree, tables, cost, tree.horizon if cost.gamma != 0.0 else 0)[1]


def _shift_pass(
    tree: ScenarioTree, tables: ValueTables, cost: CostSpec, last: int
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The stage-cost arrays c_t(node, .) of every node of stages 1..last, and
    Vtilde of :func:`shifted_tables` at every node of stages 0..last where the
    shift is defined, both top down."""
    steps: dict[int, np.ndarray] = {}
    shifted: dict[int, np.ndarray] = {}
    prefix = {0: np.zeros(())}
    for t in range(last + 1):
        nodes = tree.stage_nodes(t)
        if t > 0:
            steps.update(zip(nodes, _stage_cost_tables(tree, tables, cost, t)))
            if cost.gamma == 0.0:
                continue
            prefix = {
                nid: prefix[tree.nodes[nid].parent][..., None] + cost.gamma ** (t - 1) * steps[nid]
                for nid in nodes
            }
        for nid in nodes:
            shifted[nid] = (tables.V[nid] - prefix[nid]) / cost.gamma**t
    return steps, shifted


def tilde_shift(
    tree: ScenarioTree,
    tables: ValueTables,
    cost: CostSpec,
    policy: Policy,
) -> ShiftedProcess:
    """Discount-normalized value process of V along a policy.

    Vtilde_0 equals V_0; later stages subtract the realized accumulated
    costs and divide by gamma^t (:func:`shifted_tables`, read at the
    policy's decision history, :meth:`Policy.decision_paths`, which needs a
    decision at every node). With gamma = 0 the shift is undefined for
    t >= 1 and those stages are reported as skipped.
    """
    shifted = shifted_tables(tree, tables, cost)
    hists = policy.decision_paths(tree)
    stages: dict[int, dict[int, float]] = {}
    for nid, values in shifted.items():
        level = stages.setdefault(tree.node(nid).stage, {})
        level[nid] = float(values[tables.index(nid, hists[nid][:-1])])
    skipped = [t for t in range(1, tree.horizon + 1) if cost.gamma == 0.0]
    return ShiftedProcess(stages=stages, skipped_stages=skipped)


# -- lag-l recursion on trees ----------------------------------------------------


def _round_vec(vec: Sequence[float]) -> tuple[float, ...]:
    return tuple(round(float(x), LAG_KEY_DIGITS) for x in vec)


def _window_classes(
    tree: ScenarioTree, cls: PolicyClass, lag: int
) -> tuple[dict[int, tuple], dict[int, int]]:
    """Every node's rounded observation window x_{t-l+1..t} and subtree class.

    A window extends its parent's, top down. Class ids are assigned bottom
    up, one per distinct canonical form of the law and grids below a node:
    its sorted rounded grid and the sorted (rounded probability, rounded
    observation, class id) of its children. So two nodes share an id
    exactly when the nested forms, child classes unfolded, are equal.
    """
    obs = {n.id: _round_vec(n.obs) for n in tree.nodes}
    windows: dict[int, tuple] = {}
    for nid in tree.top_down():
        parent = tree.nodes[nid].parent
        window = windows.get(parent, ()) + (obs[nid],)
        windows[nid] = window[max(0, len(window) - lag):]
    ids: dict[int, int] = {}
    forms: dict[tuple, int] = {}
    for nid in reversed(tree.top_down()):
        grid = tuple(sorted(_round_vec(u) for u in cls.feasible[nid]))
        below = sorted(
            (round(tree.nodes[c].cond_prob, LAG_KEY_DIGITS), obs[c], ids[c])
            for c in tree.children(nid)
        )
        ids[nid] = forms.setdefault((grid, tuple(below)), len(forms))
    return windows, ids


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
    if cost.form != "additive":
        raise MultistageError("the lag recursion requires an additive cost")
    lag = cost.lag

    windows, classes = _window_classes(tree, cls, lag)
    for t in range(tree.horizon + 1):
        groups: dict[tuple, list[int]] = {}
        for nid in tree.stage_nodes(t):
            groups.setdefault(windows[nid], []).append(nid)
        for window, ids in groups.items():
            if len({classes[i] for i in ids}) > 1:
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
    steps, shifted = _shift_pass(tree, tables, cost, tree.horizon)

    # Per node, Vtilde as (outer heads, window columns u_{t-l+1..t-1}). A key's
    # reference is its first value in C order: row 0 of its first column in
    # the first node that has it. NaN differences never count, as under max.
    collapse: dict[int, dict[tuple, float]] = {}
    collapse_dev = 0.0
    for nid, values in shifted.items():
        t = tree.node(nid).stage
        level = collapse.setdefault(t, {})
        grids = tables.axes[nid][max(0, t - lag + 1):-1]
        columns = values.reshape(-1, math.prod(map(len, grids)))
        refs = []
        for first, us in zip(
            columns[0].tolist(),
            itertools.product(*([_round_vec(u) for u in grid] for grid in grids)),
        ):
            refs.append(level.setdefault((windows[nid], us), first))
        with np.errstate(all="ignore"):
            deviations = np.abs(columns - refs)
        collapse_dev = float(np.fmax.reduce(deviations, axis=None, initial=collapse_dev))

    # Per node, q[head, child, u] = c_{t+1} + gamma Vtilde_{t+1}(child, head + (u,)),
    # with c_{t+1} the child's stage-cost array on the grids of V_{t+1}(child),
    # the node's own; the right-hand side is one Bellman minimum.
    violation = -float("inf")
    equality = True
    for nid, values in shifted.items():
        t = tree.node(nid).stage
        if t == tree.horizon:
            continue
        lhs, shape, kids = values.ravel(), tables.v[nid].shape, tree.children(nid)
        q = np.empty((lhs.size, len(kids), shape[-1]))
        for j, c in enumerate(kids):
            step = steps[c] if gamma == 0.0 else steps[c] + gamma * shifted[c]
            q[:, j] = step.reshape(lhs.size, -1)
        kernel = np.broadcast_to([tree.nodes[c].cond_prob for c in kids], q.shape[:2])
        rhs = _bellman_min(kernel, _transposed(q), 0.0, np.zeros(len(kids)))[0]
        violation = max(violation, *(rhs - lhs).tolist())
        equality = equality and not (np.abs(lhs - rhs) > tol).any()
    return LagRecursionReport(
        applicable=True,
        reason=None,
        witness=None,
        window_values=collapse,
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
    is x_{t+1} = X_{t+1}. ``stage_step_costs[t]``, one for each of the
    ``horizon`` steps, is the cost incurred on step t in window form,
    ``c(xs, us)`` with ``xs = (x_t, x_{t+1})`` and ``us = (u_t,)``: the
    lag-1 stage cost c_{t+1} of an additive tree cost, with the same
    callable shape. A stationary problem holds one callable at
    every stage. :meth:`step_array` evaluates each stage's step costs once,
    for the load check and the recursion alike.
    """

    initial_state: tuple[float, ...]
    horizon: int
    stage_noise: tuple[tuple[tuple[float, tuple[float, ...]], ...], ...]
    stage_decisions: tuple[tuple[Decision, ...], ...]
    gamma: float
    stage_step_costs: tuple[Callable[[tuple, tuple], float], ...]
    _steps: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
        if not -1.0 < self.gamma < 1.0:
            raise InputFormatError(f"gamma {self.gamma} outside (-1, 1)")
        if (n := len(self.stage_step_costs)) != self.horizon:
            raise InputFormatError(
                f"{n} stage costs cannot cover horizon {self.horizon}"
                if n < self.horizon else f"{n} stage costs for horizon {self.horizon}"
            )
        for t, atoms in enumerate(self.stage_noise):
            total = sum(p for p, _ in atoms)
            if abs(total - 1.0) > KERNEL_TOL:
                raise InputFormatError(
                    f"stage {t + 1} noise probabilities sum to {total!r}, not 1"
                )
            for k, (p, value) in enumerate(atoms):
                if not math.isfinite(p) or not all(map(math.isfinite, value)):
                    raise InputFormatError(
                        f"stage {t + 1} noise support contains a non-finite entry"
                    )
                if p < 0.0:
                    raise InputFormatError(
                        f"stage {t + 1} noise atom {k} has negative probability {p!r}"
                    )
        for t, grid in enumerate(self.stage_decisions):
            if not grid:
                raise InputFormatError(f"stage {t} has an empty decision grid")

    def support(self, t: int) -> tuple[tuple[float, ...], ...]:
        """States reachable at stage t."""
        if t == 0:
            return (self.initial_state,)
        return tuple(value for _, value in self.stage_noise[t - 1])

    def step_array(self, t: int) -> np.ndarray:
        """Stage t's :func:`_step_array`, over its states, noise values and
        decisions; evaluated at the first call and kept, read-only."""
        if t not in self._steps:
            self._steps[t] = _step_array(
                self.stage_step_costs[t], self.support(t), self.support(t + 1),
                self.stage_decisions[t],
            )
        return self._steps[t]


def _step_array(cost: Callable, states, outcomes, decisions) -> np.ndarray:
    """step[x, j, u] = cost((x, xi_j), (u,)) over every state, noise value and decision.

    It is one :func:`costs.window_values` call on the one-row windows
    ((x_t, x_{t+1}), (u_t,)) whose positions range over the three grids on
    axes 1-3, so a compiled step cost broadcasts and any other is called
    entry by entry, in C order. Non-finite entries are kept. The array is a
    read-only view, as ``np.broadcast_to`` returns one.
    """
    xs = GridWindow.single([states, outcomes], (1, 2), 4)
    us = GridWindow.single([decisions], (3,), 4)
    with np.errstate(all="ignore"):
        step = window_values(cost, xs, us)
    return np.broadcast_to(step, (1, len(states), len(outcomes), len(decisions)))[0]


def sddp_recursion(spec: SddpSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact solve of the stagewise independent dynamic equation.

    Vtilde_t(x) = min_u E[ c_{t+1}((x, X_{t+1}), (u,)) + gamma Vtilde_{t+1}(X_{t+1}) ]
    with an unconditional expectation: independence makes conditioning on
    x_t irrelevant for the law of X_{t+1}. Returns, as
    :func:`mdp_backward_induction` does, the value arrays for t = 0..T, entry
    k of ``values[t]`` at state ``spec.support(t)[k]``, and for t = 0..T-1
    the first-argmin indices into ``spec.stage_decisions[t]``. Each stage's
    step costs are one :func:`_step_array`, read through
    :meth:`SddpSpec.step_array`.
    """
    values, greedy = [np.zeros(len(spec.support(spec.horizon)))], []
    for t in range(spec.horizon - 1, -1, -1):
        step = spec.step_array(t)
        bad = np.argwhere(~np.isfinite(step))
        if len(bad):
            k, j, i = bad[0]
            raise UnboundedObjectiveError(
                f"step cost of stage {t} evaluated to {float(step[k, j, i])!r} at "
                f"x={spec.support(t)[k]!r}, w={spec.support(t + 1)[j]!r}, "
                f"u={spec.stage_decisions[t][i]!r}; it must be finite"
            )
        v, g = _bellman_min(
            np.broadcast_to([p for p, _ in spec.stage_noise[t]], step.shape[:2]),
            _transposed(step),
            spec.gamma,
            values[-1],
        )
        values.append(v)
        greedy.append(g)
    return values[::-1], greedy[::-1]


# -- bridges between the formulations ----------------------------------------------


def _unroll(
    root: tuple, horizon: int, branches: Callable, grid: Callable, m: int, stage_costs, gamma
) -> tuple[ScenarioTree, CostSpec, PolicyClass]:
    """Unroll a lag-1 problem into a scenario tree, stage by stage.

    ``root`` is the root's (observation, state). A stage-t node of state s
    gets the children ``branches(t, s)``, (probability, observation, state)
    triples, in that order, and the decision grid ``grid(t, s)``; a leaf gets
    a dummy singleton of dimension ``m``, whose decision never enters the
    cost. Nodes are numbered breadth first. The cost is the additive lag-1
    stack of ``stage_costs`` and the class is nodewise.
    """
    nodes = [Node(0, 0, None, 1.0, root[0])]
    frontier = [(0, root[1])]
    feasible: dict[int, tuple[Decision, ...]] = {}
    for t in range(horizon):
        children = []
        for parent, state in frontier:
            feasible[parent] = grid(t, state)
            for p, obs, nxt in branches(t, state):
                children.append((len(nodes), nxt))
                nodes.append(Node(len(nodes), t + 1, parent, p, obs))
        frontier = children
    for leaf, _ in frontier:
        feasible[leaf] = ((0.0,) * m,)
    tree = ScenarioTree(nodes, horizon=horizon, obs_dim=len(root[0]))
    cost = CostSpec.additive(stage_costs=tuple(stage_costs), gamma=gamma, lag=1)
    return tree, cost, PolicyClass(feasible=feasible, kind="nodewise", decision_dim=m)


def sddp_to_product_tree(spec: SddpSpec) -> tuple[ScenarioTree, CostSpec, PolicyClass]:
    """Unroll a stagewise independent problem into a scenario tree.

    Every stage-t node branches into the stage-(t+1) noise atoms, the cost
    becomes an additive lag-1 stack, and the class is nodewise with the
    stage decision grid at every node (plus a dummy singleton at the
    leaves, whose decision never enters the cost). At horizon 0 the tree is
    the root alone, with decision dimension 0.
    """
    grids = spec.stage_decisions
    return _unroll(
        (spec.initial_state, None),
        spec.horizon,
        lambda t, _: [(float(p), value, None) for p, value in spec.stage_noise[t]],
        lambda t, _: grids[t],
        len(grids[0][0]) if grids else 0,
        spec.stage_step_costs,
        spec.gamma,
    )


def sddp_to_mdp(spec: SddpSpec) -> tuple[MDPSpec, int]:
    """Stationary MDP matching a shared-noise, stationary-cost instance.

    Requires the same noise distribution at every stage and a stationary
    step cost, one callable at every stage. States are the initial state
    plus the noise support; every kernel row is the shared marginal.
    Returns the spec and the index of the initial state.
    """
    if spec.horizon == 0:
        raise MultistageError("the MDP bridge requires horizon >= 1, got horizon 0")
    step_cost = spec.stage_step_costs[0]
    if any(c is not step_cost for c in spec.stage_step_costs[1:]):
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
    cost = np.array(_step_array(step_cost, states, states, actions))
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
    state_index = {s: i for i, s in enumerate(mdp.states)}
    action_index = {u: a for a, u in enumerate(mdp.actions)}

    def step(xw, uw):
        i = state_index[tuple(xw[-2])]
        j = state_index[tuple(xw[-1])]
        a = action_index[tuple(uw[-1])]
        return float(mdp.cost[i, j, a])

    return _unroll(
        (mdp.states[start_index], start_index),
        horizon,
        lambda t, i: [
            (p, mdp.states[j], j) for j, p in enumerate(mdp.kernel[i].tolist()) if p > 0.0
        ],
        lambda t, i: tuple(mdp.actions[a] for a in mdp.action_indices(i)),
        len(mdp.actions[0]),
        [step] * horizon,
        mdp.gamma,
    )


# -- JSON -------------------------------------------------------------------------


def mdp_from_json(data: dict) -> MDPSpec:
    """MDP from a JSON object. ``gamma``, ``bound_K`` and the entries of the state and
    action vectors must be JSON numbers; :class:`MDPSpec` reads the arrays
    as numpy reads them, a string, boolean or null entry rejected
    (:func:`_float_array`)."""
    require_object(data, "malformed MDP JSON: an MDP")
    try:
        return MDPSpec(
            states=tuple(require_numbers(s, "MDP state entry") for s in data["states"]),
            actions=tuple(require_numbers(a, "MDP action entry") for a in data["actions"]),
            kernel=data["kernel"],
            cost=data.get("cost"),
            gamma=require_number(data["gamma"], "MDP gamma"),
            bound_K=require_number(data["bound_K"], "MDP bound_K"),
            stage_costs=tuple(data["stage_costs"]) if data.get("stage_costs") else None,
            actions_by_state=(
                tuple(
                    tuple(require_int(a, "actions_by_state entry") for a in row)
                    for row in data["actions_by_state"]
                )
                if data.get("actions_by_state") is not None
                else None
            ),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed MDP JSON: {exc}") from exc


# Step-cost roles in window form: (role, offset from the window end).
_STEP_ROLES = {"x": ("x", 1), "w": ("x", 0), "u": ("u", 0)}


def _step_cost_from_json(spec: dict, dims: dict[str, int]) -> Callable:
    """Step cost from JSON, compiled as the lag-1 window cost c((x, w), (u,)).

    The payload names the state x = x_t, the noise value w = x_{t+1} and the
    decision u = u_t. A ``poly`` term's variables map to the window roles
    of :func:`costs.poly_cost` (``dims`` bounds each role's components), a
    ``table`` entry ``{x, w, u, value}`` to ``{"x": [x, w], "u": [u], "value"}``
    (so a fault in an entry's w is reported at position 1 of its x window).
    """
    if "poly" in spec:
        terms = []
        for k, term in enumerate(spec["poly"]["terms"]):
            variables = []
            for role, comp, power in term["vars"]:
                role = str(role)
                comp = require_int(comp, "step-cost variable component")
                power = require_int(power, "step-cost variable power")
                if not 0 <= comp < dims.get(role, 0):
                    raise InputFormatError(
                        f"step-cost term {k}: no component {comp} of role {role!r} {dims}"
                    )
                variables.append([*_STEP_ROLES[role], comp, power])
            terms.append({"coef": term["coef"], "vars": variables})
        return _callable_from_json({"poly": {"terms": terms}}, window_relative=True)
    if "table" in spec:
        table = require_object(spec["table"], "step-cost table")
        entries = [
            {"x": [e["x"], e["w"]], "u": [e["u"]], "value": e["value"]}
            for e in table["entries"]
        ]
        return _callable_from_json({"table": {**table, "entries": entries}}, window_relative=True)
    raise InputFormatError("step cost spec needs one of: poly, table")


def sddp_from_json(data: dict) -> SddpSpec:
    """Stagewise independent problem from a JSON object, its step costs checked at load.

    ``gamma``, the noise probabilities and the entries of the noise values,
    decisions and ``initial_state`` must be JSON numbers. One
    :func:`all_numbers` pass checks those entries; only when it fails does a
    pass per entry run, to name the first fault.

    The file gives exactly one of ``cost`` and ``stage_costs``, and a
    ``stage_costs`` list holds one entry per stage (:class:`SddpSpec`).
    A compiled step cost's ``problems`` runs at every stage t < horizon, on
    the states, noise values and decisions of that step, so a 0 under a
    negative power or a power that overflows a float is rejected here. A
    ``table`` step cost is then looked up on every (state, noise value,
    decision) of every stage, in stage order, by :meth:`SddpSpec.step_array`,
    whose arrays :func:`sddp_recursion` then reads, so a miss is rejected
    here too.
    """
    require_object(data, "malformed stagewise-independent JSON: a stagewise-independent problem")
    try:
        noise = [[(a["prob"], a["value"]) for a in atoms] for atoms in data["stage_noise"]]
        grids = data["stage_decisions"]
        entries = itertools.chain(
            (p for atoms in noise for p, _ in atoms),
            itertools.chain.from_iterable(v for atoms in noise for _, v in atoms),
            itertools.chain.from_iterable(itertools.chain.from_iterable(grids)),
            data["initial_state"],
        )
        if not all_numbers(entries):
            for atoms in noise:
                for p, v in atoms:
                    require_number(p, "noise probability")
                    require_numbers(v, "noise value entry")
            for grid in grids:
                for u in grid:
                    require_numbers(u, "decision entry")
            require_numbers(data["initial_state"], "initial_state entry")
        stage_noise = tuple(
            tuple((float(p), tuple(map(float, v))) for p, v in atoms) for atoms in noise
        )
        stage_decisions = tuple(tuple(tuple(map(float, u)) for u in grid) for grid in grids)
        initial_state = tuple(map(float, data["initial_state"]))
        noise_dims = [len(value) for atoms in stage_noise for _, value in atoms]
        dims = {
            "x": min([len(initial_state)] + noise_dims),
            "w": min(noise_dims, default=0),
            "u": min((len(u) for grid in stage_decisions for u in grid), default=0),
        }
        horizon = require_int(data["horizon"], "stagewise horizon")
        gamma = require_number(data["gamma"], "stagewise gamma")
        if ("cost" in data) == ("stage_costs" in data):
            raise InputFormatError(
                "a stagewise-independent problem needs one of: cost, stage_costs (exactly one)"
            )
        if "stage_costs" in data:
            step_costs = tuple(_step_cost_from_json(c, dims) for c in data["stage_costs"])
        else:  # one per noise stage, which SddpSpec counts against horizon
            step_costs = (_step_cost_from_json(data["cost"], dims),) * len(stage_noise)
        spec = SddpSpec(
            initial_state=initial_state,
            horizon=horizon,
            stage_noise=stage_noise,
            stage_decisions=stage_decisions,
            gamma=gamma,
            stage_step_costs=step_costs,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed stagewise-independent JSON: {exc}") from exc

    # In the window (t + 1, 1), x[1] = x_t and u[0] = u_t are read at stage t
    # and the noise value x[0] = x_{t+1} at stage t + 1.
    magnitudes = stage_magnitudes(
        lambda role, t: spec.stage_decisions[t] if role == "u" else spec.support(t)
    )
    window_dims = {"x": max(dims["x"], dims["w"]), "u": dims["u"]}
    problems = [
        f"step-cost {p}"
        for t, cost in enumerate(spec.stage_step_costs)
        if hasattr(cost, "problems")
        for p in cost.problems(spec.horizon, (t + 1, 1), window_dims, magnitudes)
    ]
    if problems:
        raise InputFormatError(
            "; ".join(problems) + " (x[1] is the state x, x[0] the noise value w)"
        )
    for t, cost in enumerate(spec.stage_step_costs):
        if getattr(cost, "lookup", False):
            try:
                spec.step_array(t)
            except MultistageError as exc:
                raise InputFormatError(
                    f"stage {t} step-cost table: {exc} (x lists the state, then the noise value)"
                ) from None
    return spec
