"""Objective functions: general terminal costs and discounted stage costs.

A cost is evaluated per trajectory: it receives the observation path
(x_0, ..., x_T) and the full decision history (u_0, ..., u_T) and returns a
real number. Two forms exist:

* ``general``: an arbitrary bounded-below objective v(x, u).
* ``additive``: stage costs accumulated at lag l with discount gamma,

      v(x, u) = sum_{t=1..T} gamma^(t-1) * c_t(x_{t-l..t}, u_{t-l..t-1}),

  where window entries with negative stage index are dropped. The stage-t
  cost sees observations up to x_t but not the decision u_t taken after it.

Objectives can be plain Python callables or built from a JSON payload
(named builtin, polynomial, or lookup table), in which case they round-trip
through serialization. Polynomial and builtin payloads are compiled once,
when loaded, into functions that can also evaluate a whole grid of
decision histories at once (:meth:`CostSpec.evaluate_grid`); tables and
raw callables are evaluated history by history.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import InputFormatError, MultistageError, UnboundedObjectiveError
from .tolerances import EQUALITY_TOL, HOLDER_SLACK

Vector = tuple[float, ...]
Window = tuple[Vector, ...]


def x_window(paths: Sequence[Vector], t: int, lag: int) -> Window:
    """Observations x_{t-lag..t}, truncated at stage 0."""
    return tuple(paths[max(0, t - lag): t + 1])


def u_window(decisions: Sequence[Vector], t: int, lag: int) -> Window:
    """Decisions u_{t-lag..t-1}, truncated at stage 0."""
    return tuple(decisions[max(0, t - lag): t])


class GridWindow:
    """A window over a grid product.

    Window position j holds the candidate vectors of output axis ``axes[j]``
    of an array with ``ndim`` axes: on a tree, the decisions of each stage
    of the path; in the stagewise recursion, also the states and noise
    values.
    """

    def __init__(self, grids: Sequence[Sequence[Vector]], axes: Sequence[int], ndim: int):
        self.grids = grids
        self.axes = axes
        self.ndim = ndim

    def __len__(self) -> int:
        return len(self.grids)

    def factor(self, j: int, f: Callable[[Vector], float]) -> np.ndarray:
        """f(u) for every candidate u at position j, shaped to broadcast along its axis."""
        shape = [1] * self.ndim
        shape[self.axes[j]] = len(self.grids[j])
        return np.array([f(u) for u in self.grids[j]], dtype=float).reshape(shape)


@dataclass(frozen=True)
class CostSpec:
    """Either a general objective or an additive lag-l stage-cost stack."""

    form: str
    objective: Callable[[Window, Window], float] | None = None
    stage_costs: tuple[Callable[[Window, Window], float], ...] | None = None
    gamma: float | None = None
    lag: int | None = None
    holder: tuple[float, float, float] | None = None
    payload: dict | None = None

    def __post_init__(self):
        if self.form == "general":
            if self.objective is None:
                raise InputFormatError("general cost needs an objective callable")
        elif self.form == "additive":
            if self.stage_costs is None or self.gamma is None or self.lag is None:
                raise InputFormatError("additive cost needs stage_costs, gamma and lag")
            if not -1.0 < self.gamma < 1.0:
                raise InputFormatError(f"gamma {self.gamma} outside (-1, 1)")
            if self.lag < 0:
                raise InputFormatError(f"lag {self.lag} is negative")
        else:
            raise InputFormatError(f"unknown cost form {self.form!r}")

    @classmethod
    def general(cls, objective, holder=None, payload=None) -> "CostSpec":
        return cls(form="general", objective=objective, holder=holder, payload=payload)

    @classmethod
    def additive(cls, stage_costs, gamma, lag, holder=None, payload=None) -> "CostSpec":
        return cls(
            form="additive",
            stage_costs=tuple(stage_costs),
            gamma=float(gamma),
            lag=int(lag),
            holder=holder,
            payload=payload,
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, paths: Sequence[Vector], decisions: Sequence[Vector]) -> float:
        """Objective value on one trajectory with its full decision history."""
        if len(paths) != len(decisions):
            raise MultistageError(
                f"{len(paths)} observations but {len(decisions)} decisions"
            )
        if self.form == "general":
            value = float(self.objective(tuple(paths), tuple(decisions)))
        else:
            value = self._additive_sum(paths, decisions, len(paths) - 1)
        if not math.isfinite(value):
            raise _unbounded(value)
        return value

    def evaluate_grid(
        self, paths: Sequence[Vector], grids: Sequence[Sequence[Vector]]
    ) -> np.ndarray:
        """Objective on one trajectory for every decision history of a grid product.

        ``grids[t]`` lists the stage-t candidates. The result has shape
        (|grids[0]|, ..., |grids[T]|), and its entry (k_0, ..., k_T) equals,
        bit for bit, ``evaluate(paths, (grids[0][k_0], ..., grids[T][k_T]))``:
        compiled payloads combine per-stage factors by broadcasting, with the
        same operations in the same order; anything else is evaluated
        history by history.
        """
        if len(paths) != len(grids):
            raise MultistageError(f"{len(paths)} observations but {len(grids)} grids")
        shape = tuple(len(g) for g in grids)
        ndim = len(shape)
        paths = tuple(paths)
        if self.form == "general":
            compiled = hasattr(self.objective, "grid")
        else:
            T = ndim - 1
            if len(self.stage_costs) < T:
                raise MultistageError(
                    f"additive cost has {len(self.stage_costs)} stage costs but the "
                    f"trajectory needs {T}"
                )
            compiled = all(hasattr(c, "grid") for c in self.stage_costs[:T])
        if not compiled:
            values = [self.evaluate(paths, h) for h in itertools.product(*grids)]
            return np.array(values, dtype=float).reshape(shape)

        with np.errstate(all="ignore"):
            if self.form == "general":
                value = self.objective.grid(paths, GridWindow(grids, range(ndim), ndim))
            else:
                value = 0.0
                for t in range(1, ndim):
                    a = max(0, t - self.lag)
                    c = self.stage_costs[t - 1].grid(
                        paths[a: t + 1], GridWindow(grids[a:t], range(a, t), ndim)
                    )
                    value = value + self.gamma ** (t - 1) * c
        values = np.array(np.broadcast_to(value, shape), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            raise _unbounded(float(values[~finite][0]))
        return values

    def _additive_sum(self, paths, decisions, through: int) -> float:
        if len(self.stage_costs) < through:
            raise MultistageError(
                f"additive cost has {len(self.stage_costs)} stage costs but the "
                f"trajectory needs {through}"
            )
        total = 0.0
        for t in range(1, through + 1):
            c = self.stage_costs[t - 1](
                x_window(paths, t, self.lag), u_window(decisions, t, self.lag)
            )
            total += self.gamma ** (t - 1) * c
        return total

    def additive_prefix(self, paths, decisions, through: int) -> float:
        """Discounted stage costs accumulated through stage ``through``.

        Only needs decisions up to stage ``through - 1``; used to peel past
        costs off the value process when normalizing by the discount.
        """
        if self.form != "additive":
            raise MultistageError("prefix costs are defined for additive form only")
        return self._additive_sum(paths, decisions, through)


def _unbounded(value: float) -> UnboundedObjectiveError:
    return UnboundedObjectiveError(
        f"objective evaluated to {value!r}; it must be finite on the grid"
    )


# -- compiled payloads ----------------------------------------------------------
#
# A compiled cost is a plain function (xs, us) -> float of one pair of
# windows (observations, decisions), so that calling it costs no more than
# any raw callable. It carries two attributes: ``grid(xs, us)``, the same
# evaluation with ``us`` a :class:`GridWindow` (every decision position
# ranging over its grid; a ``poly`` also takes ``xs`` as one), returning an
# array that broadcasts to the grid product with the same float operations
# in the same order; and ``problems(T, window, dims, magnitudes)``, the
# payload's faults where it is evaluated (see :func:`cost_problems`).


def _no_problems(T, window, dims, magnitudes) -> list[str]:
    return []


def _compiled(evaluate, grid, problems=_no_problems):
    evaluate.grid = grid
    evaluate.problems = problems
    return evaluate


Term = tuple[float, tuple[tuple[str, int, int, int], ...]]


def poly_cost(terms: Sequence[Term], window_relative: bool):
    """Polynomial in observation and decision entries.

    Each term is ``(coef, vars)`` with vars ``(role, index, comp, power)``;
    role ``"x"`` reads the observations, ``"u"`` the decisions. The index is
    an absolute stage, or, when ``window_relative``, an offset from the
    window end (0 = latest entry: x_t, respectively u_{t-1}). A variable
    whose index falls outside the window makes its term vanish; the
    variables after it are not evaluated.
    """
    terms = tuple(terms)

    def evaluate(xs: Window, us: Window) -> float:
        if window_relative:
            xs, us = xs[::-1], us[::-1]
        total = 0.0
        for coef, variables in terms:
            prod = coef
            for role, index, comp, power in variables:
                seq = xs if role == "x" else us
                if 0 <= index < len(seq):
                    prod *= seq[index][comp] ** power
                else:
                    prod = 0.0
                    break
            total += prod
        return total

    def grid(xs: Window | GridWindow, us: GridWindow):
        factors: dict[tuple[str, int, int, int], np.ndarray] = {}
        total = 0.0
        for coef, variables in terms:
            prod = coef
            for role, index, comp, power in variables:
                seq = xs if role == "x" else us
                pos = len(seq) - 1 - index if window_relative else index
                if not 0 <= pos < len(seq):
                    prod = 0.0
                    break
                if not isinstance(seq, GridWindow):
                    prod = prod * seq[pos][comp] ** power
                    continue
                key = (role, pos, comp, power)
                if key not in factors:
                    factors[key] = seq.factor(pos, lambda v, c=comp, p=power: v[c] ** p)
                prod = prod * factors[key]
            total = total + prod
        return total

    def problems(T, window, dims, magnitudes):
        out = []
        for k, (_, variables) in enumerate(terms):
            for role, index, comp, power in variables:
                where = f"term {k}, {role}[{index}][{comp}]"
                if not 0 <= comp < dims[role]:
                    out.append(f"{where}: component {comp} outside 0..{dims[role] - 1}")
                    continue
                if window is None:
                    if not 0 <= index <= T:
                        out.append(f"{where}: stage {index} outside 0..{T}")
                        continue
                    stage = index
                else:
                    if index < 0:
                        out.append(f"{where}: window offset {index} is negative")
                        continue
                    t, lag = window
                    stage = t - index if role == "x" else t - 1 - index
                    if stage < max(0, t - lag):
                        break  # off the window: the term vanishes here
                if 0 <= power <= 1:
                    continue  # neither divides by 0 nor overflows
                sizes = magnitudes(role, stage, comp)
                if sizes is None:
                    continue
                if power < 0 and sizes[0] == 0.0:
                    out.append(f"{where}: a value 0 at stage {stage} has power {power}")
                    continue
                # |value| ** power is largest at the smallest or largest size
                size = sizes[0] if power < 0 else sizes[1]
                try:
                    size ** power
                except OverflowError:
                    out.append(f"{where}: {size!r} ** {power} at stage {stage} overflows a float")
        return out

    return _compiled(evaluate, grid, problems)


def quadratic_tracking(params: dict):
    """sum_t w_t * ||u_t - x_t||^2 over the window, x repeated cyclically over u."""
    weights = params.get("weights")
    weights = None if weights is None else tuple(float(w) for w in weights)

    def stage(t: int, x: Vector, u: Vector) -> float:
        w = 1.0 if weights is None else weights[t]
        return w * sum((ui - x[i % len(x)]) ** 2 for i, ui in enumerate(u))

    def evaluate(xs: Window, us: Window) -> float:
        total = 0.0
        for t, u in enumerate(us):
            total += stage(t, xs[t], u)
        return total

    def grid(xs: Window, us: GridWindow):
        total = 0.0
        for t in range(len(us)):
            total = total + us.factor(t, lambda u, t=t: stage(t, xs[t], u))
        return total

    def problems(T, window, dims, magnitudes):
        if weights is None:
            return []
        n = len(weights)
        if window is None:
            if n != T + 1:
                return [f"quadratic_tracking weights has {n} entries, expected T+1 = {T + 1}"]
            return []
        t, lag = window
        if n < min(t, lag):
            return [f"quadratic_tracking weights has {n} entries, the window needs {min(t, lag)}"]
        return []

    return _compiled(evaluate, grid, problems)


def sum_decisions(params: dict):
    """Sum of every decision entry in the window."""

    def evaluate(xs: Window, us: Window) -> float:
        return float(sum(sum(u) for u in us))

    def grid(xs: Window, us: GridWindow):
        total = 0
        for t in range(len(us)):
            total = total + us.factor(t, sum)
        return total

    return _compiled(evaluate, grid)


BUILTIN_OBJECTIVES = {
    "quadratic_tracking": quadratic_tracking,
    "sum_decisions": sum_decisions,
}


def table_objective(entries: Sequence[dict], atol: float = EQUALITY_TOL):
    """Lookup objective matching (x windows, u windows) within ``atol``."""
    parsed = [
        (
            tuple(tuple(float(v) for v in vec) for vec in e["x"]),
            tuple(tuple(float(v) for v in vec) for vec in e["u"]),
            float(e["value"]),
        )
        for e in entries
    ]

    def matches(key: Window, ref: Window) -> bool:
        if len(key) != len(ref):
            return False
        for a, b in zip(key, ref):
            if len(a) != len(b) or any(abs(x - y) > atol for x, y in zip(a, b)):
                return False
        return True

    def evaluate(xs: Window, us: Window) -> float:
        for ex, eu, value in parsed:
            if matches(xs, ex) and matches(us, eu):
                return value
        raise MultistageError(f"no table entry matches x={xs!r}, u={us!r}")

    return evaluate


def stage_magnitudes(vectors: Callable[[str, int], Sequence[Vector]]):
    """The ``magnitudes(role, stage, comp)`` argument of ``problems``.

    It returns the smallest and largest |entry comp| of the observations
    (role ``"x"``) or decisions (``"u"``) that ``vectors(role, stage)``
    lists, or None when there are none.
    """
    sizes: dict[tuple[str, int, int], tuple[float, float] | None] = {}

    def magnitudes(role: str, stage: int, comp: int) -> tuple[float, float] | None:
        key = (role, stage, comp)
        if key not in sizes:
            found = [abs(vec[comp]) for vec in vectors(role, stage) if len(vec) > comp]
            sizes[key] = (min(found), max(found)) if found else None
        return sizes[key]

    return magnitudes


def cost_problems(cost: CostSpec, tree, cls) -> list[str]:
    """Faults of a compiled cost payload against the tree and class it is solved on.

    A polynomial component must exist in its role's dimension, a general
    stage must lie in 0..T and a window offset must be >= 0, and no
    variable may take a negative power where an observation or a feasible
    decision at its stage is 0, nor a power that overflows a float there.
    ``quadratic_tracking`` weights must cover the stages they are read at.
    Tables and raw callables are not checked.
    """
    T = tree.horizon
    dims = {"x": tree.obs_dim, "u": cls.decision_dim}

    def vectors(role: str, stage: int) -> list[Vector]:
        ids = tree.stage_nodes(stage)
        if role == "x":
            return [tree.nodes[i].obs for i in ids]
        return [u for i in ids for u in cls.feasible.get(i, ())]

    magnitudes = stage_magnitudes(vectors)
    if cost.form == "general":
        if not hasattr(cost.objective, "problems"):
            return []
        return [f"cost {p}" for p in cost.objective.problems(T, None, dims, magnitudes)]
    out = []
    for k, c in enumerate(cost.stage_costs[:T]):
        if hasattr(c, "problems"):
            found = c.problems(T, (k + 1, cost.lag), dims, magnitudes)
            out += [f"stage cost {k} {p}" for p in found]
    return out


# -- JSON ---------------------------------------------------------------------


def _term_from_json(raw: dict) -> Term:
    variables = tuple(
        (str(role), int(stage), int(comp), int(power))
        for role, stage, comp, power in raw["vars"]
    )
    for role, _, _, _ in variables:
        if role not in ("x", "u"):
            raise InputFormatError(f"unknown variable role {role!r}")
    return float(raw["coef"]), variables


def _callable_from_json(spec: dict, window_relative: bool):
    if "poly" in spec:
        terms = [_term_from_json(term) for term in spec["poly"]["terms"]]
        return poly_cost(terms, window_relative)
    if "table" in spec:
        return table_objective(
            spec["table"]["entries"], atol=float(spec["table"].get("atol", EQUALITY_TOL))
        )
    if "builtin" in spec:
        name = spec["builtin"]
        if name not in BUILTIN_OBJECTIVES:
            raise InputFormatError(
                f"unknown builtin objective {name!r}; "
                f"available: {sorted(BUILTIN_OBJECTIVES)}"
            )
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise InputFormatError(f"builtin {name!r} params must be an object")
        return BUILTIN_OBJECTIVES[name](params)
    raise InputFormatError("objective spec needs one of: poly, table, builtin")


def cost_from_json(data: dict) -> CostSpec:
    """Build a cost from its JSON payload; the payload is kept for round trips."""
    try:
        form = data["form"]
        holder = None
        if "holder" in data:
            h = data["holder"]
            holder = (float(h["C"]), float(h["alpha"]), float(h["delta"]))
        if form == "general":
            return CostSpec.general(
                _callable_from_json(data, window_relative=False),
                holder=holder,
                payload=data,
            )
        if form == "additive":
            stage_costs = tuple(
                _callable_from_json(spec, window_relative=True)
                for spec in data["stage_costs"]
            )
            return CostSpec.additive(
                stage_costs,
                gamma=float(data["gamma"]),
                lag=int(data["lag"]),
                holder=holder,
                payload=data,
            )
        raise InputFormatError(f"unknown cost form {form!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed cost JSON: {exc}") from exc


def cost_to_json(cost: CostSpec) -> dict:
    if cost.payload is None:
        raise InputFormatError(
            "cost was built from a raw callable and has no serializable payload"
        )
    return cost.payload


# -- Hoelder continuity summary ----------------------------------------------


@dataclass(frozen=True)
class HolderCheck:
    """Outcome of checking |v(x,u1) - v(x,u2)| <= C * ||u1 - u2||^alpha."""

    C: float
    alpha: float
    delta: float
    max_ratio: float
    pairs_checked: int
    ok: bool


def holder_pairs(
    histories: Sequence[Window], values: Sequence[float], delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Distances ||h1 - h2|| and gaps |v1 - v2| of the pairs with 0 < distance <= delta."""
    if len(histories) < 2:
        return np.empty(0), np.empty(0)
    mat = np.asarray([[v for dec in h for v in dec] for h in histories], dtype=float)
    vals = np.asarray(values, dtype=float)
    diff = mat[:, None, :] - mat[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    dv = np.abs(vals[:, None] - vals[None, :])
    iu = np.triu_indices(len(histories), k=1)
    dist, dv = dist[iu], dv[iu]
    mask = (dist > 0.0) & (dist <= delta)
    return dist[mask], dv[mask]


def holder_check_values(
    histories: Sequence[Window],
    values: Sequence[float],
    C: float,
    alpha: float,
    delta: float,
) -> tuple[float, int, bool]:
    """Max |dv| / ||du||^alpha over pairs within delta, plus a pass flag."""
    dist, dv = holder_pairs(histories, values, delta)
    if not len(dist):
        return 0.0, 0, True
    ratios = dv / dist ** alpha
    max_ratio = float(ratios.max())
    return max_ratio, len(dist), bool(max_ratio <= C + HOLDER_SLACK)


def verify_holder(tree, cls, cost: CostSpec, C: float, alpha: float, delta: float) -> HolderCheck:
    """Check the declared Hoelder data on every leaf trajectory of the grid.

    For each leaf, all feasible decision histories along its path are paired
    and the bound is checked for pairs closer than ``delta``.
    """
    from .scenario_tree import path as tree_path

    worst = 0.0
    pairs = 0
    for leaf in tree.leaves():
        grids = [cls.feasible[i] for i in tree.path_nodes(leaf)]
        histories = list(itertools.product(*grids))
        values = cost.evaluate_grid(tree_path(tree, leaf), grids).ravel()
        ratio, n, _ = holder_check_values(histories, values, C, alpha, delta)
        worst = max(worst, ratio)
        pairs += n
    return HolderCheck(
        C=C, alpha=alpha, delta=delta, max_ratio=worst, pairs_checked=pairs,
        ok=worst <= C + HOLDER_SLACK,
    )


def empirical_holder_constant(tree, cls, cost: CostSpec, alpha: float, delta: float) -> float:
    """Smallest C that makes the Hoelder bound hold on the sampled grid."""
    check = verify_holder(tree, cls, cost, C=0.0, alpha=alpha, delta=delta)
    return check.max_ratio
