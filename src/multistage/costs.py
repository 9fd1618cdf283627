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
(named builtin, polynomial, or lookup table). Every payload is compiled
once, when loaded, into one function whose body takes batch windows
(:class:`GridWindow`), so every decision history of a batch of leaves is
evaluated at once (:meth:`CostSpec.evaluate_leaves`, whose result has a
leading leaf axis; :meth:`CostSpec.evaluate_grid` is a batch of one).
A plain window is a batch of one row: :meth:`CostSpec.evaluate` and a
compiled cost called on plain windows run that same body and return a
float. :func:`window_values` alone decides what broadcasts: raw callables
still receive plain windows, once per history of their batch window, in
leaf then C order. :func:`leaf_batches` groups leaves by grid sizes and
cuts the groups into batches of whole leaves of at most
:data:`LEAF_BATCH_ENTRIES` entries, so the working arrays of one batch stay
small: a few arrays of that many float64 entries, or of one larger leaf.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import (
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
from .policy import DEFAULT_ENUMERATION_CAP
from .scenario_tree import path
from .tolerances import EQUALITY_TOL, HOLDER_SLACK

Vector = tuple[float, ...]
Window = tuple[Vector, ...]

#: The longest tree horizon whose objective and value tables are evaluated:
#: a horizon-T array has T + 2 axes (the leaves, then one per stage decision),
#: numpy arrays hold at most 64, and the first-minimum gather of the
#: backward recursion adds one more.
MAX_HORIZON = 61


class GridWindow:
    """A window over a batch of grid products: one row per leaf on a tree.

    Window position j holds the candidate vectors of output axis ``axes[j]``
    of an array with ``ndim`` axes, whose axis 0 runs along the rows.
    Position j lists the distinct grids of its rows, one per tree node, and
    row r reads ``grids[j][rows[j][r]]``. An axis of None marks a position
    whose grids hold one vector each (the observations), which varies along
    the rows only. A plain window, or the stagewise recursion's states,
    noise values and decisions, is a batch of one row (:meth:`single`).
    """

    def __init__(self, grids, axes: Sequence[int | None], ndim: int, rows):
        self.grids = grids
        self.axes = axes
        self.ndim = ndim
        self.rows = rows

    @classmethod
    def single(cls, grids, axes: Sequence[int | None], ndim: int) -> "GridWindow":
        """The batch of one row whose position j ranges over ``grids[j]``."""
        return cls([[g] for g in grids], axes, ndim, [np.zeros(1, dtype=np.intp)] * len(grids))

    def __len__(self) -> int:
        return len(self.grids)

    def __getitem__(self, positions: slice) -> "GridWindow":
        return GridWindow(
            self.grids[positions], self.axes[positions], self.ndim, self.rows[positions]
        )

    def place(self, j: int, values: np.ndarray) -> np.ndarray:
        """Values shaped (..., distinct grids, candidates) of position j,
        gathered along the rows (axis 0, when there are several grids) and
        with the candidates on axis ``axes[j]``, so that they broadcast."""
        if values.shape[-2] > 1:
            values = values[..., self.rows[j], :]
        shape = [1] * self.ndim
        shape[0] = values.shape[-2]
        if self.axes[j] is not None:
            shape[self.axes[j]] = values.shape[-1]
        return values.reshape(values.shape[:-2] + tuple(shape))

    def factor(self, j: int, f: Callable, given: "GridWindow | None" = None) -> np.ndarray:
        """f(u) for every candidate u at position j, shaped to broadcast along its axis.

        f runs once per candidate of each distinct grid, and the values are
        placed by :meth:`place`. An observation shared by every row is f of
        it, a plain value. ``given``, the batch of observations with the
        same rows, makes it f(x, u) with x the row's vector at position j
        of ``given``.
        """
        if self.axes[j] is None and len(self.grids[j]) == 1:
            u = self.grids[j][0][0]
            return f(u) if given is None else f(given.grids[j][0][0], u)
        if given is None:
            table = [[f(u) for u in grid] for grid in self.grids[j]]
        else:
            pairs = zip(given.grids[j], self.grids[j])
            table = [[f(x, u) for u in grid] for (x,), grid in pairs]
        return self.place(j, np.array(table, dtype=float))

    def extent(self) -> list[tuple[int, int]]:
        """(axis, size) of every axis the window's placed values span: the
        rows' axis 0 where a position has several grids, and each candidate axis."""
        out = [(0, len(r)) for r, grids in zip(self.rows, self.grids) if len(grids) > 1]
        return out + [(a, len(g[0])) for g, a in zip(self.grids, self.axes) if a is not None]

    def at(self, index: Sequence[int]) -> Window:
        """The plain window at one index of the product (of row ``index[0]``)."""
        return tuple(
            grids[rows[index[0]]][0 if axis is None else index[axis]]
            for grids, rows, axis in zip(self.grids, self.rows, self.axes)
        )


def _shape(xs: GridWindow, us: GridWindow) -> list[int]:
    """The shape that the values of a pair of windows broadcast to."""
    shape = [1] * xs.ndim
    for axis, size in xs.extent() + us.extent():
        shape[axis] = size
    return shape


def _one_row(window: Sequence[Vector]) -> GridWindow:
    """A plain window as a batch of one row with no grid axes."""
    grids = [(v,) for v in window]
    return GridWindow.single(grids, (None,) * len(grids), 1)


#: entries of one batch of leaf arrays: whole leaves up to this many, or one larger leaf
LEAF_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class CostSpec:
    """Either a general objective or an additive lag-l stage-cost stack."""

    form: str
    objective: Callable[[Window, Window], float] | None = None
    stage_costs: tuple[Callable[[Window, Window], float], ...] | None = None
    gamma: float | None = None
    lag: int | None = None
    holder: tuple[float, float, float] | None = None

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
    def general(cls, objective, holder=None) -> "CostSpec":
        return cls(form="general", objective=objective, holder=holder)

    @classmethod
    def additive(cls, stage_costs, gamma, lag, holder=None) -> "CostSpec":
        return cls(
            form="additive",
            stage_costs=tuple(stage_costs),
            gamma=float(gamma),
            lag=int(lag),
            holder=holder,
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, paths: Sequence[Vector], decisions: Sequence[Vector]) -> float:
        """Objective value on one trajectory with its full decision history.

        :meth:`_accumulate` on the trajectory as a batch of one row. Of an
        additive cost on a path cut at stage t, it is the discounted stage
        costs through t, which do not read u_t.
        """
        with np.errstate(all="ignore"):
            value = self._accumulate(_one_row(paths), _one_row(decisions), len(paths) - 1)
        value = np.asarray(value).item()
        if not math.isfinite(value):
            raise _unbounded(value)
        return value

    def evaluate_grid(
        self, paths: Sequence[Vector], grids: Sequence[Sequence[Vector]]
    ) -> np.ndarray:
        """Objective on one trajectory for every decision history of a grid product.

        ``grids[t]`` lists the stage-t candidates. The result has shape
        (|grids[0]|, ..., |grids[T]|), and its entry (k_0, ..., k_T) equals,
        bit for bit, ``evaluate(paths, (grids[0][k_0], ..., grids[T][k_T]))``.
        It is :meth:`evaluate_leaves` on a batch of one leaf.
        """
        return self.evaluate_leaves([paths], [grids])[0]

    def evaluate_leaves(self, paths_list: Sequence, grids_list: Sequence) -> np.ndarray:
        """Objective on a batch of leaves, each for every history of its grid product.

        The leaves need equal grid sizes per stage. The result has shape
        (L, |g_0|, ..., |g_T|), and slice k is ``evaluate_grid`` of leaf k:
        both run the accumulation of :meth:`evaluate`, here with the
        observations and decisions batch :class:`GridWindow` s, and
        :func:`window_values` evaluates each cost on them (compiled payloads
        broadcast, anything else is called once per history, in leaf then C
        order). Leaves that share a stage's observation and grid objects
        (one tree node) share that stage's row, so a compiled factor is
        computed once per node. An error is the one the first failing leaf
        raises on its own. A horizon past :data:`MAX_HORIZON` is an error
        before any array is built.
        """
        horizon = len(grids_list[0]) - 1
        if horizon > MAX_HORIZON:
            raise MultistageError(
                f"horizon {horizon} exceeds {MAX_HORIZON}, the longest that is evaluated"
            )
        with _first_leaf_error(self, paths_list, grids_list):
            shape = tuple(map(len, grids_list[0]))
            for paths, grids in zip(paths_list, grids_list):
                if len(paths) != len(grids):
                    raise MultistageError(f"{len(paths)} observations but {len(grids)} decisions")
                if tuple(map(len, grids)) != shape:
                    raise MultistageError("a batch needs equal grid sizes per stage")
            obs, cands, rows = [], [], []
            for j in range(len(shape)):
                keys = [(id(p[j]), id(g[j])) for p, g in zip(paths_list, grids_list)]
                last = {key: i for i, key in enumerate(keys)}  # one per node, as they appear
                row = {key: r for r, key in enumerate(last)}
                rows.append(np.array([row[key] for key in keys], dtype=np.intp))
                obs.append([(paths_list[i][j],) for i in last.values()])
                cands.append([grids_list[i][j] for i in last.values()])
            ndim = len(shape) + 1
            xs = GridWindow(obs, (None,) * len(shape), ndim, rows)
            us = GridWindow(cands, tuple(range(1, ndim)), ndim, rows)
            with np.errstate(all="ignore"):
                value = self._accumulate(xs, us, len(shape) - 1)
            values = np.array(np.broadcast_to(value, (len(paths_list),) + shape), dtype=float)
            finite = np.isfinite(values)
            if not finite.all():
                raise _unbounded(float(values[~finite][0]))
            return values

    def _accumulate(self, paths: GridWindow, decisions: GridWindow, through: int):
        """The objective, or for the additive form the discounted sum from 0.0
        of stage costs 1..``through`` in stage order, on batch windows."""
        if len(paths) != len(decisions):
            raise MultistageError(
                f"{len(paths)} observations but {len(decisions)} decisions"
            )
        if self.form == "general":
            return window_values(self.objective, paths, decisions)
        if len(self.stage_costs) < through:
            raise MultistageError(
                f"additive cost has {len(self.stage_costs)} stage costs but the "
                f"trajectory needs {through}"
            )
        total = 0.0
        for t in range(1, through + 1):
            a = max(0, t - self.lag)
            c = window_values(self.stage_costs[t - 1], paths[a: t + 1], decisions[a:t])
            total = total + self.gamma ** (t - 1) * c
        return total


def _unbounded(value: float) -> UnboundedObjectiveError:
    return UnboundedObjectiveError(
        f"objective evaluated to {value!r}; it must be finite on the grid"
    )


@contextlib.contextmanager
def _first_leaf_error(cost: CostSpec, paths_list, grids_list):
    """On an error of a batch, raise what a loop of ``evaluate_grid`` over its
    leaves raises first: a batch evaluates the leaves in another order."""
    try:
        yield
    except Exception as exc:
        if len(paths_list) > 1 and not isinstance(exc, MemoryError):
            for paths, grids in zip(paths_list, grids_list):
                cost.evaluate_grid(paths, grids)
        raise


def leaf_batches(cost: CostSpec, paths_list, grids_list) -> list[tuple[list[int], np.ndarray]]:
    """Leaf arrays of many leaves in batches: ``(members, cost.evaluate_leaves(...))``.

    The leaves are grouped by their grid sizes per stage, in order of first
    appearance, and each group is cut into batches of whole leaves holding
    at most :data:`LEAF_BATCH_ENTRIES` entries (one leaf if it holds more).
    ``members`` lists the input positions of a batch's leaves. An error is
    the one a loop of ``evaluate_grid`` over the leaves, in input order,
    raises first.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, grids in enumerate(grids_list):
        groups.setdefault(tuple(map(len, grids)), []).append(i)
    batches = []
    with _first_leaf_error(cost, paths_list, grids_list):
        for shape, members in groups.items():
            step = max(1, LEAF_BATCH_ENTRIES // max(1, math.prod(shape)))
            for s in range(0, len(members), step):
                part = members[s: s + step]
                values = cost.evaluate_leaves(
                    [paths_list[i] for i in part], [grids_list[i] for i in part]
                )
                batches.append((part, values))
    return batches


def leaf_arrays(cost: CostSpec, paths_list, grids_list) -> list[np.ndarray]:
    """``evaluate_grid`` of every leaf, in input order, from :func:`leaf_batches`."""
    out: list = [None] * len(paths_list)
    for members, values in leaf_batches(cost, paths_list, grids_list):
        for k, i in enumerate(members):
            out[i] = values[k]
    return out


# -- compiled payloads ----------------------------------------------------------
#
# A compiled cost is one function (xs, us) of a pair of batch windows
# (observations, decisions), :class:`GridWindow` s with the same rows;
# ``poly``, the builtins and ``table`` all are. Its body returns an array
# that broadcasts to the windows' grid products, or a float where nothing
# varies. Called on plain windows, it runs the same body on them as a batch
# of one row and returns a Python float, with the same float operations in
# the same order (a table: the same comparisons, and the same first
# matching entry). It carries ``problems(T, window, dims, magnitudes)``, the
# payload's faults where it is evaluated (see :func:`cost_problems`); that
# attribute also marks it as compiled for :func:`window_values`, the one
# place that decides which costs broadcast. A table also carries
# ``lookup = True``: :func:`table_misses` checks that it matches every grid
# history it will be evaluated on.


def _no_problems(T, window, dims, magnitudes) -> list[str]:
    return []


def _compiled(evaluate, problems=_no_problems):
    """The compiled cost of a body that takes batch windows."""

    def compiled(xs, us):
        if isinstance(xs, GridWindow):
            return evaluate(xs, us)
        return np.asarray(evaluate(_one_row(xs), _one_row(us))).item()

    compiled.problems = problems
    return compiled


def window_values(cost: Callable, xs: GridWindow, us: GridWindow):
    """cost(xs, us) on a pair of batch windows.

    A compiled cost (every JSON payload, ``table`` included) is called once
    on the windows. A raw callable is called once per history of the
    windows' grid product (:func:`_shape`), in C order, on the
    plain windows :meth:`GridWindow.at` picks, and the values are returned
    as an array that broadcasts like a compiled cost's.
    """
    if hasattr(cost, "problems"):
        return cost(xs, us)
    shape = _shape(xs, us)
    values = [
        cost(xs.at(index), us.at(index)) for index in itertools.product(*map(range, shape))
    ]
    return np.array(values, dtype=float).reshape(shape)


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

    def evaluate(xs: GridWindow, us: GridWindow):
        windows = {"x": (xs, len(xs)), "u": (us, len(us))}
        factors: dict[tuple[str, int, int, int], np.ndarray] = {}
        total = 0.0
        for coef, variables in terms:
            prod = coef
            for role, index, comp, power in variables:
                seq, n = windows[role]
                pos = n - 1 - index if window_relative else index
                if not 0 <= pos < n:
                    prod = 0.0
                    break
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

    return _compiled(evaluate, problems)


def quadratic_tracking(params: dict):
    """sum_t w_t * ||u_t - x_t||^2 over the window, x repeated cyclically over u."""
    weights = params.get("weights")
    weights = None if weights is None else require_numbers(weights, "quadratic_tracking weight")

    def stage(t: int, x: Vector, u: Vector) -> float:
        w = 1.0 if weights is None else weights[t]
        try:
            return w * sum((ui - x[i % len(x)]) ** 2 for i, ui in enumerate(u))
        except OverflowError:  # a square past the float range, which the finiteness check reports
            return w * math.inf if w else w

    def evaluate(xs: GridWindow, us: GridWindow):
        total = 0.0
        for t in range(len(us)):  # each row's x_t with its u_t grid
            total = total + us.factor(t, lambda x, u, t=t: stage(t, x, u), given=xs)
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

    return _compiled(evaluate, problems)


def sum_decisions(params: dict):
    """Sum of every decision entry in the window."""

    def evaluate(xs: GridWindow, us: GridWindow):
        total = 0.0
        for t in range(len(us)):
            total = total + us.factor(t, sum)
        return total

    return _compiled(evaluate)


BUILTIN_OBJECTIVES = {
    "quadratic_tracking": quadratic_tracking,
    "sum_decisions": sum_decisions,
}


def table_objective(entries: Sequence[dict], atol: float = EQUALITY_TOL):
    """Lookup objective: the value of the first entry that matches (xs, us).

    Entry k matches when its x and u windows have the lengths of xs and us,
    each of its vectors the length of the vector at the same position, and
    no component differs from it by more than ``atol``. Keys must be finite
    (a NaN would match anything), and a table needs an entry.

    Each position's distinct vectors are compared with the entries' once,
    as an (entries, grids, candidates) matrix that :meth:`GridWindow.place`
    puts on the window's axes, and the matrices are ANDed into one
    (entries, histories) array; entries go in chunks of at most
    :data:`LEAF_BATCH_ENTRIES` // histories, carrying the first match.
    """
    keys = itertools.chain.from_iterable(itertools.chain(e["x"], e["u"]) for e in entries)
    if not all_numbers(itertools.chain(itertools.chain.from_iterable(keys),
                                       (e["value"] for e in entries))):
        for k, e in enumerate(entries):
            for role in ("x", "u"):
                for j, vec in enumerate(e[role]):
                    require_numbers(vec, f"table entry {k}: {role}[{j}] entry")
            require_number(e["value"], f"table entry {k} value")
    parsed = [
        (
            tuple(tuple(map(float, vec)) for vec in e["x"]),
            tuple(tuple(map(float, vec)) for vec in e["u"]),
            float(e["value"]),
        )
        for e in entries
    ]
    if not parsed:
        raise InputFormatError("table has no entries")
    components = [v for ex, eu, _ in parsed for vec in ex + eu for v in vec]
    if not np.isfinite(np.array(components, dtype=float)).all():
        for k, (ex, eu, _) in enumerate(parsed):
            for role, window in (("x", ex), ("u", eu)):
                for j, vec in enumerate(window):
                    if not all(map(math.isfinite, vec)):
                        raise InputFormatError(
                            f"table entry {k}: {role}[{j}] = {list(vec)!r} "
                            "has a non-finite component"
                        )
    layouts: dict[tuple[int, int], tuple] = {}

    def layout(nx: int, nu: int):
        """Values of the entries with windows of lengths (nx, nu), in entry
        order, and per window position their vectors as the rows of a
        NaN-padded array, with the vectors' lengths."""
        if (nx, nu) not in layouts:
            kept = [ex + eu + (value,) for ex, eu, value in parsed
                    if len(ex) == nx and len(eu) == nu]
            keys = []
            for p in range(nx + nu):
                dims = [len(e[p]) for e in kept]
                width = max(dims, default=0)
                pad = [e[p] + (math.nan,) * (width - len(e[p])) for e in kept]
                keys.append((np.array(pad, dtype=float).reshape(len(kept), width),
                             np.array(dims, dtype=np.intp)))
            layouts[(nx, nu)] = np.array([e[-1] for e in kept]), keys
        return layouts[(nx, nu)]

    def near(pad, dims, vectors) -> np.ndarray:
        """(entries, vectors): the entry's vector has the vector's length and
        no component farther than ``atol`` from it (NaN padding is never far)."""
        width = pad.shape[1]
        block = [(*v[:width], *(math.nan,) * (width - len(v))) for v in vectors]
        block = np.array(block, dtype=float).reshape(len(vectors), width)  # width may be 0
        far = np.abs(pad[:, None, :] - block) > atol
        return ~far.any(axis=2) & (dims[:, None] == [len(v) for v in vectors])

    def evaluate(xs: GridWindow, us: GridWindow):
        shape = _shape(xs, us)
        positions = [(w, j) for w in (xs, us) for j in range(len(w))]
        values, keys = layout(len(xs), len(us))
        step = max(1, LEAF_BATCH_ENTRIES // max(1, math.prod(shape)))
        first = np.full(shape, -1, dtype=np.intp)
        for s in range(0, len(values), step):
            hit = np.ones((min(step, len(values) - s),) + (1,) * xs.ndim, dtype=bool)
            for (pad, dims), (w, j) in zip(keys, positions):
                grids = w.grids[j]
                match = near(pad[s: s + step], dims[s: s + step], [v for g in grids for v in g])
                hit = hit & w.place(j, match.reshape(len(hit), len(grids), len(grids[0])))
            first = np.where((first < 0) & hit.any(axis=0), hit.argmax(axis=0) + s, first)
            if (first >= 0).all():
                break
        misses = np.argwhere(first < 0)
        if len(misses):
            index = tuple(int(i) for i in misses[0])
            raise MultistageError(f"no table entry matches x={xs.at(index)!r}, u={us.at(index)!r}")
        return values[first]

    evaluate = _compiled(evaluate)
    evaluate.lookup = True
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
    Once all that holds and every node has a feasible set, a table must
    match every grid history of its windows (its keys are checked when
    loaded); the first it misses is the fault (:func:`table_misses`). Raw
    callables are not checked.
    """
    T = tree.horizon
    dims = {"x": tree.obs_dim, "u": cls.decision_dim}

    def vectors(role: str, stage: int) -> list[Vector]:
        ids = tree.stage_nodes(stage)
        if role == "x":
            return [tree.nodes[i].obs for i in ids]
        return [u for i in ids for u in cls.feasible.get(i, ())]

    magnitudes = stage_magnitudes(vectors)
    out = []
    if cost.form == "general":
        if hasattr(cost.objective, "problems"):
            found = cost.objective.problems(T, None, dims, magnitudes)
            out += [f"cost {p}" for p in found]
    else:
        for k, c in enumerate(cost.stage_costs[:T]):
            if hasattr(c, "problems"):
                found = c.problems(T, (k + 1, cost.lag), dims, magnitudes)
                out += [f"stage cost {k} {p}" for p in found]
    if out or any(n.id not in cls.feasible for n in tree.nodes):
        return out
    return table_misses(cost, tree, cls)


def table_misses(cost: CostSpec, tree, cls) -> list[str]:
    """The first grid history that a table of the cost misses, as a fault.

    Every table is evaluated on its windows of every leaf's grid product,
    through :func:`leaf_batches` (so in batches of at most
    :data:`LEAF_BATCH_ENTRIES` entries) on a copy of the cost in which
    every payload reads 0.0 and a table only looks its entries up. A miss
    is then the only error; the one reported is the first leaf's (in tree
    order) first miss, in stage then C order.
    """
    def probe(c, where: str):
        def evaluate(xs, us):
            try:
                c(xs, us)
            except MultistageError as exc:
                raise MultistageError(f"{where} {exc}") from None
            return 0.0

        return _compiled(evaluate if getattr(c, "lookup", False) else lambda xs, us: 0.0)

    T = tree.horizon
    if cost.form == "general":
        if not getattr(cost.objective, "lookup", False):
            return []
        check = CostSpec.general(probe(cost.objective, "cost table:"))
    else:
        payloads = cost.stage_costs[:T]
        # a short stack is a fault that ProblemBundle.validate names
        if len(payloads) < T or not any(getattr(c, "lookup", False) for c in payloads):
            return []
        probes = [probe(c, f"stage cost {k} table:") for k, c in enumerate(payloads)]
        check = CostSpec.additive(probes, cost.gamma, cost.lag)
    try:
        leaf_batches(check, *_leaf_paths_and_grids(tree, cls))
    except MultistageError as exc:
        return [str(exc)]
    return []


def _leaf_paths_and_grids(tree, cls) -> tuple[list[Window], list[list[tuple[Vector, ...]]]]:
    """Every leaf's observation path and its path's class grids, in tree order."""
    leaves = tree.leaves()
    return (
        [path(tree, leaf) for leaf in leaves],
        [[cls.feasible[i] for i in tree.path_nodes(leaf)] for leaf in leaves],
    )


# -- JSON ---------------------------------------------------------------------


def _term_from_json(raw: dict) -> Term:
    variables = tuple(
        (str(role), require_int(stage, "poly variable index"),
         require_int(comp, "poly variable component"), require_int(power, "poly variable power"))
        for role, stage, comp, power in raw["vars"]
    )
    for role, _, _, _ in variables:
        if role not in ("x", "u"):
            raise InputFormatError(f"unknown variable role {role!r}")
    return require_number(raw["coef"], "poly coef"), variables


def _callable_from_json(spec: dict, window_relative: bool):
    if "poly" in spec:
        terms = [_term_from_json(term) for term in spec["poly"]["terms"]]
        return poly_cost(terms, window_relative)
    if "table" in spec:
        table = require_object(spec["table"], "table")
        atol = require_number(table.get("atol", EQUALITY_TOL), "table atol")
        if not 0.0 <= atol < math.inf:
            raise InputFormatError(f"table atol {atol!r} must be finite and >= 0")
        return table_objective(table["entries"], atol=atol)
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
    """Build a cost from its JSON payload.

    A poly ``coef``, the additive ``gamma`` and the holder ``C``, ``alpha`` and
    ``delta`` must be JSON numbers (``require_number``).
    """
    try:
        form = data["form"]
        holder = None
        if "holder" in data:
            h = data["holder"]
            holder = tuple(require_number(h[k], f"holder {k}") for k in ("C", "alpha", "delta"))
        if form == "general":
            return CostSpec.general(_callable_from_json(data, window_relative=False), holder=holder)
        if form == "additive":
            stage_costs = tuple(
                _callable_from_json(spec, window_relative=True)
                for spec in data["stage_costs"]
            )
            return CostSpec.additive(
                stage_costs,
                gamma=require_number(data["gamma"], "additive cost gamma"),
                lag=require_int(data["lag"], "cost lag"),
                holder=holder,
            )
        raise InputFormatError(f"unknown cost form {form!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed cost JSON: {exc}") from exc


# -- Hoelder continuity summary ----------------------------------------------


@dataclass(frozen=True)
class HolderCheck:
    """Outcome of checking |v(x,u1) - v(x,u2)| <= C * ||u1 - u2||^alpha."""

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


def verify_holder(tree, cls, cost: CostSpec, C: float, alpha: float, delta: float) -> HolderCheck:
    """Check the declared Hoelder data on every leaf trajectory of the grid.

    For each leaf, all feasible decision histories along its path are paired,
    and the ratio |dv| / ||du||^alpha is taken over the pairs closer than
    ``delta``; the bound holds when the largest ratio is at most C. A leaf's
    H histories of D components in all take an H x H x D difference array,
    which is checked against ``DEFAULT_ENUMERATION_CAP`` for every leaf
    before anything is evaluated.
    """
    paths, grids_list = _leaf_paths_and_grids(tree, cls)
    for grids in grids_list:
        histories = math.prod(map(len, grids))
        entries = histories * histories * sum(len(g[0]) for g in grids if g)
        if entries > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(entries, DEFAULT_ENUMERATION_CAP)
    arrays = leaf_arrays(cost, paths, grids_list)
    worst = 0.0
    pairs = 0
    for grids, values in zip(grids_list, arrays):
        dist, dv = holder_pairs(list(itertools.product(*grids)), values.ravel(), delta)
        if len(dist):
            worst = max(worst, float((dv / dist ** alpha).max()))
            pairs += len(dist)
    return HolderCheck(max_ratio=worst, pairs_checked=pairs, ok=worst <= C + HOLDER_SLACK)
