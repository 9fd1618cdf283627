import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistage import (
    CostSpec,
    InputFormatError,
    MultistageError,
    UnboundedObjectiveError,
    verify_holder,
)
from multistage import costs
from multistage.costs import (
    GridWindow,
    cost_from_json,
    cost_problems,
    leaf_arrays,
    leaf_batches,
    window_values,
)
from multistage.dp_solvers import sddp_from_json, sddp_recursion
from multistage.generate import random_tree, rng_from_seed
from multistage.policy import PolicyClass
from multistage.scenario_tree import Node, ScenarioTree
from multistage.tolerances import EQUALITY_TOL
from instances import (
    chain_tree,
    cost_to_json,
    empirical_holder_constant,
    random_sddp,
    u_window,
    x_window,
)


class TestWindows:
    def test_full_window(self):
        paths = ((0.0,), (1.0,), (2.0,), (3.0,))
        assert x_window(paths, 3, 1) == ((2.0,), (3.0,))
        assert u_window(paths, 3, 1) == ((2.0,),)

    def test_truncation_drops_negative_indices(self):
        paths = ((0.0,), (1.0,))
        assert x_window(paths, 1, 5) == ((0.0,), (1.0,))
        assert u_window(paths, 1, 5) == ((0.0,),)
        assert u_window(paths, 0, 5) == ()


class TestAdditiveExpansion:
    def test_matches_manual_discounted_sum(self):
        # c_t(x_{t-1}, x_t, u_{t-1}) = u_{t-1} * x_t, gamma = 0.5, lag 1
        def c(xw, uw):
            return uw[-1][0] * xw[-1][0]

        cost = CostSpec.additive(stage_costs=(c, c, c), gamma=0.5, lag=1)
        paths = ((0.0,), (1.0,), (2.0,), (3.0,))
        decisions = ((1.0,), (2.0,), (3.0,), (0.0,))
        manual = sum(
            0.5 ** (t - 1) * decisions[t - 1][0] * paths[t][0] for t in range(1, 4)
        )
        assert cost.evaluate(paths, decisions) == pytest.approx(manual, abs=1e-12)

    def test_gamma_zero_keeps_only_first_stage(self):
        def c(xw, uw):
            return uw[-1][0] + xw[-1][0]

        cost = CostSpec.additive(stage_costs=(c, c), gamma=0.0, lag=1)
        value = cost.evaluate(((0.0,), (1.0,), (2.0,)), ((5.0,), (9.0,), (0.0,)))
        assert value == pytest.approx(5.0 + 1.0)

    def test_prefix_splits_the_sum(self):
        def c(xw, uw):
            return uw[-1][0] * xw[-1][0] + 1.0

        cost = CostSpec.additive(stage_costs=(c, c, c), gamma=0.9, lag=1)
        paths = ((0.0,), (1.0,), (2.0,), (3.0,))
        decisions = ((1.0,), (2.0,), (3.0,), (4.0,))
        full = cost.evaluate(paths, decisions)
        head = cost.evaluate(paths[:3], decisions[:3])
        tail = 0.9**2 * c(x_window(paths, 3, 1), u_window(decisions, 3, 1))
        assert full == pytest.approx(head + tail, abs=1e-12)

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(InputFormatError):
            CostSpec.additive(stage_costs=(lambda x, u: 0.0,), gamma=1.0, lag=1)


class TestJsonObjectives:
    def test_general_poly_round_trip(self):
        data = {
            "form": "general",
            "poly": {"terms": [{"coef": 2.0, "vars": [["u", 0, 0, 2], ["x", 1, 0, 1]]}]},
        }
        cost = cost_from_json(data)
        value = cost.evaluate(((1.0,), (3.0,)), ((2.0,), (0.0,)))
        assert value == pytest.approx(2.0 * 4.0 * 3.0)
        assert cost_to_json(cost) == data

    def test_window_poly_offsets_vanish_off_window(self):
        data = {
            "form": "additive",
            "gamma": 0.5,
            "lag": 1,
            "stage_costs": [
                {"poly": {"terms": [{"coef": 1.0, "vars": [["u", 0, 0, 1]]},
                                     {"coef": 3.0, "vars": [["x", 1, 0, 1]]},
                                     {"coef": 1e9, "vars": [["u", 1, 0, 1]]}]}},
            ],
        }
        cost = cost_from_json(data)
        # stage 1: x window holds (x_0, x_1), u window only u_0; the u-offset-1
        # term falls off the lag-1 window and must contribute nothing
        value = cost.evaluate(((7.0,), (1.0,)), ((2.0,), (0.0,)))
        assert value == pytest.approx(2.0 + 3.0 * 7.0)

    def test_table_objective(self):
        data = {
            "form": "general",
            "table": {
                "entries": [
                    {"x": [[0.0], [1.0]], "u": [[0.0], [0.0]], "value": 4.5},
                    {"x": [[0.0], [2.0]], "u": [[0.0], [0.0]], "value": -1.0},
                ]
            },
        }
        cost = cost_from_json(data)
        assert cost.evaluate(((0.0,), (2.0,)), ((0.0,), (0.0,))) == -1.0
        with pytest.raises(Exception):
            cost.evaluate(((9.0,), (9.0,)), ((0.0,), (0.0,)))

    def test_builtin_quadratic_tracking(self):
        cost = cost_from_json({"form": "general", "builtin": "quadratic_tracking"})
        value = cost.evaluate(((1.0,), (2.0,)), ((0.0,), (0.0,)))
        assert value == pytest.approx(1.0 + 4.0)

    def test_unknown_builtin(self):
        with pytest.raises(InputFormatError):
            cost_from_json({"form": "general", "builtin": "nope"})

    @pytest.mark.parametrize("params", [[1.0, 2.0], {"weights": 3.0}, {"weights": ["a"]}])
    def test_malformed_builtin_params(self, params):
        with pytest.raises(InputFormatError):
            cost_from_json(
                {"form": "general", "builtin": "quadratic_tracking", "params": params}
            )

    def test_raw_callable_has_no_payload(self):
        cost = CostSpec.general(lambda xs, us: 0.0)
        with pytest.raises(InputFormatError):
            cost_to_json(cost)


class TestBoundedness:
    def test_non_finite_value_raises(self):
        cost = CostSpec.general(lambda xs, us: float("-inf"))
        with pytest.raises(UnboundedObjectiveError):
            cost.evaluate(((0.0,),), ((0.0,),))

    def test_nan_raises(self):
        cost = CostSpec.general(lambda xs, us: float("nan"))
        with pytest.raises(UnboundedObjectiveError):
            cost.evaluate(((0.0,),), ((0.0,),))


class TestHolder:
    def quadratic_setup(self):
        tree = chain_tree([0.0, 1.0])
        grid = ((-1.0,), (0.0,), (1.0,))
        cls = PolicyClass(
            feasible={0: grid, 1: grid}, kind="nodewise", decision_dim=1
        )
        cost = CostSpec.general(
            lambda xs, us: sum(u[0] ** 2 for u in us)
        )
        return tree, cls, cost

    def test_empirical_constant_bounds_all_pairs(self):
        tree, cls, cost = self.quadratic_setup()
        C = empirical_holder_constant(tree, cls, cost, alpha=1.0, delta=10.0)
        check = verify_holder(tree, cls, cost, C=C, alpha=1.0, delta=10.0)
        assert check.ok
        assert check.pairs_checked > 0
        # u^2 over [-1, 1]^2 grid: steepest chord has slope 2 per coordinate
        assert C <= 2.0 * math.sqrt(2) + 1e-9

    def test_declared_bound_too_small_fails(self):
        tree, cls, cost = self.quadratic_setup()
        check = verify_holder(tree, cls, cost, C=0.1, alpha=1.0, delta=10.0)
        assert not check.ok


class TestRandomGenerators:
    def test_random_general_cost_is_serializable(self):
        rng = rng_from_seed(0)
        tree = random_tree(rng, horizon=2)
        from instances import random_general_cost

        cost = random_general_cost(rng, tree)
        data = cost_to_json(cost)
        again = cost_from_json(data)
        paths = tuple((0.5,) for _ in range(3))
        decisions = tuple((0.25,) for _ in range(3))
        assert again.evaluate(paths, decisions) == pytest.approx(
            cost.evaluate(paths, decisions), abs=1e-12
        )


def assert_bitwise(grid, loop):
    assert grid.shape == loop.shape
    assert grid.dtype == loop.dtype == np.float64
    assert grid.tobytes() == loop.tobytes()


def loop_over_grid(cost, paths, grids):
    """The reference: one ``evaluate`` call per history, in C order."""
    values = [cost.evaluate(paths, h) for h in itertools.product(*grids)]
    return np.array(values).reshape(tuple(len(g) for g in grids))


def random_paths_and_grids(seed, horizon=3, dim=2):
    rng = rng_from_seed(seed)
    paths = tuple(
        tuple(float(x) for x in rng.uniform(-2.0, 2.0, size=dim)) for _ in range(horizon + 1)
    )
    grids = tuple(
        tuple(
            tuple(float(x) for x in rng.uniform(-1.5, 1.5, size=dim))
            for _ in range(int(rng.integers(1, 4)))
        )
        for _ in range(horizon + 1)
    )
    return rng, paths, grids


def random_terms(rng, n_index, dim, n_terms=8):
    terms = [{"coef": float(rng.uniform(-2, 2)), "vars": []}]
    for _ in range(n_terms):
        variables = [
            [str(rng.choice(["x", "u"])), int(rng.integers(0, n_index)),
             int(rng.integers(0, dim)), int(rng.integers(-2, 4))]
            for _ in range(int(rng.integers(1, 4)))
        ]
        terms.append({"coef": float(rng.uniform(-2, 2)), "vars": variables})
    return terms


def fixed(vectors, ndim):
    """Vectors as the positions, with no grid axis, of a one-row window of ``ndim`` axes."""
    return GridWindow.single([(v,) for v in vectors], (None,) * len(vectors), ndim)


class TestGridEvaluator:
    """evaluate_grid equals a loop of evaluate over the grid product, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_general_poly(self, seed):
        rng, paths, grids = random_paths_and_grids(seed)
        # indices up to 5 on a horizon-3 path: some terms vanish off the path
        cost = cost_from_json(
            {"form": "general", "poly": {"terms": random_terms(rng, 6, 2)}}
        )
        assert_bitwise(cost.evaluate_grid(paths, grids), loop_over_grid(cost, paths, grids))

    @pytest.mark.parametrize("lag", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_additive_poly(self, seed, lag):
        rng, paths, grids = random_paths_and_grids(seed, horizon=4)
        # offsets up to 3 reach past every lag-2 window
        stage_costs = [{"poly": {"terms": random_terms(rng, 4, 2)}} for _ in range(4)]
        gamma = [0.9, -0.5, 0.0][seed % 3]
        cost = cost_from_json(
            {"form": "additive", "gamma": gamma, "lag": lag, "stage_costs": stage_costs}
        )
        assert_bitwise(cost.evaluate_grid(paths, grids), loop_over_grid(cost, paths, grids))

    def test_table(self):
        _, paths, grids = random_paths_and_grids(7, horizon=2)
        entries = [
            {"x": [list(x) for x in paths], "u": [list(u) for u in h], "value": 0.1 * k}
            for k, h in enumerate(itertools.product(*grids))
        ]
        cost = cost_from_json({"form": "general", "table": {"entries": entries}})
        assert_bitwise(cost.evaluate_grid(paths, grids), loop_over_grid(cost, paths, grids))

    @pytest.mark.parametrize(
        "params", [{}, {"weights": [0.5, 1.5, 2.0, 0.25]}], ids=["unweighted", "weighted"]
    )
    def test_quadratic_tracking(self, params):
        _, paths, grids = random_paths_and_grids(8)
        cost = cost_from_json(
            {"form": "general", "builtin": "quadratic_tracking", "params": params}
        )
        assert_bitwise(cost.evaluate_grid(paths, grids), loop_over_grid(cost, paths, grids))

    def test_sum_decisions(self):
        _, paths, grids = random_paths_and_grids(9)
        cost = cost_from_json({"form": "general", "builtin": "sum_decisions"})
        assert_bitwise(cost.evaluate_grid(paths, grids), loop_over_grid(cost, paths, grids))

    def test_builtin_stage_costs(self):
        _, paths, grids = random_paths_and_grids(10)
        cost = cost_from_json({
            "form": "additive", "gamma": 0.7, "lag": 2,
            "stage_costs": [{"builtin": "quadratic_tracking"}, {"builtin": "sum_decisions"},
                            {"builtin": "quadratic_tracking", "params": {"weights": [2, 3]}}],
        })
        assert_bitwise(cost.evaluate_grid(paths, grids), loop_over_grid(cost, paths, grids))

    def test_raw_callables(self):
        _, paths, grids = random_paths_and_grids(11)
        general = CostSpec.general(lambda xs, us: sum(u[0] * x[1] for u, x in zip(us, xs)))
        assert_bitwise(
            general.evaluate_grid(paths, grids), loop_over_grid(general, paths, grids)
        )
        additive = CostSpec.additive(
            [lambda xw, uw: xw[-1][0] * len(uw) - uw[-1][1]] * 3, gamma=0.5, lag=1
        )
        assert_bitwise(
            additive.evaluate_grid(paths, grids), loop_over_grid(additive, paths, grids)
        )

    def test_non_finite_entry_raises(self):
        _, paths, grids = random_paths_and_grids(12, horizon=1)
        cost = cost_from_json({"form": "general", "poly": {"terms": [
            {"coef": 1e300, "vars": [["u", 0, 0, 2]]},
            {"coef": 1e300, "vars": [["u", 1, 1, 2]]},
        ]}})
        with pytest.raises(UnboundedObjectiveError):
            cost.evaluate_grid(paths, (((1e10, 0.0),),) + grids[1:])
        with pytest.raises(UnboundedObjectiveError):
            cost.evaluate(paths, ((1e10, 0.0), grids[1][0]))


# -- batches of leaves ----------------------------------------------------------------

PAYLOAD_KINDS = ["poly", "relative", "tracking", "sum", "table", "window_table", "raw"]


def signed(rng, size):
    """Uniform draws in which about one in eight entries is 0.0 or -0.0."""
    values = [float(x) for x in rng.uniform(-1.5, 1.5, size=size)]
    return tuple(float(rng.choice([0.0, -0.0])) if rng.uniform() < 0.125 else v
                 for v in values)


def leaf_instance(seed, kind):
    """Leaves of a random tree with grids of 1 to 3 candidates per node (several
    leaf shapes) or per stage, per node one observation shared by the leaves
    below it, signed zeros among both, and a cost of the given kind."""
    rng = rng_from_seed(seed)
    dim = int(rng.integers(1, 3))
    tree = random_tree(rng, horizon=int(rng.integers(1, 4)), max_branch=3)
    T = tree.horizon
    obs = {n.id: signed(rng, dim) for n in tree.nodes}
    grid = {n.id: tuple(signed(rng, dim) for _ in range(int(rng.integers(1, 4))))
            for n in tree.nodes}
    if rng.uniform() < 0.5:  # one grid object per stage, as a history-blind class has
        grid = {n.id: grid[tree.stage_nodes(n.stage)[0]] for n in tree.nodes}
    leaves = tree.leaves()
    paths = [tuple(obs[i] for i in tree.path_nodes(leaf)) for leaf in leaves]
    grids = [[grid[i] for i in tree.path_nodes(leaf)] for leaf in leaves]

    def terms(n_index):
        out = random_terms(rng, n_index, dim, n_terms=6)
        if rng.uniform() < 0.3:  # large enough to overflow on some histories
            out.append({"coef": 1e308, "vars": [["u", int(rng.integers(0, T + 1)), 0, 2]]})
        return out

    def additive(stage_costs, lag):
        gamma = float(rng.choice([0.9, -0.5, 0.0]))
        return cost_from_json(
            {"form": "additive", "gamma": gamma, "lag": lag, "stage_costs": stage_costs}
        )

    if kind == "poly":  # stage indices up to T + 2: some terms fall off the path
        cost = cost_from_json({"form": "general", "poly": {"terms": terms(T + 3)}})
    elif kind == "relative":  # offsets up to 3 reach past every lag-2 window
        cost = additive([{"poly": {"terms": terms(4)}} for _ in range(T)],
                        int(rng.integers(0, 3)))
    elif kind == "tracking":
        weights = [float(w) for w in rng.uniform(0.5, 2.0, size=T + 1)]
        if rng.uniform() < 0.5:
            cost = cost_from_json({"form": "general", "builtin": "quadratic_tracking",
                                   "params": {"weights": weights}})
        else:
            cost = additive([{"builtin": "quadratic_tracking"}] * T, 2)
    elif kind == "sum":
        if rng.uniform() < 0.5:
            cost = cost_from_json({"form": "general", "builtin": "sum_decisions"})
        else:
            cost = additive([{"builtin": "sum_decisions"}] * T, 1)
    elif kind == "table":  # every history or most, a few values infinite
        every = rng.uniform() < 0.5
        entries = [
            {"x": [list(x) for x in p], "u": [list(u) for u in h],
             "value": math.inf if rng.uniform() < 0.02 else float(rng.uniform(-1, 1))}
            for p, g in zip(paths, grids) for h in itertools.product(*g)
            if every or rng.uniform() < 0.9
        ]
        cost = cost_from_json({"form": "general", "table": {"entries": entries}})
    elif kind == "window_table":  # lag-1 stage tables: a miss may come at any stage
        entries = [
            {"x": [list(p[t - 1]), list(p[t])], "u": [list(u)], "value": float(rng.uniform())}
            for p, g in zip(paths, grids) for t in range(1, T + 1) for u in g[t - 1]
            if rng.uniform() < 0.97
        ]
        cost = additive([{"table": {"entries": entries}}] * T, 1)
    else:
        def objective(xs, us):
            if us[-1][0] > 1.4:
                raise MultistageError(f"raw objective refuses u={us!r}")
            return sum(u[0] * x[-1] for u, x in zip(us, xs)) - xs[0][0] * us[-1][-1]

        cost = CostSpec.general(objective)
    return cost, paths, grids


def outcome(evaluate):
    """The arrays' bytes, or the type and message of the error raised."""
    try:
        return "ok", [a.dtype.str + str(a.shape) + a.tobytes().hex() for a in evaluate()]
    except (MultistageError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


class TestLeafBatches:
    """A batch of leaves equals evaluate_grid leaf by leaf, bit for bit, errors included."""

    @settings(max_examples=140, deadline=None)
    @given(seed=st.integers(0, 10**6), kind=st.sampled_from(PAYLOAD_KINDS))
    def test_batches_equal_the_leaf_loop(self, seed, kind):
        cost, paths, grids = leaf_instance(seed, kind)
        loop = outcome(lambda: [cost.evaluate_grid(p, g) for p, g in zip(paths, grids)])
        assert outcome(lambda: leaf_arrays(cost, paths, grids)) == loop
        # each shape group on its own, as evaluate_leaves takes it
        groups = {}
        for i, g in enumerate(grids):
            groups.setdefault(tuple(map(len, g)), []).append(i)
        for members in groups.values():
            batch = outcome(lambda: list(cost.evaluate_leaves(
                [paths[i] for i in members], [grids[i] for i in members])))
            alone = outcome(lambda: [cost.evaluate_grid(paths[i], grids[i]) for i in members])
            assert batch == alone

    @pytest.mark.parametrize("entries", [1, 5, 40])
    @pytest.mark.parametrize("kind", PAYLOAD_KINDS)
    def test_small_batches_cut_groups_into_whole_leaves(self, monkeypatch, kind, entries):
        cost, paths, grids = leaf_instance(17, kind)
        want = outcome(lambda: [cost.evaluate_grid(p, g) for p, g in zip(paths, grids)])
        monkeypatch.setattr(costs, "LEAF_BATCH_ENTRIES", entries)
        assert outcome(lambda: leaf_arrays(cost, paths, grids)) == want
        if want[0] == "ok":
            batches = leaf_batches(cost, paths, grids)
            assert sorted(i for members, _ in batches for i in members) == list(range(len(paths)))
            for members, values in batches:
                assert len(members) == 1 or values[0].size * len(members) <= entries

    def test_first_non_finite_entry_in_leaf_order(self):
        # 1e300 * x_1 * u_1: leaf 0 reads [1e300, inf], leaf 1 [-inf, -inf]
        paths = [((0.0,), (1.0,)), ((0.0,), (-1e20,))]
        grids = [((0.0,),), ((1.0,), (1e10,))]
        cost = cost_from_json({"form": "general", "poly": {"terms": [
            {"coef": 1e300, "vars": [["x", 1, 0, 1], ["u", 1, 0, 1]]}]}})
        with pytest.raises(UnboundedObjectiveError, match=r"evaluated to inf;"):
            cost.evaluate_grid(paths[0], grids)
        with pytest.raises(UnboundedObjectiveError, match=r"evaluated to inf;"):
            cost.evaluate_leaves(paths, [grids, grids])
        with pytest.raises(UnboundedObjectiveError, match=r"evaluated to -inf;"):
            cost.evaluate_leaves(paths[::-1], [grids, grids])

    def test_first_table_miss_is_the_leaf_loops(self):
        # lag-1 stage tables: leaf 0 misses at stage 2, leaf 1 already at stage 1;
        # stage by stage over the batch, leaf 1's miss would come first
        paths = [((0.0,), (1.0,), (2.0,)), ((0.0,), (5.0,), (6.0,))]
        grids = [((0.0,),)] * 3
        entries = [{"x": [[0.0], [1.0]], "u": [[0.0]], "value": 1.0}]
        cost = cost_from_json({"form": "additive", "gamma": 0.5, "lag": 1,
                               "stage_costs": [{"table": {"entries": entries}}] * 2})
        with pytest.raises(MultistageError) as alone:
            cost.evaluate_grid(paths[0], grids)
        with pytest.raises(MultistageError) as batch:
            cost.evaluate_leaves(paths, [grids, grids])
        assert str(batch.value) == str(alone.value)
        assert "x=((1.0,), (2.0,))" in str(batch.value)

    def test_evaluate_grid_is_a_batch_of_one(self, monkeypatch):
        _, paths, grids = random_paths_and_grids(15)
        cost = cost_from_json({"form": "general", "builtin": "sum_decisions"})
        calls = []
        evaluate_leaves = CostSpec.evaluate_leaves

        def counted(self, paths_list, grids_list):
            calls.append(len(paths_list))
            return evaluate_leaves(self, paths_list, grids_list)

        monkeypatch.setattr(CostSpec, "evaluate_leaves", counted)
        assert_bitwise(cost.evaluate_grid(paths, grids), loop_over_grid(cost, paths, grids))
        assert calls == [1]

    def test_compiled_factors_run_once_per_node(self):
        # two leaves share the root: its grid is evaluated once, not once per leaf
        calls = []
        root, a, b = ((1.0,), (2.0,)), ((3.0,),), ((4.0,),)
        x0, xa, xb = (0.5,), (1.5,), (2.5,)
        cost = cost_from_json({"form": "general", "poly": {"terms": [
            {"coef": 1.0, "vars": [["u", 0, 0, 2], ["u", 1, 0, 1]]}]}})
        batch = GridWindow([[root], [a, b]], (1, 2), 3, [np.array([0, 0]), np.array([0, 1])])
        values = batch.factor(0, lambda u: calls.append(u) or u[0] ** 2)
        assert calls == [(1.0,), (2.0,)]
        assert values.shape == (1, 2, 1)  # one grid: it broadcasts along the rows
        calls.clear()
        values = batch.factor(1, lambda u: calls.append(u) or u[0])
        assert calls == [(3.0,), (4.0,)]
        assert values.tobytes() == np.array([[[3.0]], [[4.0]]]).tobytes()
        got = cost.evaluate_leaves([(x0, xa), (x0, xb)], [[root, a], [root, b]])
        assert got.tobytes() == np.array([[[3.0], [12.0]], [[4.0], [16.0]]]).tobytes()


class TestWindowValues:
    """window_values is the one dispatcher between broadcasting and per-history calls."""

    def test_raw_additive_stage_cost_is_called_once_per_window_history(self):
        _, paths, grids = random_paths_and_grids(13, horizon=3)
        calls = []

        def c(xw, uw):
            calls.append(uw)
            return xw[-1][0] * uw[-1][0] - xw[0][1] * uw[-1][1]

        cost = CostSpec.additive([c] * 3, gamma=0.8, lag=1)
        values = cost.evaluate_grid(paths, grids)
        # stage t reads u_{t-1} alone: one call per candidate of grids[t - 1]
        assert len(calls) == sum(len(g) for g in grids[:3])
        assert_bitwise(values, loop_over_grid(cost, paths, grids))

    @staticmethod
    def explicit_loop(cost, xs, us, shape):
        """cost on the plain windows picked out of every index of ``shape``, in C order."""

        def pick(window, index):
            return tuple(
                g[0][0 if a is None else index[a]] for g, a in zip(window.grids, window.axes)
            )

        return [cost(pick(xs, i), pick(us, i)) for i in itertools.product(*map(range, shape))]

    @pytest.mark.parametrize("kind", ["raw", "table", "poly"])
    def test_mixed_plain_and_grid_windows_match_an_explicit_loop(self, kind):
        _, paths, grids = random_paths_and_grids(14, horizon=2)
        states, outcomes = grids[0], grids[1]
        decisions = grids[2]
        shape = (1, len(states), len(outcomes), len(decisions))

        windows = [
            # fixed observations, grid decisions (a tree stage cost)
            (fixed(paths[:2], 4), GridWindow.single([decisions], (3,), 4)),
            # grid observations and decisions (a stagewise step array)
            (GridWindow.single([states, outcomes], (1, 2), 4),
             GridWindow.single([decisions], (3,), 4)),
            # grid observations, fixed decisions
            (GridWindow.single([states, outcomes], (1, 2), 4), fixed(decisions[:1], 4)),
        ]
        if kind == "raw":
            def cost(xs, us):
                return xs[0][0] * us[0][1] - xs[1][1] ** 2 + us[0][0]
        elif kind == "table":
            cost = cost_from_json({"form": "general", "table": {"entries": [
                {"x": [list(x), list(w)], "u": [list(u)], "value": float(k)}
                for k, (x, w, u) in enumerate(itertools.product(
                    states + paths[:1], outcomes + paths[1:2], decisions))
            ]}}).objective
        else:
            cost = cost_from_json({"form": "additive", "gamma": 0.5, "lag": 1, "stage_costs": [
                {"poly": {"terms": [
                    {"coef": 1.5, "vars": [["x", 1, 0, 1], ["u", 0, 1, 2]]},
                    {"coef": -0.5, "vars": [["x", 0, 1, 3]]},
                    {"coef": 0.25, "vars": [["u", 0, 0, 1]]},
                ]}}]}).stage_costs[0]
        for xs, us in windows:
            got = np.broadcast_to(window_values(cost, xs, us), shape)
            want = self.explicit_loop(cost, xs, us, shape)
            assert [float(v).hex() for v in got.ravel()] == [float(v).hex() for v in want]


class TestPlainWindows:
    """A compiled payload on plain windows returns a Python float: bit for bit
    the value of a hand-written formula, or of the entry scan for a table."""

    @staticmethod
    def poly(terms, relative):
        """The polynomial, term by term, in the order of its JSON."""

        def value(xs, us):
            windows = {"x": xs, "u": us}
            total = 0.0
            for term in terms:
                prod = term["coef"]
                for role, index, comp, power in term["vars"]:
                    window = windows[role]
                    pos = len(window) - 1 - index if relative else index
                    if not 0 <= pos < len(window):
                        prod = 0.0  # off the window: the term vanishes
                        break
                    prod = prod * window[pos][comp] ** power
                total = total + prod
            return total

        return value

    @staticmethod
    def tracking(weights):
        def value(xs, us):
            total = 0.0
            for t, u in enumerate(us):
                w = 1.0 if weights is None else weights[t]
                total = total + w * sum((c - xs[t][i % len(xs[t])]) ** 2 for i, c in enumerate(u))
            return total

        return value

    @staticmethod
    def summed(xs, us):
        total = 0.0
        for u in us:
            total = total + sum(u)
        return total

    @classmethod
    def case(cls, kind, rng, xs, us):
        """The payload of ``kind`` on (xs, us) and its reference."""
        if kind in ("poly", "relative"):
            terms = random_terms(rng, len(xs), 2, n_terms=12)
            return {"poly": {"terms": terms}}, cls.poly(terms, kind == "relative")
        if kind == "tracking":
            return {"builtin": "quadratic_tracking"}, cls.tracking(None)
        if kind == "weighted":
            weights = [float(w) for w in rng.uniform(0.1, 2.0, size=len(us))]
            return ({"builtin": "quadratic_tracking", "params": {"weights": weights}},
                    cls.tracking(weights))
        if kind == "sum":
            return {"builtin": "sum_decisions"}, cls.summed
        other = [tuple(v + 1.0 for v in x) for x in xs]
        entries = [
            {"x": [list(x) for x in window], "u": [list(u) for u in us], "value": value}
            for window, value in ((other, -1.0), (xs, float(rng.uniform(-1, 1))), (xs, 2.0))
        ]
        return {"table": {"entries": entries}}, scan_table(entries)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "kind", ["poly", "relative", "tracking", "weighted", "sum", "table"])
    def test_a_python_float_equal_to_the_reference(self, kind, seed):
        rng, paths, grids = random_paths_and_grids(40 + seed, horizon=2)
        decisions = tuple(g[-1] for g in grids)
        if kind == "relative":  # a lag-1 stage cost's windows
            xs, us = paths[1:3], decisions[1:2]
            payload, reference = self.case(kind, rng, xs, us)
            cost = cost_from_json({"form": "additive", "gamma": 0.5, "lag": 1,
                                   "stage_costs": [payload] * 2}).stage_costs[1]
        else:
            xs, us = paths, decisions
            payload, reference = self.case(kind, rng, xs, us)
            spec = cost_from_json({"form": "general", **payload})
            cost = spec.objective
            assert type(spec.evaluate(xs, us)) is float
            assert spec.evaluate(xs, us).hex() == reference(xs, us).hex()
        value = cost(xs, us)
        assert type(value) is float
        assert value.hex() == reference(xs, us).hex()


class TestCostProblems:
    def bundle(self, cost, grid=((0.0,), (1.0,)), obs=(0.5, 1.0, 2.0)):
        nodes = [Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(obs[0],))]
        nodes += [
            Node(id=i, stage=1, parent=0, cond_prob=0.5, obs=(obs[i],)) for i in (1, 2)
        ]
        tree = ScenarioTree(nodes, horizon=1, obs_dim=1)
        cls = PolicyClass(feasible={i: grid for i in range(3)}, kind="nodewise", decision_dim=1)
        return cost_from_json(cost), tree, cls

    def problems(self, cost, **kwargs):
        return cost_problems(*self.bundle(cost, **kwargs))

    def poly(self, *variables):
        return {"form": "general", "poly": {"terms": [
            {"coef": 1.0, "vars": [["u", 0, 0, 1]]},
            {"coef": 1.0, "vars": [list(v) for v in variables]},
        ]}}

    def test_well_formed_payload_has_none(self):
        assert self.problems(self.poly(("x", 1, 0, -1), ("u", 1, 0, 2))) == []

    def test_each_fault_names_its_term(self):
        assert self.problems(self.poly(("u", 2, 0, 1))) == [
            "cost term 1, u[2][0]: stage 2 outside 0..1"
        ]
        assert self.problems(self.poly(("u", 0, 1, 1))) == [
            "cost term 1, u[0][1]: component 1 outside 0..0"
        ]
        assert self.problems(self.poly(("u", 1, 0, -1))) == [
            "cost term 1, u[1][0]: a value 0 at stage 1 has power -1"
        ]

    def test_zero_observation_under_negative_power(self):
        found = self.problems(self.poly(("x", 1, 0, -3)), obs=(0.5, 1.0, 0.0))
        assert found == ["cost term 1, x[1][0]: a value 0 at stage 1 has power -3"]
        assert self.problems(self.poly(("x", 1, 0, 3)), obs=(0.5, 1.0, 0.0)) == []

    def test_power_overflowing_a_float(self):
        found = self.problems(self.poly(("x", 1, 0, 400)), obs=(0.5, 10.0, 2.0))
        assert found == ["cost term 1, x[1][0]: 10.0 ** 400 at stage 1 overflows a float"]
        assert self.problems(self.poly(("x", 1, 0, 300)), obs=(0.5, 10.0, 2.0)) == []
        found = self.problems(self.poly(("u", 1, 0, -2)), grid=((1e-200,), (1.0,)))
        assert found == ["cost term 1, u[1][0]: 1e-200 ** -2 at stage 1 overflows a float"]

    def test_window_offsets(self):
        def additive(*variables):
            return {"form": "additive", "gamma": 0.5, "lag": 1, "stage_costs": [
                {"poly": {"terms": [{"coef": 1.0, "vars": [list(v) for v in variables]}]}}]}

        assert self.problems(additive(("x", -1, 0, 1))) == [
            "stage cost 0 term 0, x[-1][0]: window offset -1 is negative"
        ]
        # u offset 0 at stage 1 is u_0, whose grid holds 0
        assert self.problems(additive(("u", 0, 0, -1))) == [
            "stage cost 0 term 0, u[0][0]: a value 0 at stage 0 has power -1"
        ]
        # a variable past the window end makes the term vanish before the next one
        assert self.problems(additive(("u", 1, 0, 1), ("u", 0, 0, -1))) == []

    def test_quadratic_tracking_weights(self):
        def tracking(weights):
            return {"form": "general", "builtin": "quadratic_tracking",
                    "params": {"weights": weights}}

        assert self.problems(tracking([1.0, 2.0])) == []
        assert self.problems(tracking([1.0])) == [
            "cost quadratic_tracking weights has 1 entries, expected T+1 = 2"
        ]


# -- table lookup -----------------------------------------------------------------------


def scan_table(entries, atol=EQUALITY_TOL):
    """The reference lookup: a scan of the entries, in order, for one history.

    It is the lookup ``table_objective`` replaced, kept as a raw callable, so
    :func:`window_values` calls it once per history of a grid, in C order.
    """
    parsed = [
        (
            tuple(tuple(float(v) for v in vec) for vec in e["x"]),
            tuple(tuple(float(v) for v in vec) for vec in e["u"]),
            float(e["value"]),
        )
        for e in entries
    ]

    def matches(key, ref):
        if len(key) != len(ref):
            return False
        for a, b in zip(key, ref):
            if len(a) != len(b) or any(abs(x - y) > atol for x, y in zip(a, b)):
                return False
        return True

    def evaluate(xs, us):
        for ex, eu, value in parsed:
            if matches(xs, ex) and matches(us, eu):
                return value
        raise MultistageError(f"no table entry matches x={xs!r}, u={us!r}")

    return evaluate


def lookup(cost, xs, us):
    """window_values of cost (cost itself on plain windows): ("ok", the value), or
    the type and message of the error."""
    try:
        if isinstance(xs, GridWindow):
            return "ok", window_values(cost, xs, us)
        return "ok", cost(xs, us)
    except MultistageError as exc:
        return type(exc).__name__, str(exc)


def assert_lookup_is_the_scan(entries, atol, xs, us):
    """The table on (xs, us) equals the scan: float.hex for float.hex over the
    scan's whole grid product, a Python float on plain windows, or the same error."""
    got = lookup(costs.table_objective(entries, atol), xs, us)
    want = lookup(scan_table(entries, atol), xs, us)
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    if isinstance(want[1], float):
        assert type(got[1]) is float
        assert got[1].hex() == want[1].hex()
        return
    values = np.broadcast_to(got[1], want[1].shape)
    assert values.dtype == np.float64
    assert [float(v).hex() for v in values.ravel()] == [float(v).hex() for v in want[1].ravel()]


def table_case(seed):
    """Random windows (plain, one row of a grid product, or a batch of rows) and
    entries near their vectors: at 0, exactly atol or just past it, with signed
    zeros, and some of another window length or vector length."""
    rng = rng_from_seed(seed)
    atol = float(rng.choice([0.0, 2.0 ** -10, 0.5]))
    dim = int(rng.integers(1, 3))
    pool = [0.0, -0.0, 1.0, -1.5, 0.75]

    def vector():
        return tuple(float(rng.choice(pool)) for _ in range(dim))

    def grid():
        return tuple(vector() for _ in range(int(rng.integers(1, 4))))

    mode = str(rng.choice(["plain", "grid", "mixed", "batch"]))
    n = int(rng.integers(1, 4))
    if mode == "plain":
        xs = tuple(vector() for _ in range(n))
        us = tuple(vector() for _ in range(int(rng.integers(0, 3))))
        seen = [[v] for v in xs + us]
    elif mode in ("grid", "mixed"):
        xs_grids = [grid() for _ in range(n)]
        us_grids = [grid() for _ in range(int(rng.integers(1, 3)))]
        axes = [int(a) + 1 for a in rng.permutation(len(xs_grids) + len(us_grids))]
        ndim = len(axes) + 1
        xs = GridWindow.single(xs_grids, axes[:n], ndim)
        us = GridWindow.single(us_grids, axes[n:], ndim)
        seen = [list(g) for g in xs_grids + us_grids]
        if mode == "mixed":  # fixed observations, as a tree's stage cost has them
            obs = [vector() for _ in range(n)]
            ndim = len(us_grids) + 1
            xs = fixed(obs, ndim)
            us = GridWindow.single(us_grids, tuple(range(1, ndim)), ndim)
            seen = [[x] for x in obs] + [list(g) for g in us_grids]
    else:  # rows of a batch of leaves, then a lag window of it
        L = int(rng.integers(1, 5))
        obs, cands, rows = [], [], []
        for _ in range(n):
            k = int(rng.integers(1, L + 1))
            size = int(rng.integers(1, 4))
            obs.append([(vector(),) for _ in range(k)])
            cands.append([tuple(vector() for _ in range(size)) for _ in range(k)])
            rows.append(np.sort(rng.integers(0, k, size=L)).astype(np.intp))
        xs = GridWindow(obs, (None,) * n, n + 1, rows)
        us = GridWindow(cands, tuple(range(1, n + 1)), n + 1, rows)
        t = int(rng.integers(0, n))
        a = int(rng.integers(0, t + 1))
        xs, us = xs[a: t + 1], us[a:t]
        seen = [[x for (x,) in g] for g in obs[a: t + 1]]
        seen += [[v for grid_ in g for v in grid_] for g in cands[a:t]]
    nx = len(xs)

    def near(v):
        """v moved by 0, +-atol or just past atol, per component."""
        out = []
        for c in v:
            step = float(rng.choice([0.0, 0.0, atol, -atol, 1.5 * atol + 2.0 ** -30]))
            out.append(c + step)
        return out

    entries = []
    for _ in range(int(rng.integers(1, 30))):
        key = [near(pos[int(rng.integers(0, len(pos)))]) for pos in seen]
        roll = rng.uniform()
        if roll < 0.05:
            key.append(list(vector()))  # a window one longer
        elif roll < 0.1:
            key[int(rng.integers(0, len(key)))].append(0.0)  # a longer vector
        entries.append({"x": key[:nx], "u": key[nx:],
                        "value": float(rng.choice([0.5, -2.0, rng.uniform(-1, 1)]))})
    return entries, atol, xs, us


class TestTableLookup:
    """table_objective equals the entry scan on every history, errors included."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), chunk=st.sampled_from([None, 1, 3, 10]))
    def test_matches_the_entry_scan(self, seed, chunk):
        entries, atol, xs, us = table_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:  # entries in chunks: a first match in a later chunk
                mp.setattr(costs, "LEAF_BATCH_ENTRIES", chunk)
            assert_lookup_is_the_scan(entries, atol, xs, us)

    def test_the_first_of_overlapping_entries_wins(self):
        entries = [
            {"x": [[1.0]], "u": [[0.0]], "value": 2.5},
            {"x": [[1.0 + 1e-10]], "u": [[-1e-10]], "value": -7.0},
        ]
        xs = GridWindow.single([((1.0,), (3.0,))], (1,), 3)
        us = GridWindow.single([((0.0,),)], (2,), 3)
        entries.append({"x": [[3.0]], "u": [[0.0]], "value": 1.0})
        assert_lookup_is_the_scan(entries, 1e-9, xs, us)
        table = costs.table_objective(entries, 1e-9)
        assert table(((1.0 + 5e-10,),), ((0.0,),)) == 2.5
        entries[:2] = entries[1::-1]
        assert costs.table_objective(entries, 1e-9)(((1.0,),), ((0.0,),)) == -7.0

    def test_a_distance_of_exactly_atol_matches(self):
        entries = [{"x": [[1.0]], "u": [[-1.0]], "value": 4.0}]
        table = costs.table_objective(entries, 0.5)
        assert table(((1.5,),), ((-0.5,),)) == 4.0
        assert table(((0.5,),), ((-1.5,),)) == 4.0
        past = float(np.nextafter(1.5, 2.0))
        with pytest.raises(MultistageError, match="no table entry matches"):
            table(((past,),), ((-1.0,),))
        xs = GridWindow.single([((0.5,), (1.5,), (past,))], (1,), 3)
        us = GridWindow.single([((-1.5,), (-0.5,))], (2,), 3)
        assert_lookup_is_the_scan(entries, 0.5, xs, us)

    def test_entries_of_another_length_are_skipped(self):
        entries = [
            {"x": [[1.0], [2.0]], "u": [], "value": 1.0},  # a longer x window
            {"x": [[1.0]], "u": [[2.0], [2.0]], "value": 2.0},  # a longer u window
            {"x": [[1.0, 0.0]], "u": [[2.0]], "value": 3.0},  # a longer x vector
            {"x": [[1.0]], "u": [[]], "value": 4.0},  # a shorter u vector
            {"x": [[1.0]], "u": [[2.0]], "value": 5.0},
        ]
        table = costs.table_objective(entries)
        assert table(((1.0,),), ((2.0,),)) == 5.0
        xs = fixed([(1.0,)], 2)
        us = GridWindow.single([((2.0,), (), (2.0, 0.0))], (1,), 2)
        assert_lookup_is_the_scan(entries, EQUALITY_TOL, xs, us)
        assert_lookup_is_the_scan(entries[:4], EQUALITY_TOL, xs, us)

    def test_signed_zeros(self):
        entries = [{"x": [[-0.0]], "u": [[0.0]], "value": -0.0},
                   {"x": [[0.0]], "u": [[-0.0]], "value": 0.0}]
        table = costs.table_objective(entries, 0.0)
        assert table(((0.0,),), ((-0.0,),)).hex() == "-0x0.0p+0"
        xs = GridWindow.single([((0.0,), (-0.0,))], (1,), 3)
        us = GridWindow.single([((-0.0,), (0.0,))], (2,), 3)
        assert_lookup_is_the_scan(entries, 0.0, xs, us)
        assert_lookup_is_the_scan(entries[::-1], 0.0, xs, us)

    @pytest.mark.parametrize("cap", [1, 2, 5, 16])
    def test_first_match_in_a_later_entry_chunk(self, monkeypatch, cap):
        # 4 histories, 12 entries: the matches sit at entries 2, 7, 8 and 11
        grid = ((0.0,), (1.0,), (2.0,), (3.0,))
        entries = [{"x": [[9.0]], "u": [[9.0]], "value": float(k)} for k in range(12)]
        for k, u in ((2, 1.0), (7, 3.0), (8, 0.0), (11, 2.0)):
            entries[k] = {"x": [[0.5]], "u": [[u]], "value": float(k)}
        monkeypatch.setattr(costs, "LEAF_BATCH_ENTRIES", cap)
        xs = fixed([(0.5,)], 2)
        us = GridWindow.single([grid], (1,), 2)
        values = window_values(costs.table_objective(entries), xs, us)
        assert values.tolist() == [[8.0, 2.0, 11.0, 7.0]]
        assert_lookup_is_the_scan(entries, EQUALITY_TOL, xs, us)
        del entries[11]  # u = 2.0 now misses: the one history left without a match
        assert_lookup_is_the_scan(entries, EQUALITY_TOL, xs, us)
        with pytest.raises(MultistageError, match=r"u=\(\(2\.0,\),\)"):
            window_values(costs.table_objective(entries), xs, us)

    def test_plain_windows_give_a_python_float(self):
        entries = [{"x": [[0.1], [0.2]], "u": [[0.3]], "value": 0.1 + 0.2}]
        value = costs.table_objective(entries)(((0.1,), (0.2,)), ((0.3,),))
        assert type(value) is float
        assert value.hex() == (0.1 + 0.2).hex()
        entries[0]["u"].append([7.0])
        cost = cost_from_json({"form": "general", "table": {"entries": entries}})
        assert type(cost.evaluate(((0.1,), (0.2,)), ((0.3,), (7.0,)))) is float

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", ["table", "window_table"])
    def test_leaf_batches_equal_the_scan(self, seed, kind):
        cost, paths, grids = leaf_instance(seed, kind)
        if kind == "table":
            scan = CostSpec.general(scan_table(cost.payload["table"]["entries"]))
        else:
            scan = CostSpec.additive(
                [scan_table(c["table"]["entries"]) for c in cost.payload["stage_costs"]],
                cost.gamma, cost.lag)
        assert outcome(lambda: leaf_arrays(cost, paths, grids)) == outcome(
            lambda: leaf_arrays(scan, paths, grids))
        for p, g in zip(paths, grids):
            for h in itertools.islice(itertools.product(*g), 5):
                assert outcome(lambda: [np.array(cost.evaluate(p, h))]) == outcome(
                    lambda: [np.array(scan.evaluate(p, h))])

    @pytest.mark.parametrize("lag", [None, 1, 2])
    def test_a_batch_calls_the_table_once_per_stage_window(self, lag):
        _, paths, grids = random_paths_and_grids(16, horizon=3, dim=1)
        shared = [paths, paths[:3] + ((9.0,),)]  # two leaves below one stage-2 node
        windows = [(slice(0, 4), slice(0, 4))] if lag is None else [
            (slice(max(0, t - lag), t + 1), slice(max(0, t - lag), t)) for t in (1, 2, 3)]
        entries = [
            {"x": [list(x) for x in p[xw]], "u": [list(u) for u in h], "value": float(k)}
            for p in shared for xw, uw in windows
            for k, h in enumerate(itertools.product(*grids[uw]))
        ]
        table = costs.table_objective(entries)
        calls = []

        def counted(xs, us):
            calls.append((type(xs), type(us)))
            return table(xs, us)

        counted = costs._compiled(counted, table.problems)
        if lag is None:
            cost, reference = CostSpec.general(counted), CostSpec.general(scan_table(entries))
        else:
            cost = CostSpec.additive([counted] * 3, gamma=0.5, lag=lag)
            reference = CostSpec.additive([scan_table(entries)] * 3, gamma=0.5, lag=lag)
        values = cost.evaluate_leaves(shared, [grids, grids])
        assert len(calls) == len(windows)
        assert set(calls) == {(GridWindow, GridWindow)}
        for k, p in enumerate(shared):
            assert_bitwise(values[k], reference.evaluate_grid(p, grids))


class TestStagewiseTable:
    """sddp_recursion broadcasts a stagewise table, with the per-history loop's values."""

    @staticmethod
    def entries(seed):
        spec = random_sddp(rng_from_seed(seed), horizon=3, n_atoms=3, n_decisions=2,
                           shared_noise=False)
        rng = rng_from_seed(seed + 100)
        return spec, [
            {"x": list(x), "w": list(w), "u": list(u), "value": float(rng.uniform(-1, 1))}
            for t in range(spec.horizon) for x in spec.support(t)
            for w in spec.support(t + 1) for u in spec.stage_decisions[t]
        ]

    @classmethod
    def spec(cls, seed, drop=None):
        """The spec with a step-cost table loaded from JSON, and the same with the
        scan. An entry to drop is dropped after the load, past its check."""
        spec, entries = cls.entries(seed)
        table = sddp_from_json({**spec.payload, "cost": {"table": {"entries": entries}}})
        if drop is not None:
            del entries[drop]
        windows = [{"x": [e["x"], e["w"]], "u": [e["u"]], "value": e["value"]} for e in entries]
        if drop is not None:
            table = replace(table, step_cost=costs.table_objective(windows))
        return table, replace(table, step_cost=scan_table(windows))

    @staticmethod
    def solved(spec):
        try:
            result = sddp_recursion(spec)
        except MultistageError as exc:
            return type(exc).__name__, str(exc)
        return ([{x: v.hex() for x, v in level.items()} for level in result.values],
                result.greedy)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_per_history_loop(self, seed):
        table, scan = self.spec(seed)
        assert not hasattr(scan.step_cost, "problems")
        assert self.solved(table) == self.solved(scan)

    @pytest.mark.parametrize("drop", [0, 10, 40])
    def test_a_missing_entry_is_the_loops_first_miss(self, drop):
        table, scan = self.spec(5, drop=drop)
        found = self.solved(table)
        assert found[0] == "MultistageError"
        assert found == self.solved(scan)

    @pytest.mark.parametrize("drop", [0, 10, 40, -1])
    def test_a_missing_entry_is_rejected_at_load(self, drop):
        spec, entries = self.entries(5)
        miss = entries.pop(drop)
        stage = [t for t in range(spec.horizon) for _ in itertools.product(
            spec.support(t), spec.support(t + 1), spec.stage_decisions[t])][drop]
        with pytest.raises(InputFormatError) as found:
            sddp_from_json({**spec.payload, "cost": {"table": {"entries": entries}}})
        x = (tuple(miss["x"]), tuple(miss["w"]))
        assert str(found.value).startswith(
            f"stage {stage} step-cost table: no table entry matches x={x!r}, "
            f"u={(tuple(miss['u']),)!r}")
