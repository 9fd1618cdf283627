import itertools
import math

import numpy as np
import pytest

from multistage import (
    CostSpec,
    InputFormatError,
    UnboundedObjectiveError,
    cost_from_json,
    cost_to_json,
    empirical_holder_constant,
    verify_holder,
)
from multistage.costs import cost_problems, u_window, x_window
from multistage.generate import chain_tree, random_tree, rng_from_seed
from multistage.policy import PolicyClass
from multistage.scenario_tree import Node, ScenarioTree


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
        head = cost.additive_prefix(paths[:3], decisions[:3], 2)
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
        from multistage.generate import random_general_cost

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
