import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multistage import (
    ConvergenceError,
    CostSpec,
    IncompleteFunctionError,
    InputFormatError,
    MDPSpec,
    MultistageError,
    Policy,
    PolicyClass,
    backward_tables,
    brute_force_optimum,
    greedy_policy_from_tables,
    lag_recursion_check,
    mdp_backward_induction,
    mdp_from_json,
    sddp_from_json,
    sddp_recursion,
    sddp_to_mdp,
    sddp_to_product_tree,
    tilde_shift,
    unroll_mdp_to_tree,
    value_iteration,
)
from multistage import dp_solvers
from multistage.dp_solvers import SddpSpec, shifted_tables
from multistage.generate import random_nodewise_class, random_tree, rng_from_seed
from multistage.scenario_tree import Node, ScenarioTree, path
from multistage.tolerances import LAG_KEY_DIGITS
from instances import (
    bellman_apply,
    chain_tree,
    constant_cost_mdp,
    document,
    mdp_to_json,
    non_markov_tree,
    random_additive_cost,
    random_mdp,
    random_sddp,
)


def additive_fixture(gamma=0.5, horizon=2, seed=11):
    rng = rng_from_seed(seed)
    tree = random_tree(rng, horizon=horizon, max_branch=2)
    cls = random_nodewise_class(rng, tree, max_choices=2)
    cost = random_additive_cost(rng, horizon=horizon, lag=1, gamma=gamma)
    return tree, cost, cls


class TestTildeShift:
    def test_stage_zero_equals_the_root_value(self):
        tree, cost, cls = additive_fixture()
        tables = backward_tables(tree, cost, cls)
        policy = greedy_policy_from_tables(tree, cls, tables)
        shifted = tilde_shift(tree, tables, cost, policy)
        assert shifted.stages[0][0] == pytest.approx(tables.root_value, abs=1e-12)
        assert shifted.skipped_stages == []

    def test_zero_stage_costs_scale_by_inverse_discount(self):
        tree = chain_tree([0.0, 1.0, 2.0])
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(
            feasible={0: grid, 1: grid, 2: grid}, kind="nodewise", decision_dim=1
        )

        def zero(xw, uw):
            return 0.0

        def quadratic(xw, uw):
            return (uw[-1][0] - xw[-1][0]) ** 2

        cost = CostSpec.additive(stage_costs=(zero, quadratic), gamma=0.5, lag=1)
        tables = backward_tables(tree, cost, cls)
        policy = greedy_policy_from_tables(tree, cls, tables)
        shifted = tilde_shift(tree, tables, cost, policy)
        # no cost accumulated through stage 1, so the shift is V_1 / gamma
        nid = tree.stage_nodes(1)[0]
        head = policy.decision_paths(tree)[nid][:-1]
        assert shifted.stages[1][nid] == pytest.approx(
            tables.V[nid][tables.index(nid, head)] / 0.5, abs=1e-12
        )

    def test_all_zero_costs_shift_to_zero(self):
        tree = chain_tree([0.0, 1.0, 2.0])
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(
            feasible={0: grid, 1: grid, 2: grid}, kind="nodewise", decision_dim=1
        )
        zero = lambda xw, uw: 0.0
        cost = CostSpec.additive(stage_costs=(zero, zero), gamma=0.5, lag=1)
        tables = backward_tables(tree, cost, cls)
        policy = greedy_policy_from_tables(tree, cls, tables)
        shifted = tilde_shift(tree, tables, cost, policy)
        for t, level in shifted.stages.items():
            for nid, value in level.items():
                head = policy.decision_paths(tree)[nid][:-1]
                raw = tables.V[nid][tables.index(nid, head)]
                assert value == pytest.approx(raw / 0.5**t, abs=1e-12)

    def test_one_step_recursion_holds_at_the_optimal_policy(self):
        tree, cost, cls = additive_fixture(gamma=0.5, horizon=2)
        tables = backward_tables(tree, cost, cls)
        policy = greedy_policy_from_tables(tree, cls, tables)
        shifted = tilde_shift(tree, tables, cost, policy)
        arrays = shifted_tables(tree, tables, cost)
        from instances import u_window, x_window

        for t in range(tree.horizon):
            for nid in tree.stage_nodes(t):
                head = policy.decision_paths(tree)[nid][:-1]
                kids = tree.children(nid)
                best = None
                for u in cls.feasible[nid]:
                    total = 0.0
                    for c in kids:
                        paths_c = path(tree, c)
                        decisions = list(head) + [u, (0.0,)]
                        step = cost.stage_costs[t](
                            x_window(paths_c, t + 1, cost.lag),
                            u_window(decisions, t + 1, cost.lag),
                        )
                        total += tree.nodes[c].cond_prob * (
                            step
                            + cost.gamma
                            * arrays[c][tables.index(c, head + (u,))]
                        )
                    best = total if best is None else min(best, total)
                assert shifted.stages[t][nid] == pytest.approx(best, abs=1e-9)

    def test_gamma_zero_reports_inapplicable_stages(self):
        tree = chain_tree([0.0, 1.0, 2.0])
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(
            feasible={0: grid, 1: grid, 2: grid}, kind="nodewise", decision_dim=1
        )
        zero = lambda xw, uw: float(uw[-1][0])
        cost = CostSpec.additive(stage_costs=(zero, zero), gamma=0.0, lag=1)
        tables = backward_tables(tree, cost, cls)
        policy = greedy_policy_from_tables(tree, cls, tables)
        shifted = tilde_shift(tree, tables, cost, policy)
        assert shifted.skipped_stages == [1, 2]
        assert list(shifted.stages) == [0]
        # tilde_shift reads Policy.decision_paths, which needs a decision at every node
        partial = Policy(decisions={0: policy.decisions[0]}, decision_dim=1)
        with pytest.raises(IncompleteFunctionError, match="no decision for node 1"):
            tilde_shift(tree, tables, cost, partial)

    def test_requires_additive_form(self, binary2, binary2_class):
        cost = CostSpec.general(lambda xs, us: 0.0)
        with pytest.raises(MultistageError):
            tilde_shift(binary2, None, cost, None)


class TestLagRecursion:
    def test_full_lag_reduces_to_general_relations(self):
        tree, _, cls = additive_fixture(horizon=2, seed=21)
        rng = rng_from_seed(22)
        cost = random_additive_cost(rng, horizon=2, lag=2, gamma=0.5)
        report = lag_recursion_check(tree, cost, cls)
        assert report.applicable
        assert report.max_recursion_violation <= 1e-9
        assert report.equality_everywhere

    def test_stagewise_independent_tree_collapses_at_lag_one(self):
        spec = random_sddp(rng_from_seed(31), horizon=3, gamma=0.5)
        tree, cost, cls = sddp_to_product_tree(spec)
        report = lag_recursion_check(tree, cost, cls)
        assert report.applicable
        assert report.max_collapse_deviation <= 1e-9
        assert report.equality_everywhere
        # collapsed window values coincide with the independent recursion
        values, _ = sddp_recursion(spec)
        for t in range(tree.horizon + 1):
            for (obs_window, _), value in report.window_values[t].items():
                matches = [
                    v
                    for state, v in zip(spec.support(t), values[t].tolist())
                    if abs(state[0] - obs_window[-1][0]) <= 1e-8
                ]
                assert len(matches) == 1
                assert value == pytest.approx(matches[0], abs=1e-9)

    def test_negative_gamma_keeps_only_the_one_sided_bound(self):
        spec = random_sddp(rng_from_seed(8), horizon=3, gamma=-0.5)
        report = lag_recursion_check(*sddp_to_product_tree(spec))
        assert report.applicable
        assert report.max_recursion_violation <= report.tolerance
        assert not report.equality_everywhere

    def test_gamma_zero_checks_stage_zero_only(self):
        spec = random_sddp(rng_from_seed(8), horizon=3, gamma=0.0)
        report = lag_recursion_check(*sddp_to_product_tree(spec))
        assert report.applicable
        assert report.skipped_stages == [1, 2, 3]
        assert list(report.window_values) == [0]

    def test_non_markov_tree_is_inapplicable_with_witness(self):
        tree = non_markov_tree()
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(
            feasible={n.id: grid for n in tree.nodes}, kind="nodewise", decision_dim=1
        )
        cost = random_additive_cost(rng_from_seed(33), horizon=2, lag=1, gamma=0.5)
        report = lag_recursion_check(tree, cost, cls)
        assert not report.applicable
        assert report.witness["t"] == 1
        assert sorted(report.witness["nodes"]) == [1, 2]


# The structural test of ``lag_recursion_check`` as it was built on nested
# signatures, kept as an independent oracle for the integer class ids.


def _round_vec(vec):
    return tuple(round(float(x), LAG_KEY_DIGITS) for x in vec)


def _obs_window_key(tree, node_id, lag):
    t = tree.node(node_id).stage
    nodes = tree.path_nodes(node_id)[max(0, t - lag + 1):]
    return tuple(_round_vec(tree.nodes[i].obs) for i in nodes)


def _subtree_signatures(tree, cls):
    sigs = {}
    for nid in reversed(tree.top_down()):
        grid = tuple(sorted(_round_vec(u) for u in cls.feasible[nid]))
        child_sigs = sorted(
            (
                round(tree.nodes[c].cond_prob, LAG_KEY_DIGITS),
                _round_vec(tree.nodes[c].obs),
                sigs[c],
            )
            for c in tree.children(nid)
        )
        sigs[nid] = (grid, tuple(child_sigs))
    return sigs


def signature_precondition(tree, cls, lag):
    """(applicable, reason, witness) of the nested-signature structural test."""
    signatures = _subtree_signatures(tree, cls)
    for t in range(tree.horizon + 1):
        groups = {}
        for nid in tree.stage_nodes(t):
            groups.setdefault(_obs_window_key(tree, nid, lag), []).append(nid)
        for window, ids in groups.items():
            if len({signatures[i] for i in ids}) > 1:
                reason = "two nodes share a lag window but have different conditional laws below"
                return False, reason, {"t": t, "window": list(window), "nodes": sorted(ids)}
    return True, None, None


def coarse_tree(seed):
    """``random_tree`` with observations rounded to {0, 1} and, on odd seeds,
    every branching uniform, so that windows and subtree laws coincide often."""
    rng = rng_from_seed(seed)
    tree = random_tree(rng, horizon=int(rng.integers(1, 4)), max_branch=3)

    def prob(n):
        uniform = seed % 2 and n.parent is not None
        return 1.0 / len(tree.children(n.parent)) if uniform else n.cond_prob

    nodes = [
        Node(n.id, n.stage, n.parent, prob(n), (float(n.obs[0] > 0.0),)) for n in tree.nodes
    ]
    return ScenarioTree(nodes, horizon=tree.horizon, obs_dim=1)


def assert_precondition_matches_the_oracle(tree, cls, lag):
    cost = random_additive_cost(rng_from_seed(7), horizon=tree.horizon, lag=lag, gamma=0.5)
    report = lag_recursion_check(tree, cost, cls)
    expected = signature_precondition(tree, cls, lag)
    assert (report.applicable, report.reason, report.witness) == expected
    return report


def crafted_tree(stage2):
    """Root, two stage-1 nodes with equal observations, and the given
    (parent, cond_prob, obs) stage-2 nodes in id order."""
    nodes = [
        Node(0, 0, None, 1.0, (0.0,)),
        Node(1, 1, 0, 0.5, (1.0,)),
        Node(2, 1, 0, 0.5, (1.0,)),
    ] + [Node(3 + k, 2, parent, p, (x,)) for k, (parent, p, x) in enumerate(stage2)]
    return ScenarioTree(nodes, horizon=2, obs_dim=1)


def shared_grid_class(tree, grid=((0.0,), (1.0,))):
    return PolicyClass(feasible={n.id: grid for n in tree.nodes}, kind="nodewise", decision_dim=1)


class TestLagPrecondition:
    """The class ids decide the precondition exactly as nested signatures did."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_trees_match_the_signature_oracle(self, seed):
        tree = coarse_tree(seed) if seed % 3 else random_tree(rng_from_seed(seed), max_branch=3)
        grid_rng = rng_from_seed(1000 + seed)
        cls = random_nodewise_class(grid_rng, tree, max_choices=2) if seed % 4 == 0 else (
            shared_grid_class(tree)
        )
        assert_precondition_matches_the_oracle(tree, cls, lag=seed % 4)

    def test_a_shared_window_with_another_law_below_is_the_witness(self):
        tree = crafted_tree([(1, 0.5, 0.0), (1, 0.5, 2.0), (2, 0.9, 0.0), (2, 0.1, 2.0)])
        report = assert_precondition_matches_the_oracle(tree, shared_grid_class(tree), lag=1)
        assert report.witness == {"t": 1, "window": [(1.0,)], "nodes": [1, 2]}

    def test_the_same_law_with_children_in_another_id_order_is_one_class(self):
        tree = crafted_tree([(1, 0.3, 0.0), (1, 0.7, 2.0), (2, 0.7, 2.0), (2, 0.3, 0.0)])
        report = assert_precondition_matches_the_oracle(tree, shared_grid_class(tree), lag=1)
        assert report.applicable

    def test_a_probability_that_differs_past_the_key_digits_is_one_class(self):
        eps = 10.0 ** -(LAG_KEY_DIGITS + 3)
        tree = crafted_tree(
            [(1, 0.5 + eps, 0.0), (1, 0.5 - eps, 2.0), (2, 0.5, 0.0), (2, 0.5, 2.0)]
        )
        report = assert_precondition_matches_the_oracle(tree, shared_grid_class(tree), lag=1)
        assert report.applicable

    def test_a_grid_that_differs_below_is_the_witness(self):
        tree = crafted_tree([(1, 0.5, 0.0), (1, 0.5, 2.0), (2, 0.5, 0.0), (2, 0.5, 2.0)])
        grids = {n.id: ((0.0,), (1.0,)) for n in tree.nodes}
        grids[6] = ((0.0,), (2.0,))
        cls = PolicyClass(feasible=grids, kind="nodewise", decision_dim=1)
        report = assert_precondition_matches_the_oracle(tree, cls, lag=1)
        assert report.witness["nodes"] == [1, 2]

    @pytest.mark.parametrize("lag", [0, 1, 2, 3])
    def test_windows_keep_the_last_lag_observations(self, lag):
        tree = chain_tree([0.0, 1.0, 2.0, 3.0, 4.0])
        windows, _ = dp_solvers._window_classes(tree, shared_grid_class(tree), lag)
        for nid in tree.top_down():
            assert windows[nid] == _obs_window_key(tree, nid, lag)


def collapse_by_history(tree, tables, shifted, lag):
    """The collapse test one decision history at a time, folded with ``max``."""
    windows, dev = {}, 0.0
    for nid, values in shifted.items():
        t = tree.node(nid).stage
        level = windows.setdefault(t, {})
        obs_key = _obs_window_key(tree, nid, lag)
        heads = itertools.product(*tables.axes[nid][:-1])
        for head, value in zip(heads, values.ravel().tolist()):
            key = (obs_key, tuple(_round_vec(u) for u in head[max(0, t - lag + 1):]))
            if key in level:
                dev = max(dev, abs(level[key] - value))
            else:
                level[key] = value
    return windows, dev


def hexed(windows):
    """Window values with their order, types and bits, so that NaN compares equal."""
    return {t: [(k, type(v).__name__, v.hex()) for k, v in w.items()] for t, w in windows.items()}


class TestLagCollapse:
    """The collapse by window column equals the per-history loop, also on
    shifted values that mix +inf, -inf, NaN and finite entries."""

    @staticmethod
    def product_fixture(seed, lag):
        # 1.0 and 1.0 + 1e-12 round to one key, so two columns share it
        spec = SddpSpec(
            initial_state=(0.0,),
            horizon=3,
            stage_noise=(((0.5, (1.0,)), (0.5, (2.0,))),) * 3,
            stage_decisions=(((0.0,), (1.0,), (1.0 + 1e-12,)),) * 3,
            gamma=0.5,
            stage_step_costs=(lambda xs, us: (us[0][0] - xs[1][0]) ** 2,) * 3,
        )
        tree, _, cls = sddp_to_product_tree(spec)
        cost = random_additive_cost(rng_from_seed(seed), horizon=3, lag=lag, gamma=0.5)
        return tree, cost, cls

    @pytest.mark.parametrize("lag", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_non_finite_columns_match_the_history_loop(self, monkeypatch, seed, lag):
        tree, cost, cls = self.product_fixture(seed, lag)
        real = dp_solvers._shift_pass
        seen = {}

        def spoiled(tree, tables, cost, last):
            steps, out = real(tree, tables, cost, last)
            rng = np.random.default_rng(seed)
            pool = np.array([np.inf, -np.inf, np.nan, 1.5, -2.0, 0.0])
            for nid, values in out.items():
                picks = rng.choice(pool, size=values.shape)
                out[nid] = np.where(rng.random(values.shape) < 0.6, picks, values)
            seen.update(tables=tables, shifted=out)
            return steps, out

        monkeypatch.setattr(dp_solvers, "_shift_pass", spoiled)
        # the recursion test downstream meets inf - inf; only the collapse is compared
        with np.errstate(all="ignore"):
            report = lag_recursion_check(tree, cost, cls)
        windows, dev = collapse_by_history(tree, seen["tables"], seen["shifted"], lag)
        assert type(report.max_collapse_deviation) is float
        assert report.max_collapse_deviation.hex() == dev.hex()
        assert hexed(report.window_values) == hexed(windows)

    @pytest.mark.parametrize("lag", [0, 1, 2, 3])
    def test_finite_columns_match_the_history_loop(self, lag):
        tree, cost, cls = self.product_fixture(5, lag)
        report = lag_recursion_check(tree, cost, cls)
        tables = backward_tables(tree, cost, cls)
        windows, dev = collapse_by_history(tree, tables, shifted_tables(tree, tables, cost), lag)
        assert report.max_collapse_deviation.hex() == dev.hex()
        assert hexed(report.window_values) == hexed(windows)


class TestStageCostsOnce:
    """On the tree's dynamic equations each stage cost is evaluated once per
    stage: every node's prefix extends its parent's by gamma^(t-1) c_t."""

    @staticmethod
    def counted_calls(monkeypatch, cost):
        """Calls of ``window_values`` on each stage cost, in stage order, from now on."""
        from multistage import costs

        real, calls = costs.window_values, []

        def counted(c, xs, us):
            calls.append(c)
            return real(c, xs, us)

        monkeypatch.setattr(costs, "window_values", counted)
        monkeypatch.setattr(dp_solvers, "window_values", counted)
        return lambda: [sum(c is stage for c in calls) for stage in cost.stage_costs]

    @pytest.mark.parametrize("lag", [1, 2])
    def test_shifted_tables_evaluates_each_stage_cost_once(self, monkeypatch, lag):
        tree, _, cls = sddp_to_product_tree(random_sddp(rng_from_seed(8), horizon=6))
        cost = random_additive_cost(rng_from_seed(8), horizon=6, lag=lag)
        tables = backward_tables(tree, cost, cls)
        counts = self.counted_calls(monkeypatch, cost)
        shifted_tables(tree, tables, cost)
        assert counts() == [1] * tree.horizon

    def test_lag_recursion_check_evaluates_each_stage_cost_twice(self, monkeypatch):
        # once in the backward tables, once for the step arrays that the
        # prefixes and the recursion share
        tree, _, cls = sddp_to_product_tree(random_sddp(rng_from_seed(8), horizon=6))
        cost = random_additive_cost(rng_from_seed(8), horizon=6, lag=1)
        counts = self.counted_calls(monkeypatch, cost)
        report = lag_recursion_check(tree, cost, cls)
        assert report.applicable
        assert counts() == [2] * tree.horizon


class TestMdpBackwardInduction:
    def test_single_step_is_the_expected_cost_minimum(self):
        mdp = random_mdp(rng_from_seed(41), n_states=3, n_actions=2, gamma=0.7)
        values, greedy = mdp_backward_induction(mdp, horizon=1)
        for i in range(mdp.n_states):
            expected = min(
                float(np.dot(mdp.kernel[i], mdp.cost[i, :, a]))
                for a in range(mdp.n_actions)
            )
            assert values[0][i] == pytest.approx(expected, abs=1e-12)

    def test_matches_unrolled_tree_backward_tables(self):
        mdp = random_mdp(rng_from_seed(42), n_states=2, n_actions=2, gamma=0.7)
        values, _ = mdp_backward_induction(mdp, horizon=3)
        tree, cost, cls = unroll_mdp_to_tree(mdp, start_index=0, horizon=3)
        tables = backward_tables(tree, cost, cls)
        assert tables.root_value == pytest.approx(values[0][0], abs=1e-9)
        value, _ = brute_force_optimum(tree, cost, cls)
        assert value == pytest.approx(values[0][0], abs=1e-9)

    def test_constant_cost_geometric_partial_sum(self):
        mdp = constant_cost_mdp(gamma=0.5)
        values, _ = mdp_backward_induction(mdp, horizon=3)
        assert np.allclose(values[0], 1.75, atol=1e-12)

    def test_action_dependent_kernel(self):
        mdp = random_mdp(
            rng_from_seed(43), n_states=3, n_actions=2, gamma=0.5, action_dependent=True
        )
        values, greedy = mdp_backward_induction(mdp, horizon=2)
        # spot check one state against the hand-expanded recursion
        i = 0
        v1 = np.array(
            [
                min(
                    float(np.dot(mdp.kernel[a, j], mdp.cost[j, :, a]))
                    for a in range(2)
                )
                for j in range(3)
            ]
        )
        expected = min(
            float(np.dot(mdp.kernel[a, i], mdp.cost[i, :, a] + 0.5 * v1))
            for a in range(2)
        )
        assert values[0][i] == pytest.approx(expected, abs=1e-12)

    def test_action_mask_matches_unrolled_tree(self):
        mdp = random_mdp(rng_from_seed(44), n_states=3, n_actions=3, gamma=0.7)
        unmasked, free = mdp_backward_induction(mdp, horizon=3)
        # forbid each state's unconstrained first action, listed out of order
        allowed = tuple(
            tuple(a for a in (2, 1, 0) if a != free[0][i]) for i in range(3)
        )
        masked = replace(mdp, actions_by_state=allowed)
        assert masked.validate() == []
        values, greedy = mdp_backward_induction(masked, horizon=3)
        assert np.all(values[0] > unmasked[0])
        for g in greedy:
            assert all(int(g[i]) in masked.actions_by_state[i] for i in range(3))
        for start in range(3):
            tree, cost, cls = unroll_mdp_to_tree(masked, start_index=start, horizon=3)
            tables = backward_tables(tree, cost, cls)
            assert tables.root_value == pytest.approx(values[0][start], abs=1e-9)

    def test_invalid_kernel_rows_are_rejected(self):
        with pytest.raises(InputFormatError, match="kernel row 0 sums to"):
            MDPSpec(
                states=((0.0,), (1.0,)),
                actions=((0.0,),),
                kernel=np.array([[0.5, 0.6], [0.5, 0.5]]),
                cost=np.zeros((2, 2, 1)),
                gamma=0.5,
                bound_K=1.0,
            )


class TestValueIteration:
    def test_constant_cost_closed_form(self):
        mdp = constant_cost_mdp(gamma=0.5)
        result = value_iteration(mdp, epsilon=1e-8)
        assert np.allclose(result.values, 2.0, atol=1e-8)

    def test_gamma_zero_converges_in_one_iteration(self):
        mdp = random_mdp(rng_from_seed(51), gamma=0.0)
        result = value_iteration(mdp, epsilon=1e-8)
        assert result.iterations == 1
        expected = bellman_apply(mdp, np.zeros(mdp.n_states))
        assert np.allclose(result.values, expected, atol=1e-12)

    @pytest.mark.parametrize("gamma", [-0.5, 0.5, 0.9])
    def test_residual_ratios_respect_the_contraction(self, gamma):
        mdp = random_mdp(rng_from_seed(52), gamma=gamma)
        result = value_iteration(mdp, epsilon=1e-8)
        for r0, r1 in zip(result.residuals, result.residuals[1:]):
            if r0 > 0:
                assert r1 / r0 <= abs(gamma) + 1e-9
        # the returned table solves the fixed point equation within epsilon
        residual = float(np.max(np.abs(bellman_apply(mdp, result.values) - result.values)))
        assert residual <= 1e-8

    def test_contraction_on_random_pairs(self):
        mdp = random_mdp(rng_from_seed(53), gamma=0.9)
        rng = rng_from_seed(54)
        for _ in range(100):
            v1 = rng.uniform(-5, 5, mdp.n_states)
            v2 = rng.uniform(-5, 5, mdp.n_states)
            lhs = np.max(np.abs(bellman_apply(mdp, v1) - bellman_apply(mdp, v2)))
            rhs = 0.9 * np.max(np.abs(v1 - v2))
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("gamma", [-0.5, 0.9])
    def test_bounded_by_cost_bound_over_one_minus_gamma(self, gamma):
        mdp = random_mdp(rng_from_seed(55), gamma=gamma)
        result = value_iteration(mdp, epsilon=1e-8)
        bound = mdp.bound_K / (1.0 - abs(gamma)) + 1e-8
        assert np.max(np.abs(result.values)) <= bound

    def test_iteration_budget_exhaustion_reports_residuals(self):
        mdp = constant_cost_mdp(gamma=0.9)
        with pytest.raises(ConvergenceError) as err:
            value_iteration(mdp, epsilon=1e-8, max_iters=3)
        assert len(err.value.residuals) == 3
        assert len(err.value.rounding_bounds) == 3

    @pytest.mark.parametrize(
        "n_states, action_dependent, gamma",
        [(50, False, 0.9), (50, True, -0.5), (120, True, 0.9), (200, False, 0.9),
         (200, True, 0.9)],
    )
    def test_residuals_contract_up_to_the_rounding_bounds(
        self, n_states, action_dependent, gamma
    ):
        """r_{k+1} <= |gamma| r_k + delta_k + delta_{k+1} down to eps = 1e-9,
        where the residuals reach the rounding floor of the values and the
        plain ratio test r_{k+1} / r_k <= |gamma| + 1e-9 can fail."""
        mdp = random_mdp(
            rng_from_seed(56 + n_states),
            n_states=n_states,
            n_actions=5,
            gamma=gamma,
            action_dependent=action_dependent,
        )
        result = value_iteration(mdp, epsilon=1e-9)
        res, delta = result.residuals, result.rounding_bounds
        assert len(delta) == len(res) == result.iterations
        for k in range(len(res) - 1):
            assert res[k + 1] <= abs(gamma) * res[k] + delta[k] + delta[k + 1]
        # the bounds sit at the long-double rounding floor, far below the residuals
        for r, d in zip(res, delta):
            assert 0.0 < d <= 1e-15 * (1.0 + r)

    @pytest.mark.parametrize("n_states, gamma, value", [(2, 0.9, 1.0), (5, -0.7, 7.0)])
    def test_rounding_bounds_cover_an_exact_contraction(self, n_states, gamma, value):
        """With a constant cost the residuals contract at exactly |gamma|, so
        the float64 rounding of the printed residuals must be in the bound."""
        mdp = constant_cost_mdp(n_states=n_states, gamma=gamma, value=value)
        result = value_iteration(mdp, epsilon=1e-14)
        res, delta = result.residuals, result.rounding_bounds
        for k in range(len(res) - 1):
            assert res[k + 1] <= abs(gamma) * res[k] + delta[k] + delta[k + 1]

    @pytest.mark.parametrize(
        "epsilon, max_iters",
        [(float("nan"), 100), (-1.0, 100), (1e-8, 0), (1e-8, -3)],
        ids=["nan-tolerance", "negative-tolerance", "zero-iterations", "negative-iterations"],
    )
    def test_invalid_arguments_are_input_errors(self, epsilon, max_iters):
        with pytest.raises(InputFormatError):
            value_iteration(constant_cost_mdp(gamma=0.5), epsilon=epsilon, max_iters=max_iters)

    @pytest.mark.parametrize("n_states", range(2, 8))
    def test_zero_tolerance_stops_at_the_rounding_floor(self, n_states):
        """With gamma < 0 the long-double iterates end up alternating in their
        last bit, so eps = 0 is never met; the rounding floor ends the run."""
        mdp = constant_cost_mdp(n_states=n_states, gamma=-0.7)
        result = value_iteration(mdp, epsilon=0.0)
        res, delta = result.residuals, result.rounding_bounds
        assert result.iterations < 200
        assert 0.0 < res[-1] <= delta[-2] + delta[-1]
        assert np.allclose(result.values, 1.0 / 1.7, rtol=0.0, atol=1e-15)

    def test_zero_tolerance_iterates_to_an_exact_fixed_point(self):
        result = value_iteration(constant_cost_mdp(gamma=0.5), epsilon=0.0)
        assert result.residuals[-1] == 0.0
        assert np.array_equal(result.values, [2.0, 2.0])


def loop_bellman_min(kernel, cost, gamma, v, allowed=None):
    """Reference operator: one np.dot per (state, action), first argmin over
    the actions ``allowed[i]`` (all when None)."""
    n, n_actions = cost.shape[0], cost.shape[2]
    values = np.empty(n, dtype=v.dtype)
    greedy = np.empty(n, dtype=int)
    for i in range(n):
        best = None
        for a in range(n_actions) if allowed is None else allowed[i]:
            row = kernel[i] if kernel.ndim == 2 else kernel[a, i]
            q = np.dot(row, cost[i, :, a] + gamma * v)
            if best is None or q < best:
                best, greedy[i] = q, a
        values[i] = best
    return values, greedy


def loop_value_iteration(mdp, epsilon, precomputed=True):
    """Reference value iteration: long-double sweeps, float64 greedy step.

    With ``precomputed`` a sweep adds gamma np.dot(K_a[i], v) to the expected
    step cost np.dot(K_a[i], c[i, :, a]), computed once; without it a sweep
    takes np.dot(K_a[i], c[i, :, a] + gamma v), the expected step cost
    recomputed every time.
    """
    g = abs(mdp.gamma)
    threshold = float("inf") if g == 0.0 else epsilon * (1.0 - g) / (2.0 * g)
    kernel = mdp.kernel.astype(np.longdouble)
    cost = mdp.cost.astype(np.longdouble)
    gamma = np.longdouble(mdp.gamma)
    n = mdp.n_states
    allowed = [mdp.action_indices(i) for i in range(n)]

    def row(i, a):
        return kernel[i] if kernel.ndim == 2 else kernel[a, i]

    expected = {(i, a): np.dot(row(i, a), cost[i, :, a]) for i in range(n) for a in allowed[i]}

    def sweep(v):
        if not precomputed:
            return loop_bellman_min(kernel, cost, gamma, v, allowed)[0]
        return np.array(
            [min(expected[i, a] + gamma * np.dot(row(i, a), v) for a in allowed[i])
             for i in range(n)],
            dtype=np.longdouble,
        )

    v = np.zeros(n, dtype=np.longdouble)
    residuals = []
    while True:
        nxt = sweep(v)
        residuals.append(float(np.max(np.abs(nxt - v))))
        v = nxt
        if residuals[-1] <= threshold:
            values = v.astype(float)
            _, greedy = loop_bellman_min(mdp.kernel, mdp.cost, mdp.gamma, values, allowed)
            return values, greedy, len(residuals), residuals


def with_allowed_actions(mdp, seed):
    """``mdp`` with a seeded, non-empty set of allowed actions per state."""
    rng = rng_from_seed(seed)
    rows = []
    for _ in range(mdp.n_states):
        keep = rng.random(mdp.n_actions) < 0.6
        keep[rng.integers(mdp.n_actions)] = True
        rows.append(tuple(int(a) for a in np.nonzero(keep)[0]))
    return replace(mdp, actions_by_state=tuple(rows))


class TestOperatorExactness:
    """The vectorized operator reproduces the per-(state, action) dot loop
    bit for bit, which keeps the mdp-solve report byte-identical; value
    iteration reproduces the loop that computes the expected step cost once,
    and stays within rounding of the loop that recomputes it every sweep."""

    @pytest.mark.parametrize("action_dependent", [False, True])
    def test_backward_induction_equals_the_dot_loop(self, action_dependent):
        mdp = random_mdp(
            rng_from_seed(81),
            n_states=13,
            n_actions=4,
            gamma=0.9,
            action_dependent=action_dependent,
        )
        values, greedy = mdp_backward_induction(mdp, horizon=6)
        v = np.zeros(mdp.n_states)
        for t in range(5, -1, -1):
            v, g = loop_bellman_min(mdp.kernel, mdp.cost, mdp.gamma, v)
            assert np.array_equal(values[t], v)
            assert np.array_equal(greedy[t], g)

    @staticmethod
    def vi_instance(action_dependent, masked):
        mdp = random_mdp(
            rng_from_seed(82),
            n_states=11,
            n_actions=4,
            gamma=0.9,
            action_dependent=action_dependent,
        )
        return with_allowed_actions(mdp, 83) if masked else mdp

    @staticmethod
    def value_iteration_equals_the_dot_loop(mdp):
        result = value_iteration(mdp, epsilon=1e-8)
        values, greedy, iterations, residuals = loop_value_iteration(mdp, 1e-8)
        assert np.array_equal(result.values, values)
        assert np.array_equal(result.greedy, greedy)
        assert result.iterations == iterations
        assert result.residuals == residuals
        return result

    @pytest.mark.parametrize("action_dependent", [False, True])
    def test_value_iteration_equals_the_dot_loop(self, action_dependent):
        self.value_iteration_equals_the_dot_loop(self.vi_instance(action_dependent, False))

    @pytest.mark.parametrize("action_dependent", [False, True])
    def test_masked_value_iteration_equals_the_dot_loop(self, action_dependent):
        mdp = self.vi_instance(action_dependent, masked=True)
        assert any(len(row) < mdp.n_actions for row in mdp.actions_by_state)
        result = self.value_iteration_equals_the_dot_loop(mdp)
        for i, row in enumerate(mdp.actions_by_state):
            assert result.greedy[i] in row

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("action_dependent", [False, True])
    def test_value_iteration_stays_near_the_recomputing_loop(self, action_dependent, masked):
        mdp = self.vi_instance(action_dependent, masked)
        result = value_iteration(mdp, epsilon=1e-8)
        values, greedy, iterations, residuals = loop_value_iteration(
            mdp, 1e-8, precomputed=False
        )
        assert np.max(np.abs(result.values - values)) <= 1e-12
        assert np.array_equal(result.greedy, greedy)
        assert result.iterations == iterations
        assert np.allclose(result.residuals, residuals, rtol=1e-9, atol=0.0)


class TestSddp:
    def test_single_atom_chain_is_deterministic_dp(self):
        spec = SddpSpec(
            initial_state=(0.0,),
            horizon=2,
            stage_noise=(((1.0, (1.0,)),), ((1.0, (2.0,)),)),
            stage_decisions=(((0.0,), (1.0,)), ((0.0,), (1.0,))),
            gamma=0.5,
            stage_step_costs=(lambda xs, us: (us[0][0] - xs[1][0]) ** 2,) * 2,
        )
        values, greedy = sddp_recursion(spec)
        # stage 1: best u against w=2 is u=1, cost 1; stage 0: u=1 hits w=1
        assert spec.support(1) == ((1.0,),) and values[1][0] == pytest.approx(1.0)
        assert values[0][0] == pytest.approx(0.0 + 0.5 * 1.0)
        assert spec.stage_decisions[0][greedy[0][0]] == (1.0,)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_product_tree_backward_tables(self, seed):
        spec = random_sddp(rng_from_seed(600 + seed), horizon=3, n_atoms=2, gamma=0.5)
        values, _ = sddp_recursion(spec)
        tree, cost, cls = sddp_to_product_tree(spec)
        assert len(tree.leaves()) == 8
        tables = backward_tables(tree, cost, cls)
        assert tables.root_value == pytest.approx(values[0][0], abs=1e-9)

    def test_matches_mdp_backward_induction(self):
        spec = random_sddp(rng_from_seed(61), horizon=3, gamma=0.9)
        root = sddp_recursion(spec)[0][0][0]
        mdp, start = sddp_to_mdp(spec)
        values, _ = mdp_backward_induction(mdp, horizon=3)
        assert values[0][start] == pytest.approx(root, abs=1e-9)

    def test_truncation_error_against_the_fixed_point(self):
        spec = random_sddp(rng_from_seed(62), horizon=6, gamma=0.5)
        root = sddp_recursion(spec)[0][0][0]
        mdp, start = sddp_to_mdp(spec)
        fixed = value_iteration(mdp, epsilon=1e-10)
        tail_bound = 0.5**6 * mdp.bound_K / (1.0 - 0.5)
        assert abs(root - fixed.values[start]) <= (
            tail_bound + 1e-8
        )

    def test_negative_discount_recursion_bounds_the_tree_optimum(self):
        """With gamma < 0 the min-form recursion is only an upper bound.

        The shifted value at odd stages is a maximum (dividing by a negative
        gamma^t flips the direction), so the stagewise recursion and the MDP
        induction still agree with each other but sit above the joint
        optimum solved on the product tree.
        """
        spec = random_sddp(rng_from_seed(8002), horizon=3, n_atoms=2, gamma=-0.5)
        root = sddp_recursion(spec)[0][0][0]
        mdp, start = sddp_to_mdp(spec)
        values, _ = mdp_backward_induction(mdp, horizon=3)
        assert values[0][start] == pytest.approx(root, abs=1e-9)
        tree, cost, cls = sddp_to_product_tree(spec)
        tables = backward_tables(tree, cost, cls)
        assert root >= tables.root_value - 1e-12
        assert root - tables.root_value > 0.01

    @staticmethod
    def horizon_zero_spec():
        return SddpSpec(
            initial_state=(0.5, -1.0),
            horizon=0,
            stage_noise=(),
            stage_decisions=(),
            gamma=0.5,
            stage_step_costs=(),
        )

    def test_horizon_zero_unrolls_to_the_root_alone(self):
        spec = self.horizon_zero_spec()
        tree, cost, cls = sddp_to_product_tree(spec)
        assert tree.nodes == (Node(0, 0, None, 1.0, (0.5, -1.0)),)
        assert (tree.horizon, tree.obs_dim, cost.stage_costs) == (0, 2, ())
        assert (cls.feasible, cls.decision_dim) == ({0: ((),)}, 0)
        root = backward_tables(tree, cost, cls).root_value
        assert (type(root), root) == (float, 0.0)
        values, greedy = sddp_recursion(spec)
        assert [v.tolist() for v in values] == [[0.0]] and greedy == []

    def test_horizon_zero_has_no_mdp(self):
        with pytest.raises(MultistageError, match="horizon 0"):
            sddp_to_mdp(self.horizon_zero_spec())

    def test_an_empty_decision_grid_is_rejected_at_construction(self):
        with pytest.raises(InputFormatError, match="stage 1 has an empty decision grid"):
            SddpSpec(
                initial_state=(0.0,),
                horizon=2,
                stage_noise=(((1.0, (1.0,)),),) * 2,
                stage_decisions=(((0.0,),), ()),
                gamma=0.5,
                stage_step_costs=(lambda xs, us: 0.0,) * 2,
            )

    def test_discount_monotonicity_in_the_horizon(self):
        rng = rng_from_seed(63)
        mdp = random_mdp(rng, gamma=0.5, nonnegative=True)
        previous = None
        for horizon in range(1, 6):
            values, _ = mdp_backward_induction(mdp, horizon=horizon)
            if previous is not None:
                assert np.all(values[0] >= previous - 1e-12)
            previous = values[0]


def stagewise_payload(seed: int, variant: str) -> dict:
    """A ``random_sddp`` payload with a stationary ``cost``, per-stage
    ``stage_costs`` or 2-dimensional states."""
    rng = rng_from_seed(seed)
    payload = document(random_sddp(rng, horizon=3, n_atoms=3, n_decisions=3, gamma=0.7))
    terms = payload["cost"]["poly"]["terms"]
    terms.append({"coef": 0.2, "vars": [["u", 0, 4], ["x", 0, -2]]})
    if variant == "stage_costs":
        payload["stage_costs"] = [
            {"poly": {"terms": [
                {"coef": float(rng.uniform(0.5, 2.0)) * t["coef"], "vars": t["vars"]}
                for t in terms
            ]}}
            for _ in range(3)
        ]
        del payload["cost"]
    elif variant == "2d":
        payload["initial_state"].append(float(rng.uniform(0.5, 1.0)))
        for atoms in payload["stage_noise"]:
            for atom in atoms:
                atom["value"].append(float(rng.uniform(0.5, 1.0)))
        terms.append({"coef": -0.3, "vars": [["x", 1, 1], ["w", 1, 3], ["u", 0, 1]]})
        terms.append({"coef": 0.1, "vars": [["w", 0, 1], ["x", 1, -1]]})
    return payload


def per_entry(spec: SddpSpec) -> SddpSpec:
    """The same problem with every step cost a plain callable, solved entry by entry."""

    def plain(c):
        return lambda xs, us: c(xs, us)

    return replace(spec, stage_step_costs=tuple(plain(c) for c in spec.stage_step_costs))


@pytest.mark.parametrize("kind", ["raw", "poly"])
@pytest.mark.parametrize("seed", range(3))
def test_sddp_to_mdp_cost_array_equals_the_entry_loop(kind, seed):
    spec = random_sddp(rng_from_seed(70 + seed), horizon=3, n_atoms=3, n_decisions=3, gamma=0.8)
    if kind == "poly":
        spec = sddp_from_json(stagewise_payload(70 + seed, "cost"))
    mdp, _ = sddp_to_mdp(spec)
    loop = np.zeros(mdp.cost.shape)
    for i, x in enumerate(mdp.states):
        for j, y in enumerate(mdp.states):
            for a, u in enumerate(mdp.actions):
                loop[i, j, a] = float(spec.stage_step_costs[0]((x, y), (u,)))
    assert mdp.cost.dtype == np.float64
    assert mdp.cost.tobytes() == loop.tobytes()


class TestStagewiseCostCompiler:
    @pytest.mark.parametrize("variant", ["cost", "stage_costs", "2d"])
    @pytest.mark.parametrize("seed", range(3))
    def test_grid_path_is_bit_equal_to_the_per_entry_path(self, variant, seed):
        spec = sddp_from_json(stagewise_payload(900 + seed, variant))
        assert all(hasattr(c, "problems") for c in spec.stage_step_costs)
        values_a, greedy_a = sddp_recursion(spec)
        values_b, greedy_b = sddp_recursion(per_entry(spec))
        for level_a, level_b in zip(values_a, values_b):
            assert level_a.tobytes() == level_b.tobytes()
        assert [g.tolist() for g in greedy_a] == [g.tolist() for g in greedy_b]

    def test_table_covering_every_entry_solves_like_the_poly(self):
        payload = stagewise_payload(910, "cost")
        spec = sddp_from_json(payload)
        table = {}
        for t in range(spec.horizon):
            for x in spec.support(t):
                for w in spec.support(t + 1):
                    for u in spec.stage_decisions[t]:
                        table[(x, w, u)] = spec.stage_step_costs[t]((x, w), (u,))
        payload["cost"] = {"table": {"entries": [
            {"x": list(x), "w": list(w), "u": list(u), "value": v}
            for (x, w, u), v in table.items()
        ]}}
        values_a, greedy_a = sddp_recursion(spec)
        values_b, greedy_b = sddp_recursion(sddp_from_json(payload))
        assert [v.tolist() for v in values_a] == [v.tolist() for v in values_b]
        assert [g.tolist() for g in greedy_a] == [g.tolist() for g in greedy_b]

    def test_stage_costs_must_cover_the_horizon(self):
        payload = stagewise_payload(911, "stage_costs")
        payload["stage_costs"].pop()
        with pytest.raises(InputFormatError, match="2 stage costs cannot cover horizon 3"):
            sddp_from_json(payload)

    def test_a_stage_cost_past_the_horizon_is_rejected(self):
        payload = stagewise_payload(911, "stage_costs")
        payload["stage_costs"].append({"poly": {"terms": [{"coef": 1.0, "vars": [["x", 0, -1]]}]}})
        with pytest.raises(InputFormatError, match="^4 stage costs for horizon 3$"):
            sddp_from_json(payload)

    def test_cost_and_stage_costs_together_are_rejected(self):
        payload = stagewise_payload(911, "stage_costs")
        payload["cost"] = payload["stage_costs"][0]
        with pytest.raises(InputFormatError, match=r"needs one of: cost, stage_costs \(exactly one\)"):
            sddp_from_json(payload)


class TestJsonRoundTrips:
    def test_mdp_round_trip(self):
        mdp = random_mdp(rng_from_seed(71), action_dependent=True)
        data = mdp_to_json(mdp)
        back = mdp_from_json(data)
        assert back.validate() == []
        values_a, _ = mdp_backward_induction(mdp, horizon=2)
        values_b, _ = mdp_backward_induction(back, horizon=2)
        assert np.allclose(values_a[0], values_b[0], atol=1e-12)

    def test_sddp_round_trip_through_payload(self):
        spec = random_sddp(rng_from_seed(72), horizon=2)
        back = sddp_from_json(document(spec))
        assert back.initial_state == spec.initial_state
        assert sddp_recursion(spec)[0][0][0] == pytest.approx(
            sddp_recursion(back)[0][0][0], abs=1e-12
        )

    def test_malformed_mdp_json(self):
        with pytest.raises(InputFormatError):
            mdp_from_json({"states": [[0.0]]})

    def test_non_finite_noise_support_is_rejected(self):
        with pytest.raises(InputFormatError):
            SddpSpec(
                initial_state=(0.0,),
                horizon=1,
                stage_noise=(((1.0, (float("inf"),)),),),
                stage_decisions=(((0.0,),),),
                gamma=0.5,
                stage_step_costs=(lambda xs, us: 0.0,),
            )


def _read(read, x):
    """``read(x)`` as (dtype, shape, bytes), or the class of the exception it raised."""
    try:
        arr = read(x)
    except Exception as exc:  # the class is what is compared
        return type(exc)
    return arr.dtype, arr.shape, arr.tobytes()


def _asarray(x):
    return np.asarray(x, dtype=float)


_ENTRIES = st.one_of(
    st.integers(min_value=-(2**1000), max_value=2**1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
)


@st.composite
def _nested(draw, depth_max=3):
    """A nested list of equal lengths per level, depth 1 to 3, axes of 0 to 4."""
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=depth_max))
    flat = draw(st.lists(_ENTRIES, min_size=math.prod(shape), max_size=math.prod(shape)))

    def build(level, entries):
        if level == len(shape) - 1:
            return list(entries)
        step = len(entries) // shape[level] if shape[level] else 0
        return [build(level + 1, entries[k * step:(k + 1) * step]) for k in range(shape[level])]

    return build(0, flat)


class TestFloatArray:
    """``_float_array`` reads a decoded JSON array exactly as ``np.asarray(x,
    dtype=float)`` does: the same values, shape and exception class."""

    @given(_nested())
    def test_nested_lists_read_as_numpy_reads_them(self, x):
        out = _read(dp_solvers._float_array, x)
        assert isinstance(out, tuple) and out == _read(_asarray, x)

    @given(st.recursive(_ENTRIES, lambda inner: st.lists(inner, max_size=3), max_leaves=12))
    def test_ragged_and_mixed_depth_lists_fail_as_numpy_fails(self, x):
        assert _read(dp_solvers._float_array, x) == _read(_asarray, x)

    @pytest.mark.parametrize("x, expected", [
        (["0.5", True, None], [0.5, 1.0, math.nan]),
        ([[1, 2], [3, 4.5]], [[1.0, 2.0], [3.0, 4.5]]),
    ])
    def test_leaves_convert_as_numpy_converts_them(self, x, expected):
        np.testing.assert_array_equal(dp_solvers._float_array(x), expected)

    @pytest.mark.parametrize("x, error", [
        ([[1.0], [10**400]], OverflowError),
        ([[1.0, 2.0], [3.0]], ValueError),
        ([[1.0], [[2.0]]], ValueError),
        ([[[1.0]], [2.0]], ValueError),
    ], ids=["huge-int", "ragged", "deeper-later", "deeper-first"])
    def test_faults_raise_what_numpy_raises(self, x, error):
        with pytest.raises(error):
            _asarray(x)
        with pytest.raises(error):
            dp_solvers._float_array(x)

