import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistage import (
    CostSpec,
    DecomposableClassRequiredError,
    EnumerationCapError,
    MultistageError,
    Policy,
    PolicyClass,
    backward_tables,
    brute_force_optimum,
    compute_V,
    compute_v,
    expected_value,
    greedy_policy_from_tables,
    tail_conditional_value,
    value_process_for_policy,
)
from multistage import costs
from multistage.costs import cost_from_json
from multistage.generate import (
    random_history_blind_class,
    random_nodewise_class,
    random_tree,
    rng_from_seed,
)
from multistage.policy import DEFAULT_ENUMERATION_CAP
from multistage.scenario_tree import Node, ScenarioTree, path, unconditional_probability
from multistage.value_process import _Definitional, holder_table_violation
from multistage.verification import check_dynamic_relations
from instances import (
    branching_gap_fixture,
    chain_tree,
    empirical_holder_constant,
    enumerate_policies,
    essential_infimum,
    feasible_at,
    policy_from_indices,
    random_additive_cost,
    random_general_cost,
    random_instance,
)


def sum_cost():
    return CostSpec.general(lambda xs, us: float(sum(u[0] for u in us)))


class TestEssentialInfimum:
    def test_singleton_family(self):
        f = {0: 1.0, 1: -2.0}
        assert essential_infimum([f]) == f

    def test_pointwise_minimum(self):
        out = essential_infimum([{0: 1.0, 1: 4.0}, {0: 3.0, 1: 2.0}])
        assert out == {0: 1.0, 1: 2.0}

    def test_defining_properties(self):
        family = [{0: 1.0, 1: 4.0}, {0: 3.0, 1: 2.0}, {0: 2.0, 1: 2.0}]
        inf = essential_infimum(family)
        for f in family:
            assert all(inf[k] <= f[k] for k in inf)
        lower_bound = {0: 0.5, 1: 1.5}
        assert all(lower_bound[k] <= inf[k] for k in inf)

    @given(
        rows=st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100)),
            min_size=1,
            max_size=50,
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fold_order_independence(self, rows, seed):
        import random

        family = [{0: r[0], 1: r[1], 2: r[2]} for r in rows]
        direct = essential_infimum(family)
        shuffled = list(family)
        random.Random(seed).shuffle(shuffled)
        folded = shuffled[0]
        for f in shuffled[1:]:
            folded = {k: min(folded[k], f[k]) for k in folded}
        assert folded == direct

    def test_empty_family_is_an_error(self):
        with pytest.raises(MultistageError):
            essential_infimum([])


class TestTailConditionalValue:
    def test_terminal_stage_is_the_raw_objective(self):
        tree = chain_tree([0.0, 1.0])
        cost = sum_cost()
        value = tail_conditional_value(tree, cost, 1, ((2.0,), (3.0,)), {})
        assert value == 5.0

    def test_deterministic_chain_composes(self):
        tree = chain_tree([0.0, 1.0, 2.0])
        cost = sum_cost()
        value = tail_conditional_value(tree, cost, 0, ((1.0,),), {1: (2.0,), 2: (4.0,)})
        assert value == 7.0

    def test_two_leaf_weighted_sum_by_hand(self):
        tree = ScenarioTree(
            [
                Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
                Node(id=1, stage=1, parent=0, cond_prob=0.4, obs=(1.0,)),
                Node(id=2, stage=1, parent=0, cond_prob=0.6, obs=(2.0,)),
            ],
            horizon=1,
            obs_dim=1,
        )
        cost = sum_cost()
        # 0.4 * (2 + 3) + 0.6 * (2 + 4) = 5.6
        value = tail_conditional_value(tree, cost, 0, ((2.0,),), {1: (3.0,), 2: (4.0,)})
        assert value == pytest.approx(5.6, abs=1e-12)


class TestComputeV:
    def test_terminal_stage_needs_no_tail(self):
        tree = chain_tree([0.0, 1.0])
        cls = PolicyClass(
            feasible={0: ((0.0,),), 1: ((0.0,), (1.0,))}, kind="nodewise", decision_dim=1
        )
        cost = sum_cost()
        assert compute_v(tree, cost, cls, 1, ((2.0,), (9.0,))) == 11.0

    def test_singleton_grids_leave_nothing_to_optimize(self, binary2):
        cls = PolicyClass(
            feasible={n.id: ((0.5,),) for n in binary2.nodes},
            kind="nodewise",
            decision_dim=1,
        )
        cost = sum_cost()
        value = compute_v(binary2, cost, cls, 0, ((0.5,),))
        assert value == pytest.approx(1.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_tail_enumeration(self, seed, binary2):
        rng = rng_from_seed(200 + seed)
        cls = random_nodewise_class(rng, binary2, max_choices=2)
        cost = random_general_cost(rng, binary2)
        head = (cls.feasible[0][0],)
        # independent oracle: enumerate raw assignments over the descendants
        descendants = [n.id for n in binary2.nodes if n.id != 0]
        best = None
        for combo in itertools.product(*(cls.feasible[i] for i in descendants)):
            tail = dict(zip(descendants, combo))
            total = 0.0
            for leaf in binary2.leaves():
                prob = 1.0
                decisions = list(head)
                for nid in binary2.path_nodes(leaf)[1:]:
                    prob *= binary2.nodes[nid].cond_prob
                    decisions.append(tail[nid])
                total += prob * cost.evaluate(path(binary2, leaf), decisions)
            best = total if best is None else min(best, total)
        assert compute_v(binary2, cost, cls, 0, head) == pytest.approx(best, abs=1e-12)


class TestComputeBigV:
    def test_singleton_stage_grid_forces_the_decision(self):
        tree = chain_tree([0.0, 1.0])
        cls = PolicyClass(
            feasible={0: ((3.0,),), 1: ((4.0,),)}, kind="nodewise", decision_dim=1
        )
        cost = sum_cost()
        assert compute_V(tree, cost, cls, 0, ()) == 7.0

    def test_horizon_zero_is_a_plain_grid_minimum(self):
        tree = chain_tree([1.0])
        cls = PolicyClass(
            feasible={0: ((-1.0,), (0.0,), (2.0,))}, kind="nodewise", decision_dim=1
        )
        cost = CostSpec.general(lambda xs, us: (us[0][0] - xs[0][0]) ** 2)
        assert compute_V(tree, cost, cls, 0, ()) == 1.0

    def test_two_stage_recourse_matches_two_level_minimization(self, recourse):
        tree, cost, cls = recourse["tree"], recourse["cost"], recourse["cls"]
        # independent oracle: explicit min over u0 of weighted min over u1
        best = None
        for u0 in cls.feasible[0]:
            total = 0.0
            for leaf in (1, 2):
                prob = tree.nodes[leaf].cond_prob
                total += prob * min(
                    cost.evaluate(path(tree, leaf), (u0, u1))
                    for u1 in cls.feasible[leaf]
                )
            best = total if best is None else min(best, total)
        assert best == pytest.approx(0.6, abs=1e-12)
        assert compute_V(tree, cost, cls, 0, ()) == pytest.approx(0.6, abs=1e-12)


class TestBackwardTables:
    def test_chain_tree_reduces_to_scalar_minimization(self):
        tree = chain_tree([0.0, 1.0, 2.0])
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(
            feasible={0: grid, 1: grid, 2: grid}, kind="nodewise", decision_dim=1
        )
        cost = CostSpec.general(
            lambda xs, us: sum((u[0] - x[0]) ** 2 for u, x in zip(us, xs))
        )
        tables = backward_tables(tree, cost, cls)
        assert tables.root_value == pytest.approx(1.0, abs=1e-12)
        policy = greedy_policy_from_tables(tree, cls, tables)
        assert policy.decisions == {0: (0.0,), 1: (1.0,), 2: (1.0,)}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_instances(self, seed):
        tree, cost, cls = random_instance(seed, max_policies=800)
        tables = backward_tables(tree, cost, cls)
        value, argmin = brute_force_optimum(tree, cost, cls)
        assert tables.root_value == pytest.approx(value, abs=1e-9)
        greedy = greedy_policy_from_tables(tree, cls, tables)
        assert expected_value(tree, cost, greedy) == pytest.approx(value, abs=1e-9)

    def test_gamma_zero_decouples_to_single_stage_minima(self):
        tree = chain_tree([0.0, 1.0, 2.0])
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(
            feasible={0: grid, 1: grid, 2: grid}, kind="nodewise", decision_dim=1
        )

        def c1(xw, uw):
            return (uw[-1][0] - 1.0) ** 2

        def c2(xw, uw):
            return (uw[-1][0] - 5.0) ** 2

        cost = CostSpec.additive(stage_costs=(c1, c2), gamma=0.0, lag=1)
        tables = backward_tables(tree, cost, cls)
        single_stage = min((u[0] - 1.0) ** 2 for u in grid)
        assert tables.root_value == pytest.approx(single_stage, abs=1e-12)

    def test_negative_discount(self):
        tree = chain_tree([0.0, 1.0, 2.0])
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(
            feasible={0: grid, 1: grid, 2: grid}, kind="nodewise", decision_dim=1
        )

        def c(xw, uw):
            return uw[-1][0] * xw[-1][0]

        cost = CostSpec.additive(stage_costs=(c, c), gamma=-0.5, lag=1)
        tables = backward_tables(tree, cost, cls)
        # v = u0 * x1 - 0.5 * u1 * x2 = u0 - u1; minimum -1 at u0=0, u1=1
        assert tables.root_value == pytest.approx(-1.0, abs=1e-12)

    def test_refuses_history_blind_classes(self):
        fx = branching_gap_fixture()
        with pytest.raises(DecomposableClassRequiredError):
            backward_tables(fx["tree"], fx["cost"], fx["cls"])

    def test_terminal_v_equals_raw_objective(self, binary2, binary2_class):
        cost = random_general_cost(rng_from_seed(42), binary2)
        tables = backward_tables(binary2, cost, binary2_class)
        for leaf in binary2.leaves():
            for hist in itertools.product(*tables.axes[leaf]):
                value = tables.v[leaf][tables.index(leaf, hist)]
                assert value == pytest.approx(
                    cost.evaluate(path(binary2, leaf), hist), abs=1e-12
                )

    def test_monotone_refinement_identity(self, binary2, binary2_class):
        cost = random_general_cost(rng_from_seed(43), binary2)
        tables = backward_tables(binary2, cost, binary2_class)
        for n in binary2.nodes:
            grid = binary2_class.feasible[n.id]
            for head in itertools.product(*tables.axes[n.id][:-1]):
                value = tables.V[n.id][tables.index(n.id, head)]
                assert value == min(
                    tables.v[n.id][tables.index(n.id, head + (u,))] for u in grid
                )


def dict_backward_tables(tree, cost, cls):
    """Reference recursion on dict tables keyed by grid decision histories.

    Python floats throughout: v at the leaves by one ``evaluate`` call per
    history, parent v as ``sum`` over the children, V by ``min`` over the
    node's grid, and the greedy policy by first argmin.
    """
    v = {n.id: {} for n in tree.nodes}
    V = {n.id: {} for n in tree.nodes}
    for t in range(tree.horizon, -1, -1):
        for nid in tree.stage_nodes(t):
            grids = [cls.feasible[i] for i in tree.path_nodes(nid)]
            for hist in itertools.product(*grids):
                if t == tree.horizon:
                    v[nid][hist] = cost.evaluate(path(tree, nid), hist)
                else:
                    v[nid][hist] = sum(
                        tree.nodes[c].cond_prob * V[c][hist] for c in tree.children(nid)
                    )
            for head in itertools.product(*grids[:-1]):
                V[nid][head] = min(v[nid][head + (u,)] for u in grids[-1])
    decisions = {}

    def descend(nid, hist):
        grid = cls.feasible[nid]
        values = [v[nid][hist + (u,)] for u in grid]
        best = min(range(len(grid)), key=lambda i: (values[i], i))
        decisions[nid] = grid[best]
        for c in tree.children(nid):
            descend(c, hist + (grid[best],))

    descend(0, ())
    return v, V, decisions


def dict_instance(seed):
    rng = rng_from_seed(seed)
    tree = random_tree(rng, horizon=int(rng.integers(1, 5)))
    cls = random_nodewise_class(rng, tree, decision_dim=2, max_policies=10**9)
    kind = seed % 5
    if kind == 0:
        cost = random_general_cost(rng, tree, decision_dim=2)
    elif kind in (1, 2, 3):
        cost = random_additive_cost(rng, tree.horizon, lag=kind - 1, decision_dim=2)
    else:
        cost = cost_from_json({"form": "general", "builtin": "quadratic_tracking"})
    return tree, cost, cls


class TestArrayTablesMatchDictRecursion:
    @pytest.mark.parametrize("seed", range(15))
    def test_bitwise_equal_tables_and_greedy_policy(self, seed):
        tree, cost, cls = dict_instance(seed)
        tables = backward_tables(tree, cost, cls)
        v_ref, V_ref, greedy_ref = dict_backward_tables(tree, cost, cls)
        for n in tree.nodes:
            v_dict = np.array(list(v_ref[n.id].values()))
            V_dict = np.array(list(V_ref[n.id].values()))
            assert tables.v[n.id].ravel().tobytes() == v_dict.tobytes()
            assert tables.V[n.id].ravel().tobytes() == V_dict.tobytes()
            for hist, value in v_ref[n.id].items():
                assert tables.v[n.id][tables.index(n.id, hist)] == value
        assert greedy_policy_from_tables(tree, cls, tables).decisions == greedy_ref

    def test_signed_zero_minimum_keeps_the_first_entry(self):
        tree = chain_tree([0.0])
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(feasible={0: grid}, kind="nodewise", decision_dim=1)
        # v = +0.0 at u = 0 and -0.0 at u = 1: min() keeps the first
        cost = CostSpec.general(lambda xs, us: -0.0 if us[0][0] else 0.0)
        tables = backward_tables(tree, cost, cls)
        assert math.copysign(1.0, tables.root_value) == 1.0
        assert greedy_policy_from_tables(tree, cls, tables).decisions == {0: (0.0,)}

    @pytest.mark.parametrize("seed", range(15))
    def test_one_leaf_per_batch_gives_the_same_tables(self, monkeypatch, seed):
        tree, cost, cls = dict_instance(seed)
        batched = backward_tables(tree, cost, cls)
        monkeypatch.setattr(costs, "LEAF_BATCH_ENTRIES", 1)
        alone = backward_tables(tree, cost, cls)
        for n in tree.nodes:
            assert alone.v[n.id].tobytes() == batched.v[n.id].tobytes()
            assert alone.V[n.id].tobytes() == batched.V[n.id].tobytes()

    def test_signed_zero_leaf_minima_in_one_batch(self, binary2, binary2_class):
        # leaves with a positive observation read (+0.0, -0.0), the others (-0.0, +0.0)
        def objective(xs, us):
            first = us[-1][0] == 0.0
            return (0.0 if first else -0.0) if xs[-1][0] > 0 else (-0.0 if first else 0.0)

        tables = backward_tables(binary2, CostSpec.general(objective), binary2_class)
        for leaf in binary2.leaves():
            want = 1.0 if binary2.nodes[leaf].obs[0] > 0 else -1.0
            signs = np.copysign(1.0, tables.V[leaf])
            assert (signs == want).all()

    def test_index_rejects_histories_off_the_grid(self, binary2, binary2_class):
        cost = random_general_cost(rng_from_seed(42), binary2)
        tables = backward_tables(binary2, cost, binary2_class)
        assert tables.index(3, ((1.0,), (0.0,), (1.0,))) == (1, 0, 1)
        with pytest.raises(MultistageError):
            tables.index(3, ((0.5,), (0.0,), (1.0,)))
        with pytest.raises(MultistageError):
            tables.index(1, ((0.0,), (0.0,), (0.0,)))


class TestBruteForce:
    def test_single_policy_class(self):
        tree = chain_tree([0.0, 1.0])
        cls = PolicyClass(
            feasible={0: ((2.0,),), 1: ((3.0,),)}, kind="nodewise", decision_dim=1
        )
        cost = sum_cost()
        value, policy = brute_force_optimum(tree, cost, cls)
        assert value == 5.0
        assert policy.decisions == {0: (2.0,), 1: (3.0,)}

    def test_horizon_zero_grid_minimum(self):
        tree = chain_tree([1.0])
        cls = PolicyClass(
            feasible={0: ((-1.0,), (0.0,), (2.0,))}, kind="nodewise", decision_dim=1
        )
        cost = CostSpec.general(lambda xs, us: (us[0][0] - xs[0][0]) ** 2)
        value, policy = brute_force_optimum(tree, cost, cls)
        assert value == 1.0
        assert policy.decisions[0] == (0.0,)  # first minimizer wins the tie

    def test_history_blind_is_never_better(self):
        fx = branching_gap_fixture()
        tree, cost = fx["tree"], fx["cost"]
        blind_value, _ = brute_force_optimum(tree, cost, fx["cls"])
        nodewise_value, _ = brute_force_optimum(tree, cost, fx["nodewise_cls"])
        assert blind_value >= nodewise_value - 1e-12
        assert blind_value - nodewise_value == pytest.approx(4.0, abs=1e-12)

    def test_agrees_with_direct_expected_value_scan(self, binary2):
        rng = rng_from_seed(77)
        cls = random_nodewise_class(rng, binary2, max_choices=2)
        cost = random_general_cost(rng, binary2)
        values = [expected_value(binary2, cost, p) for p in enumerate_policies(binary2, cls)]
        value, _ = brute_force_optimum(binary2, cost, cls)
        assert value == pytest.approx(min(values), abs=1e-12)

    def test_never_reads_the_backward_recursion(self, monkeypatch):
        import multistage.value_process as vp

        tree, cost, cls = random_instance(3, max_policies=800)
        expected = brute_force_optimum(tree, cost, cls)

        def refuse(*args, **kwargs):
            raise AssertionError("brute force must not call backward_tables")

        monkeypatch.setattr(vp, "backward_tables", refuse)
        value, policy = vp.brute_force_optimum(tree, cost, cls)
        assert value == expected[0]
        assert policy.decisions == expected[1].decisions


def loop_brute_force(tree, cost, cls):
    """Reference oracle: one Python sum per policy, policies in enumeration order.

    Per leaf, the objective on its path grid product (one ``evaluate_grid``
    call) and its unconditional probability; per policy, the sum over leaves
    in leaf order of prob * the leaf's entry at the policy, from 0.0. The
    first strict minimum is kept.
    """
    slot_of, grids = cls.slots(tree)
    caches = []
    for leaf in tree.leaves():
        positions = [slot_of[i] for i in tree.path_nodes(leaf)]
        values = cost.evaluate_grid(path(tree, leaf), [grids[p] for p in positions])
        caches.append((unconditional_probability(tree, leaf), positions, values))
    best_value = best_indices = None
    for indices in itertools.product(*(range(len(g)) for g in grids)):
        total = 0.0
        for prob, positions, values in caches:
            total += prob * values[tuple(indices[p] for p in positions)]
        if best_value is None or total < best_value:
            best_value, best_indices = total, indices
    return best_value, policy_from_indices(tree, cls, best_indices)


def table_cost_for(rng, tree, cls):
    """A lookup table with one random entry per leaf path and slot-grid history."""
    slot_of, grids = cls.slots(tree)
    entries = []
    for leaf in tree.leaves():
        nids = tree.path_nodes(leaf)
        xs = [list(tree.nodes[i].obs) for i in nids]
        for hist in itertools.product(*(grids[slot_of[i]] for i in nids)):
            entries.append({"x": xs, "u": [list(u) for u in hist],
                            "value": float(rng.uniform(-1.0, 3.0))})
    return cost_from_json({"form": "general", "table": {"entries": entries}})


def oracle_instance(seed):
    """Seeded instance of either class kind; general, additive, table or raw-callable cost."""
    kind = "nodewise" if seed % 2 == 0 else "history_blind"
    cost_kind = ("general", "additive", "table", "callable")[seed // 2 % 4]
    tree, cost, cls = random_instance(
        4000 + seed, max_policies=2000, kind=kind, additive=cost_kind == "additive"
    )
    if cost_kind == "table":
        cost = table_cost_for(rng_from_seed(seed), tree, cls)
    elif cost_kind == "callable":
        compiled = cost
        cost = CostSpec.general(lambda xs, us: compiled.evaluate(xs, us))
    return tree, cost, cls


class TestBruteForceMatchesPolicyLoop:
    @pytest.mark.parametrize("seed", range(24))
    def test_bitwise_equal_value_and_same_policy(self, seed):
        tree, cost, cls = oracle_instance(seed)
        value, policy = brute_force_optimum(tree, cost, cls)
        ref_value, ref_policy = loop_brute_force(tree, cost, cls)
        assert float.hex(value) == float.hex(float(ref_value))
        assert policy.decisions == ref_policy.decisions

    def test_root_tie_goes_to_the_first_policy(self, binary2):
        grid = ((1.0,), (0.0,), (-1.0,))
        cls = PolicyClass(
            feasible={n.id: grid for n in binary2.nodes}, kind="nodewise", decision_dim=1
        )
        # the root decision is free, the tails tie between u and -u
        cost = CostSpec.general(lambda xs, us: float(sum(u[0] ** 2 for u in us[1:])))
        value, policy = brute_force_optimum(binary2, cost, cls)
        ref_value, ref_policy = loop_brute_force(binary2, cost, cls)
        assert float.hex(value) == float.hex(float(ref_value))
        assert policy.decisions == ref_policy.decisions
        assert policy.decisions == {n.id: (1.0,) if n.id == 0 else (0.0,)
                                    for n in binary2.nodes}

    @pytest.mark.parametrize("first_sign", [1.0, -1.0])
    def test_signed_zero_tie_goes_to_the_first_policy(self, first_sign):
        tree = chain_tree([0.0, 1.0])
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(feasible={0: grid, 1: grid}, kind="nodewise", decision_dim=1)
        # every policy costs a zero; the sign flips with each decision
        cost = CostSpec.general(
            lambda xs, us: math.copysign(0.0, first_sign * (-1.0) ** sum(u[0] for u in us))
        )
        value, policy = brute_force_optimum(tree, cost, cls)
        ref_value, ref_policy = loop_brute_force(tree, cost, cls)
        assert float.hex(value) == float.hex(float(ref_value))
        assert policy.decisions == ref_policy.decisions == {0: (0.0,), 1: (0.0,)}


def large_oracle_instance(seed):
    """Nodewise instance with 10^5 to 10^6 policies: full grids of up to 3 choices."""
    rng = rng_from_seed(seed)
    tree = random_tree(rng, horizon=3)
    cls = random_nodewise_class(rng, tree, max_policies=10**6, fill=True)
    if seed % 2:
        cost = random_additive_cost(rng, tree.horizon)
    else:
        cost = random_general_cost(rng, tree)
    return tree, cost, cls


class TestLargeOracleInstances:
    @pytest.mark.parametrize("seed", [5002, 5007, 5013])
    def test_recursion_matches_the_oracle(self, seed):
        tree, cost, cls = large_oracle_instance(seed)
        assert 10**5 <= cls.count(tree) <= 10**6
        value, policy = brute_force_optimum(tree, cost, cls)
        tables = backward_tables(tree, cost, cls)
        assert tables.root_value == pytest.approx(value, abs=1e-9)
        assert expected_value(tree, cost, policy) == pytest.approx(value, abs=1e-9)
        greedy = greedy_policy_from_tables(tree, cls, tables)
        assert expected_value(tree, cost, greedy) == pytest.approx(value, abs=1e-9)


class TestValueProcess:
    def test_optimal_policy_reaches_the_optimum_at_the_root(self, recourse):
        tree, cost, cls = recourse["tree"], recourse["cost"], recourse["cls"]
        v_proc, V_proc = value_process_for_policy(
            tree, cost, cls, recourse["optimal_policy"]
        )
        assert V_proc[0] == pytest.approx(0.6, abs=1e-12)

    def test_terminal_values_are_the_raw_objective(self, recourse):
        tree, cost, cls = recourse["tree"], recourse["cost"], recourse["cls"]
        policy = recourse["perturbed_policy"]
        v_proc, _ = value_process_for_policy(tree, cost, cls, policy)
        for leaf in tree.leaves():
            raw = cost.evaluate(path(tree, leaf), policy.decision_path(tree, leaf))
            assert v_proc[leaf] == pytest.approx(raw, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_table_route_matches_definitional_route(self, seed, binary2):
        rng = rng_from_seed(300 + seed)
        cls = random_nodewise_class(rng, binary2, max_choices=2)
        cost = random_general_cost(rng, binary2)
        policy = next(iter_policies(binary2, cls, skip=seed))
        v_proc, V_proc = value_process_for_policy(binary2, cost, cls, policy)
        for n in binary2.nodes:
            hist = policy.decision_path(binary2, n.id)
            assert v_proc[n.id] == pytest.approx(
                compute_v(binary2, cost, cls, n.id, hist), abs=1e-9
            )
            assert V_proc[n.id] == pytest.approx(
                compute_V(binary2, cost, cls, n.id, hist[:-1]), abs=1e-9
            )


def iter_policies(tree, cls, skip=0):
    policies = list(enumerate_policies(tree, cls))
    return iter(policies[skip % len(policies):])


class TestTheoremInequality:
    @pytest.mark.parametrize("kind", ["nodewise", "history_blind"])
    @pytest.mark.parametrize("seed", range(3))
    def test_v_dominates_expected_V(self, kind, seed):
        tree, cost, cls = random_instance(
            1000 + seed, max_policies=200, horizon=2, kind=kind
        )
        for n in tree.nodes:
            if not tree.children(n.id):
                continue
            kids = tree.children(n.id)
            for head in itertools.product(
                *(feasible_at(cls, tree, i) for i in tree.path_nodes(n.id))
            ):
                lhs = compute_v(tree, cost, cls, n.id, head)
                rhs = sum(
                    tree.nodes[c].cond_prob * compute_V(tree, cost, cls, c, head)
                    for c in kids
                )
                assert lhs >= rhs - 1e-12
                if kind == "nodewise":
                    assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_history_blind_strict_gap_on_crafted_fixture(self):
        fx = branching_gap_fixture()
        tree, cost, cls = fx["tree"], fx["cost"], fx["cls"]
        head = ((0.0,),)
        lhs = compute_v(tree, cost, cls, 0, head)
        rhs = sum(
            tree.nodes[c].cond_prob * compute_V(tree, cost, cls, c, head)
            for c in tree.children(0)
        )
        assert lhs - rhs == pytest.approx(4.0, abs=1e-12)
        assert lhs - rhs > 0.1


class TestHolderPreservation:
    def test_tables_inherit_the_cost_bound(self, binary2):
        rng = rng_from_seed(55)
        cls = random_nodewise_class(rng, binary2, max_choices=3)
        cost = random_general_cost(rng, binary2)
        from multistage import verify_holder

        delta = 10.0
        C = empirical_holder_constant(binary2, cls, cost, alpha=1.0, delta=delta)
        assert verify_holder(binary2, cls, cost, C=C, alpha=1.0, delta=delta).ok
        tables = backward_tables(binary2, cost, cls)
        excess = holder_table_violation(binary2, tables, C=C, alpha=1.0, delta=delta)
        assert excess <= 1e-12


# -- definitional route --------------------------------------------------------


def reference_tails(tree, cls, node_id):
    """Every feasible tail below a node, enumerated one dict at a time."""
    stage = tree.node(node_id).stage
    below = sorted({i for leaf in tree.leaves_below(node_id)
                    for i in tree.path_nodes(leaf)[stage + 1:]})
    if cls.kind == "nodewise":
        for combo in itertools.product(*(cls.feasible[i] for i in below)):
            yield dict(zip(below, combo))
    else:
        stages = range(stage + 1, tree.horizon + 1)
        for combo in itertools.product(*(cls.stage_grid(tree, t) for t in stages)):
            yield {i: combo[tree.node(i).stage - stage - 1] for i in below}


class ScalarDefinitional:
    """v and V as the minimum of tail_conditional_value over every tail.

    The scalar reference for the cached route: one objective evaluation per
    (tail, leaf), tails in itertools.product order, first minimum kept.
    """

    def __init__(self, tree, cost, cls):
        self.tree, self.cost, self.cls = tree, cost, cls
        self.memo = {}

    def v(self, node_id, head):
        key = (node_id, repr(head))  # repr tells -0.0 from 0.0
        if key not in self.memo:
            best = None
            for tail in reference_tails(self.tree, self.cls, node_id):
                value = tail_conditional_value(self.tree, self.cost, node_id, head, tail)
                if best is None or value < best:
                    best = value
            self.memo[key] = best
        return self.memo[key]

    def V(self, node_id, head):
        return min(self.v(node_id, head + (u,))
                   for u in feasible_at(self.cls, self.tree, node_id))


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def definitional_instance(seed):
    """Seeded instance of either class kind, general, additive or raw-callable cost."""
    kind = "nodewise" if seed % 2 == 0 else "history_blind"
    tree, cost, cls = random_instance(
        3000 + seed, max_policies=1500, kind=kind, additive=seed % 3 == 1
    )
    if seed % 3 == 2:
        compiled = cost
        cost = CostSpec.general(lambda xs, us: compiled.evaluate(xs, us))
    grids = cls.slots(tree)[1]
    policy = policy_from_indices(
        tree, cls, [(seed + 3 * k) % len(g) for k, g in enumerate(grids)]
    )
    return tree, cost, cls, policy


def signed_zero_instance(seed, kind, form):
    """A small seeded instance whose grids hold 0.0 and -0.0 and a repeated decision.

    ``form`` is ``general`` or ``additive`` (compiled payloads), ``raw`` (the
    general payload behind a Python callable) or ``signed`` (a raw callable
    that tells -0.0 from 0.0). For odd seeds one slot's grid holds 0.0
    alone and the policy picks -0.0 there: feasible, but off the grid's
    entries, so the heads through it take uncached passes of their own.
    """
    rng = rng_from_seed(seed)
    tree = random_tree(rng, horizon=int(rng.integers(1, 4)), max_branch=2)
    if kind == "nodewise":
        cls = random_nodewise_class(rng, tree, max_choices=2, max_policies=24)
    else:
        cls = random_history_blind_class(rng, tree, max_choices=2)
    slot_of, grids = cls.slots(tree)
    zeros, repeat = (int(s) for s in rng.integers(0, len(grids), size=2))
    zero = ((0.0,), (-0.0,)) if seed % 2 == 0 else ((0.0,),)
    grids = [g + zero * (s == zeros) + g[:1] * (s == repeat) for s, g in enumerate(grids)]
    feasible = {n.id: grids[slot_of[n.id]] for n in tree.nodes}
    cls = PolicyClass(feasible=feasible, kind=kind, decision_dim=1)
    if form == "additive":
        cost = random_additive_cost(rng, horizon=tree.horizon)
    else:
        cost = random_general_cost(rng, tree)
    if form == "raw":
        compiled = cost
        cost = CostSpec.general(lambda xs, us: compiled.evaluate(xs, us))
    elif form == "signed":
        compiled = cost
        cost = CostSpec.general(lambda xs, us: compiled.evaluate(xs, us) + sum(
            (t + 1) * math.copysign(0.25, u[0]) for t, u in enumerate(us)))
    indices = [int(rng.integers(0, len(g))) for g in grids]
    policy = policy_from_indices(tree, cls, indices)
    if seed % 2:
        decisions = {n.id: (-0.0,) if slot_of[n.id] == zeros else policy.decisions[n.id]
                     for n in tree.nodes}
        policy = Policy(decisions=decisions, decision_dim=1)
    return tree, cost, cls, policy


def block_sizes(tree, cls):
    """Entries of every block the definitional route may build, from the
    root's tail product (the least cap it runs at) up: per node of stage t
    and prefix length p in t-1, t, t+1 (0 and 1 at the root), the grid sizes
    of stages p..t times the node's tail product."""
    slot_of, grids = cls.slots(tree)
    sizes = {}
    for n in tree.nodes:
        below = {slot_of[i] for leaf in tree.leaves_below(n.id)
                 for i in tree.path_nodes(leaf)[n.stage + 1:]}
        tails = math.prod(len(grids[s]) for s in below)
        nids = tree.path_nodes(n.id)
        for p in range(max(0, n.stage - 1), n.stage + 2):
            sizes[n.id, p] = math.prod(len(grids[slot_of[i]]) for i in nids[p:]) * tails
    return sorted({s for s in sizes.values() if s >= sizes[0, 1]})


def off_grid(head, k):
    """The head with entry k moved off every grid."""
    return head[:k] + (tuple(x + 0.375 for x in head[k]),) + head[k + 1:]


class TestDefinitionalRoute:
    @pytest.mark.parametrize("seed", range(16))
    def test_bitwise_equal_to_the_scalar_reference(self, seed):
        tree, cost, cls, policy = definitional_instance(seed)
        ref = ScalarDefinitional(tree, cost, cls)
        for n in tree.nodes:
            hist = policy.decision_path(tree, n.id)
            heads = [hist] + [off_grid(hist, k) for k in range(len(hist))]
            for head in heads:
                assert same_float(compute_v(tree, cost, cls, n.id, head), ref.v(n.id, head))
                assert same_float(
                    compute_V(tree, cost, cls, n.id, head[:-1]), ref.V(n.id, head[:-1])
                )
        v_proc, V_proc = value_process_for_policy(tree, cost, cls, policy)
        for n in tree.nodes:
            hist = policy.decision_path(tree, n.id)
            if cls.kind == "history_blind":
                assert same_float(v_proc[n.id], ref.v(n.id, hist))
                assert same_float(V_proc[n.id], ref.V(n.id, hist[:-1]))
        # a cap the root's tails just fit: the leaf grid arrays no longer all do
        grids = cls.slots(tree)[1]
        tails = math.prod(len(g) for g in grids[1:])
        assert same_float(compute_V(tree, cost, cls, 0, (), cap=tails), ref.V(0, ()))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["nodewise", "history_blind"]),
           form=st.sampled_from(["general", "additive", "raw", "signed"]))
    def test_blocks_equal_the_scalar_reference(self, seed, kind, form):
        tree, cost, cls, policy = signed_zero_instance(seed, kind, form)
        ref = ScalarDefinitional(tree, cost, cls)
        heads = {n.id: policy.decision_path(tree, n.id) for n in tree.nodes}
        expected = []
        for n in tree.nodes:
            kids = tree.children(n.id)
            if not kids:
                continue
            head_full, head = heads[n.id], heads[n.id][:-1]
            probs = [tree.nodes[c].cond_prob for c in kids]
            rhs_V = min(sum(p * ref.V(c, head + (u,)) for p, c in zip(probs, kids))
                        for u in feasible_at(cls, tree, n.id))
            rhs_v = 0.0
            for p, c in zip(probs, kids):
                rhs_v += p * min(ref.v(c, head_full + (u,)) for u in feasible_at(cls, tree, c))
            expected += [("V", ref.V(n.id, head), rhs_V), ("v", ref.v(n.id, head_full), rhs_v)]
        expected = [(relation, lhs.hex(), rhs.hex()) for relation, lhs, rhs in expected]
        # at each block size as the cap, some node's blocks take a longer prefix
        for cap in [DEFAULT_ENUMERATION_CAP] + block_sizes(tree, cls):
            records = check_dynamic_relations(tree, cost, cls, policy, cap=cap).records
            assert [(r.relation, r.lhs.hex(), r.rhs.hex()) for r in records] == expected
            if kind == "history_blind":
                v_proc, V_proc = value_process_for_policy(tree, cost, cls, policy, cap=cap)
                assert [v_proc[n.id].hex() for n in tree.nodes] == [
                    ref.v(n.id, heads[n.id]).hex() for n in tree.nodes]
                assert [V_proc[n.id].hex() for n in tree.nodes] == [
                    ref.V(n.id, heads[n.id][:-1]).hex() for n in tree.nodes]

    @pytest.mark.parametrize("kind", ["nodewise", "history_blind"])
    def test_one_accumulator_pass_per_node(self, monkeypatch, kind):
        accumulate = _Definitional._accumulate
        passes = []

        def counted(self, node_id, *args):
            passes.append(node_id)
            return accumulate(self, node_id, *args)

        monkeypatch.setattr(_Definitional, "_accumulate", counted)
        for seed in range(6):
            tree, cost, cls = random_instance(60 + seed, max_policies=3000, horizon=3, kind=kind)
            policy = policy_from_indices(tree, cls, [0] * len(cls.slots(tree)[1]))
            passes.clear()
            check_dynamic_relations(tree, cost, cls, policy)
            assert sorted(passes) == sorted(set(passes)) and len(passes) <= len(tree)
            if kind == "history_blind":
                passes.clear()
                value_process_for_policy(tree, cost, cls, policy)
                assert sorted(passes) == list(range(len(tree)))

    def test_leaf_arrays_past_the_cap_give_the_same_values(self):
        tree = chain_tree([0.5, -1.0, 2.0])
        grid = ((-1.0,), (0.0,), (1.0,))
        cls = PolicyClass(feasible={i: grid for i in range(3)}, kind="nodewise", decision_dim=1)
        cost = random_general_cost(rng_from_seed(8), tree)
        ref = ScalarDefinitional(tree, cost, cls)
        # the root has 9 tails; the leaf's grid product has 27 entries
        for u in grid:
            assert same_float(compute_v(tree, cost, cls, 0, (u,), cap=9), ref.v(0, (u,)))
        assert same_float(compute_V(tree, cost, cls, 0, (), cap=9), ref.V(0, ()))

    def test_each_leaf_array_is_built_once(self, monkeypatch):
        T = 4
        tree = chain_tree([0.25 * t - 1.0 for t in range(T + 1)])
        grid = ((-1.0,), (0.0,), (1.0,))
        cls = PolicyClass(
            feasible={i: grid for i in range(T + 1)}, kind="nodewise", decision_dim=1
        )
        cost = random_general_cost(rng_from_seed(4), tree)
        ref = ScalarDefinitional(tree, cost, cls)
        sizes = []
        evaluate_leaves = CostSpec.evaluate_leaves

        def counted(self, paths_list, grids_list):
            sizes.extend(math.prod(len(g) for g in grids) for grids in grids_list)
            return evaluate_leaves(self, paths_list, grids_list)

        # every leaf array, batched or alone, comes from evaluate_leaves
        monkeypatch.setattr(CostSpec, "evaluate_leaves", counted)
        assert same_float(compute_V(tree, cost, cls, 0, ()), ref.V(0, ()))
        assert sizes == [3 ** (T + 1)]
        # a head off the grids is evaluated for itself alone
        sizes.clear()
        head = off_grid(tuple((0.0,) for _ in range(T + 1)), 0)
        assert same_float(compute_v(tree, cost, cls, T, head), ref.v(T, head))
        assert sizes == [1]

    def test_leaf_arrays_are_built_once_per_shape_batch(self, monkeypatch):
        # grid sizes 1 to 3 per node: the leaves fall into several shape groups
        tree = random_tree(rng_from_seed(41), horizon=3)
        cls = random_nodewise_class(rng_from_seed(42), tree, max_policies=4000)
        cost = random_general_cost(rng_from_seed(43), tree)
        shapes = [tuple(len(cls.feasible[i]) for i in tree.path_nodes(leaf))
                  for leaf in tree.leaves()]
        assert len(set(shapes)) > 1
        calls = []
        evaluate_leaves = CostSpec.evaluate_leaves

        def counted(self, paths_list, grids_list):
            calls.append(sorted(math.prod(map(len, g)) for g in grids_list))
            return evaluate_leaves(self, paths_list, grids_list)

        monkeypatch.setattr(CostSpec, "evaluate_leaves", counted)
        value, _ = brute_force_optimum(tree, cost, cls)
        # one call per shape group, every leaf's whole grid product exactly once
        assert len(calls) == len(set(shapes))
        assert sorted(n for call in calls for n in call) == sorted(map(math.prod, shapes))
        monkeypatch.setattr(CostSpec, "evaluate_leaves", evaluate_leaves)
        assert same_float(value, loop_brute_force(tree, cost, cls)[0])

    def test_signed_zero_heads_read_their_own_sign(self):
        tree = chain_tree([0.5, -1.0, 2.0])
        cost = CostSpec.general(
            lambda xs, us: sum((t + 1) * math.copysign(1.0, u[0]) for t, u in enumerate(us))
        )
        heads = [((0.0,),), ((-0.0,),), ((0.0,), (-0.0,)), ((-0.0,), (0.0,))]
        for grid in (((0.0,), (-0.0,), (1.0,)), ((0.0,), (1.0,)), ((-0.0,), (1.0,))):
            cls = PolicyClass(
                feasible={i: grid for i in range(3)}, kind="nodewise", decision_dim=1
            )
            ref = ScalarDefinitional(tree, cost, cls)
            for head in heads:
                node = len(head) - 1
                assert same_float(compute_v(tree, cost, cls, node, head), ref.v(node, head))
            for node in (0, 1, 2):
                head = ((-0.0,),) * node
                assert same_float(compute_V(tree, cost, cls, node, head), ref.V(node, head))

    def test_never_reads_the_backward_recursion(self, monkeypatch):
        import multistage.value_process as vp

        def refuse(*args, **kwargs):
            raise AssertionError("the definitional route must not call backward_tables")

        for kind in ("nodewise", "history_blind"):
            tree, cost, cls = random_instance(5, max_policies=300, kind=kind)
            policy = next(iter_policies(tree, cls, skip=7))
            head = policy.decision_path(tree, 0)
            v, V = compute_v(tree, cost, cls, 0, head), compute_V(tree, cost, cls, 0, ())
            processes = value_process_for_policy(tree, cost, cls, policy)
            with monkeypatch.context() as m:
                m.setattr(vp, "backward_tables", refuse)
                assert vp.compute_v(tree, cost, cls, 0, head) == v
                assert vp.compute_V(tree, cost, cls, 0, ()) == V
                if kind == "history_blind":  # nodewise processes read the tables
                    assert vp.value_process_for_policy(tree, cost, cls, policy) == processes

    @pytest.mark.parametrize("kind", ["nodewise", "history_blind"])
    def test_cap_is_checked_before_any_evaluation(self, monkeypatch, kind):
        tree, cost, cls = random_instance(11, max_policies=5000, horizon=3, kind=kind)
        grids = cls.slots(tree)[1]
        tails = math.prod(len(g) for g in grids[1:])

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated before the cap check")

        monkeypatch.setattr(CostSpec, "evaluate_leaves", refuse)
        monkeypatch.setattr(CostSpec, "evaluate_grid", refuse)
        monkeypatch.setattr(CostSpec, "evaluate", refuse)
        for call in (compute_v, compute_V):
            head = ((0.0,),) if call is compute_v else ()
            with pytest.raises(EnumerationCapError) as err:
                call(tree, cost, cls, 0, head, cap=tails - 1)
            assert (err.value.count, err.value.cap) == (tails, tails - 1)
        # brute force checks the whole class against the cap
        count = cls.count(tree)
        with pytest.raises(EnumerationCapError) as err:
            brute_force_optimum(tree, cost, cls, cap=count - 1)
        assert (err.value.count, err.value.cap) == (count, count - 1)

    def test_wrong_head_length(self, binary2, binary2_class):
        cost = sum_cost()
        with pytest.raises(MultistageError, match="head history has length 1, expected 2"):
            compute_v(binary2, cost, binary2_class, 1, ((0.0,),))
        with pytest.raises(MultistageError, match="head history has length 0, expected 1"):
            compute_V(binary2, cost, binary2_class, 1, ())

    def test_empty_stage_grids(self, binary2):
        # the two stage-1 nodes share no decision, so stage 1 has no common value
        feasible = {0: ((0.0,),), 1: ((0.0,),), 2: ((1.0,),)}
        feasible.update({i: ((0.0,), (1.0,)) for i in (3, 4, 5, 6)})
        cls = PolicyClass(feasible=feasible, kind="history_blind", decision_dim=1)
        cost = sum_cost()
        with pytest.raises(MultistageError, match="empty feasible set at node 1"):
            compute_V(binary2, cost, cls, 1, ((0.0,),))
        with pytest.raises(MultistageError, match="no feasible tails below node 0"):
            compute_v(binary2, cost, cls, 0, ((0.0,),))
        with pytest.raises(MultistageError, match="^the policy class is empty$"):
            brute_force_optimum(binary2, cost, cls)
