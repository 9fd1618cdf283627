import pytest

from multistage import (
    CostSpec,
    InfeasiblePolicyError,
    Policy,
    PolicyClass,
    brute_force_optimum,
    check_dynamic_relations,
    check_submartingale,
    expected_value,
    interchange_gap,
    interchange_monotone,
    verify_policy,
)
from multistage.generate import (
    interchange_fixture,
    random_history_blind_class,
    random_nodewise_class,
    random_tree,
    rng_from_seed,
)
from multistage.verification import MARTINGALE, NEITHER, SUBMARTINGALE
from instances import (
    branching_gap_fixture,
    chain_tree,
    enumerate_policies,
    feasible_at,
    random_instance,
)
from test_value_process import ScalarDefinitional, definitional_instance, same_float


class TestCheckSubmartingale:
    def test_constant_process_is_a_martingale(self, binary2):
        process = {n.id: 3.14 for n in binary2.nodes}
        report = check_submartingale(binary2, process)
        assert report.classification == MARTINGALE

    def test_increasing_drift_is_submartingale_only(self, binary2):
        process = {n.id: float(n.stage) for n in binary2.nodes}
        report = check_submartingale(binary2, process)
        assert report.classification == SUBMARTINGALE
        assert all(s.min_slack >= 1.0 - 1e-12 for s in report.per_stage_slack)

    def test_decreasing_drift_is_neither(self, binary2):
        process = {n.id: -float(n.stage) for n in binary2.nodes}
        report = check_submartingale(binary2, process)
        assert report.classification == NEITHER
        assert report.witness is not None

    def test_suboptimal_policy_shows_positive_slack_where_it_errs(self, recourse):
        tree, cost, cls = recourse["tree"], recourse["cost"], recourse["cls"]
        from multistage import value_process_for_policy

        _, V_proc = value_process_for_policy(
            tree, cost, cls, recourse["perturbed_policy"]
        )
        report = check_submartingale(tree, V_proc)
        assert report.classification == SUBMARTINGALE
        # the policy errs at stage 0: drift is exactly the 1.0 it gives away
        assert report.per_stage_slack[0].max_slack == pytest.approx(1.0, abs=1e-12)

    def test_depth_zero_tree_is_vacuously_martingale(self):
        tree = chain_tree([0.0])
        report = check_submartingale(tree, {0: 5.0})
        assert report.classification == MARTINGALE
        assert report.per_stage_slack == []


class TestVerifyPolicy:
    def test_backward_argmin_is_verified_optimal(self, recourse):
        tree, cost, cls = recourse["tree"], recourse["cost"], recourse["cls"]
        report = verify_policy(tree, cost, cls, recourse["optimal_policy"])
        assert report.classification == MARTINGALE
        assert report.verdict == "optimal"
        value, _ = brute_force_optimum(tree, cost, cls)
        assert expected_value(tree, cost, recourse["optimal_policy"]) == pytest.approx(
            value, abs=1e-9
        )

    def test_perturbed_policy_is_not_optimal(self, recourse):
        tree, cost, cls = recourse["tree"], recourse["cost"], recourse["cls"]
        report = verify_policy(tree, cost, cls, recourse["perturbed_policy"])
        assert report.classification == SUBMARTINGALE
        assert report.verdict == "not-optimal"
        assert report.witness["positive_drift"]

    def test_horizon_zero_minimizer_is_martingale(self):
        tree = chain_tree([1.0])
        cls = PolicyClass(
            feasible={0: ((0.0,), (1.0,))}, kind="nodewise", decision_dim=1
        )
        cost = CostSpec.general(lambda xs, us: (us[0][0] - xs[0][0]) ** 2)
        good = Policy(decisions={0: (1.0,)}, decision_dim=1)
        bad = Policy(decisions={0: (0.0,)}, decision_dim=1)
        assert verify_policy(tree, cost, cls, good).verdict == "optimal"
        assert verify_policy(tree, cost, cls, bad).verdict == "not-optimal"

    def test_history_blind_is_inconclusive(self):
        fx = branching_gap_fixture()
        policy = Policy(
            decisions={0: (0.0,), 1: (0.0,), 2: (0.0,)}, decision_dim=1
        )
        report = verify_policy(fx["tree"], fx["cost"], fx["cls"], policy)
        assert report.verdict == "inconclusive"

    def test_infeasible_policy_raises(self, recourse):
        tree, cost, cls = recourse["tree"], recourse["cost"], recourse["cls"]
        alien = Policy(decisions={0: (9.0,), 1: (9.0,), 2: (9.0,)}, decision_dim=1)
        with pytest.raises(InfeasiblePolicyError):
            verify_policy(tree, cost, cls, alien)

    @pytest.mark.parametrize("seed", range(3))
    def test_martingale_set_equals_optimal_set(self, seed):
        tree, cost, cls = random_instance(2000 + seed, max_policies=300)
        optimum, _ = brute_force_optimum(tree, cost, cls)
        from multistage import backward_tables

        tables = backward_tables(tree, cost, cls)
        martingale, optimal = set(), set()
        for k, policy in enumerate(enumerate_policies(tree, cls)):
            report = verify_policy(tree, cost, cls, policy, tables=tables)
            assert report.classification in (MARTINGALE, SUBMARTINGALE)
            if report.verdict == "optimal":
                martingale.add(k)
            if expected_value(tree, cost, policy) <= optimum + 1e-9:
                optimal.add(k)
        assert martingale == optimal
        assert martingale


class TestDynamicRelations:
    def test_nodewise_class_gives_equality_everywhere(self, recourse):
        tree, cost, cls = recourse["tree"], recourse["cost"], recourse["cls"]
        report = check_dynamic_relations(tree, cost, cls, recourse["perturbed_policy"])
        assert report.all_hold
        assert report.equality_everywhere

    def test_history_blind_fixture_has_a_strict_node(self):
        fx = branching_gap_fixture()
        policy = Policy(
            decisions={0: (0.0,), 1: (1.0,), 2: (1.0,)}, decision_dim=1
        )
        report = check_dynamic_relations(fx["tree"], fx["cost"], fx["cls"], policy)
        assert report.all_hold
        assert not report.equality_everywhere
        strict = [r for r in report.records if r.slack > 0.1]
        assert strict

    def test_chain_tree_collapses_to_scalar_bellman_identities(self):
        tree = chain_tree([0.0, 1.0, 2.0])
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(
            feasible={0: grid, 1: grid, 2: grid}, kind="nodewise", decision_dim=1
        )
        cost = CostSpec.general(
            lambda xs, us: sum((u[0] - x[0]) ** 2 for u, x in zip(us, xs))
        )
        policy = Policy(decisions={0: (0.0,), 1: (1.0,), 2: (1.0,)}, decision_dim=1)
        report = check_dynamic_relations(tree, cost, cls, policy)
        assert report.all_hold and report.equality_everywhere
        for record in report.records:
            assert record.lhs == pytest.approx(record.rhs, abs=1e-12)


class TestInterchange:
    def test_singleton_class_has_no_gap(self):
        fx = interchange_fixture()
        tree = fx["tree"]
        singleton = PolicyClass(
            feasible={0: ((0.0,),), 1: ((0.0,),), 2: ((0.0,),)},
            kind="nodewise",
            decision_dim=1,
        )
        report = interchange_gap(tree, 1, fx["objective"], singleton)
        assert report.lhs == report.rhs

    def test_nodewise_fixture_values(self):
        fx = interchange_fixture()
        report = interchange_gap(fx["tree"], 1, fx["objective"], fx["nodewise"])
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(1.0, abs=1e-12)
        assert report.gap == pytest.approx(0.0, abs=1e-12)

    def test_history_blind_fixture_values(self):
        fx = interchange_fixture()
        report = interchange_gap(fx["tree"], 1, fx["objective"], fx["history_blind"])
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(5.0, abs=1e-12)
        assert report.gap == pytest.approx(4.0, abs=1e-12)
        assert report.witness is not None

    @pytest.mark.parametrize("seed", range(40))
    def test_lower_bound_on_random_instances(self, seed):
        rng = rng_from_seed(3000 + seed)
        tree = random_tree(rng, horizon=1)
        if rng.uniform() < 0.5:
            cls = random_nodewise_class(rng, tree)
        else:
            cls = random_history_blind_class(rng, tree)
        coeffs = rng.uniform(-2.0, 2.0, size=3)

        def objective(obs_path, u):
            x = obs_path[-1][0]
            return float(coeffs[0] * u[0] ** 2 + coeffs[1] * u[0] * x + coeffs[2] * x)

        report = interchange_gap(tree, 1, objective, cls)
        assert report.gap >= -1e-12
        if cls.kind == "nodewise":
            assert report.gap == pytest.approx(0.0, abs=1e-9)


class TestInterchangeMonotone:
    def fixture(self):
        fx = interchange_fixture()
        tree = fx["tree"]

        def objective(obs_path, u):
            return u[0] + u[1]

        ids = tree.stage_nodes(1)
        f = {ids[0]: (0.0, 1.0), ids[1]: (1.0, 0.0)}
        g = {ids[0]: (1.0, 0.0), ids[1]: (0.0, 1.0)}
        met = {ids[0]: (0.0, 0.0), ids[1]: (0.0, 0.0)}
        return tree, objective, f, g, met

    def test_closed_family_with_monotone_objective(self):
        tree, objective, f, g, met = self.fixture()
        report = interchange_monotone(tree, 1, objective, [f, g, met])
        assert report.applicable
        assert report.lhs == pytest.approx(report.rhs, abs=1e-12)

    def test_lattice_of_constants(self):
        tree, objective, *_ = self.fixture()
        ids = tree.stage_nodes(1)
        consts = [
            {i: (a, b) for i in ids}
            for a, b in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        ]
        report = interchange_monotone(tree, 1, objective, consts)
        assert report.applicable
        assert report.lhs == pytest.approx(report.rhs, abs=1e-12)

    def test_missing_min_closure_is_inapplicable(self):
        tree, objective, f, g, _ = self.fixture()
        report = interchange_monotone(tree, 1, objective, [f, g])
        assert not report.applicable
        assert "minimum" in report.reason

    def test_member_undefined_at_a_stage_node_is_inapplicable(self):
        tree, objective, *_ = self.fixture()
        family = [{1: (0.0,), 2: (0.0,)}, {1: (1.0,)}]
        report = interchange_monotone(tree, 1, objective, family)
        assert not report.applicable
        assert report.reason == "member 1 is undefined at node 2"

    def test_non_monotone_objective_is_inapplicable(self):
        tree, _, f, g, met = self.fixture()

        def objective(obs_path, u):
            return -(u[0] + u[1])

        report = interchange_monotone(tree, 1, objective, [f, g, met])
        assert not report.applicable
        assert "monotone" in report.reason


class TestSubmartingaleSweep:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_feasible_policy_yields_submartingales(self, seed):
        tree, cost, cls = random_instance(2100 + seed, max_policies=300)
        from multistage import backward_tables, value_process_for_policy

        tables = backward_tables(tree, cost, cls)
        for policy in enumerate_policies(tree, cls):
            v_proc, V_proc = value_process_for_policy(
                tree, cost, cls, policy, tables=tables
            )
            for process in (v_proc, V_proc):
                report = check_submartingale(tree, process)
                assert report.classification in (MARTINGALE, SUBMARTINGALE)
                for s in report.per_stage_slack:
                    assert s.min_slack >= -1e-12

    def test_history_blind_value_process_can_drift_down(self):
        """Why non-decomposable verdicts stay inconclusive: the v-process of a
        feasible history-blind policy may fail the submartingale property.

        Two subtrees prefer opposite shared stage-2 choices; conditioning on
        the subtree halves the optimal tail cost, so the process drops in
        expectation from 4.5 to 0.
        """
        from multistage.scenario_tree import Node, ScenarioTree
        from multistage import value_process_for_policy

        tree = ScenarioTree(
            [
                Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
                Node(id=1, stage=1, parent=0, cond_prob=0.5, obs=(1.0,)),
                Node(id=2, stage=1, parent=0, cond_prob=0.5, obs=(2.0,)),
                Node(id=3, stage=2, parent=1, cond_prob=0.5, obs=(0.0,)),
                Node(id=4, stage=2, parent=1, cond_prob=0.5, obs=(0.5,)),
                Node(id=5, stage=2, parent=2, cond_prob=0.5, obs=(3.0,)),
                Node(id=6, stage=2, parent=2, cond_prob=0.5, obs=(3.5,)),
            ],
            horizon=2,
            obs_dim=1,
        )
        # leaves below node 1 prefer u2 = 0, leaves below node 2 prefer u2 = 1
        def objective(xs, us):
            wants = 0.0 if xs[1][0] == 1.0 else 1.0
            return 0.0 if us[2][0] == wants else 9.0

        cost = CostSpec.general(objective)
        grid = ((0.0,), (1.0,))
        cls = PolicyClass(
            feasible={i: grid for i in range(7)}, kind="history_blind", decision_dim=1
        )
        policy = Policy(decisions={i: (0.0,) for i in range(7)}, decision_dim=1)
        v_proc, _ = value_process_for_policy(tree, cost, cls, policy)
        assert v_proc[0] == pytest.approx(4.5, abs=1e-12)
        assert v_proc[1] == pytest.approx(0.0, abs=1e-12)
        assert v_proc[2] == pytest.approx(0.0, abs=1e-12)
        report = check_submartingale(tree, v_proc)
        assert report.classification == NEITHER


class TestDynamicRelationsDefinitional:
    """The report's values against the scalar tail enumeration, bit for bit."""

    @staticmethod
    def reference_records(tree, cls, ref, policy):
        out = []
        for n in tree.nodes:
            kids = tree.children(n.id)
            if not kids:
                continue
            head_full = policy.decision_paths(tree)[n.id]
            head = head_full[:-1]
            probs = [tree.nodes[c].cond_prob for c in kids]
            rhs_V = min(
                sum(p * ref.V(c, head + (u,)) for p, c in zip(probs, kids))
                for u in feasible_at(cls, tree, n.id)
            )
            out.append((ref.V(n.id, head), rhs_V))
            rhs_v = 0.0
            for p, c in zip(probs, kids):
                rhs_v += p * min(ref.v(c, head_full + (u,)) for u in feasible_at(cls, tree, c))
            out.append((ref.v(n.id, head_full), rhs_v))
        return out

    @pytest.mark.parametrize("seed", range(16))
    def test_records_equal_the_scalar_reference(self, seed):
        tree, cost, cls, policy = definitional_instance(seed)
        report = check_dynamic_relations(tree, cost, cls, policy)
        expected = self.reference_records(tree, cls, ScalarDefinitional(tree, cost, cls), policy)
        assert len(report.records) == len(expected)
        for record, (lhs, rhs) in zip(report.records, expected):
            assert same_float(record.lhs, lhs) and same_float(record.rhs, rhs)

    @pytest.mark.parametrize("kind", ["nodewise", "history_blind"])
    def test_never_reads_the_backward_recursion(self, monkeypatch, kind):
        import multistage.value_process as vp

        tree, cost, cls = random_instance(6, max_policies=400, kind=kind)
        policy = next(iter(enumerate_policies(tree, cls)))
        expected = check_dynamic_relations(tree, cost, cls, policy).to_json()

        def refuse(*args, **kwargs):
            raise AssertionError("dynamic relations must not call backward_tables")

        monkeypatch.setattr(vp, "backward_tables", refuse)
        assert check_dynamic_relations(tree, cost, cls, policy).to_json() == expected
