import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multistage import (
    EnumerationCapError,
    IncompleteFunctionError,
    InputFormatError,
    Policy,
    PolicyClass,
)
from multistage.exceptions import all_numbers, require_number
from multistage.generate import random_nodewise_class, random_tree, rng_from_seed
from multistage.policy import policy_class_from_json, policy_from_json, policy_to_json
from multistage.scenario_tree import Node, ScenarioTree
from instances import (
    NotAdaptedError,
    PastingInfeasibleError,
    check_adapted,
    doob_dynkin_factorize,
    enumerate_policies,
    feasible_at,
    paste,
    policy_class_to_json,
    policy_to_leafwise,
)


def small_tree():
    """Root with two leaves at stage 1."""
    return ScenarioTree(
        [
            Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
            Node(id=1, stage=1, parent=0, cond_prob=0.5, obs=(1.0,)),
            Node(id=2, stage=1, parent=0, cond_prob=0.5, obs=(2.0,)),
        ],
        horizon=1,
        obs_dim=1,
    )


def grid_class(tree, values=(0.0, 1.0), kind="nodewise"):
    grid = tuple((v,) for v in values)
    return PolicyClass(
        feasible={n.id: grid for n in tree.nodes}, kind=kind, decision_dim=1
    )


class TestEnumeration:
    def test_nodewise_count_three_nodes(self):
        tree = small_tree()
        cls = grid_class(tree)
        policies = list(enumerate_policies(tree, cls))
        assert len(policies) == 8
        assert cls.count(tree) == 8
        seen = {tuple(sorted(p.decisions.items())) for p in policies}
        assert len(seen) == 8

    def test_history_blind_count_per_stage(self):
        tree = small_tree()
        cls = grid_class(tree, kind="history_blind")
        policies = list(enumerate_policies(tree, cls))
        assert len(policies) == 4
        for p in policies:
            assert p.decisions[1] == p.decisions[2]

    def test_binary_tree_three_choices_counted_exhaustively(self):
        tree = ScenarioTree(
            [
                Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
                Node(id=1, stage=1, parent=0, cond_prob=0.5, obs=(1.0,)),
                Node(id=2, stage=1, parent=0, cond_prob=0.5, obs=(2.0,)),
                Node(id=3, stage=2, parent=1, cond_prob=0.5, obs=(3.0,)),
                Node(id=4, stage=2, parent=1, cond_prob=0.5, obs=(4.0,)),
                Node(id=5, stage=2, parent=2, cond_prob=0.5, obs=(5.0,)),
                Node(id=6, stage=2, parent=2, cond_prob=0.5, obs=(6.0,)),
            ],
            horizon=2,
            obs_dim=1,
        )
        cls = grid_class(tree, values=(0.0, 1.0, 2.0))
        count = sum(1 for _ in enumerate_policies(tree, cls))
        assert count == 3**7 == 2187

    def test_cap_exceeded_names_the_count(self):
        tree = small_tree()
        cls = grid_class(tree)
        with pytest.raises(EnumerationCapError) as err:
            list(enumerate_policies(tree, cls, cap=7))
        assert err.value.count == 8

    def test_enumeration_order_is_lexicographic(self):
        tree = small_tree()
        cls = grid_class(tree)
        first = next(enumerate_policies(tree, cls))
        assert first.decisions == {0: (0.0,), 1: (0.0,), 2: (0.0,)}


class TestAdaptedness:
    def test_constant_table_is_adapted(self):
        tree = small_tree()
        table = {1: ((3.0,), (4.0,)), 2: ((3.0,), (4.0,))}
        assert check_adapted(tree, table)

    def test_root_disagreement_is_anticipative(self):
        tree = small_tree()
        table = {1: ((3.0,), (4.0,)), 2: ((9.0,), (4.0,))}
        assert not check_adapted(tree, table)

    def test_policy_round_trip_is_adapted(self):
        tree = random_tree(rng_from_seed(5), horizon=2)
        rng = rng_from_seed(6)
        policy = Policy(
            decisions={n.id: (float(rng.uniform(-1, 1)),) for n in tree.nodes},
            decision_dim=1,
        )
        assert check_adapted(tree, policy_to_leafwise(tree, policy))

    def test_missing_leaf_entry(self):
        tree = small_tree()
        with pytest.raises(Exception) as err:
            check_adapted(tree, {1: ((0.0,), (0.0,))})
        assert "leaf 2" in str(err.value)


class TestFactorization:
    def test_two_leaf_example(self):
        tree = small_tree()
        table = {1: ((0.0,), (5.0,)), 2: ((0.0,), (7.0,))}
        policy = doob_dynkin_factorize(tree, table)
        assert policy.decisions == {0: (0.0,), 1: (5.0,), 2: (7.0,)}

    def test_deterministic_table_gives_constant_policy(self):
        tree = small_tree()
        table = {1: ((2.0,), (2.0,)), 2: ((2.0,), (2.0,))}
        policy = doob_dynkin_factorize(tree, table)
        assert set(policy.decisions.values()) == {(2.0,)}

    @given(values=st.lists(st.floats(-5, 5), min_size=7, max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_identity(self, values):
        tree = ScenarioTree(
            [
                Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
                Node(id=1, stage=1, parent=0, cond_prob=0.5, obs=(1.0,)),
                Node(id=2, stage=1, parent=0, cond_prob=0.5, obs=(2.0,)),
                Node(id=3, stage=2, parent=1, cond_prob=0.5, obs=(3.0,)),
                Node(id=4, stage=2, parent=1, cond_prob=0.5, obs=(4.0,)),
                Node(id=5, stage=2, parent=2, cond_prob=0.5, obs=(5.0,)),
                Node(id=6, stage=2, parent=2, cond_prob=0.5, obs=(6.0,)),
            ],
            horizon=2,
            obs_dim=1,
        )
        policy = Policy(
            decisions={i: (values[i],) for i in range(7)}, decision_dim=1
        )
        back = doob_dynkin_factorize(tree, policy_to_leafwise(tree, policy))
        assert back.decisions == policy.decisions

    def test_non_adapted_names_node_and_stage(self):
        tree = small_tree()
        table = {1: ((3.0,), (4.0,)), 2: ((9.0,), (4.0,))}
        with pytest.raises(NotAdaptedError) as err:
            doob_dynkin_factorize(tree, table)
        assert err.value.node_id == 0
        assert err.value.stage == 0


class TestPaste:
    def test_full_set_returns_first_policy(self):
        tree = small_tree()
        cls = grid_class(tree)
        u1 = Policy(decisions={0: (1.0,), 1: (1.0,), 2: (1.0,)}, decision_dim=1)
        u2 = Policy(decisions={0: (0.0,), 1: (0.0,), 2: (0.0,)}, decision_dim=1)
        assert paste(tree, cls, u1, u2, {1, 2}).decisions == u1.decisions

    def test_empty_set_returns_second_policy(self):
        tree = small_tree()
        cls = grid_class(tree)
        u1 = Policy(decisions={0: (1.0,), 1: (1.0,), 2: (1.0,)}, decision_dim=1)
        u2 = Policy(decisions={0: (0.0,), 1: (0.0,), 2: (0.0,)}, decision_dim=1)
        assert paste(tree, cls, u1, u2, set()).decisions == u2.decisions

    def test_subtree_paste_is_feasible_nodewise(self):
        tree = small_tree()
        cls = grid_class(tree)
        u1 = Policy(decisions={0: (1.0,), 1: (1.0,), 2: (1.0,)}, decision_dim=1)
        u2 = Policy(decisions={0: (0.0,), 1: (0.0,), 2: (0.0,)}, decision_dim=1)
        mixed = paste(tree, cls, u1, u2, {1})
        assert mixed.decisions == {0: (0.0,), 1: (1.0,), 2: (0.0,)}
        # membership check against the Cartesian product structure
        for nid, dec in mixed.decisions.items():
            assert dec in cls.feasible[nid]

    def test_history_blind_paste_reports_infeasibility(self):
        tree = small_tree()
        cls = grid_class(tree, kind="history_blind")
        u1 = Policy(decisions={0: (1.0,), 1: (1.0,), 2: (1.0,)}, decision_dim=1)
        u2 = Policy(decisions={0: (0.0,), 1: (0.0,), 2: (0.0,)}, decision_dim=1)
        with pytest.raises(PastingInfeasibleError) as err:
            paste(tree, cls, u1, u2, {1})
        assert err.value.stage == 1
        assert err.value.policy.decisions[1] != err.value.policy.decisions[2]

    @given(
        bits1=st.lists(st.integers(0, 1), min_size=3, max_size=3),
        bits2=st.lists(st.integers(0, 1), min_size=3, max_size=3),
        subset=st.sets(st.sampled_from([1, 2])),
    )
    @settings(max_examples=60, deadline=None)
    def test_nodewise_paste_never_errors(self, bits1, bits2, subset):
        tree = small_tree()
        cls = grid_class(tree)
        u1 = Policy(decisions={i: (float(bits1[i]),) for i in range(3)}, decision_dim=1)
        u2 = Policy(decisions={i: (float(bits2[i]),) for i in range(3)}, decision_dim=1)
        pasted = paste(tree, cls, u1, u2, subset)
        assert cls.contains(tree, pasted)


def shared_core_class(rng, tree):
    """History-blind class whose stage-t nodes add values of their own to a
    shared core and list their sets in their own orders."""
    feasible = {}
    for t in range(tree.horizon + 1):
        core = [(float(v),) for v in rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 4)))]
        for nid in tree.stage_nodes(t):
            own = [(float(v),) for v in rng.uniform(2.0, 3.0, size=int(rng.integers(0, 2)))]
            grid = core + own
            feasible[nid] = tuple(grid[k] for k in rng.permutation(len(grid)))
    return PolicyClass(feasible=feasible, kind="history_blind", decision_dim=1)


class TestClassSemantics:
    """Count, enumeration, membership, feasible sets and pasting agree on
    which nodes share a decision, for both class kinds."""

    @staticmethod
    def instance(seed, kind):
        rng = rng_from_seed(seed)
        tree = random_tree(rng, horizon=int(rng.integers(1, 3)))
        if kind == "nodewise":
            return tree, random_nodewise_class(rng, tree, max_policies=600)
        return tree, shared_core_class(rng, tree)

    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["nodewise", "history_blind"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_enumeration_matches_count_membership_and_feasible_sets(self, seed, kind):
        tree, cls = self.instance(seed, kind)
        policies = list(enumerate_policies(tree, cls))
        assert len(policies) == cls.count(tree)
        assert len({tuple(sorted(p.decisions.items())) for p in policies}) == len(policies)
        assert all(cls.contains(tree, p) for p in policies)
        for n in tree.nodes:
            first_seen = list(dict.fromkeys(p.decisions[n.id] for p in policies))
            assert first_seen == list(feasible_at(cls, tree, n.id))

    @given(seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_history_blind_split_stage_is_named(self, seed, data):
        tree, cls = self.instance(seed, "history_blind")
        stages = [
            t for t in range(tree.horizon + 1)
            if len(tree.stage_nodes(t)) > 1 and len(cls.stage_grid(tree, t)) > 1
        ]
        assume(stages)
        t = data.draw(st.sampled_from(stages))
        ids = tree.stage_nodes(t)
        u1 = data.draw(st.sampled_from(list(enumerate_policies(tree, cls))))
        other = next(u for u in cls.stage_grid(tree, t) if u != u1.decisions[ids[0]])
        u2 = Policy(
            decisions={n: other if n in ids else d for n, d in u1.decisions.items()},
            decision_dim=1,
        )
        assert cls.contains(tree, u2)

        node = data.draw(st.sampled_from(ids))
        assert not cls.contains(tree, Policy({**u1.decisions, node: other}, 1))
        with pytest.raises(PastingInfeasibleError) as err:
            paste(tree, cls, u1, u2, tree.leaves_below(node))
        assert err.value.stage == t
        assert tuple(err.value.node_ids) == ids


class TestJson:
    def test_policy_round_trip(self):
        policy = Policy(decisions={0: (1.0, 2.0), 1: (0.5, -1.0)}, decision_dim=2)
        assert policy_from_json(policy_to_json(policy)) == policy

    def test_class_round_trip(self):
        tree = small_tree()
        cls = grid_class(tree, kind="history_blind")
        back = policy_class_from_json(policy_class_to_json(cls))
        assert back == cls

    def test_empty_feasible_set_rejected(self):
        with pytest.raises(InputFormatError):
            PolicyClass(feasible={0: ()}, kind="nodewise", decision_dim=1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputFormatError):
            Policy(decisions={0: (1.0, 2.0)}, decision_dim=1)

    @given(st.lists(st.one_of(
        st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=2),
        st.builds(np.float64, st.floats()), st.builds(np.int64, st.integers(-9, 9)),
        st.builds(np.bool_, st.booleans()),
    ), max_size=4))
    def test_all_numbers_is_require_number_on_every_entry(self, values):
        def accepted(value):
            try:
                require_number(value, "entry")
            except InputFormatError:
                return False
            return True

        assert all_numbers(values) == all(map(accepted, values))

    @pytest.mark.parametrize("bad", ["1.0", True, None])
    def test_a_decision_that_is_not_a_number_names_its_node(self, bad):
        decisions = {0: (np.float64(1.0),), 1: (0,), 2: (bad,)}
        with pytest.raises(InputFormatError,
                           match=f"^decision at node 2 must be a number, got {bad!r}$"):
            Policy(decisions=decisions, decision_dim=1)
        feasible = {0: ((1.0,),), 1: ((0.0,), (np.float64(2.0),)), 2: ((0.0,), (bad,))}
        with pytest.raises(InputFormatError,
                           match=f"^feasible decision at node 2 must be a number, got {bad!r}$"):
            PolicyClass(feasible=feasible, kind="nodewise", decision_dim=1)


class TestDecisionPaths:
    @staticmethod
    def tree():
        """A chain whose ids do not put the parent first: node 1 hangs below node 2."""
        return ScenarioTree(
            [
                Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
                Node(id=1, stage=2, parent=2, cond_prob=1.0, obs=(1.0,)),
                Node(id=2, stage=1, parent=0, cond_prob=1.0, obs=(2.0,)),
            ],
            horizon=2,
            obs_dim=1,
        )

    def test_every_history_extends_its_parents(self):
        tree = self.tree()
        policy = Policy(decisions={0: (0.5,), 1: (-0.0,), 2: (1.5,)}, decision_dim=1)
        paths = policy.decision_paths(tree)
        assert list(paths) == list(tree.top_down())
        assert paths == {
            n.id: tuple(policy.decisions[i] for i in tree.path_nodes(n.id)) for n in tree.nodes
        }

    def test_a_missing_decision_is_named(self):
        policy = Policy(decisions={0: (0.5,), 1: (1.0,)}, decision_dim=1)
        with pytest.raises(IncompleteFunctionError, match="no decision for node 2"):
            policy.decision_paths(self.tree())
