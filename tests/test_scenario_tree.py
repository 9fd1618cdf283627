import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistage import (
    IncompleteFunctionError,
    InputFormatError,
    Node,
    ScenarioTree,
    UnknownNodeError,
    tree_from_json,
    validate,
)
from multistage.generate import random_tree, rng_from_seed
from multistage.scenario_tree import path, unconditional_probability
from instances import chain_tree, conditional_expectation, tree_to_json


def make_tree(entries, horizon, obs_dim=1):
    nodes = [
        Node(id=i, stage=s, parent=p, cond_prob=q, obs=(o,) if obs_dim == 1 else o)
        for i, s, p, q, o in entries
    ]
    return ScenarioTree(nodes, horizon=horizon, obs_dim=obs_dim)


class TestValidate:
    def test_single_path_tree_is_clean(self):
        tree = chain_tree([0.0, 1.0, 2.0])
        assert validate(tree) == []

    def test_broken_normalization_names_parent(self):
        tree = make_tree(
            [(0, 0, None, 1.0, 0.0), (1, 1, 0, 0.5, 1.0), (2, 1, 0, 0.6, 2.0)],
            horizon=1,
        )
        problems = validate(tree)
        assert len(problems) == 1
        assert "node 0" in problems[0] and "sum" in problems[0]

    def test_leaf_at_wrong_stage(self):
        tree = make_tree(
            [
                (0, 0, None, 1.0, 0.0),
                (1, 1, 0, 0.5, 1.0),
                (2, 1, 0, 0.5, 2.0),
                (3, 2, 1, 1.0, 3.0),
            ],
            horizon=2,
        )
        problems = validate(tree)
        assert any("node 2" in p and "leaf at stage 1" in p for p in problems)

    def test_zero_probability_branch_rejected(self):
        tree = make_tree(
            [(0, 0, None, 1.0, 0.0), (1, 1, 0, 0.0, 1.0), (2, 1, 0, 1.0, 2.0)],
            horizon=1,
        )
        problems = validate(tree)
        assert any("node 1" in p and "(0, 1]" in p for p in problems)

    def test_parent_stage_mismatch(self):
        tree = make_tree(
            [(0, 0, None, 1.0, 0.0), (1, 2, 0, 1.0, 1.0)],
            horizon=2,
        )
        problems = validate(tree)
        assert any("node 1" in p and "parent" in p for p in problems)

    def test_root_probability_must_be_one(self):
        tree = make_tree([(0, 0, None, 0.9, 0.0)], horizon=0)
        assert any("root" in p for p in validate(tree))

    def test_construction_rejects_sparse_ids(self):
        with pytest.raises(InputFormatError):
            make_tree([(0, 0, None, 1.0, 0.0), (2, 1, 0, 1.0, 1.0)], horizon=1)

    def test_construction_rejects_unknown_parent(self):
        with pytest.raises(InputFormatError):
            make_tree([(0, 0, None, 1.0, 0.0), (1, 1, 7, 1.0, 1.0)], horizon=1)


class TestPath:
    def test_root_path_is_its_observation(self, chain3):
        assert path(chain3, 0) == ((0.0,),)

    def test_depth_two_concatenation(self):
        tree = make_tree(
            [(0, 0, None, 1.0, 0.0), (1, 1, 0, 1.0, 2.0), (2, 2, 1, 1.0, 1.0)],
            horizon=2,
        )
        assert path(tree, 2) == ((0.0,), (2.0,), (1.0,))

    def test_leaf_path_length_is_stage_plus_one(self):
        tree = random_tree(rng_from_seed(7), horizon=3)
        for leaf in tree.leaves():
            assert len(path(tree, leaf)) == 4

    def test_unknown_node(self, chain3):
        with pytest.raises(UnknownNodeError):
            path(chain3, 99)


class TestStructure:
    """Children, root paths and leaves below on ids that do not put parents first."""

    @pytest.fixture
    def children_first(self):
        # 0 -> {3, 4}, 3 -> {1}, 4 -> {2}: the stage-2 nodes have the smallest ids
        return make_tree(
            [
                (0, 0, None, 1.0, 0.0),
                (1, 2, 3, 1.0, 1.0),
                (2, 2, 4, 1.0, 2.0),
                (3, 1, 0, 0.5, 3.0),
                (4, 1, 0, 0.5, 4.0),
            ],
            horizon=2,
        )

    def test_paths_and_leaves_below(self, children_first):
        tree = children_first
        assert validate(tree) == []
        assert tree.path_nodes(1) == (0, 3, 1)
        assert tree.path_nodes(2) == (0, 4, 2)
        assert tree.leaves_below(0) == (1, 2)
        assert tree.leaves_below(4) == (2,)
        assert tree.children(0) == (3, 4)

    def test_top_down_puts_parents_first(self, children_first):
        assert children_first.top_down() == (0, 3, 4, 1, 2)

    def test_parent_cycle_is_rejected(self):
        with pytest.raises(InputFormatError, match="cycle"):
            make_tree(
                [(0, 0, None, 1.0, 0.0), (1, 1, 2, 1.0, 1.0), (2, 1, 1, 1.0, 2.0)],
                horizon=1,
            )

    def test_nodes_are_immutable(self, binary2):
        node = binary2.node(3)
        with pytest.raises(AttributeError):
            node.cond_prob = 0.5
        assert (node.id, node.stage, node.parent, node.cond_prob, node.obs) == (
            3, 2, 1, 0.3, (2.0,))

    @pytest.mark.parametrize("query", ["children", "path_nodes", "leaves_below"])
    def test_unknown_ids_raise(self, query):
        tree = random_tree(rng_from_seed(7), horizon=2)
        for bad in (-1, len(tree)):
            with pytest.raises(UnknownNodeError, match=f"^no node with id {bad}$"):
                getattr(tree, query)(bad)


class TestConditionalExpectation:
    def test_fifty_fifty_mean(self):
        tree = make_tree(
            [(0, 0, None, 1.0, 0.0), (1, 1, 0, 0.5, 1.0), (2, 1, 0, 0.5, 2.0)],
            horizon=1,
        )
        assert conditional_expectation(tree, {1: 3.0, 2: 5.0}, at=0) == pytest.approx(4.0)

    def test_single_child_identity(self, chain3):
        assert conditional_expectation(chain3, {1: 7.0}, at=0) == 7.0

    def test_three_children_weighted_sum(self):
        # independent check: fsum over both orderings agrees with 2.3
        tree = make_tree(
            [
                (0, 0, None, 1.0, 0.0),
                (1, 1, 0, 0.2, 1.0),
                (2, 1, 0, 0.3, 2.0),
                (3, 1, 0, 0.5, 3.0),
            ],
            horizon=1,
        )
        f = {1: 1.0, 2: 2.0, 3: 3.0}
        expected = math.fsum([0.2 * 1.0, 0.3 * 2.0, 0.5 * 3.0])
        reversed_order = math.fsum([0.5 * 3.0, 0.3 * 2.0, 0.2 * 1.0])
        assert expected == pytest.approx(2.3, abs=1e-12)
        assert reversed_order == pytest.approx(2.3, abs=1e-12)
        assert conditional_expectation(tree, f, at=0) == pytest.approx(2.3, abs=1e-12)

    def test_missing_child_is_an_error(self, chain3):
        with pytest.raises(IncompleteFunctionError):
            conditional_expectation(chain3, {}, at=0)

    def test_leaf_has_nothing_to_average(self, chain3):
        with pytest.raises(IncompleteFunctionError):
            conditional_expectation(chain3, {0: 1.0}, at=2)

    @given(
        a=st.floats(-50, 50),
        b=st.floats(-50, 50),
        scale=st.floats(-3, 3),
        shift=st.floats(-10, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, a, b, scale, shift):
        tree = make_tree(
            [(0, 0, None, 1.0, 0.0), (1, 1, 0, 0.25, 1.0), (2, 1, 0, 0.75, 2.0)],
            horizon=1,
        )
        f = {1: a, 2: b}
        g = {1: scale * a + shift, 2: scale * b + shift}
        lhs = conditional_expectation(tree, g, at=0)
        rhs = scale * conditional_expectation(tree, f, at=0) + shift
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(
        f=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        bump=st.tuples(st.floats(0, 10), st.floats(0, 10)),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, f, bump):
        tree = make_tree(
            [(0, 0, None, 1.0, 0.0), (1, 1, 0, 0.25, 1.0), (2, 1, 0, 0.75, 2.0)],
            horizon=1,
        )
        lower = {1: f[0], 2: f[1]}
        upper = {1: f[0] + bump[0], 2: f[1] + bump[1]}
        assert conditional_expectation(tree, lower, at=0) <= conditional_expectation(
            tree, upper, at=0
        ) + 1e-12


class TestUnconditionalProbability:
    def test_root_is_one(self, chain3):
        assert unconditional_probability(chain3, 0) == 1.0

    def test_product_along_path(self):
        tree = make_tree(
            [(0, 0, None, 1.0, 0.0), (1, 1, 0, 0.5, 1.0), (2, 1, 0, 0.5, 4.0),
             (3, 2, 1, 0.4, 2.0), (4, 2, 1, 0.6, 3.0), (5, 2, 2, 1.0, 5.0)],
            horizon=2,
        )
        assert unconditional_probability(tree, 3) == pytest.approx(0.2)

    @pytest.mark.parametrize("seed", range(12))
    def test_partition_property_per_stage(self, seed):
        tree = random_tree(rng_from_seed(seed))
        assert validate(tree) == []
        for t in range(tree.horizon + 1):
            total = sum(unconditional_probability(tree, i) for i in tree.stage_nodes(t))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestTowerProperty:
    @pytest.mark.parametrize("seed", range(8))
    def test_iterated_fold_equals_direct_leaf_sum(self, seed):
        rng = rng_from_seed(100 + seed)
        tree = random_tree(rng, horizon=3)
        leaf_values = {leaf: float(rng.uniform(-5, 5)) for leaf in tree.leaves()}
        # fold stage by stage from T down
        level = dict(leaf_values)
        for t in range(tree.horizon - 1, -1, -1):
            level = {
                nid: conditional_expectation(tree, level, at=nid)
                for nid in tree.stage_nodes(t)
            }
        for nid in tree.stage_nodes(0):
            p_node = unconditional_probability(tree, nid)
            direct = sum(
                unconditional_probability(tree, leaf) / p_node * leaf_values[leaf]
                for leaf in tree.leaves_below(nid)
            )
            assert level[nid] == pytest.approx(direct, abs=1e-10)


class TestJson:
    def test_round_trip(self, binary2):
        data = tree_to_json(binary2)
        back = tree_from_json(data)
        assert tree_to_json(back) == data
        assert validate(back) == []

    def test_malformed_json(self):
        with pytest.raises(InputFormatError):
            tree_from_json({"horizon": 1, "nodes": []})

    def test_root_entry_has_no_parent_key(self, chain3):
        data = tree_to_json(chain3)
        assert "parent" not in data["nodes"][0]
        assert data["nodes"][1]["parent"] == 0
