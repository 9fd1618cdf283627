import contextlib
import copy
import gc
import io
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multistage.bundle import (
    ProblemBundle,
    load_bundle,
    load_bundle_or_tree,
    load_mdp,
    load_stagewise,
)
from multistage.cli import build_parser, main
from multistage.costs import CostSpec, verify_holder
from multistage.exceptions import EnumerationCapError, InputFormatError, MultistageError
from multistage.generate import random_tree, rng_from_seed
from multistage.policy import Policy, PolicyClass, load_policy, policy_to_json
from multistage.scenario_tree import Node, ScenarioTree
from multistage.value_process import backward_tables, brute_force_optimum, expected_value
from multistage.verification import check_dynamic_relations, verify_policy
from instances import (
    branching_gap_fixture,
    bundle_to_json,
    chain_tree,
    constant_cost_mdp,
    document,
    load_cost,
    mdp_to_json,
    random_general_cost,
    random_mdp,
    random_sddp,
    recourse_fixture,
    tree_to_json,
)
from test_golden_reports import GOLDEN, hexed, inputs


def write_json(path, data):
    path.write_text(json.dumps(data, sort_keys=True, indent=2))
    return str(path)


@pytest.fixture
def recourse_bundle(tmp_path):
    fx = recourse_fixture()
    bundle = ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"])
    bundle_path = write_json(tmp_path / "bundle.json", bundle_to_json(bundle))
    optimal = write_json(
        tmp_path / "optimal.json", policy_to_json(fx["optimal_policy"])
    )
    perturbed = write_json(
        tmp_path / "perturbed.json", policy_to_json(fx["perturbed_policy"])
    )
    return {"bundle": bundle_path, "optimal": optimal, "perturbed": perturbed, "fx": fx}


class TestValidate:
    def test_valid_bundle_exits_zero(self, recourse_bundle, capsys):
        code = main(["validate", "--input", recourse_bundle["bundle"]])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_tree_exits_one(self, tmp_path, capsys):
        tree = ScenarioTree(
            [
                Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
                Node(id=1, stage=1, parent=0, cond_prob=0.5, obs=(1.0,)),
                Node(id=2, stage=1, parent=0, cond_prob=0.6, obs=(2.0,)),
            ],
            horizon=1,
            obs_dim=1,
        )
        path = write_json(tmp_path / "tree.json", tree_to_json(tree))
        code = main(["validate", "--input", path, "--json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["valid"]

    def test_missing_file_exits_three(self, capsys):
        assert main(["validate", "--input", "/nonexistent.json"]) == 3

    def test_unparseable_file_exits_three(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--input", str(bad)]) == 3

    def test_violated_holder_declaration_exits_one(self, recourse_bundle, tmp_path, capsys):
        data = json.loads(Path(recourse_bundle["bundle"]).read_text())
        data["cost"]["holder"] = {"C": 1e-6, "alpha": 1.0, "delta": 10.0}
        path = write_json(tmp_path / "holder.json", data)
        code = main(["validate", "--input", path, "--json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert any("Hoelder" in v for v in report["violations"])


class TestHolderPairCap:
    """A declared Hoelder check whose pair difference array would exceed
    DEFAULT_ENUMERATION_CAP exits 3 before the array is built."""

    @pytest.mark.parametrize("command", [["validate"], ["solve"]], ids=" ".join)
    def test_an_oversized_pair_array_exits_three(self, tmp_path, capsys, monkeypatch, command):
        # a five-stage chain with five candidates per stage: each leaf's
        # 5^5 = 3125 histories of 5 components take 3125 * 3125 * 5 entries
        tree = chain_tree([0.0] * 5)
        grids = {n.id: tuple((float(k),) for k in range(5)) for n in tree.nodes}
        square = {"terms": [{"coef": 1.0, "vars": [["u", 0, 0, 2]]}]}
        holder = {"C": 10.0, "alpha": 1.0, "delta": 1.0}
        bundle = ProblemBundle(
            tree=tree,
            cost=load_cost({"form": "general", "poly": square, "holder": holder}),
            cls=PolicyClass(feasible=grids, kind="nodewise", decision_dim=1),
            policies={},
        )
        path = write_json(tmp_path / "holder5.json", bundle_to_json(bundle))
        monkeypatch.setattr("multistage.costs.holder_pairs",
                            lambda *args: pytest.fail("the pair array was built"))
        assert main([*command, "--input", path]) == 3
        assert capsys.readouterr() == (
            "", "enumeration too large: enumeration of 48828125 items exceeds the cap of 10000000\n")


def malformed_cost_bundle(cost):
    """Horizon-1 binary tree with the grid {0, 1} at every node and the given cost."""
    grid = [[0.0], [1.0]]
    return {
        "tree": {"horizon": 1, "obs_dim": 1, "nodes": [
            {"id": 0, "stage": 0, "cond_prob": 1.0, "obs": [0.5]},
            {"id": 1, "stage": 1, "parent": 0, "cond_prob": 0.5, "obs": [1.0]},
            {"id": 2, "stage": 1, "parent": 0, "cond_prob": 0.5, "obs": [2.0]},
        ]},
        "cost": cost,
        "policy_class": {"kind": "nodewise", "decision_dim": 1,
                         "feasible": {"0": grid, "1": grid, "2": grid}},
    }


def poly_cost_with(bad_vars):
    return {"form": "general", "poly": {"terms": [
        {"coef": 1.0, "vars": [["u", 1, 0, 2]]},
        {"coef": 1.0, "vars": bad_vars},
    ]}}


class TestMalformedCost:
    CASES = {
        "neg_power": (poly_cost_with([["u", 0, 0, -1]]), "term 1"),
        "bad_component": (poly_cost_with([["x", 1, 1, 1]]), "term 1"),
        "short_weights": (
            {"form": "general", "builtin": "quadratic_tracking",
             "params": {"weights": [1.0]}},
            "weights",
        ),
        "neg_stage": (poly_cost_with([["u", -1, 0, 1]]), "term 1"),
        # 2.0 ** 1100 raises OverflowError in Python
        "overflow": (poly_cost_with([["x", 1, 0, 1100]]), "term 1"),
        "neg_window_offset": (
            {"form": "additive", "gamma": 0.5, "lag": 1, "stage_costs": [
                {"poly": {"terms": [{"coef": 1.0, "vars": [["u", -1, 0, 1]]}]}}]},
            "term 0",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_validate_names_the_fault(self, tmp_path, capsys, name):
        cost, word = self.CASES[name]
        path = write_json(tmp_path / "bad.json", malformed_cost_bundle(cost))
        assert main(["validate", "--input", path, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert any(word in v for v in report["violations"])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_solve_exits_three(self, tmp_path, capsys, name):
        cost, word = self.CASES[name]
        path = write_json(tmp_path / "bad.json", malformed_cost_bundle(cost))
        assert main(["solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert word in captured.err

    @pytest.mark.parametrize("command", ["verify", "dynamic-check"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_policy_commands_exit_three(self, tmp_path, capsys, name, command):
        cost, word = self.CASES[name]
        path = write_json(tmp_path / "bad.json", malformed_cost_bundle(cost))
        policy = write_json(
            tmp_path / "policy.json",
            {"decision_dim": 1, "decisions": {"0": [1.0], "1": [1.0], "2": [1.0]}},
        )
        assert main([command, "--input", path, "--policy", policy, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert word in captured.err

    def test_negative_power_away_from_zero_is_valid(self, tmp_path):
        # the grid holds 0 at stage 0 but the observation x_1 never is 0
        cost = poly_cost_with([["x", 1, 0, -2]])
        path = write_json(tmp_path / "ok.json", malformed_cost_bundle(cost))
        assert main(["validate", "--input", path]) == 0

    def test_window_variable_off_the_window_is_not_evaluated(self, tmp_path):
        # u offset 1 lies off the lag-1 window at stage 1, so its term vanishes
        # and the negative power on the zero grid value never applies
        cost = {"form": "additive", "gamma": 0.5, "lag": 1, "stage_costs": [
            {"poly": {"terms": [{"coef": 1.0, "vars": [["u", 1, 0, -1]]}]}}]}
        path = write_json(tmp_path / "ok.json", malformed_cost_bundle(cost))
        assert main(["validate", "--input", path]) == 0
        assert main(["solve", "--input", path]) == 0


class TestJsonValueTypes:
    """A JSON value of the wrong type where an object belongs is an input error."""

    @staticmethod
    def bundle():
        data = malformed_cost_bundle(
            {"form": "general", "poly": {"terms": [{"coef": 1.0, "vars": [["u", 1, 0, 2]]}]}}
        )
        data["policies"] = {
            "ones": {"decision_dim": 1, "decisions": {"0": [1.0], "1": [1.0], "2": [1.0]}}
        }
        return data

    MUTATIONS = {
        "top-level-number": lambda data: 5,
        "top-level-array": lambda data: [],
        "policies-array": lambda data: dict(data, policies=[]),
        "decisions-array": lambda data: dict(
            data, policies={"ones": dict(data["policies"]["ones"], decisions=[])}
        ),
        "feasible-array": lambda data: dict(
            data, policy_class=dict(data["policy_class"], feasible=[])
        ),
    }

    @pytest.mark.parametrize("command", ["validate", "solve", "verify", "dynamic-check"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_exits_three(self, tmp_path, capsys, mutation, command):
        path = write_json(tmp_path / "bad.json", self.MUTATIONS[mutation](self.bundle()))
        assert main([command, "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error:" in captured.err
        assert "Traceback" not in captured.err


def set_infinite(*keys):
    """A mutation that sets the field at a key path to Infinity, as JSON writes 1e400."""

    def mutate(data):
        target = data
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = 1e400
        return data

    return mutate


class TestInfiniteIntegerFields:
    """An integer field holding Infinity is an input error, not a traceback."""

    TERM = ("cost", "poly", "terms", 0, "vars", 0)
    BUNDLE = {
        "horizon": set_infinite("tree", "horizon"),
        "obs_dim": set_infinite("tree", "obs_dim"),
        "node-id": set_infinite("tree", "nodes", 1, "id"),
        "node-stage": set_infinite("tree", "nodes", 1, "stage"),
        "node-parent": set_infinite("tree", "nodes", 1, "parent"),
        "poly-stage": set_infinite(*TERM, 1),
        "poly-component": set_infinite(*TERM, 2),
        "poly-power": set_infinite(*TERM, 3),
        "additive-lag": lambda data: dict(data, cost={
            "form": "additive", "gamma": 0.5, "lag": 1e400, "stage_costs": [
                {"poly": {"terms": [{"coef": 1.0, "vars": [["u", 0, 0, 2]]}]}}]}),
        "class-decision_dim": set_infinite("policy_class", "decision_dim"),
        "bundle-policy-decision_dim": set_infinite("policies", "ones", "decision_dim"),
    }
    STAGEWISE = {
        "horizon": set_infinite("horizon"),
        "step-component": set_infinite("cost", "poly", "terms", 0, "vars", 0, 1),
        "step-power": set_infinite("cost", "poly", "terms", 0, "vars", 0, 2),
    }

    @staticmethod
    def assert_input_error(argv, capsys):
        assert main(argv + ["--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["validate", "solve", "verify", "dynamic-check"])
    @pytest.mark.parametrize("field", sorted(BUNDLE))
    def test_bundle_field(self, tmp_path, capsys, field, command):
        data = self.BUNDLE[field](TestJsonValueTypes.bundle())
        path = write_json(tmp_path / "bad.json", data)
        self.assert_input_error([command, "--input", path], capsys)

    @pytest.mark.parametrize("command", ["verify", "dynamic-check"])
    def test_policy_file_decision_dim(self, tmp_path, capsys, command):
        path = write_json(tmp_path / "bundle.json", TestJsonValueTypes.bundle())
        policy = write_json(tmp_path / "policy.json", {
            "decision_dim": 1e400, "decisions": {"0": [1.0], "1": [1.0], "2": [1.0]}})
        self.assert_input_error([command, "--input", path, "--policy", policy], capsys)

    @pytest.mark.parametrize("field", sorted(STAGEWISE))
    def test_stagewise_field(self, tmp_path, capsys, field):
        payload = document(random_sddp(rng_from_seed(8), horizon=2))
        path = write_json(tmp_path / "sddp.json", self.STAGEWISE[field](payload))
        self.assert_input_error(["sddp-solve", "--input", path], capsys)


def additive_bundle():
    """The value-types bundle with an additive lag-1 cost."""
    data = TestJsonValueTypes.bundle()
    data["cost"] = {"form": "additive", "gamma": 0.5, "lag": 1, "stage_costs": [
        {"poly": {"terms": [{"coef": 1.0, "vars": [["u", 0, 0, 2]]}]}}]}
    return data


def mdp_with_actions():
    data = mdp_to_json(constant_cost_mdp(gamma=0.5))
    data["actions_by_state"] = [[0], [0]]
    return data


class TestIntegerFields:
    """An integer field holding a fraction, a boolean or a string is an input
    error that names the field; an integer written as a float is accepted."""

    TERM = ("cost", "poly", "terms", 0, "vars", 0)  # the first term's first variable
    #: field -> (input, command, key path, the error's name for the field)
    FIELDS = {
        "tree-horizon": ("bundle", "validate", ("tree", "horizon"), "tree horizon"),
        "tree-obs_dim": ("bundle", "validate", ("tree", "obs_dim"), "tree obs_dim"),
        "node-id": ("bundle", "validate", ("tree", "nodes", 1, "id"), "node id"),
        "node-stage": ("bundle", "validate", ("tree", "nodes", 1, "stage"), "node stage"),
        "node-parent": ("bundle", "validate", ("tree", "nodes", 1, "parent"), "node parent"),
        "poly-index": ("bundle", "solve", (*TERM, 1), "poly variable index"),
        "poly-component": ("bundle", "solve", (*TERM, 2), "poly variable component"),
        "poly-power": ("bundle", "solve", (*TERM, 3), "poly variable power"),
        "cost-lag": ("additive", "solve", ("cost", "lag"), "cost lag"),
        "class-decision_dim": ("bundle", "validate", ("policy_class", "decision_dim"),
                               "policy class decision_dim"),
        "policy-decision_dim": ("bundle", "verify", ("policies", "ones", "decision_dim"),
                                "policy decision_dim"),
        "stagewise-horizon": ("stagewise", "sddp-solve", ("horizon",), "stagewise horizon"),
        "step-component": ("stagewise", "sddp-solve", (*TERM, 1),
                           "step-cost variable component"),
        "step-power": ("stagewise", "sddp-solve", (*TERM, 2), "step-cost variable power"),
        "actions_by_state": ("mdp", "value-iterate", ("actions_by_state", 1, 0),
                             "actions_by_state entry"),
    }
    INPUTS = {
        "bundle": TestJsonValueTypes.bundle,
        "additive": additive_bundle,
        "stagewise": lambda: document(random_sddp(rng_from_seed(8), horizon=2)),
        "mdp": mdp_with_actions,
    }

    def run(self, tmp_path, capsys, field, value=None):
        """Exit code, stdout and stderr of the field's command, with the field
        set to ``value`` (left as it is for None)."""
        kind, command, keys, _ = self.FIELDS[field]
        data = self.INPUTS[kind]()
        if value is not None:
            target = data
            for k in keys[:-1]:
                target = target[k]
            target[keys[-1]] = value(target[keys[-1]]) if callable(value) else value
        path = write_json(tmp_path / "input.json", data)
        code = main([command, "--input", path, "--json"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("value", [1.5, True, "1"], ids=["fraction", "boolean", "string"])
    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_non_integer_exits_three(self, tmp_path, capsys, field, value):
        code, out, err = self.run(tmp_path, capsys, field, value)
        assert (code, out) == (3, "")
        assert f"input error: {self.FIELDS[field][3]} must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_integer_written_as_a_float_is_accepted(self, tmp_path, capsys, field):
        code, out, err = self.run(tmp_path, capsys, field)
        assert code in (0, 1) and err == ""
        assert self.run(tmp_path, capsys, field, float) == (code, out, err)


def integral_stagewise():
    """A stagewise-independent payload whose number fields below hold integral values."""
    data = document(random_sddp(rng_from_seed(8), horizon=2))
    data.update(gamma=0.0, initial_state=[2.0])
    data["stage_noise"][0][0]["prob"], data["stage_noise"][0][1]["prob"] = 0.0, 1.0
    data["stage_noise"][1][0]["value"] = [1.0]
    data["stage_decisions"][0][1] = [1.0]
    return data


def integral_step_cost():
    """``integral_stagewise`` with a first step-cost coefficient of 1.0."""
    data = integral_stagewise()
    data["cost"]["poly"]["terms"][0]["coef"] = 1.0
    return data


def recourse_payload(**cost):
    """The recourse fixture's bundle as JSON, with ``cost`` merged into its cost."""
    fx = recourse_fixture()
    data = bundle_to_json(ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"]))
    return json.loads(json.dumps({**data, "cost": {**data["cost"], **cost}}))


#: field -> (input, key path, the error's name for the field)
NUMBER_FIELDS = {
    "mdp-gamma": ("mdp", ("gamma",), "MDP gamma"),
    "mdp-bound_K": ("mdp", ("bound_K",), "MDP bound_K"),
    "mdp-state": ("mdp", ("states", 1, 0), "MDP state entry"),
    "mdp-action": ("mdp", ("actions", 0, 0), "MDP action entry"),
    "stagewise-gamma": ("stagewise", ("gamma",), "stagewise gamma"),
    "noise-prob": ("stagewise", ("stage_noise", 0, 1, "prob"), "noise probability"),
    "noise-value": ("stagewise", ("stage_noise", 1, 0, "value", 0), "noise value entry"),
    "decision": ("stagewise", ("stage_decisions", 0, 1, 0), "decision entry"),
    "initial_state": ("stagewise", ("initial_state", 0), "initial_state entry"),
    "step-coef": ("step", ("cost", "poly", "terms", 0, "coef"), "poly coef"),
    "cond_prob": ("bundle", ("tree", "nodes", 0, "cond_prob"), "node cond_prob"),
    "obs": ("bundle", ("tree", "nodes", 2, "obs", 0), "node obs entry"),
    "coef": ("bundle", ("cost", "poly", "terms", 0, "coef"), "poly coef"),
    "stage-coef": ("additive", ("cost", "stage_costs", 0, "poly", "terms", 0, "coef"),
                   "poly coef"),
    "additive-gamma": ("additive", ("cost", "gamma"), "additive cost gamma"),
    "holder-C": ("holder", ("cost", "holder", "C"), "holder C"),
    "holder-alpha": ("holder", ("cost", "holder", "alpha"), "holder alpha"),
    "holder-delta": ("holder", ("cost", "holder", "delta"), "holder delta"),
    "table-x": ("table", ("cost", "table", "entries", 0, "x", 1, 0), "table entry 0: x[1] entry"),
    "table-u": ("table", ("cost", "table", "entries", 0, "u", 0, 0), "table entry 0: u[0] entry"),
    "table-value": ("table", ("cost", "table", "entries", 0, "value"), "table entry 0 value"),
    "table-atol": ("table", ("cost", "table", "atol"), "table atol"),
    "weight": ("tracking", ("cost", "params", "weights", 1), "quadratic_tracking weight"),
    "policy-decision": ("policy", ("policies", "opt", "decisions", "0", 0),
                        "decision at node 0"),
    "feasible": ("bundle", ("policy_class", "feasible", "0", 1, 0),
                 "feasible decision at node 0"),
}
NUMBER_COMMANDS = {"mdp": [["mdp-solve", "--horizon", "2"], ["value-iterate"]],
                   "stagewise": [["sddp-solve"]], "step": [["sddp-solve"]],
                   "bundle": [["validate"], ["solve"]], "additive": [["validate"], ["solve"]],
                   "holder": [["validate"]], "table": [["validate"], ["solve"]],
                   "tracking": [["validate"], ["solve"]], "policy": [["validate"], ["verify"]]}


class TestNumberFields:
    """A scalar float field of an MDP, a stagewise-independent input or a
    bundle's tree or cost that holds a string, a boolean or null is an input
    error that names the field; a number written as an integer is accepted."""

    INPUTS = {
        "mdp": lambda: {**mdp_to_json(constant_cost_mdp(gamma=0.5)), "gamma": 0.0},
        "stagewise": integral_stagewise,
        "step": integral_step_cost,
        "bundle": recourse_payload,
        "additive": lambda: recourse_payload(
            form="additive", gamma=0.0, lag=1,
            stage_costs=[{"poly": {"terms": [{"coef": 1.0, "vars": [["u", 0, 0, 2]]}]}}],
        ),
        "holder": lambda: recourse_payload(holder={"C": 10.0, "alpha": 1.0, "delta": 1.0}),
        "table": lambda: TestTableAtol.bundle(0.0),
        "tracking": lambda: malformed_cost_bundle(
            {"form": "general", "builtin": "quadratic_tracking", "params": {"weights": [1.0, 2.0]}}
        ),
        "policy": lambda: {**recourse_payload(), "policies": {
            "opt": policy_to_json(recourse_fixture()["optimal_policy"])}},
    }
    CASES = [(field, command) for field, (kind, _, _) in NUMBER_FIELDS.items()
             for command in NUMBER_COMMANDS[kind]]
    CASE_IDS = [f"{field}-{command[0]}" for field, command in CASES]

    def run(self, tmp_path, capsys, field, command, value=None):
        """Exit code, stdout and stderr of ``command`` with the field set to
        ``value`` (left as it is for None)."""
        kind, keys, _ = NUMBER_FIELDS[field]
        data = self.INPUTS[kind]()
        if value is not None:
            target = data
            for k in keys[:-1]:
                target = target[k]
            target[keys[-1]] = value(target[keys[-1]]) if callable(value) else value
        path = write_json(tmp_path / "input.json", data)
        code = main([*command, "--input", path, "--json"])
        captured = capsys.readouterr()
        return code, captured.out.replace(path, "<input>"), captured.err

    @pytest.mark.parametrize("value", ["0", "0.5", True, False, None],
                             ids=["string", "fraction-string", "true", "false", "null"])
    @pytest.mark.parametrize("field, command", CASES, ids=CASE_IDS)
    def test_non_number_exits_three(self, tmp_path, capsys, field, command, value):
        code, out, err = self.run(tmp_path, capsys, field, command, lambda _: value)
        assert (code, out) == (3, "")
        assert f"input error: {NUMBER_FIELDS[field][2]} must be a number, got {value!r}" in err
        assert "Traceback" not in err

    def test_a_policy_file_decision_must_be_a_number(self, tmp_path, capsys):
        fx = recourse_fixture()
        bundle = write_json(tmp_path / "bundle.json", recourse_payload())
        policy = policy_to_json(fx["optimal_policy"])
        policy["decisions"]["0"] = ["1.0"]
        path = write_json(tmp_path / "policy.json", policy)
        assert main(["verify", "--input", bundle, "--policy", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: decision at node 0 must be a number, got '1.0'" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("field, command", CASES, ids=CASE_IDS)
    def test_number_written_as_an_integer_is_accepted(self, tmp_path, capsys, field, command):
        code, out, err = self.run(tmp_path, capsys, field, command)
        assert code == 0 and err == ""

        def integer(value):
            assert value == int(value)
            return int(value)

        assert self.run(tmp_path, capsys, field, command, integer) == (code, out, err)


class TestSolve:
    def test_recorded_fixture_value(self, recourse_bundle, capsys):
        code = main(
            ["solve", "--input", recourse_bundle["bundle"], "--method", "auto", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(0.6, abs=1e-9)
        assert report["agreement"] is True
        assert report["policy"]["decisions"]["0"] == [1.0]

    def test_backward_and_brute_agree_on_a_2187_policy_instance(self, tmp_path, capsys):
        nodes = [Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,))]
        for i, (parent, obs) in enumerate(
            [(0, 1.0), (0, -1.0), (1, 2.0), (1, 0.5), (2, -2.0), (2, 1.5)], start=1
        ):
            stage = 1 if parent == 0 else 2
            nodes.append(
                Node(id=i, stage=stage, parent=parent, cond_prob=0.5, obs=(obs,))
            )
        tree = ScenarioTree(nodes, horizon=2, obs_dim=1)
        from multistage.policy import PolicyClass

        grid = ((-1.0,), (0.0,), (1.0,))
        cls = PolicyClass(
            feasible={n.id: grid for n in tree.nodes}, kind="nodewise", decision_dim=1
        )
        cost = random_general_cost(rng_from_seed(9), tree)
        bundle = ProblemBundle(tree=tree, cost=cost, cls=cls)
        path = write_json(tmp_path / "big.json", bundle_to_json(bundle))
        code = main(["solve", "--input", path, "--method", "auto", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["policy_count"] == 2187
        assert report["agreement"] is True

    def test_horizon_zero_grid_minimum(self, tmp_path, capsys):
        from multistage.policy import PolicyClass

        tree = ScenarioTree(
            [Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(1.0,))],
            horizon=0,
            obs_dim=1,
        )
        cls = PolicyClass(
            feasible={0: ((-1.0,), (0.0,), (2.0,))}, kind="nodewise", decision_dim=1
        )
        cost = load_cost(
            {
                "form": "general",
                "poly": {
                    "terms": [
                        {"coef": 1.0, "vars": [["u", 0, 0, 2]]},
                        {"coef": -2.0, "vars": [["u", 0, 0, 1], ["x", 0, 0, 1]]},
                        {"coef": 1.0, "vars": [["x", 0, 0, 2]]},
                    ]
                },
            }
        )
        path = write_json(
            tmp_path / "t0.json",
            bundle_to_json(ProblemBundle(tree=tree, cost=cost, cls=cls)),
        )
        code = main(["solve", "--input", path, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(1.0)

    def test_brute_force_past_the_cap_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "bundle.json", TestJsonValueTypes.bundle())
        # 2 ** 3 policies: the cap is checked before anything is evaluated
        assert main(["solve", "--input", path, "--method", "brute", "--cap", "7", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "enumeration of 8 items exceeds the cap of 7" in captured.err

    def test_invalid_bundle_exits_three(self, tmp_path, recourse_bundle):
        data = json.loads(Path(recourse_bundle["bundle"]).read_text())
        del data["policy_class"]["feasible"]["2"]
        path = write_json(tmp_path / "broken.json", data)
        assert main(["solve", "--input", path]) == 3


class TestVerify:
    def test_solve_then_verify_round_trip(self, recourse_bundle, tmp_path, capsys):
        code = main(
            ["solve", "--input", recourse_bundle["bundle"], "--json"]
        )
        solved = json.loads(capsys.readouterr().out)
        policy_path = write_json(tmp_path / "argmin.json", solved["policy"])
        code = main(
            [
                "verify",
                "--input",
                recourse_bundle["bundle"],
                "--policy",
                policy_path,
                "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "optimal"

    def test_perturbed_policy_exits_one_with_positive_slack(
        self, recourse_bundle, capsys
    ):
        code = main(
            [
                "verify",
                "--input",
                recourse_bundle["bundle"],
                "--policy",
                recourse_bundle["perturbed"],
                "--json",
            ]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "not-optimal"
        assert max(s["max_slack"] for s in report["per_stage_slack"]) > 0.5

    def test_history_blind_bundle_exits_two(self, tmp_path, capsys):
        fx = branching_gap_fixture()
        bundle = ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"])
        bundle_path = write_json(tmp_path / "blind.json", bundle_to_json(bundle))
        policy_path = write_json(
            tmp_path / "pol.json",
            policy_to_json(
                Policy(decisions={0: (0.0,), 1: (0.0,), 2: (0.0,)}, decision_dim=1)
            ),
        )
        code = main(
            ["verify", "--input", bundle_path, "--policy", policy_path, "--json"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"

    def test_infeasible_policy_exits_three(self, recourse_bundle, tmp_path):
        alien = write_json(
            tmp_path / "alien.json",
            policy_to_json(
                Policy(decisions={0: (9.0,), 1: (9.0,), 2: (9.0,)}, decision_dim=1)
            ),
        )
        code = main(
            ["verify", "--input", recourse_bundle["bundle"], "--policy", alien]
        )
        assert code == 3


class TestDynamicCheck:
    def test_nodewise_equality(self, recourse_bundle, capsys):
        code = main(
            [
                "dynamic-check",
                "--input",
                recourse_bundle["bundle"],
                "--policy",
                recourse_bundle["perturbed"],
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_hold"] and report["equality_everywhere"]

    def test_out_of_memory_exits_three(self, recourse_bundle, capsys, monkeypatch):
        from multistage.value_process import _Definitional

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(_Definitional, "v", exhausted)
        code = main(
            ["dynamic-check", "--input", recourse_bundle["bundle"],
             "--policy", recourse_bundle["perturbed"]]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of memory" in captured.err and "--cap" in captured.err

    def test_history_blind_strict_inequality(self, tmp_path, capsys):
        fx = branching_gap_fixture()
        bundle = ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"])
        bundle_path = write_json(tmp_path / "blind.json", bundle_to_json(bundle))
        policy_path = write_json(
            tmp_path / "pol.json",
            policy_to_json(
                Policy(decisions={0: (0.0,), 1: (0.0,), 2: (0.0,)}, decision_dim=1)
            ),
        )
        code = main(
            ["dynamic-check", "--input", bundle_path, "--policy", policy_path, "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_hold"] and not report["equality_everywhere"]


class TestDemoInterchange:
    def test_builtin_fixture_gaps(self, capsys):
        code = main(["demo-interchange", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fixture"]["nodewise"]["gap"] == pytest.approx(0.0, abs=1e-12)
        assert report["fixture"]["history_blind"]["lhs"] == pytest.approx(1.0)
        assert report["fixture"]["history_blind"]["rhs"] == pytest.approx(5.0)

    def test_random_sweep_respects_the_lower_bound(self, capsys):
        code = main(["demo-interchange", "--trials", "60", "--seed", "3", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"]["count"] == 60
        assert report["trials"]["min_gap"] >= -1e-12


NAN, INF = float("nan"), float("inf")
ONES = [[[1.0], [1.0]], [[1.0], [1.0]]]

# fields replaced in the JSON of constant_cost_mdp(), and the problem reported
SPOILED_MDPS = {
    "nan-kernel": ({"kernel": [[NAN, 0.5], [0.5, 0.5]]}, "kernel has non-finite entries"),
    "nan-cost": ({"cost": [[[1.0], [NAN]], [[1.0], [1.0]]]}, "cost has non-finite entries"),
    "nan-stage-cost": (
        {"stage_costs": [ONES, [[[1.0], [1.0]], [[NAN], [1.0]]]]},
        "stage_costs[1] has non-finite entries",
    ),
    "inf-cost-and-bound": (
        {"cost": [[[1.0], [1.0]], [[INF], [1.0]]], "bound_K": INF},
        "bound_K inf is not finite",
    ),
    "nan-bound": ({"bound_K": NAN}, "bound_K nan is not finite"),
    "inf-bound": ({"bound_K": INF}, "bound_K inf is not finite"),
    "no-actions": ({"actions": []}, "at least one state and one action, got 2 and 0"),
    "no-states": (
        {"states": [], "kernel": [], "cost": []},
        "at least one state and one action, got 0 and 1",
    ),
}


# array entries of constant_cost_mdp()'s JSON that are not JSON numbers, and the message
NON_NUMBER_MDPS = {
    "string-kernel": ({"kernel": [["0.5", 0.5], [0.5, 0.5]]},
                      "MDP kernel entry must be a number, got '0.5'"),
    "non-numeric-string-kernel": ({"kernel": [["abc", 0.5], [0.5, 0.5]]},
                                  "MDP kernel entry must be a number, got 'abc'"),
    "true-cost": ({"cost": [[[True], [1.0]], [[1.0], [1.0]]]},
                  "MDP cost entry must be a number, got True"),
    "false-kernel": ({"kernel": [[0.5, 0.5], [False, 1.0]]},
                     "MDP kernel entry must be a number, got False"),
    "string-stage-cost": ({"stage_costs": [ONES, [[[1.0], ["1"]], [[1.0], [1.0]]]]},
                          "MDP stage_costs[1] entry must be a number, got '1'"),
    "null-cost": ({"cost": [[[1.0], [1.0]], [[None], [1.0]]]},
                  "MDP cost entry must be a number, got None"),
}


class TestLoaders:
    """One loader per input kind reads the file and builds the checked spec."""

    def test_load_mdp_and_load_stagewise(self, tmp_path):
        mdp = mdp_to_json(random_mdp(rng_from_seed(4), action_dependent=True))
        stagewise = document(random_sddp(rng_from_seed(8), horizon=2))
        assert mdp_to_json(load_mdp(write_json(tmp_path / "mdp.json", mdp))) == mdp
        spec = load_stagewise(write_json(tmp_path / "sddp.json", stagewise))
        assert spec.horizon == 2 and spec.initial_state == tuple(stagewise["initial_state"])

    @pytest.mark.parametrize("load", [load_mdp, load_stagewise])
    def test_a_file_that_is_not_json_names_the_file(self, tmp_path, load):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}: "):
            load(str(path))

    def test_load_mdp_runs_no_collection_and_restores_the_collector(self, tmp_path, empty_memo):
        """The collector is paused for the decode and the build of a large MDP
        (10 000 cost rows) and left as it was found, also after an error."""
        path = write_json(tmp_path / "mdp.json", mdp_to_json(
            random_mdp(rng_from_seed(5), n_states=100, n_actions=5)))
        bad = [tmp_path / "bad.json", tmp_path / "incomplete.json"]
        bad[0].write_text("{not json")
        bad[1].write_text('{"states": [[0.0]], "kernel": [[1.0]]}')
        loading, collections = [], []

        def record(phase, info):
            if phase == "start" and loading:
                collections.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.callbacks.append(record)
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                loading.append(path)
                empty_memo()  # the file is built at each pass
                try:
                    mdp = load_mdp(path)
                finally:
                    loading.clear()
                assert mdp.cost.shape == (100, 100, 5)
                assert gc.isenabled() is enabled
                for p in bad:
                    with pytest.raises(InputFormatError):
                        load_mdp(str(p))
                    assert gc.isenabled() is enabled
        finally:
            gc.callbacks.remove(record)
            (gc.enable if was_enabled else gc.disable)()
        assert collections == []

    @pytest.mark.parametrize("command, load", [
        (["mdp-solve", "--horizon", "2"], "load_mdp"), (["value-iterate"], "load_mdp"),
        (["sddp-solve"], "load_stagewise"), (["solve"], "load_bundle"),
        (["validate"], "load_bundle_or_tree"), (["verify", "--policy"], "load_policy"),
    ])
    def test_commands_read_through_the_loader(self, tmp_path, monkeypatch, command, load):
        import multistage.cli as cli

        fx = recourse_fixture()
        bundle = bundle_to_json(ProblemBundle(fx["tree"], fx["cost"], fx["cls"]))
        data = {
            "load_mdp": lambda: mdp_to_json(constant_cost_mdp(gamma=0.5)),
            "load_stagewise": lambda: document(random_sddp(rng_from_seed(8), horizon=2)),
            "load_policy": lambda: policy_to_json(fx["optimal_policy"]),
        }.get(load, lambda: bundle)()
        path = write_json(tmp_path / "input.json", data)
        argv = [*command, "--input", path]
        if load == "load_policy":
            argv = [*command, path, "--input", write_json(tmp_path / "bundle.json", bundle)]
        calls = []

        def counted(p, real=getattr(cli, load)):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(cli, load, counted)
        assert not hasattr(cli, "load_json")  # the handlers read no file but by a loader
        assert main([*argv, "--json"]) == 0
        assert calls == [path]


class TestKeptSpecs:
    """``load_mdp`` and ``load_stagewise`` build a file once while its bytes
    stay the same, and the specs they share are read-only."""

    @staticmethod
    def files(tmp_path):
        mdp = write_json(tmp_path / "mdp.json", mdp_to_json(constant_cost_mdp(gamma=0.5)))
        stagewise = write_json(tmp_path / "sddp.json",
                               document(random_sddp(rng_from_seed(8), horizon=2)))
        return [(load_mdp, mdp), (load_stagewise, stagewise)]

    def test_the_real_budget_is_2_to_the_24_bytes(self):
        from multistage import exceptions

        assert exceptions._KEPT.budget == 2**24

    def test_identical_bytes_return_the_same_spec(self, tmp_path, empty_memo):
        for load, path in self.files(tmp_path):
            spec = load(path)
            Path(path).write_bytes(Path(path).read_bytes())  # rewritten, same bytes
            assert load(path) is spec

    def test_bytes_rewritten_under_the_same_size_and_mtime_are_rebuilt(self, tmp_path, empty_memo):
        for load, path in self.files(tmp_path):
            spec = load(path)
            before, text = os.stat(path), Path(path).read_text()
            Path(path).write_text(text.replace('"gamma": 0.5', '"gamma": 0.4'))
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            after = os.stat(path)
            assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
            rebuilt = load(path)
            assert rebuilt is not spec and (spec.gamma, rebuilt.gamma) == (0.5, 0.4)
            assert load(path) is rebuilt

    def test_a_failed_load_is_not_kept(self, tmp_path, empty_memo):
        kept = empty_memo()
        data = mdp_to_json(constant_cost_mdp(gamma=0.5))
        good = json.dumps(data)
        path = tmp_path / "mdp.json"
        path.write_text(good)
        spec = load_mdp(str(path))
        path.write_text(json.dumps({**data, "kernel": [[0.5, 0.6], [0.5, 0.5]]}))
        messages = []
        for _ in range(2):
            with pytest.raises(InputFormatError) as exc:
                load_mdp(str(path))
            messages.append(str(exc.value))
        assert messages[0] == messages[1] and "kernel row 0 sums to" in messages[0]
        assert [raw for raw, _ in kept.entries.values()] == [good.encode()]
        path.write_text(good)  # the bytes of the kept spec again
        assert load_mdp(str(path)) is spec
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputFormatError):
            load_stagewise(str(bad))
        assert len(kept.entries) == 1

    def test_eviction_is_least_recently_used_within_the_budget(self, tmp_path):
        from multistage.exceptions import _Kept
        from multistage.dp_solvers import mdp_from_json

        paths = []
        for name, gamma in [("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", 0.4)]:
            data = mdp_to_json(constant_cost_mdp(gamma=gamma))
            paths.append(write_json(tmp_path / f"{name}.json", data))
        size = os.stat(paths[0]).st_size
        assert all(os.stat(p).st_size == size for p in paths)
        kept = _Kept(3 * size - 1)  # room for two files, not three
        a, b, c, d = paths
        specs = {p: kept.load(p, mdp_from_json) for p in (a, b)}
        assert kept.load(a, mdp_from_json) is specs[a]  # a is now the most recent
        specs[c] = kept.load(c, mdp_from_json)  # evicts b, the least recently used
        assert [p for _, p in kept.entries] == [a, c] and kept.size == 2 * size
        assert kept.load(c, mdp_from_json) is specs[c]
        assert kept.load(b, mdp_from_json) is not specs[b]  # rebuilt; evicts a
        assert [p for _, p in kept.entries] == [c, b]
        small = _Kept(size - 1)  # no file fits
        assert small.load(d, mdp_from_json).gamma == 0.4
        assert not small.entries and small.size == 0

    def test_threads_sharing_the_memo_keep_its_size_exact(self, tmp_path):
        import threading

        from multistage.exceptions import _Kept
        from multistage.dp_solvers import mdp_from_json

        gammas = [0.1, 0.2, 0.3, 0.4, 0.6]
        paths = [write_json(tmp_path / f"m{k}.json", mdp_to_json(constant_cost_mdp(gamma=g)))
                 for k, g in enumerate(gammas)]
        kept = _Kept(2 * os.stat(paths[0]).st_size + 10)  # two files at a time: evictions
        wrong = []

        def work(k):
            for i in range(40):
                j = (k + i) % len(paths)
                if kept.load(paths[j], mdp_from_json).gamma != gammas[j]:
                    wrong.append((k, i))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and wrong == []
        assert kept.size == sum(len(raw) for raw, _ in kept.entries.values()) <= kept.budget

    def test_a_file_over_the_budget_is_not_kept(self, tmp_path, empty_memo):
        kept = empty_memo()
        path = tmp_path / "mdp.json"
        small = write_json(tmp_path / "small.json", mdp_to_json(constant_cost_mdp(gamma=0.5)))
        load_mdp(small)
        text = json.dumps(mdp_to_json(constant_cost_mdp(gamma=0.5)))
        path.write_text(text + " " * (kept.budget + 1 - len(text)))  # JSON whitespace
        spec = load_mdp(str(path))
        assert spec.gamma == 0.5 and load_mdp(str(path)) is not spec
        assert [p for _, p in kept.entries] == [small]

    def test_kept_arrays_are_read_only(self, tmp_path, empty_memo):
        (_, mdp_path), (_, sddp_path) = self.files(tmp_path)
        data = {**mdp_to_json(constant_cost_mdp(gamma=0.5)), "stage_costs": [ONES, ONES]}
        staged = load_mdp(write_json(tmp_path / "staged.json", data))
        spec = load_stagewise(sddp_path)
        arrays = [load_mdp(mdp_path).kernel, load_mdp(mdp_path).cost, *staged.stage_costs,
                  *(spec.step_array(t) for t in range(spec.horizon))]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 7.0

    def test_a_callers_array_stays_writable(self):
        from multistage.dp_solvers import MDPSpec

        kernel, cost = np.full((2, 2), 0.5), np.ones((2, 2, 1))
        mdp = MDPSpec(states=((0.0,), (1.0,)), actions=((0.0,),), kernel=kernel, cost=cost,
                      gamma=0.5, bound_K=1.0, stage_costs=(cost,))
        assert kernel.flags.writeable and cost.flags.writeable
        kernel[0, 0] = 7.0
        cost[0, 0, 0] = 7.0
        assert mdp.kernel[0, 0] == 0.5 and mdp.cost[0, 0, 0] == mdp.stage_costs[0][0, 0, 0] == 1.0
        assert not mdp.kernel.flags.writeable



class TestKeptBundlesAndPolicies:
    """``load_bundle`` and ``load_policy`` go through the same memo as
    ``load_mdp``: a bundle file is built, and its validation run, once while
    its bytes stay the same, and what they share is read-only."""

    @staticmethod
    def bundle_data(holder=None) -> dict:
        fx = recourse_fixture()
        data = bundle_to_json(ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"],
                                            policies={"p": fx["optimal_policy"]}))
        if holder is not None:
            data["cost"]["holder"] = holder
        return data

    def files(self, tmp_path):
        fx = recourse_fixture()
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(self.bundle_data()))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(policy_to_json(fx["optimal_policy"])))
        return [(load_bundle, str(bundle)), (load_policy, str(policy))]

    def test_identical_bytes_return_the_same_object(self, tmp_path, empty_memo):
        files = self.files(tmp_path)
        for load, path in files:
            built = load(path)
            Path(path).write_bytes(Path(path).read_bytes())  # rewritten, same bytes
            assert load(path) is built
        bundle_path = files[0][1]
        assert load_bundle_or_tree(bundle_path) is load_bundle(bundle_path)  # one entry

    def test_bytes_rewritten_under_the_same_size_and_mtime_are_rebuilt(self, tmp_path, empty_memo):
        for load, path in self.files(tmp_path):
            built = load(path)
            before, text = os.stat(path), Path(path).read_text()
            edited = text.replace('"decisions": {"0": [1.0]', '"decisions": {"0": [0.0]')
            assert edited != text
            Path(path).write_text(edited)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            after = os.stat(path)
            assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
            rebuilt = load(path)
            policy, rebuilt_policy = ((built.policies["p"], rebuilt.policies["p"])
                                      if load is load_bundle else (built, rebuilt))
            assert (policy.decisions[0], rebuilt_policy.decisions[0]) == ((1.0,), (0.0,))
            assert load(path) is rebuilt

    def test_a_failed_load_is_not_kept(self, tmp_path, empty_memo):
        kept = empty_memo()
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({**self.bundle_data(), "policy_class": {"kind": "x"}}))
        tree = write_json(tmp_path / "tree.json", tree_to_json(chain_tree([0.0, 1.0])))
        for load in (load_bundle, load_policy):
            with pytest.raises(InputFormatError, match="bad.json"):
                load(str(bad))
        for _ in range(2):
            with pytest.raises(InputFormatError, match="malformed policy class JSON"):
                load_bundle(str(broken))
            with pytest.raises(InputFormatError, match="^bundle JSON is missing 'tree'$"):
                load_bundle(tree)
            assert isinstance(load_bundle_or_tree(tree), ScenarioTree)
        assert not kept.entries

    def test_an_invalid_bundle_reads_the_same_on_every_call(self, tmp_path, capsys, empty_memo):
        path = write_json(tmp_path / "holder.json",
                          self.bundle_data({"C": 1e-6, "alpha": 1.0, "delta": 10.0}))
        bundle = load_bundle(path)
        problems = bundle.validate()
        assert problems and problems == bundle.validate() and problems is not bundle.validate()
        problems.append("edited")  # a caller's list: the bundle's problems stay as found
        assert bundle.validate() == problems[:-1]
        outcomes = []
        for _ in range(2):
            for command in (["solve"], ["verify"], ["validate"], ["validate", "--json"]):
                code = main([*command, "--input", path])
                outcomes.append((command, code, *capsys.readouterr()))
        assert outcomes[:4] == outcomes[4:] and load_bundle(path) is bundle
        (_, solve, _, solve_err), (_, verify, _, verify_err) = outcomes[:2]
        assert solve == verify == 3 and solve_err == verify_err
        assert solve_err.startswith("input error: invalid bundle: declared Hoelder bound violated")
        assert [code for _, code, _, _ in outcomes[2:4]] == [1, 1]

    def test_the_hoelder_check_runs_once_per_kept_bundle(self, tmp_path, monkeypatch, empty_memo):
        import multistage.bundle

        calls = []

        def counted(*args, real=multistage.bundle.verify_holder):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(multistage.bundle, "verify_holder", counted)
        path = write_json(tmp_path / "holder.json",
                          self.bundle_data({"C": 1e6, "alpha": 1.0, "delta": 10.0}))
        with contextlib.redirect_stdout(io.StringIO()):
            for command in (["validate"], ["solve"], ["verify"], ["dynamic-check"], ["solve"]):
                assert main([*command, "--input", path]) == 0
        assert load_bundle(path).validate() == [] and len(calls) == 1
        Path(path).write_text(Path(path).read_text() + " ")  # other bytes: built again
        assert main(["validate", "--input", path]) == 0 and len(calls) == 2

    def test_kept_objects_are_read_only(self, tmp_path, empty_memo):
        (_, bundle_path), (_, policy_path) = self.files(tmp_path)
        bundle, policy = load_bundle(bundle_path), load_policy(policy_path)
        for mapping, key in [(bundle.policies, "q"), (bundle.policies["p"].decisions, 0),
                             (policy.decisions, 0), (bundle.cls.feasible, 0)]:
            with pytest.raises(TypeError):
                mapping[key] = mapping.get(key)
        with pytest.raises(AttributeError):
            bundle.tree = None
        with pytest.raises(AttributeError, match="read-only"):
            bundle.tree.horizon = 7
        assert load_bundle(bundle_path) is bundle and load_policy(policy_path) is policy
        assert load_bundle(bundle_path).tree.horizon == 1
        assert bundle.policies["p"] == policy and policy.decisions == {0: (1.0,), 1: (1.0,),
                                                                       2: (1.0,)}

    def test_kept_objects_pickle_and_deep_copy(self, tmp_path, empty_memo):
        (_, bundle_path), (_, policy_path) = self.files(tmp_path)
        bundle, policy = load_bundle(bundle_path), load_policy(policy_path)
        assert bundle.validate() == []
        twin = copy.deepcopy(bundle)
        assert twin is not bundle and twin.tree is not bundle.tree
        assert (twin.tree.nodes, twin.cls, twin.policies) == (
            bundle.tree.nodes, bundle.cls, bundle.policies)
        assert twin.validate() == [] and type(twin.policies) is type(bundle.policies)
        for original in (policy, bundle.cls, *bundle.policies.values()):
            assert pickle.loads(pickle.dumps(original)) == original
        assert load_bundle(bundle_path) is bundle and load_policy(policy_path) is policy

    def test_validate_names_the_file_of_a_json_array(self, tmp_path, capsys, empty_memo):
        kept = empty_memo()
        path = write_json(tmp_path / "array.json", [1, 2])
        for _ in range(2):
            assert main(["validate", "--input", path]) == 3
            assert capsys.readouterr() == (
                "", f"input error: {path} must be a JSON object, got list\n")
        with pytest.raises(InputFormatError, match="^bundle must be a JSON object, got list$"):
            load_bundle(path)
        assert not kept.entries


class TestMdpCommands:
    def test_mdp_solve_constant_cost(self, tmp_path, capsys):
        path = write_json(tmp_path / "mdp.json", mdp_to_json(constant_cost_mdp(gamma=0.5)))
        code = main(["mdp-solve", "--input", path, "--horizon", "3", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"][0] == pytest.approx([1.75, 1.75])

    def test_value_iterate_constant_cost(self, tmp_path, capsys):
        path = write_json(tmp_path / "mdp.json", mdp_to_json(constant_cost_mdp(gamma=0.5)))
        code = main(["value-iterate", "--input", path, "--tolerance", "1e-8", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"] == pytest.approx([2.0, 2.0], abs=1e-8)
        ratios = [
            b / a for a, b in zip(report["residuals"], report["residuals"][1:]) if a > 0
        ]
        assert all(r <= 0.5 + 1e-9 for r in ratios)

    def test_value_iterate_gamma_zero_single_iteration(self, tmp_path, capsys):
        mdp = random_mdp(rng_from_seed(5), gamma=0.0)
        path = write_json(tmp_path / "mdp0.json", mdp_to_json(mdp))
        code = main(["value-iterate", "--input", path, "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["iterations"] == 1

    def test_value_iterate_budget_exhaustion_exits_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "mdp.json", mdp_to_json(constant_cost_mdp(gamma=0.9)))
        code = main(
            ["value-iterate", "--input", path, "--max-iters", "2", "--json"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is False
        assert len(report["residuals"]) == 2

    def test_negative_horizon_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "mdp.json", mdp_to_json(constant_cost_mdp(gamma=0.5)))
        assert main(["mdp-solve", "--input", path, "--horizon", "-1"]) == 3
        assert "horizon -1" in capsys.readouterr().err

    def test_a_horizon_past_the_entry_cap_exits_three_before_any_stage(
        self, tmp_path, capsys, monkeypatch
    ):
        # (10^7 + 1) value entries of one state exceed DEFAULT_ENUMERATION_CAP = 10^7
        path = write_json(tmp_path / "mdp.json", mdp_to_json(constant_cost_mdp(n_states=1)))
        monkeypatch.setattr("multistage.dp_solvers._bellman_min",
                            lambda *args: pytest.fail("a stage ran past the cap"))
        assert main(["mdp-solve", "--input", path, "--horizon", str(10**7)]) == 3
        assert capsys.readouterr() == (
            "", "enumeration too large: enumeration of 10000001 items exceeds the cap of 10000000\n")

    @pytest.mark.parametrize(
        "actions_by_state",
        [[[0]], [[0], []], [[0], [1]], [[0], [-1]], [[0.7], [0]], [["0"], [0]]],
        ids=[
            "missing-row", "empty-row", "index-too-large", "index-negative",
            "index-fractional", "index-string",
        ],
    )
    @pytest.mark.parametrize("command", ["mdp-solve", "value-iterate"])
    def test_malformed_actions_by_state_exits_three(
        self, tmp_path, capsys, command, actions_by_state
    ):
        data = mdp_to_json(constant_cost_mdp(gamma=0.5))
        data["actions_by_state"] = actions_by_state
        path = write_json(tmp_path / "mdp.json", data)
        args = [command, "--input", path, "--json"]
        if command == "mdp-solve":
            args += ["--horizon", "2"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "actions_by_state" in captured.err

    @pytest.mark.parametrize("case", sorted(SPOILED_MDPS))
    @pytest.mark.parametrize("command", ["mdp-solve", "value-iterate"])
    def test_non_finite_or_empty_mdp_exits_three(self, tmp_path, capsys, command, case):
        fields, message = SPOILED_MDPS[case]
        data = {**mdp_to_json(constant_cost_mdp(gamma=0.5)), **fields}
        path = write_json(tmp_path / "mdp.json", data)
        args = [command, "--input", path, "--json"]
        if command == "mdp-solve":
            args += ["--horizon", "2"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("case", sorted(NON_NUMBER_MDPS))
    @pytest.mark.parametrize("command", [["mdp-solve", "--horizon", "2"], ["value-iterate"]])
    def test_a_non_number_array_entry_exits_three(self, tmp_path, capsys, command, case):
        fields, message = NON_NUMBER_MDPS[case]
        data = {**mdp_to_json(constant_cost_mdp(gamma=0.5)), **fields}
        path = write_json(tmp_path / "mdp.json", data)
        assert main([*command, "--input", path]) == 3
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "flags",
        [["--tolerance", "nan"], ["--tolerance", "-1"], ["--max-iters", "0"],
         ["--max-iters", "-3"]],
        ids=["nan-tolerance", "negative-tolerance", "zero-iterations", "negative-iterations"],
    )
    def test_invalid_value_iterate_arguments_exit_three(self, tmp_path, capsys, flags):
        path = write_json(tmp_path / "mdp.json", mdp_to_json(constant_cost_mdp(gamma=0.5)))
        assert main(["value-iterate", "--input", path, "--json", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")

    def test_value_iterate_zero_tolerance_is_allowed(self, tmp_path, capsys):
        path = write_json(tmp_path / "mdp.json", mdp_to_json(constant_cost_mdp(gamma=0.5)))
        code = main(["value-iterate", "--input", path, "--tolerance", "0", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residuals"][-1] == 0.0
        assert len(report["rounding_bounds"]) == len(report["residuals"])

    @pytest.mark.parametrize(
        "args",
        [["mdp-solve", "--horizon", "0"], ["mdp-solve", "--horizon", "1"], ["value-iterate"]],
        ids=["horizon-0", "horizon-1", "value-iterate"],
    )
    def test_an_mdp_without_a_cost_exits_three(self, tmp_path, capsys, args):
        data = mdp_to_json(constant_cost_mdp(gamma=0.5))
        del data["cost"]
        path = write_json(tmp_path / "mdp.json", data)
        assert main([*args, "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert "the MDP defines neither cost nor stage_costs" in captured.err

    def test_kernel_violation_exits_three(self, tmp_path):
        data = mdp_to_json(constant_cost_mdp(gamma=0.5))
        data["kernel"][0][0] = 0.9
        path = write_json(tmp_path / "bad.json", data)
        assert main(["mdp-solve", "--input", path, "--horizon", "1"]) == 3


class TestSddpCommand:
    def test_sddp_solve_matches_library_recursion(self, tmp_path, capsys):
        from multistage import sddp_recursion

        spec = random_sddp(rng_from_seed(8), horizon=3)
        path = write_json(tmp_path / "sddp.json", document(spec))
        code = main(["sddp-solve", "--input", path, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        expected = sddp_recursion(spec)[0][0][0]
        assert report["root_value"] == pytest.approx(expected, abs=1e-12)


    @pytest.mark.parametrize(
        "variable, message",
        [
            (["z", 0, 1], "component 0 of role 'z'"),
            (["u", 3, 1], "component 3 of role 'u'"),
        ],
        ids=["unknown-role", "component-out-of-range"],
    )
    def test_malformed_step_cost_term_exits_three(
        self, tmp_path, capsys, variable, message
    ):
        payload = document(random_sddp(rng_from_seed(8), horizon=2))
        payload["cost"]["poly"]["terms"].append({"coef": 1.0, "vars": [variable]})
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "role, where", [("u", "stage_decisions"), ("w", "stage_noise")]
    )
    def test_negative_power_of_a_zero_value_is_rejected_at_load(
        self, tmp_path, capsys, role, where
    ):
        payload = document(random_sddp(rng_from_seed(8), horizon=2))
        if where == "stage_decisions":
            payload[where][1][0] = [0.0]
        else:
            payload[where][1][0]["value"] = [0.0]
        term = {"coef": 1.0, "vars": [[role, 0, -1]]}
        payload["cost"]["poly"]["terms"].append(term)
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step-cost term 4" in captured.err

    def test_negative_noise_probability_exits_three(self, tmp_path, capsys):
        # [0.48, 0.52] -> [1.48, -0.48]: still sums to 1
        payload = document(random_sddp(rng_from_seed(8), horizon=2))
        atoms = payload["stage_noise"][0]
        atoms[0]["prob"] += 1.0
        atoms[1]["prob"] -= 1.0
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stage 1 noise atom 1 has negative probability" in captured.err

    def test_zero_noise_probability_is_allowed(self, tmp_path, capsys):
        payload = document(random_sddp(rng_from_seed(8), horizon=2))
        atoms = payload["stage_noise"][0]
        atoms[0]["prob"] = 1.0
        atoms[1]["prob"] = 0.0
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["root_value"] is not None

    def test_negative_power_of_a_zero_state_exits_three(self, tmp_path, capsys):
        payload = document(random_sddp(rng_from_seed(8), horizon=2))
        payload["initial_state"] = [0.0]
        payload["cost"]["poly"]["terms"].append({"coef": 1, "vars": [["x", 0, -1]]})
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step-cost term 4" in captured.err
        assert "Traceback" not in captured.err

    def test_overflowing_step_cost_term_exits_three(self, tmp_path, capsys):
        payload = document(random_sddp(rng_from_seed(8), horizon=2))
        payload["stage_decisions"][0][0] = [10.0]
        payload["cost"]["poly"]["terms"].append({"coef": 1.0, "vars": [["u", 0, 400]]})
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step-cost term 4" in captured.err
        assert "Traceback" not in captured.err

    def test_non_finite_step_cost_exits_three(self, tmp_path, capsys):
        payload = document(random_sddp(rng_from_seed(8), horizon=2))
        payload["cost"]["poly"]["terms"] += [{"coef": 1e308, "vars": []}] * 2
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step cost of stage 1 evaluated to inf" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 1.0, -1.0])
    def test_discount_outside_the_unit_interval_exits_three(self, tmp_path, capsys, gamma):
        payload = dict(document(random_sddp(rng_from_seed(8), horizon=2)), gamma=gamma)
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside (-1, 1)" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_table_entry_names_state_noise_and_decision(self, tmp_path, capsys):
        spec = random_sddp(rng_from_seed(8), horizon=1)
        x, u = spec.initial_state, spec.stage_decisions[0][0]
        entries = [
            {"x": list(x), "w": list(w), "u": list(v), "value": 1.0}
            for w in spec.support(1)
            for v in spec.stage_decisions[0]
        ]
        missing = entries.pop(0)
        payload = dict(document(spec), cost={"table": {"entries": entries}})
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert missing["u"] == list(u)
        for value in (x[0], missing["w"][0], u[0]):
            assert repr(value) in captured.err


    def test_a_table_that_misses_a_step_exits_three_before_the_recursion(
        self, tmp_path, capsys, monkeypatch
    ):
        import multistage.cli as cli

        entries = [
            {"x": [0.0], "w": [w], "u": [u], "value": w - u}
            for w in (1.0, 2.0) for u in (0.0, 1.0)
        ]
        payload = {
            "initial_state": [0.0], "horizon": 1, "gamma": 0.9,
            "stage_noise": [[{"prob": 0.5, "value": [1.0]}, {"prob": 0.5, "value": [2.0]}]],
            "stage_decisions": [[[0.0], [1.0]]],
            "cost": {"table": {"entries": entries[:-1]}},
        }
        path = write_json(tmp_path / "gap.json", payload)
        solved = []
        monkeypatch.setattr(cli, "sddp_recursion", lambda spec: solved.append(spec))
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, solved) == ("", [])
        assert captured.err.startswith(
            "input error: stage 0 step-cost table: "
            "no table entry matches x=((0.0,), (2.0,)), u=((1.0,),)"
        )
        monkeypatch.undo()
        full = write_json(tmp_path / "full.json", dict(payload, cost={"table": {"entries": entries}}))
        assert main(["sddp-solve", "--input", full, "--json"]) == 0

    def test_a_table_is_matched_once_per_stage(self, tmp_path, capsys, monkeypatch, empty_memo):
        # the load check and the recursion read the same step arrays
        import multistage.dp_solvers as dp
        from test_golden_reports import sddp_table

        payload = sddp_table(32)
        step_array = dp._step_array
        steps = []  # (states, noise values) of every call; they differ stage by stage

        def counted(cost, states, outcomes, decisions):
            steps.append((states, outcomes))
            return step_array(cost, states, outcomes, decisions)

        monkeypatch.setattr(dp, "_step_array", counted)
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 0
        assert len(steps) == len(set(steps)) == payload["horizon"]

    def test_an_empty_decision_grid_exits_three_before_the_recursion(
        self, tmp_path, capsys, monkeypatch
    ):
        import multistage.cli as cli

        payload = {
            "initial_state": [0.0], "horizon": 1, "gamma": 0.9,
            "stage_noise": [[{"prob": 1.0, "value": [1.0]}]],
            "stage_decisions": [[]],
            "cost": {"poly": {"terms": [{"coef": 1.0, "vars": [["w", 0, 2]]}]}},
        }
        path = write_json(tmp_path / "empty.json", payload)
        solved = []
        monkeypatch.setattr(cli, "sddp_recursion", lambda spec: solved.append(spec))
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, solved) == ("", [])
        assert captured.err == (
            "input error: stage 0 has an empty decision grid\n"
        )


class TestTruncatedJson:
    """A file that is not JSON is an input error that names the file, whichever
    command reads it."""

    @staticmethod
    def truncated(tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data)[:12])
        return str(path)

    @pytest.mark.parametrize("command, extra", [
        ("validate", []),
        ("solve", []),
        ("mdp-solve", ["--horizon", "2"]),
        ("value-iterate", []),
        ("sddp-solve", []),
    ])
    def test_the_input_file_is_named(self, tmp_path, capsys, recourse_bundle, command, extra):
        data = {
            "mdp-solve": mdp_to_json(constant_cost_mdp(n_states=2, gamma=0.5)),
            "value-iterate": mdp_to_json(constant_cost_mdp(n_states=2, gamma=0.5)),
            "sddp-solve": document(random_sddp(rng_from_seed(8), horizon=2)),
        }.get(command) or json.loads(Path(recourse_bundle["bundle"]).read_text())
        path = self.truncated(tmp_path, "cut.json", data)
        assert main([command, "--input", path, *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {path}: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["verify", "dynamic-check"])
    def test_the_policy_file_is_named(self, tmp_path, capsys, recourse_bundle, command):
        policy = json.loads(Path(recourse_bundle["optimal"]).read_text())
        path = self.truncated(tmp_path, "policy.json", policy)
        assert main([command, "--input", recourse_bundle["bundle"], "--policy", path]) == 3
        assert capsys.readouterr().err.startswith(f"input error: {path}: ")

    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"states": "\xe9"}')
        assert main(["mdp-solve", "--input", str(path), "--horizon", "1"]) == 3
        assert capsys.readouterr().err.startswith(f"input error: {path}: ")


class TestDeepNesting:
    """A file nested deeper than Python's recursion limit is an input error
    (exit 3, no traceback), whether the decode or the build reaches the limit."""

    def run(self, tmp_path, capsys, text, command):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code = main([*command, "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "Traceback" not in captured.err
        return str(path), captured.err

    def test_validate_a_deep_array(self, tmp_path, capsys):
        path, err = self.run(tmp_path, capsys, "[" * 5000 + "]" * 5000, ["validate"])
        assert err == f"input error: {path} must be a JSON object, got list\n"

    def test_mdp_solve_a_deep_array(self, tmp_path, capsys):
        text = "[" * 1000 + "]" * 1000
        _, err = self.run(tmp_path, capsys, text, ["mdp-solve", "--horizon", "1"])
        assert err.startswith("input error: malformed MDP JSON: ")

    @pytest.mark.parametrize("command", [["validate"], ["solve"]])
    def test_a_deep_node_obs_entry(self, tmp_path, capsys, command):
        """The decode reads it; the build's message would print the entry."""
        text = json.dumps(recourse_payload()).replace(
            '"obs": [0.0]', '"obs": ' + "[" * 3000 + "]" * 3000, 1)
        path, err = self.run(tmp_path, capsys, text, command)
        assert err == f"input error: {path}: nested too deeply to read\n"

    def test_validate_a_tree_file_with_a_deep_node_obs_entry(self, tmp_path, capsys, empty_memo):
        """A file without a ``tree`` is read as a tree, under the same guard."""
        kept = empty_memo()
        text = json.dumps(recourse_payload()["tree"]).replace(
            '"obs": [0.0]', '"obs": ' + "[" * 3000 + "]" * 3000, 1)
        for _ in range(2):
            path, err = self.run(tmp_path, capsys, text, ["validate"])
            assert err == f"input error: {path}: nested too deeply to read\n"
        assert not kept.entries

    def test_a_deep_array_that_json_decodes(self, tmp_path, capsys):
        path, err = self.run(tmp_path, capsys, "[" * 5000 + "NaN" + "]" * 5000, ["validate"])
        assert err == f"input error: {path}: nested too deeply to read\n"


class TestHorizonLimit:
    """solve, verify and dynamic-check evaluate horizons up to MAX_HORIZON and
    exit 3 naming it beyond; validate still calls such a tree valid, unless
    its cost must be evaluated to check it (a table, a Hoelder declaration).
    Past the limit the library raises an error that names it."""

    COMMANDS = [["solve", "--method", "backward"], ["solve", "--method", "brute"],
                ["verify"], ["dynamic-check"]]

    @staticmethod
    def chain(tmp_path, horizon, **cost):
        """A chain of ``horizon`` stages, one candidate 0.0 per node and cost u_0^2."""
        tree = chain_tree([0.0] * (horizon + 1))
        square = {"terms": [{"coef": 1.0, "vars": [["u", 0, 0, 2]]}]}
        zero = {n.id: ((0.0,),) for n in tree.nodes}
        bundle = ProblemBundle(
            tree=tree,
            cost=load_cost({"form": "general", "poly": square, **cost}),
            cls=PolicyClass(feasible=zero, kind="nodewise", decision_dim=1),
            policies={"only": Policy(decisions={i: g[0] for i, g in zero.items()},
                                     decision_dim=1)},
        )
        return write_json(tmp_path / f"chain{horizon}.json", bundle_to_json(bundle))

    def table_chain(self, tmp_path, horizon):
        """The chain with a one-entry ``table`` cost in place of the polynomial."""
        data = json.loads(Path(self.chain(tmp_path, horizon)).read_text())
        stages = [[0.0]] * (horizon + 1)
        data["cost"] = {"form": "general",
                        "table": {"entries": [{"x": stages, "u": stages, "value": 0.0}]}}
        return write_json(tmp_path / f"table{horizon}.json", data)

    @pytest.mark.parametrize("command", [["validate"], *COMMANDS], ids=" ".join)
    def test_the_longest_horizon_is_evaluated(self, tmp_path, capsys, command):
        assert main([*command, "--input", self.chain(tmp_path, 61)]) == 0

    @pytest.mark.parametrize("horizon", [62, 63])
    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_a_longer_horizon_exits_three(self, tmp_path, capsys, command, horizon):
        assert main([*command, "--input", self.chain(tmp_path, horizon)]) == 3
        assert capsys.readouterr().err == (
            f"input error: tree horizon {horizon} exceeds 61, the longest that solve, "
            "verify and dynamic-check evaluate\n"
        )

    @pytest.mark.parametrize("horizon", [62, 63])
    def test_validate_calls_a_longer_chain_valid(self, tmp_path, capsys, horizon):
        path = self.chain(tmp_path, horizon)
        assert main(["validate", "--input", path]) == 0
        assert capsys.readouterr().out == f"OK: {path}\n"

    def test_validate_evaluates_a_table_up_to_the_limit(self, tmp_path, capsys):
        path = self.table_chain(tmp_path, 61)
        assert main(["validate", "--input", path]) == 0
        assert capsys.readouterr().out == f"OK: {path}\n"

    @pytest.mark.parametrize("horizon", [62, 63])
    def test_a_table_past_the_limit_is_a_violation(self, tmp_path, capsys, horizon):
        path = self.table_chain(tmp_path, horizon)
        assert main(["validate", "--input", path]) == 1
        assert capsys.readouterr() == (
            f"INVALID: {path}\nhorizon {horizon} exceeds 61, the longest that is evaluated\n", ""
        )

    @pytest.mark.parametrize("entry", [
        "backward_tables", "brute_force_optimum", "verify_policy",
        "check_dynamic_relations", "verify_holder",
    ])
    def test_the_library_names_the_limit(self, tmp_path, entry):
        bundle = load_bundle(self.table_chain(tmp_path, 63))
        tree, cost, cls, policy = bundle.tree, bundle.cost, bundle.cls, bundle.policies["only"]
        calls = {
            "backward_tables": lambda: backward_tables(tree, cost, cls),
            "brute_force_optimum": lambda: brute_force_optimum(tree, cost, cls),
            "verify_policy": lambda: verify_policy(tree, cost, cls, policy),
            "check_dynamic_relations": lambda: check_dynamic_relations(tree, cost, cls, policy),
            "verify_holder": lambda: verify_holder(tree, cls, cost, 1.0, 1.0, 1.0),
        }
        limit = "^horizon 63 exceeds 61, the longest that is evaluated$"
        with pytest.raises(MultistageError, match=limit):
            calls[entry]()

    def test_a_hoelder_declaration_past_the_limit_is_a_violation(self, tmp_path, capsys):
        holder = {"C": 10.0, "alpha": 1.0, "delta": 1.0}
        assert main(["validate", "--input", self.chain(tmp_path, 61, holder=holder)]) == 0
        path = self.chain(tmp_path, 63, holder=holder)
        assert main(["validate", "--input", path]) == 1
        assert capsys.readouterr().out.endswith(
            "declared Hoelder bound cannot be checked: horizon 63 exceeds 61, "
            "the longest that is evaluated\n"
        )


class TestTopLevelNotAnObject:
    """Every file a subcommand reads holds a JSON object at its top level; a
    list, string, number or null is an input error that says so (exit 3, no
    traceback)."""

    DOCUMENTS = ["[1, 2]", '"text"', "3", "null"]
    #: command -> the start of its error message
    COMMANDS = {
        "validate": "input error: ", "solve": "input error: bundle ",
        "verify": "input error: bundle ", "dynamic-check": "input error: bundle ",
        "mdp-solve": "input error: malformed MDP JSON: ",
        "value-iterate": "input error: malformed MDP JSON: ",
        "sddp-solve": "input error: malformed stagewise-independent JSON: ",
    }

    @staticmethod
    def expect(capsys, argv, start):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith(start)
        assert " must be a JSON object, got " in captured.err

    @pytest.mark.parametrize("document", DOCUMENTS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_an_input_file(self, tmp_path, capsys, command, document):
        path = tmp_path / "top.json"
        path.write_text(document)
        horizon = ["--horizon", "1"] if command == "mdp-solve" else []
        self.expect(capsys, [command, "--input", str(path), *horizon], self.COMMANDS[command])

    @pytest.mark.parametrize("document", DOCUMENTS)
    @pytest.mark.parametrize("command", ["verify", "dynamic-check"])
    def test_a_policy_file(self, tmp_path, capsys, command, document):
        bundle = write_json(tmp_path / "bundle.json", recourse_payload())
        path = tmp_path / "policy.json"
        path.write_text(document)
        argv = [command, "--input", bundle, "--policy", str(path)]
        self.expect(capsys, argv, "input error: policy ")


class TestNodeKeys:
    """A node key that is not the canonical decimal form of its id ("01",
    " 1", "+1") is an input error that names it: "01" and "1" would
    otherwise name one node, and the last in the file would win."""

    @staticmethod
    def with_key(tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))  # the extra key last, as appended
        return str(path)

    @staticmethod
    def policy(key):
        policy = policy_to_json(recourse_fixture()["optimal_policy"])
        policy["decisions"][key] = [0.0]
        return policy

    def expect(self, capsys, what, key):
        captured = capsys.readouterr()
        assert captured.out == ""
        canonical = str(int(key))
        assert captured.err == (
            f"input error: {what} node key {key!r} must be written {canonical!r}\n"
        )

    @pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0"])
    def test_a_policy_file(self, tmp_path, capsys, key):
        bundle = write_json(tmp_path / "bundle.json", recourse_payload())
        path = self.with_key(tmp_path, "policy.json", self.policy(key))
        assert main(["verify", "--input", bundle, "--policy", path]) == 3
        self.expect(capsys, "policy", key)

    @pytest.mark.parametrize("command", ["validate", "verify"])
    def test_a_bundle_policy(self, tmp_path, capsys, command):
        data = {**recourse_payload(), "policies": {"opt": self.policy("01")}}
        assert main([command, "--input", self.with_key(tmp_path, "bundle.json", data)]) == 3
        self.expect(capsys, "policy", "01")

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_a_class(self, tmp_path, capsys, command):
        data = recourse_payload()
        data["policy_class"]["feasible"]["01"] = [[0.0]]
        assert main([command, "--input", self.with_key(tmp_path, "bundle.json", data)]) == 3
        self.expect(capsys, "policy class", "01")


BAD_ATOLS = {"nan": float("nan"), "infinity": float("inf"), "negative": -1e-9}


class TestTableAtol:
    """A table's atol must be finite and >= 0 where it is loaded."""

    @staticmethod
    def bundle(atol):
        """A full general table whose first entry (value 1.0) is not the optimum."""
        entries = [
            {"x": [[0.5], [obs]], "u": [[u0], [u1]], "value": 1.0 + u0 + u1 - obs}
            for obs in (1.0, 2.0) for u0 in (0.0, 1.0) for u1 in (0.0, 1.0)
        ]
        return malformed_cost_bundle(
            {"form": "general", "table": {"entries": entries, "atol": atol}}
        )

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("atol", sorted(BAD_ATOLS))
    def test_bundle_commands_exit_three(self, tmp_path, capsys, atol, command):
        path = write_json(tmp_path / "bad.json", self.bundle(BAD_ATOLS[atol]))
        assert main([command, "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "atol" in captured.err
        assert "Traceback" not in captured.err

    def test_a_valid_atol_solves(self, tmp_path, capsys):
        path = write_json(tmp_path / "ok.json", self.bundle(1e-9))
        assert main(["solve", "--input", path, "--json"]) == 0
        # the optimum puts u_0 = 0 and u_1 = 0 on both leaves: 1 - 1.5
        assert json.loads(capsys.readouterr().out)["value"] == -0.5

    @pytest.mark.parametrize("atol", sorted(BAD_ATOLS))
    def test_sddp_solve_exits_three(self, tmp_path, capsys, atol):
        spec = random_sddp(rng_from_seed(8), horizon=1)
        entries = [
            {"x": list(spec.initial_state), "w": list(w), "u": list(u), "value": float(k)}
            for k, (w, u) in enumerate(
                (w, u) for w in spec.support(1) for u in spec.stage_decisions[0]
            )
        ]
        table = {"entries": entries, "atol": BAD_ATOLS[atol]}
        path = write_json(tmp_path / "sddp.json", dict(document(spec), cost={"table": table}))
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "atol" in captured.err
        assert "Traceback" not in captured.err


class TestTableKeys:
    """A table must be an object with entries, and every key of an entry finite."""

    @staticmethod
    def stagewise(table):
        spec = random_sddp(rng_from_seed(8), horizon=1)
        return dict(document(spec), cost={"table": table})

    @staticmethod
    def stagewise_entries():
        spec = random_sddp(rng_from_seed(8), horizon=1)
        return [
            {"x": list(spec.initial_state), "w": list(w), "u": list(u), "value": float(k)}
            for k, (w, u) in enumerate(
                (w, u) for w in spec.support(1) for u in spec.stage_decisions[0]
            )
        ]

    @staticmethod
    def assert_input_error(argv, capsys, *words):
        assert main(argv + ["--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        for word in words:
            assert word in captured.err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("table", [[1], "x"], ids=["list", "string"])
    def test_table_that_is_not_an_object(self, tmp_path, capsys, table, command):
        data = malformed_cost_bundle({"form": "general", "table": table})
        path = write_json(tmp_path / "bad.json", data)
        self.assert_input_error([command, "--input", path], capsys, "table")

    @pytest.mark.parametrize("table", [[1], "x"], ids=["list", "string"])
    def test_step_cost_table_that_is_not_an_object(self, tmp_path, capsys, table):
        path = write_json(tmp_path / "sddp.json", self.stagewise(table))
        self.assert_input_error(["sddp-solve", "--input", path], capsys, "table")

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize(
        "role, key", [("x", [[0.0], [float("nan")]]), ("u", [[float("-inf")], [0.0]])]
    )
    def test_non_finite_key(self, tmp_path, capsys, role, key, command):
        # a NaN key would match every value at its position: -100 would win
        table = TestTableAtol.bundle(1e-9)["cost"]["table"]
        table["entries"][3] = {**table["entries"][3], role: key, "value": -100.0}
        path = write_json(tmp_path / "bad.json", malformed_cost_bundle(
            {"form": "general", "table": table}))
        self.assert_input_error([command, "--input", path], capsys, "table entry 3", role)

    @pytest.mark.parametrize("role", ["x", "w", "u"])
    def test_non_finite_step_cost_key(self, tmp_path, capsys, role):
        entries = self.stagewise_entries()
        entries[2][role] = [float("nan")]
        path = write_json(tmp_path / "sddp.json", self.stagewise({"entries": entries}))
        self.assert_input_error(["sddp-solve", "--input", path], capsys, "table entry 2")

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_empty_table(self, tmp_path, capsys, command):
        path = write_json(tmp_path / "bad.json", malformed_cost_bundle(
            {"form": "general", "table": {"entries": []}}))
        self.assert_input_error([command, "--input", path], capsys, "no entries")

    def test_empty_step_cost_table(self, tmp_path, capsys):
        path = write_json(tmp_path / "sddp.json", self.stagewise({"entries": []}))
        self.assert_input_error(["sddp-solve", "--input", path], capsys, "no entries")

    def test_a_non_finite_value_stays_an_unbounded_objective(self, tmp_path, capsys):
        table = TestTableAtol.bundle(1e-9)["cost"]["table"]
        table["entries"][0]["value"] = float("inf")
        path = write_json(tmp_path / "inf.json", malformed_cost_bundle(
            {"form": "general", "table": table}))
        assert main(["validate", "--input", path]) == 0
        capsys.readouterr()
        self.assert_input_error(["solve", "--input", path], capsys, "finite")


class TestTableCoverage:
    """A table must match every grid history of its windows; a miss is a
    fault of the bundle, found when it is loaded and not in mid-solve."""

    MISS = "no table entry matches x=((0.5,), (2.0,)), u=((0.0,), (1.0,))"

    @staticmethod
    def general(*missing):
        data = TestTableAtol.bundle(1e-9)
        entries = data["cost"]["table"]["entries"]
        data["cost"]["table"]["entries"] = [e for k, e in enumerate(entries) if k not in missing]
        return data

    @staticmethod
    def additive(*missing):
        """A lag-1 stack whose one stage table reads (x_0, x_1) and (u_0,)."""
        entries = [
            {"x": [[0.5], [obs]], "u": [[u0]], "value": u0 - obs}
            for obs in (1.0, 2.0) for u0 in (0.0, 1.0)
        ]
        entries = [e for k, e in enumerate(entries) if k not in missing]
        return malformed_cost_bundle({"form": "additive", "gamma": 0.9, "lag": 1,
                                      "stage_costs": [{"table": {"entries": entries}}]})

    def test_validate_names_the_missing_history(self, tmp_path, capsys):
        path = write_json(tmp_path / "gap.json", self.general(5))
        assert main(["validate", "--input", path, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [f"cost table: {self.MISS}"]

    @pytest.mark.parametrize("command", ["solve", "verify", "dynamic-check"])
    def test_bundle_commands_exit_three_before_solving(self, tmp_path, capsys, command):
        path = write_json(tmp_path / "gap.json", self.general(5))
        assert main([command, "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: invalid bundle: cost table: {self.MISS}\n"

    def test_a_stage_table_miss_names_its_stage(self, tmp_path, capsys):
        path = write_json(tmp_path / "gap.json", self.additive(3))
        assert main(["validate", "--input", path, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [
            "stage cost 0 table: no table entry matches x=((0.5,), (2.0,)), u=((1.0,),)"
        ]

    def test_the_first_leaf_miss_is_named_whatever_the_batch_size(
        self, tmp_path, capsys, monkeypatch
    ):
        import multistage.costs as costs

        path = write_json(tmp_path / "gaps.json", self.general(1, 5))
        first = "cost table: no table entry matches x=((0.5,), (1.0,)), u=((0.0,), (1.0,))"
        for entries in (costs.LEAF_BATCH_ENTRIES, 1):
            monkeypatch.setattr(costs, "LEAF_BATCH_ENTRIES", entries)
            assert main(["validate", "--input", path, "--json"]) == 1
            assert json.loads(capsys.readouterr().out)["violations"] == [first]

    @pytest.mark.parametrize("form", ["general", "additive"])
    def test_a_full_table_stays_valid(self, tmp_path, form):
        path = write_json(tmp_path / "full.json", getattr(self, form)())
        assert main(["validate", "--input", path]) == 0
        assert main(["solve", "--input", path]) == 0


class TestNumericFlags:
    """A tolerance that is not finite or is below 0, a cap below 1, a
    negative trial count and a negative seed are input errors wherever the
    flag is taken."""

    CASES = {
        "solve-nan-tolerance": ("solve", ["--tolerance", "nan"]),
        "solve-negative-tolerance": ("solve", ["--tolerance", "-1"]),
        "verify-infinite-tolerance": ("verify", ["--tolerance", "inf"]),
        "verify-nan-tolerance": ("verify", ["--tolerance", "nan"]),
        "verify-negative-tolerance": ("verify", ["--tolerance", "-1"]),
        "dynamic-check-nan-tolerance": ("dynamic-check", ["--tolerance", "nan"]),
        "dynamic-check-negative-tolerance": ("dynamic-check", ["--tolerance", "-1"]),
        "demo-infinite-tolerance": ("demo-interchange", ["--tolerance", "inf"]),
        "value-iterate-infinite-tolerance": ("value-iterate", ["--tolerance", "inf"]),
        "solve-zero-cap": ("solve", ["--cap", "0"]),
        "verify-zero-cap": ("verify", ["--cap", "0"]),
        "dynamic-check-negative-cap": ("dynamic-check", ["--cap", "-5"]),
        "negative-trials": ("demo-interchange", ["--trials", "-3"]),
        "negative-seed": ("demo-interchange", ["--seed", "-1"]),
        "negative-seed-no-trials": ("demo-interchange", ["--seed", "-1", "--trials", "0"]),
        "negative-seed-with-trials": ("demo-interchange", ["--seed", "-1", "--trials", "1"]),
    }

    @staticmethod
    def argv(command, recourse_bundle, tmp_path):
        if command == "demo-interchange":
            return [command]
        if command == "value-iterate":
            mdp = mdp_to_json(constant_cost_mdp(gamma=0.5))
            return [command, "--input", write_json(tmp_path / "mdp.json", mdp)]
        argv = [command, "--input", recourse_bundle["bundle"]]
        if command != "solve":
            argv += ["--policy", recourse_bundle["perturbed"]]
        return argv

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_meaningless_value_exits_three(self, recourse_bundle, tmp_path, capsys, case):
        command, flags = self.CASES[case]
        argv = self.argv(command, recourse_bundle, tmp_path)
        assert main([*argv, *flags, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert flags[0] in captured.err

    @pytest.mark.parametrize("command", ["solve", "verify", "dynamic-check", "demo-interchange"])
    def test_zero_tolerance_is_allowed(self, recourse_bundle, tmp_path, capsys, command):
        argv = self.argv(command, recourse_bundle, tmp_path)
        assert main([*argv, "--tolerance", "0", "--json"]) != 3
        assert json.loads(capsys.readouterr().out)


class TestParserReuse:
    """main parses every command line with one parser per process; reusing it
    must carry nothing from one call into the next."""

    @staticmethod
    def command_lines(recourse_bundle, tmp_path):
        mdp = write_json(tmp_path / "mdp.json", mdp_to_json(constant_cost_mdp(gamma=0.5)))
        stagewise = document(random_sddp(rng_from_seed(8), horizon=2))
        sddp = write_json(tmp_path / "sddp.json", stagewise)
        bundle, policy = recourse_bundle["bundle"], recourse_bundle["perturbed"]
        return [
            ["validate", "--input", bundle, "--json"],
            ["solve", "--input", bundle, "--method", "brute", "--cap", "50", "--json"],
            ["solve", "--input", bundle],
            ["verify", "--input", bundle, "--policy", policy, "--tolerance", "1e-6", "--json"],
            ["verify", "--input", bundle, "--json"],
            ["dynamic-check", "--input", bundle, "--policy", policy, "--json"],
            ["demo-interchange", "--trials", "4", "--seed", "2", "--json"],
            ["demo-interchange"],
            ["mdp-solve", "--input", mdp, "--horizon", "3", "--json"],
            ["value-iterate", "--input", mdp, "--max-iters", "50", "--json"],
            ["value-iterate", "--input", mdp],
            ["sddp-solve", "--input", sddp, "--json"],
            ["solve", "--input", bundle, "--no-such-flag"],
            ["--version"],
            ["--help"],
            ["verify", "--help"],
            ["solve", "--input", bundle, "--json"],
        ]

    @staticmethod
    def outcomes(command_lines, capsys):
        out = []
        for argv in command_lines:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((argv, code, captured.out, captured.err))
        return out

    def test_every_call_reads_as_on_a_fresh_parser(
        self, recourse_bundle, tmp_path, capsys, monkeypatch
    ):
        command_lines = self.command_lines(recourse_bundle, tmp_path)
        reused = self.outcomes(command_lines, capsys)
        monkeypatch.setattr("multistage.cli._parsed",
                            lambda argv: vars(build_parser().parse_args(list(argv))))
        fresh = self.outcomes(command_lines, capsys)
        assert reused == fresh
        assert {code for _, code, _, _ in reused} == {0, 1, 3}
        # verify without --policy finds no policy in the bundle
        assert reused[4][1] == 3 and "no policy given" in reused[4][3]

    def test_the_parser_is_built_on_the_first_call_only(self):
        script = (
            "import multistage.cli as cli\n"
            "at_import = cli._parser.cache_info().currsize\n"
            "cli.main(['demo-interchange']); cli.main(['demo-interchange'])\n"
            "print(at_import, cli._parser.cache_info().misses,"
            " cli.build_parser() is not cli.build_parser())\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "0 1 True"


class TestArguments:
    def run_cli(self, args):
        return subprocess.run(
            [sys.executable, "-m", "multistage", *args],
            capture_output=True,
            text=True,
            check=False,
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["validate", "--input", "bundle.json", "--cap", "5"],
            ["mdp-solve", "--input", "mdp.json", "--horizon", "1", "--seed", "3"],
            ["sddp-solve", "--input", "sddp.json", "--tolerance", "1e-6"],
            ["solve", "--input", "bundle.json", "--no-such-flag"],
            ["mdp-solve", "--input", "mdp.json"],
        ],
        ids=["cap", "seed", "tolerance", "unknown", "missing-required"],
    )
    def test_usage_errors_exit_three(self, args):
        result = self.run_cli(args)
        assert result.returncode == 3
        assert "usage:" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("args", [["--version"], ["mdp-solve", "--help"]])
    def test_help_and_version_exit_zero(self, args):
        assert self.run_cli(args).returncode == 0


class TestDeterminism:
    def run_cli(self, args):
        return subprocess.run(
            [sys.executable, "-m", "multistage", *args],
            capture_output=True,
            check=False,
        )

    def test_solve_output_is_byte_identical(self, recourse_bundle):
        args = ["solve", "--input", recourse_bundle["bundle"], "--json"]
        first = self.run_cli(args)
        second = self.run_cli(args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_verify_output_is_byte_identical(self, recourse_bundle):
        args = [
            "verify",
            "--input",
            recourse_bundle["bundle"],
            "--policy",
            recourse_bundle["optimal"],
            "--json",
        ]
        first = self.run_cli(args)
        second = self.run_cli(args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_report_of_an_input_path_with_non_ascii_characters(self, tmp_path, capsys):
        # the golden digests drop the input path; json.dumps escapes it to ASCII
        directory = tmp_path / "résumé 日本"
        directory.mkdir()
        path = directory / "mdpñ.json"
        write_json(path, mdp_to_json(random_mdp(rng_from_seed(3))))
        for command in (["mdp-solve", "--horizon", "2"], ["value-iterate"]):
            assert main([*command, "--input", str(path), "--json"]) == 0
            out = capsys.readouterr().out
            report = json.loads(out)
            assert report["input"] == str(path)
            assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
            assert out.isascii()


def run_json(argv):
    """Exit code and parsed ``--json`` report of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def golden_inputs():
    """The seeded inputs of the golden reports: name -> JSON."""
    return inputs()


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory, golden_inputs):
    """The seeded inputs of the golden reports, written once: name -> path."""
    directory = tmp_path_factory.mktemp("golden_inputs")
    return {
        name: write_json(directory / f"{name}.json", data) for name, data in golden_inputs.items()
    }


def signed_zero_bundle(kind: str, cost_kind: str) -> ProblemBundle:
    """Grids that hold 0.0 and -0.0, and a policy that picks -0.0 on even stages."""
    rng = rng_from_seed(41)
    tree = random_tree(rng, horizon=2)
    if cost_kind == "poly":
        cost = random_general_cost(rng, tree)
    else:
        cost = load_cost({"form": "general", "builtin": cost_kind})
    grid = ((0.0,), (-0.0,), (1.0,))
    cls = PolicyClass(feasible={n.id: grid for n in tree.nodes}, kind=kind, decision_dim=1)
    policy = Policy(
        decisions={n.id: (-0.0,) if n.stage % 2 == 0 else (0.0,) for n in tree.nodes},
        decision_dim=1,
    )
    return ProblemBundle(tree=tree, cost=cost, cls=cls, policies={"zeros": policy})


class TestVerifyExpectedValue:
    """``verify`` reports E v(X, U) off the v process it classified."""

    @pytest.mark.parametrize(
        "name", sorted(c.split(":")[0] for c in GOLDEN if c.endswith(":verify"))
    )
    def test_equals_expected_value_on_every_golden_verify_case(self, golden_files, name):
        bundle = load_bundle(golden_files[name])
        _, report = run_json(["verify", "--input", golden_files[name]])
        policy = bundle.policies["probe"]
        wanted = expected_value(bundle.tree, bundle.cost, policy)
        assert report["expected_value"].hex() == wanted.hex()

    @pytest.mark.parametrize("kind", ["nodewise", "history_blind"])
    @pytest.mark.parametrize("cost", ["poly", "sum_decisions"])
    def test_equals_expected_value_on_a_grid_with_both_zeros(self, tmp_path, kind, cost):
        bundle = signed_zero_bundle(kind, cost)
        file = write_json(tmp_path / "zeros.json", bundle_to_json(bundle))
        code, report = run_json(["verify", "--input", file])
        assert code in (0, 1, 2)
        wanted = expected_value(bundle.tree, bundle.cost, bundle.policies["zeros"])
        assert report["expected_value"].hex() == wanted.hex()

    def test_verify_evaluates_the_objective_only_for_the_tables(self, golden_files, monkeypatch):
        calls = []
        evaluate_leaves = CostSpec.evaluate_leaves

        def counted(self, paths_list, grids_list):
            calls.append(len(paths_list))
            return evaluate_leaves(self, paths_list, grids_list)

        monkeypatch.setattr(CostSpec, "evaluate_leaves", counted)
        bundle = load_bundle(golden_files["mixed"])
        backward_tables(bundle.tree, bundle.cost, bundle.cls)
        alone = list(calls)
        calls.clear()
        run_json(["verify", "--input", golden_files["mixed"]])
        assert alone and calls == alone


def relabel(data: dict) -> tuple[dict, dict[int, int]]:
    """The bundle with its node ids renumbered, and the map old id -> new id.

    The root keeps id 0; the other nodes are numbered deepest stage first, so
    every child below stage 1 has a smaller id than its parent. Within a
    stage the ids keep their order, and with it every sum over siblings,
    leaves or stage nodes keeps its order.
    """
    nodes = data["tree"]["nodes"]
    others = sorted((n for n in nodes if "parent" in n), key=lambda n: (-n["stage"], n["id"]))
    new = {0: 0, **{n["id"]: k for k, n in enumerate(others, 1)}}
    renumbered = []
    for n in nodes:
        entry = {**n, "id": new[n["id"]]}
        if "parent" in n:
            entry["parent"] = new[n["parent"]]
        renumbered.append(entry)

    def keyed(by_node: dict) -> dict:
        return {str(new[int(k)]): v for k, v in by_node.items()}

    out = {
        **data,
        "tree": {**data["tree"], "nodes": renumbered},
        "policy_class": {**data["policy_class"], "feasible": keyed(data["policy_class"]["feasible"])},
        "policies": {
            name: {**p, "decisions": keyed(p["decisions"])} for name, p in data["policies"].items()
        },
    }
    return out, new


def unlabel(report: dict, new: dict[int, int]) -> dict:
    """A report of the relabeled bundle in the original ids, without ``input``.
    Dynamic-check records are sorted by node and relation, on both sides."""
    old = {v: k for k, v in new.items()}
    report = {k: v for k, v in report.items() if k != "input"}
    if "policy" in report:
        decisions = report["policy"]["decisions"]
        report["policy"] = {
            **report["policy"],
            "decisions": dict(sorted((str(old[int(k)]), u) for k, u in decisions.items())),
        }
    for rep in report.get("processes", {}).values():
        if rep["witness"] is not None:
            rep["witness"]["node"] = old[rep["witness"]["node"]]
    if "records" in report:
        for r in report["records"]:
            r["node"] = old[r["node"]]
        report["records"].sort(key=lambda r: (r["node"], r["relation"]))
    return report


class TestRelabeledTree:
    """Ids that do not put parents first change no report but by the relabeling."""

    @pytest.fixture(params=["mixed", "lag1"])
    def pair(self, request, tmp_path, golden_inputs):
        data = golden_inputs[request.param]
        relabeled, new = relabel(data)
        parent_of = {n["id"]: n.get("parent") for n in relabeled["tree"]["nodes"]}
        assert any(p is not None and c < p for c, p in parent_of.items())
        files = (write_json(tmp_path / "original.json", data),
                 write_json(tmp_path / "relabeled.json", relabeled))
        return files, new

    def both(self, pair, argv, policies=(None, None)):
        (original, relabeled), new = pair
        reports = []
        for file, policy in zip((original, relabeled), policies):
            extra = ["--policy", policy] if policy else []
            reports.append(run_json([*argv, "--input", file, *extra]))
        (code_a, a), (code_b, b) = reports
        assert code_a == code_b
        a = unlabel(a, {k: k for k in new})
        assert hexed(unlabel(b, new)) == hexed(a)
        return code_a, a

    def test_solve_backward(self, pair):
        assert self.both(pair, ["solve", "--method", "backward"])[0] == 0

    def test_verify_optimal_and_perturbed(self, pair, tmp_path):
        _, new = pair
        _, solved = self.both(pair, ["solve", "--method", "backward"])
        optimal = solved["policy"]
        files = (
            write_json(tmp_path / "opt.json", optimal),
            write_json(tmp_path / "opt_relabeled.json", {
                **optimal,
                "decisions": {str(new[int(k)]): u for k, u in optimal["decisions"].items()},
            }),
        )
        assert self.both(pair, ["verify"], files)[0] == 0
        assert self.both(pair, ["verify"])[0] == 1  # the bundle's probe policy

    def test_dynamic_check(self, pair):
        code, report = self.both(pair, ["dynamic-check"])
        assert code == 0 and report["records"]

    def test_over_cap_solve_reports_the_same_count(self, pair):
        (original, relabeled), _ = pair
        bundle = load_bundle(original)
        entries = sum(
            math.prod(len(bundle.cls.feasible[i]) for i in bundle.tree.path_nodes(n.id))
            for n in bundle.tree.nodes
        )
        errors = []
        for file in (original, relabeled):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                argv = ["solve", "--method", "backward", "--cap", str(entries - 1)]
                assert main([*argv, "--input", file]) == 3
            errors.append(err.getvalue())
        assert errors[0] == errors[1]
        assert f"enumeration of {entries} items" in errors[0]

    def test_the_cap_check_sums_entries_in_node_id_order(self, pair):
        (_, relabeled), _ = pair
        bundle = load_bundle(relabeled)
        tree, cost, cls = bundle.tree, bundle.cost, bundle.cls
        counts = [
            math.prod(len(cls.feasible[i]) for i in tree.path_nodes(n)) for n in range(len(tree))
        ]
        sums = list(itertools.accumulate(counts))
        for cap in sums[:-1]:
            with pytest.raises(EnumerationCapError) as exc:
                backward_tables(tree, cost, cls, cap=cap)
            assert exc.value.count == min(s for s in sums if s > cap)
