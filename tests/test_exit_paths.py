"""Exit paths of the command line that the other tests do not take.

Every case runs ``cli.main`` in process on one faulty input and checks the
exit code of the contract (``validate`` 1 on a finding, 3 on an input error;
every other command 3), the message, and that no traceback is printed.
"""

from __future__ import annotations

import copy
import json

import pytest

from multistage import cli
from multistage.bundle import ProblemBundle
from multistage.cli import main
from multistage.generate import rng_from_seed
from instances import (
    branching_gap_fixture,
    bundle_to_json,
    constant_cost_mdp,
    document,
    mdp_to_json,
    random_sddp,
    recourse_fixture,
)


def write_json(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    return code, out, err


def recourse_bundle() -> dict:
    fx = recourse_fixture()
    return bundle_to_json(ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"]))


def blind_bundle() -> dict:
    fx = branching_gap_fixture()
    return bundle_to_json(ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"]))


class TestSolveMethods:
    def test_auto_on_a_history_blind_bundle_runs_brute_force(self, tmp_path, capsys):
        path = write_json(tmp_path / "blind.json", blind_bundle())
        code, out, _ = run(capsys, "solve", "--input", path, "--method", "auto", "--json")
        report = json.loads(out)
        assert code == 0
        assert report["method"] == "brute" and "backward_value" not in report

    def test_backward_on_a_history_blind_bundle_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "blind.json", blind_bundle())
        code, out, err = run(capsys, "solve", "--input", path, "--method", "backward")
        assert (code, out) == (3, "")
        assert err == "backward recursion needs a nodewise class\n"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_a_disagreement_exits_one(self, tmp_path, capsys, monkeypatch, as_json):
        real = cli.brute_force_optimum

        def off_by_one(*args, **kwargs):
            value, policy = real(*args, **kwargs)
            return value + 1.0, policy

        monkeypatch.setattr(cli, "brute_force_optimum", off_by_one)
        path = write_json(tmp_path / "bundle.json", recourse_bundle())
        flags = ["--json"] if as_json else []
        code, out, _ = run(capsys, "solve", "--input", path, *flags)
        assert code == 1
        if as_json:
            report = json.loads(out)
            assert report["agreement"] is False
            assert report["brute_value"] == pytest.approx(report["backward_value"] + 1.0)
        else:
            assert out.startswith("DISAGREEMENT: ")


def bundle_case(edit):
    data = recourse_bundle()
    edit(data)
    return data


def test_an_edited_case_leaves_later_bundles_alone():
    # the writer returns a copy of the cost's document, not the document itself
    edited = bundle_case(lambda d: d["cost"]["poly"]["terms"][0]["vars"][0].__setitem__(0, "z"))
    assert edited["cost"]["poly"]["terms"][0]["vars"][0][0] == "z"
    assert recourse_bundle()["cost"]["poly"]["terms"][0]["vars"][0][0] == "u"


def add_policy(data, decisions, dim=1):
    data["policies"] = {"p": {"decision_dim": dim, "decisions": decisions}}


#: name -> (bundle edit, validate's exit code, message), for bundle faults that
#: ``validate`` reports as findings (1) or that make the file unreadable (3)
BUNDLE_CASES = {
    "unknown class node": (
        lambda d: d["policy_class"]["feasible"].update({"7": [[0.0]]}),
        1, "class lists unknown node 7"),
    "additive stage-cost count": (
        lambda d: d.update(cost={"form": "additive", "gamma": 0.5, "lag": 1, "stage_costs": [
            {"builtin": "sum_decisions"}, {"builtin": "sum_decisions"}]}),
        1, "additive cost has 2 stage costs, expected 1"),
    "policy decision dimension": (
        lambda d: add_policy(d, {"0": [1.0, 0.0], "1": [1.0, 0.0], "2": [1.0, 0.0]}, dim=2),
        1, "policy 'p' has decision dimension 2, expected 1"),
    "policy missing a node": (
        lambda d: add_policy(d, {"0": [1.0], "1": [1.0]}),
        1, "policy 'p' has no decision for node 2"),
    "missing key": (lambda d: d.pop("policy_class"), 3, "bundle JSON is missing 'policy_class'"),
    "unknown class kind": (
        lambda d: d["policy_class"].update(kind="adaptive"), 3, "unknown class kind 'adaptive'"),
    "decision dimension": (
        lambda d: d["policy_class"]["feasible"].update({"1": [[0.0, 1.0]]}),
        3, "feasible decision at node 1 has dimension 2, expected 1"),
    "root with a parent": (
        lambda d: d["tree"]["nodes"][0].update(parent=1), 3, "node 0 must be the parentless root"),
    "parentless node": (
        lambda d: d["tree"]["nodes"][2].pop("parent"),
        3, "node 2 has no parent but is not the root"),
    "negative horizon": (lambda d: d["tree"].update(horizon=-1), 1, "horizon -1 is negative"),
    "observation dimension": (
        lambda d: d["tree"]["nodes"][1].update(obs=[1.0, 2.0]),
        1, "node 1: observation has dimension 2, expected 1"),
    "stage out of range": (
        lambda d: d["tree"]["nodes"][2].update(stage=2), 1, "node 2: stage 2 outside 0..1"),
    "negative lag": (
        lambda d: d.update(cost={"form": "additive", "gamma": 0.5, "lag": -1, "stage_costs": [
            {"builtin": "sum_decisions"}]}),
        3, "lag -1 is negative"),
    "unknown cost form": (lambda d: d.update(cost={"form": "foo"}), 3, "unknown cost form 'foo'"),
    "unknown poly role": (
        lambda d: d["cost"]["poly"]["terms"][0]["vars"][0].__setitem__(0, "z"),
        3, "unknown variable role 'z'"),
    "cost without payload": (
        lambda d: d.update(cost={"form": "general"}),
        3, "objective spec needs one of: poly, table, builtin"),
    "short tracking weights": (
        lambda d: d.update(cost={"form": "additive", "gamma": 0.5, "lag": 1, "stage_costs": [
            {"builtin": "quadratic_tracking", "params": {"weights": []}}]}),
        1, "stage cost 0 quadratic_tracking weights has 0 entries, the window needs 1"),
    "class without kind": (
        lambda d: d["policy_class"].pop("kind"), 3, "malformed policy class JSON: 'kind'"),
}


@pytest.mark.parametrize("name", sorted(BUNDLE_CASES))
def test_a_faulty_bundle_exits_with_its_message(tmp_path, capsys, name):
    edit, validate_code, message = BUNDLE_CASES[name]
    path = write_json(tmp_path / "bundle.json", bundle_case(edit))
    code, out, err = run(capsys, "validate", "--input", path)
    assert code == validate_code
    assert message in (out if validate_code == 1 else err)
    for command in ("solve", "verify", "dynamic-check"):
        code, out, err = run(capsys, command, "--input", path)
        assert (code, out) == (3, "")
        assert message in err and err.startswith("input error: ")


class TestPolicyFiles:
    def test_a_policy_without_decision_dim_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "bundle.json", recourse_bundle())
        policy = write_json(tmp_path / "policy.json", {"decisions": {"0": [0.0], "1": [0.0], "2": [0.0]}})
        for command in ("verify", "dynamic-check"):
            code, out, err = run(capsys, command, "--input", path, "--policy", policy)
            assert (code, out) == (3, "")
            assert err == "input error: malformed policy JSON: 'decision_dim'\n"

    def test_dynamic_check_of_an_infeasible_policy_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "bundle.json", recourse_bundle())
        policy = write_json(tmp_path / "policy.json",
                            {"decision_dim": 1, "decisions": {"0": [0.5], "1": [0.0], "2": [0.0]}})
        code, out, err = run(capsys, "dynamic-check", "--input", path, "--policy", policy)
        assert (code, out) == (3, "")
        assert err == "infeasible policy: policy is not feasible in the class\n"


#: name -> (fields that replace those of a two-state, one-action MDP, message)
MDP_CASES = {
    "gamma": ({"gamma": 1.0}, "gamma 1.0 outside (-1, 1)"),
    "action slices": (
        {"kernel": [[[0.5, 0.5], [0.5, 0.5]]] * 2}, "kernel has 2 action slices, expected 1"),
    "kernel ndim": ({"kernel": [0.5, 0.5]}, "kernel must be 2- or 3-dimensional, got shape (2,)"),
    "kernel shape": ({"kernel": [[1.0], [1.0]]}, "kernel shape (2, 1), expected (2, 2)"),
    "negative kernel entries": (
        {"kernel": [[1.5, -0.5], [0.5, 0.5]]}, "kernel has negative entries"),
    "cost shape": ({"cost": [[[1.0]]]}, "cost shape (1, 1, 1), expected (2, 2, 1)"),
    "cost magnitude": ({"bound_K": 0.5}, "cost magnitude 1.0 exceeds the bound 0.5"),
}


@pytest.mark.parametrize("command", [["mdp-solve", "--horizon", "2"], ["value-iterate"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("name", sorted(MDP_CASES))
def test_a_faulty_mdp_exits_three(tmp_path, capsys, name, command):
    fields, message = MDP_CASES[name]
    path = write_json(tmp_path / "mdp.json", {**mdp_to_json(constant_cost_mdp()), **fields})
    code, out, err = run(capsys, command[0], "--input", path, *command[1:])
    assert (code, out) == (3, "")
    assert err == f"input error: {message}\n"


#: name -> (command line after ``--input``, message), on an MDP with only ``stage_costs``
STAGE_COST_MDP_CASES = {
    "short stage costs": (["mdp-solve", "--horizon", "2"], "1 stage costs cannot cover horizon 2"),
    "stage costs only": (["value-iterate"], "value iteration needs a stationary cost"),
}


@pytest.mark.parametrize("name", sorted(STAGE_COST_MDP_CASES))
def test_an_mdp_with_one_stage_cost_exits_three(tmp_path, capsys, name):
    command, message = STAGE_COST_MDP_CASES[name]
    data = mdp_to_json(constant_cost_mdp())
    data["stage_costs"] = [data.pop("cost")]
    path = write_json(tmp_path / "mdp.json", data)
    code, out, err = run(capsys, command[0], "--input", path, *command[1:])
    assert (code, out) == (3, "")
    assert err == f"input error: {message}\n"


def stagewise_document() -> dict:
    return copy.deepcopy(document(random_sddp(rng_from_seed(8), horizon=2)))


#: name -> (stagewise edit, message)
STAGEWISE_CASES = {
    "noise stages": (lambda d: d["stage_noise"].pop(), "1 noise stages for horizon 2"),
    "decision stages": (lambda d: d["stage_decisions"].pop(), "1 decision stages for horizon 2"),
    "no cost": (lambda d: d.pop("cost"),
                "a stagewise-independent problem needs one of: cost, stage_costs"),
    "probabilities": (lambda d: d["stage_noise"][1][0].update(prob=0.0),
                      "stage 2 noise probabilities sum to"),
    "cost kind": (lambda d: d.update(cost={"builtin": "sum_decisions"}),
                  "step cost spec needs one of: poly, table"),
    "no horizon": (lambda d: d.pop("horizon"), "malformed stagewise-independent JSON: 'horizon'"),
    "cost and stage costs": (
        lambda d: d.update(stage_costs=[d["cost"]] * 2),
        "a stagewise-independent problem needs one of: cost, stage_costs (exactly one)"),
    "short stage costs": (
        lambda d: d.update(stage_costs=[d.pop("cost")]), "1 stage costs cannot cover horizon 2"),
    # an entry past the horizon is never evaluated, so even one that a
    # 0 state cannot take is an input error by its count alone
    "long stage costs": (
        lambda d: d.update(stage_costs=[d.pop("cost")] * 2 + [
            {"poly": {"terms": [{"coef": 1.0, "vars": [["x", 0, -1]]}]}}]),
        "3 stage costs for horizon 2"),
}


@pytest.mark.parametrize("name", sorted(STAGEWISE_CASES))
def test_a_faulty_stagewise_problem_exits_three(tmp_path, capsys, name):
    edit, message = STAGEWISE_CASES[name]
    data = stagewise_document()
    edit(data)
    path = write_json(tmp_path / "sddp.json", data)
    code, out, err = run(capsys, "sddp-solve", "--input", path)
    assert (code, out) == (3, "")
    assert err.startswith("input error: ") and message in err


def one_node_bundle(cost: dict, feasible: list) -> dict:
    return {
        "tree": {"horizon": 0, "obs_dim": 1,
                 "nodes": [{"id": 0, "stage": 0, "cond_prob": 1.0, "obs": [0.0]}]},
        "cost": cost,
        "policy_class": {"kind": "nodewise", "decision_dim": 1, "feasible": {"0": feasible}},
    }


class TestCostFaults:
    def test_an_empty_table_key_vector_is_a_finding(self, tmp_path, capsys):
        # every entry holds an empty vector at one window position
        table = {"entries": [{"x": [[]], "u": [[0.0]], "value": 1.0}]}
        path = write_json(tmp_path / "bundle.json",
                          one_node_bundle({"form": "general", "table": table}, [[0.0]]))
        message = "cost table: no table entry matches x=((0.0,),), u=((0.0,),)"
        code, out, _ = run(capsys, "validate", "--input", path)
        assert code == 1 and message in out
        code, out, err = run(capsys, "solve", "--input", path)
        assert (code, out) == (3, "")
        assert err == f"input error: invalid bundle: {message}\n"

    @pytest.mark.parametrize("horizon, command", [
        (0, "solve"), (0, "verify"), (1, "solve"), (1, "verify"), (1, "dynamic-check")])
    def test_an_overflowing_tracking_square_is_unbounded(self, tmp_path, capsys, horizon, command):
        data = one_node_bundle({"form": "general", "builtin": "quadratic_tracking"}, [[1e200]])
        if horizon:
            data["tree"]["horizon"] = 1
            data["tree"]["nodes"].append(
                {"id": 1, "stage": 1, "parent": 0, "cond_prob": 1.0, "obs": [0.0]})
            data["policy_class"]["feasible"]["1"] = [[0.0]]
        add_policy(data, {str(n): u for n, u in enumerate([[1e200], [0.0]][: horizon + 1])})
        path = write_json(tmp_path / "bundle.json", data)
        assert run(capsys, "validate", "--input", path)[0] == 0
        code, out, err = run(capsys, command, "--input", path)
        assert (code, out) == (3, "")
        assert err == "error: objective evaluated to inf; it must be finite on the grid\n"

    def test_a_zero_weight_on_an_overflowing_square_is_zero(self, tmp_path, capsys):
        cost = {"form": "general", "builtin": "quadratic_tracking", "params": {"weights": [0.0]}}
        path = write_json(tmp_path / "bundle.json", one_node_bundle(cost, [[1e200]]))
        code, out, err = run(capsys, "solve", "--input", path)
        assert (code, out, err) == (0, "optimal value: 0.0\nmethod: both\n", "")
