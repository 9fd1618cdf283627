import json
import subprocess
import sys
from pathlib import Path

import pytest

from multistage.bundle import ProblemBundle, bundle_to_json
from multistage.cli import main
from multistage.dp_solvers import mdp_to_json
from multistage.generate import (
    branching_gap_fixture,
    constant_cost_mdp,
    random_general_cost,
    random_mdp,
    random_sddp,
    recourse_fixture,
    rng_from_seed,
)
from multistage.policy import Policy, policy_to_json
from multistage.scenario_tree import Node, ScenarioTree, tree_to_json


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
        from multistage.costs import cost_from_json
        from multistage.policy import PolicyClass

        tree = ScenarioTree(
            [Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(1.0,))],
            horizon=0,
            obs_dim=1,
        )
        cls = PolicyClass(
            feasible={0: ((-1.0,), (0.0,), (2.0,))}, kind="nodewise", decision_dim=1
        )
        cost = cost_from_json(
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

    def test_kernel_violation_exits_three(self, tmp_path):
        data = mdp_to_json(constant_cost_mdp(gamma=0.5))
        data["kernel"][0][0] = 0.9
        path = write_json(tmp_path / "bad.json", data)
        assert main(["mdp-solve", "--input", path, "--horizon", "1"]) == 3


class TestSddpCommand:
    def test_sddp_solve_matches_library_recursion(self, tmp_path, capsys):
        from multistage import sddp_recursion

        spec = random_sddp(rng_from_seed(8), horizon=3)
        path = write_json(tmp_path / "sddp.json", spec.payload)
        code = main(["sddp-solve", "--input", path, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        expected = sddp_recursion(spec).values[0][spec.initial_state]
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
        payload = random_sddp(rng_from_seed(8), horizon=2).payload
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
        payload = random_sddp(rng_from_seed(8), horizon=2).payload
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

    def test_negative_power_of_a_zero_state_exits_three(self, tmp_path, capsys):
        payload = random_sddp(rng_from_seed(8), horizon=2).payload
        payload["initial_state"] = [0.0]
        payload["cost"]["poly"]["terms"].append({"coef": 1, "vars": [["x", 0, -1]]})
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step-cost term 4" in captured.err
        assert "Traceback" not in captured.err

    def test_overflowing_step_cost_term_exits_three(self, tmp_path, capsys):
        payload = random_sddp(rng_from_seed(8), horizon=2).payload
        payload["stage_decisions"][0][0] = [10.0]
        payload["cost"]["poly"]["terms"].append({"coef": 1.0, "vars": [["u", 0, 400]]})
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step-cost term 4" in captured.err
        assert "Traceback" not in captured.err

    def test_non_finite_step_cost_exits_three(self, tmp_path, capsys):
        payload = random_sddp(rng_from_seed(8), horizon=2).payload
        payload["cost"]["poly"]["terms"] += [{"coef": 1e308, "vars": []}] * 2
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step cost of stage 1 evaluated to inf" in captured.err
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
        payload = dict(spec.payload, cost={"table": {"entries": entries}})
        path = write_json(tmp_path / "sddp.json", payload)
        assert main(["sddp-solve", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert missing["u"] == list(u)
        for value in (x[0], missing["w"][0], u[0]):
            assert repr(value) in captured.err


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
