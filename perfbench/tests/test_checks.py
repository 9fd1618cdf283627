"""Each checker accepts the right answer and rejects a wrong one.

Run with ``python -m pytest perfbench/tests``; needs numpy and pytest only.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gen  # noqa: E402
import reference as ref  # noqa: E402


def outcome(report, code=0, stderr="", exc=None):
    return {"exit": code, "exc": exc, "stdout": json.dumps(report), "stderr": stderr}


@pytest.fixture
def recourse():
    problem = ref.Problem(gen.recourse_fixture())
    value, idx = problem.exhaustive()
    return problem, value, idx


@pytest.fixture
def tree_problem():
    rng = gen.rng_for(7, "checks")
    tree = gen.tree_json(rng, [1, 2, 4, 6])
    cls = gen.nodewise_class(rng, tree, [2, 2, 2, 2])
    problem = ref.Problem({"tree": tree, "cost": gen.general_poly(rng, 3), "policy_class": cls})
    value, idx = problem.exhaustive()
    return problem, value, idx


def perturbed(problem, idx):
    delta, node, k = max(problem.one_node_changes(idx))
    assert delta > 1e-6
    alt = list(idx)
    alt[node] = k
    return alt


def solve_report(problem, idx, value):
    return {"value": value, "policy": problem.policy_json(idx)}


# -- a value off by 1e-6 -------------------------------------------------------------


def test_solve_accepts_the_optimum(tree_problem):
    problem, value, idx = tree_problem
    checks.solve(outcome(solve_report(problem, idx, value)), problem, value)


def test_solve_rejects_a_value_off_by_1e_6(tree_problem):
    problem, value, idx = tree_problem
    with pytest.raises(checks.Wrong):
        checks.solve(outcome(solve_report(problem, idx, value + 1e-6)), problem)


def test_recourse_value_is_fixed(recourse):
    problem, value, idx = recourse
    assert abs(value - 0.6) < 1e-12
    with pytest.raises(checks.Wrong):
        checks.solve(outcome(solve_report(problem, idx, 0.6 + 1e-6)), problem, 0.6)


def test_verify_rejects_an_expected_value_off_by_1e_6(tree_problem):
    problem, value, idx = tree_problem
    report = {"verdict": "optimal", "expected_value": value + 1e-6}
    with pytest.raises(checks.Wrong):
        checks.verify(outcome(report), problem, idx, "optimal")


def test_dynamic_check_rejects_a_root_value_off_by_1e_6():
    records = [{"node": 0, "relation": "V", "lhs": 5.0 + 1e-6, "rhs": 1.0},
               {"node": 0, "relation": "v", "lhs": 5.0, "rhs": 5.0}]
    report = {"all_hold": True, "equality_everywhere": False, "records": records}
    with pytest.raises(checks.Wrong):
        checks.dynamic_check(outcome(report), 5.0, equality=False)
    records[0]["lhs"] = 5.0
    checks.dynamic_check(outcome(report), 5.0, equality=False, root_slack=4.0)
    with pytest.raises(checks.Wrong):
        checks.dynamic_check(outcome(report), 5.0, equality=False, root_slack=4.0 + 1e-6)


def test_mdp_solve_rejects_one_stage_off_by_1e_6():
    mdp = gen.mdp_json(gen.rng_for(3, "mdp"), 6, 3, 0.9, True)
    values = ref.mdp_backward(mdp, 4)
    good = {"values": [v.tolist() for v in values]}
    checks.mdp_solve(outcome(good), values)
    good["values"][2][1] += 1e-6
    with pytest.raises(checks.Wrong):
        checks.mdp_solve(outcome(good), values)


def test_sddp_rejects_a_root_value_off_by_1e_6():
    spec = gen.sddp_json(gen.rng_for(3, "sddp"), 4, 3, 5, 0.8)
    root = ref.sddp_root(spec)
    checks.sddp_solve(outcome({"root_value": root}), root)
    with pytest.raises(checks.Wrong):
        checks.sddp_solve(outcome({"root_value": root + 1e-6}), root)


# -- a perturbed policy reported as optimal ------------------------------------------------


def test_verify_rejects_a_perturbed_policy_reported_optimal(tree_problem):
    problem, value, idx = tree_problem
    alt = perturbed(problem, idx)
    report = {"verdict": "optimal", "expected_value": problem.value(alt)}
    with pytest.raises(checks.Wrong):
        checks.verify(outcome(report, code=0), problem, alt, "not-optimal")
    right = {"verdict": "not-optimal", "expected_value": problem.value(alt)}
    checks.verify(outcome(right, code=1), problem, alt, "not-optimal")


def test_solve_rejects_a_perturbed_policy_as_the_optimum(tree_problem):
    problem, value, idx = tree_problem
    alt = perturbed(problem, idx)
    # consistent value for the policy it reports, but a one-node change beats it
    with pytest.raises(checks.Wrong, match="lowers the cost"):
        checks.solve(outcome(solve_report(problem, alt, problem.value(alt))), problem)


def test_own_recursion_agrees_with_exhaustive_search(tree_problem):
    problem, value, idx = tree_problem
    rec_value, rec_idx = problem.backward()
    assert abs(rec_value - value) < 1e-12
    assert rec_idx == idx


# -- value iteration further than eps/2 from the fixed point --------------------------------


@pytest.fixture
def stationary():
    mdp = gen.mdp_json(gen.rng_for(5, "vi"), 8, 3, 0.9, False)
    return mdp, ref.fixed_point(mdp)


def vi_report(values, residuals=(1.0, 0.9, 0.81)):
    return {"converged": True, "values": list(values), "residuals": list(residuals)}


def test_fixed_point_solves_the_bellman_equation(stationary):
    mdp, fixed = stationary
    kernel, cost, gamma = ref.mdp_arrays(mdp)
    assert np.abs(ref.q_values(kernel, cost, gamma, fixed).min(axis=1) - fixed).max() < 1e-12


def test_value_iterate_accepts_values_within_eps_half(stationary):
    mdp, fixed = stationary
    eps = 1e-6
    checks.value_iterate(outcome(vi_report(fixed + 0.49 * eps)), fixed, eps, 0.9)


def test_value_iterate_rejects_values_further_than_eps_half(stationary):
    mdp, fixed = stationary
    eps = 1e-6
    values = fixed.copy()
    values[3] += 0.51 * eps
    with pytest.raises(checks.Wrong, match="fixed point"):
        checks.value_iterate(outcome(vi_report(values)), fixed, eps, 0.9)


def test_value_iterate_rejects_a_residual_ratio_above_gamma(stationary):
    mdp, fixed = stationary
    with pytest.raises(checks.Wrong, match="ratio"):
        checks.value_iterate(outcome(vi_report(fixed, (1.0, 0.9, 0.8101))), fixed, 1e-6, 0.9)


# -- exit-code contract -------------------------------------------------------------------


def test_escaped_exception_is_a_failure(tree_problem):
    problem, value, idx = tree_problem
    with pytest.raises(checks.Failed):
        checks.solve({"exit": None, "exc": "IndexError: x", "stdout": "", "stderr": ""},
                     problem)


def test_malformed_checks_fail_on_todays_behaviour():
    with pytest.raises(checks.Failed):
        checks.malformed_validate(outcome({"valid": True, "violations": []}), "term")
    with pytest.raises(checks.Failed):
        checks.malformed_validate(outcome({"valid": False, "violations": ["bad"]}, code=1), "term")
    checks.malformed_validate(outcome({"valid": False, "violations": ["term 1: ..."]}, code=1),
                              "term")
    with pytest.raises(checks.Failed):
        checks.malformed_solve(outcome({}, code=0))
    with pytest.raises(checks.Failed):
        checks.malformed_solve(outcome({}, code=3, stderr="Traceback (most recent call last)"))
    checks.malformed_solve(outcome({}, code=3, stderr="input error: term 1 ..."))
