"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the criterion. Instances are
seed-generated and fixed, so the gate is reproducible.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import multistage as ms
from multistage.generate import (
    interchange_fixture,
    random_history_blind_class,
    random_nodewise_class,
    random_tree,
    recourse_fixture,
    rng_from_seed,
)
from multistage.scenario_tree import path, unconditional_probability
from instances import (
    branching_gap_fixture,
    bundle_to_json,
    constant_cost_mdp,
    empirical_holder_constant,
    enumerate_policies,
    feasible_at,
    random_additive_cost,
    random_general_cost,
    random_mdp,
    random_sddp,
)


def _report(num, description, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def acceptance_instance(seed, max_policies, fill=False, horizon=None):
    """Seeded instance within the T <= 3, branching <= 3, grids <= 3 envelope."""
    rng = rng_from_seed(seed)
    tree = random_tree(rng, horizon=horizon, max_branch=3)
    cls = random_nodewise_class(
        rng, tree, max_choices=3, max_policies=max_policies, fill=fill
    )
    if seed % 3 == 2 and tree.horizon >= 1:
        cost = random_additive_cost(
            rng, horizon=tree.horizon, lag=int(rng.integers(1, 3))
        )
    else:
        cost = random_general_cost(rng, tree)
    return tree, cost, cls


def leaf_value_caches(tree, cost, cls):
    caches = []
    for leaf in tree.leaves():
        prob = unconditional_probability(tree, leaf)
        grids = [cls.feasible[i] for i in tree.path_nodes(leaf)]
        table = {
            hist: cost.evaluate(path(tree, leaf), hist)
            for hist in itertools.product(*grids)
        }
        caches.append((leaf, prob, table))
    return caches


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    total = 0
    caps = [2_000] * 40 + [20_000] * 7 + [100_000] * 3
    for seed, cap in enumerate(caps):
        tree, cost, cls = acceptance_instance(
            seed, cap, fill=cap >= 20_000, horizon=3 if cap >= 20_000 else None
        )
        count = cls.count(tree)
        assert count <= 100_000
        total += count
        tables = ms.backward_tables(tree, cost, cls)
        value, _ = ms.brute_force_optimum(tree, cost, cls)
        worst = max(worst, abs(tables.root_value - value))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "backward recursion equals the exhaustive oracle on 50 instances",
        worst <= 1e-9 and elapsed < 60.0,
        f"max diff {worst:.2e}, {total} policies, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def verification_sweep():
    """Exhaustive policy sweep shared by criteria 2 and 3."""
    caps = [10_000, 10_000, 5_000, 5_000, 2_000, 2_000, 2_000, 1_000, 1_000, 1_000]
    results = []
    for i, cap in enumerate(caps):
        tree, cost, cls = acceptance_instance(5_000 + i, cap, fill=True, horizon=2)
        assert cls.count(tree) <= 10_000
        tables = ms.backward_tables(tree, cost, cls)
        optimum, _ = ms.brute_force_optimum(tree, cost, cls)
        caches = leaf_value_caches(tree, cost, cls)
        min_slack = float("inf")
        martingale_set = set()
        optimal_set = set()
        count = 0
        for k, policy in enumerate(enumerate_policies(tree, cls)):
            count += 1
            report = ms.verify_policy(tree, cost, cls, policy, tol=1e-9, tables=tables)
            assert report.classification in ("martingale", "submartingale")
            for s in report.per_stage_slack:
                min_slack = min(min_slack, s.min_slack)
            if report.classification == "martingale":
                martingale_set.add(k)
            value = sum(
                prob * table[policy.decision_path(tree, leaf)]
                for leaf, prob, table in caches
            )
            if value <= optimum + 1e-9:
                optimal_set.add(k)
        results.append(
            {
                "count": count,
                "min_slack": min_slack,
                "martingale": martingale_set,
                "optimal": optimal_set,
            }
        )
    return results


def test_criterion_2_submartingale_forward_direction(verification_sweep):
    worst = min(r["min_slack"] for r in verification_sweep)
    total = sum(r["count"] for r in verification_sweep)
    _report(
        2,
        "both value processes of every feasible policy are submartingales",
        worst >= -1e-12,
        f"{total} policies over 10 instances, min slack {worst:.2e}",
    )


def test_criterion_3_martingale_equals_optimal(verification_sweep):
    ok = all(r["martingale"] == r["optimal"] and r["martingale"] for r in verification_sweep)
    sizes = [len(r["martingale"]) for r in verification_sweep]
    _report(
        3,
        "policies classified martingale are exactly the brute-force optima",
        ok,
        f"optimal-set sizes {sizes}",
    )


def test_criterion_4_interchangeability():
    fx = interchange_fixture()
    rep_n = ms.interchange_gap(fx["tree"], fx["stage"], fx["objective"], fx["nodewise"])
    rep_b = ms.interchange_gap(
        fx["tree"], fx["stage"], fx["objective"], fx["history_blind"]
    )
    fixture_ok = (
        abs(rep_n.lhs - 1.0) <= 1e-12
        and abs(rep_n.rhs - 1.0) <= 1e-12
        and abs(rep_b.lhs - 1.0) <= 1e-12
        and abs(rep_b.rhs - 5.0) <= 1e-12
    )
    min_gap = float("inf")
    rng = rng_from_seed(4_000)
    for _ in range(1000):
        tree = random_tree(rng, horizon=1)
        if rng.uniform() < 0.5:
            cls = random_nodewise_class(rng, tree)
        else:
            cls = random_history_blind_class(rng, tree)
        coeffs = rng.uniform(-2.0, 2.0, size=3)

        def objective(obs_path, u, c=coeffs):
            x = obs_path[-1][0]
            return float(c[0] * u[0] ** 2 + c[1] * u[0] * x + c[2] * x)

        rep = ms.interchange_gap(tree, 1, objective, cls)
        min_gap = min(min_gap, rep.gap)
    _report(
        4,
        "fixture gaps are 0 and 4; 1000 random trials keep lhs <= rhs",
        fixture_ok and min_gap >= -1e-12,
        f"min random gap {min_gap:.2e}",
    )


def test_criterion_5_one_sided_inequality_for_history_blind():
    worst = float("inf")
    for i in range(20):
        rng = rng_from_seed(7_000 + i)
        tree = random_tree(rng, horizon=int(rng.integers(1, 3)), max_branch=2)
        cls = random_history_blind_class(rng, tree)
        cost = random_general_cost(rng, tree)
        for n in tree.nodes:
            kids = tree.children(n.id)
            if not kids:
                continue
            grids = [feasible_at(cls, tree, j) for j in tree.path_nodes(n.id)]
            for head in itertools.product(*grids):
                lhs = ms.compute_v(tree, cost, cls, n.id, head)
                rhs = sum(
                    tree.nodes[c].cond_prob * ms.compute_V(tree, cost, cls, c, head)
                    for c in kids
                )
                worst = min(worst, lhs - rhs)
    fx = branching_gap_fixture()
    head = ((0.0,),)
    strict = ms.compute_v(fx["tree"], fx["cost"], fx["cls"], 0, head) - sum(
        fx["tree"].nodes[c].cond_prob
        * ms.compute_V(fx["tree"], fx["cost"], fx["cls"], c, head)
        for c in fx["tree"].children(0)
    )
    _report(
        5,
        "v_t dominates E(V_{t+1}|.) on history-blind classes, strictly on the fixture",
        worst >= -1e-12 and strict > 0.1,
        f"min slack {worst:.2e}, crafted gap {strict:.2f}",
    )


def test_criterion_6_holder_preservation():
    worst_excess = -float("inf")
    for i in range(20):
        rng = rng_from_seed(6_000 + i)
        tree = random_tree(rng, horizon=int(rng.integers(1, 3)), max_branch=2)
        cls = random_nodewise_class(rng, tree, max_choices=3)
        cost = random_general_cost(rng, tree)
        alpha = 0.5 if i % 2 else 1.0
        delta = 10.0
        C = empirical_holder_constant(tree, cls, cost, alpha=alpha, delta=delta)
        assert ms.verify_holder(tree, cls, cost, C=C, alpha=alpha, delta=delta).ok
        tables = ms.backward_tables(tree, cost, cls)
        excess = ms.value_process.holder_table_violation(
            tree, tables, C=C, alpha=alpha, delta=delta
        )
        worst_excess = max(worst_excess, excess)
    _report(
        6,
        "value tables inherit the verified Hoelder bound of the objective",
        worst_excess <= 1e-12,
        f"max excess {worst_excess:.2e}",
    )


def test_criterion_7_specialization_chain():
    # positive discounts: dividing the value function by gamma^t flips the
    # minimization at odd stages when gamma < 0, so the min-form recursions
    # match the joint tree optimum only for nonnegative discounts
    gammas = [0.5, 0.9]
    worst = 0.0
    for i in range(10):
        spec = random_sddp(
            rng_from_seed(8_000 + i), horizon=3, n_atoms=2, gamma=gammas[i % 2]
        )
        result = ms.sddp_recursion(spec)
        root_sddp = result.values[0][spec.initial_state]
        mdp, start = ms.sddp_to_mdp(spec)
        values, _ = ms.mdp_backward_induction(mdp, horizon=3)
        tree, cost, cls = ms.sddp_to_product_tree(spec)
        tables = ms.backward_tables(tree, cost, cls)
        worst = max(worst, abs(root_sddp - values[0][start]))
        worst = max(worst, abs(root_sddp - tables.root_value))
        index = {s: j for j, s in enumerate(mdp.states)}
        for t in range(1, 4):
            for state, value in result.values[t].items():
                worst = max(worst, abs(value - values[t][index[state]]))
    _report(
        7,
        "independent recursion, backward induction and tree tables coincide",
        worst <= 1e-9,
        f"max deviation {worst:.2e}",
    )


@pytest.fixture(scope="module")
def value_iteration_runs():
    gammas = [-0.5, 0.5, 0.9]
    runs = []
    for i in range(20):
        gamma = gammas[i % 3]
        mdp = random_mdp(rng_from_seed(9_000 + i), n_states=3, n_actions=2, gamma=gamma)
        result = ms.value_iteration(mdp, epsilon=1e-8)
        runs.append((mdp, gamma, result))
    return runs


def test_criterion_8_bellman_contraction(value_iteration_runs):
    worst_ratio_excess = -float("inf")
    for mdp, gamma, result in value_iteration_runs:
        for r0, r1 in zip(result.residuals, result.residuals[1:]):
            if r0 > 0.0:
                worst_ratio_excess = max(worst_ratio_excess, r1 / r0 - abs(gamma))
    closed = ms.value_iteration(constant_cost_mdp(gamma=0.5), epsilon=1e-8)
    closed_ok = bool(np.max(np.abs(closed.values - 2.0)) <= 1e-8)
    _report(
        8,
        "residual ratios respect |gamma| and the constant-cost closed form holds",
        worst_ratio_excess <= 1e-9 and closed_ok,
        f"max ratio excess {worst_ratio_excess:.2e}",
    )


def test_criterion_9_boundedness(value_iteration_runs):
    worst = -float("inf")
    for mdp, gamma, result in value_iteration_runs:
        bound = mdp.bound_K / (1.0 - abs(gamma)) + 1e-8
        worst = max(worst, float(np.max(np.abs(result.values))) - bound)
    _report(
        9,
        "fixed points stay within K/(1-|gamma|)",
        worst <= 0.0,
        f"max excess over the bound {worst:.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    from multistage.bundle import ProblemBundle

    corpus = []
    fx = recourse_fixture()
    corpus.append(ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"]))
    for seed in (42, 43):
        tree, cost, cls = acceptance_instance(seed, 500, horizon=2)
        corpus.append(ProblemBundle(tree=tree, cost=cost, cls=cls))

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "multistage", *args], capture_output=True, check=False
        )

    ok = True
    for i, bundle in enumerate(corpus):
        bundle_path = tmp_path / f"bundle_{i}.json"
        bundle_path.write_text(json.dumps(bundle_to_json(bundle), sort_keys=True))
        solve_args = ["solve", "--input", str(bundle_path), "--json"]
        first = run(solve_args)
        second = run(solve_args)
        ok = ok and first.returncode == 0 and first.stdout == second.stdout
        policy_path = tmp_path / f"policy_{i}.json"
        policy_path.write_text(json.dumps(json.loads(first.stdout)["policy"]))
        verify_args = [
            "verify",
            "--input",
            str(bundle_path),
            "--policy",
            str(policy_path),
            "--json",
        ]
        v_first = run(verify_args)
        v_second = run(verify_args)
        ok = ok and v_first.returncode == 0 and v_first.stdout == v_second.stdout
    _report(
        10,
        "solve and verify round trips exit 0 with byte-identical JSON",
        ok,
        f"{len(corpus)} bundles, two runs each",
    )
