"""The three workloads: seeded inputs on disk, operations, and their checks.

A workload is built by the parent process, which never imports the
program. Each operation is one ``multistage`` command line; its check
closes over the benchmark's own answer for it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import gen
import reference as ref


@dataclass
class Op:
    id: str
    argv: list[str]
    check: Callable[[dict], None]


@dataclass
class Input:
    """One file that set-up loads: ``bundle``, ``policy``, ``mdp`` or ``sddp``."""
    kind: str
    path: str
    malformed: bool = False


class Workload:
    """The inputs written for one workload and the operations run on them."""

    def __init__(self, workdir: str):
        self.dir = workdir
        self.inputs: list[Input] = []
        self.ops: list[Op] = []

    def write(self, kind: str, name: str, data: dict, malformed: bool = False) -> str:
        path = os.path.join(self.dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        self.inputs.append(Input(kind, path, malformed))
        return path

    def op(self, id_: str, argv: list[str], check) -> None:
        self.ops.append(Op(id_, argv + ["--json"], check))

    def policies(self, name: str, problem: ref.Problem, idx: list[int]):
        """Optimal policy file and, for nodewise classes, the one-node perturbation
        that raises the cost most."""
        opt = self.write("policy", f"{name}.opt", problem.policy_json(idx))
        if problem.kind != "nodewise":
            return opt, None, None
        delta, node, k = max(problem.one_node_changes(idx))
        if delta <= 1e-6:
            raise RuntimeError(f"{name}: no one-node change raises the cost")
        pert_idx = list(idx)
        pert_idx[node] = k
        pert = self.write("policy", f"{name}.pert", problem.policy_json(pert_idx))
        return opt, pert, pert_idx


def _bundle(rng, counts, grids, cost_kind, kind="nodewise", random_shape=True) -> dict:
    T = len(counts) - 1
    tree = gen.tree_json(rng, counts, random_shape=random_shape)
    cls = (gen.nodewise_class if kind == "nodewise" else gen.history_blind_class)(rng, tree, grids)
    if cost_kind == "poly":
        cost = gen.general_poly(rng, T)
    elif cost_kind == "lag1":
        cost = gen.additive_poly(rng, T, 1)
    elif cost_kind == "lag2":
        cost = gen.additive_poly(rng, T, 2)
    elif cost_kind == "qtrack":
        cost = gen.quadratic_tracking(rng, T)
    else:
        cost = gen.table_cost(rng, tree, cls)
    return {"tree": tree, "cost": cost, "policy_class": cls}


# Tree-solve ladder: (name, nodes per stage, grid size per stage, cost kind, brute?).
# Grid histories (v-table entries) run from 98 to 48 638.
TREE_SOLVE = [
    ("table3", [1, 2, 3, 4], [2, 2, 2, 2], "table", True),
    ("poly3", [1, 2, 4, 6], [2, 2, 2, 2], "poly", True),
    ("lag1_4", [1, 2, 3, 4, 4], [2, 2, 2, 2, 2], "lag1", True),
    ("lag2_5", [1, 2, 4, 6, 8, 10], [3, 2, 2, 2, 2, 2], "lag2", False),
    ("qtrack5", [1, 3, 6, 9, 12, 18], [2, 2, 2, 2, 2, 3], "qtrack", False),
    ("poly6", [1, 3, 6, 12, 18, 27, 40], [2, 2, 2, 2, 2, 2, 2], "poly", False),
    ("poly7", [1, 3, 6, 12, 24, 36, 72, 141], [2, 2, 2, 2, 2, 2, 2, 2], "poly", False),
]
HOLDER = [("holder_ok", 1.5, True), ("holder_bad", 0.5, False)]


def own_holder_ratio(problem: ref.Problem, alpha: float, delta: float) -> float:
    """max |dv| / ||du||^alpha over grid-history pairs within delta, per leaf."""
    worst = 0.0
    for leaf in problem.tree.leaves:
        path = problem.tree.paths[leaf]
        table = problem.tables[leaf]
        hists = np.asarray([np.concatenate([problem.grids[i][k] for i, k in zip(path, pos)])
                            for pos in np.ndindex(*table.shape)])
        vals = table.reshape(-1)
        dist = np.sqrt(((hists[:, None, :] - hists[None, :, :]) ** 2).sum(axis=2))
        mask = (dist > 0.0) & (dist <= delta)
        if mask.any():
            dv = np.abs(vals[:, None] - vals[None, :])
            worst = max(worst, float((dv[mask] / dist[mask] ** alpha).max()))
    return worst


def tree_solve(w: Workload, seed: int) -> None:
    for name, counts, grids, cost_kind, brute in TREE_SOLVE:
        data = _bundle(gen.rng_for(seed, name), counts, grids, cost_kind)
        path = w.write("bundle", name, data)
        problem = ref.Problem(data)
        optimum, idx = problem.exhaustive() if brute else problem.backward()
        opt, pert, pert_idx = w.policies(name, problem, idx)
        w.op(f"{name}/solve-backward", ["solve", "--input", path, "--method", "backward"],
             lambda out, p=problem, v=optimum: checks.solve(out, p, v))
        if brute:
            w.op(f"{name}/solve-brute", ["solve", "--input", path, "--method", "brute"],
                 lambda out, p=problem, v=optimum: checks.solve(out, p, v))
        w.op(f"{name}/verify-optimal", ["verify", "--input", path, "--policy", opt],
             lambda out, p=problem, i=idx: checks.verify(out, p, i, "optimal"))
        w.op(f"{name}/verify-perturbed", ["verify", "--input", path, "--policy", pert],
             lambda out, p=problem, i=pert_idx: checks.verify(out, p, i, "not-optimal"))
    for name, factor, valid in HOLDER:
        data = _bundle(gen.rng_for(seed, name), [1, 2, 4, 6, 8], [3, 2, 2, 2, 3], "poly")
        alpha, delta = 1.0, 0.8
        ratio = own_holder_ratio(ref.Problem(data), alpha, delta)
        data["cost"]["holder"] = {"C": gen.rounded(factor * ratio), "alpha": alpha, "delta": delta}
        path = w.write("bundle", name, data)
        w.op(f"{name}/validate", ["validate", "--input", path],
             lambda out, v=valid: checks.validate(out, v, "" if v else "Hoelder"))
    for name, (data, word) in gen.malformed_bundles().items():
        path = w.write("bundle", f"malformed_{name}", data, malformed=True)
        w.op(f"malformed_{name}/validate", ["validate", "--input", path],
             lambda out, w=word: checks.malformed_validate(out, w))
        w.op(f"malformed_{name}/solve", ["solve", "--input", path], checks.malformed_solve)


# Definitional route: small nodewise trees (dynamic-check enumerates every
# tail at every node) and deeper history-blind trees. The work grows as
# 2^(descendants) per node, so these trees have a fixed shape.
NODEWISE_SMALL = [("nw9", [1, 2, 6]), ("nw11", [1, 2, 3, 5]), ("nw13", [1, 2, 4, 6])]
HISTORY_BLIND = [("hb5", [1, 2, 3, 4, 5, 6], [2, 2, 2, 2, 2, 3]),
                 ("hb7", [1, 2, 2, 3, 3, 4, 4, 5], [2] * 8)]


def definitional(w: Workload, seed: int) -> None:
    for name, counts in NODEWISE_SMALL:
        data = _bundle(gen.rng_for(seed, name), counts, [2] * len(counts), "poly",
                       random_shape=False)
        path = w.write("bundle", name, data)
        problem = ref.Problem(data)
        optimum, idx = problem.exhaustive()
        opt, pert, _ = w.policies(name, problem, idx)
        for tag, pol in (("optimal", opt), ("perturbed", pert)):
            w.op(f"{name}/dynamic-check-{tag}", ["dynamic-check", "--input", path, "--policy", pol],
                 lambda out, v=optimum: checks.dynamic_check(out, v, equality=True))
    for name, counts, grids in HISTORY_BLIND:
        data = _bundle(gen.rng_for(seed, name), counts, grids, "poly", kind="history_blind",
                       random_shape=False)
        path = w.write("bundle", name, data)
        problem = ref.Problem(data)
        optimum, idx = problem.exhaustive()
        opt, _, _ = w.policies(name, problem, idx)
        w.op(f"{name}/dynamic-check", ["dynamic-check", "--input", path, "--policy", opt],
             lambda out, v=optimum: checks.dynamic_check(out, v, equality=False))
        w.op(f"{name}/verify", ["verify", "--input", path, "--policy", opt],
             lambda out, p=problem, i=idx: checks.verify(out, p, i, "inconclusive"))
        w.op(f"{name}/solve-brute", ["solve", "--input", path, "--method", "brute"],
             lambda out, p=problem, v=optimum: checks.solve(out, p, v))

    data = gen.recourse_fixture()
    path = w.write("bundle", "recourse", data)
    problem = ref.Problem(data)
    optimum, idx = problem.exhaustive()
    if abs(optimum - 0.6) > 1e-12:
        raise RuntimeError(f"recourse fixture optimum {optimum}, expected 0.6")
    opt, pert, pert_idx = w.policies("recourse", problem, idx)
    w.op("recourse/solve", ["solve", "--input", path],
         lambda out: checks.solve(out, problem, 0.6))
    w.op("recourse/verify-optimal", ["verify", "--input", path, "--policy", opt],
         lambda out: checks.verify(out, problem, idx, "optimal"))
    w.op("recourse/verify-perturbed", ["verify", "--input", path, "--policy", pert],
         lambda out: checks.verify(out, problem, pert_idx, "not-optimal"))
    w.op("recourse/dynamic-check", ["dynamic-check", "--input", path, "--policy", opt],
         lambda out: checks.dynamic_check(out, 0.6, equality=True))

    data = gen.branching_gap_fixture()
    path = w.write("bundle", "branching_gap", data)
    gap_problem = ref.Problem(data)
    gap_opt, gap_idx = gap_problem.exhaustive()
    pol, _, _ = w.policies("branching_gap", gap_problem, gap_idx)
    w.op("branching_gap/dynamic-check", ["dynamic-check", "--input", path, "--policy", pol],
         lambda out: checks.dynamic_check(out, gap_opt, equality=False, root_slack=4.0))
    w.op("branching_gap/solve-brute", ["solve", "--input", path, "--method", "brute"],
         lambda out: checks.solve(out, gap_problem, gap_opt))


# Dynamic equations: (name, states, action-dependent kernel, horizon).
MDPS = [("mdp50i", 50, False, 20), ("mdp50d", 50, True, 30),
        ("mdp120d", 120, True, 20), ("mdp200i", 200, False, 20)]
SDDPS = [("sddp6", 6, 8, 15), ("sddp10", 10, 12, 20), ("sddp8", 8, 20, 25)]
VI_EPSILON = 1e-6


def dynamic_equations(w: Workload, seed: int) -> None:
    for name, n, dep, horizon in MDPS:
        data = gen.mdp_json(gen.rng_for(seed, name), n, 5, 0.9, dep)
        path = w.write("mdp", name, data)
        values = ref.mdp_backward(data, horizon)
        w.op(f"{name}/mdp-solve", ["mdp-solve", "--input", path, "--horizon", str(horizon)],
             lambda out, v=values: checks.mdp_solve(out, v))
        fixed = ref.fixed_point(data)
        w.op(f"{name}/value-iterate",
             ["value-iterate", "--input", path, "--tolerance", repr(VI_EPSILON)],
             lambda out, f=fixed: checks.value_iterate(out, f, VI_EPSILON, 0.9))
    for name, T, atoms, decisions in SDDPS:
        data = gen.sddp_json(gen.rng_for(seed, name), T, atoms, decisions, 0.8)
        path = w.write("sddp", name, data)
        root = ref.sddp_root(data)
        w.op(f"{name}/sddp-solve", ["sddp-solve", "--input", path],
             lambda out, r=root: checks.sddp_solve(out, r))


WORKLOADS = {"tree-solve": tree_solve, "definitional": definitional,
             "dynamic-equations": dynamic_equations}
