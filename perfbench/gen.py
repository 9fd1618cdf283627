"""Seeded input generator for the benchmark.

Writes bundles, policies, MDPs and stagewise-independent problems in the
JSON formats of the project README. Nothing here imports ``multistage``:
a change to the program's own generators cannot change what is measured.

Every instance has a fixed shape per slot (nodes per stage, grid size per
stage, number of states); the seed only draws values, probabilities and
which parent a node hangs from. So the amount of work, and the list of
operations, is the same for every seed.
"""

from __future__ import annotations

import numpy as np

SIG = 6  # significant digits written for random reals, to keep files small


def rounded(x: float) -> float:
    return float(f"{x:.{SIG}g}")


def rng_for(seed: int, slot: str) -> np.random.Generator:
    return np.random.default_rng([seed] + [ord(c) for c in slot])


def probs(rng: np.random.Generator, k: int) -> list[float]:
    """k positive rounded probabilities whose float sum is 1 within 1e-15."""
    w = rng.uniform(0.2, 1.0, size=k)
    p = [rounded(v) for v in w / w.sum()]
    p[-1] = 1.0 - sum(p[:-1])
    return p


# -- trees and classes -----------------------------------------------------------


def tree_json(rng, stage_counts: list[int], obs_dim: int = 1, random_shape: bool = True) -> dict:
    """Tree with the given number of nodes per stage, branching 1..3.

    With ``random_shape`` the seed decides which parents get the extra
    children; otherwise they go to the parents in order, so the shape (and
    with it the work of enumerating tails) is the same for every seed.
    """
    nodes = [{"id": 0, "stage": 0, "cond_prob": 1.0,
              "obs": [rounded(v) for v in rng.uniform(-2, 2, obs_dim)]}]
    frontier = [0]
    for t, n in enumerate(stage_counts[1:], start=1):
        k = len(frontier)
        if not k <= n <= 3 * k:
            raise ValueError(f"stage {t}: {n} nodes under {k} parents")
        kids = [1] * k
        for j in range(n - k):
            open_ = [i for i in range(k) if kids[i] < 3]
            kids[open_[int(rng.integers(len(open_))) if random_shape else j % len(open_)]] += 1
        nxt = []
        for parent, m in zip(frontier, kids):
            for p in probs(rng, m):
                nid = len(nodes)
                nodes.append({"id": nid, "stage": t, "parent": parent, "cond_prob": p,
                              "obs": [rounded(v) for v in rng.uniform(-2, 2, obs_dim)]})
                nxt.append(nid)
        frontier = nxt
    return {"horizon": len(stage_counts) - 1, "obs_dim": obs_dim, "nodes": nodes}


def grid(rng, k: int, low: float = -1.0, high: float = 1.0) -> list[list[float]]:
    vals = []
    while len(vals) < k:
        v = rounded(rng.uniform(low, high))
        if all(abs(v - w) > 1e-3 for w in vals):
            vals.append(v)
    return [[v] for v in vals]


def nodewise_class(rng, tree: dict, grid_sizes: list[int]) -> dict:
    return {"kind": "nodewise", "decision_dim": 1,
            "feasible": {str(n["id"]): grid(rng, grid_sizes[n["stage"]])
                         for n in tree["nodes"]}}


def history_blind_class(rng, tree: dict, grid_sizes: list[int]) -> dict:
    grids = [grid(rng, k) for k in grid_sizes]
    return {"kind": "history_blind", "decision_dim": 1,
            "feasible": {str(n["id"]): grids[n["stage"]] for n in tree["nodes"]}}


# -- costs ------------------------------------------------------------------------


def general_poly(rng, T: int, couple: bool = True) -> dict:
    """Tracking polynomial with cross-stage coupling: generic, tie-free minima."""
    terms = []
    for t in range(T + 1):
        a, b = rounded(rng.uniform(0.5, 1.5)), rounded(rng.uniform(-1, 1))
        terms += [{"coef": a, "vars": [["u", t, 0, 2]]},
                  {"coef": rounded(-2 * a * b), "vars": [["u", t, 0, 1], ["x", t, 0, 1]]},
                  {"coef": rounded(a * b * b), "vars": [["x", t, 0, 2]]}]
    if couple:
        for t in range(T):
            terms.append({"coef": rounded(rng.uniform(-0.3, 0.3)),
                          "vars": [["u", t, 0, 1], ["u", t + 1, 0, 1]]})
        if T >= 2:
            terms.append({"coef": rounded(rng.uniform(-0.2, 0.2)),
                          "vars": [["u", 0, 0, 1], ["x", T, 0, 1], ["u", T, 0, 1]]})
    return {"form": "general", "poly": {"terms": terms}}


def additive_poly(rng, T: int, lag: int) -> dict:
    """Window-relative stage costs; a lag-2 stack reaches two steps back."""
    stages = []
    for _ in range(T):
        a, b = rounded(rng.uniform(0.5, 1.5)), rounded(rng.uniform(-1, 1))
        terms = [{"coef": a, "vars": [["u", 0, 0, 2]]},
                 {"coef": rounded(-2 * a * b), "vars": [["u", 0, 0, 1], ["x", 0, 0, 1]]},
                 {"coef": rounded(a * b * b), "vars": [["x", 0, 0, 2]]},
                 {"coef": rounded(rng.uniform(-0.5, 0.5)), "vars": [["x", 1, 0, 1], ["u", 0, 0, 1]]}]
        if lag >= 2:
            terms.append({"coef": rounded(rng.uniform(-0.4, 0.4)),
                          "vars": [["u", 1, 0, 1], ["u", 0, 0, 1]]})
        stages.append({"poly": {"terms": terms}})
    gamma = [0.9, 0.5, -0.5][int(rng.integers(3))]
    return {"form": "additive", "gamma": gamma, "lag": lag, "stage_costs": stages}


def quadratic_tracking(rng, T: int) -> dict:
    weights = [rounded(v) for v in rng.uniform(0.5, 2.0, T + 1)]
    return {"form": "general", "builtin": "quadratic_tracking", "params": {"weights": weights}}


def table_cost(rng, tree: dict, cls: dict) -> dict:
    """Random lookup table over every leaf path and grid history."""
    by_id = {n["id"]: n for n in tree["nodes"]}
    parents = {n.get("parent") for n in tree["nodes"]}
    entries = []
    for leaf in (n for n in tree["nodes"] if n["id"] not in parents):
        path = []
        cur = leaf
        while True:
            path.append(cur["id"])
            if cur.get("parent") is None:
                break
            cur = by_id[cur["parent"]]
        path.reverse()
        xs = [by_id[i]["obs"] for i in path]
        for hist in _product([cls["feasible"][str(i)] for i in path]):
            entries.append({"x": xs, "u": list(hist), "value": rounded(rng.uniform(-1, 3))})
    return {"form": "general", "table": {"entries": entries}}


def _product(lists):
    out = [[]]
    for lst in lists:
        out = [h + [v] for h in out for v in lst]
    return out


# -- MDPs and stagewise independent problems -------------------------------------------


def mdp_json(rng, n: int, a: int, gamma: float, action_dependent: bool) -> dict:
    shape = (a, n, n) if action_dependent else (n, n)
    raw = rng.uniform(0.1, 1.0, size=shape)
    kern = np.round(raw / raw.sum(axis=-1, keepdims=True), 7)
    rows = kern.reshape(-1, n).tolist()
    for row in rows:
        row[-1] = 1.0 - sum(row[:-1])
    kernel = np.asarray(rows).reshape(shape).tolist()
    cost = np.round(rng.uniform(-1.0, 1.0, size=(n, n, a)), 4)
    return {"states": [[float(i)] for i in range(n)], "actions": [[float(k)] for k in range(a)],
            "kernel": kernel, "cost": cost.tolist(), "gamma": gamma,
            "bound_K": float(np.abs(cost).max())}


def sddp_json(rng, T: int, atoms: int, decisions: int, gamma: float) -> dict:
    def support():
        vals = sorted({rounded(v) for v in rng.uniform(-1, 1, atoms * 2)})[:atoms]
        return [{"prob": p, "value": [v]} for p, v in zip(probs(rng, atoms), vals)]

    a, b, c = rounded(rng.uniform(0.5, 1.5)), rounded(rng.uniform(-1, 1)), rounded(rng.uniform(-0.5, 0.5))
    cost = {"poly": {"terms": [
        {"coef": a, "vars": [["u", 0, 2]]},
        {"coef": rounded(-2 * a * b), "vars": [["u", 0, 1], ["w", 0, 1]]},
        {"coef": rounded(a * b * b), "vars": [["w", 0, 2]]},
        {"coef": c, "vars": [["x", 0, 1], ["u", 0, 1]]},
        {"coef": rounded(rng.uniform(0.0, 0.3)), "vars": [["u", 0, 4]]}]}}
    return {"initial_state": [rounded(rng.uniform(-1, 1))], "horizon": T, "gamma": gamma,
            "stage_noise": [support() for _ in range(T)],
            "stage_decisions": [[[rounded(u)] for u in np.linspace(-1.5, 1.5, decisions)]
                                for _ in range(T)],
            "cost": cost}


# -- crafted fixtures -----------------------------------------------------------------


def recourse_fixture() -> dict:
    """Two-stage tracking problem: optimum 0.6 at u = 1 everywhere."""
    g = [[0.0], [1.0]]
    return {
        "tree": {"horizon": 1, "obs_dim": 1, "nodes": [
            {"id": 0, "stage": 0, "cond_prob": 1.0, "obs": [0.0]},
            {"id": 1, "stage": 1, "parent": 0, "cond_prob": 0.4, "obs": [1.0]},
            {"id": 2, "stage": 1, "parent": 0, "cond_prob": 0.6, "obs": [2.0]}]},
        "cost": {"form": "general", "poly": {"terms": [
            {"coef": 1.0, "vars": [["u", 0, 0, 2]]},
            {"coef": -2.0, "vars": [["u", 0, 0, 1]]},
            {"coef": 1.0, "vars": []},
            {"coef": 1.0, "vars": [["u", 1, 0, 2]]},
            {"coef": -2.0, "vars": [["u", 1, 0, 1], ["x", 1, 0, 1]]},
            {"coef": 1.0, "vars": [["x", 1, 0, 2]]}]}},
        "policy_class": {"kind": "nodewise", "decision_dim": 1,
                         "feasible": {"0": g, "1": g, "2": g}},
    }


def branching_gap_fixture() -> dict:
    """History-blind problem whose root V relation has slack 4 (5 against 1)."""
    values = {(0.0, 0.0): 1.0, (0.0, 1.0): 9.0, (1.0, 0.0): 9.0, (1.0, 1.0): 1.0}
    g = [[0.0], [1.0]]
    return {
        "tree": {"horizon": 1, "obs_dim": 1, "nodes": [
            {"id": 0, "stage": 0, "cond_prob": 1.0, "obs": [0.0]},
            {"id": 1, "stage": 1, "parent": 0, "cond_prob": 0.5, "obs": [0.0]},
            {"id": 2, "stage": 1, "parent": 0, "cond_prob": 0.5, "obs": [1.0]}]},
        "cost": {"form": "general", "table": {"entries": [
            {"x": [[0.0], [x1]], "u": [[0.0], [u1]], "value": values[(x1, u1)]}
            for x1 in (0.0, 1.0) for u1 in (0.0, 1.0)]}},
        "policy_class": {"kind": "history_blind", "decision_dim": 1,
                         "feasible": {"0": [[0.0]], "1": g, "2": g}},
    }


def malformed_bundles() -> dict[str, tuple[dict, str]]:
    """Four bundles that ``validate`` should reject, with the word naming the fault.

    They do not depend on the seed: the faults are in the program, not in
    the draw.
    """
    def base(cost: dict) -> dict:
        g = [[0.0], [1.0]]
        return {"tree": {"horizon": 1, "obs_dim": 1, "nodes": [
                    {"id": 0, "stage": 0, "cond_prob": 1.0, "obs": [0.5]},
                    {"id": 1, "stage": 1, "parent": 0, "cond_prob": 0.5, "obs": [1.0]},
                    {"id": 2, "stage": 1, "parent": 0, "cond_prob": 0.5, "obs": [2.0]}]},
                "cost": cost,
                "policy_class": {"kind": "nodewise", "decision_dim": 1,
                                 "feasible": {"0": g, "1": g, "2": g}}}

    def poly(bad_vars):
        return {"form": "general", "poly": {"terms": [
            {"coef": 1.0, "vars": [["u", 1, 0, 2]]},
            {"coef": 1.0, "vars": bad_vars}]}}

    return {
        # 0.0 ** -1 at the grid value 0: ZeroDivisionError inside solve.
        "neg_power": (base(poly([["u", 0, 0, -1]])), "term"),
        # component 1 of a one-dimensional observation: IndexError.
        "bad_component": (base(poly([["x", 1, 1, 1]])), "term"),
        # one weight where a horizon-1 tree needs T+1 = 2: IndexError at stage 1.
        "short_weights": (base({"form": "general", "builtin": "quadratic_tracking",
                                "params": {"weights": [1.0]}}), "weights"),
        # absolute stage -1: the term silently evaluates to 0.
        "neg_stage": (base(poly([["u", -1, 0, 1]])), "term"),
    }
