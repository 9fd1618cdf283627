"""Seed-controlled random instances and the crafted desk fixtures.

Everything here is deterministic given the seed: trees and decision grids
for ``demo-interchange``'s random trials, the interchange fixture it starts
from, and the two-stage recourse fixture of the README's quick start.
"""

from __future__ import annotations

import numpy as np

from .costs import cost_from_json
from .policy import Decision, Policy, PolicyClass
from .scenario_tree import Node, ScenarioTree


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# -- random trees ---------------------------------------------------------------


def random_tree(
    rng: np.random.Generator,
    horizon: int | None = None,
    obs_dim: int = 1,
    max_branch: int = 3,
) -> ScenarioTree:
    """Balanced-depth tree with random branching, probabilities and values."""
    T = int(rng.integers(1, 4)) if horizon is None else horizon
    nodes = [
        Node(
            id=0,
            stage=0,
            parent=None,
            cond_prob=1.0,
            obs=tuple(rng.uniform(-2.0, 2.0, size=obs_dim)),
        )
    ]
    frontier = [0]
    for t in range(1, T + 1):
        next_frontier = []
        for parent in frontier:
            k = int(rng.integers(1, max_branch + 1))
            weights = rng.uniform(0.2, 1.0, size=k)
            probs = weights / weights.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            for p in probs:
                nid = len(nodes)
                nodes.append(
                    Node(
                        id=nid,
                        stage=t,
                        parent=parent,
                        cond_prob=float(p),
                        obs=tuple(rng.uniform(-2.0, 2.0, size=obs_dim)),
                    )
                )
                next_frontier.append(nid)
        frontier = next_frontier
    return ScenarioTree(nodes, horizon=T, obs_dim=obs_dim)


# -- random classes ----------------------------------------------------------------


def random_nodewise_class(
    rng: np.random.Generator,
    tree: ScenarioTree,
    decision_dim: int = 1,
    max_choices: int = 3,
    max_policies: int | None = None,
    fill: bool = False,
) -> PolicyClass:
    """Per-node grids; grid sizes are throttled to respect ``max_policies``.

    With ``fill`` the grids take the largest size the budget allows instead
    of a random one, so the policy count approaches ``max_policies``.
    """
    feasible: dict[int, tuple[Decision, ...]] = {}
    count = 1
    for n in tree.nodes:
        k = max_choices if fill else int(rng.integers(1, max_choices + 1))
        if max_policies is not None:
            while k > 1 and count * k > max_policies:
                k -= 1
        count *= k
        grid = rng.uniform(-1.0, 1.0, size=(k, decision_dim))
        feasible[n.id] = tuple(tuple(row) for row in grid)
    return PolicyClass(feasible=feasible, kind="nodewise", decision_dim=decision_dim)


def random_history_blind_class(
    rng: np.random.Generator,
    tree: ScenarioTree,
    decision_dim: int = 1,
    max_choices: int = 3,
) -> PolicyClass:
    """One shared grid per stage, assigned to every node of the stage."""
    feasible: dict[int, tuple[Decision, ...]] = {}
    for t in range(tree.horizon + 1):
        k = int(rng.integers(2, max_choices + 1))
        grid = tuple(tuple(row) for row in rng.uniform(-1.0, 1.0, size=(k, decision_dim)))
        for nid in tree.stage_nodes(t):
            feasible[nid] = grid
    return PolicyClass(feasible=feasible, kind="history_blind", decision_dim=decision_dim)


# -- crafted fixtures -----------------------------------------------------------------


def recourse_fixture() -> dict:
    """Two-stage tracking problem with hand-checked optimum.

    Root observes 0, leaves observe 1 (prob 0.4) and 2 (prob 0.6); grids are
    {0, 1} everywhere and the objective is (u_0 - 1)^2 + (u_1 - x_1)^2. The
    optimum 0.6 picks u_0 = 1, u_1 = 1 on both leaves; forcing u_0 = 0
    costs 1.6 and shows up as a unit drift at stage 0.
    """
    tree = ScenarioTree(
        [
            Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
            Node(id=1, stage=1, parent=0, cond_prob=0.4, obs=(1.0,)),
            Node(id=2, stage=1, parent=0, cond_prob=0.6, obs=(2.0,)),
        ],
        horizon=1,
        obs_dim=1,
    )
    cost = cost_from_json(
        {
            "form": "general",
            "poly": {
                "terms": [
                    {"coef": 1.0, "vars": [["u", 0, 0, 2]]},
                    {"coef": -2.0, "vars": [["u", 0, 0, 1]]},
                    {"coef": 1.0, "vars": []},
                    {"coef": 1.0, "vars": [["u", 1, 0, 2]]},
                    {"coef": -2.0, "vars": [["u", 1, 0, 1], ["x", 1, 0, 1]]},
                    {"coef": 1.0, "vars": [["x", 1, 0, 2]]},
                ]
            },
        }
    )
    grid = ((0.0,), (1.0,))
    cls = PolicyClass(
        feasible={0: grid, 1: grid, 2: grid}, kind="nodewise", decision_dim=1
    )
    optimal = Policy(decisions={0: (1.0,), 1: (1.0,), 2: (1.0,)}, decision_dim=1)
    perturbed = Policy(decisions={0: (0.0,), 1: (1.0,), 2: (1.0,)}, decision_dim=1)
    return {
        "tree": tree,
        "cost": cost,
        "cls": cls,
        "optimal_value": 0.6,
        "optimal_policy": optimal,
        "perturbed_policy": perturbed,
        "perturbed_value": 1.6,
    }


def interchange_fixture() -> dict:
    """Two equally likely atoms whose preferred choices conflict.

    The per-(atom, choice) costs are (1, 9) and (9, 1): choosing per atom
    averages to 1, while one shared choice cannot do better than 5.
    """
    tree = ScenarioTree(
        [
            Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
            Node(id=1, stage=1, parent=0, cond_prob=0.5, obs=(0.0,)),
            Node(id=2, stage=1, parent=0, cond_prob=0.5, obs=(1.0,)),
        ],
        horizon=1,
        obs_dim=1,
    )
    values = {(0.0, 0.0): 1.0, (0.0, 1.0): 9.0, (1.0, 0.0): 9.0, (1.0, 1.0): 1.0}

    def objective(obs_path, u):
        return values[(obs_path[-1][0], u[0])]

    grid = ((0.0,), (1.0,))
    root_grid = ((0.0,),)
    nodewise = PolicyClass(
        feasible={0: root_grid, 1: grid, 2: grid}, kind="nodewise", decision_dim=1
    )
    blind = PolicyClass(
        feasible={0: root_grid, 1: grid, 2: grid}, kind="history_blind", decision_dim=1
    )
    return {
        "tree": tree,
        "stage": 1,
        "objective": objective,
        "nodewise": nodewise,
        "history_blind": blind,
        "lhs": 1.0,
        "rhs_nodewise": 1.0,
        "rhs_history_blind": 5.0,
    }
