"""Instances and helpers that only the tests use.

Seeded random costs, MDPs and stagewise independent problems, the chain
tree, the crafted fixtures that the package itself does not run, and small
helpers that read the package's API the way the tests need it. Everything
is deterministic given the seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from multistage.costs import CostSpec, cost_from_json
from multistage.dp_solvers import MDPSpec, SddpSpec
from multistage.generate import (
    interchange_fixture,
    random_history_blind_class,
    random_nodewise_class,
    random_tree,
    rng_from_seed,
)
from multistage.policy import Decision, Policy, PolicyClass, _policy_at
from multistage.scenario_tree import Node, ScenarioTree


# -- trees ------------------------------------------------------------------------


def chain_tree(observations: list[float]) -> ScenarioTree:
    """Deterministic single-trajectory tree with the given scalar values."""
    nodes = [
        Node(
            id=i,
            stage=i,
            parent=None if i == 0 else i - 1,
            cond_prob=1.0,
            obs=(float(x),),
        )
        for i, x in enumerate(observations)
    ]
    return ScenarioTree(nodes, horizon=len(observations) - 1, obs_dim=1)


# -- random costs -----------------------------------------------------------------


def random_general_cost(
    rng: np.random.Generator,
    tree: ScenarioTree,
    decision_dim: int = 1,
    couple_stages: bool = True,
) -> CostSpec:
    """Random tracking-style polynomial: generic minima, no exact ties.

    Per stage and component the decision is pulled toward a random multiple
    of the stage observation, plus an optional cross-stage coupling term so
    the problem does not decouple stagewise.
    """
    terms = []
    for t in range(tree.horizon + 1):
        for i in range(decision_dim):
            a = float(rng.uniform(0.5, 1.5))
            b = float(rng.uniform(-1.0, 1.0))
            terms.append({"coef": a, "vars": [["u", t, i, 2]]})
            terms.append({"coef": -2.0 * a * b, "vars": [["u", t, i, 1], ["x", t, 0, 1]]})
            terms.append({"coef": a * b * b, "vars": [["x", t, 0, 2]]})
    if couple_stages and tree.horizon >= 1:
        for t in range(tree.horizon):
            lam = float(rng.uniform(-0.3, 0.3))
            terms.append(
                {"coef": lam, "vars": [["u", t, 0, 1], ["u", t + 1, 0, 1]]}
            )
    return cost_from_json({"form": "general", "poly": {"terms": terms}})


def random_additive_cost(
    rng: np.random.Generator,
    horizon: int,
    lag: int = 1,
    decision_dim: int = 1,
    gamma: float | None = None,
) -> CostSpec:
    """Random additive stack with window-relative polynomial stage costs."""
    if gamma is None:
        gamma = float(rng.choice([-0.5, 0.5, 0.9]))
    stage_specs = []
    for _ in range(horizon):
        a = float(rng.uniform(0.5, 1.5))
        b = float(rng.uniform(-1.0, 1.0))
        c = float(rng.uniform(-0.5, 0.5))
        terms = [
            {"coef": a, "vars": [["u", 0, 0, 2]]},
            {"coef": -2.0 * a * b, "vars": [["u", 0, 0, 1], ["x", 0, 0, 1]]},
            {"coef": a * b * b, "vars": [["x", 0, 0, 2]]},
            {"coef": c, "vars": [["x", min(lag, 1), 0, 1], ["u", 0, 0, 1]]},
        ]
        stage_specs.append({"poly": {"terms": terms}})
    return cost_from_json(
        {"form": "additive", "gamma": gamma, "lag": lag, "stage_costs": stage_specs}
    )


# -- random MDPs --------------------------------------------------------------------


def random_mdp(
    rng: np.random.Generator,
    n_states: int = 3,
    n_actions: int = 2,
    gamma: float = 0.9,
    action_dependent: bool = False,
    nonnegative: bool = False,
) -> MDPSpec:
    shape = (n_actions, n_states, n_states) if action_dependent else (n_states, n_states)
    raw = rng.uniform(0.1, 1.0, size=shape)
    kernel = raw / raw.sum(axis=-1, keepdims=True)
    kernel[..., -1] = 1.0 - kernel[..., :-1].sum(axis=-1)
    low = 0.0 if nonnegative else -1.0
    cost = rng.uniform(low, 1.0, size=(n_states, n_states, n_actions))
    return MDPSpec(
        states=tuple((float(i),) for i in range(n_states)),
        actions=tuple((float(a),) for a in range(n_actions)),
        kernel=kernel,
        cost=cost,
        gamma=gamma,
        bound_K=float(np.abs(cost).max()),
    )


def constant_cost_mdp(n_states: int = 2, gamma: float = 0.5, value: float = 1.0) -> MDPSpec:
    """Every transition costs the same; the fixed point is value/(1-gamma)."""
    kernel = np.full((n_states, n_states), 1.0 / n_states)
    kernel[:, -1] = 1.0 - kernel[:, :-1].sum(axis=1)
    cost = np.full((n_states, n_states, 1), float(value))
    return MDPSpec(
        states=tuple((float(i),) for i in range(n_states)),
        actions=((0.0,),),
        kernel=kernel,
        cost=cost,
        gamma=gamma,
        bound_K=float(abs(value)),
    )


# -- random stagewise independent instances -------------------------------------------


def random_sddp(
    rng: np.random.Generator,
    horizon: int = 3,
    n_atoms: int = 2,
    n_decisions: int = 2,
    gamma: float = 0.5,
    shared_noise: bool = True,
) -> SddpSpec:
    """Random stagewise independent instance with a polynomial step cost."""
    x0 = (float(rng.uniform(-1.0, 1.0)),)

    def draw_atoms():
        values = []
        while len(values) < n_atoms:
            v = float(rng.uniform(-1.0, 1.0))
            if abs(v - x0[0]) > 1e-6 and all(abs(v - w) > 1e-6 for w in values):
                values.append(v)
        weights = rng.uniform(0.2, 1.0, size=n_atoms)
        probs = weights / weights.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        return tuple((float(p), (v,)) for p, v in zip(probs, values))

    if shared_noise:
        atoms = draw_atoms()
        stage_noise = tuple(atoms for _ in range(horizon))
    else:
        stage_noise = tuple(draw_atoms() for _ in range(horizon))

    grid = tuple((float(u),) for u in rng.uniform(-1.0, 1.0, size=n_decisions))
    stage_decisions = tuple(grid for _ in range(horizon))

    a = float(rng.uniform(0.5, 1.5))
    b = float(rng.uniform(-1.0, 1.0))
    c = float(rng.uniform(-0.5, 0.5))
    payload = {
        "poly": {
            "terms": [
                {"coef": a, "vars": [["u", 0, 2]]},
                {"coef": -2.0 * a * b, "vars": [["u", 0, 1], ["w", 0, 1]]},
                {"coef": a * b * b, "vars": [["w", 0, 2]]},
                {"coef": c, "vars": [["x", 0, 1], ["u", 0, 1]]},
            ]
        }
    }

    def step_cost(xs, us):
        (x, w), (u,) = xs, us
        return a * (u[0] - b * w[0]) ** 2 + c * x[0] * u[0]

    return SddpSpec(
        initial_state=x0,
        horizon=horizon,
        stage_noise=stage_noise,
        stage_decisions=stage_decisions,
        gamma=gamma,
        step_cost=step_cost,
        payload={
            "initial_state": list(x0),
            "horizon": horizon,
            "gamma": gamma,
            "stage_noise": [
                [{"prob": p, "value": list(v)} for p, v in atoms]
                for atoms in stage_noise
            ],
            "stage_decisions": [[list(u) for u in g] for g in stage_decisions],
            "cost": payload,
        },
    )


# -- crafted fixtures -----------------------------------------------------------------


def branching_gap_fixture() -> dict:
    """History-blind instance whose stage-0 interchange gap is 4.

    Same payoff pattern as the interchange fixture, packaged as a full
    problem: the conditional value at the root with a shared stage-1
    decision is 5, while the expectation of the per-node values is 1.
    """
    fx = interchange_fixture()
    values = {(0.0, 0.0): 1.0, (0.0, 1.0): 9.0, (1.0, 0.0): 9.0, (1.0, 1.0): 1.0}
    entries = [
        {"x": [[0.0], [x1]], "u": [[0.0], [u1]], "value": values[(x1, u1)]}
        for x1 in (0.0, 1.0)
        for u1 in (0.0, 1.0)
    ]
    cost = cost_from_json({"form": "general", "table": {"entries": entries}})
    return {
        "tree": fx["tree"],
        "cost": cost,
        "cls": fx["history_blind"],
        "nodewise_cls": fx["nodewise"],
        "root_gap": 4.0,
    }


def non_markov_tree() -> ScenarioTree:
    """Two stage-1 nodes share the observation but not the law below them."""
    return ScenarioTree(
        [
            Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
            Node(id=1, stage=1, parent=0, cond_prob=0.5, obs=(1.0,)),
            Node(id=2, stage=1, parent=0, cond_prob=0.5, obs=(1.0,)),
            Node(id=3, stage=2, parent=1, cond_prob=0.5, obs=(0.0,)),
            Node(id=4, stage=2, parent=1, cond_prob=0.5, obs=(2.0,)),
            Node(id=5, stage=2, parent=2, cond_prob=0.9, obs=(0.0,)),
            Node(id=6, stage=2, parent=2, cond_prob=0.1, obs=(2.0,)),
        ],
        horizon=2,
        obs_dim=1,
    )


def random_instance(
    seed: int,
    max_policies: int = 5000,
    horizon: int | None = None,
    kind: str = "nodewise",
    additive: bool = False,
) -> tuple[ScenarioTree, CostSpec, PolicyClass]:
    """One seeded problem: tree, cost and class, sized for desk-scale sweeps."""
    rng = rng_from_seed(seed)
    tree = random_tree(rng, horizon=horizon)
    if kind == "nodewise":
        cls = random_nodewise_class(rng, tree, max_policies=max_policies)
    else:
        cls = random_history_blind_class(rng, tree)
    if additive:
        cost = random_additive_cost(rng, horizon=tree.horizon)
    else:
        cost = random_general_cost(rng, tree)
    return tree, cost, cls


# -- helpers ----------------------------------------------------------------------


def x_window(paths: Sequence[tuple[float, ...]], t: int, lag: int) -> tuple:
    """Observations x_{t-lag..t}, truncated at stage 0."""
    return tuple(paths[max(0, t - lag): t + 1])


def u_window(decisions: Sequence[tuple[float, ...]], t: int, lag: int) -> tuple:
    """Decisions u_{t-lag..t-1}, truncated at stage 0."""
    return tuple(decisions[max(0, t - lag): t])


def feasible_at(cls: PolicyClass, tree: ScenarioTree, node_id: int) -> tuple[Decision, ...]:
    """Stage decisions achievable at one node (atom) of the tree: its slot's grid."""
    slot_of, grids = cls.slots(tree)
    return grids[slot_of[tree.node(node_id).id]]


def policy_from_indices(tree: ScenarioTree, cls: PolicyClass, indices: Sequence[int]) -> Policy:
    """The policy selected by one enumeration index tuple."""
    return _policy_at(cls, *cls.slots(tree), indices)
