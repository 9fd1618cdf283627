"""Seed-controlled random instances and the crafted desk fixtures.

Everything here is deterministic given the seed: trees, decision grids,
polynomial objectives, MDPs and stagewise independent problems. The
crafted fixtures are the small hand-checkable instances used throughout
the test suite and the command line demos.
"""

from __future__ import annotations

import numpy as np

from .costs import CostSpec, cost_from_json
from .dp_solvers import MDPSpec, SddpSpec
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
