"""Instances and helpers that only the tests use.

Seeded random costs, MDPs and stagewise independent problems, the chain
tree, the crafted fixtures that the package itself does not run, and small
helpers that read the package's API the way the tests need it. Everything
is deterministic given the seed.

The rest is code that no command runs but the tests check against the
package: the JSON writers that invert its loaders (the package keeps no
input document, so the documents that the helpers here build objects from
are recorded here, :func:`document`), exhaustive policy enumeration, one
sweep of the stationary Bellman operator, the empirical Hoelder constant,
and the paper's measure-theoretic helpers (conditional expectation and
essential infimum on a finite tree, adaptedness of a leaf-indexed table
and its Doob-Dynkin factorization into a policy, and pasting two policies
along a set of trajectories).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from multistage.bundle import ProblemBundle
from multistage.costs import CostSpec, cost_from_json, verify_holder
from multistage.dp_solvers import MDPSpec, SddpSpec, _bellman_min, _transposed
from multistage.exceptions import (
    IncompleteFunctionError,
    InfeasiblePolicyError,
    InputFormatError,
    MultistageError,
    UnknownNodeError,
)
from multistage import generate
from multistage.generate import (
    interchange_fixture,
    random_history_blind_class,
    random_nodewise_class,
    random_tree,
    rng_from_seed,
)
from multistage.policy import (
    DEFAULT_ENUMERATION_CAP,
    Decision,
    Policy,
    PolicyClass,
    _index_product,
    _policy_at,
    _split_slot,
    policy_to_json,
)
from multistage.scenario_tree import Node, ScenarioTree

#: adaptedness: two stage-t decisions below one node agree componentwise
#: (:func:`check_adapted`, :func:`doob_dynkin_factorize`)
ADAPTED_TOL = 1e-12


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


# -- JSON documents ---------------------------------------------------------------

#: the JSON document of every cost and stagewise problem built by :func:`load_cost`,
#: :func:`recourse_fixture` or a generator below, by the object's id; the object is
#: kept with its document, so that its id is not reused
_DOCUMENTS: dict[int, tuple[object, dict]] = {}


def with_document(obj, data: dict):
    """``obj``, recorded as built from the JSON document ``data``."""
    _DOCUMENTS[id(obj)] = (obj, data)
    return obj


def document(obj) -> dict:
    """The JSON document that ``obj`` was built from (:func:`with_document`)."""
    if id(obj) not in _DOCUMENTS:
        raise InputFormatError(f"this {type(obj).__name__} was built without a JSON document")
    return _DOCUMENTS[id(obj)][1]


def load_cost(data: dict) -> CostSpec:
    """``cost_from_json(data)``, with ``data`` recorded as its document."""
    return with_document(cost_from_json(data), data)


#: the JSON document of ``multistage.generate.recourse_fixture``'s cost
RECOURSE_COST = {
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


def recourse_fixture() -> dict:
    """``multistage.generate.recourse_fixture()``, its cost recorded as :data:`RECOURSE_COST`."""
    fx = generate.recourse_fixture()
    with_document(fx["cost"], RECOURSE_COST)
    return fx


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
    return load_cost({"form": "general", "poly": {"terms": terms}})


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
    return load_cost(
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

    spec = SddpSpec(
        initial_state=x0,
        horizon=horizon,
        stage_noise=stage_noise,
        stage_decisions=stage_decisions,
        gamma=gamma,
        stage_step_costs=(step_cost,) * horizon,
    )
    return with_document(
        spec,
        {
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
    cost = load_cost({"form": "general", "table": {"entries": entries}})
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


# -- serialization: the inverses of the package's loaders --------------------------


def tree_to_json(tree: ScenarioTree) -> dict:
    """Serializable form: ``{"horizon", "obs_dim", "nodes": [...]}``."""
    nodes = []
    for n in tree.nodes:
        entry: dict = {
            "id": n.id,
            "stage": n.stage,
            "cond_prob": n.cond_prob,
            "obs": list(n.obs),
        }
        if n.parent is not None:
            entry["parent"] = n.parent
        nodes.append(entry)
    return {"horizon": tree.horizon, "obs_dim": tree.obs_dim, "nodes": nodes}


def cost_to_json(cost: CostSpec) -> dict:
    return document(cost)


def policy_class_to_json(cls: PolicyClass) -> dict:
    return {
        "kind": cls.kind,
        "decision_dim": cls.decision_dim,
        "feasible": {
            str(k): [list(dec) for dec in grid] for k, grid in sorted(cls.feasible.items())
        },
    }


def bundle_to_json(bundle: ProblemBundle) -> dict:
    out = {
        "tree": tree_to_json(bundle.tree),
        "cost": cost_to_json(bundle.cost),
        "policy_class": policy_class_to_json(bundle.cls),
    }
    if bundle.policies:
        out["policies"] = {
            name: policy_to_json(p) for name, p in sorted(bundle.policies.items())
        }
    return out


def mdp_to_json(mdp: MDPSpec) -> dict:
    out: dict = {
        "states": [list(s) for s in mdp.states],
        "actions": [list(a) for a in mdp.actions],
        "kernel": mdp.kernel.tolist(),
        "gamma": mdp.gamma,
        "bound_K": mdp.bound_K,
    }
    if mdp.cost is not None:
        out["cost"] = mdp.cost.tolist()
    if mdp.stage_costs is not None:
        out["stage_costs"] = [c.tolist() for c in mdp.stage_costs]
    if mdp.actions_by_state is not None:
        out["actions_by_state"] = [list(r) for r in mdp.actions_by_state]
    return out


# -- enumeration, the Bellman operator and the Hoelder constant --------------------


def enumerate_policies(
    tree: ScenarioTree, cls: PolicyClass, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Policy]:
    """Every policy of the class exactly once, in reproducible order."""
    slot_of, grids = cls.slots(tree)
    for indices in _index_product(grids, cap):
        yield _policy_at(cls, slot_of, grids, indices)


def bellman_apply(mdp: MDPSpec, v: np.ndarray) -> np.ndarray:
    """One sweep of the stationary Bellman operator."""
    if mdp.cost is None:
        raise InputFormatError("the Bellman operator needs a stationary cost")
    return _bellman_min(mdp.kernel, _transposed(mdp.cost), mdp.gamma, v, mdp.action_mask)[0]


def empirical_holder_constant(tree, cls, cost: CostSpec, alpha: float, delta: float) -> float:
    """Smallest C that makes the Hoelder bound hold on the sampled grid."""
    check = verify_holder(tree, cls, cost, C=0.0, alpha=alpha, delta=delta)
    return check.max_ratio


# -- conditional expectation and essential infimum on a finite tree ----------------


def conditional_expectation(
    tree: ScenarioTree, f: Mapping[int, float], at: int
) -> float:
    """Expectation of a child-indexed function conditional on reaching ``at``.

    ``f`` must assign a value to every child of ``at``; the result is the
    conditional-probability weighted sum over those children.
    """
    kids = tree.children(at)
    if not kids:
        raise IncompleteFunctionError(f"node {at} has no children to average over")
    total = 0.0
    for c in kids:
        if c not in f:
            raise IncompleteFunctionError(f"function is missing a value for child node {c}")
        total += tree.nodes[c].cond_prob * f[c]
    return total


def essential_infimum(
    family: Sequence[Mapping[int, float]]
) -> dict[int, float]:
    """Pointwise minimum of a finite nonempty family of node-indexed maps.

    On a finite space this is the essential infimum: it is a lower bound of
    the family and dominates every other lower bound. The fold order over
    the family is immaterial.
    """
    if not family:
        raise MultistageError("essential infimum of an empty family is undefined")
    keys = set(family[0])
    for f in family[1:]:
        if set(f) != keys:
            raise IncompleteFunctionError("family members are defined on different node sets")
    return {k: min(f[k] for f in family) for k in sorted(keys)}


# -- adaptedness and factorization -------------------------------------------------


class NotAdaptedError(MultistageError):
    """A leaf-indexed control table is not adapted to the tree filtration."""

    def __init__(self, node_id: int, stage: int):
        super().__init__(
            f"values at stage {stage} disagree across the leaves below node {node_id}; "
            "the table cannot be factorized into stagewise functions"
        )
        self.node_id = node_id
        self.stage = stage


def _leaf_table(
    tree: ScenarioTree, leafwise: Mapping[int, Sequence[Decision]]
) -> dict[int, tuple[Decision, ...]]:
    table: dict[int, tuple[Decision, ...]] = {}
    for leaf in tree.leaves():
        if leaf not in leafwise:
            raise IncompleteFunctionError(f"leaf {leaf} is missing from the table")
        seq = tuple(tuple(float(x) for x in dec) for dec in leafwise[leaf])
        if len(seq) != tree.horizon + 1:
            raise IncompleteFunctionError(
                f"leaf {leaf}: expected {tree.horizon + 1} stage decisions, got {len(seq)}"
            )
        table[leaf] = seq
    return table


def _agreement(values: Iterable[Decision], tol: float) -> bool:
    it = iter(values)
    ref = next(it)
    for v in it:
        if len(v) != len(ref):
            return False
        if any(abs(a - b) > tol for a, b in zip(ref, v)):
            return False
    return True


def check_adapted(
    tree: ScenarioTree,
    leafwise: Mapping[int, Sequence[Decision]],
    tol: float = ADAPTED_TOL,
) -> bool:
    """Whether a leaf-indexed control table is adapted to the filtration.

    True iff for every stage t and every stage-t node, the stage-t entry
    agrees (within ``tol``) across all leaves below that node.
    """
    table = _leaf_table(tree, leafwise)
    for n in tree.nodes:
        vals = (table[leaf][n.stage] for leaf in tree.leaves_below(n.id))
        if not _agreement(vals, tol):
            return False
    return True


def doob_dynkin_factorize(
    tree: ScenarioTree,
    leafwise: Mapping[int, Sequence[Decision]],
    tol: float = ADAPTED_TOL,
) -> Policy:
    """Factorize an adapted leaf table into one decision per node.

    The stage-t decision of the returned policy at a node is the common
    stage-t value of the table on the leaves below that node; evaluating
    the policy back along each leaf path reproduces the table. Raises
    :class:`NotAdaptedError` naming the offending node otherwise.
    """
    table = _leaf_table(tree, leafwise)
    decisions: dict[int, Decision] = {}
    dim: int | None = None
    for n in tree.nodes:
        leaves = tree.leaves_below(n.id)
        if not _agreement((table[leaf][n.stage] for leaf in leaves), tol):
            raise NotAdaptedError(n.id, n.stage)
        decisions[n.id] = table[leaves[0]][n.stage]
        dim = len(decisions[n.id]) if dim is None else dim
    return Policy(decisions=decisions, decision_dim=dim or 0)


def policy_to_leafwise(
    tree: ScenarioTree, policy: Policy
) -> dict[int, tuple[Decision, ...]]:
    """Evaluate a policy along every leaf path: the inverse of factorization."""
    paths = policy.decision_paths(tree)
    return {leaf: paths[leaf] for leaf in tree.leaves()}


# -- pasting -----------------------------------------------------------------------


class PastingInfeasibleError(MultistageError):
    """Pasting two feasible policies left the class: non-decomposability evidence.

    Carries the offending pasted policy so tests can inspect the witness.
    """

    def __init__(self, stage: int, node_ids: tuple[int, ...], policy):
        super().__init__(
            f"pasted policy is infeasible at stage {stage} (nodes {list(node_ids)}); "
            "the class is not closed under pasting"
        )
        self.stage = stage
        self.node_ids = node_ids
        self.policy = policy


def paste(
    tree: ScenarioTree,
    cls: PolicyClass,
    u1: Policy,
    u2: Policy,
    leaf_set: Iterable[int],
) -> Policy:
    """Paste two feasible policies along a set of trajectories.

    The result follows ``u1`` at nodes whose descendant leaves all lie in
    ``leaf_set`` and ``u2`` elsewhere. Nodewise classes are closed under
    this operation; for history-blind classes the result can leave the
    class, in which case :class:`PastingInfeasibleError` carries the pasted
    policy as non-decomposability evidence.
    """
    leaves = set(tree.leaves())
    chosen = set(int(i) for i in leaf_set)
    unknown = chosen - leaves
    if unknown:
        raise UnknownNodeError(f"not leaves of the tree: {sorted(unknown)}")
    for name, pol in (("u1", u1), ("u2", u2)):
        if not cls.contains(tree, pol):
            raise InfeasiblePolicyError(f"policy {name} is not feasible in the class")

    decisions: dict[int, Decision] = {}
    for n in tree.nodes:
        inside = set(tree.leaves_below(n.id)) <= chosen
        decisions[n.id] = (u1 if inside else u2).decisions[n.id]
    pasted = Policy(decisions=decisions, decision_dim=cls.decision_dim)

    slot_of = cls.slots(tree)[0]
    split = _split_slot(slot_of, pasted)
    if split is not None:
        ids = tuple(nid for nid, s in enumerate(slot_of) if s == split)
        raise PastingInfeasibleError(tree.node(ids[0]).stage, ids, pasted)
    return pasted
