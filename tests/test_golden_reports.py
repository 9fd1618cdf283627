"""Golden digests of the ``--json`` reports on seeded bundles.

The CLI promises byte-identical reports for identical inputs, and a change
that only makes the program faster must not move a single bit of them.
Each case below is a bundle built by ``multistage.generate`` from a fixed
seed, a subcommand run on it in-process, and the SHA-256 digest of the
report it prints, with the ``input`` field (a temporary path) dropped. The
bundles cover a general polynomial, additive lag-1 and lag-2 stacks,
``quadratic_tracking``, lookup ``table`` s (general, additive lag-2, and one
whose entries overlap within ``atol``, so the first matching entry decides),
a nodewise class whose grid sizes differ within a stage, a nodewise class
with more leaf entries than one batch of leaf arrays holds, a
history-blind class, and 2^65 policies (``huge_count``), so that the
``policy_count`` of its reports is past 64-bit integers.

Two fixed-shape bundles pin the definitional route at small caps: a
nodewise tree with 1, 2, 4 and 6 nodes per stage and grids of 2 (``nw13``)
and a horizon-5 history-blind tree with a grid of 3 at the last stage
(``blind5``). ``dynamic-check`` and ``verify`` run on each at the default
``--cap`` and at smaller caps (``CAPS``): one where the root's tails fit
but a node's block of values over its own and its parent's decision does
not, so that node's blocks fix a longer head prefix, and on ``blind5`` one
where every block fits but the leaf arrays run past the budget. On
``nw13`` the 96 leaf entries are fewer than the root's 4096 tails, so no
cap the root fits reaches the leaf budget. The digests were recorded
before the route chose one prefix per node, when these caps took a pass
per head. ``validate`` runs on a bundle with a declared Hoelder
block that holds and on one that fails, and ``sddp-solve`` on a
stagewise-independent problem whose step cost is a table.

The lag-l recursion check and the discount shift are pinned the same way,
in-process: the digest of every field of a ``lag_recursion_check`` report
and of a ``tilde_shift`` process (at the greedy and at a probe policy), with
every float written as ``float.hex``. Their fixtures cover lags 0 to 3,
gamma > 0, < 0 and = 0, compiled JSON stage costs and raw callables, and
one tree whose lag windows hide different laws (an inapplicable report).

The MDP commands are pinned by the bytes they print: the digest of the
whole standard output of ``mdp-solve`` and ``value-iterate``, with ``--json``
and as text, with the input path replaced by a fixed placeholder. Their
seeded ``random_mdp`` instances cover action-independent and
action-dependent kernels, an ``actions_by_state`` mask together with
``stage_costs``, gamma < 0 and gamma = 0, and a ``--max-iters`` run that does
not converge (exit 1). These digests were recorded before the MDP solvers
and the report writer were reworked. A written-out MDP (``mdp_tokens``) has
values and residuals in [1e-5, 1e-4) of both signs, tokens such as
``10.00001`` and magnitudes of 1e16 and more: the numbers that orjson spells
unlike ``json``. Its digests, and those of ``huge_count``, were recorded
while every report was still written by ``json.dumps``.

The help texts are pinned the same way: the digest of what ``multistage
--help`` and every ``<subcommand> --help`` print, and of the usage error that
a command line without a subcommand prints, each formatted for 80 columns.

The digests depend on the floating-point arithmetic, so they were recorded
with numpy 2.4 on x86-64, and the help texts with Python 3.11's argparse.
To print the digests of the current code, run
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import replace

import pytest

from multistage.bundle import ProblemBundle
from multistage.cli import main
from multistage.costs import cost_from_json
from multistage.dp_solvers import (
    lag_recursion_check,
    sddp_from_json,
    sddp_to_product_tree,
    tilde_shift,
)
from multistage.generate import (
    random_history_blind_class,
    random_nodewise_class,
    random_tree,
    rng_from_seed,
)
from multistage.policy import Policy, PolicyClass
from multistage.scenario_tree import Node, ScenarioTree, path
from multistage.value_process import backward_tables, greedy_policy_from_tables
from instances import (
    bundle_to_json,
    empirical_holder_constant,
    mdp_to_json,
    non_markov_tree,
    random_additive_cost,
    random_general_cost,
    random_instance,
    random_mdp,
    random_sddp,
)


def probe_policy(tree, cls) -> Policy:
    """A feasible, usually suboptimal policy: entry (stage + 1) mod size of each grid."""
    decisions = {}
    for n in tree.nodes:
        grid = cls.feasible[n.id]
        decisions[n.id] = grid[(n.stage + 1) % len(grid)]
    return Policy(decisions=decisions, decision_dim=cls.decision_dim)


def table_cost(rng, tree, cls) -> dict:
    """A general table over every leaf path and grid history, random values."""
    entries = []
    for leaf in tree.leaves():
        grids = [cls.feasible[i] for i in tree.path_nodes(leaf)]
        for hist in itertools.product(*grids):
            entries.append({
                "x": [list(x) for x in path(tree, leaf)],
                "u": [list(u) for u in hist],
                "value": float(rng.uniform(-1.0, 1.0)),
            })
    return {"form": "general", "table": {"entries": entries}}


def lag_table_cost(rng, tree, cls, lag: int) -> dict:
    """An additive lag-``lag`` stack of stage tables over every window on the grids."""
    stage_costs = []
    for t in range(1, tree.horizon + 1):
        a = max(0, t - lag)
        windows = {tree.path_nodes(leaf)[a: t + 1] for leaf in tree.leaves()}
        entries = [
            {"x": [list(tree.nodes[i].obs) for i in nodes],
             "u": [list(u) for u in hist],
             "value": float(rng.uniform(-1.0, 1.0))}
            for nodes in sorted(windows)
            for hist in itertools.product(*(cls.feasible[i] for i in nodes[:-1]))
        ]
        stage_costs.append({"table": {"entries": entries}})
    return {"form": "additive", "gamma": 0.8, "lag": lag, "stage_costs": stage_costs}


def overlapping_table_cost(rng, tree, cls, atol: float) -> dict:
    """A general table in which every history has a second entry within ``atol``
    of it, each history's first entry placed at random among the other ones."""
    exact = table_cost(rng, tree, cls)["table"]["entries"]
    near = [
        {"x": e["x"], "u": [[v + 0.5 * atol for v in u] for u in e["u"]],
         "value": float(rng.uniform(-1.0, 1.0))}
        for e in exact
    ]
    entries = []
    for e, n in zip(exact, near):
        entries += [n, e] if rng.uniform() < 0.5 else [e, n]
    return {"form": "general", "table": {"atol": atol, "entries": entries}}


def sddp_table(seed: int) -> dict:
    """A stagewise-independent problem whose step cost is a table over every
    (state, noise value, decision) of every stage."""
    rng = rng_from_seed(seed)
    spec = random_sddp(rng, horizon=3, n_atoms=3, n_decisions=3, shared_noise=False)
    entries = [
        {"x": list(x), "w": list(w), "u": list(u), "value": float(rng.uniform(-1.0, 2.0))}
        for t in range(spec.horizon)
        for x in spec.support(t)
        for w in spec.support(t + 1)
        for u in spec.stage_decisions[t]
    ]
    return {**spec.payload, "cost": {"table": {"entries": entries}}}


def fixed_tree(rng, counts: list[int]) -> ScenarioTree:
    """A tree with ``counts[t]`` nodes at stage t, the stage-t nodes dealt to the
    stage-(t-1) nodes in turn; random probabilities and scalar observations."""
    nodes = [Node(id=0, stage=0, parent=None, cond_prob=1.0,
                  obs=(float(rng.uniform(-2.0, 2.0)),))]
    frontier = [0]
    for t, count in enumerate(counts[1:], start=1):
        parents = [frontier[k % len(frontier)] for k in range(count)]
        weights = rng.uniform(0.2, 1.0, size=count)
        level = []
        for parent in frontier:
            mine = [k for k in range(count) if parents[k] == parent]
            level += [(parent, float(weights[k] / weights[mine].sum())) for k in mine]
        frontier = []
        for parent, p in level:
            frontier.append(len(nodes))
            nodes.append(Node(id=len(nodes), stage=t, parent=parent, cond_prob=p,
                              obs=(float(rng.uniform(-2.0, 2.0)),)))
    return ScenarioTree(nodes, horizon=len(counts) - 1, obs_dim=1)


def sized_class(rng, tree, sizes: list[int], kind: str) -> PolicyClass:
    """Random scalar grids of ``sizes[t]`` decisions at stage t: one per node
    (nodewise) or one per stage (history-blind)."""
    def grid(k):
        return tuple((float(u),) for u in rng.uniform(-1.0, 1.0, size=k))

    stage_grids = [grid(k) for k in sizes]
    feasible = {n.id: stage_grids[n.stage] if kind == "history_blind" else grid(sizes[n.stage])
                for n in tree.nodes}
    return PolicyClass(feasible=feasible, kind=kind, decision_dim=1)


#: fixed-shape bundle -> (nodes per stage, grid size per stage, class kind)
FIXED = {"nw13": ([1, 2, 4, 6], [2, 2, 2, 2], "nodewise"),
         "blind5": ([1, 2, 3, 4, 5, 6], [2, 2, 2, 2, 2, 3], "history_blind")}
#: fixed-shape bundle -> the caps below the default its commands also run at
CAPS = {"nw13": [4096], "blind5": [48, 288]}


def inputs() -> dict[str, dict]:
    """Name -> input JSON (a bundle with one policy, or a stagewise-independent
    problem), every one from a fixed seed."""
    out = {}

    def add(name, tree, cost, cls):
        bundle = ProblemBundle(tree=tree, cost=cost, cls=cls,
                               policies={"probe": probe_policy(tree, cls)})
        out[name] = bundle_to_json(bundle)

    tree, cost, cls = random_instance(21, max_policies=4000, horizon=3)
    add("general", tree, cost, cls)
    tree, cost, cls = random_instance(22, max_policies=4000, horizon=3, additive=True)
    add("lag1", tree, cost, cls)

    rng = rng_from_seed(23)
    tree = random_tree(rng, horizon=3)
    cls = random_nodewise_class(rng, tree, max_policies=4000)
    add("lag2", tree, random_additive_cost(rng, horizon=3, lag=2, gamma=0.9), cls)

    rng = rng_from_seed(24)
    tree = random_tree(rng, horizon=2, obs_dim=2)
    cls = random_nodewise_class(rng, tree, decision_dim=3, max_policies=3000)
    weights = [float(w) for w in rng.uniform(0.5, 2.0, size=3)]
    tracking = cost_from_json({"form": "general", "builtin": "quadratic_tracking",
                               "params": {"weights": weights}})
    add("tracking", tree, tracking, cls)

    rng = rng_from_seed(25)
    tree = random_tree(rng, horizon=2)
    cls = random_nodewise_class(rng, tree, max_policies=2000)
    add("table", tree, cost_from_json(table_cost(rng, tree, cls)), cls)

    rng = rng_from_seed(30)
    tree = random_tree(rng, horizon=3)
    cls = random_nodewise_class(rng, tree, max_policies=4000)
    add("table_lag2", tree, cost_from_json(lag_table_cost(rng, tree, cls, 2)), cls)

    rng = rng_from_seed(31)
    tree = random_tree(rng, horizon=2)
    cls = random_nodewise_class(rng, tree, max_policies=2000)
    add("table_overlap", tree,
        cost_from_json(overlapping_table_cost(rng, tree, cls, atol=1e-6)), cls)

    out["sddp_table"] = sddp_table(32)

    # grid sizes 1 to 3 chosen per node: several shapes among the leaves
    rng = rng_from_seed(26)
    tree = random_tree(rng, horizon=3, max_branch=3)
    cls = random_nodewise_class(rng, tree, max_choices=3, max_policies=4500)
    add("mixed", tree, random_general_cost(rng, tree), cls)

    tree, cost, cls = random_instance(27, horizon=3, kind="history_blind")
    add("blind", tree, cost, cls)
    rng = rng_from_seed(28)
    tree = random_tree(rng, horizon=3)
    cls = random_history_blind_class(rng, tree)
    add("blind_lag2", tree, random_additive_cost(rng, horizon=3, lag=2, gamma=-0.5), cls)

    # full grids of 3 on a horizon-6 tree: more leaf entries than one batch holds
    rng = rng_from_seed(33)
    tree = random_tree(rng, horizon=6)
    cls = random_nodewise_class(rng, tree, fill=True)
    add("wide", tree, random_general_cost(rng, tree), cls)

    for seed, (name, (counts, sizes, kind)) in enumerate(FIXED.items(), start=61):
        rng = rng_from_seed(seed)
        tree = fixed_tree(rng, counts)
        cls = sized_class(rng, tree, sizes, kind)
        add(name, tree, random_general_cost(rng, tree), cls)

    # grids of 2 at 65 nodes: a policy count of 2^65, past 64-bit integers
    rng = rng_from_seed(34)
    tree = fixed_tree(rng, [1, 64])
    add("huge_count", tree, random_general_cost(rng, tree),
        sized_class(rng, tree, [2, 2], "nodewise"))

    rng = rng_from_seed(29)
    tree = random_tree(rng, horizon=2, obs_dim=1)
    cls = random_nodewise_class(rng, tree, max_policies=3000)
    cost = random_general_cost(rng, tree)
    ratio = empirical_holder_constant(tree, cls, cost, alpha=1.0, delta=0.8)
    for name, scale in (("holder_holds", 1.5), ("holder_fails", 0.5)):
        data = bundle_to_json(ProblemBundle(tree=tree, cost=cost, cls=cls))
        data["cost"] = {**data["cost"],
                        "holder": {"C": scale * ratio, "alpha": 1.0, "delta": 0.8}}
        out[name] = data
    return out


def commands(name: str) -> list[list[str]]:
    if name.startswith("holder"):
        return [["validate"]]
    if name.startswith("sddp"):
        return [["sddp-solve"]]
    if name == "huge_count":  # too many policies for brute force and the definitional route
        return [["solve"], ["verify"]]
    if name in ("table_lag2", "table_overlap"):
        return [["solve", "--method", "backward"], ["solve", "--method", "brute"], ["verify"]]
    if name == "wide":  # too many policies and tails for the definitional route
        return [["solve", "--method", "backward"], ["verify"]]
    if name in FIXED:
        caps = [[]] + [["--cap", str(cap)] for cap in CAPS[name]]
        return [[command, *cap] for cap in caps for command in ("dynamic-check", "verify")]
    out = [["solve", "--method", "brute"], ["verify"], ["dynamic-check"]]
    if not name.startswith("blind"):
        out.insert(0, ["solve", "--method", "backward"])
    return out


SUBCOMMANDS = ["validate", "solve", "verify", "dynamic-check", "demo-interchange",
               "mdp-solve", "value-iterate", "sddp-solve"]


def help_ids() -> list[str]:
    return ["", "--help"] + [f"{name} --help" for name in SUBCOMMANDS]


def run_help(command: str) -> tuple[int, str, str]:
    """Exit code and digests of stdout and stderr of ``multistage <command>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
    return (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest())


def case_ids() -> list[str]:
    return [f"{name}:{' '.join(cmd)}" for name in inputs() for cmd in commands(name)]


def run_case(directory, name: str, command: list[str]) -> tuple[int, str]:
    """Exit code and digest of the report, without its ``input`` field."""
    file = directory / f"{name}.json"
    if not file.exists():
        file.write_text(json.dumps(inputs()[name], sort_keys=True, indent=2))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*command, "--input", str(file), "--json"])
    report = json.loads(out.getvalue())
    # the printed bytes are json.dumps' own, so the digest pins them too
    assert out.getvalue() == json.dumps(report, sort_keys=True, indent=2) + "\n"
    report.pop("input")
    text = json.dumps(report, sort_keys=True, indent=2)
    return code, hashlib.sha256(text.encode()).hexdigest()


def raw(cost):
    """The additive cost with every stage cost a raw callable, called history by history."""
    return replace(cost, stage_costs=tuple(
        (lambda xs, us, c=c: c(xs, us)) for c in cost.stage_costs
    ))


def dynamic_fixtures() -> dict:
    """Name -> (tree, additive cost, nodewise class), every one from a fixed seed."""
    out = {}
    for name, seed, lag, gamma in (("tree_lag1", 51, 1, 0.5), ("tree_lag1_neg", 52, 1, -0.7),
                                   ("tree_lag2", 53, 2, 0.9), ("tree_lag1_zero", 54, 1, 0.0),
                                   ("tree_lag3_neg", 55, 3, -0.3), ("tree_lag0", 56, 0, 0.5)):
        rng = rng_from_seed(seed)
        tree = random_tree(rng, horizon=3)
        cls = random_nodewise_class(rng, tree, max_policies=4000)
        cost = random_additive_cost(rng, horizon=3, lag=lag, gamma=gamma)
        out[name] = (tree, cost, cls)
    for name in ("tree_lag1", "tree_lag3_neg"):
        tree, cost, cls = out[name]
        out[name + "_raw"] = (tree, raw(cost), cls)
    for T, gamma in ((2, 0.5), (3, 0.5), (3, -0.5), (3, 0.0), (4, -0.5)):
        spec = random_sddp(rng_from_seed(8), horizon=T, gamma=gamma)
        out[f"sddp{T}_{gamma}_raw"] = sddp_to_product_tree(spec)
        out[f"sddp{T}_{gamma}_json"] = sddp_to_product_tree(sddp_from_json(spec.payload))
    tree, _, cls = out["sddp3_0.5_json"]
    for lag, gamma in ((0, 0.9), (2, -0.7)):
        cost = random_additive_cost(rng_from_seed(57 + lag), horizon=3, lag=lag, gamma=gamma)
        out[f"sddp3_lag{lag}"] = (tree, cost, cls)
    tree = non_markov_tree()
    grid = ((0.0,), (1.0,))
    cls = PolicyClass(feasible={n.id: grid for n in tree.nodes}, kind="nodewise",
                      decision_dim=1)
    out["non_markov"] = (tree, random_additive_cost(rng_from_seed(33), 2, gamma=0.5), cls)
    return out


def hexed(value):
    """A JSON form of a report value: every float as its type name and ``float.hex``,
    a dict as its (key, value) pairs in order."""
    if isinstance(value, float):
        return [type(value).__name__, value.hex()]
    if isinstance(value, dict):
        return [[hexed(k), hexed(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def hex_digest(value) -> str:
    return hashlib.sha256(json.dumps(hexed(value)).encode()).hexdigest()


def run_dynamic(name: str) -> tuple[str, str, str]:
    """Digests of the lag check's report and of the shift at the greedy and a probe policy."""
    tree, cost, cls = dynamic_fixtures()[name]
    tables = backward_tables(tree, cost, cls)
    greedy = greedy_policy_from_tables(tree, cls, tables)
    return (
        hex_digest(vars(lag_recursion_check(tree, cost, cls))),
        hex_digest(vars(tilde_shift(tree, tables, cost, greedy))),
        hex_digest(vars(tilde_shift(tree, tables, cost, probe_policy(tree, cls)))),
    )



def mdp_inputs() -> dict[str, dict]:
    """Name -> MDP JSON, every one from a fixed seed or written out."""
    out = {}
    for name, seed, n, a, gamma, dependent in (
        ("mdp_indep", 71, 6, 3, 0.9, False), ("mdp_dep", 72, 5, 4, 0.8, True),
        ("mdp_neg", 73, 4, 3, -0.7, True), ("mdp_zero", 74, 4, 2, 0.0, False),
    ):
        out[name] = mdp_to_json(random_mdp(rng_from_seed(seed), n_states=n, n_actions=a,
                                           gamma=gamma, action_dependent=dependent))
    # a mask on the actions, and one cost array per transition of a horizon-4 solve
    rng = rng_from_seed(75)
    data = mdp_to_json(random_mdp(rng, n_states=5, n_actions=3, gamma=0.85,
                                  action_dependent=True))
    data["actions_by_state"] = [[0, 2], [1], [0, 1, 2], [2, 0], [1, 2]]
    data["stage_costs"] = [rng.uniform(-1.0, 1.0, size=(5, 5, 3)).tolist() for _ in range(4)]
    data["bound_K"] = 1.0
    out["mdp_masked"] = data
    # one state per cost, each its own absorbing state: the values and residuals
    # hold floats in [1e-5, 1e-4) of both signs, 10.00001-like tokens and
    # magnitudes of 1e16 and more, where orjson spells numbers unlike json
    costs = [2e-5, -2e-5, 5.000005, -33.333338333, 2e16, -3.5e17, 3.3e-5, 1e-7, 5.5e15, -7e-5]
    n = len(costs)
    out["mdp_tokens"] = {
        "states": [[float(i)] for i in range(n)], "actions": [[0.0], [1.0]],
        "kernel": [[float(j == i) for j in range(n)] for i in range(n)],
        "cost": [[[c, 1.5 * c] if j == i else [0.0, 0.0] for j in range(n)]
                 for i, c in enumerate(costs)],
        "gamma": 0.5, "bound_K": 1e18,
    }
    return out


#: MDP input -> the commands run on it, each with and without --json
MDP_COMMANDS = {
    "mdp_indep": ["mdp-solve --horizon 5", "value-iterate"],
    "mdp_dep": ["mdp-solve --horizon 7", "value-iterate --tolerance 1e-6"],
    "mdp_neg": ["mdp-solve --horizon 4", "value-iterate"],
    "mdp_zero": ["mdp-solve --horizon 3", "value-iterate"],
    "mdp_masked": ["mdp-solve --horizon 4", "value-iterate", "value-iterate --max-iters 3"],
    "mdp_tokens": ["mdp-solve --horizon 3", "value-iterate"],
}


def mdp_case_ids() -> list[str]:
    return [f"{name}:{command}{flag}" for name, commands in MDP_COMMANDS.items()
            for command in commands for flag in ("", " --json")]


def run_mdp_case(directory, name: str, command: list[str]) -> tuple[int, str]:
    """Exit code and digest of the whole standard output, the input path replaced."""
    file = directory / f"{name}.json"
    if not file.exists():
        file.write_text(json.dumps(mdp_inputs()[name], sort_keys=True, indent=2))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*command, "--input", str(file)])
    text = out.getvalue().replace(json.dumps(str(file)), '"<input>"')
    return code, hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    'general:solve --method backward': (0, '26d7a2d983153f13fe44df7d255857dd883335a4f840699e0cd8bb4100d481ef'),
    'general:solve --method brute': (0, '1c26e45b1a63484efceef93dcdb3090828822e2bd6e4d6d6936d38a10e0cacb7'),
    'general:verify': (1, '8296ebb1337b0eca0c38864db1238ec589fe84f4d24f9334bda54bcaf9135c78'),
    'general:dynamic-check': (0, 'c9bf6a40150d6b7d831c1a4023335b8ef89d15da1c7a902c5df47a5d911c61f0'),
    'lag1:solve --method backward': (0, '023437773ade76a1180818236969bb88de14d030b10329200bfbaa44d70f4c56'),
    'lag1:solve --method brute': (0, 'b1ff94d3a43aa19827ff11fd0a827b466be9445ced1291d82d7d63bf9367bc5d'),
    'lag1:verify': (1, 'c3a42be084c1c21be05f509d94fb877503c370a67bdd23f448b40ccba624d240'),
    'lag1:dynamic-check': (0, 'b42582430c18c862d3a7995cded1b8f34261419c17e84c7d04acfd4fc5a9832f'),
    'lag2:solve --method backward': (0, '1107910465c8bca5e9b9ac25d0b5bccf421130f5a604030817a17e7a34fff706'),
    'lag2:solve --method brute': (0, 'a15a6144f578922944d7832b76d93d61500b184fe515da4384490514bc796c58'),
    'lag2:verify': (1, '8d12949d11656270951bd44b53c0ebf50e0725686ef45e28b35902072675601e'),
    'lag2:dynamic-check': (0, '2b35f0449909ab97309f3a6fd4065ede890c147f530c9a75d13b493821ead835'),
    'tracking:solve --method backward': (0, '52a0e31e84c0fc9b3c572066a2b03e94d7566d590defe7061060f15e53824a7f'),
    'tracking:solve --method brute': (0, '86c4fd10363f5b2b6f447c780b2a753dcbc731a4e4f7728c60731152a1a34483'),
    'tracking:verify': (1, 'c53d9c144662cf306b70b23d050e83d2c3b450b42e646a6c7b961e0add7bbae8'),
    'tracking:dynamic-check': (0, '1e2511a512c8cf5a1174c1a661a5f7ae09c533f4b61b70f23ae18210be014d14'),
    'table:solve --method backward': (0, '68e341126f74a26304239bcd8c5572f5ab4e998252e33dc50e00ac16ba624d9c'),
    'table:solve --method brute': (0, '8522e02048df16446709b964d46eed5ea737850a3fad29d09b01b81d39b38d75'),
    'table:verify': (1, '23e8e23f72ea24644d6a4195944e8a538afc6a39b982a2dbf0daaf72cfb4b0f8'),
    'table:dynamic-check': (0, 'd4aed63a442c0cabb56ab57dc9ec4fedbb45dbb2d46849253007ce258ccc58af'),
    'table_lag2:solve --method backward': (0, '1ce0792e49abf53f6571c33249036bba0d216dccefdadb85fe2ba27649223fe2'),
    'table_lag2:solve --method brute': (0, '86d9d772e4934bfa40eba5db962e9acb6664fa4b73b56f6389a1454fc52aad4d'),
    'table_lag2:verify': (1, '52f39ac8a65c798b53869e5a909d99d8b17801f22dfe2dae236a482e7ea22ef4'),
    'table_overlap:solve --method backward': (0, '9123419a8f494104331bb530fa8747dbe3c17fbf5552d8c3e458af8a2f7c6b67'),
    'table_overlap:solve --method brute': (0, '16eb35fc22f9a02b9c0106a3fb81602e12e4ca98f79c22f2be80e5fd64a2ff79'),
    'table_overlap:verify': (1, 'cb841668771d371837d4b2139b89aa13f4cb44cfa361358c9b428f32fb45a0d2'),
    'mixed:solve --method backward': (0, '6e0baef2d750878beb444bc8f59f4a8ff94a3d4fd29e7da4aed052e5d0d5bf43'),
    'mixed:solve --method brute': (0, '4296ef1d1644499bdfda8bce2dcfd0faf6d6ddac45c0f08c66851a96b5e60ed2'),
    'mixed:verify': (1, 'ed9d9cab600880c3a98f2a354e64876ad8f3bab3efb16eb0a53c0c36ca795225'),
    'mixed:dynamic-check': (0, 'bf7fbdd941ef9a57c66230f18470e82b537af6a5913657fde069021f5f937cda'),
    'blind:solve --method brute': (0, 'b7bfd2248f88ef56fdf956d8bf2c857c76a84aaa5fe99b5d027acf6961460505'),
    'blind:verify': (2, '81e9c9e6ae2cec05ec74d8ec7f920188ba56f5369986a74677843405c8072b2b'),
    'blind:dynamic-check': (0, 'd0be67692de53420c8114abf4fac6c79ffb3dd5d0f35a465ee012e8744b5839f'),
    'blind_lag2:solve --method brute': (0, '75215eb6774c622c6fef94f62ff46363190fcc394aaf3232f94d2b0ca428e18d'),
    'blind_lag2:verify': (2, '4cdbd7501e3feb8b661eeda3289b20692da9230ef952e7c50bcaea57d3ca60ce'),
    'blind_lag2:dynamic-check': (0, '3a9f928770797442ce71f076e3ab4b2adff551a2a51d9c60e6861efde42c55ec'),
    'wide:solve --method backward': (0, '00814351387e8ac894ae92d3d2771c98348a878ea83bd932166deec2fd19d8ef'),
    'wide:verify': (1, '746eee4a695d1f80f54ac6a57c607a483dcd36768f149d74cb81cb13589297ff'),
    'nw13:dynamic-check': (0, 'd9034404a078f575363df7c8ca3bfbc5967f6c19a9ff2dd46dbdcd09fc870f54'),
    'nw13:verify': (1, 'b63da0b51d87a960902da50ac489027c58378ac2285c124800b15aa67b022009'),
    'nw13:dynamic-check --cap 4096': (0, 'd9034404a078f575363df7c8ca3bfbc5967f6c19a9ff2dd46dbdcd09fc870f54'),
    'nw13:verify --cap 4096': (1, 'b63da0b51d87a960902da50ac489027c58378ac2285c124800b15aa67b022009'),
    'blind5:dynamic-check': (0, '4856d51c09c2bba51dbcc69977378c26504767398ed780dc79ab2a279f9d7e9d'),
    'blind5:verify': (2, 'a9180c75f8d981447dd27fd977526661e2692999d9b1051a4b1a4176dd6e5726'),
    'blind5:dynamic-check --cap 48': (0, '4856d51c09c2bba51dbcc69977378c26504767398ed780dc79ab2a279f9d7e9d'),
    'blind5:verify --cap 48': (2, 'a9180c75f8d981447dd27fd977526661e2692999d9b1051a4b1a4176dd6e5726'),
    'blind5:dynamic-check --cap 288': (0, '4856d51c09c2bba51dbcc69977378c26504767398ed780dc79ab2a279f9d7e9d'),
    'blind5:verify --cap 288': (2, 'a9180c75f8d981447dd27fd977526661e2692999d9b1051a4b1a4176dd6e5726'),
    'huge_count:solve': (0, '8af03c5bb160f1bae7bc44269b16da2b3de929dc9b8cbaeca39ff0caa438ae8a'),
    'huge_count:verify': (1, 'bc087f45eec3ed030175ecc450df24ace891a6ab95986d6afdc1495c010da3fb'),
    'holder_holds:validate': (0, 'd52c39388400ff9490eebe5a9a10889202cbf08f24ac28cb275bf7e2d07f2c43'),
    'holder_fails:validate': (1, '895492832de2039347fb67c4e334185688c9ba6ab3b483676897463be6f8b030'),
    'sddp_table:sddp-solve': (0, '0f0b304f0ada55496311a34f79906473ba157c9740f6a5893d73943516afb17b'),
}


HELP_GOLDEN = {
    '': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e4cae8e4b5f4dee9ae650fa5a817b2cb63214249bdf86b709caaf77b7ff89232'),
    '--help': (0, '4da3e6dab91eee18c6bd36398285efec90c72dc659364a20fd183d8a635ede87', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'validate --help': (0, '7e63fc791e909e42d0494c1317a287572a4f36c21103d99f892f9e3efa6788cd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'solve --help': (0, '0e8e846d4b9697410d1c16503617f7c36bb57f565b38c7cd28c5b258723ccee9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --help': (0, 'eb723c1c37b849a4d74a5ead7729d1d7f2dd184fd1e6424951895c304815e91f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dynamic-check --help': (0, '7f4814feabb366db9a0029367065739c3adf4a2b62e0b5ca274c9a45b7dda55d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'demo-interchange --help': (0, 'd2d15ebde3aa005fe9ab31195d1d5e8761819f5d65ee26861b974f9adbc8a783', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mdp-solve --help': (0, '12eae8bc8a59b2b39dd07d8a87170934ccdabde378174c32e686a9d1ee140c94', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'value-iterate --help': (0, 'ef1fdbcb0cf4bd0a407ef7955ae338f646a507f47f597a7ad1c97e1ff7c91bc9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'sddp-solve --help': (0, '24ecac6b817a3e2d04617742da89410d45d8917ced82867854f7ad4752475626', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


#: MDP case -> exit code and digest of the standard output
MDP_GOLDEN = {
    'mdp_indep:mdp-solve --horizon 5': (0, '8f39d1e4d26af51249aa9e523691e86a5223019971fe7dc5f18d75b9224961e0'),
    'mdp_indep:mdp-solve --horizon 5 --json': (0, '22ca808f2bd9c204a748066d17af40cbc085b23c9efd829571cce9b3e5828892'),
    'mdp_indep:value-iterate': (0, '3fff824ddbd6ebf19de5423acae6a4db0d93c7317e45f206bd1706710e8f4f9d'),
    'mdp_indep:value-iterate --json': (0, 'fb62048b6e3f8ad6662797b36348c3870c5a82d12a31449c5ea6d9966ed9e4be'),
    'mdp_dep:mdp-solve --horizon 7': (0, '72c93a4e608365e341ad35cd463dbd3f66e8416ee3cadf5c3687b8363f5a6aad'),
    'mdp_dep:mdp-solve --horizon 7 --json': (0, 'b530586c83a26d4bfd8fdd7c6a547a44bf97e59f7bcbaefee310e8a0a271e480'),
    'mdp_dep:value-iterate --tolerance 1e-6': (0, 'd5231bb73353f60633bf869fb1dbf5123a8c0108d5f97358eb27ab1eb24edf7a'),
    'mdp_dep:value-iterate --tolerance 1e-6 --json': (0, '6bd9ada9e6626be12fadcd2a100813f18157f3246772d63964d68d6f248048f3'),
    'mdp_neg:mdp-solve --horizon 4': (0, '326fd6787f952b23aa7ba1f5badf3ff9a9fbc17442424035c452f50336bfa859'),
    'mdp_neg:mdp-solve --horizon 4 --json': (0, '5659409ad87430e5ba7575acb79336a2b1a76422f7a7f171cca64534e507790b'),
    'mdp_neg:value-iterate': (0, '9394e2dd56fa6d53f86def571b9b2da52be635be81640760d865b13b5bd08d8a'),
    'mdp_neg:value-iterate --json': (0, 'db3dac6c4da41ec778a6f4329cb0dbc0b9c3a228b4dc25f336fd6d473d18a517'),
    'mdp_zero:mdp-solve --horizon 3': (0, '2b5ec4c8f0187a89c16ec5a50e7c8e486fddd14f59ed35bc49a5d92905dba844'),
    'mdp_zero:mdp-solve --horizon 3 --json': (0, '57472e12e5a85215efa912513af1fe48a81e00eea962a9bf30bb814c70f014cc'),
    'mdp_zero:value-iterate': (0, 'be2bba5bbdd8af944ab97fe08d9212aded07f1e80bd0bf44ee63ca22e9ab1e25'),
    'mdp_zero:value-iterate --json': (0, 'c72cf881807aa7dc77d05cd0b4296a13203f35fa39b57d7e65b46f3534c5e36c'),
    'mdp_masked:mdp-solve --horizon 4': (0, '51add17d8719eb7da8e0aab4e933634efe82efee6643232b1c9b3ab0fa0252c3'),
    'mdp_masked:mdp-solve --horizon 4 --json': (0, '3be2bdef392e489e104ad3af96ecb9c7103ebb6b546805c1fa508286623ea433'),
    'mdp_masked:value-iterate': (0, 'bd4f6b39032aa671ceeb1ee62bae8c1c65e992f0d4e8e3a353f4e05aff0e894c'),
    'mdp_masked:value-iterate --json': (0, '84feece0601f2394e7419c9511b2a7070d149000cc3988fb4ed0c51c65e726ac'),
    'mdp_masked:value-iterate --max-iters 3': (1, 'c242217cc3b72b6a5ee117b1956e3fa39d40123c3fa63bf6c0864b19b604f3d9'),
    'mdp_masked:value-iterate --max-iters 3 --json': (1, '32bb61f43f425884c01498a6bbe54c6026e90a9897ed7806bc1f290bf31fb2c2'),
    'mdp_tokens:mdp-solve --horizon 3': (0, '2df1bd8f02d8aad4ef228245ff34cf2943765b2d3a253cdd9ea08dd8af91d2fd'),
    'mdp_tokens:mdp-solve --horizon 3 --json': (0, '389a5170fbcd6c20ce1bac77c131e5e8a0118bf1dbde06cff56fa73c32823b6a'),
    'mdp_tokens:value-iterate': (0, '8c8da1d7970cb407e36d257c694387f15940d573597fc936a2aab217ec467486'),
    'mdp_tokens:value-iterate --json': (0, '242b0ddda39e0d6b215b1ba2b62f06bcda6597d85fa720b75d60cadecff3294f'),
}


#: fixture -> digests of the lag check, the greedy shift and the probe shift
DYNAMIC_GOLDEN = {
    'tree_lag1': ('db70a69748d76a3f9907f2a07c8cb445c7e378a86249e2d3ab637a1d4d1aa98f', 'b0c5b0d3e13046c6cc88d08bc92b63b1a87c5922d5add5a24f31f57fb96eda8e', '49895a9a2bb8ce0c7ce59cdb2c5787c4dde15aa37eee2c80392075dccf856696'),
    'tree_lag1_neg': ('dc0aa5b454e8ba872130504bfd927b381623ef9cbd08d44bbff4dcc61d09cea2', 'da738a333e767df14c03e73b4f551f84de83e61e98eeaeaeb944fd36c9f5c700', 'da738a333e767df14c03e73b4f551f84de83e61e98eeaeaeb944fd36c9f5c700'),
    'tree_lag2': ('3fd3d04dba03b9ab2b6363e840d72125cbb13e26ebd6f72e1461162c1965010c', '903646b57c4f14395382eedd52bc9b6ba49b8bbab9fb6dd893e473c53a14a67b', '65bccd5a8a7e069992cf19305e3009db34fce3b2068f4a17b10cbbdd856a3381'),
    'tree_lag1_zero': ('0464ccc22fb922205817c9955d02a595f52485795036d30a26d3f8160a7bc5a6', 'f71f2f49c731083bee98280882f045967c9004c92535cc1fec3b420dada90300', 'f71f2f49c731083bee98280882f045967c9004c92535cc1fec3b420dada90300'),
    'tree_lag3_neg': ('2e82f528ea3d4ed476a2d70eab430e7a93095305d88103917bce8b422ad94f1b', '23a3db485630720988e790f7f2bee53405782dd387ac9b0f0dfe91cc8d29c1ca', 'b8712b42633198d0f8af94bf82e92a11c9dca71da1bb219be9680f83c1851d93'),
    'tree_lag0': ('407656f18bb69f34fc79d18e1febcfebb8f9d624d3ab363b5ec07ca3cf29c74a', 'c6f72da4093c43980464ee723bfde31ad78315441cdd421b9877f0d6341024bf', 'c6f72da4093c43980464ee723bfde31ad78315441cdd421b9877f0d6341024bf'),
    'tree_lag1_raw': ('db70a69748d76a3f9907f2a07c8cb445c7e378a86249e2d3ab637a1d4d1aa98f', 'b0c5b0d3e13046c6cc88d08bc92b63b1a87c5922d5add5a24f31f57fb96eda8e', '49895a9a2bb8ce0c7ce59cdb2c5787c4dde15aa37eee2c80392075dccf856696'),
    'tree_lag3_neg_raw': ('2e82f528ea3d4ed476a2d70eab430e7a93095305d88103917bce8b422ad94f1b', '23a3db485630720988e790f7f2bee53405782dd387ac9b0f0dfe91cc8d29c1ca', 'b8712b42633198d0f8af94bf82e92a11c9dca71da1bb219be9680f83c1851d93'),
    'sddp2_0.5_raw': ('5fa13968c7e0125f0f08cc5b1ec7ba403e59b639708114488252e7991c938962', 'b19116dea003de177f2d615251754dcf8ae13d26ade1bcc26cafa16b83f22fc8', 'b19116dea003de177f2d615251754dcf8ae13d26ade1bcc26cafa16b83f22fc8'),
    'sddp2_0.5_json': ('c5e935f39c703d6fb47ce20c7e064c3b579fc24da50135b49908b5b8a4e93150', '335c79e155feac80ab3ce6c40a70ba48ae312638eafbe2276b16a06e4ebf7532', 'cf2d472fb74b2a0e3a008023d2ca14eb865dd7a3416fc0921f024ff31b0be8b0'),
    'sddp3_0.5_raw': ('1e1d7dfc6bd93d26cbbdb77fbfd6b59b9e7351b3694d23553afdad0942da3c1b', '47ce25f70afbfeb85e26a9c1bdff91088ea4be693bd4232159f80aa92ad15c6f', '9b2e6ac8665859f79b9fc280b713d7a9ba2ce1979cb81676c0b3bc111018ad0d'),
    'sddp3_0.5_json': ('a8eee9497f009fcc22a35b71e6578166b7f4405348723cf30506d61b19aac08e', '81b3d56eee32d28bbe9f4af8a8348150bca18dca876f9bde1af130c4f73f2062', 'b8b04563a089355e82c2994c25de69db33054b9d3b323a90c07cd3f27cfc4718'),
    'sddp3_-0.5_raw': ('325c3e0f91c19ed492f6e41cba568f22a493a2ea35703268e2c9ea6a4bb702ee', '8ee1411f1c9e99a52978d60f6c5be1cc250b31c4084b2be1b042c8cd8983d1c1', 'ff166c96b2dc15df01ab519d497ec2d35edc16b0b28713ef1c9a19b7751dc187'),
    'sddp3_-0.5_json': ('db35a1acd2ef2d543f8130697c45ebfa7535ad4aa0aa9435b51ddd76c03c8a70', '6b9b9f3dac9ab5ba03c39334d67cf9eeba3e06bf55a2e20163f641b026bceca3', 'b54961522f56596b761ed76c28cd9a34f4da7ecd3af5802e351e3d471a945782'),
    'sddp3_0.0_raw': ('631a262b2319746246adf3dafcbae6d73db5acc8b08e0e40981831505a7171cc', '5ca998feacee5a06dc14e71c6728bfdc546a6d711e4ae88889518192dc2f229c', '5ca998feacee5a06dc14e71c6728bfdc546a6d711e4ae88889518192dc2f229c'),
    'sddp3_0.0_json': ('a6c696ee980fa6decd3f81cd6edb5cd8fdcb4a37737a097a3b4dbc5ffdc914f9', '108ca66ee5dbb3cb124937b9b9ef344f7e3f7f3ba6f63ca950227c18f4fed6fa', '108ca66ee5dbb3cb124937b9b9ef344f7e3f7f3ba6f63ca950227c18f4fed6fa'),
    'sddp4_-0.5_raw': ('4c41111a822e630d7e4ff30bb44599482e12c294f6ac4c55cbc2212abe04a932', '0b1a530928da7c3a32517778fc6251ccd09b2b2acf728d7d116d1bbd73282c41', '5132874d322a69fba474c793c54eb95e3d1fa0e3e0c7fccfdffcb7d995524e74'),
    'sddp4_-0.5_json': ('7d573d3af61c2c7ba9ab836080742bfed2f6d2885c9898da234ceb834f7ca145', '4566cb845ded15b5fd95dc4df9ad39617ddc65888e9d92a666af5db5718f5eca', '84adc1b2783dfb3a8d696b26742da0a66a8ccddb963c048f28533d81a667e6f9'),
    'sddp3_lag0': ('cf35aa3bdfe00cee775c93c22ef684c686e37182623d0e8c0e5cef5e823808d7', '0b5ed6aadf5f8269d0b46944afbf410df139eb790dff1941452cbd647151c6ef', '0b5ed6aadf5f8269d0b46944afbf410df139eb790dff1941452cbd647151c6ef'),
    'sddp3_lag2': ('672d8bc704789f925f1eef4e7439658eb66b174367769e6e334d8c9b72d6a232', '9fd30202884b8df47ec8cca224751b77000e143171933a9a9671cb49ecfe5a00', '9fd30202884b8df47ec8cca224751b77000e143171933a9a9671cb49ecfe5a00'),
    'non_markov': ('d4d4d1bad0ff2033c898897edd8b98a789dc412bb2e253d77509415acbce381e', 'b1604098b612ee407983a4627b8dc8ad4b8ce4a8551cc7d75904aca67776775c', '3ce70b2c37c0020b2d773ff9897e9cdfc2f9cd6bbad12b76cdef1d82deaf9ed4'),
}


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(case_ids())


def test_the_mixed_bundle_has_several_leaf_shapes():
    data = inputs()["mixed"]
    feasible = data["policy_class"]["feasible"]
    stage = {int(n["id"]): n["stage"] for n in data["tree"]["nodes"]}
    sizes = {len(grid) for nid, grid in feasible.items() if stage[int(nid)] == 3}
    assert len(sizes) > 1


def test_small_caps_reach_the_fallbacks():
    # root tails, and the largest block over a node's own and its parent's decision
    nw13 = inputs()["nw13"]["policy_class"]["feasible"]
    tails = math.prod(len(grid) for nid, grid in nw13.items() if nid != "0")
    assert CAPS["nw13"] == [tails] and len(nw13["0"]) * tails > tails
    blind5 = FIXED["blind5"][1]
    tails, block = math.prod(blind5[1:]), math.prod(blind5)
    assert tails == CAPS["blind5"][0] < block
    leaf_entries = FIXED["blind5"][0][-1] * block
    assert block <= CAPS["blind5"][1] < leaf_entries


@pytest.mark.parametrize("command", ["dynamic-check", "verify"])
@pytest.mark.parametrize("name, cap", [(name, cap) for name in FIXED for cap in CAPS[name]])
def test_no_leaf_pass_is_repeated(directory, monkeypatch, name, cap, command):
    # every (node, head prefix) reaches the definitional route's leaf pass once
    from multistage.value_process import _Definitional

    accumulate = _Definitional._accumulate
    passes = []

    def counted(self, node_id, prefix, *args):
        passes.append((node_id, repr(prefix)))  # repr tells -0.0 from 0.0
        return accumulate(self, node_id, prefix, *args)

    monkeypatch.setattr(_Definitional, "_accumulate", counted)
    run_case(directory, name, [command, "--cap", str(cap)])
    assert len(passes) == len(set(passes))
    if command == "dynamic-check" or FIXED[name][2] == "history_blind":
        assert passes


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_is_byte_identical(directory, case):
    name, command = case.split(":")
    assert run_case(directory, name, command.split()) == tuple(GOLDEN[case])


def test_every_mdp_case_has_a_digest():
    assert list(MDP_GOLDEN) == mdp_case_ids()


@pytest.mark.parametrize("case", list(MDP_GOLDEN))
def test_mdp_output_is_byte_identical(directory, case):
    name, command = case.split(":")
    assert run_mdp_case(directory, name, command.split()) == tuple(MDP_GOLDEN[case])


def test_every_dynamic_fixture_has_a_digest():
    assert list(DYNAMIC_GOLDEN) == list(dynamic_fixtures())


@pytest.mark.parametrize("name", list(DYNAMIC_GOLDEN))
def test_lag_check_and_shift_are_bitwise_identical(name):
    assert run_dynamic(name) == tuple(DYNAMIC_GOLDEN[name])


def test_every_help_text_has_a_digest():
    assert sorted(HELP_GOLDEN) == sorted(help_ids())


@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_text_is_byte_identical(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_help(command) == tuple(HELP_GOLDEN[command])


if __name__ == "__main__":
    import os
    import pathlib
    import tempfile

    os.environ["COLUMNS"] = "80"
    for command in help_ids():
        sys.stdout.write(f"    {command!r}: {run_help(command)!r},\n")
    with tempfile.TemporaryDirectory() as tmp:
        for case in case_ids():
            name, command = case.split(":")
            code, digest = run_case(pathlib.Path(tmp), name, command.split())
            sys.stdout.write(f"    {case!r}: ({code}, {digest!r}),\n")
        for case in mdp_case_ids():
            name, command = case.split(":")
            code, digest = run_mdp_case(pathlib.Path(tmp), name, command.split())
            sys.stdout.write(f"    {case!r}: ({code}, {digest!r}),\n")
    for name in dynamic_fixtures():
        sys.stdout.write(f"    {name!r}: {run_dynamic(name)!r},\n")
