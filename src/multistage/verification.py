"""Martingale verification of policies and the interchangeability harness.

A candidate policy is checked ex post: its two value processes are always
submartingales when the class is nodewise, and they are martingales exactly
when the policy is optimal. The drift E(P_{t+1} | node) - P_t(node) is
reported per stage so callers can re-threshold. For classes that are not
decomposable the martingale criterion is only one-directional, so verdicts
degrade to "inconclusive".

The interchangeability principle, E[min over the class] <= min over the
class of E[...], is provided as a single-stage harness with both routes
computed by enumeration, together with the monotone-class variant that
recovers equality without decomposability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .costs import CostSpec
from .exceptions import (
    IncompleteFunctionError,
    InfeasiblePolicyError,
    MultistageError,
)
from .policy import (
    DEFAULT_ENUMERATION_CAP,
    Decision,
    Policy,
    PolicyClass,
    _index_product,
)
from .scenario_tree import ScenarioTree, path, unconditional_probability
from .tolerances import DEFAULT_TOL
from .value_process import ValueTables, _Definitional, value_process_for_policy

MARTINGALE = "martingale"
SUBMARTINGALE = "submartingale"
NEITHER = "neither"

OPTIMAL = "optimal"
NOT_OPTIMAL = "not-optimal"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StageSlack:
    """Extremal one-step drifts E(P_{t+1}|node) - P_t(node) over stage-t nodes."""

    t: int
    min_slack: float
    max_slack: float


@dataclass
class MartingaleReport:
    """Classification of one or two node-indexed processes at tolerance tau."""

    classification: str
    per_stage_slack: list[StageSlack]
    tolerance: float
    verdict: str | None = None
    witness: dict | None = None
    details: dict = field(default_factory=dict)
    #: the v process that :func:`verify_policy` classified, node -> value; not reported
    v_process: dict[int, float] | None = None

    def to_json(self) -> dict:
        out = {
            "classification": self.classification,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "per_stage_slack": [
                {"t": s.t, "min_slack": s.min_slack, "max_slack": s.max_slack}
                for s in self.per_stage_slack
            ],
            "witness": self.witness,
        }
        if self.details:
            out["processes"] = {
                name: rep.to_json() for name, rep in sorted(self.details.items())
            }
        return out


def _classify(slacks: Sequence[StageSlack], tol: float) -> str:
    if not slacks:
        return MARTINGALE
    lo = min(s.min_slack for s in slacks)
    hi = max(max(abs(s.min_slack), abs(s.max_slack)) for s in slacks)
    if hi <= tol:
        return MARTINGALE
    if lo >= -tol:
        return SUBMARTINGALE
    return NEITHER


def check_submartingale(
    tree: ScenarioTree,
    process: Mapping[int, float],
    tol: float = DEFAULT_TOL,
) -> MartingaleReport:
    """Classify a node-indexed process by its one-step conditional drifts.

    Submartingale: every drift is >= -tol. Martingale: every |drift| <= tol.
    A process on a depth-0 tree has no transitions and is classified as a
    martingale vacuously.
    """
    for n in tree.nodes:
        if n.id not in process:
            raise IncompleteFunctionError(f"process is missing node {n.id}")
    slacks: list[StageSlack] = []
    witness: dict | None = None
    worst = None
    for t in range(tree.horizon):
        stage_ids = [i for i in tree.stage_nodes(t) if tree.children(i)]
        if not stage_ids:
            continue
        drifts = []
        for nid in stage_ids:
            expect = sum(
                tree.nodes[c].cond_prob * process[c] for c in tree.children(nid)
            )
            drift = expect - process[nid]
            drifts.append(drift)
            if drift < -tol and (worst is None or drift < worst):
                worst = drift
                witness = {"t": t, "node": nid, "drift": drift}
        slacks.append(StageSlack(t=t, min_slack=min(drifts), max_slack=max(drifts)))
    return MartingaleReport(
        classification=_classify(slacks, tol),
        per_stage_slack=slacks,
        tolerance=tol,
        witness=witness,
    )


def verify_policy(
    tree: ScenarioTree,
    cost: CostSpec,
    cls: PolicyClass,
    policy: Policy,
    tol: float = DEFAULT_TOL,
    tables: ValueTables | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MartingaleReport:
    """Martingale test of a candidate policy.

    Both value processes are classified; for a nodewise class the verdict is
    "optimal" exactly when both are martingales and the stage-0 values agree
    (the latter covers depth-0 problems, where no transition exists to carry
    the criterion). Non-decomposable classes yield "inconclusive": the
    converse direction of the criterion is not available for them.
    """
    v_proc, V_proc = value_process_for_policy(
        tree, cost, cls, policy, tables=tables, cap=cap
    )
    rep_v = check_submartingale(tree, v_proc, tol)
    rep_V = check_submartingale(tree, V_proc, tol)
    coupled = abs(v_proc[0] - V_proc[0]) <= tol

    both = (rep_v.classification, rep_V.classification)
    if both == (MARTINGALE, MARTINGALE) and coupled:
        classification = MARTINGALE
    elif NEITHER in both:
        classification = NEITHER
    else:
        classification = SUBMARTINGALE

    if cls.kind == "nodewise":
        verdict = OPTIMAL if classification == MARTINGALE else NOT_OPTIMAL
    else:
        verdict = INCONCLUSIVE

    # check_submartingale on one tree lists the same stages for both processes
    merged = [
        StageSlack(
            t=a.t,
            min_slack=min(a.min_slack, b.min_slack),
            max_slack=max(a.max_slack, b.max_slack),
        )
        for a, b in zip(rep_v.per_stage_slack, rep_V.per_stage_slack)
    ]
    witness = None
    if verdict == NOT_OPTIMAL:
        positive = [
            {"process": name, "t": s.t, "max_slack": s.max_slack}
            for name, rep in (("v", rep_v), ("V", rep_V))
            for s in rep.per_stage_slack
            if s.max_slack > tol
        ]
        if not positive and not coupled:
            positive = [{"process": "v-V", "t": 0, "max_slack": abs(v_proc[0] - V_proc[0])}]
        witness = {"positive_drift": positive}
    return MartingaleReport(
        classification=classification,
        per_stage_slack=merged,
        tolerance=tol,
        verdict=verdict,
        witness=witness,
        details={"v": rep_v, "V": rep_V},
        v_process=v_proc,
    )


# -- dynamic relations ----------------------------------------------------------


@dataclass(frozen=True)
class RelationRecord:
    """One nodewise inequality between a value and its one-step deviation bound."""

    t: int
    node: int
    relation: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "node": self.node,
            "relation": self.relation,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
        }


@dataclass
class DynamicRelationsReport:
    records: list[RelationRecord]
    tolerance: float

    @property
    def all_hold(self) -> bool:
        return all(r.slack >= -self.tolerance for r in self.records)

    @property
    def equality_everywhere(self) -> bool:
        return all(abs(r.slack) <= self.tolerance for r in self.records)

    def to_json(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "all_hold": self.all_hold,
            "equality_everywhere": self.equality_everywhere,
            "records": [r.to_json() for r in self.records],
        }


def check_dynamic_relations(
    tree: ScenarioTree,
    cost: CostSpec,
    cls: PolicyClass,
    policy: Policy,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DynamicRelationsReport:
    """One-step dynamic relations of the value processes along a policy.

    At every non-leaf node the report compares V_t(X, U) against the best
    stage-t deviation of E(V_{t+1} | node) and v_t(X, U) against the
    expectation of the best stage-(t+1) deviation of v_{t+1}. Both
    inequalities hold with >= for every class and with equality for
    nodewise classes. Values are computed definitionally, on one cache
    shared by every node, so history-blind classes are supported and the
    equalities are an independent check of the backward recursion.
    """
    if not cls.contains(tree, policy):
        raise InfeasiblePolicyError("policy is not feasible in the class")
    route = _Definitional(tree, cost, cls, cap)
    heads = policy.decision_paths(tree)
    records: list[RelationRecord] = []
    for n in tree.nodes:
        kids = tree.children(n.id)
        if not kids:
            continue
        head_full = heads[n.id]
        head = head_full[:-1]
        probs = [tree.nodes[c].cond_prob for c in kids]

        lhs_V = route.V(n.id, head)
        # per child: V_{t+1} after each stage-t candidate, in candidate order
        rows = [route.V_next(c, head) for c in kids]
        rhs_V = min(
            sum(p * row[j] for p, row in zip(probs, rows))
            for j in range(len(route.candidates(n.id)))
        )
        records.append(
            RelationRecord(t=n.stage, node=n.id, relation="V", lhs=lhs_V, rhs=rhs_V)
        )

        lhs_v = route.v(n.id, head_full)
        # the best stage-(t+1) deviation of v_{t+1} is V_{t+1}
        rhs_v = 0.0
        for p, c in zip(probs, kids):
            rhs_v += p * route.V(c, head_full)
        records.append(
            RelationRecord(t=n.stage, node=n.id, relation="v", lhs=lhs_v, rhs=rhs_v)
        )
    return DynamicRelationsReport(records=records, tolerance=tol)


# -- interchangeability ------------------------------------------------------------


@dataclass
class InterchangeReport:
    """E[pointwise minimum] versus minimum expectation over one stage."""

    lhs: float
    rhs: float
    tolerance: float
    witness: dict | None = None

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "witness": self.witness,
        }


def interchange_gap(
    tree: ScenarioTree,
    stage: int,
    objective: Callable[[tuple, Decision], float],
    cls: PolicyClass,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> InterchangeReport:
    """Interchangeability gap of a class over the nodes of one stage.

    ``objective`` maps (observation path of the node, decision) to a cost.
    The left side averages the nodewise minimum; the right side enumerates
    the stage functions of the class and minimizes the average. The gap is
    nonnegative, and zero (within tol) for nodewise classes.
    """
    ids = tree.stage_nodes(stage)
    if not ids:
        raise MultistageError(f"no nodes at stage {stage}")
    slot_of, grids = cls.slots(tree)
    probs = {i: unconditional_probability(tree, i) for i in ids}
    paths = {i: path(tree, i) for i in ids}
    values = {i: [objective(paths[i], u) for u in grids[slot_of[i]]] for i in ids}
    for i in ids:
        if not values[i]:
            raise MultistageError(f"empty candidate set at node {i}")

    lhs = sum(probs[i] * min(values[i]) for i in ids)

    stage_slots = sorted({slot_of[i] for i in ids})
    axis = {i: stage_slots.index(slot_of[i]) for i in ids}
    combos = _index_product([grids[s] for s in stage_slots], cap)

    rhs = None
    rhs_choice: tuple[int, ...] | None = None
    for combo in combos:
        total = sum(probs[i] * values[i][combo[axis[i]]] for i in ids)
        if rhs is None or total < rhs:
            rhs = total
            rhs_choice = combo
    assert rhs is not None and rhs_choice is not None

    witness = None
    if rhs - lhs > tol:
        for i in ids:
            k = rhs_choice[axis[i]]
            best = min(range(len(values[i])), key=lambda j: (values[i][j], j))
            if values[i][k] > values[i][best] + tol:
                witness = {
                    "node": i,
                    "class_choice": list(grids[slot_of[i]][k]),
                    "pointwise_choice": list(grids[slot_of[i]][best]),
                }
                break
    return InterchangeReport(lhs=lhs, rhs=rhs, tolerance=tol, witness=witness)


@dataclass
class MonotoneInterchangeReport:
    applicable: bool
    reason: str | None
    lhs: float | None = None
    rhs: float | None = None
    tolerance: float = DEFAULT_TOL


def interchange_monotone(
    tree: ScenarioTree,
    stage: int,
    objective: Callable[[tuple, Decision], float],
    family: Sequence[Mapping[int, Decision]],
    tol: float = DEFAULT_TOL,
) -> MonotoneInterchangeReport:
    """Monotone variant: equality without decomposability.

    The family must be closed under componentwise pointwise minimum and the
    objective nondecreasing in the decision at every node, both checked on
    the given data; violations make the report "inapplicable" rather than
    raising. Under the preconditions the pointwise-minimum member attains
    both sides, so the interchange holds with equality.
    """
    ids = tree.stage_nodes(stage)
    if not ids or not family:
        return MonotoneInterchangeReport(False, "empty stage or family", tolerance=tol)
    for k, f in enumerate(family):
        for i in ids:
            if i not in f:
                return MonotoneInterchangeReport(
                    False, f"member {k} is undefined at node {i}", tolerance=tol
                )
    members = [
        {i: tuple(float(x) for x in f[i]) for i in ids} for f in family
    ]

    pool = [tuple(sorted(f.items())) for f in members]
    for f, g in itertools.combinations(members, 2):
        met = {i: tuple(min(a, b) for a, b in zip(f[i], g[i])) for i in ids}
        if tuple(sorted(met.items())) not in pool:
            return MonotoneInterchangeReport(
                False,
                f"family is not closed under pointwise minimum (witness nodes {ids})",
                tolerance=tol,
            )

    probs = {i: unconditional_probability(tree, i) for i in ids}
    paths = {i: path(tree, i) for i in ids}
    for i in ids:
        seen = sorted({f[i] for f in members})
        for a, b in itertools.permutations(seen, 2):
            if all(x <= y for x, y in zip(a, b)) and (
                objective(paths[i], a) > objective(paths[i], b) + tol
            ):
                return MonotoneInterchangeReport(
                    False, f"objective is not monotone at node {i}", tolerance=tol
                )

    lhs = sum(probs[i] * min(objective(paths[i], f[i]) for f in members) for i in ids)
    rhs = min(
        sum(probs[i] * objective(paths[i], f[i]) for i in ids) for f in members
    )
    return MonotoneInterchangeReport(True, None, lhs=lhs, rhs=rhs, tolerance=tol)
