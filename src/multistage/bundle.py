"""Problem bundles: tree, cost and class shipped as one JSON document, and
one loader per input kind: bundles, MDPs and stagewise-independent problems."""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from .costs import MAX_HORIZON, CostSpec, cost_from_json, cost_problems, verify_holder
from .dp_solvers import MDPSpec, SddpSpec, mdp_from_json, sddp_from_json
from .exceptions import InputFormatError, _read, load_json, require_object
from .policy import Policy, PolicyClass, policy_class_from_json, policy_from_json
from .scenario_tree import ScenarioTree, tree_from_json, validate


@dataclass
class ProblemBundle:
    tree: ScenarioTree
    cost: CostSpec
    cls: PolicyClass
    policies: dict[str, Policy] = field(default_factory=dict)

    def validate(self) -> list[str]:
        """Tree invariants, cross-references between the pieces and cost payload faults."""
        problems = validate(self.tree)
        node_ids = {n.id for n in self.tree.nodes}
        feasible_ids = set(self.cls.feasible)
        for missing in sorted(node_ids - feasible_ids):
            problems.append(f"class has no feasible set for node {missing}")
        for extra in sorted(feasible_ids - node_ids):
            problems.append(f"class lists unknown node {extra}")
        if self.cost.form == "additive":
            if len(self.cost.stage_costs) != self.tree.horizon:
                problems.append(
                    f"additive cost has {len(self.cost.stage_costs)} stage costs, "
                    f"expected {self.tree.horizon}"
                )
        problems += cost_problems(self.cost, self.tree, self.cls)
        if self.cost.holder is not None and not problems:
            C, alpha, delta = self.cost.holder
            if self.tree.horizon > MAX_HORIZON:
                problems.append(
                    f"declared Hoelder bound cannot be checked: horizon {self.tree.horizon} "
                    f"exceeds {MAX_HORIZON}, the longest that is evaluated"
                )
            elif not (check := verify_holder(self.tree, self.cls, self.cost, C, alpha, delta)).ok:
                problems.append(
                    f"declared Hoelder bound violated on the grid: observed ratio "
                    f"{check.max_ratio} exceeds C = {C}"
                )
        for name, policy in sorted(self.policies.items()):
            if policy.decision_dim != self.cls.decision_dim:
                problems.append(
                    f"policy {name!r} has decision dimension {policy.decision_dim}, "
                    f"expected {self.cls.decision_dim}"
                )
            for missing in sorted(node_ids - set(policy.decisions)):
                problems.append(f"policy {name!r} has no decision for node {missing}")
        return problems


def bundle_from_json(data: dict) -> ProblemBundle:
    require_object(data, "bundle")
    try:
        tree = tree_from_json(data["tree"])
        cost = cost_from_json(data["cost"])
        cls = policy_class_from_json(data["policy_class"])
    except KeyError as exc:
        raise InputFormatError(f"bundle JSON is missing {exc}") from exc
    policies = {
        str(name): policy_from_json(raw)
        for name, raw in require_object(data.get("policies", {}), "bundle policies").items()
    }
    return ProblemBundle(tree=tree, cost=cost, cls=cls, policies=policies)


def load_bundle(path: str) -> ProblemBundle:
    return load_json(path, bundle_from_json)


class _Kept:
    """Read-only specs built from files, kept for as long as the file's bytes
    stay the same: (build, path) -> (the bytes, the spec built from them),
    least recently used first, at most ``budget`` bytes of file text in all.

    Every load reads the file. Bytes equal to the kept ones decode to the
    same document, so the kept spec is returned; other bytes are built by
    :func:`load_json`, which is handed the bytes already read, and their spec
    replaces the kept one. A failed build is not kept, and a file longer
    than the budget neither. The bookkeeping runs under a lock, the build
    outside it.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: OrderedDict[tuple[Callable, str], tuple[bytes, Any]] = OrderedDict()
        self.size = 0
        self.lock = threading.Lock()

    def load(self, path: str, build: Callable[[Any], Any]) -> Any:
        raw = _read(path)
        key = (build, path)
        with self.lock:
            kept = self.entries.get(key)
            if kept is not None and kept[0] == raw:
                self.entries.move_to_end(key)
                return kept[1]
        spec = load_json(path, build, raw)
        with self.lock:
            if (stale := self.entries.pop(key, None)) is not None:
                self.size -= len(stale[0])
            if len(raw) <= self.budget:
                self.entries[key] = (raw, spec)
                self.size += len(raw)
            while self.size > self.budget:
                self.size -= len(self.entries.popitem(last=False)[1][0])
        return spec


#: the specs of MDP and stagewise files; 2^24 bytes of file text at most
_KEPT = _Kept(1 << 24)


def load_mdp(path: str) -> MDPSpec:
    """The MDP in the JSON file at ``path``, checked as :func:`mdp_from_json`
    checks it; built once while the file's bytes stay the same (:class:`_Kept`)."""
    return _KEPT.load(path, mdp_from_json)


def load_stagewise(path: str) -> SddpSpec:
    """The stagewise-independent problem in the JSON file at ``path``, checked
    as :func:`sddp_from_json` checks it; built once while the file's bytes
    stay the same (:class:`_Kept`)."""
    return _KEPT.load(path, sddp_from_json)
