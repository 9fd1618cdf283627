"""Problem bundles: tree, cost and class shipped as one JSON document, and
one loader per input kind: bundles, MDPs and stagewise-independent problems."""

from __future__ import annotations

from dataclasses import dataclass, field

from .costs import MAX_HORIZON, CostSpec, cost_from_json, cost_problems, verify_holder
from .dp_solvers import MDPSpec, SddpSpec, mdp_from_json, sddp_from_json
from .exceptions import InputFormatError, load_json, require_object
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


def load_mdp(path: str) -> MDPSpec:
    """The MDP in the JSON file at ``path``, checked as :func:`mdp_from_json` checks it."""
    return load_json(path, mdp_from_json)


def load_stagewise(path: str) -> SddpSpec:
    """The stagewise-independent problem in the JSON file at ``path``, checked
    as :func:`sddp_from_json` checks it."""
    return load_json(path, sddp_from_json)
