"""Problem bundles: tree, cost and class shipped as one JSON document, and
one loader per input kind: bundles, MDPs and stagewise-independent problems.

Every loader builds a file once while its bytes stay the same
(:func:`~multistage.exceptions.load_kept`) and shares what it built, so
bundles and specs are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .costs import MAX_HORIZON, CostSpec, cost_from_json, cost_problems, verify_holder
from .dp_solvers import MDPSpec, SddpSpec, mdp_from_json, sddp_from_json
from .exceptions import InputFormatError, load_json, load_kept, require_object
from .policy import (
    Policy,
    PolicyClass,
    policy_class_from_json,
    policy_from_json,
    rebuild_from_fields,
)
from .scenario_tree import ScenarioTree, tree_from_json, validate


@dataclass(frozen=True)
class ProblemBundle:
    """A tree, a cost, a policy class and named policies; read-only, with
    ``policies`` a read-only mapping, so one bundle can be shared by every
    caller."""

    tree: ScenarioTree
    cost: CostSpec
    cls: PolicyClass
    policies: Mapping[str, Policy] = field(default_factory=dict)

    __reduce__ = rebuild_from_fields

    def __post_init__(self):
        object.__setattr__(self, "policies", MappingProxyType(dict(self.policies)))

    def validate(self) -> list[str]:
        """Tree invariants, cross-references between the pieces and cost payload
        faults, as a fresh list; they are found once per bundle."""
        return list(self._problems)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
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
        return tuple(problems)


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


class _NoBundle(Exception):
    """Raised with a decoded document that holds no bundle (not an object, or
    without a ``tree``) as its argument: a failed load, so nothing is kept."""


def _bundle_of(data) -> ProblemBundle:
    """The bundle of an object with a ``tree``; :class:`_NoBundle` for any other document."""
    if isinstance(data, dict) and "tree" in data:
        return bundle_from_json(data)
    raise _NoBundle(data)


def load_bundle(path: str) -> ProblemBundle:
    """The bundle in the JSON file at ``path``, as :func:`bundle_from_json`
    builds it; built once while the file's bytes stay the same."""
    try:
        return load_kept(path, _bundle_of)
    except _NoBundle as exc:
        return bundle_from_json(exc.args[0])  # raises: not an object, or no tree


def load_bundle_or_tree(path: str) -> ProblemBundle | ScenarioTree:
    """The bundle in the JSON file at ``path`` (:func:`load_bundle`), or else
    the tree of a file that holds an object without a ``tree``. A file that
    holds no bundle is read again, and its tree built anew on every call, by
    :func:`~multistage.exceptions.load_json`, under its guard."""
    try:
        return load_kept(path, _bundle_of)
    except _NoBundle:
        return load_json(path, lambda data: tree_from_json(require_object(data, path)))


def load_mdp(path: str) -> MDPSpec:
    """The MDP in the JSON file at ``path``, checked as :func:`mdp_from_json`
    checks it; built once while the file's bytes stay the same."""
    return load_kept(path, mdp_from_json)


def load_stagewise(path: str) -> SddpSpec:
    """The stagewise-independent problem in the JSON file at ``path``, checked
    as :func:`sddp_from_json` checks it; built once while the file's bytes
    stay the same."""
    return load_kept(path, sddp_from_json)
