"""Checks of the program's outputs against the benchmark's own computations.

Each check takes the captured outcome of one operation,
``{"exit": int | None, "exc": str | None, "stdout": str, "stderr": str}``,
and raises :class:`Failed` when the operation did not complete as the exit
code contract says (an exception escaped, or an input error was reported
where none is expected), or :class:`Wrong` when it completed with a wrong
answer. It returns ``None`` when the output is right.
"""

from __future__ import annotations

import json

import numpy as np

#: equalities between the program and the benchmark's own computations
EQ_TOL = 1e-9
#: slack on one-sided checks (contraction ratios)
RATIO_SLACK = 1e-9
#: accuracy of the benchmark's own fixed point (exact linear solves)
FIXED_POINT_SLACK = 1e-12


class Failed(Exception):
    """The operation crashed or broke the exit-code contract."""


class Wrong(Exception):
    """The operation completed but its answer is wrong."""


def _exit(out: dict, expected: int) -> None:
    if out.get("exc"):
        raise Failed(f"raised {out['exc']}")
    code = out["exit"]
    if code == expected:
        return
    if code not in (0, 1, 2):
        raise Failed(f"exit {code}, expected {expected}: {out['stderr'].strip()[:200]}")
    raise Wrong(f"exit {code}, expected {expected}")


def _report(out: dict) -> dict:
    try:
        return json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        raise Wrong(f"output is not JSON: {exc}") from exc


def _close(name: str, got: float, want: float, tol: float = EQ_TOL) -> None:
    if not abs(got - want) <= tol:
        raise Wrong(f"{name} = {got!r}, expected {want!r} (difference {got - want:.3e})")


# -- tree problems -------------------------------------------------------------------


def solve(out: dict, problem, optimum: float | None = None) -> None:
    """Reported value = own evaluation of the reported policy; no single-node
    deviation lowers it (nodewise classes); equals ``optimum`` when given."""
    _exit(out, 0)
    rep = _report(out)
    try:
        idx = problem.index_policy(rep["policy"]["decisions"])
    except (KeyError, ValueError) as exc:
        raise Wrong(f"reported policy is not a grid policy: {exc}") from exc
    _close("reported value vs own evaluation of the policy", rep["value"], problem.value(idx))
    if problem.kind == "nodewise":
        delta, node, k = min(problem.one_node_changes(idx), default=(0.0, -1, -1))
        if delta < -EQ_TOL:
            raise Wrong(f"moving node {node} to grid position {k} lowers the cost by {-delta:.3e}")
    if optimum is not None:
        _close("reported value vs own exhaustive optimum", rep["value"], optimum)


def verify(out: dict, problem, idx: list[int], verdict: str) -> None:
    """Verdict and expected value of ``verify --policy``."""
    _exit(out, {"optimal": 0, "not-optimal": 1, "inconclusive": 2}[verdict])
    rep = _report(out)
    if rep.get("verdict") != verdict:
        raise Wrong(f"verdict {rep.get('verdict')!r}, expected {verdict!r}")
    _close("expected value", rep["expected_value"], problem.value(idx))


def dynamic_check(out: dict, optimum: float, equality: bool,
                  root_slack: float | None = None) -> None:
    """All one-step relations hold (with equality for nodewise classes) and the
    root V record equals the own optimum; optionally its slack is fixed."""
    _exit(out, 0)
    rep = _report(out)
    if rep.get("all_hold") is not True:
        raise Wrong("not all one-step relations hold")
    if equality and rep.get("equality_everywhere") is not True:
        raise Wrong("nodewise relations do not hold with equality")
    roots = [r for r in rep["records"] if r["node"] == 0 and r["relation"] == "V"]
    if len(roots) != 1:
        raise Wrong(f"{len(roots)} root V records")
    _close("root V", roots[0]["lhs"], optimum)
    if root_slack is not None:
        _close("root V slack", roots[0]["lhs"] - roots[0]["rhs"], root_slack)


def validate(out: dict, valid: bool, word: str = "") -> None:
    """``validate`` on a well-formed bundle: the verdict, and the named fault."""
    _exit(out, 0 if valid else 1)
    rep = _report(out)
    if rep.get("valid") is not valid:
        raise Wrong(f"valid = {rep.get('valid')!r}, expected {valid!r}")
    if word and not any(word in v for v in rep.get("violations", [])):
        raise Wrong(f"no violation mentions {word!r}: {rep.get('violations')}")


def malformed_validate(out: dict, word: str) -> None:
    """A malformed bundle: exit 1 with a violation that names the fault."""
    try:
        validate(out, False, word)
    except Wrong as exc:
        raise Failed(str(exc)) from exc


def malformed_solve(out: dict) -> None:
    """A malformed bundle: exit 3 with a message and no traceback."""
    if out.get("exc"):
        raise Failed(f"raised {out['exc']}")
    if out["exit"] != 3:
        raise Failed(f"exit {out['exit']}, expected 3")
    if "Traceback" in out["stderr"]:
        raise Failed("traceback on stderr")


# -- dynamic equations ------------------------------------------------------------------


def mdp_solve(out: dict, values: list[np.ndarray]) -> None:
    """Backward-induction values at every stage against the own recursion."""
    _exit(out, 0)
    rep = _report(out)
    got = rep["values"]
    if len(got) != len(values):
        raise Wrong(f"{len(got)} stages of values, expected {len(values)}")
    for t, (g, w) in enumerate(zip(got, values)):
        err = float(np.max(np.abs(np.asarray(g, dtype=float) - w)))
        if not err <= EQ_TOL:
            raise Wrong(f"stage {t} values off by {err:.3e}")


def value_iterate(out: dict, fixed_point: np.ndarray, epsilon: float, gamma: float) -> None:
    """Within eps/2 of the own fixed point; every residual ratio at most |gamma|."""
    _exit(out, 0)
    rep = _report(out)
    if rep.get("converged") is not True:
        raise Wrong("value iteration did not report convergence")
    err = float(np.max(np.abs(np.asarray(rep["values"], dtype=float) - fixed_point)))
    if not err <= epsilon / 2 + FIXED_POINT_SLACK:
        raise Wrong(f"values are {err:.3e} from the fixed point, more than eps/2 = {epsilon / 2:.1e}")
    res = rep["residuals"]
    for k in range(1, len(res)):
        if res[k - 1] > 0 and res[k] / res[k - 1] > abs(gamma) + RATIO_SLACK:
            raise Wrong(f"residual ratio {res[k] / res[k - 1]!r} at step {k} exceeds |gamma|")


def sddp_solve(out: dict, root: float) -> None:
    _exit(out, 0)
    _close("root value", _report(out)["root_value"], root)
