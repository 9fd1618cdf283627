"""Command line front end.

Subcommands: validate, solve, verify, dynamic-check, demo-interchange,
mdp-solve, value-iterate, sddp-solve. Exit codes follow one contract
everywhere: 0 success or positive finding, 1 negative finding, 2
inconclusive, 3 input error. Reports are deterministic: given identical
inputs and flags the JSON output is byte-identical across runs. Its bytes
are those of ``json.dumps(report, sort_keys=True, indent=2)``; orjson
writes them, and ``json.dumps`` is the fallback where orjson cannot
(:func:`_dumps`).

The argparse parser of :func:`build_parser` is the only parser. It parses
each distinct command line once per process (:func:`_parsed`), and each
call of :func:`main` gets a fresh namespace of that line's fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import orjson

from . import __version__
from .bundle import ProblemBundle, bundle_from_json, load_bundle, load_mdp, load_stagewise
from .costs import MAX_HORIZON
from .dp_solvers import MAX_SWEEPS, mdp_backward_induction, sddp_recursion, value_iteration
from .exceptions import (
    ConvergenceError,
    EnumerationCapError,
    InfeasiblePolicyError,
    InputFormatError,
    MultistageError,
    load_json,
    require_object,
)
from .generate import interchange_fixture, rng_from_seed
from .policy import DEFAULT_ENUMERATION_CAP, load_policy, policy_to_json
from .scenario_tree import tree_from_json, unconditional_probability, validate
from .tolerances import DEFAULT_TOL, INEQUALITY_SLACK
from .value_process import (
    backward_tables,
    brute_force_optimum,
    greedy_policy_from_tables,
)
from .verification import (
    INCONCLUSIVE,
    OPTIMAL,
    check_dynamic_relations,
    interchange_gap,
    verify_policy,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

AUTO_BRUTE_LIMIT = 100_000


#: ``json.dumps(..., sort_keys=True, indent=2)``'s layout; a dataclass, a
#: datetime and a subclass of a built-in type raise ``TypeError``
_ORJSON_OPTIONS = (
    orjson.OPT_INDENT_2
    | orjson.OPT_SORT_KEYS
    | orjson.OPT_PASSTHROUGH_DATACLASS
    | orjson.OPT_PASSTHROUGH_DATETIME
    | orjson.OPT_PASSTHROUGH_SUBCLASS
)
#: an exponent of a number, which json writes signed and with two digits or more
_EXPONENT = re.compile(rb"e(?<=[0-9]e)(-?)([0-9]+)")
#: a number in [1e-5, 1e-4) (orjson writes it without an exponent), or the
#: tail of a longer number such as 10.00001
_DECADE = re.compile(rb"0\.0000[0-9]+")


def _exponent(match: re.Match) -> bytes:
    sign, digits = match.groups()
    return b"e" + (sign or b"+") + digits.rjust(2, b"0")


def _decade(match: re.Match) -> bytes:
    start = match.start()
    if start and match.string[start - 1] in b"0123456789":
        return match.group()
    return repr(float(match.group())).encode()


def _dumps(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, the reference, written
    through orjson where that gives the same text.

    orjson writes the same layout and the same shortest digits, but spells
    some numbers differently: an exponent without its sign or second digit
    (``1e16``, ``1e-7``), and a number in [1e-5, 1e-4) without an exponent
    (``0.00005``). Those tokens are rewritten, outside strings only. orjson
    raises ``TypeError`` on an int outside [-2^63, 2^64); where every such
    int is a value of the report itself (a ``policy_count`` of 2^64 or
    more), orjson writes the report with 0 in their place and their digits
    are spliced in. Only the report's own keys start a line with exactly two
    spaces and a ``"``, so each splice point is unique. The text comes from
    ``json.dumps`` when orjson still raises ``TypeError`` (such an int
    nested deeper, a key that is not a ``str``, a numpy scalar, a
    dataclass, a datetime, a subclass of a built-in type), when orjson's
    text holds a backslash (a string that json escapes, which orjson may
    escape differently) or a byte of 0x7f or above (json escapes DEL and
    non-ASCII), and when it holds ``null`` that does not decode to the
    report (orjson writes NaN and ±inf as ``null``, json as ``NaN`` and
    ``±Infinity``). Once no backslash is present, every ``"`` opens or
    closes a string. An ``Enum`` or a ``UUID``, which no report holds, is
    written by orjson where ``json`` raises.
    """
    wide: dict = {}
    encoded = report
    try:
        try:
            out = orjson.dumps(report, option=_ORJSON_OPTIONS)
        except TypeError:
            if type(report) is dict:
                wide = {key: value for key, value in report.items()
                        if type(value) is int and not -2**63 <= value < 2**64}
            if not wide:
                raise
            encoded = {**report, **dict.fromkeys(wide, 0)}
            out = orjson.dumps(encoded, option=_ORJSON_OPTIONS)
        same = not (
            b"\\" in out
            or not out.isascii()
            or b"\x7f" in out
            or (b"null" in out and orjson.loads(out) != encoded)
        )
    except TypeError:
        same = False
    if not same:
        return json.dumps(report, sort_keys=True, indent=2)
    parts = out.split(b'"')
    skeleton = b'"'.join(parts[::2])
    skeleton = _DECADE.sub(_decade, _EXPONENT.sub(_exponent, skeleton))
    parts[::2] = skeleton.split(b'"')
    out = b'"'.join(parts)
    for key, value in wide.items():
        entry = b'\n  "%s": ' % key.encode()
        out = out.replace(entry + b"0", entry + b"%d" % value, 1)
    return out.decode()


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(_dumps(report))
    else:
        for line in lines:
            print(line)


def cmd_validate(args) -> int:
    def build(data):
        require_object(data, args.input)
        return bundle_from_json(data) if "tree" in data else tree_from_json(data)

    loaded = load_json(args.input, build)
    problems = loaded.validate() if isinstance(loaded, ProblemBundle) else validate(loaded)
    report = {"input": args.input, "violations": problems, "valid": not problems}
    _emit(
        report,
        args.json,
        [f"{'OK' if not problems else 'INVALID'}: {args.input}"] + problems,
    )
    return EXIT_OK if not problems else EXIT_NEGATIVE


def _valid_bundle(path: str):
    """The bundle at ``path``, whose horizon the solvers support, if it is valid."""
    bundle = load_bundle(path)
    if bundle.tree.horizon > MAX_HORIZON:
        raise InputFormatError(
            f"tree horizon {bundle.tree.horizon} exceeds {MAX_HORIZON}, the longest that "
            "solve, verify and dynamic-check evaluate"
        )
    problems = bundle.validate()
    if problems:
        raise InputFormatError("invalid bundle: " + "; ".join(problems))
    return bundle


def _bundle_and_policy(args):
    """The validated bundle and the policy to check: ``--policy``, or else the
    bundle's first named policy."""
    bundle = _valid_bundle(args.input)
    if args.policy:
        return bundle, load_policy(args.policy)
    named = sorted(bundle.policies)
    if not named:
        raise InputFormatError("no policy given and the bundle carries none")
    return bundle, bundle.policies[named[0]]


def cmd_solve(args) -> int:
    bundle = _valid_bundle(args.input)
    tree, cost, cls = bundle.tree, bundle.cost, bundle.cls
    count = cls.count(tree)
    report: dict = {
        "input": args.input,
        "method": args.method,
        "policy_count": count,
        "tolerance": args.tolerance,
    }
    method = args.method
    if method == "auto":
        use_brute = count <= AUTO_BRUTE_LIMIT
        if cls.kind != "nodewise":
            method = "brute"
        elif use_brute:
            method = "both"
        else:
            method = "backward"
    if method in ("backward", "both") and cls.kind != "nodewise":
        print("backward recursion needs a nodewise class", file=sys.stderr)
        return EXIT_INPUT

    value = None
    policy = None
    if method in ("backward", "both"):
        tables = backward_tables(tree, cost, cls, cap=args.cap)
        value = tables.root_value
        policy = greedy_policy_from_tables(tree, cls, tables)
        report["backward_value"] = tables.root_value
    if method in ("brute", "both"):
        brute_value, brute_policy = brute_force_optimum(tree, cost, cls, cap=args.cap)
        report["brute_value"] = brute_value
        if value is None:
            value, policy = brute_value, brute_policy
        elif abs(brute_value - value) > args.tolerance:
            report["agreement"] = False
            _emit(report, args.json, [f"DISAGREEMENT: {value} vs {brute_value}"])
            return EXIT_NEGATIVE
        else:
            report["agreement"] = True
    report["method"] = method
    report["value"] = value
    report["policy"] = policy_to_json(policy)
    _emit(report, args.json, [f"optimal value: {value!r}", f"method: {method}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    bundle, policy = _bundle_and_policy(args)
    tree, cost, cls = bundle.tree, bundle.cost, bundle.cls
    report = verify_policy(tree, cost, cls, policy, tol=args.tolerance, cap=args.cap)
    payload = report.to_json()
    # E v(X, U) = sum of P(leaf) * v_T(leaf): v_T is the objective along the policy
    expected = 0.0
    for leaf in tree.leaves():
        expected += unconditional_probability(tree, leaf) * report.v_process[leaf]
    payload["expected_value"] = expected
    payload["policy_count"] = cls.count(tree)
    payload["input"] = args.input
    _emit(
        payload,
        args.json,
        [
            f"classification: {report.classification}",
            f"verdict: {report.verdict}",
            f"expected value: {payload['expected_value']!r}",
        ],
    )
    if report.verdict == OPTIMAL:
        return EXIT_OK
    if report.verdict == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_NEGATIVE


def cmd_dynamic_check(args) -> int:
    bundle, policy = _bundle_and_policy(args)
    report = check_dynamic_relations(
        bundle.tree, bundle.cost, bundle.cls, policy, tol=args.tolerance, cap=args.cap
    )
    payload = report.to_json()
    payload["input"] = args.input
    payload["kind"] = bundle.cls.kind
    _emit(
        payload,
        args.json,
        [
            f"all one-step relations hold: {report.all_hold}",
            f"equality everywhere: {report.equality_everywhere}",
        ],
    )
    return EXIT_OK if report.all_hold else EXIT_NEGATIVE


def cmd_demo_interchange(args) -> int:
    fx = interchange_fixture()
    tree, stage, objective = fx["tree"], fx["stage"], fx["objective"]
    rep_nodewise = interchange_gap(tree, stage, objective, fx["nodewise"], tol=args.tolerance)
    rep_blind = interchange_gap(tree, stage, objective, fx["history_blind"], tol=args.tolerance)
    report = {
        "fixture": {
            "nodewise": rep_nodewise.to_json(),
            "history_blind": rep_blind.to_json(),
        },
        "tolerance": args.tolerance,
        "seed": args.seed,
    }
    lines = [
        f"nodewise: lhs={rep_nodewise.lhs!r} rhs={rep_nodewise.rhs!r} gap={rep_nodewise.gap!r}",
        f"history_blind: lhs={rep_blind.lhs!r} rhs={rep_blind.rhs!r} gap={rep_blind.gap!r}",
    ]
    min_gap = min(rep_nodewise.gap, rep_blind.gap)
    if args.trials:
        from .generate import random_history_blind_class, random_nodewise_class, random_tree

        rng = rng_from_seed(args.seed)
        for _ in range(args.trials):
            tree_r = random_tree(rng, horizon=1)
            if rng.uniform() < 0.5:
                cls_r = random_nodewise_class(rng, tree_r)
            else:
                cls_r = random_history_blind_class(rng, tree_r)
            coeffs = rng.uniform(-2.0, 2.0, size=3)

            def objective_r(obs_path, u, c=coeffs):
                x = obs_path[-1][0]
                return float(c[0] * u[0] ** 2 + c[1] * u[0] * x + c[2] * x)

            rep = interchange_gap(tree_r, 1, objective_r, cls_r, tol=args.tolerance)
            min_gap = min(min_gap, rep.gap)
        report["trials"] = {"count": args.trials, "min_gap": min_gap}
        lines.append(f"{args.trials} random trials, min gap {min_gap!r}")
    _emit(report, args.json, lines)
    return EXIT_OK if min_gap >= -INEQUALITY_SLACK else EXIT_NEGATIVE


def cmd_mdp_solve(args) -> int:
    values, greedy = mdp_backward_induction(load_mdp(args.input), horizon=args.horizon)
    report = {
        "input": args.input,
        "horizon": args.horizon,
        "values": [v.tolist() for v in values],
        "greedy": [g.tolist() for g in greedy],
    }
    _emit(report, args.json, [f"stage 0 values: {report['values'][0]!r}"])
    return EXIT_OK


def cmd_value_iterate(args) -> int:
    mdp = load_mdp(args.input)
    try:
        result = value_iteration(mdp, epsilon=args.tolerance, max_iters=args.max_iters)
    except ConvergenceError as exc:
        report = {
            "input": args.input,
            "converged": False,
            "iterations": exc.max_iters,
            "residuals": exc.residuals,
            "rounding_bounds": exc.rounding_bounds,
        }
        _emit(report, args.json, [f"no convergence in {exc.max_iters} iterations"])
        return EXIT_NEGATIVE
    report = {
        "input": args.input,
        "converged": True,
        "iterations": result.iterations,
        "values": result.values.tolist(),
        "greedy": result.greedy.tolist(),
        "residuals": result.residuals,
        "rounding_bounds": result.rounding_bounds,
        "epsilon": args.tolerance,
    }
    _emit(
        report,
        args.json,
        [
            f"fixed point: {report['values']!r}",
            f"iterations: {result.iterations}",
            "residuals: " + " ".join(f"{r:.3e}" for r in result.residuals),
        ],
    )
    return EXIT_OK


def cmd_sddp_solve(args) -> int:
    spec = load_stagewise(args.input)
    values, greedy = sddp_recursion(spec)

    def keyed(t: int, entries) -> dict:
        # a state listed twice (0.0 and -0.0 alike) keeps its first key and its last entry
        level = dict(zip(spec.support(t), entries))
        return {str(list(x)): entry for x, entry in sorted(level.items())}

    report = {
        "input": args.input,
        "values": [keyed(t, v.tolist()) for t, v in enumerate(values)],
        "greedy": [
            keyed(t, [list(spec.stage_decisions[t][i]) for i in g.tolist()])
            for t, g in enumerate(greedy)
        ],
        "root_value": values[0].tolist()[0],
    }
    _emit(report, args.json, [f"root value: {report['root_value']!r}"])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with EXIT_INPUT.

    argparse exits 2 on a bad command line, which the exit-code contract
    reserves for an inconclusive finding.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multistage",
        description="Multistage stochastic optimization on finite scenario trees",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*args, **kwargs) -> argparse.ArgumentParser:
        holder = argparse.ArgumentParser(add_help=False)
        holder.add_argument(*args, **kwargs)
        return holder

    input_ = flag("--input", required=True, help="input JSON file")
    policy = flag("--policy", help="policy JSON file")
    tolerance = flag("--tolerance", type=float, default=DEFAULT_TOL)
    cap = flag("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    json_ = flag("--json", action="store_true", help="machine-readable output")

    def command(name, help, *parents):
        return sub.add_parser(name, help=help, parents=[*parents, json_])

    command("validate", "check tree or bundle invariants", input_)
    solve = command("solve", "optimal value and policy", input_, tolerance, cap)
    solve.add_argument("--method", choices=["backward", "brute", "auto"], default="auto")
    command("verify", "martingale test of a policy", input_, policy, tolerance, cap)
    command("dynamic-check", "one-step dynamic relations", input_, policy, tolerance, cap)
    demo = command("demo-interchange", "interchangeability demo", tolerance)
    demo.add_argument("--trials", type=int, default=0)
    demo.add_argument("--seed", type=int, default=0)
    mdp = command("mdp-solve", "finite-horizon backward induction", input_)
    mdp.add_argument("--horizon", type=int, required=True)
    vi = command("value-iterate", "stationary fixed point", input_, tolerance)
    vi.add_argument("--max-iters", type=int, default=MAX_SWEEPS)
    command("sddp-solve", "stagewise independent recursion", input_)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and kept for the process.

    Parsing leaves it as it was: ``parse_args`` fills a fresh namespace, and
    no default is a mutable object.
    """
    return build_parser()


#: the most distinct command lines whose namespaces :func:`_parsed` keeps
_PARSED_LINES = 256


@functools.lru_cache(maxsize=_PARSED_LINES)
def _parsed(argv: tuple) -> dict:
    """The fields of ``_parser().parse_args(list(argv))``, parsed once per
    distinct line and kept for the process.

    A line argparse rejects, ``--help`` and ``--version`` raise
    ``SystemExit``, which is never stored, so argparse writes every help and
    usage text on every call. Every stored field is an immutable scalar.
    """
    return vars(_parser().parse_args(list(argv)))


def _check_flags(args) -> None:
    """Numeric flags that have no meaning are input errors, for every subcommand."""
    tolerance = getattr(args, "tolerance", 0.0)
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise InputFormatError(f"--tolerance {tolerance!r} must be finite and >= 0")
    if getattr(args, "cap", 1) < 1:
        raise InputFormatError(f"--cap {args.cap} must be at least 1")
    if getattr(args, "trials", 0) < 0:
        raise InputFormatError(f"--trials {args.trials} must be >= 0")
    if getattr(args, "seed", 0) < 0:
        raise InputFormatError(f"--seed {args.seed} must be >= 0")


HANDLERS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "dynamic-check": cmd_dynamic_check,
    "demo-interchange": cmd_demo_interchange,
    "mdp-solve": cmd_mdp_solve,
    "value-iterate": cmd_value_iterate,
    "sddp-solve": cmd_sddp_solve,
}


def main(argv: list[str] | None = None) -> int:
    args = argparse.Namespace(**_parsed(tuple(sys.argv[1:] if argv is None else argv)))
    try:
        _check_flags(args)
        return HANDLERS[args.command](args)
    except EnumerationCapError as exc:
        print(f"enumeration too large: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasiblePolicyError as exc:
        print(f"infeasible policy: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MultistageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("out of memory: a lower --cap bounds the memory of the enumeration",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
