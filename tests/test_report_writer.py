"""The ``--json`` report writer (``cli._dumps``) prints the bytes of
``json.dumps(report, sort_keys=True, indent=2)``, the reference.

It writes through orjson and rewrites the number tokens that orjson spells
differently. An int outside orjson's range [-2^63, 2^64) that is a value of
the report itself is spliced into orjson's text. It falls back to
``json.dumps`` only where orjson cannot give the same bytes: orjson raises
``TypeError`` (such an int nested deeper among them), or its text holds a
backslash, a byte of 0x7f or above, or a ``null`` that does not decode to
the report.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import io
import json
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistage import cli
from test_golden_reports import (
    GOLDEN,
    MDP_COMMANDS,
    MDP_GOLDEN,
    mdp_inputs,
    run_case,
    run_mdp_case,
)


def reference(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def outcome(write, report):
    """The text ``write`` gives for ``report``, or the type of the error it raises."""
    try:
        return write(report)
    except TypeError as exc:
        return type(exc)


def signed(values):
    return st.builds(lambda x, sign: sign * x, values, st.sampled_from([1.0, -1.0]))


FLOATS = st.one_of(
    st.floats(),  # NaN, ±inf, subnormals and -0.0 among them
    st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-10**17, 10**17),
              st.integers(-330, 310)),
    signed(st.floats(1e-5, 1e-4, exclude_max=True)),
    st.builds(lambda i, f: float(f"{i}.0000{f}"), st.integers(-10**6, 10**6),
              st.integers(0, 10**9)),
    st.sampled_from([10.00001, -100.000015, 1e-5, -1e-5, 9.999999999999999e-05, 1e-4,
                     1e16, -1e16, 9999999999999998.0, 5e-324, -0.0]),
)
#: ints around the ends of orjson's range [-2^63, 2^64) and far past them
WIDE = st.one_of(*(st.integers(b - 3, b + 3)
                   for b in (-2**63, 2**63, 2**64, -2**64, 2**65, -2**65, 10**90, -10**90)))
INTS = st.one_of(st.integers(), WIDE)
TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\xe9", " ",
                              "\ud800", "\U0001f600", "e-6", "1e16", "0.00001", "10.00001",
                              "null", "true", "a", " "]), max_size=4).map("".join),
)
LEAVES = st.one_of(FLOATS, INTS, st.booleans(), st.none(),
                   st.sampled_from([float("nan"), float("inf"), float("-inf")]), TEXT)
REPORTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    ),
    max_leaves=24,
)


#: a report as the commands build it: an object, whose own values may be wide ints
TOP_LEVEL = st.dictionaries(TEXT, st.one_of(INTS, REPORTS), max_size=5)


@settings(max_examples=600, deadline=None)
@given(st.one_of(REPORTS, TOP_LEVEL))
def test_the_writer_prints_the_reference_bytes(report):
    assert outcome(cli._dumps, report) == outcome(reference, report)


#: what orjson writes as json does: finite floats, ints in its range, plain text
PLAIN = st.recursive(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.integers(-2**63, 2**64 - 1), st.booleans(), st.none(),
              st.text("abc 09.-e", max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text("abc", max_size=3), inner, max_size=3)),
    max_leaves=10,
)
PLAIN_KEYS = st.text("abcdefgh_ 0", max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(PLAIN_KEYS, st.one_of(WIDE, PLAIN), max_size=6),
       st.sampled_from([None, "list", "object"]))
def test_a_wide_int_falls_back_only_below_the_top_level(report, nest):
    calls: list = []
    wide = [key for key, value in report.items() if type(value) is int and value >= 2**64]
    if nest == "list":
        report["nested"] = [2**64]
    elif nest == "object":
        report["nested"] = {"count": -2**63 - 1, "values": [0.5]}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "json", types.SimpleNamespace(
            dumps=lambda report, **kw: calls.append(report) or json.dumps(report, **kw)))
        text = cli._dumps(report)
    assert text == reference(report)
    assert bool(calls) == (nest is not None)
    for key in wide:
        assert f'\n  "{key}": {report[key]}' in text


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=40))
def test_a_report_of_floats_takes_no_fallback_unless_one_is_not_finite(values):
    calls: list = []
    report = {"values": values, "nested": [{"x": v} for v in values]}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "json", types.SimpleNamespace(
            dumps=lambda report, **kw: calls.append(report) or json.dumps(report, **kw)))
        text = cli._dumps(report)
    assert text == reference(report)
    assert bool(calls) == (not all(np.isfinite(values)))


def test_every_exponent_is_spelled_as_json_spells_it():
    values = [sign * float(f"{m}e{e}") for e in range(-330, 311) for m in (1, 1.25, 9.875)
              for sign in (1.0, -1.0)]
    report = {"values": values, "decade": [k * 1e-6 for k in range(-100, 101)]}
    assert cli._dumps(report) == reference(report)


@dataclasses.dataclass
class Point:
    x: float = 0.0


@pytest.mark.parametrize("value", [Point(), datetime.date(2020, 1, 1), np.int64(1),
                                   np.arange(2), {"a": 1, 2: "b"}, {1.5}])
def test_what_json_refuses_raises_type_error_from_both_writers(value):
    with pytest.raises(TypeError):
        reference({"value": value})
    with pytest.raises(TypeError):
        cli._dumps({"value": value})


@pytest.fixture
def fallbacks(monkeypatch) -> list:
    """The reports that the writer hands to ``json.dumps``."""
    calls: list = []

    def dumps(report, **kwargs):
        calls.append(report)
        return json.dumps(report, **kwargs)

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=dumps))
    return calls


@pytest.mark.parametrize("report, falls_back", [
    ({"count": 2**64 - 1, "low": -2**63}, False),
    ({"count": 2**64}, False),
    ({"low": -2**63 - 1}, False),
    ({"count": 10**90, "low": -2**65, "zero": 0, "nested": {"zero": 0}}, False),
    ({"nested": {"count": 2**64}}, True),
    ({"count": 2**64, "values": [-2**63 - 1]}, True),
    ({"count": 2**64, "input": 'a "quoted" path'}, True),
    ({"count": 2**64, "value": float("nan")}, True),
    ({1: "int key"}, True),
    ({"value": np.float64(0.5)}, True),
    ({"input": 'a "quoted" path'}, True),
    ({"input": "a\\b"}, True),
    ({"input": "tab\there"}, True),
    ({"input": "\x7f"}, True),
    ({"input": "caf\xe9"}, True),
    ({"value": float("nan")}, True),
    ({"value": float("-inf")}, True),
    ({"value": None, "input": "null.json", "flag": True}, False),
    ({"values": [1e-5, -5e-5, 10.00001, 1e16, 1e-7, -0.0], "empty": [], "none": {}}, False),
])
def test_the_fallback_is_taken_only_where_orjson_cannot_give_the_bytes(
        fallbacks, report, falls_back):
    assert cli._dumps(report) == reference(report)
    assert bool(fallbacks) == falls_back


def test_the_token_mdp_reaches_every_rewrite(tmp_path):
    # the golden mdp_tokens reports hold each number that orjson spells unlike json
    file = tmp_path / "mdp_tokens.json"
    file.write_text(json.dumps(mdp_inputs()["mdp_tokens"]))
    for command in MDP_COMMANDS["mdp_tokens"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([*command.split(), "--input", str(file), "--json"]) == 0
        numbers = re.findall(r"(?m)^ *(-?[0-9][^,\n]*),?$", out.getvalue())
        assert any(re.fullmatch(r"[0-9.]+e-05", x) for x in numbers)
        assert any(re.fullmatch(r"-[0-9.]+e-05", x) for x in numbers)
        assert any(re.fullmatch(r"-?[0-9]*[1-9]0?\.0000[0-9]+", x) for x in numbers)
        assert any(re.fullmatch(r"-?[0-9.]+e\+1[6-9]", x) for x in numbers)


def test_no_golden_report_falls_back(fallbacks, tmp_path, monkeypatch):
    # validate, solve, verify, dynamic-check, sddp-solve, mdp-solve and value-iterate
    written = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda report: written.append(report) or dumps(report))
    wide = []
    for case in sorted(GOLDEN):
        name, command = case.split(":")
        run_case(tmp_path, name, command.split())
        assert fallbacks == [], case
        if written.pop().get("policy_count", 0) >= 2**64:
            wide.append(case)
    for case in MDP_GOLDEN:
        name, command = case.split(":")
        if command.endswith("--json"):
            run_mdp_case(tmp_path, name, command.split())
            assert fallbacks == [], case
    # 2^65 policies, and 3 decisions at each of the many nodes of a horizon-6 tree:
    # orjson writes these reports too, and their policy counts are spliced in
    assert wide == ["huge_count:solve", "huge_count:verify",
                    "wide:solve --method backward", "wide:verify"]
