"""``exceptions.load_json`` decodes a file as ``json.load`` of it in text mode
does: the same values, the same key order and the same error messages."""

import decimal
import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multistage import exceptions
from multistage.exceptions import InputFormatError, load_json
from multistage.generate import rng_from_seed
from instances import mdp_to_json, random_mdp

WHITESPACE = st.sampled_from(["", " ", "\t", "\n", "\r\n", " \r\n\t "])


def _integers():
    """Ints around ±2^63 and 2^64, where orjson's own integers end, and of 19-40 digits."""
    near = st.tuples(st.sampled_from([2**63, 2**64, -(2**63), -(2**64)]), st.integers(-3, 3))
    long = st.integers(19, 40).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1))
    long = st.tuples(long, st.sampled_from([1, -1])).map(lambda x: x[0] * x[1])
    return st.one_of(near.map(sum), long, st.integers(-(10**18), 10**18)).map(str)


@st.composite
def _near_halfway(draw):
    """A decimal within 1e-40 (relative) of the midpoint of two adjacent
    floats: above it, below it, or the exact midpoint with 40 more zeros."""
    bits = draw(st.integers(0, 0x7FEFFFFFFFFFFFFE))
    low, high = (struct.unpack("<d", struct.pack("<Q", b))[0] for b in (bits, bits + 1))
    with decimal.localcontext(decimal.Context(prec=1200)):
        mid = (decimal.Decimal(low) + decimal.Decimal(high)) / 2
        offset = draw(st.sampled_from([-1, 0, 1])) * mid.scaleb(-40)
        text = str(+(mid + offset))
    return ("-" if draw(st.booleans()) else "") + text


@st.composite
def _mantissa_exponent(draw):
    """A 1-40-digit mantissa, its point anywhere, with an exponent in -345..320."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.integers(0, len(digits)))
    whole, fraction = digits[:point].lstrip("0") or "0", digits[point:]
    exponent = draw(st.integers(-345, 320))
    sign, e = draw(st.sampled_from(["", "-"])), draw(st.sampled_from("eE"))
    return f"{sign}{whole}{'.' + fraction if fraction else ''}{e}{exponent}"


NUMBERS = st.one_of(
    st.floats().map(json.dumps),  # NaN and ±Infinity included
    _integers(),
    _near_halfway(),
    _mantissa_exponent(),
)

# non-BMP characters and lone surrogates, raw and escaped
CHARACTERS = st.characters() | st.characters(categories=["Cs"])
STRINGS = st.tuples(st.text(CHARACTERS, max_size=6), st.booleans()).map(
    lambda s: json.dumps(s[0], ensure_ascii=s[1])
)
KEYS = st.sampled_from(['"a"', '"b"', '"\\u0061"']) | STRINGS  # duplicate keys


def _padded(tokens):
    return st.tuples(WHITESPACE, tokens, WHITESPACE).map("".join)


DOCUMENTS = _padded(st.recursive(
    st.one_of(NUMBERS, STRINGS, st.sampled_from(["true", "false", "null"])),
    lambda inner: st.one_of(
        st.lists(_padded(inner), max_size=4).map(lambda xs: "[" + ",".join(xs) + "]"),
        st.lists(st.tuples(_padded(KEYS), _padded(inner)), max_size=4).map(
            lambda pairs: "{" + ",".join(f"{k}:{v}" for k, v in pairs) + "}"
        ),
    ),
    max_leaves=12,
))


@st.composite
def _files(draw):
    """The bytes of a document, as written or mutated: truncated, with a BOM,
    with an invalid UTF-8 byte, or with trailing garbage."""
    raw = draw(DOCUMENTS).encode("utf-8", "surrogatepass")
    cut = draw(st.integers(0, len(raw)))
    mutation = draw(st.sampled_from(["none"] * 4 + ["truncated", "bom", "byte", "trailing"]))
    if mutation == "truncated":
        return raw[:cut]
    if mutation == "bom":
        return b"\xef\xbb\xbf" + raw
    if mutation == "byte":
        return raw[:cut] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x80"])) + raw[cut:]
    if mutation == "trailing":
        return raw + draw(st.sampled_from([b"x", b"]", b" 1", b",", b"\x00"]))
    return raw


def assert_same(a, b):
    """Equal values of equal types: floats bit for bit, dicts in key order."""
    assert type(a) is type(b)
    if isinstance(a, float):
        assert a.hex() == b.hex()  # 'nan' for every NaN
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            assert_same(a[k], b[k])
    else:
        assert a == b


def _tie_of_769_digits():
    """Half the least subnormal, exactly, its mantissa padded to 769 digits
    with zeros: a tie that rounds to even, 0.0, and that orjson rounds up."""
    with decimal.localcontext(decimal.Context(prec=1200)):
        half = decimal.Decimal(5e-324) / 2
    digits = "".join(map(str, half.as_tuple().digits))
    return f"0.{digits.ljust(769, '0')}e{half.adjusted() + 1}"


class TestLoadJson:
    @settings(max_examples=600, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_files())
    def test_agrees_with_json_load_in_text_mode(self, tmp_path, raw):
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        try:
            with open(path, encoding="utf-8") as fh:
                expected = json.load(fh)
        except ValueError as exc:
            with pytest.raises(InputFormatError) as info:
                load_json(str(path), lambda d: d)
            assert str(info.value) == f"{path}: {exc}"
        else:
            assert_same(load_json(str(path), lambda d: d), expected)

    @pytest.mark.parametrize("text", [
        "18446744073709551616", "[-9223372036854775809]", '{"n": 12345678901234567890}',
        "[1e400]", "[NaN]", '"\\ud800"', "1.5e-400", _tie_of_769_digits(),
    ], ids=["2^64", "below-2^63", "20-digit-value", "overflow", "nan", "lone-surrogate",
            "underflow", "769-digit-tie"])
    def test_number_and_string_edge_cases(self, tmp_path, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert_same(load_json(str(path), lambda d: d), json.loads(text))

    def test_an_mdp_decodes_without_falling_back(self, tmp_path, monkeypatch):
        """The written MDP takes the fast path: ``json`` is not consulted."""
        data = mdp_to_json(random_mdp(rng_from_seed(3), n_states=20, n_actions=3,
                                      action_dependent=True))
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps(data, sort_keys=True, indent=2))
        monkeypatch.setattr(exceptions, "json", None)  # the fallback would fail here
        assert_same(load_json(str(path), lambda d: d), json.loads(path.read_text()))
