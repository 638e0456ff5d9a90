from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from conftest import MINIMAL_STYLE
from hypothesis import given, settings

from byrne.errors import ByrneError
from byrne.seeml import parse_seeml
from byrne.sexpr import (
    _NUMBER,
    SexprError,
    Symbol,
    is_keyword,
    keyword_name,
    read_one,
    read_top_level,
    to_text,
)
from byrne.style import load_style


def test_atoms():
    assert read_one("120") == 120
    assert read_one("1.5") == 1.5
    assert read_one("a1") == Symbol("a1")
    assert read_one("1/t") == Symbol("1/t")
    assert read_one('"two words"') == "two words"
    for text, value in [("-7", -7), ("+3", 3), ("1.", 1.0), (".5", 0.5), ("-2.5e-3", -0.0025), ("1E2", 100.0)]:
        atom = read_one(text)
        assert atom == value and type(atom) is type(value)


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1_000", "0x10", "1e", ".", "-", "\u0663"])
def test_other_number_spellings_are_symbols(text):
    assert isinstance(read_one(text), Symbol)


@pytest.mark.parametrize("text", ["1e400", "-1e400", pytest.param("9" * 400, id="400-digit-integer")])
def test_a_number_too_large_for_a_float_fails_the_read(text):
    with pytest.raises(SexprError, match="line 2: number .* is too large"):
        read_top_level(f"(a 1)\n(b {text})")


def test_nested_form():
    form = read_one("(pass from: a1 to: a2 fromloc: (30 10))")
    assert form[0] == Symbol("pass")
    assert form[6] == (30, 10)
    assert is_keyword(form[1]) and keyword_name(form[1]) == "from"


def test_comments_and_blank_lines():
    forms = read_top_level("# header\n(a 1)\n\n(b 2) # trailing\n")
    assert forms == [((Symbol("a"), 1), 2), ((Symbol("b"), 2), 4)]
    # every character an atom cannot hold separates atoms, as a space does
    assert read_top_level("(a\x0c1)\x1f\u2028(b\xa02)") == read_top_level("(a 1) (b 2)")


def test_string_escapes():
    assert read_one(r'"say \"hi\" \\ back"') == 'say "hi" \\ back'


def test_errors_carry_line_numbers():
    with pytest.raises(SexprError) as err:
        read_top_level("(ok 1)\n(broken")
    assert "line 2" in str(err.value)
    with pytest.raises(SexprError):
        read_top_level("(a))")
    with pytest.raises(SexprError):
        read_one('"unterminated')


def test_symbol_vs_string_distinct():
    sym, text = read_one('(x a "a")')[1:]
    assert isinstance(sym, Symbol) and not isinstance(text, Symbol)
    assert to_text(sym) == "a" and to_text(text) == '"a"'


_atoms = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="abcxyz?-", min_size=1, max_size=6).map(Symbol),
    st.sampled_from(["nan", "inf", "-inf", "1_000", "1e"]).map(Symbol),
    st.text(alphabet="abc xyz\"\\", max_size=8),
)
_sexprs = st.recursive(_atoms, lambda inner: st.tuples(inner, inner, inner), max_leaves=12)


@given(_sexprs)
def test_print_read_round_trip(value):
    assert read_one(to_text(value)) == value


# Text near the decimal grammar: signs, points, exponents, a percent, an
# underscore, a space, other scripts' digits and the letters of nan and inf.
_NEAR_NUMBERS = st.text(st.sampled_from("0123456789+-.eE%_ ١٢²nafi"), max_size=8) | st.from_regex(
    _NUMBER, fullmatch=True
)


def _decimal(text: str) -> float:
    # nan, which fails every range check, unless `text` is a decimal literal
    return float(text) if _NUMBER.fullmatch(text) else math.nan


def _accepts(load, source: str) -> bool:
    try:
        load(source)
    except ByrneError:
        return False
    return True


@given(_NEAR_NUMBERS)
@settings(max_examples=300, deadline=None)
def test_style_and_markup_read_a_number_exactly_when_it_is_a_decimal_literal(text):
    # an EXPR LEVEL is a number in [0,1], or a signed number (a delta) a float can hold
    level = _decimal(text)
    signed = text.startswith(("+", "-")) and math.isfinite(level)
    markup = f'<EXPR LEVEL="{text}" NAME="smile">x</EXPR>'
    assert _accepts(parse_seeml, markup) == (0 <= level <= 1 or signed)
    # a style line loses the spaces around it, and a weight ends at a space
    weight = _decimal(text.rstrip())
    style = MINIMAL_STYLE.replace("AU6:0.6", f"AU6:{text}")
    assert _accepts(load_style, style) == (0 <= weight <= 1)
    pause = _decimal(text.strip())
    assert _accepts(load_style, MINIMAL_STYLE + f"break_ms = {text}\n") == (0 <= pause <= 60000)
