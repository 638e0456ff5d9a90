from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from byrne.sexpr import SexprError, Symbol, is_keyword, keyword_name, read_one, read_top_level, to_text


def test_atoms():
    assert read_one("120") == 120
    assert read_one("1.5") == 1.5
    assert read_one("a1") == Symbol("a1")
    assert read_one("1/t") == Symbol("1/t")
    assert read_one('"two words"') == "two words"


def test_nested_form():
    form = read_one("(pass from: a1 to: a2 fromloc: (30 10))")
    assert form[0] == Symbol("pass")
    assert form[6] == (30, 10)
    assert is_keyword(form[1]) and keyword_name(form[1]) == "from"


def test_comments_and_blank_lines():
    forms = read_top_level("# header\n(a 1)\n\n(b 2) # trailing\n")
    assert forms == [((Symbol("a"), 1), 2), ((Symbol("b"), 2), 4)]


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
    st.text(alphabet="abc xyz\"\\", max_size=8),
)
_sexprs = st.recursive(_atoms, lambda inner: st.tuples(inner, inner, inner), max_leaves=12)


@given(_sexprs)
def test_print_read_round_trip(value):
    assert read_one(to_text(value)) == value
