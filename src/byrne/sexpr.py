"""S-expression reader and printer.

One reader serves the whole system: game facts, rule patterns, and character
profiles all use the same notation, e.g. ``(pass from: a1 to: a2 fromloc: (30 10))``.
Atoms are symbols, integers, floats, or double-quoted strings; ``#`` starts a
comment that runs to end of line. An atom is a number only when it is a decimal
literal (`_NUMBER`): ``nan``, ``inf`` and ``1_000`` are symbols, and a literal
too large for a float fails the read. Every reader of a number calls `atom`.
Variables have one grammar too, `VARIABLE`: the reader (`read_top_level`) fails
any other ``?name``, naming its line; `atom` reads such a token as a symbol.
"""

from __future__ import annotations

import math
import re
from typing import Union

from .errors import ByrneError


class Symbol(str):
    """Bare identifier. Distinct from a quoted string but sorts and hashes like one."""

    __slots__ = ()

    def __repr__(self) -> str:
        return str(self)


Sexpr = Union[Symbol, str, int, float, tuple]


class SexprError(ByrneError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


_ATOM = re.compile(r'[^\s()"#]+')
# optional sign; digits with an optional fraction, or a leading-dot fraction;
# optional exponent. A literal with no fraction and no exponent is an integer.
_NUMBER = re.compile(r"[+-]?(?:[0-9]+(\.[0-9]*)?|(\.[0-9]+))([eE][+-]?[0-9]+)?")
# ? and an ASCII letter, then ASCII letters, digits, _ or -: ?team, ?p2, ?home-side
VARIABLE = re.compile(r"\?[A-Za-z][A-Za-z0-9_-]*")
_ESCAPES = {"n": "\n", "t": "\t"}


def _tokenize(text: str):
    i, line, n = 0, 1, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c.isspace():
            i += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c, c, line
            i += 1
        elif c == '"':
            start = line
            i += 1
            out: list[str] = []
            while i < n and text[i] != '"':
                ch = text[i]
                if ch == "\\" and i + 1 < n:
                    i += 1
                    out.append(_ESCAPES.get(text[i], text[i]))
                else:
                    if ch == "\n":
                        line += 1
                    out.append(ch)
                i += 1
            if i >= n:
                raise SexprError("unterminated string", start)
            i += 1
            yield "string", "".join(out), start
        else:
            m = _ATOM.match(text, i)
            i = m.end()
            yield "atom", m.group(), line


def atom(token: str, line: int | None = None) -> Union[Symbol, int, float]:
    """A decimal literal as an int or a float, any other token as a Symbol."""
    m = _NUMBER.fullmatch(token)
    if m is None:
        return Symbol(token)
    # every number must fit a float: the loaders read times, scores and levels as one
    value = float(token)
    if math.isinf(value):
        raise SexprError(f"number {token} is too large", line)
    return value if m.lastindex else int(token)


def read_top_level(text: str) -> list[tuple[Sexpr, int]]:
    """All top-level forms in `text`, each with the line it opened on."""
    out: list[tuple[Sexpr, int]] = []
    stack: list[tuple[list, int]] = []
    for kind, value, line in _tokenize(text):
        if kind == "(":
            stack.append(([], line))
        elif kind == ")":
            if not stack:
                raise SexprError("unbalanced ')'", line)
            items, open_line = stack.pop()
            form = tuple(items)
            if stack:
                stack[-1][0].append(form)
            else:
                out.append((form, open_line))
        else:
            item = value if kind == "string" else atom(value, line)
            # a variable no template substitutes would bind and then be spoken as written
            if kind == "atom" and value.startswith("?") and len(value) > 1 and not VARIABLE.fullmatch(value):
                raise SexprError(f"{value} is not a variable: ?, a letter, then [A-Za-z0-9_-]*", line)
            if stack:
                stack[-1][0].append(item)
            else:
                out.append((item, line))
    if stack:
        raise SexprError("unbalanced '('", stack[-1][1])
    return out


def read_one(text: str) -> Sexpr:
    forms = read_top_level(text)
    if len(forms) != 1:
        raise SexprError(f"expected exactly one expression, found {len(forms)}")
    return forms[0][0]


def to_text(x: Sexpr) -> str:
    """Canonical rendering; `read_one(to_text(x))` reproduces `x`."""
    if isinstance(x, Symbol):
        return str(x)
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(x, bool):
        raise TypeError("booleans are not part of the term language")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, tuple):
        return "(" + " ".join(to_text(c) for c in x) + ")"
    raise TypeError(f"not an s-expression: {x!r}")


def is_keyword(x: Sexpr) -> bool:
    return isinstance(x, Symbol) and len(x) > 1 and x.endswith(":")


def keyword_name(x: Symbol) -> str:
    return str(x)[:-1]


def kw(name: str) -> Symbol:
    return Symbol(name + ":")
