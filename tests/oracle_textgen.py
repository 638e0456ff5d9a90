"""Reference template instantiation over the raw markup, for equivalence tests.

This is how byrne instantiated a template before bodies were kept parsed:
each variable in the body's text is replaced by its escaped rendering, and the
result is parsed again. It differs from `textgen.instantiate` only where a
rendered value was read back as markup: a value that completes an entity
(`amp` in `R&?s;`) becomes that entity.
"""

from __future__ import annotations

import re
from typing import Mapping

from byrne.patterns import Binding
from byrne.seeml import SeemlDocument, _escape_text, parse_seeml
from byrne.sexpr import Symbol
from byrne.textgen import render_term

_VAR_RE = re.compile(r"\?[A-Za-z][A-Za-z0-9_-]*")


def instantiate(
    template_id: str, body: str, binding: Binding, names: Mapping[str, str] | None = None
) -> SeemlDocument:
    def replace(m: re.Match[str]) -> str:
        return _escape_text(render_term(binding[Symbol(m.group(0))], names))

    return parse_seeml(_VAR_RE.sub(replace, body))
