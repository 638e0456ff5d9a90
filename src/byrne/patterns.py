"""One-way pattern matching over ground s-expressions.

Patterns are s-expressions with ``?name`` variables. Keyworded forms such as
``(pass from: ?x to: ?y)`` match a candidate when the heads agree and every
keyword the pattern mentions is present on the candidate with a matching term;
extra keywords on the candidate are ignored, so ``(scores team: ?t)`` matches
``(scores team: a time: 125)``. Plain tuples (coordinate pairs and the like)
match positionally. Candidates are always ground, so this is matching rather
than full unification.

Both sides come in keyed form (`keyed`): each compound term is split into
head and keyword map, or into positional items, once where it is born (a
profile's statics and patterns at load, a fact joining the board, an emotion
structure, a deletion probe once per binding), so `unify` splits nothing. And
`match_all` scans a `Candidates` index, built once per candidate set, so each
pattern scans only the candidates of its own `shape`; it dedups bindings on typed terms.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .sexpr import Sexpr, Symbol, is_keyword, keyword_name, to_text

Binding = dict[Symbol, Sexpr]


def is_variable(x: Sexpr) -> bool:
    return isinstance(x, Symbol) and len(x) > 1 and x.startswith("?")


def variables_in(x: Sexpr) -> set[Symbol]:
    if is_variable(x):
        return {x}
    if isinstance(x, tuple):
        out: set[Symbol] = set()
        for c in x:
            out |= variables_in(c)
        return out
    return set()


def is_ground(x: Sexpr) -> bool:
    return not variables_in(x)


def parse_keyed(form: Sexpr) -> Optional[tuple[Optional[Symbol], dict[str, Sexpr]]]:
    """Split ``(head k1: v1 ...)`` or headless ``(k1: v1 ...)`` into head + keyword map.

    Returns None when the form is not keyword-shaped (then it matches positionally).
    """
    if not isinstance(form, tuple) or not form:
        return None
    head: Optional[Symbol] = None
    i = 0
    if isinstance(form[0], Symbol) and not is_keyword(form[0]) and not is_variable(form[0]):
        head = form[0]
        i = 1
    rest = form[i:]
    if not rest or len(rest) % 2:
        return None
    pairs: dict[str, Sexpr] = {}
    for k, v in zip(rest[::2], rest[1::2]):
        if not is_keyword(k):
            return None
        name = keyword_name(k)
        if name in pairs:
            return None
        pairs[name] = v
    return head, pairs


class Form:
    """A compound term, ground or pattern, split once: `pairs` maps each
    keyword name to a keyed sub-term when the term is keyword-shaped (`head`
    is then its predicate, or None when headless), otherwise `items` holds the
    keyed sub-terms in order. `term` is the term itself, which is what
    variables bind to; forms compare and hash by it."""

    __slots__ = ("term", "head", "pairs", "items")

    def __init__(self, term: tuple) -> None:
        self.term = term
        split = parse_keyed(term)
        if split is None:
            self.head, self.pairs = None, None
            self.items = tuple(keyed(c) for c in term)
        else:
            self.head = split[0]
            self.pairs = {name: keyed(v) for name, v in split[1].items()}
            self.items = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Form) and self.term == other.term

    def __hash__(self) -> int:
        return hash(self.term)


Keyed = Union[Form, Symbol, str, int, float]


def keyed(term: Sexpr) -> Keyed:
    """The keyed form `unify` takes on both sides; an atom is its own."""
    return Form(term) if isinstance(term, tuple) else term


def _atoms_match(pattern: Sexpr, value: Sexpr) -> bool:
    if isinstance(pattern, (int, float)) and isinstance(value, (int, float)):
        return pattern == value
    if isinstance(pattern, Symbol) and isinstance(value, Symbol):
        return str(pattern) == str(value)
    if isinstance(pattern, str) and isinstance(value, str):
        # quoted strings never match bare symbols
        return isinstance(pattern, Symbol) == isinstance(value, Symbol) and pattern == value
    return False


def unify(pattern: Keyed, value: Keyed, binding: Binding) -> Optional[Binding]:
    """Extend `binding` so that the keyed `pattern` matches the keyed ground `value`, or None."""
    if isinstance(pattern, Form) and isinstance(value, Form):
        if pattern.pairs is not None:
            vp = value.pairs
            if vp is None or pattern.head != value.head:
                return None
            b: Optional[Binding] = binding
            for name, pv in pattern.pairs.items():
                if name not in vp:
                    return None
                b = unify(pv, vp[name], b)
                if b is None:
                    return None
            return b
        if value.pairs is not None or len(pattern.items) != len(value.items):
            return None
        b = binding
        for p, v in zip(pattern.items, value.items):
            b = unify(p, v, b)
            if b is None:
                return None
        return b
    if isinstance(pattern, tuple) or isinstance(value, tuple):
        raw = pattern if isinstance(pattern, tuple) else value
        raise TypeError(f"{to_text(raw)} is not in keyed form; build it with keyed()")
    if is_variable(pattern):
        term = value.term if isinstance(value, Form) else value
        bound = binding.get(pattern)
        if bound is None:
            out = dict(binding)
            out[pattern] = term
            return out
        return binding if equal(bound, term) else None
    if isinstance(pattern, Form) or isinstance(value, Form):
        return None
    return binding if _atoms_match(pattern, value) else None


def equal(a: Sexpr, b: Sexpr) -> bool:
    """Term equality as matching sees it: a quoted string never equals a
    symbol, and numbers compare by value."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(equal, a, b))
    return _atoms_match(a, b)


def substitute(x: Sexpr, binding: Binding) -> Sexpr:
    """`x` with each variable replaced by its bound term; `binding` binds them all,
    as a full `match_all` binding does every variable the loader lets a rule use."""
    if is_variable(x):
        return binding[x]
    if isinstance(x, tuple):
        return tuple(substitute(c, binding) for c in x)
    return x


def shape(x: Keyed) -> object:
    """What a term shares with every pattern that matches it: a keyword form's head (None
    when headless), `()` if positional, `float` for any number, else the atom's type."""
    if isinstance(x, Form):
        return () if x.pairs is None else x.head
    if isinstance(x, tuple):
        raise TypeError(f"{to_text(x)} is not in keyed form; build it with keyed()")
    return float if isinstance(x, (int, float)) else type(x)


class Candidates(list):
    """Keyed candidates in order, and in `by_shape` split by `shape`; refuses a raw tuple."""

    __slots__ = ("by_shape",)

    def __init__(self, terms: Iterable[Keyed]) -> None:
        super().__init__(terms)
        self.by_shape: dict[object, list[Keyed]] = {}
        for term in self:
            self.by_shape.setdefault(shape(term), []).append(term)


def _term_key(x: Sexpr) -> object:
    # apart where to_text keeps them: 1 and 1.0, a and "a", 0.0 and -0.0 (equal, so by repr)
    if isinstance(x, tuple):
        return tuple(map(_term_key, x))
    return (float, repr(x)) if isinstance(x, float) else (type(x), x)


def match_all(
    patterns: Iterable[Keyed],
    candidates: Iterable[Keyed],
    binding: Optional[Binding] = None,
) -> list[Binding]:
    """Every binding satisfying all keyed patterns against the keyed candidate set.

    Patterns are tried left to right against candidates in their given order,
    so the result order is deterministic; duplicate bindings are dropped.
    `candidates` is a `Candidates` index, or the candidates to build one from.
    """
    patterns = list(patterns)
    index = candidates if isinstance(candidates, Candidates) else Candidates(candidates)
    scans = [index if is_variable(p) else index.by_shape.get(shape(p), ()) for p in patterns]
    if not all(scans):
        return []
    results: list[Binding] = []

    def go(i: int, b: Binding) -> None:
        if i == len(patterns):
            results.append(b)
            return
        for cand in scans[i]:
            nb = unify(patterns[i], cand, b)
            if nb is not None:
                go(i + 1, nb)

    go(0, dict(binding or {}))
    seen: set[frozenset] = set()
    out: list[Binding] = []
    for b in results:
        key = frozenset((k, _term_key(v)) for k, v in b.items())
        if key not in seen:
            seen.add(key)
            out.append(b)
    return out
