"""Reference matcher over plain ground s-expressions, for equivalence tests.

This is the matcher byrne used before candidates came in keyed form: `unify`
splits both the pattern and the ground term with `parse_keyed` on every call,
and `rule_universe` flattens and sorts the board for every rule. It is kept
verbatim in behaviour so the keyed matcher can be checked against it. Only
the pool's duplicate check follows byrne's: it compares each structure's view
(type, target and cause) with the matcher's term equality, so a symbol never
equals a quoted string.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from byrne.emotions import EmotionPool, EmotionRule, EmotionSchema, EmotionStructure
from byrne.facts import FactBoard
from byrne.patterns import Binding, substitute
from byrne.sexpr import Sexpr, Symbol, is_keyword, keyword_name, to_text


def is_variable(x: Sexpr) -> bool:
    return isinstance(x, Symbol) and len(x) > 1 and x.startswith("?")


def parse_keyed(form: Sexpr) -> Optional[tuple[Optional[Symbol], dict[str, Sexpr]]]:
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


def _atoms_match(pattern: Sexpr, value: Sexpr) -> bool:
    if isinstance(pattern, (int, float)) and isinstance(value, (int, float)):
        return pattern == value
    if isinstance(pattern, Symbol) and isinstance(value, Symbol):
        return str(pattern) == str(value)
    if isinstance(pattern, str) and isinstance(value, str):
        return isinstance(pattern, Symbol) == isinstance(value, Symbol) and pattern == value
    return False


def _equal(a: Sexpr, b: Sexpr) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return _atoms_match(a, b)


def unify(pattern: Sexpr, value: Sexpr, binding: Binding) -> Optional[Binding]:
    if is_variable(pattern):
        bound = binding.get(pattern)
        if bound is None:
            out = dict(binding)
            out[pattern] = value
            return out
        return binding if _equal(bound, value) else None
    if isinstance(pattern, tuple) and isinstance(value, tuple):
        pk, vk = parse_keyed(pattern), parse_keyed(value)
        if pk is not None and vk is not None:
            (ph, pp), (vh, vp) = pk, vk
            if (ph is None) != (vh is None) or (ph is not None and str(ph) != str(vh)):
                return None
            b: Optional[Binding] = binding
            for name, pv in pp.items():
                if name not in vp:
                    return None
                b = unify(pv, vp[name], b)
                if b is None:
                    return None
            return b
        if pk is None and vk is None:
            if len(pattern) != len(value):
                return None
            b = binding
            for p, v in zip(pattern, value):
                b = unify(p, v, b)
                if b is None:
                    return None
            return b
        return None
    if isinstance(pattern, tuple) or isinstance(value, tuple):
        return None
    return binding if _atoms_match(pattern, value) else None


def match_all(
    patterns: Iterable[Sexpr], candidates: Iterable[Sexpr], binding: Optional[Binding] = None
) -> list[Binding]:
    patterns = list(patterns)
    candidates = list(candidates)
    results: list[Binding] = []

    def go(i: int, b: Binding) -> None:
        if i == len(patterns):
            results.append(b)
            return
        for cand in candidates:
            nb = unify(patterns[i], cand, b)
            if nb is not None:
                go(i + 1, nb)

    go(0, dict(binding or {}))
    seen: set[tuple] = set()
    out: list[Binding] = []
    for b in results:
        key = tuple(sorted((str(k), to_text(v)) for k, v in b.items()))
        if key not in seen:
            seen.add(key)
            out.append(b)
    return out


def _instantiate(schema: EmotionSchema, binding: Binding, now: float) -> EmotionStructure:
    target = substitute(schema.target, binding)
    cause = substitute(schema.cause, binding)
    return EmotionStructure(schema.type, schema.intensity, target, cause, schema.decay, float(now))


def rule_universe(board: FactBoard, statics: Iterable[Sexpr], pool: EmotionPool) -> list[Sexpr]:
    facts = sorted((f.form.term for f in board.entries.values()), key=to_text)
    return [*facts, *statics, *(e.view() for e in pool.structures)]


def apply_rules(
    pool: EmotionPool,
    board: FactBoard,
    statics: Sequence[Sexpr],
    rules: Sequence[EmotionRule],
    now: float,
) -> EmotionPool:
    structures = list(pool.structures)
    for rule in rules:
        bindings = match_all(
            rule.preconditions, rule_universe(board, statics, EmotionPool(tuple(structures)))
        )
        for binding in bindings:
            for pattern in rule.deletions:
                probe = substitute(pattern, binding)
                structures = [s for s in structures if unify(probe, s.view(), {}) is None]
            for schema in rule.additions:
                new = _instantiate(schema, binding, now)
                if any(_equal(s.view(), new.view()) for s in structures):
                    continue
                structures.append(new)
    return EmotionPool(tuple(structures))
