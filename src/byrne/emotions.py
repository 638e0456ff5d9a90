"""Emotion pool upkeep: rule firing, intensity decay, removal.

Structures carry a base intensity on the 1-10 scale and a decay curve over
elapsed seconds. There are exactly two ways out of the pool: a rule's deletion
pattern, or effective intensity sinking below one. A missing target is `nil`.

A firing that changes nothing marks its pool with the board identities, statics
and rules it read; fired over the same identities and the same statics and
rules objects, a marked pool comes back as it is (Rete's skip; Forgy, AI 1982).
That is sound: a firing reads only those (a board term is fixed per identity)
and the pool's views, and `now` only stamps additions.

The same idea works one level down, from a plan each rule and schema derive
once at load. A rule keeps the shape of each precondition that is not a bare
variable (`EmotionRule.shapes`), and one whose shape has no candidate in the
universe cannot bind, so it never reaches the matcher. A binding forms each
addition's view from the schema's type symbol and builds the structure only
when the pool holds no such view. And the universe's views are replaced only
after a rule that added or deleted a structure.

Each rule also remembers its last firing, one entry deep, as Rete's pattern
memory does: the buckets its shapes scanned and, per binding, the keyed
deletion probes and each addition's target, cause and view. The memory rides on
the pool as the mark does (`EmotionPool.memory`) and holds only for the same
statics and rules objects. When each bucket holds the same candidates, by `is`
and in order, the bindings are the same, so the rule takes its remembered plan
instead of the matcher. Only the match is skipped: the deletion and addition
passes run on every binding, since a structure may have decayed out or been
deleted since. A bucket is never edited (the views' bucket is replaced), so the
memory keeps the lists themselves; and as an entry is checked against its own
buckets, a firing replaces entries in the list it read instead of copying it. A
rule with a bare-variable precondition reads the whole universe, which is
edited in place, so it is matched every time. Within a firing the pool is
indexed by type, then by view: an addition looks its view up instead of
scanning the pool, and a deletion probe with a literal type unifies only with
the structures of that type.

Decay reads the affect once per tick: `decay_pool` computes each structure's
intensity at `now` and keeps the survivors' values on the pool (`levels`), which
the `emotions.trace` lines and behavior activation read in place of decaying
again.

What the load guarantees is not checked again here. The profile loader binds
every cause, target and deletion variable in the rule's preconditions, and
every candidate is ground, so each full binding makes a ground structure. The
clock only advances (`facts.apply_tick`), so `now` never precedes a structure's
`created_at`. A number is read only from a finite decimal (`sexpr.atom`), so no
term holds a NaN, and every term is `equal` to itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import is_
from typing import Iterable, Optional, Sequence

from .errors import ByrneError
from .facts import FactBoard
from .patterns import Candidates, Form, Keyed, equal, is_variable, keyed, match_all, shape, substitute, unify
from .sexpr import Sexpr, Symbol, kw, to_text

EMOTION_TYPES = ("fear", "anger", "sadness", "happiness", "disgust", "surprise", "interest")

NIL = Symbol("nil")

_TYPE, _TARGET, _CAUSE = kw("type"), kw("target"), kw("cause")


class RuleError(ByrneError):
    pass


@dataclass(frozen=True)
class DecayFunction:
    """Intensity multiplier over elapsed seconds, clamped to at most 1.

    Evaluation treats the first second as t=1, so every form starts a structure
    at its full base intensity.
    """

    kind: str  # reciprocal | exponential | linear | constant
    rate: float = 0.0

    def value(self, t: float) -> float:
        # with t >= 1 and rate >= 0, 1/t and exp already lie in [0, 1]: only linear needs a floor
        if t < 1.0:
            t = 1.0
        kind = self.kind
        if kind == "reciprocal":
            return 1.0 / t
        if kind == "exponential":
            return math.exp(-self.rate * (t - 1.0))
        if kind == "linear":
            v = 1.0 - self.rate * (t - 1.0)
            return v if v > 0.0 else 0.0
        return 1.0  # constant

    @classmethod
    def from_sexpr(cls, form: Sexpr) -> "DecayFunction":
        if isinstance(form, Symbol):
            if str(form) == "1/t":
                return cls("reciprocal")
            if str(form) == "constant":
                return cls("constant")
        if isinstance(form, tuple) and len(form) == 2 and isinstance(form[0], Symbol):
            head, rate = form
            if str(head) in ("exp", "linear") and isinstance(rate, (int, float)) and rate >= 0:
                return cls("exponential" if str(head) == "exp" else "linear", float(rate))
        raise RuleError(f"unknown decay form {to_text(form)}; use 1/t, constant, (exp k) or (linear k)")


@dataclass(frozen=True)
class EmotionStructure:
    type: str
    base_intensity: float
    target: Sexpr
    cause: Sexpr
    decay: DecayFunction
    created_at: float

    def view(self) -> tuple:
        """Matchable projection: type, target, and cause only."""
        return (_TYPE, Symbol(self.type), _TARGET, self.target, _CAUSE, self.cause)

    @cached_property
    def matchable(self) -> Form:
        """The keyed form of `view()`, built once per structure."""
        return keyed(self.view())

    @cached_property
    def trace_text(self) -> str:
        """Type, target and cause as `emotions.trace` prints them, rendered once."""
        return f"{self.type}\t{to_text(self.target)}\t{to_text(self.cause)}"


def intensity_at(e: EmotionStructure, now: float) -> float:
    return e.base_intensity * e.decay.value(now - e.created_at)


@dataclass(frozen=True)
class EmotionSchema:
    """Addition template inside a rule; target and cause may mention rule variables."""

    type: str
    intensity: float
    target: Sexpr
    cause: Sexpr
    decay: DecayFunction
    # the type as a view holds it, made once
    symbol: Symbol = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbol", Symbol(self.type))


@dataclass(frozen=True)
class EmotionRule:
    preconditions: tuple[Keyed, ...]
    additions: tuple[EmotionSchema, ...] = ()
    # Kept raw and substituted per binding: a substituted subterm matches by
    # keyword subset, where a bound variable would need exact equality.
    deletions: tuple[Sexpr, ...] = ()
    # the shape of each precondition but a bare variable: one with no candidate skips the rule
    shapes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shapes = tuple([shape(keyed(p)) for p in self.preconditions if not is_variable(p)])
        object.__setattr__(self, "shapes", shapes)


@dataclass(frozen=True)
class EmotionPool:
    structures: tuple[EmotionStructure, ...] = ()
    # (board identities, statics, rules) of the firing that left it unchanged
    mark: Optional[tuple] = field(default=None, repr=False, compare=False)
    # each structure's intensity at the tick `decay_pool` read it at, aligned
    # with `structures`; None on a pool that `decay_pool` did not return
    levels: Optional[tuple[float, ...]] = field(default=None, repr=False, compare=False)
    # (statics, rules, per rule: the buckets its shapes last scanned and its plan
    # per binding, or None), passed on by `decay_pool`; None on a hand-built pool.
    # Each firing replaces entries in place: an entry holds for its own buckets
    # whichever pool of the chain reads it.
    memory: Optional[tuple] = field(default=None, repr=False, compare=False)


def rule_universe(
    board: FactBoard, statics: Iterable[Keyed], pool: EmotionPool
) -> Candidates:
    """What preconditions match against, keyed and indexed: world facts in
    identity order, statics, active emotions."""
    facts = [board.entries[identity].form for identity in sorted(board.entries)]
    return Candidates([*facts, *statics, *(e.matchable for e in pool.structures)])


def _indexed(structures: Iterable[EmotionStructure]) -> dict[str, dict[tuple, list[EmotionStructure]]]:
    """The structures by type, then by view term; a view term's list holds
    every structure whose view is `==` to it."""
    index: dict[str, dict[tuple, list[EmotionStructure]]] = {}
    for s in structures:
        index.setdefault(s.type, {}).setdefault(s.matchable.term, []).append(s)
    return index


def _plan(rule: EmotionRule, universe: Candidates) -> list:
    """Per binding of `rule`, in `match_all`'s order: each deletion's keyed probe
    with its literal type (None when it has none), and each addition's schema
    with its substituted target, cause and view. Not edited once made."""
    plan = []
    for binding in match_all(rule.preconditions, universe):
        probes = []
        for pattern in rule.deletions:
            probe = keyed(substitute(pattern, binding))
            kind = probe.pairs.get("type") if isinstance(probe, Form) and probe.pairs is not None else None
            probes.append((probe, kind if isinstance(kind, Symbol) else None))
        adds = []
        for schema in rule.additions:
            target, cause = substitute(schema.target, binding), substitute(schema.cause, binding)
            adds.append((schema, target, cause, (_TYPE, schema.symbol, _TARGET, target, _CAUSE, cause)))
        plan.append((probes, adds))
    return plan


def _same_candidates(scanned: tuple, buckets: tuple) -> bool:
    """Whether each bucket holds the scanned one's candidates, the same
    objects (`is`) in the same order."""
    for old, new in zip(scanned, buckets):
        if len(old) != len(new) or not all(map(is_, old, new)):
            return False
    return True


def apply_rules(
    pool: EmotionPool,
    board: FactBoard,
    statics: Sequence[Keyed],
    rules: Sequence[EmotionRule],
    now: float,
) -> EmotionPool:
    """Fire every rule in profile order: deletions, then additions, per binding.

    Re-firing is idempotent: a structure is not added when the pool already
    holds one with the same view (type, target, and cause), compared as the
    matcher compares terms. The view is formed from the substituted target and
    cause first, and the structure is built only when it is new. The universe
    is indexed by shape once per call; only its views, all headless, follow the
    pool, replaced after each rule that added or deleted a structure. A rule
    goes to the matcher only when each of its `shapes` has a candidate, since
    `match_all` returns nothing otherwise, and only when a bucket holds other
    candidates than when its remembered plan was made; the passes run either
    way. The returned pool carries each rule's plan in its `memory`.
    """
    # the mark and the memory hold for the same objects only; a tuple is its own
    # tuple, and a list, which its caller may edit in place, is never reused
    statics, rules = tuple(statics), tuple(rules)
    mark = pool.mark
    if mark and mark[1] is statics and mark[2] is rules and mark[0] == board.entries.keys():
        return pool
    memory = pool.memory
    if not (memory and memory[0] is statics and memory[1] is rules):
        memory = (statics, rules, [None] * len(rules))
    plans = memory[2]
    structures = list(pool.structures)
    index = None  # `_indexed(structures)`, built when first read
    universe = rule_universe(board, statics, pool)
    fixed = len(universe) - len(structures)
    headless = universe.by_shape.get(None, [])
    headless = headless[: len(headless) - len(structures)]  # less the views, its tail
    by_shape, now = universe.by_shape, float(now)
    for i, rule in enumerate(rules):
        if not all(map(by_shape.get, rule.shapes)):
            continue
        buckets, entry = tuple(map(by_shape.get, rule.shapes)), plans[i]
        if entry is None or not _same_candidates(entry[0], buckets):
            entry = (buckets, _plan(rule, universe))
            # a bare variable scans the whole universe, whose views change in place: never recalled
            if len(buckets) == len(rule.preconditions):
                plans[i] = entry
        changed = False
        for probes, adds in entry[1]:
            for probe, kind in probes:
                scanned = structures
                if kind is not None:  # only structures of that type can unify
                    if index is None:
                        index = _indexed(structures)
                    typed = index.get(kind)
                    scanned = [s for views in typed.values() for s in views] if typed else ()
                doomed = {id(s) for s in scanned if unify(probe, s.matchable, {}) is not None}
                if doomed:
                    structures = [s for s in structures if id(s) not in doomed]
                    index, changed = None, True
            for schema, target, cause, view in adds:
                if index is None:
                    index = _indexed(structures)
                views = index.setdefault(schema.type, {})
                # the dict finds the views `==` to this one, and `equal` holds only among
                # those; it holds on the same objects, which a recalled plan's structure has
                held = views.get(view)
                if held is None:
                    held = views[view] = []
                elif any((s.target is target and s.cause is cause) or equal(view, s.matchable.term) for s in held):
                    continue
                added = EmotionStructure(schema.type, schema.intensity, target, cause, schema.decay, now)
                structures.append(added)
                held.append(added)
                changed = True
        if changed:
            universe[fixed:] = matchable = [s.matchable for s in structures]
            by_shape[None] = headless + matchable
    # `is`, not `==`: `==` holds between Symbol("a") and "a", and between 1 and 1.0
    if len(structures) == len(pool.structures) and all(map(is_, structures, pool.structures)):
        return EmotionPool(pool.structures, (frozenset(board.entries), statics, rules), None, memory)
    return EmotionPool(tuple(structures), None, None, memory)


def decay_pool(pool: EmotionPool, now: float) -> EmotionPool:
    """Drop every structure whose effective intensity has sunk below one, and
    keep the survivors' intensities at `now` as the pool's `levels`.

    Each structure's intensity is computed once. When none drops, the pool
    keeps the input's `structures` and `mark` objects, so the mark holds on
    the next tick's `apply_rules`. The rules' `memory` passes on either way.
    """
    structures = pool.structures
    if not structures and pool.levels is not None:
        return pool  # no intensity for `now` to change
    levels = [intensity_at(s, now) for s in structures]
    if not levels or min(levels) >= 1.0:
        return EmotionPool(structures, pool.mark, tuple(levels), pool.memory)
    kept = [i for i, v in enumerate(levels) if v >= 1.0]
    return EmotionPool(tuple([structures[i] for i in kept]), None, tuple([levels[i] for i in kept]), pool.memory)
