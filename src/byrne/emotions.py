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

Decay reads the affect once per tick: `decay_pool` computes each structure's
intensity at `now` and keeps the survivors' values on the pool (`levels`), which
the `emotions.trace` lines and behavior activation read in place of decaying
again.

What the load guarantees is not checked again here. The profile loader binds
every cause, target and deletion variable in the rule's preconditions, and
every candidate is ground, so each full binding makes a ground structure. The
clock only advances (`facts.apply_tick`), so `now` never precedes a structure's
`created_at`.
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


def rule_universe(
    board: FactBoard, statics: Iterable[Keyed], pool: EmotionPool
) -> Candidates:
    """What preconditions match against, keyed and indexed: world facts in
    identity order, statics, active emotions."""
    facts = [board.entries[identity].form for identity in sorted(board.entries)]
    return Candidates([*facts, *statics, *(e.matchable for e in pool.structures)])


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
    `match_all` returns nothing otherwise.
    """
    mark = pool.mark
    if mark and mark[1] is statics and mark[2] is rules and mark[0] == board.entries.keys():
        return pool
    structures = list(pool.structures)
    universe = rule_universe(board, statics, pool)
    fixed = len(universe) - len(structures)
    headless = universe.by_shape.get(None, [])
    headless = headless[: len(headless) - len(structures)]  # less the views, its tail
    by_shape, now = universe.by_shape, float(now)
    for rule in rules:
        if not all(map(by_shape.get, rule.shapes)):
            continue
        changed = False
        for binding in match_all(rule.preconditions, universe):
            for pattern in rule.deletions:
                probe = keyed(substitute(pattern, binding))  # once, not per structure
                kept = [s for s in structures if unify(probe, s.matchable, {}) is None]
                if len(kept) < len(structures):
                    structures, changed = kept, True
            for schema in rule.additions:
                target, cause = substitute(schema.target, binding), substitute(schema.cause, binding)
                view = (_TYPE, schema.symbol, _TARGET, target, _CAUSE, cause)
                # `==` holds wherever the matcher's equality does, and fails fast
                if any(view == s.matchable.term and equal(view, s.matchable.term) for s in structures):
                    continue
                structures.append(EmotionStructure(schema.type, schema.intensity, target, cause, schema.decay, now))
                changed = True
        if changed:
            universe[fixed:] = views = [s.matchable for s in structures]
            by_shape[None] = headless + views
    # `is`, not `==`: `==` holds between Symbol("a") and "a", and between 1 and 1.0
    if len(structures) == len(pool.structures) and all(map(is_, structures, pool.structures)):
        return EmotionPool(pool.structures, (frozenset(board.entries), statics, rules))
    return EmotionPool(tuple(structures))


def decay_pool(pool: EmotionPool, now: float) -> EmotionPool:
    """Drop every structure whose effective intensity has sunk below one, and
    keep the survivors' intensities at `now` as the pool's `levels`.

    Each structure's intensity is computed once. When none drops, the pool
    keeps the input's `structures` and `mark` objects, so the mark holds on
    the next tick's `apply_rules`.
    """
    structures = pool.structures
    if not structures and pool.levels is not None:
        return pool  # no intensity for `now` to change
    levels = [intensity_at(s, now) for s in structures]
    if all(v >= 1.0 for v in levels):
        return EmotionPool(structures, pool.mark, tuple(levels))
    kept = [i for i, v in enumerate(levels) if v >= 1.0]
    return EmotionPool(tuple([structures[i] for i in kept]), None, tuple([levels[i] for i in kept]))
