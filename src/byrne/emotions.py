"""Emotion pool upkeep: rule firing, intensity decay, removal.

Structures carry a base intensity on the 1-10 scale and a decay curve over
elapsed seconds. There are exactly two ways out of the pool: a rule's deletion
pattern, or effective intensity sinking below one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import ByrneError
from .facts import FactBoard
from .patterns import Binding, Form, Keyed, equal, is_ground, keyed, match_all, substitute, unify
from .sexpr import Sexpr, Symbol, kw, to_text

EMOTION_TYPES = ("fear", "anger", "sadness", "happiness", "disgust", "surprise", "interest")

NIL = Symbol("nil")


class ClockError(ByrneError):
    pass


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
        t = max(1.0, t)
        if self.kind == "reciprocal":
            v = 1.0 / t
        elif self.kind == "exponential":
            v = math.exp(-self.rate * (t - 1.0))
        elif self.kind == "linear":
            v = 1.0 - self.rate * (t - 1.0)
        elif self.kind == "constant":
            v = 1.0
        else:
            raise RuleError(f"unknown decay form '{self.kind}'")
        return min(1.0, max(0.0, v))

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
    target: Optional[Sexpr]
    cause: Sexpr
    decay: DecayFunction
    created_at: float

    def view(self) -> tuple:
        """Matchable projection: type, target, and cause only."""
        target = self.target if self.target is not None else NIL
        return (kw("type"), Symbol(self.type), kw("target"), target, kw("cause"), self.cause)

    @cached_property
    def matchable(self) -> Form:
        """The keyed form of `view()`, built once per structure."""
        return keyed(self.view())


def intensity_at(e: EmotionStructure, now: float) -> float:
    if now < e.created_at:
        raise ClockError(f"clock {now:g} precedes creation at {e.created_at:g}")
    return e.base_intensity * e.decay.value(max(1.0, now - e.created_at))


@dataclass(frozen=True)
class EmotionSchema:
    """Addition template inside a rule; target and cause may mention rule variables."""

    type: str
    intensity: float
    target: Optional[Sexpr]
    cause: Sexpr
    decay: DecayFunction


@dataclass(frozen=True)
class EmotionRule:
    preconditions: tuple[Keyed, ...]
    additions: tuple[EmotionSchema, ...] = ()
    # Kept raw and substituted per binding: a substituted subterm matches by
    # keyword subset, where a bound variable would need exact equality.
    deletions: tuple[Sexpr, ...] = ()


@dataclass(frozen=True)
class EmotionPool:
    structures: tuple[EmotionStructure, ...] = ()


def rule_universe(
    board: FactBoard, statics: Iterable[Keyed], pool: EmotionPool
) -> list[Keyed]:
    """What preconditions match against, keyed: world facts in identity order,
    statics, active emotions."""
    facts = [board.keyed[identity] for identity in sorted(board.keyed)]
    return [*facts, *statics, *(e.matchable for e in pool.structures)]


def _instantiate(schema: EmotionSchema, binding: Binding, now: float) -> EmotionStructure:
    target = None
    if schema.target is not None:
        t = substitute(schema.target, binding)
        target = None if t == NIL and isinstance(t, Symbol) else t
    cause = substitute(schema.cause, binding)
    if not is_ground(cause) or (target is not None and not is_ground(target)):
        raise RuleError(f"emotion cause/target not ground after binding: {to_text(cause)}")
    return EmotionStructure(schema.type, schema.intensity, target, cause, schema.decay, float(now))


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
    matcher compares terms. The universe is built once per call; only its
    emotion tail follows the pool from rule to rule.
    """
    structures = list(pool.structures)
    universe = rule_universe(board, statics, pool)
    fixed = len(universe) - len(structures)
    for rule in rules:
        bindings = match_all(rule.preconditions, universe)
        for binding in bindings:
            for pattern in rule.deletions:
                probe = keyed(substitute(pattern, binding))  # once, not per structure
                structures = [s for s in structures if unify(probe, s.matchable, {}) is None]
            for schema in rule.additions:
                new = _instantiate(schema, binding, now)
                view = new.view()
                # `==` holds wherever the matcher's equality does, and fails fast
                if any(view == s.matchable.term and equal(view, s.matchable.term) for s in structures):
                    continue
                structures.append(new)
        if bindings:
            universe[fixed:] = [s.matchable for s in structures]
    return EmotionPool(tuple(structures))


def decay_pool(pool: EmotionPool, now: float) -> EmotionPool:
    """Drop every structure whose effective intensity has sunk below one."""
    return EmotionPool(tuple(s for s in pool.structures if intensity_at(s, now) >= 1.0))
