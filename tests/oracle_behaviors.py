"""Reference decay and behavior selection, for equivalence tests.

This is how byrne decayed the pool and picked behaviors before it read the
affect once per tick: `value` clamps every decay form into [0, 1],
`decay_pool` and the emotion trace each evaluated the intensities again, and
`activate_behaviors` scanned the whole pool per motivation pattern and decayed
each motivating structure once more. `expand` walked the behavior graph from
every winner on every utterance. They are kept verbatim in behaviour, so the
one-read path in byrne can be checked against them; `activate_with_levels` is
the scan adapted to byrne's signature, so a replay can run it in place of
`behaviors.activate_behaviors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from byrne import behaviors
from byrne.behaviors import BehaviorError, BehaviorSpec, BoundSpec, _target_matches
from byrne.emotions import EmotionPool, EmotionStructure
from byrne.seeml import Directive


def value(self, t: float) -> float:
    """`DecayFunction.value`, clamped: it takes the decay function as `self`."""
    t = max(1.0, t)
    if self.kind == "reciprocal":
        v = 1.0 / t
    elif self.kind == "exponential":
        v = math.exp(-self.rate * (t - 1.0))
    elif self.kind == "linear":
        v = 1.0 - self.rate * (t - 1.0)
    else:  # constant
        v = 1.0
    return min(1.0, max(0.0, v))


def intensity_at(e: EmotionStructure, now: float) -> float:
    return e.base_intensity * value(e.decay, now - e.created_at)


def decay_pool(pool: EmotionPool, now: float) -> EmotionPool:
    """Drop every structure whose effective intensity has sunk below one; the same pool if none."""
    kept = tuple(s for s in pool.structures if intensity_at(s, now) >= 1.0)
    return pool if len(kept) == len(pool.structures) else EmotionPool(kept)


@dataclass(frozen=True)
class ActivatedBehavior:
    spec: BehaviorSpec
    activation: float
    motivating: tuple[EmotionStructure, ...]


def activate_behaviors(bound, pool: EmotionPool, now: float) -> list[ActivatedBehavior]:
    """Specs (`(spec, static bindings)` pairs) whose every motivation pattern
    matches at least one pool structure; activation sums the matched intensities."""
    out: list[ActivatedBehavior] = []
    for spec, static_bindings in bound:
        motivating: list[EmotionStructure] = []
        satisfied = True
        for pattern in spec.motivated_by:
            matched = [
                e
                for e in pool.structures
                if e.type == pattern.emotion_type
                and (pattern.target is None or _target_matches(pattern.target, e, static_bindings))
            ]
            if not matched:
                satisfied = False
                break
            for e in matched:
                if e not in motivating:
                    motivating.append(e)
        if not satisfied:
            continue
        activation = sum(intensity_at(e, now) for e in motivating)
        out.append(ActivatedBehavior(spec, activation, tuple(motivating)))
    return out


def activate_with_levels(
    bound: Sequence[BoundSpec], pool: EmotionPool, levels: Sequence[float]
) -> list[behaviors.ActivatedBehavior]:
    """`activate_behaviors` over byrne's bound specs, summing each motivating
    structure's entry in `levels` where the scan above decays it."""
    level = {id(e): v for e, v in zip(pool.structures, levels)}
    out: list[behaviors.ActivatedBehavior] = []
    for spec, static_bindings, leaves in bound:
        motivating: list[EmotionStructure] = []
        satisfied = True
        for pattern in spec.motivated_by:
            matched = [
                e
                for e in pool.structures
                if e.type == pattern.emotion_type
                and (pattern.target is None or _target_matches(pattern.target, e, static_bindings))
            ]
            if not matched:
                satisfied = False
                break
            for e in matched:
                if e not in motivating:
                    motivating.append(e)
        if not satisfied:
            continue
        activation = sum(level[id(e)] for e in motivating)
        out.append(behaviors.ActivatedBehavior(spec, activation, leaves))
    return out


def expand(winners: Sequence[ActivatedBehavior], specs: Sequence[BehaviorSpec]) -> list[Directive]:
    """Depth-first expansion of each winner to its leaf directives, in spec order."""
    index = {s.id: s for s in specs}
    out: list[Directive] = []

    def walk(spec: BehaviorSpec, path: tuple[str, ...]) -> None:
        if spec.id in path:
            # named by its sorted members, so every entry point reports one message
            members = "', '".join(sorted(path[path.index(spec.id) :]))
            raise BehaviorError(f"behavior cycle involving '{members}'")
        if spec.directives:
            out.extend(spec.directives)
            return
        for child_id in spec.children:
            child = index.get(child_id)
            if child is None:
                raise BehaviorError(f"behavior '{spec.id}' expands to unknown child '{child_id}'")
            walk(child, path + (spec.id,))

    for winner in winners:
        walk(winner.spec, ())
    return out
