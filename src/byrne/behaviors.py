"""Emotion-expressing behaviors: activation, per-group arbitration, expansion.

Behaviors in the same group are mutually inconsistent, so only the strongest
activation in each group is performed; behaviors in different groups all run,
which is how mixed expressions (a smile plus a raised pitch) come about. A
behavior motivated by several emotions sums their intensities, letting a broad
mood beat one strong feeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .emotions import EmotionPool, EmotionStructure, intensity_at
from .errors import ByrneError
from .patterns import Binding, Candidates, Keyed, match_all, unify
from .seeml import Directive


class BehaviorError(ByrneError):
    pass


@dataclass(frozen=True)
class MotivationPattern:
    emotion_type: str
    target: Keyed | None = None


@dataclass(frozen=True)
class BehaviorSpec:
    """Node in the behavior hierarchy: either an expansion (children) or a leaf (directives).

    A spec with no motivation patterns never activates on its own; it exists to
    be expanded by a parent.
    """

    id: str
    group: str
    motivated_by: tuple[MotivationPattern, ...] = ()
    preconditions: tuple[Keyed, ...] = ()
    children: tuple[str, ...] = ()
    directives: tuple[Directive, ...] = ()


@dataclass(frozen=True)
class ActivatedBehavior:
    spec: BehaviorSpec
    activation: float
    motivating: tuple[EmotionStructure, ...]


# A spec that can activate, with the bindings under which its static preconditions hold.
BoundSpec = tuple[BehaviorSpec, tuple[Binding, ...]]


def bind_statics(specs: Iterable[BehaviorSpec], statics: Iterable[Keyed]) -> tuple[BoundSpec, ...]:
    """The motivated specs whose static preconditions hold over the keyed
    statics, with their bindings.

    This depends on the profile alone, so it is computed once when the profile
    is built rather than on every utterance.
    """
    statics = Candidates(statics)
    out: list[BoundSpec] = []
    for spec in specs:
        if not spec.motivated_by:
            continue
        static_bindings = match_all(spec.preconditions, statics)
        if static_bindings:
            out.append((spec, tuple(static_bindings)))
    return tuple(out)


def _target_matches(pattern: Keyed, structure: EmotionStructure, static_bindings) -> bool:
    actual = structure.matchable.pairs["target"]  # the keyed target, nil when absent
    return any(unify(pattern, actual, b) is not None for b in static_bindings)


def activate_behaviors(
    bound: Sequence[BoundSpec], pool: EmotionPool, now: float
) -> list[ActivatedBehavior]:
    """Specs (from `bind_statics`) whose every motivation pattern matches at
    least one pool structure; activation sums the matched intensities."""
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


def arbitrate(activated: Sequence[ActivatedBehavior]) -> list[ActivatedBehavior]:
    """Keep the highest activation per group; ties go to the smallest spec id."""
    winners: dict[str, ActivatedBehavior] = {}
    for a in activated:
        best = winners.get(a.spec.group)
        if best is None or (-a.activation, a.spec.id) < (-best.activation, best.spec.id):
            winners[a.spec.group] = a
    return list(winners.values())


def expand(
    winners: Sequence[ActivatedBehavior], specs: Sequence[BehaviorSpec]
) -> list[Directive]:
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
