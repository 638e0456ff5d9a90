"""Emotion-expressing behaviors: activation, per-group arbitration, expansion.

Behaviors in the same group are mutually inconsistent, so only the strongest
activation in each group is performed; behaviors in different groups all run,
which is how mixed expressions (a smile plus a raised pitch) come about. A
behavior motivated by several emotions sums their intensities, letting a broad
mood beat one strong feeling.

Which directives a spec expands to depends on the profile alone, so each
spec is walked to its leaf directives (`leaf_directives`) when the profile is
built (`bind_statics`). That walk is the one place a cycle or a dangling child
is found, and `expand` only joins the winners' leaves. Activation reads each
structure's intensity from the decayed pool's `levels` rather than decaying it
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .emotions import EmotionPool, EmotionStructure
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
    leaves: tuple[Directive, ...]  # the spec's leaf directives (`leaf_directives`)


# A spec that can activate, with the bindings under which its static
# preconditions hold and its leaf directives.
BoundSpec = tuple[BehaviorSpec, tuple[Binding, ...], tuple[Directive, ...]]


def leaf_directives(
    spec: BehaviorSpec, index: Mapping[str, BehaviorSpec], path: tuple[str, ...] = ()
) -> tuple[Directive, ...]:
    """Depth-first expansion of `spec` to its leaf directives, children in
    order, looking child ids up in `index`; raises BehaviorError on a cycle or
    a child `index` lacks."""
    if spec.id in path:
        # named by its sorted members, so every entry point reports one message
        members = "', '".join(sorted(path[path.index(spec.id) :]))
        raise BehaviorError(f"behavior cycle involving '{members}'")
    if spec.directives:
        return spec.directives
    out: list[Directive] = []
    for child_id in spec.children:
        child = index.get(child_id)
        if child is None:
            raise BehaviorError(f"behavior '{spec.id}' expands to unknown child '{child_id}'")
        out.extend(leaf_directives(child, index, path + (spec.id,)))
    return tuple(out)


def bind_statics(specs: Iterable[BehaviorSpec], statics: Iterable[Keyed]) -> tuple[BoundSpec, ...]:
    """The motivated specs whose static preconditions hold over the keyed
    statics, with their bindings and leaf directives.

    This depends on the profile alone, so it is computed once when the profile
    is built rather than on every utterance. Every spec is expanded, so a
    cycle or a dangling child anywhere in the graph raises BehaviorError here.
    """
    specs = tuple(specs)
    index = {s.id: s for s in specs}
    expanded = [leaf_directives(s, index) for s in specs]
    statics = Candidates(statics)
    out: list[BoundSpec] = []
    for spec, leaves in zip(specs, expanded):
        if not spec.motivated_by:
            continue
        static_bindings = match_all(spec.preconditions, statics)
        if static_bindings:
            out.append((spec, tuple(static_bindings), leaves))
    return tuple(out)


def _target_matches(pattern: Keyed, structure: EmotionStructure, static_bindings) -> bool:
    actual = structure.matchable.pairs["target"]  # the keyed target, nil when absent
    return any(unify(pattern, actual, b) is not None for b in static_bindings)


def activate_behaviors(
    bound: Sequence[BoundSpec], pool: EmotionPool, levels: Sequence[float]
) -> list[ActivatedBehavior]:
    """Specs (from `bind_statics`) whose every motivation pattern matches at
    least one pool structure; activation sums the matched structures' levels.

    `levels[i]` is the intensity of `pool.structures[i]` at the tick, as
    `decay_pool` keeps them. The pool's positions are indexed by type once per
    call, each with the first position whose structure is `==` to its own, and
    a pattern with a target filters its type's positions. Structures are
    summed in pattern order and then pool order, skipping one `==` to a
    structure already summed: the floats and their order are those of a scan
    of the whole pool per pattern.
    """
    structures = pool.structures
    by_type: dict[str, list[int]] = {}
    first: list[int] = []  # per position, the first position of a structure `==` to its own
    for i, e in enumerate(structures):
        peers = by_type.setdefault(e.type, [])
        first.append(i)
        for j in peers:
            if structures[j] == e:
                first[i] = j
                break
        peers.append(i)
    out: list[ActivatedBehavior] = []
    for spec, static_bindings, leaves in bound:
        motivating: list[int] = []
        amounts: list[float] = []
        for pattern in spec.motivated_by:
            matched = by_type.get(pattern.emotion_type)
            if matched and pattern.target is not None:
                matched = [
                    i for i in matched if _target_matches(pattern.target, structures[i], static_bindings)
                ]
            if not matched:
                break
            for i in matched:
                if first[i] not in motivating:
                    motivating.append(first[i])
                    amounts.append(levels[i])
        else:
            out.append(ActivatedBehavior(spec, sum(amounts), leaves))
    return out


def arbitrate(activated: Sequence[ActivatedBehavior]) -> list[ActivatedBehavior]:
    """Keep the highest activation per group; ties go to the smallest spec id."""
    winners: dict[str, ActivatedBehavior] = {}
    for a in activated:
        best = winners.get(a.spec.group)
        if best is None or (-a.activation, a.spec.id) < (-best.activation, best.spec.id):
            winners[a.spec.group] = a
    return list(winners.values())


def expand(winners: Sequence[ActivatedBehavior]) -> tuple[Directive, ...]:
    """The winners' leaf directives, in winner order."""
    return tuple([d for w in winners for d in w.leaves])
