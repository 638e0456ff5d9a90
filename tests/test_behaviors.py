from __future__ import annotations

from dataclasses import replace
from random import Random

import hypothesis.strategies as st
import oracle_behaviors
import pytest
from hypothesis import given, settings

from byrne.behaviors import (
    ActivatedBehavior,
    BehaviorError,
    BehaviorSpec,
    MotivationPattern,
    activate_behaviors,
    bind_statics,
    arbitrate,
    expand,
    leaf_directives,
)
from byrne.emotions import DecayFunction, EmotionPool, EmotionStructure, decay_pool, intensity_at
from byrne.errors import ByrneError
from byrne.profile import CharacterProfile
from byrne.patterns import keyed
from byrne.seeml import EVERY_PHRASE, UTTERANCE, at_point, word_trigger
from byrne.sexpr import Symbol, read_one
from corpus import markup

CONSTANT = DecayFunction("constant")


def emotion(etype: str, intensity: float, target: str | None = None) -> EmotionStructure:
    cause = read_one(f"(felt about: {target or 'nothing'} strength: {intensity:g})")
    return EmotionStructure(etype, intensity, Symbol(target or "nil"), cause, CONSTANT, 0.0)


def levels_at(pool: EmotionPool, now: float) -> list[float]:
    """The intensities `activate_behaviors` reads, as `decay_pool` keeps them."""
    return [intensity_at(e, now) for e in pool.structures]


def expansion(root: BehaviorSpec, specs: list[BehaviorSpec]) -> tuple:
    """`root`'s directives as the replay gets a winner's: walked to its leaves
    when the profile is built, then joined by `expand`."""
    leaves = leaf_directives(root, {s.id: s for s in specs})
    return expand([ActivatedBehavior(root, 1.0, leaves)])


def leaf(bid: str, group: str, *motivations: str, **kwargs) -> BehaviorSpec:
    return BehaviorSpec(
        id=bid,
        group=group,
        motivated_by=tuple(MotivationPattern(m) for m in motivations),
        directives=kwargs.pop("directives", (markup("EXPR", UTTERANCE, NAME="smile", LEVEL="0.8"),)),
        **kwargs,
    )


class TestActivation:
    def test_empty_pool_activates_nothing(self):
        specs = [leaf("beam", "face", "happiness")]
        assert activate_behaviors(bind_statics(specs, []), EmotionPool(), []) == []

    def test_single_emotion_activation_level(self):
        specs = [leaf("beam", "face", "happiness")]
        pool = EmotionPool((emotion("happiness", 8),))
        (activated,) = activate_behaviors(bind_statics(specs, []), pool, levels_at(pool, 0.0))
        assert activated.activation == 8.0
        # powers of two: any other motivating set would sum to another total
        pool = EmotionPool((emotion("anger", 1), emotion("happiness", 8), emotion("interest", 2)))
        (activated,) = activate_behaviors(bind_statics(specs, []), pool, levels_at(pool, 0.0))
        assert activated.activation == 8.0
        assert activated.leaves == specs[0].directives

    def test_two_weak_emotions_beat_one_strong(self):
        specs = [leaf("glow", "face", "happiness", "interest"), leaf("rage", "face", "anger")]
        pool = EmotionPool(
            (emotion("happiness", 4), emotion("interest", 5), emotion("anger", 8))
        )
        winners = arbitrate(activate_behaviors(bind_statics(specs, []), pool, levels_at(pool, 0.0)))
        assert [w.spec.id for w in winners] == ["glow"]
        assert winners[0].activation == 9.0

    def test_every_motivation_pattern_must_match(self):
        specs = [leaf("glow", "face", "happiness", "interest")]
        pool = EmotionPool((emotion("happiness", 9),))
        assert activate_behaviors(bind_statics(specs, []), pool, levels_at(pool, 0.0)) == []

    def test_static_preconditions_gate_activation(self):
        spec = leaf("beam", "face", "happiness", preconditions=(keyed(read_one("(supports team: ?t)")),))
        pool = EmotionPool((emotion("happiness", 8),))
        assert activate_behaviors(bind_statics([spec], []), pool, levels_at(pool, 0.0)) == []
        statics = [keyed(read_one("(supports team: a)"))]
        assert len(activate_behaviors(bind_statics([spec], statics), pool, levels_at(pool, 0.0))) == 1

    def test_target_pattern_filters_structures(self):
        spec = BehaviorSpec(
            id="glare",
            group="face",
            motivated_by=(MotivationPattern("anger", Symbol("b2")),),
            directives=(markup("AU", UTTERANCE, NUM="4", LEVEL="0.7"),),
        )
        miss = EmotionPool((emotion("anger", 7, "b1"),))
        hit = EmotionPool((emotion("anger", 7, "b2"),))
        assert activate_behaviors(bind_statics([spec], []), miss, levels_at(miss, 0.0)) == []
        (activated,) = activate_behaviors(bind_statics([spec], []), hit, levels_at(hit, 0.0))
        assert activated.activation == 7.0

    def test_expansion_only_nodes_do_not_self_activate(self):
        spec = BehaviorSpec(id="limb", group="parts", directives=(markup("AURAL", at_point("end"), NAME="cheer"),))
        pool = EmotionPool((emotion("happiness", 9),))
        assert activate_behaviors(bind_statics([spec], []), pool, levels_at(pool, 0.0)) == []

    def test_activation_sums_all_matching_structures(self):
        specs = [leaf("hype", "voice", "interest")]
        pool = EmotionPool((emotion("interest", 3, "a1"), emotion("interest", 4, "a2")))
        (activated,) = activate_behaviors(bind_statics(specs, []), pool, levels_at(pool, 0.0))
        assert activated.activation == 7.0

    def test_activation_sums_in_pattern_then_pool_order(self):
        spec = BehaviorSpec(
            id="hype", group="voice",
            motivated_by=(MotivationPattern("interest", Symbol("a2")), MotivationPattern("interest")),
            directives=(markup("VOLUME", UTTERANCE, LEVEL="+20%"),),
        )
        pool = EmotionPool((emotion("interest", 1.1, "a1"), emotion("interest", 3.3, "a3"), emotion("interest", 2.2, "a2")))
        (activated,) = activate_behaviors(bind_statics([spec], []), pool, levels_at(pool, 0.0))
        # a2 first, then the rest in pool order; pool order alone would round to 6.6000000000000005
        assert activated.activation == (2.2 + 1.1) + 3.3 == 6.6


# Activation against the reference scan: a few types, so types repeat; nil,
# symbol, quoted and numeric targets, where 1 and 1.0 make structures that are
# `==` but not the same view; intensities that sit on the drop line at `now`.
TYPES = ["fear", "anger", "interest"]
TARGETS = [Symbol("nil"), Symbol("a1"), Symbol("a2"), "a1", 1, 1.0]
TARGET_PATTERNS = [None, Symbol("a1"), Symbol("?p"), 1.0, Symbol("?x")]
STATICS = [keyed(read_one(text)) for text in ("(player id: a1)", "(player id: a2)", "(side team: b)")]
STATIC_PRECONDITIONS = [keyed(read_one(text)) for text in ("(player id: ?p)", "(side team: ?t)", "(side team: a)")]
DECAYS = [
    DecayFunction("constant"),
    DecayFunction("reciprocal"),
    DecayFunction("linear", 0.25),
    DecayFunction("exponential", 0.1),
]
NOW = 4.0


@st.composite
def emotion_structures(draw) -> EmotionStructure:
    decay = draw(st.sampled_from(DECAYS))
    created = draw(st.sampled_from([0.0, 1.0, 3.0, NOW]))
    # 1 / decay.value puts the structure on the drop line at NOW, the next two either side;
    # arbitrary bases make sums whose rounding depends on their order
    edge = 1.0 / decay.value(NOW - created) if decay.value(NOW - created) > 0 else 1.0
    near = st.sampled_from([edge, edge * (1 - 2**-52), edge * (1 + 2**-52)])
    base = draw(st.one_of(near, st.floats(min_value=1.0, max_value=10.0)))
    cause = read_one(f"(felt n: {draw(st.integers(0, 2))})")
    return EmotionStructure(draw(st.sampled_from(TYPES)), base, draw(st.sampled_from(TARGETS)), cause, decay, created)


@st.composite
def pools(draw) -> EmotionPool:
    structures = draw(st.lists(emotion_structures(), max_size=8))
    if structures and draw(st.booleans()):
        # the same object twice, an `==` copy, or a copy whose number target is retyped
        twin, kind = draw(st.sampled_from(structures)), draw(st.sampled_from(["same", "copy", "retyped"]))
        if kind == "copy":
            twin = replace(twin)
        elif kind == "retyped" and isinstance(twin.target, (int, float)):
            twin = replace(twin, target=1.0 if isinstance(twin.target, int) else 1)
        structures.insert(draw(st.integers(0, len(structures))), twin)
    return EmotionPool(tuple(structures))


@st.composite
def behavior_specs(draw) -> list[BehaviorSpec]:
    """Motivated specs in two groups, half of them expanding to shared leaves."""
    leaves = [
        BehaviorSpec(id=f"leaf{i}", group="parts", directives=(markup("AU", UTTERANCE, NUM=str(i + 1), LEVEL="0.5"),))
        for i in range(3)
    ]
    specs = []
    for i in range(draw(st.integers(1, 6))):
        motivated_by = tuple(
            MotivationPattern(draw(st.sampled_from(TYPES)), draw(st.sampled_from(TARGET_PATTERNS)))
            for _ in range(draw(st.integers(1, 3)))
        )
        preconditions = tuple(draw(st.lists(st.sampled_from(STATIC_PRECONDITIONS), max_size=2)))
        own = {}
        if draw(st.booleans()):
            own["children"] = tuple(draw(st.lists(st.sampled_from([s.id for s in leaves]), min_size=1, max_size=3)))
        else:
            own["directives"] = (markup("AU", UTTERANCE, NUM=str(10 + i), LEVEL="0.5"),)
        group = draw(st.sampled_from("pq"))
        specs.append(BehaviorSpec(f"b{i}", group, motivated_by, preconditions, **own))
    return specs + leaves


class TestActivationAgainstTheScan:
    @settings(max_examples=400, deadline=None)
    @given(pools(), behavior_specs())
    def test_winners_and_directives_equal_the_reference(self, pool, specs):
        bound = bind_statics(specs, STATICS)
        decayed, reference = decay_pool(pool, NOW), oracle_behaviors.decay_pool(pool, NOW)
        assert len(decayed.structures) == len(reference.structures)
        assert all(map(lambda a, b: a is b, decayed.structures, reference.structures))

        activated = activate_behaviors(bound, decayed, decayed.levels)
        scanned = oracle_behaviors.activate_behaviors([(s, b) for s, b, _ in bound], reference, NOW)
        assert [(a.spec, a.activation) for a in activated] == [(a.spec, a.activation) for a in scanned]
        winners, reference_winners = arbitrate(activated), arbitrate(scanned)
        assert [(w.spec, w.activation) for w in winners] == [(w.spec, w.activation) for w in reference_winners]
        assert expand(winners) == tuple(oracle_behaviors.expand(reference_winners, specs))


class TestArbitrate:
    def test_same_group_highest_wins(self):
        a = ActivatedBehavior(leaf("loud", "voice", "anger"), 8.0, ())
        b = ActivatedBehavior(leaf("soft", "voice", "sadness"), 3.0, ())
        assert [w.spec.id for w in arbitrate([a, b])] == ["loud"]

    def test_singleton(self):
        a = ActivatedBehavior(leaf("only", "face", "fear"), 2.0, ())
        assert arbitrate([a]) == [a]

    def test_distinct_groups_all_survive(self):
        smile = ActivatedBehavior(leaf("smile", "face", "happiness"), 5.0, ())
        pitch = ActivatedBehavior(leaf("pitch-up", "voice", "interest"), 4.0, ())
        assert {w.spec.id for w in arbitrate([smile, pitch])} == {"smile", "pitch-up"}

    def test_tie_breaks_lexicographically(self):
        a = ActivatedBehavior(leaf("zeta", "face", "fear"), 5.0, ())
        b = ActivatedBehavior(leaf("alpha", "face", "fear"), 5.0, ())
        assert [w.spec.id for w in arbitrate([a, b])] == ["alpha"]

    def test_random_sets_per_group_winner_uniqueness_and_maximum(self):
        rng = Random(11)
        for _ in range(200):
            activated = [
                ActivatedBehavior(
                    leaf(f"b{i}", rng.choice("pqr"), "fear"), rng.uniform(0.1, 10), ()
                )
                for i in range(rng.randrange(1, 12))
            ]
            winners = arbitrate(activated)
            groups = [w.spec.group for w in winners]
            assert len(groups) == len(set(groups))
            for w in winners:
                peers = [a.activation for a in activated if a.spec.group == w.spec.group]
                assert w.activation == max(peers)

    def test_scaling_argmax_invariance(self):
        rng = Random(29)
        for _ in range(100):
            activated = [
                ActivatedBehavior(
                    leaf(f"b{i}", rng.choice("pq"), "fear"), rng.uniform(0.1, 10), ()
                )
                for i in range(rng.randrange(1, 8))
            ]
            scale = rng.uniform(0.01, 50)
            scaled = [
                ActivatedBehavior(a.spec, a.activation * scale, a.leaves) for a in activated
            ]
            assert [w.spec.id for w in arbitrate(activated)] == [
                w.spec.id for w in arbitrate(scaled)
            ]


class TestExpand:
    def test_leaf_directives_pass_through(self):
        smile = markup("EXPR", UTTERANCE, NAME="smile", LEVEL="0.8")
        spec = BehaviorSpec(id="beam", group="face", directives=(smile,))
        assert expansion(spec, [spec]) == (smile,)

    def test_internal_node_concatenates_children_in_order(self):
        d1 = markup("VOLUME", UTTERANCE, LEVEL="+20%")
        d2 = markup("AU", UTTERANCE, NUM="4", LEVEL="0.7")
        d3 = markup("AU", EVERY_PHRASE, NUM="9", LEVEL="0.4")
        voice = BehaviorSpec(id="fume-voice", group="vp", directives=(d1,))
        face = BehaviorSpec(id="fume-face", group="fp", directives=(d2, d3))
        root = BehaviorSpec(
            id="fume", group="voice", motivated_by=(MotivationPattern("anger"),),
            children=("fume-voice", "fume-face"),
        )
        specs = [root, voice, face]
        assert expansion(root, specs) == (d1, d2, d3)
        # the profile keeps the walk's leaves beside the spec's static bindings
        ((spec, _, leaves),) = bind_statics(specs, [])
        assert spec is root and leaves == (d1, d2, d3)

    def test_character_quirk_expands_to_word_scoped_au(self):
        quirk = markup("AU", word_trigger("Kirk"), NUM="4", LEVEL="0.6")
        spec = BehaviorSpec(
            id="doubt", group="quirk", motivated_by=(MotivationPattern("surprise"),),
            directives=(quirk,),
        )
        (directive,) = expansion(spec, [spec])
        assert directive.mark.attr("NUM") == "4" and directive.mark.attr("LEVEL") == "0.6"
        assert directive.scope.kind == "word" and directive.scope.word == "Kirk"

    def test_dangling_child_raises(self):
        root = BehaviorSpec(id="root", group="g", children=("ghost",))
        with pytest.raises(BehaviorError, match="ghost"):
            bind_statics([root], [])

    def test_cycle_raises_rather_than_looping(self):
        a = BehaviorSpec(id="a", group="g", children=("b",))
        b = BehaviorSpec(id="b", group="g", children=("a",))
        with pytest.raises(BehaviorError, match="cycle"):
            bind_statics([a, b], [])

    def test_a_hand_built_profile_with_a_cycle_raises_where_it_is_built(self):
        # the replay's `expand` only joins leaves, so the graph is checked here, once
        a = BehaviorSpec(id="a", group="g", motivated_by=(MotivationPattern("fear"),), children=("b",))
        b = BehaviorSpec(id="b", group="g", children=("a",))
        with pytest.raises(ByrneError, match="^behavior cycle involving 'a', 'b'$") as err:
            CharacterProfile(behaviors=(a, b))
        assert isinstance(err.value, BehaviorError)

    def test_duplicate_directives_preserved(self):
        d = markup("AU", UTTERANCE, NUM="12", LEVEL="0.5")
        child = BehaviorSpec(id="kid", group="k", directives=(d,))
        root = BehaviorSpec(id="root", group="g", children=("kid", "kid"))
        assert expansion(root, [root, child]) == (d, d)
