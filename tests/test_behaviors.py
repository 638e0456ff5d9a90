from __future__ import annotations

from random import Random

import pytest

from byrne.behaviors import (
    ActivatedBehavior,
    BehaviorError,
    BehaviorSpec,
    MotivationPattern,
    activate_behaviors,
    bind_statics,
    arbitrate,
    expand,
)
from byrne.emotions import DecayFunction, EmotionPool, EmotionStructure
from byrne.patterns import keyed
from byrne.seeml import EVERY_PHRASE, UTTERANCE, at_point, word_trigger
from byrne.sexpr import Symbol, read_one
from corpus import markup

CONSTANT = DecayFunction("constant")


def emotion(etype: str, intensity: float, target: str | None = None) -> EmotionStructure:
    cause = read_one(f"(felt about: {target or 'nothing'} strength: {intensity:g})")
    return EmotionStructure(etype, intensity, Symbol(target or "nil"), cause, CONSTANT, 0.0)


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
        assert activate_behaviors(bind_statics(specs, []), EmotionPool(), 0.0) == []

    def test_single_emotion_activation_level(self):
        specs = [leaf("beam", "face", "happiness")]
        pool = EmotionPool((emotion("happiness", 8),))
        (activated,) = activate_behaviors(bind_statics(specs, []), pool, 0.0)
        assert activated.activation == 8.0
        assert activated.motivating == pool.structures

    def test_two_weak_emotions_beat_one_strong(self):
        specs = [leaf("glow", "face", "happiness", "interest"), leaf("rage", "face", "anger")]
        pool = EmotionPool(
            (emotion("happiness", 4), emotion("interest", 5), emotion("anger", 8))
        )
        winners = arbitrate(activate_behaviors(bind_statics(specs, []), pool, 0.0))
        assert [w.spec.id for w in winners] == ["glow"]
        assert winners[0].activation == 9.0

    def test_every_motivation_pattern_must_match(self):
        specs = [leaf("glow", "face", "happiness", "interest")]
        pool = EmotionPool((emotion("happiness", 9),))
        assert activate_behaviors(bind_statics(specs, []), pool, 0.0) == []

    def test_static_preconditions_gate_activation(self):
        spec = leaf("beam", "face", "happiness", preconditions=(keyed(read_one("(supports team: ?t)")),))
        pool = EmotionPool((emotion("happiness", 8),))
        assert activate_behaviors(bind_statics([spec], []), pool, 0.0) == []
        statics = [keyed(read_one("(supports team: a)"))]
        assert len(activate_behaviors(bind_statics([spec], statics), pool, 0.0)) == 1

    def test_target_pattern_filters_structures(self):
        spec = BehaviorSpec(
            id="glare",
            group="face",
            motivated_by=(MotivationPattern("anger", Symbol("b2")),),
            directives=(markup("AU", UTTERANCE, NUM="4", LEVEL="0.7"),),
        )
        miss = EmotionPool((emotion("anger", 7, "b1"),))
        hit = EmotionPool((emotion("anger", 7, "b2"),))
        assert activate_behaviors(bind_statics([spec], []), miss, 0.0) == []
        (activated,) = activate_behaviors(bind_statics([spec], []), hit, 0.0)
        assert activated.activation == 7.0

    def test_expansion_only_nodes_do_not_self_activate(self):
        spec = BehaviorSpec(id="limb", group="parts", directives=(markup("AURAL", at_point("end"), NAME="cheer"),))
        pool = EmotionPool((emotion("happiness", 9),))
        assert activate_behaviors(bind_statics([spec], []), pool, 0.0) == []

    def test_activation_sums_all_matching_structures(self):
        specs = [leaf("hype", "voice", "interest")]
        pool = EmotionPool((emotion("interest", 3, "a1"), emotion("interest", 4, "a2")))
        (activated,) = activate_behaviors(bind_statics(specs, []), pool, 0.0)
        assert activated.activation == 7.0


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
                ActivatedBehavior(a.spec, a.activation * scale, a.motivating) for a in activated
            ]
            assert [w.spec.id for w in arbitrate(activated)] == [
                w.spec.id for w in arbitrate(scaled)
            ]


class TestExpand:
    def test_leaf_directives_pass_through(self):
        smile = markup("EXPR", UTTERANCE, NAME="smile", LEVEL="0.8")
        spec = BehaviorSpec(id="beam", group="face", directives=(smile,))
        assert expand([ActivatedBehavior(spec, 1.0, ())], [spec]) == [smile]

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
        assert expand([ActivatedBehavior(root, 7.0, ())], specs) == [d1, d2, d3]

    def test_character_quirk_expands_to_word_scoped_au(self):
        quirk = markup("AU", word_trigger("Kirk"), NUM="4", LEVEL="0.6")
        spec = BehaviorSpec(
            id="doubt", group="quirk", motivated_by=(MotivationPattern("surprise"),),
            directives=(quirk,),
        )
        (directive,) = expand([ActivatedBehavior(spec, 5.0, ())], [spec])
        assert directive.mark.attr("NUM") == "4" and directive.mark.attr("LEVEL") == "0.6"
        assert directive.scope.kind == "word" and directive.scope.word == "Kirk"

    def test_dangling_child_raises(self):
        root = BehaviorSpec(id="root", group="g", children=("ghost",))
        with pytest.raises(BehaviorError, match="ghost"):
            expand([ActivatedBehavior(root, 1.0, ())], [root])

    def test_cycle_raises_rather_than_looping(self):
        a = BehaviorSpec(id="a", group="g", children=("b",))
        b = BehaviorSpec(id="b", group="g", children=("a",))
        with pytest.raises(BehaviorError, match="cycle"):
            expand([ActivatedBehavior(a, 1.0, ())], [a, b])

    def test_duplicate_directives_preserved(self):
        d = markup("AU", UTTERANCE, NUM="12", LEVEL="0.5")
        child = BehaviorSpec(id="kid", group="k", directives=(d,))
        root = BehaviorSpec(id="root", group="g", children=("kid", "kid"))
        assert expand([ActivatedBehavior(root, 1.0, ())], [root, child]) == [d, d]
