from __future__ import annotations

import struct
from random import Random

import hypothesis.strategies as st
import oracle_behaviors
import pytest
from conftest import board_of, fact_of
from hypothesis import given, settings

from byrne.emotions import (
    DecayFunction,
    EmotionPool,
    EmotionRule,
    EmotionSchema,
    EmotionStructure,
    NIL,
    RuleError,
    apply_rules,
    decay_pool,
    intensity_at,
    rule_universe,
)
from byrne.facts import FactBoard
from byrne.patterns import is_variable, keyed, match_all, parse_keyed, substitute, variables_in
from byrne.sexpr import Symbol, read_one, to_text

RECIPROCAL = DecayFunction("reciprocal")


def sadness10(created: float = 0.0) -> EmotionStructure:
    return EmotionStructure(
        "sadness", 10.0, NIL, read_one("(scored team: a time: 125)"), RECIPROCAL, created
    )


class TestIntensity:
    def test_worked_reciprocal_trace(self):
        e = sadness10()
        assert intensity_at(e, 0.0) == 10.0
        assert intensity_at(e, 2.0) == 5.0
        assert intensity_at(e, 10.0) == pytest.approx(1.0, abs=1e-12)
        assert intensity_at(e, 11.0) == pytest.approx(10.0 / 11.0, abs=1e-12)
        assert intensity_at(e, 11.0) < 1.0

    def test_constant_decay_everywhere(self):
        e = EmotionStructure("interest", 4.0, NIL, read_one("(x y: 1)"), DecayFunction("constant"), 3.0)
        for now in (3.0, 4.5, 100.0, 1e6):
            assert intensity_at(e, now) == 4.0

    def test_decay_forms_start_at_base(self):
        for decay in (
            RECIPROCAL,
            DecayFunction("constant"),
            DecayFunction("exponential", 0.5),
            DecayFunction("linear", 0.2),
        ):
            e = EmotionStructure("fear", 6.0, NIL, read_one("(x y: 1)"), decay, 0.0)
            assert intensity_at(e, 0.0) == 6.0

    @given(
        st.sampled_from(["reciprocal", "constant", "exponential", "linear"]),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_intensity_non_increasing(self, kind, rate, t, dt):
        e = EmotionStructure("anger", 8.0, NIL, read_one("(x y: 1)"), DecayFunction(kind, rate), 0.0)
        assert intensity_at(e, t) >= intensity_at(e, t + dt) - 1e-12

    @settings(max_examples=500)
    @given(
        st.sampled_from(["reciprocal", "constant", "exponential", "linear"]),
        # 0, the smallest floats, the largest, and -0.0, which a profile's `(exp -0.0)` gives
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-9, 1e9, 1e300, 1.7976931348623157e308]),
            st.floats(min_value=0.0, allow_infinity=False),
        ),
        # before the first second, at it, past it by an ulp, and far past it
        st.one_of(
            st.sampled_from([-0.0, 0.0, 0.5, 0.9999999999999999, 1.0, 1.0000000000000002, 1e300, -1e300]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
    def test_value_is_bit_identical_to_the_clamped_form(self, kind, rate, t):
        decay = DecayFunction(kind, rate)
        assert struct.pack("<d", decay.value(t)) == struct.pack("<d", oracle_behaviors.value(decay, t))

    def test_decay_parse_forms(self):
        assert DecayFunction.from_sexpr(read_one("1/t")) == RECIPROCAL
        assert DecayFunction.from_sexpr(read_one("constant")) == DecayFunction("constant")
        assert DecayFunction.from_sexpr(read_one("(exp 0.3)")) == DecayFunction("exponential", 0.3)
        assert DecayFunction.from_sexpr(read_one("(linear 0.2)")) == DecayFunction("linear", 0.2)
        with pytest.raises(RuleError):
            DecayFunction.from_sexpr(read_one("2/t"))


SCORING_RULE = EmotionRule(
    preconditions=(keyed(read_one("(supports team: ?team)")), keyed(read_one("(scores team: ?team)"))),
    additions=(
        EmotionSchema(
            "happiness", 8.0, NIL, read_one("(scores team: ?team)"), RECIPROCAL
        ),
    ),
)


class TestMatchRule:
    def test_worked_scoring_rule(self):
        statics = [keyed(read_one("(supports team: a)"))]
        board = board_of(fact_of("(scores team: a time: 125)", 10))
        bindings = match_all(SCORING_RULE.preconditions, rule_universe(board, statics, EmotionPool()))
        assert bindings == [{Symbol("?team"): Symbol("a")}]

    def test_unification_failure(self):
        statics = [keyed(read_one("(supports team: a)"))]
        board = board_of(fact_of("(scores team: b time: 125)", 10))
        assert match_all(SCORING_RULE.preconditions, rule_universe(board, statics, EmotionPool())) == []

    def test_precondition_on_active_emotion(self):
        rule = EmotionRule(preconditions=(keyed(read_one("(type: sadness)")),))
        pool = EmotionPool((sadness10(),))
        assert match_all(rule.preconditions, rule_universe(FactBoard(), [], pool)) == [{}]
        assert match_all(rule.preconditions, rule_universe(FactBoard(), [], EmotionPool())) == []

    def test_bindings_match_bruteforce_substitution_oracle(self):
        rng = Random(31)
        from corpus import random_fact

        patterns = [
            read_one("(pass from: ?x to: ?y)"),
            read_one("(has-ball player: ?x)"),
            read_one("(pass from: ?x to: ?z)"),
            read_one("(move player: ?p)"),
            read_one("(scores team: ?t)"),
        ]
        for _ in range(40):
            board = board_of(*(random_fact(rng) for _ in range(5)))
            chosen = tuple(rng.sample(patterns, rng.randrange(1, 3)))
            rule = EmotionRule(preconditions=tuple(map(keyed, chosen)))
            got = match_all(rule.preconditions, rule_universe(board, [], EmotionPool()))
            got_keys = {tuple(sorted((str(k), to_text(v)) for k, v in b.items())) for b in got}

            # oracle: try every assignment of variables to terms seen in the universe
            universe = [g.term for g in rule_universe(board, [], EmotionPool())]
            terms = sorted(
                {t for fact in universe for t in _atoms(fact)}, key=to_text
            )
            variables = sorted({v for p in chosen for v in variables_in(p)})
            expected = set()
            for assignment in _assignments(variables, terms):
                if all(
                    any(_ground_match(substitute(p, assignment), cand) for cand in universe)
                    for p in chosen
                ):
                    expected.add(
                        tuple(sorted((str(k), to_text(v)) for k, v in assignment.items()))
                    )
            assert got_keys == expected


def _atoms(form):
    if isinstance(form, tuple):
        out = []
        for c in form:
            out.extend(_atoms(c))
        return out
    return [form]


def _assignments(variables, terms):
    if not variables:
        yield {}
        return
    head, rest = variables[0], variables[1:]
    for term in terms:
        for tail in _assignments(rest, terms):
            yield {head: term, **tail}


def _ground_match(pattern, value) -> bool:
    """Keyword-subset ground comparison, written independently of unify()."""
    if isinstance(pattern, tuple) and isinstance(value, tuple):
        pk, vk = parse_keyed(pattern), parse_keyed(value)
        if pk is not None and vk is not None:
            if str(pk[0]) != str(vk[0]):
                return False
            return all(
                name in vk[1] and _ground_match(term, vk[1][name]) for name, term in pk[1].items()
            )
        if pk is None and vk is None:
            return len(pattern) == len(value) and all(
                _ground_match(p, v) for p, v in zip(pattern, value)
            )
        return False
    if isinstance(pattern, tuple) or isinstance(value, tuple):
        return False
    if isinstance(pattern, (int, float)) and isinstance(value, (int, float)):
        return pattern == value
    return type(pattern) is type(value) and str(pattern) == str(value)


class TestApplyRules:
    def test_empty_rule_list(self):
        pool = EmotionPool((sadness10(),))
        assert apply_rules(pool, FactBoard(), [], [], 1.0) == pool

    def test_worked_scoring_rule_adds_happiness(self):
        statics = [keyed(read_one("(supports team: a)"))]
        board = board_of(fact_of("(scores team: a time: 125)", 10))
        pool = apply_rules(EmotionPool(), board, statics, [SCORING_RULE], 125.0)
        (added,) = pool.structures
        assert added.type == "happiness"
        assert added.base_intensity == 8.0
        assert added.target is NIL
        assert added.cause == read_one("(scores team: a)")
        assert added.decay == RECIPROCAL
        assert added.created_at == 125.0

    def test_refire_is_idempotent(self):
        statics = [keyed(read_one("(supports team: a)"))]
        board = board_of(fact_of("(scores team: a time: 125)", 10))
        once = apply_rules(EmotionPool(), board, statics, [SCORING_RULE], 125.0)
        twice = apply_rules(once, board, statics, [SCORING_RULE], 126.0)
        assert twice == once

    def test_deletion_patterns_remove(self):
        rule = EmotionRule(
            preconditions=(keyed(read_one("(scores team: ?t)")),),
            deletions=(read_one("(type: sadness)"),),
        )
        board = board_of(fact_of("(scores team: a)", 10))
        pool = EmotionPool((sadness10(), _interest("a1")))
        after = apply_rules(pool, board, [], [rule], 5.0)
        assert [s.type for s in after.structures] == ["interest"]

    def test_same_type_different_causes_coexist(self):
        rule = EmotionRule(
            preconditions=(keyed(read_one("(pass from: ?x to: ?y)")),),
            additions=(
                EmotionSchema("interest", 4.0, Symbol("?y"), read_one("(pass from: ?x to: ?y)"), RECIPROCAL),
            ),
        )
        board = board_of(
            fact_of("(pass from: a1 to: a2)", 5), fact_of("(pass from: a2 to: a3)", 5)
        )
        pool = apply_rules(EmotionPool(), board, [], [rule], 0.0)
        assert len(pool.structures) == 2
        assert {to_text(s.cause) for s in pool.structures} == {
            "(pass from: a1 to: a2)",
            "(pass from: a2 to: a3)",
        }

    @pytest.mark.parametrize(
        "target, cause", [(NIL, "(heard ?w)"), (Symbol("?w"), "(shouting)")], ids=["cause", "target"]
    )
    def test_symbol_and_quoted_string_stay_apart(self, target, cause):
        # the board keeps (shout by: a) and (shout by: "a") apart, and so does the pool
        rule = EmotionRule(
            preconditions=(keyed(read_one("(shout by: ?w)")),),
            additions=(EmotionSchema("interest", 4.0, target, read_one(cause), RECIPROCAL),),
        )
        board = board_of(fact_of("(shout by: a)", 5), fact_of('(shout by: "a")', 5))
        assert len(board.entries) == 2
        pool = apply_rules(EmotionPool(), board, [], [rule], 0.0)
        assert len({to_text(s.view()) for s in pool.structures}) == 2

    def test_rules_fire_in_profile_order(self):
        add_then_delete = [
            EmotionRule(
                preconditions=(keyed(read_one("(scores team: ?t)")),),
                additions=(
                    EmotionSchema("happiness", 8.0, NIL, read_one("(scores team: ?t)"), RECIPROCAL),
                ),
            ),
            EmotionRule(
                preconditions=(keyed(read_one("(scores team: ?t)")),),
                deletions=(read_one("(type: happiness)"),),
            ),
        ]
        board = board_of(fact_of("(scores team: a)", 10))
        after = apply_rules(EmotionPool(), board, [], add_then_delete, 0.0)
        assert after.structures == ()
        reversed_rules = list(reversed(add_then_delete))
        after = apply_rules(EmotionPool(), board, [], reversed_rules, 0.0)
        assert [s.type for s in after.structures] == ["happiness"]


def _interest(target: str) -> EmotionStructure:
    return EmotionStructure(
        "interest", 5.0, Symbol(target), read_one(f"(shot player: {target})"), RECIPROCAL, 0.0
    )


class TestDecayPool:
    def test_kept_at_second_ten_removed_at_eleven(self):
        pool = EmotionPool((sadness10(),))
        assert decay_pool(pool, 10.0) == pool
        assert decay_pool(pool, 11.0).structures == ()

    def test_empty_pool(self):
        assert decay_pool(EmotionPool(), 50.0) == EmotionPool()

    def test_a_pool_that_loses_nothing_is_returned_as_it_is(self):
        marked = apply_rules(EmotionPool((sadness10(),)), FactBoard(), (), (), 1.0)
        assert marked.mark is not None
        kept = decay_pool(marked, 10.0)
        assert kept.structures is marked.structures and kept.mark is marked.mark
        assert kept.levels == (1.0,)
        # so its mark holds on the next tick: the same board fires nothing
        assert apply_rules(kept, FactBoard(), (), (), 11.0) is kept
        decayed = decay_pool(marked, 11.0)
        assert decayed.structures == () and decayed.mark is None

    def test_min_intensity_invariant(self):
        rng = Random(3)
        structures = tuple(
            EmotionStructure(
                "interest",
                rng.uniform(1, 10),
                NIL,
                (Symbol("tick"), rng.randrange(100)),
                DecayFunction(rng.choice(["reciprocal", "constant", "linear"]), 0.1),
                float(rng.randrange(0, 5)),
            )
            for _ in range(30)
        )
        for now in (5.0, 9.0, 20.0, 120.0):
            survivors = decay_pool(EmotionPool(structures), now)
            assert all(intensity_at(s, now) >= 1.0 for s in survivors.structures)
            assert survivors.levels == tuple(intensity_at(s, now) for s in survivors.structures)

    def test_only_two_removal_paths(self):
        # audit pool deltas across a tick: anything that left was either matched
        # by a deletion pattern or decayed below one
        statics = [keyed(read_one("(supports team: a)"))]
        board = board_of(fact_of("(scores team: a)", 10))
        rule = EmotionRule(
            preconditions=(keyed(read_one("(scores team: ?t)")),),
            deletions=(read_one("(type: sadness)"),),
        )
        old = EmotionPool((sadness10(created=0.0), _interest("a1"), _interest("a2")))
        now = 11.0
        new = decay_pool(apply_rules(old, board, statics, [rule], now), now)
        gone = [s for s in old.structures if s not in new.structures]
        for s in gone:
            deleted = s.type == "sadness"
            decayed = intensity_at(s, now) < 1.0
            assert deleted or decayed
