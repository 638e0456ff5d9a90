from __future__ import annotations

import re
from collections import Counter
from random import Random

import hypothesis.strategies as st
import oracle_textgen as oracle
import pytest
from conftest import MINIMAL_STYLE, fact_of
from hypothesis import given, settings
from oracle_seeml import strip_text

from byrne.facts import TickUpdate
from byrne.patterns import keyed
from byrne.pipeline import UTTERANCE_START, initial_state, step
from byrne.profile import ProfileError, load_profile
from byrne.seeml import SeemlError, parse_seeml
from byrne.sexpr import Symbol, read_one
from byrne.style import load_style
from byrne.textgen import (
    InstantiationError,
    Template,
    UsageHistory,
    fill,
    instantiate,
    match_templates,
    record_usage,
    select_template,
)
from oracle_seeml import serialize_seeml

PASS_TEMPLATE = Template(
    "pass-basic",
    (keyed(read_one("(pass from: ?x to: ?y)")),),
    parse_seeml('<su><seg>?x passes</seg> <seg>to ?y</seg></su>'),
)
PASS_TERM = keyed(read_one("(pass from: a1 to: a2 fromloc: (30 10) toloc: (20 10))"))


class TestSelectTemplate:
    def test_singleton_match(self):
        covering = match_templates(PASS_TERM, [PASS_TEMPLATE])
        chosen, binding = select_template(covering, UsageHistory(), 5.0, lambda_use_penalty=5.0)
        assert chosen is PASS_TEMPLATE
        assert binding == {Symbol("?x"): Symbol("a1"), Symbol("?y"): Symbol("a2")}

    def test_never_used_beats_recently_used(self):
        fresh = Template("a-fresh", PASS_TEMPLATE.preconditions, PASS_TEMPLATE.body)
        stale = Template("b-stale", PASS_TEMPLATE.preconditions, PASS_TEMPLATE.body)
        history = record_usage(UsageHistory(), "b-stale", 9.0)
        chosen, _ = select_template(match_templates(PASS_TERM, [stale, fresh]), history, 10.0, lambda_use_penalty=5.0)
        assert chosen.id == "a-fresh"

    def test_score_formula_hand_check(self):
        # now=20: A used once at 4 -> 16 - 5 = 11; B used twice, last at 18 -> 2 - 10 = -8
        a = Template("a", PASS_TEMPLATE.preconditions, PASS_TEMPLATE.body)
        b = Template("b", PASS_TEMPLATE.preconditions, PASS_TEMPLATE.body)
        history = record_usage(UsageHistory(), "a", 4.0)
        history = record_usage(record_usage(history, "b", 2.0), "b", 18.0)
        chosen, _ = select_template(match_templates(PASS_TERM, [a, b]), history, 20.0, lambda_use_penalty=5.0)
        assert chosen.id == "a"

    def test_equal_use_counts_least_recent_wins(self):
        rng = Random(8)
        a = Template("a", PASS_TEMPLATE.preconditions, PASS_TEMPLATE.body)
        b = Template("b", PASS_TEMPLATE.preconditions, PASS_TEMPLATE.body)
        for _ in range(25):
            t1, t2 = sorted((rng.uniform(0, 50), rng.uniform(0, 50)))
            if t1 == t2:
                continue
            history = record_usage(record_usage(UsageHistory(), "a", t1), "b", t2)
            chosen, _ = select_template(match_templates(PASS_TERM, [a, b]), history, 60.0, lambda_use_penalty=5.0)
            assert chosen.id == "a"

    def test_no_match_returns_none(self):
        assert (
            select_template(
                match_templates(keyed(read_one("(corner team: b)")), [PASS_TEMPLATE]),
                UsageHistory(),
                0.0,
                lambda_use_penalty=5.0,
            )
            is None
        )

    def test_never_returns_non_matching_template(self):
        corner = Template("corner", (keyed(read_one("(corner team: ?t)")),), parse_seeml("<su><seg>corner</seg></su>"))
        covering = match_templates(PASS_TERM, [corner, PASS_TEMPLATE])
        chosen, _ = select_template(covering, UsageHistory(), 0.0, lambda_use_penalty=5.0)
        assert chosen is PASS_TEMPLATE

    def test_static_preconditions_participate(self):
        biased = Template(
            "homer",
            (keyed(read_one("(pass from: ?x to: ?y)")), keyed(read_one("(supports team: ?t)"))),
            parse_seeml("<su><seg>?x to ?y great stuff from ?t</seg></su>"),
        )
        covering = match_templates(PASS_TERM, [biased])
        assert covering == () and select_template(covering, UsageHistory(), 0.0, lambda_use_penalty=5.0) is None
        chosen, binding = select_template(
            match_templates(PASS_TERM, [biased], [keyed(read_one("(supports team: a)"))]),
            UsageHistory(),
            0.0,
            lambda_use_penalty=5.0,
        )
        assert binding[Symbol("?t")] == Symbol("a")

    def test_lambda_weighting_is_configurable(self):
        # now=10: A used 3x last at 2 -> 8-3λ; B used once at 6 -> 4-λ; equal at λ=2
        a = Template("a", PASS_TEMPLATE.preconditions, PASS_TEMPLATE.body)
        b = Template("b", PASS_TEMPLATE.preconditions, PASS_TEMPLATE.body)
        history = UsageHistory()
        for t in (0.5, 1.0, 2.0):
            history = record_usage(history, "a", t)
        history = record_usage(history, "b", 6.0)
        chosen, _ = select_template(match_templates(PASS_TERM, [a, b]), history, 10.0, lambda_use_penalty=1.0)
        assert chosen.id == "a"
        chosen, _ = select_template(match_templates(PASS_TERM, [a, b]), history, 10.0, lambda_use_penalty=5.0)
        assert chosen.id == "b"


class TestMatchTemplates:
    def test_covering_templates_in_the_given_order_with_first_bindings(self):
        corner = Template("corner", (keyed(read_one("(corner team: ?t)")),), parse_seeml("<su><seg>corner</seg></su>"))
        later = Template("later", PASS_TEMPLATE.preconditions, PASS_TEMPLATE.body)
        covering = match_templates(PASS_TERM, [later, corner, PASS_TEMPLATE])
        assert [t for t, _ in covering] == [later, PASS_TEMPLATE]
        assert all(b == {Symbol("?x"): Symbol("a1"), Symbol("?y"): Symbol("a2")} for _, b in covering)


class TestInstantiate:
    def test_variables_are_found_once_in_document_order(self):
        t = Template(
            "v",
            (),
            parse_seeml('<su><seg>?b to ?a</seg><RATE SPEED="+5%"><seg>?a ?c</seg></RATE><seg>?d ?b</seg></su>'),
        )
        assert t.variables == tuple(map(Symbol, ("?b", "?a", "?c", "?d")))

    def test_fill_gives_each_variables_text(self):
        binding = {Symbol("?x"): Symbol("a1"), Symbol("?y"): (10, 20)}
        assert fill(PASS_TEMPLATE, binding, names={"a1": "Angus"}) == ("Angus", "(10 20)")

    def test_direct_substitution_reparses(self):
        doc = instantiate(PASS_TEMPLATE, {Symbol("?x"): Symbol("a1"), Symbol("?y"): Symbol("a2")})
        assert serialize_seeml(doc) == "<su><seg>a1 passes</seg> <seg>to a2</seg></su>"

    def test_instantiation_rebuilds_only_the_paths_to_variables(self):
        doc = instantiate(PASS_TEMPLATE, {Symbol("?x"): Symbol("a1"), Symbol("?y"): Symbol("a2")})
        (su,) = doc.children
        assert su.children[1] is PASS_TEMPLATE.body.children[0].children[1]  # the " " between the phrases
        assert su.children[0] is not PASS_TEMPLATE.body.children[0].children[0]

    def test_a_variable_filled_with_nothing_leaves_no_empty_text(self):
        t = Template("empty", (), parse_seeml("<su><seg><w>?p</w> moves</seg></su>"))
        assert t.sites.held == ("?p",) and t.sites.spelled == (("?p",), ("?p", " moves"), ("?p", " moves"))
        assert instantiate(t, {Symbol("?p"): ""}) == parse_seeml("<su><seg><w></w> moves</seg></su>")

    def test_no_variables_is_identity(self):
        t = Template("plain", (), parse_seeml("<su><seg>what a match</seg></su>"))
        assert instantiate(t, {}) == t.body

    def test_hardcoded_gesture_survives(self):
        t = Template(
            "save",
            (keyed(read_one("(save player: ?p)")),),
            parse_seeml('<su><seg>saved by ?p</seg> <seg><AU LEVEL="0.5" NUM="5">what a stop</AU></seg></su>'),
        )
        doc = instantiate(t, {Symbol("?p"): Symbol("b1")})
        assert '<AU LEVEL="0.5" NUM="5">what a stop</AU>' in serialize_seeml(doc)

    def test_name_table_renders_display_names(self):
        binding = {Symbol("?x"): Symbol("a1"), Symbol("?y"): Symbol("a2")}
        doc = instantiate(PASS_TEMPLATE, binding, names={"a1": "Angus", "a2": "Brodie"})
        assert strip_text(doc) == "Angus passes to Brodie"

    def test_coordinate_terms_render(self):
        t = Template(
            "loc", (keyed(read_one("(move toloc: ?where)")),), parse_seeml("<su><seg>moving to ?where</seg></su>")
        )
        doc = instantiate(t, {Symbol("?where"): (10, 20)})
        assert strip_text(doc) == "moving to (10 20)"

    def test_unbound_variable_raises(self):
        with pytest.raises(InstantiationError, match=r"\?y"):
            instantiate(PASS_TEMPLATE, {Symbol("?x"): Symbol("a1")})

    def test_stripped_output_has_no_variable_markers(self):
        rng = Random(4)
        syms = [Symbol(s) for s in ("a1", "b2", "kirk", "x-9")]
        for _ in range(30):
            binding = {Symbol("?x"): rng.choice(syms), Symbol("?y"): rng.choice(syms)}
            doc = instantiate(PASS_TEMPLATE, binding)
            assert "?" not in strip_text(doc)

    def test_markup_significant_name_is_escaped(self):
        doc = instantiate(
            PASS_TEMPLATE,
            {Symbol("?x"): Symbol("a1"), Symbol("?y"): Symbol("a2")},
            names={"a1": "R&B <star>"},
        )
        assert strip_text(doc) == "R&B <star> passes to a2"


# --- substitution on the parsed body ----------------------------------------------

_VARS = ("?a", "?b", "?c")
# Raw markup pieces. None is a bare `&`, so no variable ever follows one: a value
# could then complete an entity, which only the re-parsing oracle would read.
_LITERAL = st.sampled_from(["goal", " ", "to", "&amp;", "&lt;", "&gt;", "&quot;", ";", "? ", "!"])
# A variable ends at its suffix, never at a following name character.
_VARIABLE = st.tuples(st.sampled_from(_VARS), st.sampled_from([" ", ";", ".", "'s", "!"])).map("".join)
_RUN = st.lists(st.one_of(_LITERAL, _VARIABLE), max_size=5).map("".join)
# The loader keeps variables out of attribute values.
_VALUE = st.lists(_LITERAL, max_size=5).map("".join)

# Tags with an attribute that takes any unsigned text (an amount, a name or a path
# in `seeml.TAGS`), with that attribute, or with none.
_WRAPPING = [("seg", ""), ("EMPH", ""), ("w", ""), ("RATE", "SPEED"), ("PITCH", "BASE"), ("AFFECT", "TYPE")]
_CHILDLESS = [("AURAL", "NAME"), ("AUDIO", "SRC")]


def _open(tag: str, attr: str, value: str) -> str:
    return f'<{tag} {attr}="{value}"' if attr else f"<{tag}"


_NODES = st.recursive(
    _RUN,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(_WRAPPING), _VALUE, st.lists(kids, max_size=3)).map(
            lambda t: f"{_open(*t[0], t[1])}>{''.join(t[2])}</{t[0][0]}>"
        ),
        st.tuples(st.sampled_from(_CHILDLESS), _VALUE.filter(bool)).map(lambda t: f"{_open(*t[0], t[1])}/>"),
    ),
    max_leaves=8,
)
_BODIES = st.lists(_NODES, max_size=4).map(lambda kids: f"<su>{''.join(kids)}</su>")

# Rendered terms hold the characters markup escapes; they only ever fill text.
_CHARS = st.text(alphabet='ab &<>";?-1', max_size=6)
_TERMS = st.one_of(
    _CHARS.filter(bool).map(Symbol),
    _CHARS,
    st.integers(-50, 50),
    st.floats(-10, 10, allow_nan=False),
    st.lists(st.one_of(st.sampled_from(["a1", "b2"]).map(Symbol), st.integers(0, 99)), max_size=3).map(tuple),
)


def _outcome(fn):
    try:
        return fn()
    except (InstantiationError, SeemlError) as e:
        return type(e), str(e)


class TestSubstitutionOnTheTree:
    @given(
        _BODIES,
        st.dictionaries(st.sampled_from(_VARS).map(Symbol), _TERMS, min_size=2),
        st.dictionaries(st.sampled_from(["a1", "b2", "&"]), _CHARS),
    )
    @settings(max_examples=300, deadline=None)
    def test_gives_the_reparsing_oracles_document(self, body, binding, names):
        template = Template("t", (), parse_seeml(body))
        new = _outcome(lambda: instantiate(template, binding, names))
        assert new == _outcome(lambda: oracle.instantiate("t", body, binding, names))

    def _chant(self, text: str) -> Template:
        (template,) = load_profile(f'(template id: t (pre (chant words: ?s)) (text "{text}"))').templates
        return template

    @pytest.mark.parametrize(
        "body, where",
        [
            # a quote in a value, or a blank name, would have met the markup's checks per utterance
            ('<su><seg><RATE SPEED=\\"?s\\">go</RATE></seg></su>', "<RATE SPEED>"),
            ('<su><seg>listen</seg><AURAL NAME=\\"?s\\"/></su>', "<AURAL NAME>"),
        ],
    )
    def test_variable_in_an_attribute_value_fails_the_load(self, body, where):
        with pytest.raises(ProfileError, match=rf"template 't' puts \?s in {where}, not in text"):
            self._chant(body)

    def test_value_that_would_complete_an_entity_stays_text(self):
        doc = instantiate(self._chant("<su><seg>R&?s;</seg></su>"), {Symbol("?s"): Symbol("amp")})
        assert strip_text(doc) == "R&amp;"


class TestRecordUsage:
    def test_first_use(self):
        history = record_usage(UsageHistory(), "t", 3.0)
        assert history.record("t").use_count == 1
        assert history.record("t").last_used_tick == 3.0

    def test_second_use_updates_both_fields(self):
        history = record_usage(record_usage(UsageHistory(), "t", 3.0), "t", 9.0)
        assert history.record("t").use_count == 2
        assert history.record("t").last_used_tick == 9.0

    def test_counts_match_event_log_recount(self):
        rng = Random(12)
        events = [(rng.choice(["a", "b", "c"]), float(t)) for t in range(40)]
        history = UsageHistory()
        for template_id, t in events:
            history = record_usage(history, template_id, t)
        counts = Counter(template_id for template_id, _ in events)
        for template_id, count in counts.items():
            assert history.record(template_id).use_count == count
            assert history.record(template_id).last_used_tick == max(
                t for tid, t in events if tid == template_id
            )

    def test_history_is_persistent_value(self):
        before = UsageHistory()
        record_usage(before, "t", 1.0)
        assert before.record("t").use_count == 0


# --- template choice in the replay -------------------------------------------------

# Precondition sets by kind; `supports` and `nationality` may be statics.
_FACT_PRES = [
    "(pass from: ?x to: ?y)",
    "(pass from: ?x)",
    "(has-ball player: ?p)",
    "(move player: ?p)",
    "(scores team: ?t)",
    "(scores team: a)",
    "(supports team: ?t)",
]
_STATIC_JOINED = [
    "(supports team: ?t) (scores team: ?t)",
    "(nationality ?n) (move player: ?p)",
    "(opponent team: ?t) (corner team: ?t)",
]
_BARE = ["?v", ""]
_TWO_PREDICATES = ["(pass from: ?x) (move player: ?x)", "(has-ball player: ?p) (scores team: ?t)"]
_STATICS = ["(supports team: a)", "(opponent team: b)", "(nationality scotland)"]


def _random_profile(rng: Random) -> str:
    kinds = [_STATIC_JOINED, _BARE, _TWO_PREDICATES]
    kinds += [rng.choice([_FACT_PRES, _FACT_PRES, _STATIC_JOINED]) for _ in range(rng.randrange(1, 7))]
    rng.shuffle(kinds)
    lines = [f"(static {s})" for s in _STATICS if rng.random() < 0.7]
    lines.append(f"(params lambda: {rng.choice([0, 5, 50])})")
    for i, kind in enumerate(kinds):
        pre = rng.choice(kind)
        words = " ".join(sorted(set(re.findall(r"\?\w+", pre))))
        pre_form = f" (pre {pre})" if pre else ""
        lines.append(f'(template id: t{i}{pre_form} (text "<su><seg>t{i} {words}</seg></su>"))')
    return "\n".join(lines) + "\n"


def _random_play(rng: Random, t: float) -> str:
    p, q = rng.sample(["a1", "a2", "b1"], 2)
    return rng.choice([
        f"(pass from: {p} to: {q} begintime: {t:g})",
        f"(has-ball player: {p})",
        f"(move player: {p})",
        f"(scores team: {rng.choice('ab')})",
        f"(corner team: {rng.choice('ab')})",
        f"(supports team: {rng.choice('ab')})",
        "(throw-in team: a)",
    ])


class TestTemplateChoiceInReplay:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_replay_picks_what_select_template_picks_over_all_templates(self, seed):
        rng = Random(seed)
        profile = load_profile(_random_profile(rng))
        style = load_style(MINIMAL_STYLE)
        state, history, now, previous = initial_state(), UsageHistory(), 0.0, None
        for _ in range(rng.randrange(4, 12)):
            now += rng.choice([20.0, 45.0, 200.0])  # every utterance has ended by the next play
            fact = fact_of(_random_play(rng, now), 5)
            gone = () if previous is None else (fact_of(previous.identity, 0),)
            state, events = step(state, TickUpdate(now, (*gone, fact)), profile, style)
            previous = fact
            starts = [e for e in events if e.kind == UTTERANCE_START]
            chosen = select_template(
                match_templates(keyed(fact.term), profile.templates, profile.statics),
                history,
                now,
                lambda_use_penalty=profile.lambda_use_penalty,
            )
            if chosen is None:
                assert starts == []
                continue
            template, binding = chosen
            history = record_usage(history, template.id, now)
            (start,) = starts
            spoken = strip_text(parse_seeml(start.bundle.speech_script))
            assert spoken == strip_text(instantiate(template, binding))
