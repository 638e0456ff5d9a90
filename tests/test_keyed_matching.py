"""The keyed matcher against the reference matcher over plain terms.

`oracle_patterns` keeps the matcher that split both sides of every `unify`
call and takes patterns and candidates raw; byrne's side gets both keyed. The
keyed matcher must return the same bindings in the same order, and
`apply_rules` must leave the same pool, also where it skips a marked pool.
"""

from __future__ import annotations

import filecmp
from dataclasses import replace

import hypothesis.strategies as st
import oracle_patterns as oracle
import pytest
from conftest import DEMO, GOLDEN, board_of, fact_of
from hypothesis import given, settings

from byrne import emotions, patterns
from byrne.emotions import (
    EMOTION_TYPES,
    NIL,
    DecayFunction,
    EmotionPool,
    EmotionRule,
    EmotionSchema,
    EmotionStructure,
    apply_rules,
    decay_pool,
    rule_universe,
)
from byrne.facts import FactBoard, TickUpdate, apply_tick, fact_from_sexpr, parse_game_log
from byrne.patterns import Candidates, Form, keyed, match_all, parse_keyed, unify, variables_in
from byrne.pipeline import driver_ticks, initial_state, run_replay, step
from byrne.profile import CharacterProfile, self_feeding
from byrne.sexpr import Symbol, kw, read_one, to_text

VARIABLES = [Symbol("?x"), Symbol("?y"), Symbol("?z")]

# Symbol a and quoted "a", 1 and 1.0, 0.0 and -0.0: pairs a careless key would merge.
ATOMS = st.sampled_from([Symbol("a"), Symbol("b"), "a", "b", 0, 1, 1.0, 2.5, 0.0, -0.0])
HEADS = st.sampled_from([Symbol("p"), Symbol("q"), Symbol("kickoff")])
KEYS = st.sampled_from(["k", "m", "n"])


def _keyword_form(head, pairs) -> tuple:
    items = [] if head is None else [head]
    for name, value in pairs:
        items += [kw(name), value]
    return tuple(items)


def _compounds(children):
    # repeated keys make a form positional; a head with no pairs is `(kickoff)`
    keyword_shaped = st.builds(
        _keyword_form, st.one_of(st.none(), HEADS), st.lists(st.tuples(KEYS, children), max_size=3)
    )
    positional = st.lists(children, max_size=3).map(tuple)
    return st.one_of(keyword_shaped, positional)


GROUND = st.recursive(ATOMS, _compounds, max_leaves=8)


@st.composite
def patterns_from(draw, term):
    """`term` with some subterms made variables and some keyword pairs dropped."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(VARIABLES))
    if not isinstance(term, tuple):
        return term
    split = parse_keyed(term)
    if split is not None and draw(st.booleans()):
        head, pairs = split
        kept = [(n, draw(patterns_from(v))) for n, v in pairs.items() if draw(st.booleans())]
        return _keyword_form(head, kept)
    return tuple(draw(patterns_from(c)) for c in term)


@st.composite
def matching_problems(draw):
    candidates = draw(st.lists(GROUND, max_size=5))
    sources = st.sampled_from(candidates) if candidates else GROUND
    patterns = draw(st.lists(st.one_of(sources, GROUND).flatmap(patterns_from), min_size=1, max_size=3))
    return patterns, candidates


def _typed(bindings) -> list[list[tuple[str, str]]]:
    # to_text tells a symbol from a quoted string and 1 from 1.0
    return [sorted((str(k), to_text(v)) for k, v in b.items()) for b in bindings]


def _same_bindings(patterns, candidates, binding=None):
    got = match_all([keyed(p) for p in patterns], [keyed(c) for c in candidates], binding)
    expected = oracle.match_all(patterns, candidates, binding)
    assert _typed(got) == _typed(expected)
    return got


@given(matching_problems())
@settings(max_examples=400, deadline=None)
def test_keyed_match_all_gives_the_oracles_bindings_in_order(problem):
    _same_bindings(*problem)


@given(matching_problems(), st.sampled_from(VARIABLES), ATOMS)
@settings(max_examples=100, deadline=None)
def test_keyed_match_all_extends_an_initial_binding_like_the_oracle(problem, var, atom):
    _same_bindings(*problem, {var: atom})


@pytest.mark.parametrize(
    "pattern, candidate, matches",
    [
        ("(p k: a)", '(p k: "a")', False),  # a symbol is not a quoted string
        ('(p k: "a")', '(p k: "a")', True),
        ("(p k: 1)", "(p k: 1.0)", True),  # numbers compare by value
        ("(p k: ?x m: ?x)", "(p k: 1 m: 1.0)", True),
        ("(p k: ?x m: ?x)", '(p k: a m: "a")', False),
        ("(k: ?x)", "(k: 1 m: 2)", True),  # headless keyed form
        ("(k: ?x)", "(p k: 1)", False),
        ("(p k: ?x)", "(p k: 1 k: 2)", False),  # a repeated keyword is positional
        ("(p k: ?x k: ?y)", "(p k: 1 k: 2)", True),
        ("(kickoff)", "(kickoff)", True),  # an argument-less fact
        ("?x", "(kickoff)", True),
        ("(kickoff k: ?x)", "(kickoff)", False),
        ("(p loc: ((?x 2) ?y))", "(p loc: ((1 2) (3 4)))", True),  # nested positional tuples
        ("(p loc: ((?x 2) ?x))", "(p loc: ((1 2) (1 2)))", False),
        ("(p loc: (?x ?y))", "(p loc: (1 2 3))", False),
        ("()", "()", True),
        ("1", "1.0", True),  # every number has one shape
        ("0.0", "-0.0", True),
        ("a", '"a"', False),
        ("(k: ?x)", "(1 2)", False),  # a headless form is not a positional one
        ("(?x 2)", "(k: 2)", False),
    ],
)
def test_cases_a_careless_key_would_merge(pattern, candidate, matches):
    got = _same_bindings([read_one(pattern)], [read_one(candidate)])
    assert bool(got) == matches


@pytest.mark.parametrize(
    "pattern, first, second",
    [
        ("?x", "1", "1.0"),
        ("?x", "a", '"a"'),
        ("?x", "0.0", "-0.0"),  # equal as floats, but to_text prints them apart
        ("(p k: ?x)", "(p k: 0.0)", "(p k: -0.0)"),
        ("(p k: ?x)", "(p k: (1 a))", '(p k: (1.0 "a"))'),
    ],
)
def test_bindings_that_to_text_tells_apart_are_all_kept(pattern, first, second):
    assert len(_same_bindings([read_one(pattern)], [read_one(first), read_one(second)])) == 2
    assert len(_same_bindings([read_one(pattern)], [read_one(first), read_one(first)])) == 1


def test_a_pattern_calls_unify_only_on_candidates_of_its_shape(monkeypatch):
    texts = ["(p k: 1)", "(q k: 2)", "(r k: 9)", "(p k: 3)", "(k: 4)", "(kickoff)", "(7 8)", "a", '"a"', "5", "6.0"]
    universe = Candidates(keyed(read_one(t)) for t in texts)
    text_of = {id(c): t for c, t in zip(universe, texts)}
    tried = []

    def counted(pattern, value, binding):
        if id(value) in text_of:  # a top-level call, not one on a sub-term
            tried.append(text_of[id(value)])
        return unify(pattern, value, binding)

    monkeypatch.setattr(patterns, "unify", counted)

    def scanned(pattern: str) -> list[str]:
        tried.clear()
        match_all([keyed(read_one(pattern))], universe)
        return list(tried)

    assert scanned("(p k: ?x)") == ["(p k: 1)", "(p k: 3)"]
    assert scanned("(q k: 2 m: ?x)") == ["(q k: 2)"]
    assert scanned("(k: ?x)") == ["(k: 4)"]
    assert scanned("(?x 8)") == ["(kickoff)", "(7 8)"]  # a head with no pairs is positional
    assert scanned("5.0") == ["5", "6.0"]
    assert scanned("a") == ["a"]
    assert scanned('"a"') == ['"a"']
    assert scanned("(s k: ?x)") == []
    assert scanned("?x") == texts


def test_a_candidate_not_in_keyed_form_is_refused():
    with pytest.raises(TypeError, match="keyed form"):
        match_all([keyed(read_one("(p k: ?x)"))], [read_one("(p k: 1)")])


def test_a_pattern_not_in_keyed_form_is_refused():
    with pytest.raises(TypeError, match="keyed form"):
        unify(read_one("(p k: ?x)"), keyed(read_one("(p k: 1)")), {})
    with pytest.raises(TypeError, match="keyed form"):
        unify(read_one("(p k: ?x)"), Symbol("a"), {})


# apply_rules over generated boards, statics and pools

FACT_HEADS = st.sampled_from([Symbol("scores"), Symbol("pass"), Symbol("move")])
FACTS = st.builds(
    lambda head, pairs, relevance: fact_from_sexpr(_keyword_form(head, pairs), relevance),
    FACT_HEADS,
    st.lists(st.tuples(KEYS, st.one_of(ATOMS, st.tuples(ATOMS, ATOMS))), min_size=1, max_size=2, unique_by=lambda p: p[0]),
    st.sampled_from([1.0, 5.0]),
)
TYPES = st.sampled_from(EMOTION_TYPES[:3])
DECAY = DecayFunction("constant")


# a head no fact, static or view has, so a rule naming it never binds
ABSENT = Symbol("corner")


@st.composite
def preconditions_from(draw, terms):
    """Mostly a fact's or a static's pattern; else a bare variable, a headless
    `(type: T ...)` that matches the pool's views, or a head absent from the board."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(st.sampled_from(VARIABLES))
    if kind == 1:
        kind_of = draw(st.one_of(TYPES.map(Symbol), st.sampled_from(VARIABLES)))
        parts = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(terms).flatmap(patterns_from))
        rest = draw(st.lists(st.tuples(st.sampled_from(["target", "cause"]), parts), max_size=2, unique_by=lambda p: p[0]))
        return _keyword_form(None, [("type", kind_of), *rest])
    if kind == 2:
        return _keyword_form(ABSENT, [(draw(KEYS), draw(st.one_of(st.sampled_from(VARIABLES), ATOMS)))])
    return draw(st.sampled_from(terms).flatmap(patterns_from))


@st.composite
def rules(draw, terms):
    preconditions = tuple(draw(st.lists(preconditions_from(terms), min_size=1, max_size=2)))
    bound = sorted(set().union(*(variables_in(p) for p in preconditions)))
    targets = [NIL, *bound]
    additions = tuple(
        EmotionSchema(draw(TYPES), 5.0, draw(st.sampled_from(targets)), draw(st.sampled_from(preconditions)), DECAY)
        for _ in range(draw(st.integers(0, 2)))
    )
    deletion = st.one_of(
        TYPES.map(lambda t: (kw("type"), Symbol(t))),
        st.sampled_from(bound or [NIL]).map(lambda v: (kw("target"), v)),
        st.sampled_from(preconditions).map(lambda p: (kw("cause"), p)),
    )
    deletions = tuple(draw(st.lists(deletion, max_size=2)))
    return EmotionRule(preconditions, additions, deletions)


@st.composite
def rule_problems(draw):
    facts = draw(st.lists(FACTS, min_size=1, max_size=5))
    board = board_of(*facts, clock=10.0)
    statics = draw(st.lists(st.one_of(FACTS.map(lambda f: f.term), GROUND), max_size=2))
    terms = [f.term for f in facts] + statics
    pool = EmotionPool(
        tuple(
            EmotionStructure(draw(TYPES), 6.0, draw(st.one_of(st.just(NIL), ATOMS)), draw(st.sampled_from(terms)), DECAY, 0.0)
            for _ in range(draw(st.integers(0, 3)))
        )
    )
    return pool, board, statics, draw(st.lists(rules(terms), min_size=1, max_size=4))


def _keyed_rules(rules_: list[EmotionRule]) -> list[EmotionRule]:
    return [replace(r, preconditions=tuple(map(keyed, r.preconditions))) for r in rules_]


def _raw(terms) -> tuple:
    return tuple(t.term if isinstance(t, Form) else t for t in terms)


def _pool_text(pool: EmotionPool) -> list[tuple]:
    return [
        (s.type, s.base_intensity, to_text(s.target), to_text(s.cause), s.created_at)
        for s in pool.structures
    ]


@given(rule_problems())
@settings(max_examples=200, deadline=None)
def test_apply_rules_leaves_the_oracles_pool(problem):
    pool, board, statics, rule_list = problem
    got = apply_rules(pool, board, [keyed(s) for s in statics], _keyed_rules(rule_list), 11.0)
    expected = oracle.apply_rules(pool, board, statics, rule_list, 11.0)
    assert _pool_text(got) == _pool_text(expected)


def test_apply_rules_matches_the_oracle_over_the_demo_replay(demo_profile, demo_style):
    state = initial_state()
    updates = parse_game_log((DEMO / "game.log").read_text(encoding="utf-8"))
    rules_ = demo_profile.emotion_rules
    raw_rules = [replace(r, preconditions=_raw(r.preconditions)) for r in rules_]
    raw_statics = _raw(demo_profile.statics)
    for update in driver_ticks(updates, 1.0):
        board, now = apply_tick(state.board, update), update.tick_time
        got = apply_rules(state.pool, board, demo_profile.statics, rules_, now)
        expected = oracle.apply_rules(state.pool, board, raw_statics, raw_rules, now)
        assert _pool_text(got) == _pool_text(expected)
        state, _ = step(state, update, demo_profile, demo_style)


def test_later_rules_match_the_views_earlier_rules_added_and_the_headless_statics():
    go = read_one("(go k: 1)")
    rule_list = [
        EmotionRule((go,), (EmotionSchema("happiness", 5.0, NIL, go, DECAY),)),
        EmotionRule(
            (read_one("(type: happiness cause: ?c)"),),
            (EmotionSchema("interest", 5.0, NIL, Symbol("?c"), DECAY),),
        ),
        EmotionRule((read_one("(k: ?x)"),), (EmotionSchema("surprise", 5.0, NIL, read_one("(k: ?x)"), DECAY),)),
    ]
    board, statics = board_of(fact_of("(go k: 1)", 5.0)), [read_one("(k: 2)")]
    got = apply_rules(EmotionPool(), board, [keyed(s) for s in statics], _keyed_rules(rule_list), 1.0)
    assert [(s.type, to_text(s.cause)) for s in got.structures] == [
        ("happiness", "(go k: 1)"),
        ("interest", "(go k: 1)"),
        ("surprise", "(k: 2)"),
    ]
    assert _pool_text(got) == _pool_text(oracle.apply_rules(EmotionPool(), board, statics, rule_list, 1.0))


# the firing plan: a rule with a precondition of no candidate skips the matcher,
# an addition is built only when new, and the views follow each change


def _counted_match_all(monkeypatch) -> list:
    calls = []

    def counted(*args):
        calls.append(args)
        return match_all(*args)

    monkeypatch.setattr(emotions, "match_all", counted)
    return calls


def test_a_view_added_in_a_firing_lets_a_later_rule_bind_though_no_headless_bucket_began_it(monkeypatch):
    go = read_one("(go k: 1)")
    rule_list = [
        EmotionRule((read_one("(type: interest)"),), (EmotionSchema("fear", 5.0, NIL, go, DECAY),)),
        EmotionRule((go,), (EmotionSchema("happiness", 5.0, NIL, go, DECAY),)),
        EmotionRule(
            (read_one("(type: happiness cause: ?c)"),),
            (EmotionSchema("interest", 5.0, NIL, Symbol("?c"), DECAY),),
        ),
    ]
    board = board_of(fact_of("(go k: 1)", 5.0))
    assert None not in rule_universe(board, [], EmotionPool()).by_shape
    calls = _counted_match_all(monkeypatch)
    got = apply_rules(EmotionPool(), board, [], _keyed_rules(rule_list), 1.0)
    assert [(s.type, to_text(s.cause)) for s in got.structures] == [("happiness", "(go k: 1)"), ("interest", "(go k: 1)")]
    assert len(calls) == 2  # the first rule found no view to read
    assert _pool_text(got) == _pool_text(oracle.apply_rules(EmotionPool(), board, [], rule_list, 1.0))


def test_a_deletion_alone_empties_the_bucket_a_later_rule_scans(monkeypatch):
    go = read_one("(go k: 1)")
    rule_list = [
        EmotionRule((go,), deletions=((kw("type"), Symbol("happiness")),)),
        EmotionRule(
            (read_one("(type: happiness cause: ?c)"),),
            (EmotionSchema("interest", 5.0, NIL, Symbol("?c"), DECAY),),
        ),
    ]
    pool = EmotionPool((EmotionStructure("happiness", 6.0, NIL, go, DECAY, 0.0),))
    board = board_of(fact_of("(go k: 1)", 5.0))
    calls = _counted_match_all(monkeypatch)
    got = apply_rules(pool, board, [], _keyed_rules(rule_list), 1.0)
    assert got.structures == () and got.mark is None
    assert len(calls) == 1  # the view the second rule would read is gone
    assert _pool_text(got) == _pool_text(oracle.apply_rules(pool, board, [], rule_list, 1.0))


def test_a_firing_that_only_re_derives_its_views_builds_no_structure(monkeypatch):
    go = read_one("(go k: 1)")
    rule_list = [
        EmotionRule((go,), (EmotionSchema("happiness", 5.0, NIL, go, DECAY),)),
        EmotionRule(
            (read_one("(type: happiness cause: ?c)"),),
            (EmotionSchema("happiness", 5.0, NIL, Symbol("?c"), DECAY),),
        ),
    ]
    board = board_of(fact_of("(go k: 1)", 5.0))
    held = EmotionPool((EmotionStructure("happiness", 6.0, NIL, go, DECAY, 0.0),))
    expected = oracle.apply_rules(held, board, [], rule_list, 1.0)
    built = []

    def counted(*args):
        built.append(args)
        return EmotionStructure(*args)

    monkeypatch.setattr(emotions, "EmotionStructure", counted)
    keyed_rules = _keyed_rules(rule_list)
    got = apply_rules(held, board, [], keyed_rules, 1.0)
    assert built == [] and got.structures is held.structures and got.mark is not None
    assert _pool_text(got) == _pool_text(expected)
    assert len(apply_rules(EmotionPool(), board, [], keyed_rules, 1.0).structures) == len(built) == 1


def test_a_rule_derives_the_shapes_of_its_preconditions_but_bare_variables():
    rule = EmotionRule(tuple(keyed(read_one(t)) for t in ["(p k: ?x)", "?y", "(type: fear)", "(p m: 1)", "(1 ?y)"]))
    assert rule.shapes == (Symbol("p"), None, Symbol("p"), ())
    raw = EmotionRule((read_one("(p k: ?x)"),))  # as the oracle takes it
    assert raw.shapes == (Symbol("p"),)
    assert replace(raw, preconditions=(keyed(read_one("(q k: ?x)")),)).shapes == (Symbol("q"),)
    assert EmotionSchema("fear", 5.0, NIL, NIL, DECAY).symbol == Symbol("fear")


# `apply_rules` skips firing a pool marked by a firing that changed nothing,
# over the same board identities, statics and rules

DECAYS = st.sampled_from([DECAY, DecayFunction("linear", 0.3), DecayFunction("reciprocal")])


@st.composite
def tick_problems(draw):
    """A profile's rules and statics, a starting pool, and tick updates whose
    boards cycle through a few identity sets while the pool decays."""
    facts = draw(st.lists(FACTS, min_size=1, max_size=4, unique_by=lambda f: f.identity))
    statics = draw(st.lists(GROUND, max_size=1))
    terms = [f.term for f in facts] + statics
    # the loader's own check: a rule feeding on its own views would nest the pool one level
    # deeper on every tick, and each firing would be slower than the last
    grounded = rules(terms).filter(lambda r: not self_feeding(r.preconditions, r.additions))
    rule_list = draw(st.lists(grounded, min_size=1, max_size=4))
    rule_list = [
        replace(r, additions=tuple(replace(a, decay=draw(DECAYS)) for a in r.additions))
        for r in rule_list
    ]
    if draw(st.booleans()):  # one rule deletes what a later one re-adds
        kind, cause = draw(TYPES), facts[0].term
        rule_list += [
            EmotionRule((cause,), deletions=((kw("type"), Symbol(kind)),)),
            EmotionRule((cause,), (EmotionSchema(kind, 5.0, NIL, cause, draw(DECAYS)),)),
        ]
    if draw(st.booleans()):  # a rule that reads the pool: one emotion stirs another
        seen, stirred = draw(TYPES), draw(TYPES)
        view = (kw("type"), Symbol(seen), kw("cause"), Symbol("?c"))
        schema = EmotionSchema(stirred, 5.0, NIL, Symbol("?c"), draw(DECAYS))
        rule_list.insert(draw(st.integers(0, len(rule_list))), EmotionRule((view,), (schema,)))
    pool = EmotionPool(
        tuple(
            EmotionStructure(draw(TYPES), 6.0, draw(st.one_of(st.just(NIL), ATOMS)), draw(st.sampled_from(terms)), draw(DECAYS), 0.0)
            for _ in range(draw(st.integers(0, 3)))
        )
    )
    boards = draw(st.lists(st.frozensets(st.sampled_from(facts)), min_size=1, max_size=3))
    updates, present, now = [], frozenset(), 0.0
    for _ in range(draw(st.integers(2, 12))):
        now += draw(st.sampled_from([0.5, 1.0, 3.0]))
        wanted = draw(st.sampled_from([present, *boards]))  # often the board as it stands
        joining = wanted if draw(st.booleans()) else wanted - present  # all of them re-scores
        listed = [replace(f, relevance=draw(st.sampled_from([1.0, 5.0]))) for f in joining]
        listed += [replace(f, relevance=0.5) for f in present - wanted]  # below 1: purged
        updates.append(TickUpdate(now, tuple(listed)))
        present = wanted
    return pool, statics, rule_list, updates


def _step_pools(pool, statics, rule_list, updates, style):
    """Each tick's pool from `step`, beside the oracle's firing and decay."""
    profile = CharacterProfile(statics=tuple(map(keyed, statics)), emotion_rules=tuple(_keyed_rules(rule_list)))
    state, expected = replace(initial_state(), pool=pool), pool
    for update in updates:
        board_before = state.board
        state, _ = step(state, update, profile, style)
        now = update.tick_time
        fired = oracle.apply_rules(expected, apply_tick(board_before, update), statics, rule_list, now)
        expected = decay_pool(fired, now)
        yield state.pool, expected


@given(tick_problems())
@settings(max_examples=300, deadline=None)
def test_step_with_skipped_firing_leaves_the_oracles_pools(minimal_style, problem):
    for got, expected in _step_pools(*problem, minimal_style):
        assert _pool_text(got) == _pool_text(expected)


def test_a_pool_equal_under_eq_but_not_the_same_objects_is_fired_again(minimal_style):
    # Symbol a == "a", so the two structures compare equal; the rule swaps the string cause for the symbol
    symbol = EmotionStructure("happiness", 5.0, NIL, read_one("(q k: a)"), DECAY, 1.0)
    string = replace(symbol, cause=read_one('(q k: "a")'))
    assert string == symbol
    swap = EmotionRule(
        (keyed(read_one("(go k: 1)")),),
        (EmotionSchema("happiness", 5.0, NIL, symbol.cause, DECAY),),
        ((kw("cause"), string.cause),),
    )
    profile = CharacterProfile(emotion_rules=(swap,))
    go = TickUpdate(1.0, (fact_of("(go k: 1)", 5.0),))
    state, _ = step(replace(initial_state(), pool=EmotionPool((string,))), go, profile, minimal_style)
    (swapped,) = state.pool.structures
    assert to_text(swapped.cause) == "(q k: a)" and state.pool.mark is None  # a change, though == holds
    state, _ = step(state, TickUpdate(2.0), profile, minimal_style)
    assert state.pool.structures == (swapped,) and state.pool.structures[0] is swapped
    assert state.pool.mark is not None  # changed nothing
    state, _ = step(replace(state, pool=EmotionPool((string,))), TickUpdate(3.0), profile, minimal_style)
    assert [to_text(s.cause) for s in state.pool.structures] == ["(q k: a)"]  # fired again


def test_a_marked_pool_fires_again_under_other_identities_statics_or_rules():
    # each pair compares equal under == (Symbol a == "a") but matches differently
    symbol, string = (keyed(read_one("(s k: a)")),), (keyed(read_one('(s k: "a")')),)
    assert symbol == string

    def stir(pre):
        return (EmotionRule((pre,), (EmotionSchema("interest", 5.0, NIL, read_one("(s k: a)"), DECAY),)),)

    by_symbol, by_string = stir(symbol[0]), stir(string[0])
    assert by_symbol == by_string
    empty = FactBoard()
    marked = apply_rules(EmotionPool(), empty, string, by_symbol, 1.0)
    assert marked.structures == () and marked.mark is not None
    assert apply_rules(marked, empty, string, by_symbol, 2.0) is marked
    assert len(apply_rules(marked, empty, symbol, by_symbol, 2.0).structures) == 1
    assert len(apply_rules(marked, board_of(fact_of("(s k: a)", 5.0)), string, by_symbol, 2.0).structures) == 1
    marked = apply_rules(EmotionPool(), empty, symbol, by_string, 1.0)
    assert marked.structures == () and marked.mark is not None
    assert len(apply_rules(marked, empty, symbol, by_symbol, 2.0).structures) == 1


# a caller may edit its rules list in place between firings: the mark and the
# rule memory hold only for the profile's tuples, never for a list


def _stirring(kind: str, decay: DecayFunction = DECAY) -> EmotionRule:
    go = read_one("(go k: 1)")
    return EmotionRule((go,), (EmotionSchema(kind, 5.0, NIL, go, decay),))


def test_a_rule_appended_in_place_after_the_pool_decays_out_is_fired():
    board = board_of(fact_of("(go k: 1)", 5.0))
    statics: list = []
    raw = [_stirring("happiness", DecayFunction("reciprocal"))]
    rule_list = _keyed_rules(raw)
    decayed = decay_pool(apply_rules(EmotionPool(), board, statics, rule_list, 1.0), 100.0)
    assert decayed.structures == ()
    raw.append(_stirring("interest"))
    rule_list += _keyed_rules(raw[-1:])
    got = apply_rules(decayed, board, statics, rule_list, 100.0)
    assert [s.type for s in got.structures] == ["happiness", "interest"]
    assert _pool_text(got) == _pool_text(oracle.apply_rules(decayed, board, [], raw, 100.0))


def test_a_rule_replaced_in_place_is_fired_as_the_new_rule():
    board = board_of(fact_of("(go k: 1)", 5.0))
    statics: list = []
    raw = [_stirring("happiness")]
    rule_list = _keyed_rules(raw)
    fired = apply_rules(EmotionPool(), board, statics, rule_list, 1.0)
    raw[0] = _stirring("interest")
    rule_list[0] = _keyed_rules(raw)[0]
    got = apply_rules(fired, board, statics, rule_list, 2.0)
    assert [s.type for s in got.structures] == ["happiness", "interest"]
    assert _pool_text(got) == _pool_text(oracle.apply_rules(fired, board, [], raw, 2.0))


def test_demo_replay_fires_rules_on_fewer_ticks_and_matches_the_goldens(demo_profile, tmp_path, monkeypatch):
    starts = []

    def universe(*args):
        starts.append(args)
        return rule_universe(*args)

    monkeypatch.setattr(emotions, "rule_universe", universe)  # once per firing that is not skipped
    calls = _counted_match_all(monkeypatch)  # once per rule that could bind
    updates = parse_game_log((DEMO / "game.log").read_text(encoding="utf-8"))
    ticks = len(list(driver_ticks(updates, 1.0)))
    out = tmp_path / "demo"
    code = run_replay(DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out)
    assert code == 0
    firings = len(starts)
    assert 0 < firings < ticks
    assert len(calls) < firings * len(demo_profile.emotion_rules)
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    _, mismatch, errors = filecmp.cmpfiles(GOLDEN, out, names, shallow=False)
    assert mismatch == [] and errors == []


# keyed forms live on the board, not on the parsed facts


def _tiled_demo(tiles: int) -> tuple[TickUpdate, ...]:
    one = parse_game_log((DEMO / "game.log").read_text(encoding="utf-8"))
    span = one[-1].tick_time - one[0].tick_time + 30.0
    return tuple(TickUpdate(u.tick_time + k * span, u.facts) for k in range(tiles) for u in one)


def test_the_board_keys_each_term_once_and_keeps_it_across_re_scores(demo_profile, demo_style):
    updates = _tiled_demo(3)
    state = initial_state()
    for update in driver_ticks(updates, 1.0):
        before = state.board
        state, _ = step(state, update, demo_profile, demo_style)
        for identity, entry in state.board.entries.items():
            assert to_text(entry.form.term) == identity
            if identity in before.entries:
                assert entry.form is before.entries[identity].form  # built once, kept across re-scores
    fields = {"term", "relevance", "identity"}
    first = {}
    listed = [fact for update in _tiled_demo(1) for fact in update.facts]
    for fact in listed:
        assert set(vars(fact)) == fields
        # a re-listing shares the term and the identity its term's first listing read
        seen = first.setdefault(fact.identity, fact)
        assert fact.term is seen.term and fact.identity is seen.identity
    assert len(listed) > 2 * len(first)  # most listings re-list a term


# the rule memory: a rule whose buckets hold the same candidates (`is`, in order)
# as at its last firing reuses that firing's plan, and still runs both passes


@st.composite
def chain_problems(draw):
    """Rules, statics, a starting pool and 3-6 tick updates. The boards gain,
    re-list and drop facts; additions decay, so structures drop out; and some
    rules delete, join the pool's views, or open with a bare variable."""
    facts = draw(st.lists(FACTS, min_size=1, max_size=4, unique_by=lambda f: f.identity))
    statics = draw(st.lists(GROUND, max_size=1))
    terms = [f.term for f in facts] + statics
    grounded = rules(terms).filter(lambda r: not self_feeding(r.preconditions, r.additions))
    rule_list = draw(st.lists(grounded, max_size=3))
    rule_list = [
        replace(r, additions=tuple(replace(a, decay=draw(DECAYS)) for a in r.additions))
        for r in rule_list
    ]
    cause = draw(st.sampled_from(terms))
    kind, other = draw(TYPES), draw(TYPES)
    extras = [
        # deletes the type a later rule re-adds, by literal type or by target alone
        EmotionRule((cause,), deletions=(draw(st.sampled_from([(kw("type"), Symbol(kind)), (kw("target"), NIL)])),)),
        EmotionRule((cause,), (EmotionSchema(kind, 5.0, NIL, cause, draw(DECAYS)),)),
        # joins a view to a fact or static: one emotion stirs another
        EmotionRule(
            ((kw("type"), Symbol(kind), kw("cause"), Symbol("?c")), draw(st.sampled_from(terms).flatmap(patterns_from))),
            (EmotionSchema(other, 5.0, NIL, Symbol("?c"), draw(DECAYS)),),
        ),
        # a bare variable reads the whole universe, views included
        EmotionRule((Symbol("?v"), cause), (EmotionSchema(other, 5.0, NIL, cause, draw(DECAYS)),)),
    ]
    for extra in draw(st.lists(st.sampled_from(extras), min_size=1, max_size=4)):
        rule_list.insert(draw(st.integers(0, len(rule_list))), extra)
    pool = EmotionPool(
        tuple(
            EmotionStructure(draw(TYPES), 6.0, draw(st.one_of(st.just(NIL), ATOMS)), draw(st.sampled_from(terms)), draw(DECAYS), 0.0)
            for _ in range(draw(st.integers(0, 3)))
        )
    )
    updates, present, now = [], frozenset(), 0.0
    for _ in range(draw(st.integers(3, 6))):
        now += draw(st.sampled_from([0.5, 1.0, 3.0]))
        wanted = draw(st.frozensets(st.sampled_from(facts)) | st.just(present))
        joining = wanted if draw(st.booleans()) else wanted - present  # all of them re-listed
        listed = [replace(f, relevance=draw(st.sampled_from([1.0, 5.0]))) for f in joining]
        listed += [replace(f, relevance=0.5) for f in present - wanted]  # below 1: dropped
        updates.append(TickUpdate(now, tuple(listed)))
        present = wanted
    return pool, statics, rule_list, updates


@given(chain_problems())
@settings(max_examples=300, deadline=None)
def test_a_chain_of_firings_leaves_the_oracles_pool_after_every_tick(problem):
    pool, statics, rule_list, updates = problem
    keyed_statics, keyed_rules = tuple(map(keyed, statics)), tuple(_keyed_rules(rule_list))
    board, got, expected = FactBoard(), pool, pool
    for update in updates:
        board, now = apply_tick(board, update), update.tick_time
        got = decay_pool(apply_rules(got, board, keyed_statics, keyed_rules, now), now)
        expected = decay_pool(oracle.apply_rules(expected, board, statics, rule_list, now), now)
        assert _pool_text(got) == _pool_text(expected)


GO = read_one("(go k: 1)")
FAST = DecayFunction("linear", 0.5)  # below one two seconds in from 5


def _fired(pool, board, statics, rule_list, now, calls):
    """`apply_rules` then `decay_pool`, with the number of matcher calls the firing made."""
    before = len(calls)
    out = decay_pool(apply_rules(pool, board, statics, rule_list, now), now)
    return out, len(calls) - before


def test_a_recalled_plan_re_adds_a_structure_that_decayed_out(monkeypatch):
    rule_list = tuple(_keyed_rules([EmotionRule((GO,), (EmotionSchema("happiness", 5.0, NIL, GO, FAST),))]))
    board = board_of(fact_of("(go k: 1)", 5.0))
    calls = _counted_match_all(monkeypatch)
    pool, made = _fired(EmotionPool(), board, (), rule_list, 1.0, calls)
    assert [s.created_at for s in pool.structures] == [1.0] and made == 1
    pool, made = _fired(pool, board, (), rule_list, 4.0, calls)  # decayed out, so unmarked
    assert pool.structures == () and pool.mark is None
    pool, made = _fired(pool, board, (), rule_list, 5.0, calls)
    assert made == 0  # recalled
    assert [(s.type, s.created_at) for s in pool.structures] == [("happiness", 5.0)]


def test_a_recalled_plan_deletes_what_an_earlier_rule_added_in_the_same_firing(monkeypatch):
    shot = read_one("(shot k: ?x)")
    raw = [
        EmotionRule((shot,), (EmotionSchema("fear", 5.0, NIL, shot, DECAY),)),
        EmotionRule((GO,), deletions=((kw("type"), Symbol("fear")),)),
    ]
    rule_list = tuple(_keyed_rules(raw))
    board = board_of(fact_of("(go k: 1)", 5.0))
    calls = _counted_match_all(monkeypatch)
    pool, made = _fired(EmotionPool(), board, (), rule_list, 1.0, calls)
    assert pool.structures == () and made == 1
    board = apply_tick(board, TickUpdate(2.0, (fact_of("(shot k: 2)", 5.0),)))  # keeps the go fact's form
    pool, made = _fired(pool, board, (), rule_list, 2.0, calls)
    assert made == 1  # the first rule's; the second recalls its plan
    assert pool.structures == () == oracle.apply_rules(EmotionPool(), board, (), raw, 2.0).structures


def test_a_deletion_re_opens_the_view_for_a_later_rule_of_the_same_firing():
    raw = [
        EmotionRule((GO,), deletions=((kw("type"), Symbol("happiness")),)),
        EmotionRule((GO,), (EmotionSchema("happiness", 5.0, NIL, GO, DECAY),)),
    ]
    held = EmotionPool((EmotionStructure("happiness", 6.0, NIL, GO, DECAY, 0.0),))
    board = board_of(fact_of("(go k: 1)", 5.0))
    got = apply_rules(held, board, (), _keyed_rules(raw), 1.0)
    assert [(s.type, s.created_at) for s in got.structures] == [("happiness", 1.0)]
    assert _pool_text(got) == _pool_text(oracle.apply_rules(held, board, (), raw, 1.0))


def test_a_deletion_with_no_literal_type_reaches_every_type():
    by_target = EmotionRule((GO,), deletions=((kw("target"), Symbol("a1")),))
    quoted = EmotionRule((GO,), deletions=((kw("type"), "fear"),))  # a string, not the type
    held = EmotionPool(
        tuple(EmotionStructure(t, 6.0, Symbol(a), GO, DECAY, 0.0) for t in ("fear", "anger") for a in ("a1", "b1"))
    )
    board = board_of(fact_of("(go k: 1)", 5.0))
    for raw in ([by_target], [quoted]):
        got = apply_rules(held, board, (), _keyed_rules(raw), 1.0)
        assert _pool_text(got) == _pool_text(oracle.apply_rules(held, board, (), raw, 1.0))
    got = apply_rules(held, board, (), _keyed_rules([by_target]), 1.0)
    assert [(s.type, s.target) for s in got.structures] == [("fear", "b1"), ("anger", "b1")]


def test_candidates_equal_under_eq_but_not_the_same_objects_are_matched_again():
    # Symbol a == "a", so the two boards' buckets compare equal; the target tells them apart
    raw = [EmotionRule((read_one("(s k: ?x)"),), (EmotionSchema("interest", 5.0, Symbol("?x"), NIL, DECAY),))]
    rule_list = tuple(_keyed_rules(raw))
    symbol, string = fact_of("(s k: a)", 5.0), fact_of('(s k: "a")', 5.0)
    assert symbol.term == string.term
    board = board_of(symbol)
    pool = apply_rules(EmotionPool(), board, (), rule_list, 1.0)
    board = apply_tick(board, TickUpdate(2.0, (replace(symbol, relevance=0.5), string)))
    got = apply_rules(pool, board, (), rule_list, 2.0)
    assert [to_text(s.target) for s in got.structures] == ["a", '"a"']
    assert _pool_text(got) == _pool_text(oracle.apply_rules(pool, board, (), raw, 2.0))


def test_other_rules_or_statics_objects_start_with_an_empty_memory(monkeypatch):
    static = keyed(read_one("(supports team: a)"))
    pre = (keyed(read_one("(supports team: a)")), keyed(GO))
    rule_list = (EmotionRule(pre, (EmotionSchema("happiness", 5.0, NIL, GO, FAST),)),)
    statics = (static,)
    board = board_of(fact_of("(go k: 1)", 5.0))
    calls = _counted_match_all(monkeypatch)
    fired, _ = _fired(EmotionPool(), board, statics, rule_list, 1.0, calls)
    faded, _ = _fired(fired, board, statics, rule_list, 4.0, calls)
    assert faded.structures == () and faded.mark is None
    assert _fired(faded, board, statics, rule_list, 5.0, calls)[1] == 0
    assert _fired(faded, board, [static], rule_list, 5.0, calls)[1] == 1
    assert _fired(faded, board, statics, list(rule_list), 5.0, calls)[1] == 1
    # rules equal under == that bind apart: a recalled plan would add the happiness
    string = (replace(rule_list[0], preconditions=(keyed(read_one('(supports team: "a")')), keyed(GO))),)
    assert string == rule_list
    assert _fired(faded, board, statics, string, 5.0, calls)[0].structures == ()
    assert len(_fired(faded, board, statics, rule_list, 5.0, calls)[0].structures) == 1
