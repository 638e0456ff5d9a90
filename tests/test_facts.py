from __future__ import annotations

from random import Random

from dataclasses import replace

import hypothesis.strategies as st
import oracle_facts
import pytest
from conftest import board_of, fact_of
from hypothesis import given, settings

from byrne import facts
from byrne.facts import (
    FactBoard,
    LogOrderError,
    LogStructureError,
    LogSyntaxError,
    TickUpdate,
    apply_tick,
    parse_game_log,
    select_fact,
    should_interrupt,
)
from byrne.sexpr import read_one, to_text
from corpus import random_board, random_fact

PAPER_TICK = (
    "(tick 120)\n"
    "(fact (pass from: a1 to: a2 fromloc: (30 10) toloc: (20 10) "
    "begintime: 120 endtime: 125) relevance: 10)"
)


class TestParseGameLog:
    def test_worked_pass_line(self):
        updates = parse_game_log(PAPER_TICK)
        assert len(updates) == 1
        (update,) = updates
        assert update.tick_time == 120
        (fact,) = update.facts
        assert fact.term == read_one(
            "(pass from: a1 to: a2 fromloc: (30 10) toloc: (20 10) begintime: 120 endtime: 125)"
        )
        assert fact.relevance == 10
        assert board_of(fact).entries[fact.identity].end_time == 125

    def test_empty_document(self):
        assert parse_game_log("") == ()
        assert parse_game_log("# nothing but comments\n\n") == ()

    def test_three_tick_log_matches_reference_parse(self):
        log = (
            "# small fixture\n"
            "(tick 1)\n"
            "(fact (kickoff team: a) relevance: 6)\n"
            "(tick 2)\n"
            "(fact (has-ball player: a1) relevance: 4)\n"
            "(tick 5)\n"
            "(fact (pass from: a1 to: a2) relevance: 7)\n"
        )
        expected = (
            TickUpdate(1.0, (fact_of("(kickoff team: a)", 6),)),
            TickUpdate(2.0, (fact_of("(has-ball player: a1)", 4),)),
            TickUpdate(5.0, (fact_of("(pass from: a1 to: a2)", 7),)),
        )
        assert parse_game_log(log) == expected

    def test_malformed_sexpr_names_line(self):
        with pytest.raises(LogSyntaxError) as err:
            parse_game_log("(tick 1)\n(fact (pass from: a1 relevance: 3)\n")
        assert "line 2" in str(err.value)

    def test_fact_before_tick(self):
        with pytest.raises(LogStructureError):
            parse_game_log("(fact (kickoff team: a) relevance: 6)")

    def test_non_increasing_tick(self):
        with pytest.raises(LogOrderError):
            parse_game_log("(tick 5)\n(tick 5)\n")
        with pytest.raises(LogOrderError):
            parse_game_log("(tick 5)\n(tick 3)\n")
        # the replay keys ticks by their time to 9 decimals
        with pytest.raises(LogOrderError, match="line 2: "):
            parse_game_log("(tick 7)\n(tick 7.0000000004)\n")
        times = [u.tick_time for u in parse_game_log("(tick 1)\n(tick 1.000000001)\n")]
        assert times == [1.0, 1.000000001]

    def test_fact_with_variables_rejected(self):
        with pytest.raises(LogSyntaxError):
            parse_game_log("(tick 1)\n(fact (pass from: ?x to: a2) relevance: 3)\n")


# Term texts a log may list: some read to the same term (odd spacing), some hold
# `relevance:`, `)` or `#` inside a string. Then texts that fail the read or the checks.
TERM_TEXTS = [
    "(pass from: a1 to: a2)",
    "(pass  from: a1   to: a2)",
    "(move player: a1 toloc: (30 10) begintime: 1 endtime: 2.5)",
    '(say text: "a relevance: 1)")',
    '(say text: "x # y")',
    '(say text: "close ) and # relevance: 2")',
    "(say text: a)",
    '(say text: "a")',
    "(say n: 1)",
    "(say n: 1.0)",
    "(kickoff team: a)",
]
BAD_TERM_TEXTS = [
    "(pass from: ?x to: a2)",
    "(pass from: ?1x to: a2)",
    "(pass from: ? to: a2)",
    "(move player: a1 endtime: soon)",
    "(1 2)",
    "(kickoff)",
    "kickoff",
    '(say text: "unterminated)',
]
# decimal literals; then what is no finite number, or no one token
RELEVANCES = ["3", "7.25", "0.5", "12", ".5", "2E1", "+4", "1.0"]
BAD_RELEVANCES = ["1e999", "-1e999", "1_0", "nan", "x", '"4"', "?n", "1 2", ""]
SPACES = [" ", "  ", "\t"]
COMMENTS = [" # a note", " # relevance: 9)", "# (fact (kickoff) relevance: 2)"]


def _mostly(draw, usual: list, rare: list, one_in: int = 20):
    """One of `usual`, or one in `one_in` draws one of `rare`."""
    return draw(st.sampled_from(rare if draw(st.integers(1, one_in)) == 1 else usual))


@st.composite
def fact_lines(draw, texts: list) -> str:
    term = _mostly(draw, texts, BAD_TERM_TEXTS)
    relevance = _mostly(draw, RELEVANCES, BAD_RELEVANCES, 6)
    gaps = [_mostly(draw, [" "], SPACES, 6) for _ in range(3)]
    body = f"(fact{gaps[0]}{term}{gaps[1]}relevance:{gaps[2]}{relevance})"
    return _mostly(draw, [""], [" ", "\t"], 8) + body + _mostly(draw, [""], COMMENTS, 6)


# a header's time in other decimal spellings; then what is no finite number, or no one token
TIME_SPELLINGS = ["{t:.9f}", "+{t!r}", "{t!r}e0", "{t!r}E+00", "0{t!r}"]
BAD_TIMES = ["1e999", "-1e999", "nan", "inf", "1_0", "soon", '"1"', "?t", "(1)", ""]
# the time spaced, commented, or with an item beside it
ODD_HEADERS = [
    "(tick  {})", "(tick {} )", "(tick\t{})", "( tick {})", "(tick {}) # a note",
    "(tick {} # a note)", "(tick {} 2)", "(tick {} relevance: 3)", "(tick)",
]


@st.composite
def tick_headers(draw, t: float) -> str:
    time = _mostly(draw, ["{t!r}"], TIME_SPELLINGS, 4).format(t=t)
    time = _mostly(draw, [time], BAD_TIMES, 30)
    return _mostly(draw, ["(tick {})"], ODD_HEADERS, 12).format(time)


@st.composite
def game_logs(draw) -> str:
    """A few terms listed again and again, under ascending ticks; now and then
    a line the reader or the checks fail, a header in another spelling, or a
    tick out of order."""
    texts = draw(st.lists(st.sampled_from(TERM_TEXTS), min_size=1, max_size=3))
    lines = [draw(fact_lines(texts))] if draw(st.integers(1, 20)) == 1 else []  # before any tick
    t = 0
    for _ in range(draw(st.integers(1, 6))):
        # steps near the 9-decimal grid: 0 and 1e-10 break the order there, 4e-10 and
        # 6e-10 break it or not by the time before, 1e-9 keeps it and -1 breaks it
        t += _mostly(draw, [1, 0.25], [0, 1e-10, 4e-10, 6e-10, 1e-9, -1])
        lines.append(draw(tick_headers(t)))
        for _ in range(draw(st.integers(0, 4))):
            lines.append(_mostly(draw, [draw(fact_lines(texts))], ["", "# a comment"], 5))
    return "\n".join(lines)


def _typed(x):
    """A term with each atom's type beside it: 1 and 1.0, a and "a" tell apart."""
    return tuple(_typed(c) for c in x) if isinstance(x, tuple) else (type(x).__name__, x)


def _outcome(parse, log: str):
    try:
        updates = parse(log)
    except facts.LogError as e:
        return type(e), str(e)
    return [
        (u.tick_time, [(to_text(f.term), _typed(f.term), f.relevance, f.identity) for f in u.facts])
        for u in updates
    ]


class TestParseAgainstTheFullRead:
    """Only a line in `_shaped`'s shape whose term text read in full before skips the reader."""

    @settings(max_examples=400, deadline=None)
    @given(game_logs())
    def test_parse_matches_the_full_read_of_every_line(self, log):
        # an error's message names its line
        assert _outcome(parse_game_log, log) == _outcome(oracle_facts.parse_game_log, log)

    def test_a_re_listing_reads_only_its_relevance_and_shares_the_first_read(self, monkeypatch):
        reads, full_read = [], facts.read_one

        def read_one(line):
            reads.append(line)
            return full_read(line)

        monkeypatch.setattr(facts, "read_one", read_one)
        fact = "(fact (pass from: a1 to: a2) relevance: {})"
        log = f"(tick 1)\n{fact.format(5)}\n(tick 2)\n{fact.format(4.5)}"
        first, second = (u.facts[0] for u in parse_game_log(log))
        assert reads == ["(fact (pass from: a1 to: a2) relevance: 5)"]  # a plain header reads its time alone
        assert (first.relevance, second.relevance) == (5.0, 4.5)
        assert second.term is first.term and second.identity is first.identity

    def test_a_comment_after_the_fact_is_read_in_full(self):
        # its own `relevance:` is no token, and a line with a `#` never takes the memo
        log = (
            "(tick 1)\n(fact (pass from: a1) relevance: 4) # relevance: 4)\n"
            "(tick 2)\n(fact (pass from: a1) relevance: 4) # relevance: 9)\n"
        )
        assert [u.facts[0].relevance for u in parse_game_log(log)] == [4.0, 4.0]

    def test_a_re_listing_too_large_for_a_float_names_its_line(self):
        fact = "(fact (pass from: a1) relevance: {})"
        log = f"(tick 1)\n{fact.format(4)}\n(tick 2)\n{fact.format('1e999')}"
        with pytest.raises(LogSyntaxError, match="^line 4: number 1e999 is too large$"):
            parse_game_log(log)


class TestApplyTick:
    def test_rescore_below_one_purges(self):
        fact = fact_of("(pass from: a1 to: a2)", 10)
        board = board_of(fact)
        rescored = fact_of("(pass from: a1 to: a2)", 0.5)
        after = apply_tick(board, TickUpdate(1.0, (rescored,)))
        assert after.entries == {}

    def test_empty_update_only_moves_clock(self):
        fact = fact_of("(has-ball player: a2)", 5)
        board = board_of(fact)
        after = apply_tick(board, TickUpdate(9.0))
        assert after.entries == board.entries
        assert after.clock == 9.0

    def test_rescore_updates_in_place(self):
        board = board_of(fact_of("(has-ball player: a2)", 5))
        after = apply_tick(board, TickUpdate(1.0, (fact_of("(has-ball player: a2)", 7),)))
        assert len(after.entries) == 1
        assert after.entries[select_fact(after)].relevance == 7

    def test_stale_tick_rejected(self):
        board = apply_tick(FactBoard(), TickUpdate(5.0))
        with pytest.raises(LogOrderError):
            apply_tick(board, TickUpdate(5.0))

    def test_random_updates_match_bruteforce_replay(self):
        rng = Random(42)
        updates = []
        t = 0.0
        for _ in range(50):
            t += rng.uniform(0.5, 3.0)
            updates.append(TickUpdate(t, tuple(random_fact(rng) for _ in range(rng.randrange(4)))))

        board = FactBoard()
        for update in updates:
            board = apply_tick(board, update)
            # oracle: replay everything so far with plain dict bookkeeping
            reference: dict = {}
            for u in updates:
                if u.tick_time > update.tick_time:
                    break
                for f in u.facts:
                    reference[f.identity] = f
                reference = {k: f for k, f in reference.items() if f.relevance >= 1}
            got = {k: (f.form.term, f.relevance) for k, f in board.entries.items()}
            assert got == {k: (f.term, f.relevance) for k, f in reference.items()}

    def test_min_relevance_invariant(self):
        rng = Random(7)
        board = FactBoard()
        t = 0.0
        for _ in range(80):
            t += 1.0
            facts = tuple(random_fact(rng) for _ in range(rng.randrange(3)))
            low = tuple(replace(f, relevance=rng.uniform(0.0, 0.99)) for f in facts[:1])
            board = apply_tick(board, TickUpdate(t, facts + low))
            assert all(f.relevance >= 1 for f in board.entries.values())


class TestSelectFact:
    def test_worked_three_fact_board(self):
        board = board_of(
            fact_of(
                "(pass from: a1 to: a2 fromloc: (30 10) toloc: (20 10)"
                " begintime: 120 endtime: 125)",
                10,
            ),
            fact_of("(has-ball player: a2 location: (20 10))", 5),
            fact_of(
                "(move player: b1 fromloc: (5 10) toloc: (10 10) begintime: 115 endtime: 120)", 3
            ),
        )
        assert board.entries[select_fact(board)].form.head == "pass"

    def test_empty_board(self):
        assert select_fact(FactBoard()) is None

    def test_random_boards_argmax_oracle(self):
        rng = Random(99)
        for _ in range(100):
            board = random_board(rng)
            chosen = board.entries[select_fact(board)]
            assert chosen.relevance == max(f.relevance for f in board.entries.values())

    def test_scaling_argmax_invariance(self):
        rng = Random(5)
        for _ in range(50):
            board = random_board(rng)
            scale = rng.uniform(0.1, 20.0)
            scaled = FactBoard(
                {k: replace(f, relevance=f.relevance * scale) for k, f in board.entries.items()},
                board.clock,
            )
            assert select_fact(board) == select_fact(scaled)

    def test_deterministic_on_identical_boards(self):
        rng = Random(13)
        for _ in range(25):
            board = random_board(rng)
            clone = FactBoard(dict(reversed(list(board.entries.items()))), board.clock)
            assert select_fact(board) == select_fact(clone)

    def test_tie_break_prefers_latest_end_time(self):
        early = fact_of("(shot player: a1 begintime: 10 endtime: 12)", 8)
        late = fact_of("(shot player: a2 begintime: 11 endtime: 14)", 8)
        untimed = fact_of("(shot player: a3)", 8)
        assert select_fact(board_of(early, late, untimed)) == late.identity


class TestShouldInterrupt:
    def test_higher_relevance_fact_interrupts(self):
        reported = fact_of("(has-ball player: a2)", 5)
        board = board_of(reported, fact_of("(pass from: a1 to: a2)", 10))
        assert should_interrupt(reported.identity, board)

    def test_nothing_else_to_say(self):
        reported = fact_of("(has-ball player: a2)", 5)
        assert not should_interrupt(reported.identity, board_of(reported))

    def test_random_boards_exists_oracle(self):
        rng = Random(17)
        for _ in range(100):
            board = random_board(rng)
            identity, reported = rng.choice(list(board.entries.items()))
            expected = any(f.relevance > reported.relevance for f in board.entries.values())
            assert should_interrupt(identity, board) == expected

    def test_strict_maximum_never_interrupted(self):
        rng = Random(23)
        for _ in range(50):
            board = random_board(rng)
            top = select_fact(board)
            if sum(1 for f in board.entries.values() if f.relevance == board.entries[top].relevance) == 1:
                assert not should_interrupt(top, board)

    def test_rescored_reported_fact_compares_at_new_value(self):
        reported = fact_of("(has-ball player: a2)", 9)
        board = board_of(
            fact_of("(has-ball player: a2)", 2), fact_of("(move player: b1)", 3)
        )
        assert should_interrupt(reported.identity, board)

    def test_purged_reported_fact_yields_to_anything(self):
        reported = fact_of("(has-ball player: a2)", 9)
        assert should_interrupt(reported.identity, board_of(fact_of("(move player: b1)", 1)))
        assert not should_interrupt(reported.identity, FactBoard())
