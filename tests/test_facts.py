from __future__ import annotations

from random import Random

from dataclasses import replace

import pytest
from conftest import board_of, fact_of

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
from byrne.sexpr import read_one
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
            low = tuple(
                type(f)(f.term, rng.uniform(0.0, 0.99)) for f in facts[:1]
            )
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
