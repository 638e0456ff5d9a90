from __future__ import annotations

import filecmp
import io
import re
import signal
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from itertools import islice
from pathlib import Path
from random import Random

import hypothesis.strategies as st
import pytest
from conftest import DEMO, GOLDEN, MINIMAL_STYLE, fact_of
from hypothesis import given, settings

from byrne import pipeline, textgen
from byrne.errors import ByrneError
from byrne.facts import TickUpdate, parse_game_log
from byrne.patterns import is_ground
from byrne.pipeline import (
    INTERRUPTED,
    UTTERANCE_END,
    UTTERANCE_START,
    driver_ticks,
    initial_state,
    run_replay,
    step,
)
from byrne.profile import check_against_style, load_profile
from byrne.seeml import Text, apply_directives, merge_tags, verify_and_split
from byrne.sexpr import to_text
from byrne.style import StyleError, load_style
from corpus import random_profile_forms

PAPER_TICK_FACTS = (
    fact_of(
        "(pass from: a1 to: a2 fromloc: (30 10) toloc: (20 10) begintime: 120 endtime: 125)", 10
    ),
    fact_of("(has-ball player: a2 location: (20 10))", 5),
    fact_of("(move player: b1 fromloc: (5 10) toloc: (10 10) begintime: 115 endtime: 120)", 3),
)

TINY_PROFILE = """
(template id: has-ball-line
  (pre (has-ball player: ?p))
  (text "<su><seg>?p has it</seg> <seg>holding play up nicely</seg></su>"))
(template id: pass-line
  (pre (pass from: ?x to: ?y))
  (text "<su><seg>?x finds ?y</seg></su>"))
(template id: move-line
  (pre (move player: ?p))
  (text "<su><seg>?p moves</seg></su>"))
"""


class TestStep:
    def test_worked_three_fact_tick_starts_the_pass(self, demo_profile, demo_style):
        state = initial_state()
        state, events = step(state, TickUpdate(120.0, PAPER_TICK_FACTS), demo_profile, demo_style)
        starts = [e for e in events if e.kind == UTTERANCE_START]
        assert len(starts) == 1
        assert starts[0].fact_identity.startswith("(pass from: a1 to: a2")
        assert starts[0].bundle is not None
        assert state.in_progress is not None

    def test_empty_tick_empty_pool_no_events(self, demo_profile, demo_style):
        state, events = step(initial_state(), TickUpdate(1.0), demo_profile, demo_style)
        assert events == []
        assert state.pool.structures == ()

    def test_two_tick_interruption_cuts_on_phrase_boundary(self, minimal_style):
        profile = load_profile(TINY_PROFILE)
        state = initial_state()
        state, events = step(
            state, TickUpdate(10.0, (fact_of("(has-ball player: a2)", 5),)), profile, minimal_style
        )
        (start,) = events
        boundaries = start.bundle.seg_boundaries_ms
        # 7 words at 180 wpm: phrase closes after words 3 and 7
        assert boundaries == (pytest.approx(1000.0), pytest.approx(1000.0 * 7 / 3))

        state, events = step(
            state,
            TickUpdate(11.0, (fact_of("(pass from: a1 to: a2)", 10),)),
            profile,
            minimal_style,
        )
        assert [e.kind for e in events] == [INTERRUPTED, UTTERANCE_START]
        cut, new_start = events
        assert cut.fact_identity == "(has-ball player: a2)"
        assert new_start.fact_identity == "(pass from: a1 to: a2)"
        # one second in, the first phrase has just closed: that close is the marker
        assert cut.time == pytest.approx(10.0 + boundaries[0] / 1000.0)
        assert new_start.time == cut.time

    def test_interrupting_fact_is_not_interrupted_by_equals(self, minimal_style):
        profile = load_profile(TINY_PROFILE)
        state = initial_state()
        state, _ = step(
            state, TickUpdate(1.0, (fact_of("(pass from: a1 to: a2)", 10),)), profile, minimal_style
        )
        state, events = step(
            state, TickUpdate(1.5, (fact_of("(pass from: a2 to: a3)", 10),)), profile, minimal_style
        )
        assert [e.kind for e in events if e.kind == INTERRUPTED] == []

    def test_utterance_end_event_when_duration_elapses(self, minimal_style):
        profile = load_profile(TINY_PROFILE)
        state = initial_state()
        state, events = step(
            state, TickUpdate(1.0, (fact_of("(move player: a1)", 3),)), profile, minimal_style
        )
        start_time = events[0].time
        duration = events[0].bundle.total_duration_ms
        state, events = step(state, TickUpdate(30.0), profile, minimal_style)
        ends = [e for e in events if e.kind == UTTERANCE_END]
        assert ends and ends[0].time == pytest.approx(start_time + duration / 1000.0)

    def test_fact_with_no_template_is_skipped_with_diagnostic(self, minimal_style, caplog):
        profile = load_profile(TINY_PROFILE)
        state = initial_state()
        update = TickUpdate(
            1.0,
            (fact_of("(weather condition: rain)", 9), fact_of("(move player: a1)", 3)),
        )
        with caplog.at_level("WARNING", logger="byrne"):
            state, events = step(state, update, profile, minimal_style)
        assert any("weather" in r.getMessage() for r in caplog.records)
        starts = [e for e in events if e.kind == UTTERANCE_START]
        assert len(starts) == 1 and "move" in starts[0].fact_identity

    def test_uncovered_fact_is_tried_and_reported_once(self, minimal_style, caplog):
        profile = load_profile(TINY_PROFILE)
        first = TickUpdate(
            1.0, (fact_of("(weather condition: rain)", 9), fact_of("(move player: a1)", 3))
        )
        ticks = [first, *(TickUpdate(float(t)) for t in range(2, 7))]

        def replay(forget: bool) -> tuple[list, int]:
            # `forget` drops what earlier starts learnt, as if each start were the first
            caplog.clear()
            state, events = initial_state(), []
            with caplog.at_level("WARNING", logger="byrne"):
                for update in ticks:
                    if forget:
                        state = replace(state, memos=None)
                    state, produced = step(state, update, profile, minimal_style)
                    events.extend(produced)
            warned = sum("no template" in r.getMessage() for r in caplog.records)
            return events, warned

        events, warned = replay(forget=False)
        starts = [e for e in events if e.kind == UTTERANCE_START]
        assert len(starts) >= 3 and all("move" in e.fact_identity for e in starts)
        assert warned == 1
        assert replay(forget=True) == (events, len(starts))

    def test_fact_uncovered_under_one_profile_is_spoken_under_the_next(self, minimal_style, caplog):
        # what one profile found uncovered says nothing about another profile's templates
        first = load_profile(TINY_PROFILE)
        second = load_profile(
            TINY_PROFILE
            + '(template id: wet (pre (weather condition: ?c)) (text "<su><seg>it is ?c</seg></su>"))'
        )
        weather = TickUpdate(1.0, (fact_of("(weather condition: rain)", 9),))
        with caplog.at_level("WARNING", logger="byrne"):
            state, events = step(initial_state(), weather, first, minimal_style)
        assert events == []
        assert sum("no template" in r.getMessage() for r in caplog.records) == 1
        state, events = step(state, TickUpdate(2.0), second, minimal_style)
        assert [(e.kind, e.fact_identity) for e in events] == [
            (UTTERANCE_START, "(weather condition: rain)")
        ]

    def test_stale_tick_rejected(self, demo_profile, demo_style):
        state, _ = step(initial_state(), TickUpdate(5.0), demo_profile, demo_style)
        with pytest.raises(ByrneError):
            step(state, TickUpdate(5.0), demo_profile, demo_style)


def tick_list(updates: tuple[TickUpdate, ...], tick_seconds: float) -> list[TickUpdate]:
    """The reference for `driver_ticks`: every tick built up front into one list."""
    if not updates:
        return []
    start, last = updates[0].tick_time, updates[-1].tick_time
    times: dict[float, TickUpdate] = {round(u.tick_time, 9): u for u in updates}
    k = 1
    while (t := start + k * tick_seconds) < last - 1e-9:
        key = round(t, 9)
        times.setdefault(key, TickUpdate(t))
        k += 1
    return [times[key] for key in sorted(times)]


# Gaps and tick lengths near the 9-decimal rounding, so that log and filler
# ticks share rounded times.
_NEAR = [1e-10, 3e-10, 5e-10, 1e-9, 2.5e-9]


@st.composite
def tick_logs(draw):
    """Ascending log updates, each with its own fact, and a tick length that
    keeps the grid under 2,000 ticks."""
    start = draw(st.sampled_from([0.0, 120.0]) | st.floats(-1e3, 1e3))
    gaps = draw(st.lists(st.sampled_from([*_NEAR, 0.5, 1.0]) | st.floats(1e-10, 3.0), max_size=6))
    times = [start]
    for gap in gaps:
        if times[-1] + gap > times[-1]:
            times.append(times[-1] + gap)
    updates = tuple(
        TickUpdate(t, (fact_of(f"(marker n: {i})", 5),)) for i, t in enumerate(times)
    )
    tick_seconds = draw(st.sampled_from([*_NEAR, 0.25, 1.0]) | st.floats(1e-3, 5.0))
    return updates, max(tick_seconds, (times[-1] - times[0]) / 2000)


class TestDriverTicks:
    def test_grid_fills_gaps_between_log_ticks(self):
        updates = (TickUpdate(0.0), TickUpdate(5.0))
        times = [u.tick_time for u in driver_ticks(updates, 1.0)]
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_off_grid_log_ticks_kept(self):
        updates = (TickUpdate(0.0), TickUpdate(1.5), TickUpdate(3.0))
        times = [u.tick_time for u in driver_ticks(updates, 1.0)]
        assert times == [0.0, 1.0, 1.5, 2.0, 3.0]

    def test_tick_length_flag_changes_grid(self):
        updates = (TickUpdate(0.0), TickUpdate(2.0))
        assert len(list(driver_ticks(updates, 0.5))) == 5
        assert [u.tick_time for u in driver_ticks(updates, 10.0)] == [0.0, 2.0]

    def test_non_positive_tick_rejected(self):
        with pytest.raises(ByrneError):
            driver_ticks((TickUpdate(0.0), TickUpdate(2.0)), 0.0)
        with pytest.raises(ByrneError, match="tick length must be positive"):
            driver_ticks((), 0.0)

    def test_empty_log(self):
        assert list(driver_ticks((), 1.0)) == []

    @given(tick_logs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_tick_list(self, log):
        updates, tick_seconds = log
        assert list(driver_ticks(updates, tick_seconds)) == tick_list(updates, tick_seconds)

    def test_ticks_are_built_as_the_replay_reaches_them(self):
        # the demo log spans 130 s, so a microsecond grid holds 130 million ticks
        updates = parse_game_log((DEMO / "game.log").read_text(encoding="utf-8"))

        def too_slow(signum, frame):
            raise TimeoutError("driver_ticks built more ticks than were asked for")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            first = list(islice(driver_ticks(updates, 1e-6), 5))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert first[0] is updates[0]
        assert [u.tick_time for u in first[1:]] == [k * 1e-6 for k in range(1, 5)]


class TestRunReplay:
    def test_demo_replay_succeeds_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            code = run_replay(
                DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out
            )
            assert code == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_missing_style_file_exits_1(self, tmp_path, capsys):
        code = run_replay(
            DEMO / "game.log", DEMO / "announcer.profile", tmp_path / "nope.style", tmp_path / "o"
        )
        assert code == 1
        assert "load error" in capsys.readouterr().err

    @pytest.mark.parametrize("tick_seconds", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_tick_exits_1(self, tmp_path, capsys, tick_seconds):
        out = tmp_path / "o"
        code = run_replay(
            DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out,
            tick_seconds=tick_seconds,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("commentate: load error: ") and "tick length must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, error",
        [
            ("(tick inf)", "tick header needs one numeric time"),
            ("(tick nan)", "tick header needs one numeric time"),
            ("(tick 1e400)", "number 1e400 is too large"),
            ("(fact (kickoff team: b) relevance: 1e400)", "number 1e400 is too large"),
        ],
    )
    def test_non_finite_number_in_log_exits_1(self, tmp_path, capsys, line, error):
        log = tmp_path / "g.log"
        log.write_text(f"(tick 0)\n(fact (kickoff team: a) relevance: 6)\n{line}\n")
        out = tmp_path / "o"
        assert run_replay(log, DEMO / "announcer.profile", DEMO / "announcer.style", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"commentate: load error: {log}: line 3: ") and error in err
        assert not out.exists()

    def test_ticks_equal_at_9_decimals_exit_1(self, tmp_path, capsys):
        # the driver keys ticks by their time to 9 decimals, so it would keep
        # only the second tick and drop the move fact
        log = tmp_path / "g.log"
        log.write_text(
            "(tick 1.0000000001)\n(fact (move player: a1) relevance: 3)\n"
            "(tick 1.0000000002)\n(fact (shot player: a1) relevance: 5)\n"
        )
        out = tmp_path / "o"
        assert run_replay(log, DEMO / "announcer.profile", DEMO / "announcer.style", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"commentate: load error: {log}: line 3: tick 1.0000000002 not past")
        assert "Traceback" not in err
        assert not out.exists()

    def test_broken_log_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("(fact (x y: 1) relevance: 5)\n")
        code = run_replay(
            bad, DEMO / "announcer.profile", DEMO / "announcer.style", tmp_path / "o"
        )
        assert code == 1

    def test_aural_name_missing_from_style_exits_1(self, tmp_path, capsys):
        # the profile's behavior asks for an aural event the style does not map
        profile = tmp_path / "p.profile"
        profile.write_text(
            TINY_PROFILE
            + """
(emotion-rule (pre (move player: ?p))
  (add (type: interest intensity: 5 target: ?p cause: (move player: ?p) decay: 1/t)))
(behavior id: klaxonist group: sound (motivated-by interest)
  (directives (aural klaxon (point end))))
"""
        )
        style = tmp_path / "s.style"
        style.write_text(MINIMAL_STYLE)
        log = tmp_path / "g.log"
        log.write_text("(tick 1)\n(fact (move player: a1) relevance: 5)\n")
        code = run_replay(log, profile, style, tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert "'klaxonist'" in err and "'klaxon'" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_variable_aural_name_in_a_directive_exits_1(self, tmp_path, capsys):
        # only template bodies are substituted; a directive's ?x stays the literal name
        profile = tmp_path / "p.profile"
        profile.write_text(
            TINY_PROFILE
            + """
(emotion-rule (pre (move player: ?p))
  (add (type: interest intensity: 5 target: ?p cause: (move player: ?p) decay: 1/t)))
(behavior id: howler group: sound (motivated-by interest)
  (directives (aural ?x (point end))))
"""
        )
        style = tmp_path / "s.style"
        style.write_text(MINIMAL_STYLE)
        log = tmp_path / "g.log"
        log.write_text("(tick 1)\n(fact (move player: a1) relevance: 5)\n")
        code = run_replay(log, profile, style, tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert "behavior 'howler'" in err and "'?x'" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_aural_name_in_template_body_missing_from_style_exits_1(self, tmp_path, capsys):
        profile = tmp_path / "p.profile"
        profile.write_text(
            '(template id: honker (pre (move player: ?p))'
            ' (text "<su><seg>?p runs</seg><AURAL NAME=\\"horn\\"/></su>"))\n'
        )
        style = tmp_path / "s.style"
        style.write_text(MINIMAL_STYLE)
        log = tmp_path / "g.log"
        log.write_text("(tick 1)\n(fact (move player: a1) relevance: 5)\n")
        code = run_replay(log, profile, style, tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert "template 'honker'" in err and "'horn'" in err and "[aural]" in err
        # the profile, not the style, is what names the sound
        assert err.startswith(f"commentate: load error: {profile}: template 'honker'")

    def test_facial_markup_over_no_words_exits_1(self, tmp_path, capsys):
        # facial mark-up over no words would have no timeline to anchor to
        profile = tmp_path / "p.profile"
        profile.write_text(
            '(template id: mute (pre (move player: ?p))'
            ' (text "<su><seg><AU NUM=\\"5\\" LEVEL=\\"0.5\\"/></seg></su>"))\n'
        )
        style = tmp_path / "s.style"
        style.write_text(MINIMAL_STYLE)
        log = tmp_path / "g.log"
        log.write_text("(tick 1)\n(fact (move player: a1) relevance: 5)\n")
        code = run_replay(log, profile, style, tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert f"{profile}: line 1: template 'mute' body speaks no word of its own" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "body, player, message",
        [
            ('<su><seg>?p runs</seg><AURAL NAME=\\"?p\\"/></su>', "a1", "puts ?p in <AURAL NAME>"),
            ('<su><seg>?p runs</seg><AURAL NAME=\\"?p\\"/></su>', '""', "puts ?p in <AURAL NAME>"),
            ('<su><seg><RATE SPEED=\\"?p\\">go</RATE></seg></su>', '"+1e999"', "puts ?p in <RATE SPEED>"),
            ('<su><seg><AU NUM=\\"5\\" LEVEL=\\"0.5\\">?p</AU></seg></su>', '""', "speaks no word of its own"),
            (
                '<su><seg><AU NUM=\\"5\\" LEVEL=\\"+1e308\\"><AU NUM=\\"5\\" LEVEL=\\"+1e308\\">runs</AU></AU></seg></su>',
                "a1",
                "AU LEVEL delta must lie within",
            ),
            (
                '<su><seg><RATE SPEED=\\"+1e308%\\"><RATE SPEED=\\"+1e308%\\">runs</RATE></RATE></seg></su>',
                "a1",
                "RATE SPEED delta must lie within",
            ),
        ],
        ids=["aural-bound-to-a1", "aural-bound-to-blank", "speed-bound-to-1e999", "face-over-blank",
             "au-level-deltas-sum-to-inf", "rate-speed-deltas-sum-to-inf"],
    )
    def test_markup_a_fact_value_or_a_sum_would_break_exits_1(self, tmp_path, capsys, body, player, message):
        # each of these loaded and then exited 2, or wrote markup that is not SABLE
        profile = tmp_path / "p.profile"
        profile.write_text(f'(template id: t (pre (move player: ?p)) (text "{body}"))\n')
        style = tmp_path / "s.style"
        style.write_text(MINIMAL_STYLE)
        log = tmp_path / "g.log"
        log.write_text(f"(tick 1)\n(fact (move player: {player}) relevance: 5)\n")
        assert run_replay(log, profile, style, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert f"commentate: load error: {profile}: line 1: template 't'" in err and message in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_signed_aural_name_is_looked_up_as_written(self, tmp_path):
        # the merge sums signed values, but an aural name is no amount to sum
        profile = tmp_path / "p.profile"
        profile.write_text(
            '(behavior id: b group: g (motivated-by interest) (directives (aural "+1.0" (point end))))\n'
            "(emotion-rule (pre (move player: ?p))"
            " (add (type: interest intensity: 5 cause: (move player: ?p) decay: constant)))\n"
            '(template id: t (pre (move player: ?p)) (text "<su><seg>?p runs</seg></su>"))\n'
        )
        style = tmp_path / "s.style"
        style.write_text(MINIMAL_STYLE.replace("[aural]", "[aural]\n+1.0 = sounds/plus.wav"))
        log = tmp_path / "g.log"
        log.write_text("(tick 1)\n(fact (move player: a1) relevance: 5)\n")
        assert run_replay(log, profile, style, tmp_path / "o") == 0
        sable = (tmp_path / "o" / "utt-1.sable").read_text(encoding="utf-8")
        assert sable == '<SABLE><su><seg>a1 runs</seg></su><AUDIO SRC="sounds/plus.wav"/></SABLE>\n'

    def test_stale_utterance_files_are_removed(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("utt-999.sable", "utt-999.facs", "notes.txt"):
            (out / name).write_text("left over\n")
        code = run_replay(
            DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out
        )
        assert code == 0
        assert not (out / "utt-999.sable").exists() and not (out / "utt-999.facs").exists()
        assert (out / "notes.txt").read_text() == "left over\n"
        golden = sorted(p.name for p in GOLDEN.iterdir())
        assert sorted(p.name for p in out.iterdir()) == sorted(golden + ["notes.txt"])
        match, mismatch, errors = filecmp.cmpfiles(out, GOLDEN, golden, shallow=False)
        assert mismatch == [] and errors == []

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_path_that_is_not_a_directory_exits_1(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("a file\n")
        code = run_replay(
            DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", tmp_path / out
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("commentate: load error: ") and "not a directory" in err
        assert (tmp_path / "taken").read_text() == "a file\n"

    def test_write_failure_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "commentary.trace").mkdir(parents=True)
        code = run_replay(
            DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("commentate: write error: ") and "commentary.trace" in err

    def test_percent_facial_level_in_template_exits_1(self, tmp_path, capsys):
        # verify_and_split reads EXPR/AU levels as plain numbers, so the loader rejects "%"
        profile = tmp_path / "p.profile"
        profile.write_text(
            '(template id: grinner (pre (move player: ?p))'
            ' (text "<su><seg><AU NUM=\\"12\\" LEVEL=\\"+10%\\">?p</AU> runs</seg></su>"))\n'
        )
        style = tmp_path / "s.style"
        style.write_text(MINIMAL_STYLE)
        log = tmp_path / "g.log"
        log.write_text("(tick 1)\n(fact (move player: a1) relevance: 5)\n")
        code = run_replay(log, profile, style, tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert "grinner" in err and "Traceback" not in err

    @pytest.mark.parametrize("num", ["²", "١٢", "+5"])
    def test_au_num_not_an_unsigned_decimal_literal_in_template_exits_1(self, tmp_path, capsys, num):
        # an action unit is an unsigned integer, so a signed NUM fails the load
        profile = tmp_path / "p.profile"
        profile.write_text(
            '(template id: grinner (pre (move player: ?p))'
            f' (text "<su><seg><AU NUM=\\"{num}\\">?p</AU> runs</seg></su>"))\n',
            encoding="utf-8",
        )
        style = tmp_path / "s.style"
        style.write_text(MINIMAL_STYLE)
        log = tmp_path / "g.log"
        log.write_text("(tick 1)\n(fact (move player: a1) relevance: 5)\n")
        assert run_replay(log, profile, style, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert f"template 'grinner' body: AU NUM must be an unsigned integer 1-46, got '{num}'" in err
        assert "Traceback" not in err

    @staticmethod
    def _replay_move(tmp_path, profile_text: str) -> int:
        profile = tmp_path / "p.profile"
        profile.write_text(profile_text)
        style = tmp_path / "s.style"
        style.write_text(MINIMAL_STYLE)
        log = tmp_path / "g.log"
        log.write_text("(tick 1)\n(fact (move player: a1) relevance: 5)\n")
        return run_replay(log, profile, style, tmp_path / "o")

    @staticmethod
    def _nested_profile(rates: int, directives: int) -> str:
        """A template `rates` + 2 deep, and a behavior wrapping it in `directives`
        distinct AU marks, so the merge keeps every level for the verifier."""
        opens = "".join(f'<RATE SPEED=\\"{i}\\">' for i in range(rates))
        marks = " ".join(f"(au {1 + i % 46} {(1 + i // 46) / 100:g} utterance)" for i in range(directives))
        return (
            f'(template id: deep (pre (move player: ?p)) (text "<su><seg>{opens}?p runs{"</RATE>" * rates}</seg></su>"))\n'
            "(emotion-rule (pre (move player: ?p))\n"
            "  (add (type: interest intensity: 5 target: ?p cause: (move player: ?p) decay: 1/t)))\n"
            f"(behavior id: layered group: face (motivated-by interest) (directives {marks}))\n"
        )

    def test_template_nested_beyond_the_bound_exits_1(self, tmp_path, capsys):
        deep = "<seg>" * 1500 + "?p runs" + "</seg>" * 1500
        profile = f'(template id: abyss (pre (move player: ?p)) (text "<su>{deep}</su>"))\n'
        assert self._replay_move(tmp_path, profile) == 1
        err = capsys.readouterr().err
        assert "template 'abyss' body: markup nests deeper than 200 elements" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_behavior_wrapping_markup_beyond_the_bound_exits_1(self, tmp_path, capsys):
        assert self._replay_move(tmp_path, self._nested_profile(0, 1200)) == 1
        err = capsys.readouterr().err
        assert "template 'deep' nests 2 deep and behaviors 'layered' can wrap 1200 more" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_markup_nested_to_the_bound_replays(self, tmp_path, capsys):
        # 100 template levels under 100 wrapping marks: the walks reach the bound and no further
        assert self._replay_move(tmp_path, self._nested_profile(98, 100)) == 0
        sable = (tmp_path / "o" / "utt-1.sable").read_text()
        assert sable.count("<RATE") == 98
        assert (tmp_path / "o" / "utt-1.facs").read_text().count("\tAU\t") == 100
        assert self._replay_move(tmp_path, self._nested_profile(98, 101)) == 1
        assert "can wrap 101 more levels" in capsys.readouterr().err

    def test_trace_files_and_utterance_outputs_written(self, tmp_path):
        out = tmp_path / "out"
        assert run_replay(
            DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out
        ) == 0
        trace = (out / "commentary.trace").read_text()
        assert trace.startswith("# commentary-trace v1 seed=0\n")
        starts = [line for line in trace.splitlines() if "\tSTART\t" in line]
        assert len(starts) >= 10
        for i in (1, len(starts)):
            assert (out / f"utt-{i}.sable").exists()
            assert (out / f"utt-{i}.facs").read_text().startswith("#byrne-facs v1\n")

    def test_event_times_monotone_and_emotions_never_below_one(self, tmp_path):
        out = tmp_path / "out"
        run_replay(DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out)
        times = [
            float(line.split("\t")[0])
            for line in (out / "commentary.trace").read_text().splitlines()[1:]
        ]
        assert times == sorted(times)
        for line in (out / "emotions.trace").read_text().splitlines()[1:]:
            intensity = float(line.split("\t")[-1])
            assert intensity >= 1.0


# Any text a UTF-8 style file can hold, leaning on what a .facs row or the SABLE markup could
# trip over.
_STYLE_VALUES = st.text(
    st.one_of(st.sampled_from('\t "<>&'), st.characters(codec="utf-8")), max_size=6
)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_fuzzed_style_values_fail_the_load_or_replay_cleanly(data):
    lines, section = [], ""
    for line in (DEMO / "announcer.style").read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            section = line
        elif section in ("[aural]", "[visemes]") and "=" in line:
            value = data.draw(st.none() | _STYLE_VALUES)  # None keeps the demo value
            if value is not None:
                line = f"{line.partition('=')[0]}= {value}"
        lines.append(line)
    text = "\n".join(lines) + "\n"
    try:
        load_style(text)
    except StyleError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        style, out = Path(tmp) / "fuzzed.style", Path(tmp) / "out"
        style.write_bytes(text.encode("utf-8"))
        assert run_replay(DEMO / "game.log", DEMO / "announcer.profile", style, out) == 0
        for facs in out.glob("*.facs"):
            for row in facs.read_text(encoding="utf-8").splitlines()[1:]:
                fields = row.split("\t")
                assert len(fields) == 5 and all(fields), row


# Atoms a log line can hold: numbers, spellings the reader takes as symbols
# ("nan", "inf", "1_000"), a literal too large for a float, symbols and strings.
_LOG_ATOMS = st.one_of(
    st.integers(-10**4, 10**4).map(str),
    st.floats(-1e4, 1e4).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-Infinity", "1e400", "1_000", "a", "a1", "b2", '"a"']),
)


@st.composite
def _fuzzed_logs(draw):
    """`(tick ...)` and `(fact ...)` lines, a tick first. Most lines are well
    formed: their ticks advance the clock, their facts hold symbols and small
    integers. The rest draw any atom, so ticks also come out of order or are
    not numbers."""
    lines, clock = [], 0
    for _ in range(draw(st.integers(0, 12))):
        usually = draw(st.integers(0, 7)) > 0
        if not lines or draw(st.booleans()):
            if usually:
                clock += draw(st.integers(1, 30))
                lines.append(f"(tick {clock})")
            else:
                lines.append(f"(tick {draw(_LOG_ATOMS)})")
            continue
        head = draw(st.sampled_from(["kickoff", "pass", "scores", "save", "shot", "goal"]))
        keys = st.sampled_from(["team", "player", "from", "to", "endtime"])
        term = [head]
        for key in draw(st.lists(keys, min_size=1, max_size=3, unique=True)):
            if not usually:
                term.append(f"{key}: {draw(_LOG_ATOMS)}")
            elif key == "endtime":
                term.append(f"{key}: {clock + 5}")
            else:
                term.append(f"{key}: {draw(st.sampled_from(['a', 'b', 'a1', 'b2']))}")
        relevance = draw(st.integers(0, 10)) if usually else draw(_LOG_ATOMS)
        lines.append(f"(fact ({' '.join(term)}) relevance: {relevance})")
    return "\n".join(lines) + "\n"


@given(_fuzzed_logs())
@settings(max_examples=150, deadline=None)
def test_fuzzed_log_exits_0_or_1(log_text):
    # Tick times stay within 10^4 s of 0: a replay steps once per tick length
    # over the log's span, and writes an emotions.trace line per structure per step.
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "fuzzed.log"
        log.write_text(log_text, encoding="utf-8")
        out = Path(tmp) / "out"
        assert run_replay(log, DEMO / "announcer.profile", DEMO / "announcer.style", out) in (0, 1)


# Tokens of an s-expression file: a string, a parenthesis, or an atom.
_TOKEN = re.compile(r'"(?:\\.|[^"\\])*"|[()]|[^\s()"]+')
# Replacements the demo's own tokens do not hold: numbers outside the decimal
# grammar or out of range, signed and bare speech values, deltas whose sum would
# overflow, and markup that fails: a body that speaks no word of its own, and
# one with a variable in an attribute.
_ODD_TOKENS = [
    "nan", "inf", "1e400", "-0.5", "+10", "1_0", "١٢", "0", "47", "?x", "(", ")", '""',
    '"+10%"', '"+1e400%"', "+1e308", '"+1e308"', '"+1e308%"', '"<su><seg>?p</seg></su>"',
    '"<su><seg><RATE SPEED=\\"?p\\">go</RATE></seg></su>"', '"<AU NUM=\\"²\\"/>"', "SPEED:",
]
# Style values: numbers outside the grammar or their range, and weights that fail.
_ODD_STYLE_VALUES = [
    "nan", "inf", "1e-320", "1e308", "0", "-1", "١٨٠", "1_80", "0.5", "AU12:1.2.3",
    "AU١٢:0.9", "AU99:0.5", "AU6:2", "x y", "",
]


@st.composite
def _mutated_profiles(draw):
    """The demo profile with a few tokens replaced or deleted, or any text."""
    text = (DEMO / "announcer.profile").read_text(encoding="utf-8")
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=60))
    spans = [m.span() for m in _TOKEN.finditer(text)]
    tokens = sorted({text[a:b] for a, b in spans})
    picks = draw(st.lists(st.sampled_from(spans), max_size=3, unique=True))
    for start, end in sorted(picks, reverse=True):
        new = draw(st.sampled_from(_ODD_TOKENS) | st.sampled_from(tokens) | st.just(""))
        text = text[:start] + new + text[end:]
    return text


@st.composite
def _mutated_styles(draw):
    """The demo style with a few values or lines replaced, or any text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=60))
    lines = (DEMO / "announcer.style").read_text(encoding="utf-8").splitlines()
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2, unique=True)):
        key, sep, _ = lines[i].partition("=")
        if sep and draw(st.booleans()):
            lines[i] = f"{key}= {draw(st.sampled_from(_ODD_STYLE_VALUES) | st.text(max_size=6))}"
        else:
            lines[i] = draw(st.text(st.characters(codec="utf-8"), max_size=20))
    return "\n".join(lines) + "\n"


def _blamed(profile_text: str, style_text: str) -> str | None:
    """Which input a load error names: "profile" when the profile fails to load
    or to agree with the style, "style" when the style fails, None when both load."""
    try:
        profile = load_profile(profile_text)
    except ByrneError:
        return "profile"
    try:
        style = load_style(style_text)
    except ByrneError:
        return "style"
    try:
        check_against_style(profile, style)
    except ByrneError:
        return "profile"
    return None


@given(_mutated_profiles(), _mutated_styles(), st.sampled_from(["missing", "file", "stale"]))
@settings(max_examples=120, deadline=None)
def test_fuzzed_profile_style_and_out_exit_0_or_1_naming_the_file(profile_text, style_text, out_kind):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("profile", "style", "out")}
        paths["profile"].write_text(profile_text, encoding="utf-8")
        paths["style"].write_text(style_text, encoding="utf-8")
        out = paths["out"]
        if out_kind == "file":
            out.write_text("a file\n")
        elif out_kind == "stale":
            out.mkdir()
            (out / "utt-999.facs").write_text("left over\n")
        with redirect_stderr(io.StringIO()) as err:
            code = run_replay(DEMO / "game.log", paths["profile"], paths["style"], out)
        assert code in (0, 1)
        if code == 1:
            blamed = _blamed(profile_text, style_text)
            named = f"commentate: load error: {paths[blamed]}: " if blamed else f" {out} "
            assert named in err.getvalue()


@st.composite
def _generated_replays(draw):
    """A valid generated profile, and a log of scoring and shot facts it has templates for."""
    rng = Random(draw(st.integers(0, 10**9)))
    profile = "\n".join(to_text(form) for form in random_profile_forms(rng))
    lines, clock = [], 0
    for _ in range(draw(st.integers(1, 8))):
        clock += draw(st.integers(1, 6))
        lines.append(f"(tick {clock})")
        for team in draw(st.lists(st.sampled_from("ab"), max_size=2, unique=True)):
            lines.append(f"(fact (scores team: {team}) relevance: {draw(st.integers(1, 10))})")
        for player in draw(st.lists(st.sampled_from(["a1", "a2", "b1", "b2"]), max_size=2, unique=True)):
            lines.append(f"(fact (shot player: {player}) relevance: {draw(st.integers(1, 10))})")
    return profile, "\n".join(lines) + "\n"


@given(_generated_replays(), _generated_replays())
@settings(max_examples=40, deadline=None)
def test_generated_replay_outputs_hold_their_invariants(earlier, replay):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        style = tmp / "s.style"
        style.write_text(MINIMAL_STYLE)

        def run(inputs, name: str, out: Path) -> None:
            profile, log = tmp / f"{name}.profile", tmp / f"{name}.log"
            profile.write_text(inputs[0])
            log.write_text(inputs[1])
            assert run_replay(log, profile, style, out) == 0

        # a replay into the earlier replay's directory leaves exactly what a fresh one writes
        run(earlier, "earlier", tmp / "out")
        run(replay, "replay", tmp / "out")
        run(replay, "replay", tmp / "fresh")
        names = sorted(p.name for p in (tmp / "fresh").iterdir())
        assert sorted(p.name for p in (tmp / "out").iterdir()) == names
        _, mismatch, errors = filecmp.cmpfiles(tmp / "out", tmp / "fresh", names, shallow=False)
        assert mismatch == [] and errors == []
        for facs in (tmp / "out").glob("*.facs"):
            rows = [row.split("\t") for row in facs.read_text().splitlines()[1:]]
            onsets = [int(row[0]) for row in rows]
            assert onsets == sorted(onsets)
            assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)


# Binds ?c from the pool's views, and adds and deletes by it.
_VIEW_RULE = (
    "(emotion-rule (pre (cause: ?c))"
    " (add (type: interest intensity: 3 target: ?c cause: ?c decay: 1/t))"
    " (del (type: fear cause: ?c)))"
)


@given(_generated_replays())
@settings(max_examples=40, deadline=None)
def test_stepped_pool_holds_what_the_load_guarantees(replay):
    # The replay does not check these: the loader binds every variable a rule adds or
    # deletes by in its preconditions, and apply_tick only lets the clock advance.
    profile = load_profile(replay[0] + "\n" + _VIEW_RULE)
    style = load_style(MINIMAL_STYLE)
    state = initial_state()
    for update in driver_ticks(parse_game_log(replay[1]), 1.0):
        state, _ = step(state, update, profile, style)
        for s in state.pool.structures:
            assert is_ground(s.cause) and is_ground(s.target)
            assert s.created_at <= state.board.clock


class TestInterruptionCutsInReplay:
    def test_every_cut_lies_on_a_seg_boundary(self, demo_profile, demo_style):
        updates = parse_game_log((DEMO / "game.log").read_text(encoding="utf-8"))
        state = initial_state()
        open_utterances: dict[int, tuple[float, tuple[float, ...]]] = {}
        cuts = 0
        for update in driver_ticks(updates, 1.0):
            state, events = step(state, update, demo_profile, demo_style)
            for ev in events:
                if ev.kind == UTTERANCE_START:
                    open_utterances[ev.utterance] = (ev.time, ev.bundle.seg_boundaries_ms)
                elif ev.kind == INTERRUPTED:
                    start, boundaries = open_utterances[ev.utterance]
                    offset = (ev.time - start) * 1000.0
                    assert any(abs(offset - b) < 1e-6 for b in boundaries)
                    cuts += 1
        assert cuts >= 2


# --- one match per fact, one walk per pair, one render per distinct key ---------------------


def _record_inputs(mp: pytest.MonkeyPatch) -> list:
    """Patch `pipeline` so that the returned list gets each started utterance's
    (template, binding, expanded directives, variable texts), in order."""
    inputs: list = []
    select, expand, fill = pipeline.select_template, pipeline.expand, pipeline.fill

    def selected(*args, **kwargs):
        chosen = select(*args, **kwargs)
        if chosen is not None:
            inputs.append(chosen)
        return chosen

    def expanded(*args):
        directives = tuple(expand(*args))
        inputs[-1] += (directives,)
        return directives

    def filled(*args):
        texts = fill(*args)
        inputs[-1] += (texts,)
        return texts

    mp.setattr(pipeline, "select_template", selected)
    mp.setattr(pipeline, "expand", expanded)
    mp.setattr(pipeline, "fill", filled)
    return inputs


def _key(template, _binding, directives, texts) -> tuple:
    """The render memo's key for one recorded input."""
    return template.id, texts, directives


def _record_calls(mp: pytest.MonkeyPatch, name: str) -> list:
    """Patch `pipeline.<name>` so that the returned list gets the arguments of each call."""
    calls: list = []
    original = getattr(pipeline, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    mp.setattr(pipeline, name, counted)
    return calls


def _demo_updates() -> tuple[TickUpdate, ...]:
    return parse_game_log((DEMO / "game.log").read_text(encoding="utf-8"))


def _started(mp, updates, profile, *styles) -> list:
    """(key, instantiated document, style, bundle) of each utterance one state
    chain starts, tick k stepped under `styles[k % len(styles)]`; the document
    is instantiated afresh, and each bundle is checked against a fresh render
    of it."""
    inputs = _record_inputs(mp)
    started, state = [], initial_state()
    for k, update in enumerate(driver_ticks(updates, 1.0)):
        style = styles[k % len(styles)]
        state, events = step(state, update, profile, style)
        for ev in events:
            if ev.kind == UTTERANCE_START:
                template, binding, directives, _ = entry = inputs[ev.utterance - 1]
                doc = textgen.instantiate(template, binding, profile.names)
                assert ev.bundle == verify_and_split(merge_tags(apply_directives(doc, directives)), style)
                started.append((_key(*entry), doc, style, ev.bundle))
    return started


def _leaves(nodes):
    """Every text and attribute value in and below `nodes`."""
    for node in nodes:
        if isinstance(node, Text):
            yield node.text
        else:
            yield from (value for _, value in node.attrs)
            yield from _leaves(node.children)


def test_instantiated_demo_documents_hold_only_plain_str(demo_profile, demo_style, monkeypatch):
    # A key compares texts with ==, and Symbol("a") == "a": the key is sound
    # while every text, and so every leaf, is the plain text it renders.
    rendered: list = []
    render_term = textgen.render_term

    def recorded(*args):
        rendered.append(render_term(*args))
        return rendered[-1]

    monkeypatch.setattr(textgen, "render_term", recorded)
    started = _started(monkeypatch, _demo_updates(), demo_profile, demo_style)
    assert len(started) == 48
    for (_, texts, _), doc, _, _ in started:
        leaves = list(_leaves(doc.children))
        assert leaves and all(type(leaf) is str for leaf in leaves)
        assert all(type(text) is str for text in texts)
    assert rendered and all(type(text) is str for text in rendered)


def test_each_distinct_demo_input_renders_once_per_replay(tmp_path, monkeypatch):
    inputs = _record_inputs(monkeypatch)
    renders = _record_calls(monkeypatch, "verify_and_split")
    names = sorted(p.name for p in GOLDEN.iterdir())
    for run in ("first", "second"):  # the second replay renders as many again
        inputs.clear()
        renders.clear()
        out = tmp_path / run
        assert run_replay(DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out) == 0
        assert len(renders) == len({_key(*entry) for entry in inputs}) < len(inputs) == 48
        assert sorted(p.name for p in out.iterdir()) == names
        _, mismatch, errors = filecmp.cmpfiles(GOLDEN, out, names, shallow=False)
        assert mismatch == [] and errors == []


def test_each_distinct_bundle_is_formatted_once_per_replay(tmp_path, monkeypatch):
    # an utterance whose render key was rendered before shares its bundle, and so its .facs text
    faces = _record_calls(monkeypatch, "format_face_timeline")
    renders = _record_calls(monkeypatch, "verify_and_split")
    out = tmp_path / "demo"
    assert run_replay(DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out) == 0
    names = sorted(p.name for p in out.glob("*.facs"))
    assert len(faces) == len({id(bundle) for bundle, in faces}) == len(renders) < len(names) == 48
    _, mismatch, errors = filecmp.cmpfiles(GOLDEN, out, names, shallow=False)
    assert mismatch == [] and errors == []


def test_each_demo_pair_is_walked_once_and_no_key_falls_back(demo_profile, demo_style, monkeypatch):
    # a render key walks its (template id, directives) pair's body once, and a
    # key that falls back instantiates and walks its own: the demo needs no fallback
    walked = _record_calls(monkeypatch, "apply_directives")
    instantiated = _record_calls(monkeypatch, "instantiate")
    started = _started(monkeypatch, _demo_updates(), demo_profile, demo_style)
    keys = {key for key, _, _, _ in started}
    pairs = {(template_id, directives) for template_id, _, directives in keys}
    assert instantiated == []
    assert len(walked) == len(pairs) + len(instantiated) < len(keys) < len(started) == 48
    bodies = [template.body for template in demo_profile.templates]
    assert all(any(doc is body for body in bodies) for doc, _ in walked)  # variables still unfilled


# One player's move, spoken through one behavior: a1's name varies per case,
# and a2's, "Angus", meets no trigger.
_GUARD_PROFILE = """
(names (a1 "{name}") (a2 "Angus"))
(emotion-rule (pre (move player: ?p))
  (add (type: interest intensity: 6 target: nil cause: (move player: ?p) decay: 1/t)))
(behavior id: marked group: g (motivated-by interest) (directives {directive}))
(template id: line (pre (move player: ?p)) (text "<su><seg>{phrase}</seg></su>"))
"""


@pytest.mark.parametrize(
    "phrase, directive, name, walks, fallbacks",
    [
        # the trigger wraps "the ball" once ?p is "the", but not "?p ball"
        ("?p ball rolls on", '(speech EMPH (word "the ball"))', "the", 1, 1),
        # "x x" matches the fill in the fragment "q x" leaves, " x x", but over
        # the whole text only where an overlapping match, "x x" at 2, takes it
        ("q x x ?p", '(au 4 0.6 (word "q x")) (speech EMPH (word "x x"))', "x", 1, 1),
        # a trigger equal to a fill's text
        ("?p moves on", '(au 4 0.6 (word "Kirk"))', "Kirk", 1, 1),
        # a trigger that matches inside the variable as written
        ("?p moves on", '(speech EMPH (word "p"))', "Kirk", 0, 2),
        # a <w> that spells the trigger once filled, as one text and as two
        ("<w>?p</w> moves on", '(speech EMPH (word "kirk"))', "Kirk", 1, 1),
        ("<w>?p<np>son</np></w> moves on", '(speech EMPH (word "kirkson"))', "Kirk", 1, 1),
        # the whole body, wrapped in an utterance-wide <w>, spells the trigger once filled
        ("?p</seg><seg>son", '(speech w utterance) (speech EMPH (word "kirkson"))', "Kirk", 1, 1),
        # a <w> that spells the trigger only while ?p is unfilled
        ("<w>the<np> ?p</np></w> moves on", '(speech EMPH (word "the ?p"))', "Kirk", 0, 2),
        # a trigger next to a variable reads its first character once filled
        ("one ball?p moves on", '(speech EMPH (word "ball"))', "Kirk", 0, 2),
        # a trigger that ends with a space reads the character after it
        ("?p moves on", '(speech EMPH (word "moves "))', "Kirk", 0, 2),
        # the merge drops the inner EMPH and joins ?p to "moves"
        ("?p<EMPH>moves</EMPH> on", "(speech EMPH utterance)", "Kirk", 1, 2),
        # no trigger reads a fill: both keys fill one walk
        ("?p moves on", '(speech EMPH (word "moves"))', "Kirk", 1, 0),
    ],
)
def test_a_key_a_trigger_could_read_renders_in_full(
    phrase, directive, name, walks, fallbacks, minimal_style, monkeypatch
):
    profile = load_profile(_GUARD_PROFILE.format(name=name, directive=directive, phrase=phrase))
    log = "(tick 1)\n(fact (move player: a1) relevance: 3)\n(tick 9)\n(fact (move player: a2) relevance: 5)\n(tick 12)\n"
    walked = _record_calls(monkeypatch, "apply_directives")
    instantiated = _record_calls(monkeypatch, "instantiate")
    # each bundle is checked against the full render of its instantiated body
    started = _started(monkeypatch, parse_game_log(log), profile, minimal_style)
    assert {texts for (_, texts, directives), _, _, _ in started if directives} == {(name,), ("Angus",)}
    marked = [directives for _, directives in walked if directives]
    assert (len(marked), len(instantiated)) == (walks + fallbacks, fallbacks)


def test_each_demo_fact_is_matched_once_per_replay(demo_profile, demo_style, monkeypatch):
    matched = _record_calls(monkeypatch, "match_templates")
    started = _started(monkeypatch, _demo_updates(), demo_profile, demo_style)
    facts = [to_text(form.term) for form, _, _ in matched]
    assert len(facts) == len(set(facts)) < len(started) == 48


def test_a_fresh_state_renders_anew_under_the_same_style(demo_profile, demo_style):
    for _ in range(2):  # a memo that outlived its state would render less the second time
        with pytest.MonkeyPatch.context() as mp:
            renders = _record_calls(mp, "verify_and_split")
            started = _started(mp, _demo_updates(), demo_profile, demo_style)
            assert len(renders) == len({key for key, _, _, _ in started}) < len(started)


@given(_generated_replays())
@settings(max_examples=40, deadline=None)
def test_every_generated_bundle_equals_a_fresh_render(replay):
    profile = load_profile(replay[0])
    with pytest.MonkeyPatch.context() as mp:
        _started(mp, parse_game_log(replay[1]), profile, load_style(MINIMAL_STYLE))


@given(_generated_replays())
@settings(max_examples=40, deadline=None)
def test_equal_generated_keys_give_equal_documents(replay):
    # the key's soundness: the document is a function of the template and its plain-str texts
    profile = load_profile(replay[0])
    documents: dict = {}
    with pytest.MonkeyPatch.context() as mp:
        for key, doc, _, _ in _started(mp, parse_game_log(replay[1]), profile, load_style(MINIMAL_STYLE)):
            assert all(type(text) is str for text in key[1])
            assert documents.setdefault(key[:2], doc) == doc


def test_a_second_style_on_one_chain_gets_its_own_timings(demo_profile, demo_style, monkeypatch):
    text = (DEMO / "announcer.style").read_text(encoding="utf-8")
    slow = load_style(re.sub(r"(?m)^words_per_minute = .*$", "words_per_minute = 90", text))
    started = _started(monkeypatch, _demo_updates(), demo_profile, demo_style, slow)
    durations: dict = {}
    for key, _, style, bundle in started:
        durations.setdefault(key, {})[style.words_per_minute] = bundle.total_duration_ms
    both = [d for d in durations.values() if len(d) == 2]
    assert both and all(d[90] == pytest.approx(2 * d[demo_style.words_per_minute]) for d in both)


def test_one_chain_shares_one_memos_per_profile_and_style(demo_profile, demo_style):
    states, state = [], initial_state()
    for update in driver_ticks(_demo_updates(), 1.0):
        state, _ = step(state, update, demo_profile, demo_style)
        states.append(state)
    memos = states[0].memos
    assert all(s.memos is memos for s in states)
    assert memos.profile is demo_profile and memos.style is demo_style
    assert memos.covering and memos.renders
    # an equal style loaded anew is another object, so the chain starts afresh under it
    other = load_style((DEMO / "announcer.style").read_text(encoding="utf-8"))
    state, _ = step(state, TickUpdate(state.board.clock + 1000.0), demo_profile, other)
    assert state.memos is not memos and state.memos.style is other
    assert state.memos.profile is demo_profile


def test_a_second_profile_on_one_chain_speaks_its_own_body(minimal_style):
    # same template id, same fact, same texts: only the template object tells them apart
    first = load_profile(TINY_PROFILE)
    second = load_profile(TINY_PROFILE.replace("?p moves", "?p runs on"))
    state, spoken = initial_state(), []
    for now, profile in ((1.0, first), (30.0, second), (60.0, first), (90.0, second)):
        update = TickUpdate(now, (fact_of("(move player: a1)", 3),))
        state, events = step(state, update, profile, minimal_style)
        (start,) = [e for e in events if e.kind == UTTERANCE_START]
        spoken.append(start.bundle.speech_script)
    assert ["runs on" in script for script in spoken] == [False, True, False, True]
    assert ["a1 moves" in script for script in spoken] == [True, False, True, False]
