from __future__ import annotations

import filecmp
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import DEMO, GOLDEN, MINIMAL_STYLE, fact_of

from byrne.errors import ByrneError
from byrne.facts import TickUpdate, parse_game_log
from byrne.pipeline import (
    INTERRUPTED,
    UTTERANCE_END,
    UTTERANCE_START,
    driver_ticks,
    initial_state,
    run_replay,
    step,
)
from byrne.profile import load_profile

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
                        state = replace(state, uncovered=frozenset())
                    state, produced = step(state, update, profile, minimal_style)
                    events.extend(produced)
            warned = sum("no template" in r.getMessage() for r in caplog.records)
            return events, warned

        events, warned = replay(forget=False)
        starts = [e for e in events if e.kind == UTTERANCE_START]
        assert len(starts) >= 3 and all("move" in e.fact_identity for e in starts)
        assert warned == 1
        assert replay(forget=True) == (events, len(starts))

    def test_stale_tick_rejected(self, demo_profile, demo_style):
        state, _ = step(initial_state(), TickUpdate(5.0), demo_profile, demo_style)
        with pytest.raises(ByrneError):
            step(state, TickUpdate(5.0), demo_profile, demo_style)


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
        assert len(driver_ticks(updates, 0.5)) == 5
        assert [u.tick_time for u in driver_ticks(updates, 10.0)] == [0.0, 2.0]

    def test_non_positive_tick_rejected(self):
        with pytest.raises(ByrneError):
            driver_ticks((TickUpdate(0.0), TickUpdate(2.0)), 0.0)

    def test_empty_log(self):
        assert driver_ticks((), 1.0) == []


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

    def test_runtime_verification_error_exits_2(self, tmp_path, capsys):
        # facial mark-up over no words loads, but has no timeline to anchor to
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
        assert code == 2
        err = capsys.readouterr().err
        assert "no words to anchor a timeline" in err and "Traceback" not in err

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
