from __future__ import annotations

import filecmp
import re
import signal
import tempfile
from dataclasses import replace
from itertools import islice
from pathlib import Path
from random import Random

import hypothesis.strategies as st
import pytest
from conftest import DEMO, GOLDEN, MINIMAL_STYLE, fact_of
from hypothesis import given, settings

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
        assert err.startswith("commentate: load error: line 3: ") and error in err
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

    @pytest.mark.parametrize("num", ["²", "١٢", "+5"])
    def test_au_num_not_an_unsigned_decimal_literal_in_template_exits_1(self, tmp_path, capsys, num):
        # a signed NUM would read as a delta to the merge
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
def test_fuzzed_log_exits_0_1_or_2(log_text):
    # Tick times stay within 10^4 s of 0: a replay steps once per tick length
    # over the log's span, and writes an emotions.trace line per structure per step.
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "fuzzed.log"
        log.write_text(log_text, encoding="utf-8")
        out = Path(tmp) / "out"
        assert run_replay(log, DEMO / "announcer.profile", DEMO / "announcer.style", out) in (0, 1, 2)


# Tokens of an s-expression file: a string, a parenthesis, or an atom.
_TOKEN = re.compile(r'"(?:\\.|[^"\\])*"|[()]|[^\s()"]+')
# Replacements the demo's own tokens do not hold: numbers outside the decimal
# grammar or out of range, signed and bare speech values, and markup that fails.
_ODD_TOKENS = [
    "nan", "inf", "1e400", "-0.5", "+10", "1_0", "١٢", "0", "47", "?x", "(", ")", '""',
    '"+10%"', '"+1e400%"', '"<su><seg>?p</seg></su>"', '"<AU NUM=\\"²\\"/>"', "SPEED:",
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


@given(_mutated_profiles(), _mutated_styles(), st.sampled_from(["missing", "file", "stale"]))
@settings(max_examples=120, deadline=None)
def test_fuzzed_profile_style_and_out_exit_0_1_or_2(profile_text, style_text, out_kind):
    with tempfile.TemporaryDirectory() as tmp:
        profile, style, out = Path(tmp) / "p.profile", Path(tmp) / "s.style", Path(tmp) / "out"
        profile.write_text(profile_text, encoding="utf-8")
        style.write_text(style_text, encoding="utf-8")
        if out_kind == "file":
            out.write_text("a file\n")
        elif out_kind == "stale":
            out.mkdir()
            (out / "utt-999.facs").write_text("left over\n")
        assert run_replay(DEMO / "game.log", profile, style, out) in (0, 1, 2)


@st.composite
def _generated_replays(draw):
    """A valid generated profile, and a log of scoring facts it has templates for."""
    rng = Random(draw(st.integers(0, 10**9)))
    profile = "\n".join(to_text(form) for form in random_profile_forms(rng))
    lines, clock = [], 0
    for _ in range(draw(st.integers(1, 8))):
        clock += draw(st.integers(1, 6))
        lines.append(f"(tick {clock})")
        for team in draw(st.lists(st.sampled_from("ab"), max_size=2, unique=True)):
            lines.append(f"(fact (scores team: {team}) relevance: {draw(st.integers(1, 10))})")
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
