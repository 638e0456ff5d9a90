"""Acceptance suite: one criterion per test, one PASS line printed per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from __future__ import annotations

import filecmp
import time
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from conftest import DEMO, board_of, fact_of

from byrne.emotions import NIL, DecayFunction, EmotionPool, EmotionStructure, decay_pool, intensity_at
from byrne.behaviors import (
    ActivatedBehavior,
    BehaviorSpec,
    MotivationPattern,
    activate_behaviors,
    bind_statics,
    arbitrate,
)
from byrne.facts import FactBoard, parse_game_log, select_fact
from byrne.pipeline import INTERRUPTED, UTTERANCE_START, driver_ticks, initial_state, run_replay, step
from byrne.profile import ProfileError, load_profile
from byrne.seeml import (
    UTTERANCE,
    FacsEvent,
    merge_tags,
    parse_seeml,
    verify_and_split,
)
from byrne.sexpr import read_one
from corpus import markup, random_board, random_document
from oracle_seeml import serialize_seeml, strip_text
from test_seeml import assert_no_identical_nesting, reference_merge

GOLDEN = DEMO / "golden"


def _report(n: int, name: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {name}")


class _Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, f"took {elapsed:.2f}s, budget {self.seconds}s"


def test_criterion_1_emotion_decay_oracle():
    with _Budget(1.0):
        sadness = EmotionStructure(
            "sadness", 10.0, NIL, read_one("(scored team: a time: 125)"),
            DecayFunction("reciprocal"), 0.0,
        )
        for second in range(10):
            expected = 10.0 / max(1, second)
            assert abs(intensity_at(sadness, float(second)) - expected) < 1e-9
        assert abs(intensity_at(sadness, 10.0) - 1.0) < 1e-9
        pool = EmotionPool((sadness,))
        assert decay_pool(pool, 10.0).structures == pool.structures
        assert decay_pool(pool, 11.0).structures == ()
        assert intensity_at(sadness, 11.0) < 1.0
    _report(1, "worked decay trace exact to 1e-9; removal on the eleventh second")


def test_criterion_2_fact_selection_oracle():
    with _Budget(5.0):
        board = board_of(
            fact_of(
                "(pass from: a1 to: a2 fromloc: (30 10) toloc: (20 10)"
                " begintime: 120 endtime: 125)",
                10,
            ),
            fact_of("(has-ball player: a2 location: (20 10))", 5),
            fact_of(
                "(move player: b1 fromloc: (5 10) toloc: (10 10)"
                " begintime: 115 endtime: 120)",
                3,
            ),
            clock=120.0,
        )
        assert board.entries[select_fact(board)].form.head == "pass"

        rng = Random(2001)
        for _ in range(1000):
            board = random_board(rng)
            chosen = select_fact(board)
            assert board.entries[chosen].relevance == max(f.relevance for f in board.entries.values())
            scale = rng.uniform(0.05, 25.0)
            scaled = FactBoard(
                {k: replace(f, relevance=f.relevance * scale) for k, f in board.entries.items()},
                board.clock,
            )
            assert select_fact(scaled) == chosen
    _report(2, "worked board picks the pass; 1000-board argmax and scaling invariance")


def test_criterion_3_merge_algebra():
    with _Budget(30.0):
        rng = Random(3003)
        for _ in range(1000):
            doc = random_document(rng)
            merged = merge_tags(doc)
            assert merge_tags(merged) == merged
            assert strip_text(merged) == strip_text(doc)
            assert_no_identical_nesting(merged)
            assert merged == reference_merge(doc)
    _report(3, "1000-document merge: idempotent, text-preserving, matches ancestor-scan oracle")


def test_criterion_4_round_trip():
    with _Budget(10.0):
        rng = Random(4004)
        for _ in range(1000):
            doc = random_document(rng)
            assert parse_seeml(serialize_seeml(doc)) == doc
        profile = load_profile((DEMO / "announcer.profile").read_text(encoding="utf-8"))
        for template in profile.templates:
            assert parse_seeml(serialize_seeml(template.body)) == template.body
        for sable in sorted(GOLDEN.glob("utt-*.sable")):
            doc = parse_seeml(sable.read_text(encoding="utf-8").rstrip("\n"))
            assert parse_seeml(serialize_seeml(doc)) == doc
    _report(4, "parse/serialize fixpoint on 1000 documents plus all bundled fixtures")


def test_criterion_5_split_correctness(minimal_style):
    doc = parse_seeml('<EXPR LEVEL="1.0" NAME="smile"><su><seg>goal</seg></su></EXPR>')
    bundle = verify_and_split(doc, minimal_style)
    facs = [ev for ev in bundle.timeline if isinstance(ev, FacsEvent)]
    expected_ms = 60000.0 / minimal_style.words_per_minute
    assert [(ev.au, ev.intensity) for ev in facs] == [(6, 0.6), (12, 0.9)]
    for ev in facs:
        assert ev.onset_ms == 0.0
        assert abs(ev.duration_ms - expected_ms) <= 1.0
    assert "EXPR" not in bundle.speech_script and "<AU" not in bundle.speech_script
    reparsed = parse_seeml(bundle.speech_script)
    assert strip_text(reparsed) == "goal"
    _report(5, "smile split to AU6@0.6 and AU12@0.9 over one word; script is clean SABLE+GDA")


def test_criterion_6_arbitration():
    broad = BehaviorSpec(
        id="broad", group="face",
        motivated_by=(MotivationPattern("happiness"), MotivationPattern("interest")),
        directives=(markup("EXPR", UTTERANCE, NAME="smile", LEVEL="0.8"),),
    )
    strong = BehaviorSpec(
        id="strong", group="face", motivated_by=(MotivationPattern("anger"),),
        directives=(markup("EXPR", UTTERANCE, NAME="anger", LEVEL="0.8"),),
    )
    decay = DecayFunction("constant")
    pool = EmotionPool(
        (
            EmotionStructure("happiness", 4.0, NIL, read_one("(x y: 1)"), decay, 0.0),
            EmotionStructure("interest", 5.0, NIL, read_one("(x y: 2)"), decay, 0.0),
            EmotionStructure("anger", 8.0, NIL, read_one("(x y: 3)"), decay, 0.0),
        )
    )
    levels = [intensity_at(e, 0.0) for e in pool.structures]
    winners = arbitrate(activate_behaviors(bind_statics([broad, strong], []), pool, levels))
    assert [w.spec.id for w in winners] == ["broad"]
    assert winners[0].activation == 9.0

    rng = Random(6006)
    for _ in range(1000):
        activated = [
            ActivatedBehavior(
                BehaviorSpec(id=f"b{i}", group=rng.choice("xyz"), directives=(
                    markup("EXPR", UTTERANCE, NAME="smile", LEVEL="0.5"),
                )),
                rng.uniform(0.01, 12.0),
                (),
            )
            for i in range(rng.randrange(1, 14))
        ]
        winners = arbitrate(activated)
        seen_groups = [w.spec.group for w in winners]
        assert len(seen_groups) == len(set(seen_groups))
        for w in winners:
            assert w.activation == max(
                a.activation for a in activated if a.spec.group == w.spec.group
            )
    _report(6, "4+5 beats 8 in one group; unique per-group winners over 1000 random sets")


def test_criterion_7_end_to_end_determinism_and_golden_replay(tmp_path, demo_profile, demo_style):
    with _Budget(5.0):
        updates = parse_game_log((DEMO / "game.log").read_text(encoding="utf-8"))
        span = updates[-1].tick_time - updates[0].tick_time
        fact_count = sum(len(u.facts) for u in updates)
        assert span >= 120.0 and fact_count >= 20

        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_replay(
                DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", out
            ) == 0
        names = sorted(p.name for p in out1.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == [], "replay is not byte-deterministic"

        golden_names = sorted(p.name for p in GOLDEN.iterdir())
        assert names == golden_names
        match, mismatch, errors = filecmp.cmpfiles(out1, GOLDEN, names, shallow=False)
        assert mismatch == [] and errors == [], f"outputs differ from goldens: {mismatch}"

        state = initial_state()
        open_utterances: dict[int, tuple[float, tuple[float, ...]]] = {}
        interrupted = 0
        for update in driver_ticks(updates, 1.0):
            state, events = step(state, update, demo_profile, demo_style)
            for ev in events:
                if ev.kind == UTTERANCE_START:
                    open_utterances[ev.utterance] = (ev.time, ev.bundle.seg_boundaries_ms)
                elif ev.kind == INTERRUPTED:
                    start, boundaries = open_utterances[ev.utterance]
                    offset = (ev.time - start) * 1000.0
                    assert any(abs(offset - b) < 1e-6 for b in boundaries)
                    interrupted += 1
        assert interrupted >= 1
    _report(7, "demo replay byte-identical twice, matches goldens, cuts on seg boundaries")


def test_criterion_8_profile_validation():
    cases = {
        "cycle": (
            "(behavior id: spin group: g (motivated-by fear) (children whirl))\n"
            "(behavior id: whirl group: g (children spin))",
            "cycle",
        ),
        "dangling child": (
            "(behavior id: solo group: g (motivated-by fear) (children ghost))",
            "ghost",
        ),
        "unbound variable": (
            "(emotion-rule (pre (scores team: ?t))"
            " (add (type: happiness intensity: 8 target: ?other"
            " cause: (scores team: ?t) decay: 1/t)))",
            "?other",
        ),
        "unknown expression": (
            "(behavior id: smirker group: face (motivated-by happiness)"
            " (directives (expr smirk 0.5 utterance)))",
            "smirk",
        ),
        "duplicate id": (
            "(behavior id: beam group: face (motivated-by happiness)"
            " (directives (expr smile 0.5 utterance)))\n"
            "(behavior id: beam group: voice (motivated-by fear)"
            " (directives (au 4 0.5 utterance)))",
            "beam",
        ),
    }
    for label, (text, offender) in cases.items():
        with pytest.raises(ProfileError) as err:
            load_profile(text)
        assert any(offender in d for d in err.value.diagnostics), (label, err.value.diagnostics)
    _report(8, "every invariant violation class rejected with a diagnostic naming the offender")
