from __future__ import annotations

from pathlib import Path

import pytest

from byrne.facts import FactBoard, GameFact, TickUpdate, apply_tick, fact_from_sexpr
from byrne.profile import CharacterProfile, load_profile
from byrne.sexpr import read_one
from byrne.style import StyleFile, load_style

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "fixtures" / "demo"
GOLDEN = DEMO / "golden"

MINIMAL_STYLE = """
[expressions]
smile = AU6:0.6 AU12:0.9
sadness = AU1:0.8 AU15:0.7
fear = AU5:0.8 AU20:0.6
anger = AU4:0.9 AU7:0.5
disgust = AU9:0.8 AU10:0.4
surprise = AU1:0.5 AU2:0.6

[aural]
hiccup = sounds/hiccup.wav
cheer = sounds/cheer.wav

[speech]
words_per_minute = 180
"""


def fact_of(text: str, relevance: float) -> GameFact:
    return fact_from_sexpr(read_one(text), relevance)


def board_of(*facts: GameFact, clock: float = 0.0) -> FactBoard:
    """A board holding `facts`, built as the replay builds one."""
    return apply_tick(FactBoard(), TickUpdate(clock, facts))


@pytest.fixture(scope="session")
def minimal_style() -> StyleFile:
    return load_style(MINIMAL_STYLE)


@pytest.fixture(scope="session")
def demo_profile() -> CharacterProfile:
    return load_profile((DEMO / "announcer.profile").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def demo_style() -> StyleFile:
    return load_style((DEMO / "announcer.style").read_text(encoding="utf-8"))
