"""Style file: the face- and voice-specific interpretation rules.

A style maps expression names to weighted action-unit sets, aural events to
sound files, and fixes the speech timing used in place of synthesizer-reported
word times. Sections are ``[expressions]``, ``[aural]``, ``[speech]``, and
``[visemes]``; only the first and third are mandatory. An unknown section or
key, a key repeated within a section, an empty value, a viseme that is not one
whitespace-free token, or a number that is not a decimal literal (`sexpr.atom`)
fails the load.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ByrneError
from .seeml import AU_MAX, AU_MIN, DEFAULT_VISEMES, EXPRESSION_NAMES
from .sexpr import Symbol, atom


class StyleError(ByrneError):
    pass


@dataclass(frozen=True)
class StyleFile:
    expressions: dict[str, tuple[tuple[int, float], ...]]
    aural: dict[str, str]
    words_per_minute: float
    break_ms: float
    visemes: dict[str, str]  # every letter class


_AU_WEIGHT = re.compile(r"AU([0-9]+):(\S+)", re.IGNORECASE)

# The keys each section accepts; None accepts any name.
_SECTIONS = {
    "expressions": EXPRESSION_NAMES,
    "aural": None,
    "speech": ("words_per_minute", "break_ms"),
    "visemes": tuple(DEFAULT_VISEMES),
}


def load_style(text: str) -> StyleFile:
    sections: dict[str, dict[str, str]] = {}
    section = ""
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise StyleError(f"line {line_no}: unknown section [{section}]")
            sections.setdefault(section, {})
            continue
        if not section:
            raise StyleError(f"line {line_no}: entry before any [section] header")
        key, sep, value = line.partition("=")
        if not sep:
            raise StyleError(f"line {line_no}: expected key = value")
        key = key.strip()
        allowed = _SECTIONS[section]
        if allowed is not None and key not in allowed:
            raise StyleError(
                f"line {line_no}: unknown key '{key}' in [{section}];"
                f" expected one of {', '.join(allowed)}"
            )
        if key in sections[section]:
            raise StyleError(f"line {line_no}: repeated key '{key}' in [{section}]")
        value = value.strip()
        if not value:
            raise StyleError(f"line {line_no}: empty value for '{key}' in [{section}]")
        # a viseme is one field of a tab-separated .facs row
        if section == "visemes" and len(value.split()) != 1:
            raise StyleError(f"line {line_no}: viseme '{key}' must be one token, got '{value}'")
        sections[section][key] = value

    for required in ("expressions", "speech"):
        if required not in sections:
            raise StyleError(f"missing section [{required}]")

    expressions: dict[str, tuple[tuple[int, float], ...]] = {}
    for name, value in sections["expressions"].items():
        weights: list[tuple[int, float]] = []
        for token in value.split():
            m = _AU_WEIGHT.fullmatch(token)
            if m is None:
                raise StyleError(f"expression '{name}': expected AU<k>:<w> terms, got '{token}'")
            au, weight = atom(m.group(1)), atom(m.group(2))
            if not AU_MIN <= au <= AU_MAX:
                raise StyleError(f"expression '{name}': AU{au} outside {AU_MIN}-{AU_MAX}")
            if isinstance(weight, Symbol) or not 0 <= weight <= 1:
                raise StyleError(f"expression '{name}': weight {m.group(2)} not a number in [0,1]")
            weights.append((au, weight))
        expressions[name] = tuple(weights)
    for required in EXPRESSION_NAMES:
        if required not in expressions:
            raise StyleError(f"style maps no action units for expression '{required}'")

    speech = sections["speech"]
    if "words_per_minute" not in speech:
        raise StyleError("speech section missing words_per_minute")
    wpm, break_ms = atom(speech["words_per_minute"]), atom(speech.get("break_ms", "300"))
    # a word or a pause lasts at most a minute, so the timeline's sums stay finite
    if isinstance(wpm, Symbol) or wpm < 1:
        raise StyleError(f"words_per_minute must be a number of at least 1, got {wpm}")
    if isinstance(break_ms, Symbol) or not 0 <= break_ms <= 60000:
        raise StyleError(f"break_ms must be a number in [0,60000], got {break_ms}")

    return StyleFile(
        expressions=expressions,
        aural=sections.get("aural", {}),
        words_per_minute=wpm,
        break_ms=break_ms,
        visemes={**DEFAULT_VISEMES, **sections.get("visemes", {})},
    )
