"""Reference log parser, for equivalence tests.

`parse_game_log` is how byrne read a game log before it read each distinct
fact term once: every line is tokenized, read and checked in full, and each
fact renders its own identity. It takes `facts.parse_game_log`'s argument, so
it can stand in for it.
"""

from __future__ import annotations

from byrne.facts import (
    GameFact,
    LogOrderError,
    LogStructureError,
    LogSyntaxError,
    TickUpdate,
    fact_from_sexpr,
)
from byrne.sexpr import SexprError, Symbol, is_keyword, keyword_name, read_one


def parse_game_log(text: str) -> tuple[TickUpdate, ...]:
    """Parse a line-oriented game log into tick updates, ascending in time.

    Lines are ``(tick <seconds>)`` headers or ``(fact <s-expr> relevance: <n>)``
    entries attached to the preceding header; ``#`` lines are comments. Each
    tick must pass the last to 9 decimals, the grid `pipeline.driver_ticks` keys by.
    """
    updates: list[TickUpdate] = []
    current: list[GameFact] | None = None
    current_time: float | None = None

    def flush() -> None:
        if current_time is not None:
            updates.append(TickUpdate(current_time, tuple(current or ())))

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            form = read_one(line)
        except SexprError as e:
            raise LogSyntaxError(str(e).split(": ", 1)[-1], line_no) from e
        if not isinstance(form, tuple) or not form or not isinstance(form[0], Symbol):
            raise LogSyntaxError("expected (tick ...) or (fact ...)", line_no)
        head = str(form[0])
        if head == "tick":
            if len(form) != 2 or not isinstance(form[1], (int, float)):
                raise LogSyntaxError("tick header needs one numeric time", line_no)
            t = float(form[1])
            if current_time is not None and round(t, 9) <= round(current_time, 9):
                raise LogOrderError(f"tick {t!r} not past {current_time!r} to 9 decimals", line_no)
            flush()
            current, current_time = [], t
        elif head == "fact":
            if current is None:
                raise LogStructureError("fact before any (tick ...) header", line_no)
            if len(form) != 4 or not is_keyword(form[2]) or keyword_name(form[2]) != "relevance":
                raise LogSyntaxError("expected (fact <s-expr> relevance: <number>)", line_no)
            if not isinstance(form[3], (int, float)):
                raise LogSyntaxError("relevance must be a number", line_no)
            current.append(fact_from_sexpr(form[1], float(form[3]), line_no))
        else:
            raise LogSyntaxError(f"unknown form ({head} ...)", line_no)
    flush()
    return tuple(updates)
