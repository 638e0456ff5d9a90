"""Game fact board: log parsing, per-tick relevance upkeep, fact selection.

Input logs are pre-analysed: every fact arrives already scored, and re-listing
a fact under a new score updates it in place. Entries whose relevance drops
below one are purged, so the board only ever holds facts worth mentioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from .errors import ByrneError
from .patterns import Form, is_ground, parse_keyed
from .sexpr import SexprError, Sexpr, Symbol, atom, is_keyword, keyword_name, read_one, to_text


class LogError(ByrneError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class LogSyntaxError(LogError):
    pass


class LogStructureError(LogError):
    pass


class LogOrderError(LogError):
    pass


@dataclass(frozen=True)
class GameFact:
    """One scored log fact. `fact_from_sexpr` builds it and renders `identity`,
    the canonical text of the term that the board keys by; the relevance is not
    part of it. `parse_game_log` hands a term's re-listings the `term` and
    `identity` objects of its first listing (see `_shaped`), so neither is read
    or rendered again, and `apply_tick` renders nothing."""

    term: tuple  # the ground ``(predicate key: value ...)`` form, as read
    relevance: float
    identity: str  # to_text(term)


@dataclass(frozen=True)
class BoardFact:
    form: Form  # the term, keyed when its identity joins the board and kept across re-scores
    relevance: float

    @property
    def end_time(self) -> float | None:
        end = self.form.pairs.get("endtime")
        return None if end is None else float(end)


def fact_from_sexpr(form: Sexpr, relevance: float, line: int | None = None) -> GameFact:
    split = parse_keyed(form)
    if split is None or split[0] is None:
        raise LogSyntaxError(f"not a fact form: {to_text(form)}", line)
    if not is_ground(form):
        raise LogSyntaxError(f"fact contains variables: {to_text(form)}", line)
    pairs = split[1]
    for name in ("begintime", "endtime"):
        if name in pairs and not isinstance(pairs[name], (int, float)):
            raise LogSyntaxError(f"{name} must be a number of seconds", line)
    return GameFact(form, float(relevance), to_text(form))


@dataclass(frozen=True)
class FactBoard:
    entries: dict[str, BoardFact] = field(default_factory=dict)  # by identity
    clock: float = float("-inf")


@dataclass(frozen=True)
class TickUpdate:
    tick_time: float
    facts: tuple[GameFact, ...] = ()


def _shaped(line: str) -> tuple[str, float] | None:
    """The ``<text>`` and relevance of a ``(fact <text> relevance: <n>)`` line,
    cut at its last `` relevance: ``, that holds no ``#`` and a finite decimal
    ``<n>``; None for any other line.

    Once such a line has read in full, ``<text>`` is the whole term: with no
    ``#`` there is no comment, and `` relevance: <n>)`` holds no quote, so the
    cut lies outside any string and the line ends in the tokens ``relevance:``,
    ``<n>`` and the paren that closes ``(fact``. The reader works left to right,
    so another such line with the same ``<text>`` reads the same term and
    passes the same checks.
    """
    if not (line.startswith("(fact ") and line.endswith(")")) or "#" in line:
        return None
    text, cut, number = line[6:-1].rpartition(" relevance: ")
    if not cut:
        return None
    try:
        relevance = atom(number)
    except SexprError:  # too large for a float: the full read names the line
        return None
    return (text, float(relevance)) if isinstance(relevance, (int, float)) else None


def _header_time(line: str) -> float | None:
    """The time of a ``(tick <n>)`` line whose ``<n>`` is one finite decimal
    literal, read by `atom` alone; None for any other line.

    Such an ``<n>`` holds only digits, signs, dots and exponent letters, so the
    full read of the line gives the form ``(tick <atom(n)>)`` and nothing else.
    """
    if not (line.startswith("(tick ") and line.endswith(")")):
        return None
    try:
        t = atom(line[6:-1])
    except SexprError:  # too large for a float: the full read names the line
        return None
    return float(t) if isinstance(t, (int, float)) else None


def parse_game_log(text: str) -> tuple[TickUpdate, ...]:
    """Parse a line-oriented game log into tick updates, ascending in time.

    Lines are ``(tick <seconds>)`` headers or ``(fact <s-expr> relevance: <n>)``
    entries attached to the preceding header; ``#`` lines are comments. Each
    tick must pass the last to 9 decimals, the grid `pipeline.driver_ticks` keys by.

    The analyser lists every live fact again on each tick under a new score, so
    most fact lines repeat a term already read. `read` maps the ``<text>`` of a
    line in `_shaped`'s shape to the fact that a full read of the line gave. A
    later line of that shape with the same ``<text>`` reads only its relevance,
    and shares the fact's term and identity. A header in `_header_time`'s
    shape reads its time alone. Every other line, a miss included, takes the
    full read, so each error keeps its class, message and line.
    """
    updates: list[TickUpdate] = []
    current: list[GameFact] | None = None
    current_time: float | None = None
    read: dict[str, GameFact] = {}  # a fact line's term text -> its first full read

    def flush() -> None:
        if current_time is not None:
            updates.append(TickUpdate(current_time, tuple(current or ())))

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        t = _header_time(line)
        if t is None:
            shaped = _shaped(line)  # the memo is empty before the first tick
            if shaped is not None:
                known = read.get(shaped[0])
                if known is not None:
                    current.append(GameFact(known.term, shaped[1], known.identity))
                    continue
            try:
                form = read_one(line)
            except SexprError as e:
                raise LogSyntaxError(str(e).split(": ", 1)[-1], line_no) from e
            if not isinstance(form, tuple) or not form or not isinstance(form[0], Symbol):
                raise LogSyntaxError("expected (tick ...) or (fact ...)", line_no)
            head = str(form[0])
            if head == "fact":
                if current is None:
                    raise LogStructureError("fact before any (tick ...) header", line_no)
                if len(form) != 4 or not is_keyword(form[2]) or keyword_name(form[2]) != "relevance":
                    raise LogSyntaxError("expected (fact <s-expr> relevance: <number>)", line_no)
                if not isinstance(form[3], (int, float)):
                    raise LogSyntaxError("relevance must be a number", line_no)
                fact = fact_from_sexpr(form[1], float(form[3]), line_no)
                current.append(fact)
                if shaped is not None:
                    read[shaped[0]] = fact
                continue
            if head != "tick":
                raise LogSyntaxError(f"unknown form ({head} ...)", line_no)
            if len(form) != 2 or not isinstance(form[1], (int, float)):
                raise LogSyntaxError("tick header needs one numeric time", line_no)
            t = float(form[1])
        if current_time is not None and round(t, 9) <= round(current_time, 9):
            raise LogOrderError(f"tick {t!r} not past {current_time!r} to 9 decimals", line_no)
        flush()
        current, current_time = [], t
    flush()
    return tuple(updates)


def apply_tick(board: FactBoard, update: TickUpdate) -> FactBoard:
    """Insert or re-score the update's facts, purge relevance < 1, advance the clock."""
    if update.tick_time <= board.clock:
        raise LogOrderError(
            f"tick {update.tick_time:g} does not advance past clock {board.clock:g}"
        )
    entries = dict(board.entries)
    for fact in update.facts:
        identity = fact.identity
        joined = entries.get(identity)
        form = Form(fact.term) if joined is None else joined.form
        entries[identity] = BoardFact(form, fact.relevance)
    kept = {identity: f for identity, f in entries.items() if f.relevance >= 1.0}
    return FactBoard(kept, float(update.tick_time))


def _selection_key(entry: tuple[str, BoardFact]) -> tuple:
    identity, fact = entry
    end = fact.end_time
    return (-fact.relevance, -(end if end is not None else float("-inf")), identity)


def select_fact(board: FactBoard, skipped: Collection[str] = ()) -> str | None:
    """Identity of the most relevant entry not in `skipped`; ties go to the
    latest end_time, then the smallest identity."""
    entries = [(k, f) for k, f in board.entries.items() if k not in skipped]
    if not entries:
        return None
    return min(entries, key=_selection_key)[0]


def should_interrupt(identity: str, board: FactBoard) -> bool:
    """True iff some board entry is strictly more relevant than the reported
    fact, named by its identity, is now.

    The comparison uses the reported fact's current board score; a fact that
    has been purged counts as relevance 0, so anything still worth saying wins.
    """
    current = board.entries.get(identity)
    rel = current.relevance if current is not None else 0.0
    return any(f.relevance > rel for f in board.entries.values())
