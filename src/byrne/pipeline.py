"""Per-tick commentary loop and deterministic replay.

Each step applies the tick's fact updates, fires emotion rules, decays the
pool, and then speaks: an idle announcer picks the most relevant fact, renders
it through a template, layers the winning behaviors' markup on top, and splits
the merged document into outputs. A busy announcer checks whether something
more relevant has appeared; if so the running utterance is cut at its next
phrase boundary and the new one starts there.

Replays are fully deterministic: identical inputs give byte-identical output
trees. The seed is recorded in the trace header for future stochastic
extensions but nothing consumes it yet.
"""

from __future__ import annotations

import heapq
import logging
import math
import re
from dataclasses import dataclass, replace
from itertools import count, groupby, takewhile
from pathlib import Path
from typing import Iterator, Optional

from .behaviors import activate_behaviors, arbitrate, expand
from .emotions import EmotionPool, apply_rules, decay_pool, intensity_at
from .errors import ByrneError
from .facts import (
    FactBoard,
    TickUpdate,
    apply_tick,
    parse_game_log,
    select_fact,
    should_interrupt,
)
from .profile import CharacterProfile, check_against_style, load_profile
from .seeml import OutputBundle, apply_directives, format_face_timeline, merge_tags, verify_and_split
from .sexpr import atom, to_text
from .style import StyleFile, load_style
from .textgen import CoverageError, UsageHistory, instantiate, record_usage, select_template

logger = logging.getLogger("byrne")

# Event kinds, as `commentary.trace` writes them.
UTTERANCE_START = "START"
UTTERANCE_END = "END"
INTERRUPTED = "INTERRUPT"

_UTTERANCE_FILE = re.compile(r"utt-\d+\.(sable|facs)")


@dataclass(frozen=True)
class CommentaryEvent:
    time: float  # seconds
    kind: str
    fact_identity: str
    utterance: int
    bundle: Optional[OutputBundle] = None


@dataclass(frozen=True)
class InProgress:
    identity: str  # the reported fact's board key
    index: int
    start_time: float
    duration_ms: float
    boundaries_ms: tuple[float, ...]

    def end_time(self) -> float:
        return self.start_time + self.duration_ms / 1000.0


@dataclass(frozen=True)
class PipelineState:
    board: FactBoard
    pool: EmotionPool
    history: UsageHistory
    in_progress: Optional[InProgress]
    utterance_count: int = 0
    # Board identities no template covers. Coverage depends only on the fact's
    # term and the statics, so a fact found uncovered is never tried again.
    uncovered: frozenset[str] = frozenset()


def initial_state() -> PipelineState:
    return PipelineState(FactBoard(), EmotionPool(), UsageHistory(), None)


def _begin_utterance(
    state: PipelineState, profile: CharacterProfile, style: StyleFile, start_at: float
) -> tuple[PipelineState, list[CommentaryEvent]]:
    """Start an utterance on the most relevant covered fact, if there is one."""
    board, now, uncovered = state.board, state.board.clock, state.uncovered
    while True:
        identity = select_fact(board, uncovered)
        if identity is None:
            return replace(state, uncovered=uncovered), []
        try:
            template, binding = select_template(
                board.keyed[identity],
                profile.templates_for(board.keyed[identity].head),
                state.history,
                now,
                statics=profile.statics,
                lambda_use_penalty=profile.lambda_use_penalty,
            )
        except CoverageError:
            logger.warning("skipping fact with no template: %s", identity)
            uncovered = uncovered | {identity}
            continue
        doc = instantiate(template, binding, profile.names)
        winners = arbitrate(activate_behaviors(profile.bound_behaviors, state.pool, now))
        doc = merge_tags(apply_directives(doc, expand(winners, profile.behaviors)))
        bundle = verify_and_split(doc, style)
        count = state.utterance_count + 1
        utterance = InProgress(
            identity, count, start_at, bundle.total_duration_ms, bundle.seg_boundaries_ms
        )
        event = CommentaryEvent(start_at, UTTERANCE_START, identity, count, bundle)
        state = replace(
            state,
            history=record_usage(state.history, template.id, now),
            in_progress=utterance,
            utterance_count=count,
            uncovered=uncovered,
        )
        return state, [event]


def step(
    state: PipelineState,
    update: TickUpdate,
    profile: CharacterProfile,
    style: StyleFile,
) -> tuple[PipelineState, list[CommentaryEvent]]:
    """Advance one tick; returns the new state and the events it produced."""
    events: list[CommentaryEvent] = []
    board = apply_tick(state.board, update)
    now = board.clock
    pool = decay_pool(
        apply_rules(state.pool, board, profile.statics, profile.emotion_rules, now), now
    )
    current = state.in_progress

    if current is not None and current.end_time() <= now:
        events.append(
            CommentaryEvent(current.end_time(), UTTERANCE_END, current.identity, current.index)
        )
        current = None

    start_at = now
    if current is not None and should_interrupt(current.identity, board):
        elapsed_ms = (now - current.start_time) * 1000.0
        cut = next((b for b in current.boundaries_ms if b >= elapsed_ms - 1e-6), None)
        if cut is not None:
            cut_time = current.start_time + cut / 1000.0
            events.append(
                CommentaryEvent(cut_time, INTERRUPTED, current.identity, current.index)
            )
            current = None
            start_at = cut_time

    state = replace(state, board=board, pool=pool, in_progress=current)
    if current is None:
        state, started = _begin_utterance(state, profile, style, start_at)
        events.extend(started)
    return state, events


def driver_ticks(updates: tuple[TickUpdate, ...], tick_seconds: float) -> Iterator[TickUpdate]:
    """Log updates, ascending in time, plus empty filler ticks on a uniform
    grid between them, made as the replay asks for them.

    Filler ticks let utterances start, finish, and be snapshotted between
    sparse log entries; the board itself only changes on log ticks. Of the
    ticks whose times agree to 9 decimals only one is kept: the last log
    update, else the first filler.
    """
    if isinstance(tick_seconds, str) or not 0 < tick_seconds < math.inf:
        raise ByrneError(f"tick length must be positive and finite: --tick-seconds {tick_seconds}")
    if not updates:
        return iter(())
    start, last = updates[0].tick_time, updates[-1].tick_time
    grid = takewhile(lambda t: t < last - 1e-9, (start + k * tick_seconds for k in count(1)))
    logs = {round(u.tick_time, 9): u for u in updates}
    fillers = ((round(t, 9), TickUpdate(t)) for t in grid)
    # both run in key order; on a shared key the merge puts the log update first
    merged = heapq.merge(logs.items(), fillers, key=lambda tick: tick[0])
    return (next(ticks)[1] for _, ticks in groupby(merged, key=lambda tick: tick[0]))


def _emotion_lines(pool: EmotionPool, now: float) -> list[str]:
    lines = []
    for e in pool.structures:
        target = to_text(e.target) if e.target is not None else "nil"
        lines.append(
            f"{now:.3f}\t{e.type}\t{target}\t{to_text(e.cause)}\t{intensity_at(e, now):.3f}"
        )
    return lines


def _check_out_dir(out: Path) -> None:
    """Fail at load when `out` cannot become a directory: it, or its nearest
    existing ancestor, is something else."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"output path {existing} is not a directory")


def run_replay(
    log_path: str | Path,
    profile_path: str | Path,
    style_path: str | Path,
    out_dir: str | Path,
    *,
    tick_seconds: float | str = 1.0,
    seed: int = 0,
    echo: bool = False,
) -> int:
    """Replay a game log and write the commentary outputs; returns the exit code.

    Exit 0 on success, 1 when an input fails to load, `tick_seconds` (a number
    or a decimal literal) is not positive and finite or `out_dir` cannot be a
    directory, 2 on a runtime error or when writing the outputs fails.
    Outputs: per-utterance `utt-<n>.sable` and `utt-<n>.facs`, plus
    `commentary.trace` and `emotions.trace`. Utterance files in `out_dir` that
    this run does not write are deleted, so the directory holds one run; any
    other file there is left alone.
    """
    import sys

    try:
        updates = parse_game_log(Path(log_path).read_text(encoding="utf-8"))
        profile = load_profile(Path(profile_path).read_text(encoding="utf-8"))
        style = load_style(Path(style_path).read_text(encoding="utf-8"))
        check_against_style(profile, style)
        tick = atom(tick_seconds) if isinstance(tick_seconds, str) else tick_seconds
        ticks = driver_ticks(updates, tick)
        out = Path(out_dir)
        _check_out_dir(out)
    except (OSError, ByrneError) as e:
        print(f"commentate: load error: {e}", file=sys.stderr)
        return 1

    state = initial_state()
    commentary_lines = [f"# commentary-trace v1 seed={seed}"]
    emotion_lines = ["# emotions-trace v1"]
    bundles: list[tuple[int, OutputBundle]] = []

    def record(ev: CommentaryEvent) -> None:
        line = f"{ev.time:.3f}\t{ev.kind}\t{ev.utterance}\t{ev.fact_identity}"
        commentary_lines.append(line)
        if echo:
            print(line)
        if ev.bundle is not None:
            bundles.append((ev.utterance, ev.bundle))

    try:
        for update in ticks:
            state, events = step(state, update, profile, style)
            for ev in events:
                record(ev)
            emotion_lines.extend(_emotion_lines(state.pool, state.board.clock))
        final = state.in_progress
        if final is not None:
            record(CommentaryEvent(final.end_time(), UTTERANCE_END, final.identity, final.index))
    except ByrneError as e:
        print(f"commentate: runtime error: {e}", file=sys.stderr)
        return 2

    def write(name: str, content: str) -> None:
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)

    try:
        out.mkdir(parents=True, exist_ok=True)
        written = {f"utt-{index}.{ext}" for index, _ in bundles for ext in ("sable", "facs")}
        for path in out.iterdir():
            if path.name not in written and _UTTERANCE_FILE.fullmatch(path.name) and path.is_file():
                path.unlink()
        for index, bundle in bundles:
            write(f"utt-{index}.sable", bundle.speech_script + "\n")
            write(f"utt-{index}.facs", format_face_timeline(bundle))
        write("commentary.trace", "".join(line + "\n" for line in commentary_lines))
        write("emotions.trace", "".join(line + "\n" for line in emotion_lines))
    except OSError as e:
        print(f"commentate: write error: {e}", file=sys.stderr)
        return 2
    logger.info("replay wrote %d utterances to %s", len(bundles), out)
    return 0
