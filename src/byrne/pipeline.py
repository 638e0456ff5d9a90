"""Per-tick commentary loop and deterministic replay.

Each step applies the tick's fact updates, fires emotion rules, decays the
pool, and then speaks: an idle announcer picks the most relevant fact, renders
it through a template, layers the winning behaviors' markup on top, and splits
the merged document into outputs. A busy announcer checks whether something
more relevant has appeared; if so the running utterance is cut at its next
phrase boundary and the new one starts there.

Replays are fully deterministic: identical inputs give byte-identical output
trees. Nothing is random, so the commentary trace's header is one fixed line.
"""

from __future__ import annotations

import heapq
import logging
import math
import re
from dataclasses import dataclass, field
from itertools import count, groupby, takewhile
from pathlib import Path
from typing import Callable, Iterator, Optional

from .behaviors import activate_behaviors, arbitrate, expand
from .emotions import EmotionPool, apply_rules, decay_pool
from .errors import ByrneError
from .facts import (
    FactBoard,
    TickUpdate,
    apply_tick,
    parse_game_log,
    select_fact,
    should_interrupt,
)
from .patterns import Binding
from .profile import CharacterProfile, check_against_style, load_profile
from .seeml import Directive, Layout, OutputBundle, apply_directives, fill_guard, fill_sites
from .seeml import format_face_timeline, layout, merge_tags, verify_and_split
from .sexpr import atom
from .style import StyleFile, load_style
from .textgen import Template, UsageHistory, fill, instantiate, match_templates
from .textgen import record_usage, select_template

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
class Memos:
    """Per-fact and per-render work that one replay does once and reads on
    every repeat. All of it belongs to one profile and style: a chain stepped
    under another starts a fresh `Memos`.

    A render key is a template, its variables' texts and the directives. On a
    key's first use, `render_key` takes the tree of its (template, directives)
    pair, the body walked, merged and laid out once with its variables still
    written as `?p`, and times that layout with the key's texts in. That equals
    the full render, which instantiates the body before the walk, when no word
    trigger can read a variable: `seeml.fill_guard` tests the conditions for
    that, and says why they suffice. Any other key is rendered in full, and so
    is every key of a pair whose merge ran a variable into a neighbouring text."""

    profile: CharacterProfile
    style: StyleFile
    # board identity -> the covering (template, binding) pairs in profile
    # order, () for none: matching depends only on the fact's term and the profile.
    covering: dict = field(default_factory=dict)
    # (template id, directives) -> that pair's `PairRender`, which keeps a
    # bundle per tuple of its variables' texts: the instantiated body is a pure
    # function of the template and those plain strings, and the bundle one of
    # that body, the directives and the style.
    renders: dict = field(default_factory=dict)
    # Board identities no template covers: a fact found uncovered is never tried again.
    uncovered: set[str] = field(default_factory=set)


@dataclass
class PairRender:
    """A template and one directive tuple: the body is walked, merged and laid
    out on the first key that fits, with its variables still written as `?p`,
    and each key that fits is timed from that layout with its texts in. Which
    keys fit, and why that is exact, `seeml.fill_guard` says."""

    template: Template
    directives: tuple[Directive, ...]
    # `seeml.fill_guard` of the body's sites and the directives: None when no
    # key fills the tree, as also when the merged tree holds other variables
    # than the body: the merge, which joins the texts around an element it
    # drops, ran one into a neighbour.
    fits: Optional[Callable[[dict], bool]]
    laid: Optional[Layout] = None  # the merged tree, its variables' texts as fills
    bundles: dict = field(default_factory=dict)  # the variables' texts -> bundle

    def render(self, fills: tuple[str, ...], style: StyleFile) -> Optional[OutputBundle]:
        """The bundle of the merged tree with `fills` in, or None when that might differ from the full render."""
        table = dict(zip(self.template.variables, fills))
        if self.fits is None or not self.fits(table):
            return None
        if self.laid is None:
            merged = merge_tags(apply_directives(self.template.body, self.directives))
            sites = fill_sites(merged)
            if sites.found != self.template.sites.found:
                self.fits = None
                return None
            self.laid = layout(merged, style, sites.paths)
        return self.laid.bundle(table)


def render_key(memos: Memos, pair: PairRender, binding: Binding, fills: tuple[str, ...]) -> OutputBundle:
    """The bundle of one render key: its pair's layout timed with `fills` in
    when that is exact, else the full render of the instantiated body."""
    if (bundle := pair.render(fills, memos.style)) is not None:
        return bundle
    doc = instantiate(pair.template, binding, memos.profile.names)
    return verify_and_split(merge_tags(apply_directives(doc, pair.directives)), memos.style)


@dataclass(frozen=True)
class PipelineState:
    board: FactBoard
    pool: EmotionPool
    history: UsageHistory
    in_progress: Optional[InProgress]
    utterance_count: int = 0
    # Shared by every state of one chain stepped under one profile and style; never copied.
    memos: Optional[Memos] = field(default=None, compare=False, repr=False)


def initial_state() -> PipelineState:
    return PipelineState(FactBoard(), EmotionPool(), UsageHistory(), None)


def _begin_utterance(
    state: PipelineState, profile: CharacterProfile, style: StyleFile, start_at: float
) -> tuple[PipelineState, list[CommentaryEvent]]:
    """Start an utterance on the most relevant covered fact, if there is one."""
    board, now, memos = state.board, state.board.clock, state.memos
    if memos is None or memos.profile is not profile or memos.style is not style:
        memos = Memos(profile, style)
        state = PipelineState(board, state.pool, state.history, None, state.utterance_count, memos)
    while True:
        identity = select_fact(board, memos.uncovered)
        if identity is None:
            return state, []
        covering = memos.covering.get(identity)
        if covering is None:
            form = board.entries[identity].form
            covering = match_templates(form, profile.templates_for(form.head), profile.statics)
            memos.covering[identity] = covering
        chosen = select_template(
            covering, state.history, now, lambda_use_penalty=profile.lambda_use_penalty
        )
        if chosen is None:
            logger.warning("skipping fact with no template: %s", identity)
            memos.uncovered.add(identity)
            continue
        template, binding = chosen
        pool = state.pool
        winners = arbitrate(activate_behaviors(profile.bound_behaviors, pool, pool.levels))
        directives = expand(winners)
        pair = memos.renders.get((template.id, directives))
        if pair is None:
            pair = PairRender(template, directives, fill_guard(template.sites, directives))
            memos.renders[template.id, directives] = pair
        fills = fill(template, binding, profile.names)
        bundle = pair.bundles.get(fills)
        if bundle is None:
            bundle = pair.bundles[fills] = render_key(memos, pair, binding, fills)
        count = state.utterance_count + 1
        utterance = InProgress(
            identity, count, start_at, bundle.total_duration_ms, bundle.seg_boundaries_ms
        )
        event = CommentaryEvent(start_at, UTTERANCE_START, identity, count, bundle)
        history = record_usage(state.history, template.id, now)
        return PipelineState(board, state.pool, history, utterance, count, memos), [event]


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
    fired = apply_rules(state.pool, board, profile.statics, profile.emotion_rules, now)
    pool = decay_pool(fired, now)
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

    state = PipelineState(board, pool, state.history, current, state.utterance_count, state.memos)
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
    """The pool's `emotions.trace` lines, with the intensities `decay_pool` read at `now`."""
    return [f"{now:.3f}\t{e.trace_text}\t{v:.3f}" for e, v in zip(pool.structures, pool.levels)]


def _load(path: str | Path, load: Callable, *args):
    """`load(*args)`, or `load` of the text at `path`; a load error it raises names `path`."""
    try:
        return load(*args) if args else load(Path(path).read_text(encoding="utf-8"))
    except ByrneError as e:
        raise ByrneError(f"{path}: {e}") from e


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
    echo: bool = False,
) -> int:
    """Replay a game log and write the commentary outputs; returns the exit code.

    Exit 0 on success; 1 when an input fails to load, with the message naming
    its file, when `tick_seconds` (a number or a decimal literal) is not
    positive and finite, or when `out_dir` cannot be a directory; 2 when writing
    the outputs fails, or on an error raised in `step`, which no loaded input
    reaches.
    Outputs: per-utterance `utt-<n>.sable` and `utt-<n>.facs`, plus
    `commentary.trace` and `emotions.trace`. Utterance files in `out_dir` that
    this run does not write are deleted, so the directory holds one run; any
    other file there is left alone.
    """
    import sys

    try:
        updates = _load(log_path, parse_game_log)
        profile = _load(profile_path, load_profile)
        style = _load(style_path, load_style)
        _load(profile_path, check_against_style, profile, style)
        tick = atom(tick_seconds) if isinstance(tick_seconds, str) else tick_seconds
        ticks = driver_ticks(updates, tick)
        out = Path(out_dir)
        _check_out_dir(out)
    except (OSError, ByrneError) as e:
        print(f"commentate: load error: {e}", file=sys.stderr)
        return 1

    state = initial_state()
    commentary_lines = ["# commentary-trace v1 seed=0"]
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
        faces: dict[int, str] = {}  # id(bundle) -> its timeline; `bundles` keeps each alive
        for index, bundle in bundles:
            write(f"utt-{index}.sable", bundle.speech_script + "\n")
            face = faces.get(id(bundle))
            if face is None:
                face = faces[id(bundle)] = format_face_timeline(bundle)
            write(f"utt-{index}.facs", face)
        write("commentary.trace", "".join(line + "\n" for line in commentary_lines))
        write("emotions.trace", "".join(line + "\n" for line in emotion_lines))
    except OSError as e:
        print(f"commentate: write error: {e}", file=sys.stderr)
        return 2
    logger.info("replay wrote %d utterances to %s", len(bundles), out)
    return 0
