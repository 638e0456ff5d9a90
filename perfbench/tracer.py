"""Traced-run shim: spans around the layer functions a replay calls.

`Tracer.installed()` replaces the names that `byrne.pipeline` imports from the
layer modules with wrappers that record a span (name, start, end, parent span,
tick id) in memory. The pattern matcher's entry points (`patterns.unify` and
`parse_keyed`, and the `match_all`/`unify` names that `emotions`, `textgen`
and `behaviors` import) get wrappers that only count calls, because they run
far too often for a span each. Garbage-collector pauses are summed through
`gc.callbacks`. On exit every original is put back; nothing under `src/`
changes.
"""

from __future__ import annotations

import gc
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

# Names `byrne.pipeline` imports, by the layer that owns them.
SPANNED = {
    "parse_game_log": "facts.parse_game_log",
    "load_profile": "profile.load_profile",
    "load_style": "style.load_style",
    "driver_ticks": "pipeline.driver_ticks",
    "step": "pipeline.step",
    "apply_tick": "facts.apply_tick",
    "apply_rules": "emotions.apply_rules",
    "decay_pool": "emotions.decay_pool",
    "select_fact": "facts.select_fact",
    "should_interrupt": "facts.should_interrupt",
    "select_template": "textgen.select_template",
    "instantiate": "textgen.instantiate",
    "record_usage": "textgen.record_usage",
    "activate_behaviors": "behaviors.activate_behaviors",
    "arbitrate": "behaviors.arbitrate",
    "expand": "behaviors.expand",
    "apply_directives": "seeml.apply_directives",
    "merge_tags": "seeml.merge_tags",
    "verify_and_split": "seeml.verify_and_split",
    "format_face_timeline": "seeml.format_face_timeline",
}

BEHAVIOR_SELECTION = ("activate_behaviors", "arbitrate", "expand")

NAME, START, END, PARENT, TICK = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, tick id]
        self.counts: dict[str, int] = defaultdict(int)
        self.board_sizes: list[int] = []
        self.pool_sizes: list[int] = []
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._tick = -1
        self._gc_start = 0

    def span(self, name: str, fn: Callable, sample: Callable | None = None) -> Callable:
        """`fn` recording a span per call; `sample(result)` feeds a per-tick gauge."""
        spans, stack = self.spans, self._stack
        new_tick = name == "pipeline.step"

        def wrapped(*args, **kwargs):
            if new_tick:
                self._tick += 1
            record = [name, 0, 0, stack[-1] if stack else -1, self._tick]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()
            if sample is not None:
                sample(result)
            return result

        return wrapped

    def _count_unify(self, fn: Callable) -> Callable:
        counts = self.counts

        def unify(*args):
            counts["patterns.unify_calls"] += 1
            result = fn(*args)
            if result is not None:
                counts["patterns.unify_hits"] += 1
            return result

        return unify

    def _count_parse_keyed(self, fn: Callable) -> Callable:
        counts = self.counts

        def parse_keyed(*args):
            counts["patterns.parse_keyed_calls"] += 1
            return fn(*args)

        return parse_keyed

    def _count_match_all(self, fn: Callable, rules: bool) -> Callable:
        counts = self.counts

        def match_all(*args, **kwargs):
            counts["patterns.match_all_calls"] += 1
            if rules:
                counts["emotions.rule_evaluations"] += 1
            return fn(*args, **kwargs)

        return match_all

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_pause_ns += perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        pipeline = importlib.import_module("byrne.pipeline")
        saved: list[tuple[object, str, Callable]] = []

        def patch(module, name: str, wrap: Callable[[Callable], Callable]) -> None:
            # A later version of the code may drop a name; its spans and counts stay empty.
            original = getattr(module, name, None)
            if original is not None:
                saved.append((module, name, original))
                setattr(module, name, wrap(original))

        samples = {
            "facts.apply_tick": lambda board: self.board_sizes.append(len(board.entries)),
            "emotions.decay_pool": lambda pool: self.pool_sizes.append(len(pool.structures)),
        }
        for name, label in SPANNED.items():
            patch(pipeline, name, lambda fn, label=label: self.span(label, fn, samples.get(label)))
        modules = {m: importlib.import_module(f"byrne.{m}") for m in ("patterns", "emotions", "textgen", "behaviors")}
        for m in ("patterns", "emotions", "behaviors"):
            patch(modules[m], "unify", self._count_unify)
        patch(modules["patterns"], "parse_keyed", self._count_parse_keyed)
        patch(modules["emotions"], "match_all", lambda fn: self._count_match_all(fn, rules=True))
        for m in ("textgen", "behaviors"):
            patch(modules[m], "match_all", lambda fn: self._count_match_all(fn, rules=False))
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\ttick\n")
            for s in self.spans:
                fh.write(f"{s[NAME]}\t{s[START]}\t{s[END]}\t{s[PARENT]}\t{s[TICK]}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals in seconds, counts and means, and the tick loop's
        self times: step time outside its child spans, loop time outside step."""
        total: dict[str, int] = defaultdict(int)
        covered = [0] * len(self.spans)
        for s in self.spans:
            duration = s[END] - s[START]
            total[s[NAME]] += duration
            if s[PARENT] >= 0:
                covered[s[PARENT]] += duration
        self_ns: dict[str, int] = defaultdict(int)
        for s, c in zip(self.spans, covered):
            self_ns[s[NAME]] += s[END] - s[START] - c
        steps = [s for s in self.spans if s[NAME] == "pipeline.step"]
        root = next(s for s in self.spans if s[NAME] == "pipeline.run_replay")
        loop_ns = steps[-1][END] - steps[0][START]
        c = self.counts
        out = {f"{label}_s": total[label] / 1e9 for label in SPANNED.values()}
        out.update({
            "behaviors.select_s": sum(total[f"behaviors.{n}"] for n in BEHAVIOR_SELECTION) / 1e9,
            "pipeline.step_self_s": self_ns["pipeline.step"] / 1e9,
            "pipeline.between_steps_s": (loop_ns - total["pipeline.step"]) / 1e9,
            "pipeline.write_s": (root[END] - steps[-1][END]) / 1e9,
            "pipeline.ticks": len(steps),
            "facts.board_size_mean": sum(self.board_sizes) / max(1, len(self.board_sizes)),
            "emotions.pool_size_mean": sum(self.pool_sizes) / max(1, len(self.pool_sizes)),
            "emotions.rule_evaluations": c["emotions.rule_evaluations"],
            "patterns.match_all_calls": c["patterns.match_all_calls"],
            "patterns.unify_calls": c["patterns.unify_calls"],
            "patterns.parse_keyed_calls": c["patterns.parse_keyed_calls"],
            "patterns.unify_hit_ratio": c["patterns.unify_hits"] / max(1, c["patterns.unify_calls"]),
            "runtime.gc_pause_s": self.gc_pause_ns / 1e9,
            "runtime.gc_collections": self.gc_collections,
        })
        return out
