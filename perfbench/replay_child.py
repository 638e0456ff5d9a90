"""One replay through `byrne.pipeline.run_replay`, timed from inside a fresh process.

    python3 perfbench/replay_child.py --src SRC --log L --profile P --style S \
        --out DIR --tick-seconds T --result R.json [--spans SPANS.tsv]

Untraced, a wall clock (`perf_counter_ns`) and a CPU clock (`process_time_ns`)
are read before and after each `step`, and again as each utterance's face
timeline is formatted in the writes after the last step, which splits the
writes into one part per utterance. The child times one calibration chunk
just before the replay, one after every `calibrate.EVERY`-th step, one before
every `calibrate.EVERY`-th face timeline and one just after the replay; the
clocks are read on both sides of each, so no chunk counts in any part of the
replay. With `--spans`, the tracer wraps every
layer the replay calls, and the span list is written to that file once the
replay is over.
Writes R.json with the replay's exit code and its raw timings.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
from time import perf_counter_ns, process_time_ns

import calibrate


class SkipCounter(logging.Handler):
    """Counts the replay's "skipping fact with no template" warnings."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.skips = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("skipping fact with no template"):
            self.skips += 1


class StepClock:
    """`step` with its start and end recorded on the wall and CPU clocks, and
    whether it started an utterance; every `calibrate.EVERY`-th call is followed
    by a timed calibration chunk, after which the loop resumes."""

    def __init__(self, step, start_kind: str) -> None:
        self.step = step
        self.start_kind = start_kind
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.cpu_starts: list[int] = []
        self.cpu_ends: list[int] = []
        self.resumes: list[int] = []  # when the loop's own work after each step begins
        self.cpu_resumes: list[int] = []
        self.chunks: list[int] = []  # wall time of each calibration chunk
        self.speaks: list[int] = []  # indexes of the steps that emitted a START
        self.first_tick = self.last_tick = 0.0

    def __call__(self, state, update, profile, style):
        c0 = process_time_ns()
        t0 = perf_counter_ns()
        result = self.step(state, update, profile, style)
        t1 = perf_counter_ns()
        c1 = process_time_ns()
        self.starts.append(t0)
        self.ends.append(t1)
        self.cpu_starts.append(c0)
        self.cpu_ends.append(c1)
        if any(ev.kind == self.start_kind for ev in result[1]):
            self.speaks.append(len(self.ends) - 1)
        if len(self.ends) == 1:
            self.first_tick = update.tick_time
        self.last_tick = update.tick_time
        if len(self.ends) % calibrate.EVERY:
            self.resumes.append(t1)
            self.cpu_resumes.append(c1)
        else:
            self.chunks.append(calibrate.timed_chunk())
            self.resumes.append(perf_counter_ns())
            self.cpu_resumes.append(process_time_ns())
        return result


class Marks:
    """A function with both clocks read as each call begins; every
    `calibrate.EVERY`-th call is preceded by a timed calibration chunk, with
    the clocks read before it (the pause) and after it (the begin)."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.pauses: list[int] = []
        self.begins: list[int] = []
        self.cpu_pauses: list[int] = []
        self.cpu_begins: list[int] = []
        self.chunks: list[int] = []

    def __call__(self, *args, **kwargs):
        c0 = process_time_ns()
        t0 = perf_counter_ns()
        self.pauses.append(t0)
        self.cpu_pauses.append(c0)
        if self.begins and len(self.begins) % calibrate.EVERY == 0:
            self.chunks.append(calibrate.timed_chunk())
            t0 = perf_counter_ns()
            c0 = process_time_ns()
        self.begins.append(t0)
        self.cpu_begins.append(c0)
        return self.fn(*args, **kwargs)


def timed(replay, args) -> dict:
    """Run `replay` on the inputs; its exit code, wall time and CPU time."""
    c0 = process_time_ns()
    t0 = perf_counter_ns()
    code = replay(args.log, args.profile, args.style, args.out, tick_seconds=args.tick_seconds)
    t1 = perf_counter_ns()
    c1 = process_time_ns()
    return {
        "code": code,
        "entered_ns": t0,
        "returned_ns": t1,
        "cpu_entered_ns": c0,
        "cpu_returned_ns": c1,
        "replay_ns": t1 - t0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _parts(entered: int, starts: list[int], ends: list[int], resumes: list[int], pauses: list[int],
           begins: list[int], returned: int) -> dict:
    write_starts, write_stops = [resumes[-1], *begins], [*pauses, returned]
    return {
        "setup": starts[0] - entered,
        "steps": [e - s for s, e in zip(starts, ends)],
        "gaps": [s - r for r, s in zip(resumes, starts[1:])],
        "writes": [b - a for a, b in zip(write_starts, write_stops)],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    for flag in ("--src", "--log", "--profile", "--style", "--out", "--result"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--tick-seconds", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import byrne.pipeline as pipeline

    skips = SkipCounter()
    logging.getLogger("byrne").addHandler(skips)
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            result = timed(tracer.span("pipeline.run_replay", pipeline.run_replay), args)
        result["layers"] = tracer.layer_metrics()
        tracer.write(args.spans)
    else:
        clock = StepClock(pipeline.step, pipeline.UTTERANCE_START)
        faces = Marks(pipeline.format_face_timeline)
        pipeline.step = clock
        pipeline.format_face_timeline = faces
        calibrate.chunk()  # the first run of its code is slower than the rest
        before = calibrate.timed_chunk()
        result = timed(pipeline.run_replay, args)
        after = calibrate.timed_chunk()
        if clock.ends:
            # The replay split into set-up, each step, the loop's work between
            # steps, and the writes after the last step, on both clocks.
            result.update({
                "match_s": clock.last_tick - clock.first_tick,
                "speak_steps": clock.speaks,
                "chunk_ns": [before, *clock.chunks, *faces.chunks, after],
                "wall_ns": _parts(result["entered_ns"], clock.starts, clock.ends, clock.resumes,
                                  faces.pauses, faces.begins, result["returned_ns"]),
                "cpu_ns": _parts(result["cpu_entered_ns"], clock.cpu_starts, clock.cpu_ends,
                                 clock.cpu_resumes, faces.cpu_pauses, faces.cpu_begins,
                                 result["cpu_returned_ns"]),
            })
    result["coverage_skips"] = skips.skips
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
