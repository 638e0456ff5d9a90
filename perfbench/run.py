"""Replay benchmark for byrne.

    python3 perfbench/run.py --workload match90 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark

1. replays the demo match and refuses to record anything unless the output is
   byte-identical to `fixtures/demo/golden`;
2. generates the workload's inputs from the seed (see `workloads.py`) into a
   scratch directory under `.perfbench/`;
3. replays the workload at its reference seed, untimed, and compares the output
   digest with the one recorded in `workloads.json`; the demo replay's digest
   must match the recorded one too, so a change to the goldens fails the run
   until the digests are recorded again;
4. replays the seeded inputs through `byrne.pipeline.run_replay`, one fresh
   child process per replay and one replay at a time, until `--seconds` have
   passed, and checks every replay's output (`check.py`): a fresh empty output
   directory, a well-formed trace, one `.sable`/`.facs` pair per START, and the
   same digest on every replay;
5. prints every metric by name and unit, then one JSON line.

`--trace 0` reports the end-to-end metrics of `BENCHMARK.json`. Each replay is
split into its set-up, its steps, the loop's work between steps and its writes;
the timings are built from each part at its fastest over the run's replays (see
`fastest`) and are given in reference seconds, each part scaled by calibration
chunks timed around it inside the replays (see `scaled` and `calibrate.py`); the
line `calibration chunk` shows the chunks' mean time in the run next to their
reference.
`peak_rss_mb` is the median over the replays. `--trace 1` alternates untraced
and traced replays (`tracer.py`) and reports the per-layer metrics, medians over
the traced replays, in plain seconds; `trace.overhead_s` is the traced replay's
wall time minus the untraced one's without its calibration chunks. Every replay
is output-checked and counts in `attempted`; one that exits non-zero or fails a
check counts in `failed`, and `failed / attempted` is the failed fraction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from check import OutputError, digest, inspect, read_tree
from workloads import GENERATORS, Demo

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # no run may take longer, even when a replay hangs
MIN_BEYOND = 10  # a tail percentile needs at least this many samples above it


class BenchError(Exception):
    pass


def tail(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, refusing one with fewer than ten samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    if len(ordered) - rank < MIN_BEYOND:
        raise BenchError(f"p{pct:g} of {len(ordered)} samples has fewer than {MIN_BEYOND} beyond it")
    return ordered[rank - 1]


class Replayer:
    """Runs replays in child processes, one at a time, inside one scratch directory."""

    def __init__(self, root: Path, work: Path, give_up: float) -> None:
        self.root = root
        self.work = work
        self.give_up = give_up  # time.monotonic() after which no child may run
        self.count = 0

    def inputs(self, name: str, inputs) -> tuple[list[Path], float]:
        directory = self.work / name
        directory.mkdir()
        return list(inputs.write(directory)), inputs.tick_seconds

    def run(self, files: list[Path], tick_seconds: float, traced: bool = False) -> tuple[dict, Path]:
        """One child replay, traced or not."""
        self.count += 1
        base = self.work / f"replay-{self.count}"
        out = base / "out"
        out.mkdir(parents=True)
        if any(out.iterdir()):
            raise OutputError(f"output directory {out} is not empty")
        log, profile, style = files
        cmd = [
            sys.executable, str(HERE / "replay_child.py"),
            "--src", str(self.root / "src"),
            "--log", str(log), "--profile", str(profile), "--style", str(style),
            "--out", str(out), "--tick-seconds", repr(tick_seconds),
            "--result", str(base / "result.json"),
        ]
        if traced:
            cmd += ["--spans", str(base / "spans.tsv")]
        timeout = self.give_up - time.monotonic()
        if timeout <= 0:
            raise OutputError("no time left in this run for another replay")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=self.root)
        if proc.returncode != 0:
            raise OutputError(f"replay child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        result = json.loads((base / "result.json").read_text(encoding="utf-8"))
        if result["code"] != 0:
            raise OutputError(f"run_replay returned {result['code']}")
        return result, out

    def discard(self, out: Path, keep_spans: Path | None = None) -> None:
        spans = out.parent / "spans.tsv"
        if keep_spans is not None and spans.exists():
            shutil.move(str(spans), keep_spans)
        shutil.rmtree(out.parent)


def golden_gate(replayer: Replayer, root: Path) -> str:
    demo_dir = root / "fixtures" / "demo"
    golden = read_tree(demo_dir / "golden")
    files = [demo_dir / n for n in ("game.log", "announcer.profile", "announcer.style")]
    try:
        _, out = replayer.run(files, 1.0)
    except (OutputError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"demo replay failed: {e}") from e
    produced = read_tree(out)
    replayer.discard(out)
    if produced != golden:
        differ = sorted(n for n in set(golden) | set(produced) if golden.get(n) != produced.get(n))
        raise BenchError(
            f"demo replay differs from fixtures/demo/golden in {differ[:5]}; refusing to record"
        )
    return digest(golden)


def fastest(parts: list[dict]) -> dict:
    """The replay's parts, each the fastest of the run's replays.

    Every replay of a run replays the same inputs, so its set-up, its i-th step,
    the loop's work between its i-th and next step, and its i-th part of the
    writes are the same work each time. A shared host slows the whole machine
    for a second or so at a time; taking each part at its fastest over the run's
    replays removes those slow spells from every part, which one whole replay
    cannot do.
    """
    for key in ("steps", "gaps", "writes"):
        lengths = {len(p[key]) for p in parts}
        if len(lengths) != 1:
            raise BenchError(f"replays of the same inputs differ in their number of {key}: {sorted(lengths)}")
    return {
        "setup": min(p["setup"] for p in parts),
        **{key: [min(col) for col in zip(*(p[key] for p in parts))] for key in ("steps", "gaps", "writes")},
    }


def fastest_chunks(results: list[dict]) -> list[int]:
    """The calibration chunks of the run's replays: at each position in the
    replay the fastest over the run's replays, just as `fastest` takes each
    part of the replay."""
    if len({len(r["chunk_ns"]) for r in results}) != 1:
        raise BenchError("replays of the same inputs timed different numbers of calibration chunks")
    return [min(col) for col in zip(*(r["chunk_ns"] for r in results))]


def scaled(parts: dict, chunks: list[int]) -> dict:
    """The parts in reference nanoseconds: each scaled by the calibration
    chunk's reference time over the mean of the two chunks timed around it
    (`calibrate.py`). A host that runs slower for a while slows the chunks as
    much as the parts of the replay timed next to them, so the scaled times
    hold still; a change to byrne moves the replay and not the chunks."""
    e = calibrate.EVERY
    loop_chunks = len(parts["steps"]) // e  # chunks[0] comes before the replay

    def around(i: int) -> float:  # scale for a part between chunks[i] and chunks[i + 1]
        return 2 * calibrate.REFERENCE_NS / (chunks[i] + chunks[i + 1])

    return {
        "setup": parts["setup"] * around(0),
        "steps": [t * around(i // e) for i, t in enumerate(parts["steps"])],
        "gaps": [t * around(i // e) for i, t in enumerate(parts["gaps"])],
        "writes": [t * around(loop_chunks + max(0, (k - 1) // e)) for k, t in enumerate(parts["writes"])],
    }


def end_to_end(results: list[dict], cfg: dict) -> dict[str, float]:
    """The end-to-end metrics of a run's untraced replays, every time in
    reference seconds: each part of the replay at its fastest (`fastest`),
    scaled by the chunks around it (`scaled`)."""
    chunks = fastest_chunks(results)
    wall = scaled(fastest([r["wall_ns"] for r in results]), chunks)
    cpu = scaled(fastest([r["cpu_ns"] for r in results]), chunks)
    steps = wall["steps"]
    speaks = [steps[i] for i in results[0]["speak_steps"]]

    def total(parts: dict) -> float:
        return (parts["setup"] + sum(parts["steps"]) + sum(parts["gaps"]) + sum(parts["writes"])) / 1e9

    return {
        "replay_s": total(wall),
        "setup_s": wall["setup"] / 1e9,
        "replay_cpu_s": total(cpu),
        "realtime_x": results[0]["match_s"] / ((sum(steps) + sum(wall["gaps"])) / 1e9),
        "tick_p50_ms": statistics.median(steps) / 1e6,
        "tick_tail_ms": tail(steps, cfg["tick_tail_pct"]) / 1e6,
        "speak_p50_ms": statistics.median(speaks) / 1e6,
        "speak_tail_ms": tail(speaks, cfg["speak_tail_pct"]) / 1e6,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in results) / 1024.0,
    }


def per_layer(result: dict, outputs) -> dict[str, float]:
    layers = dict(result["layers"])
    layers.update({
        "textgen.coverage_skips": result["coverage_skips"],
        "seeml.words_timed": outputs.words,
        "seeml.facs_rows": outputs.facs_rows,
        "pipeline.files_written": outputs.files,
        "pipeline.bytes_written": outputs.bytes,
        "pipeline.utterances": outputs.utterances,
        "pipeline.interrupts": outputs.interrupts,
    })
    return layers


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))


class Tally:
    """Replays attempted and failed in one run, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def replay(self, replayer: Replayer, files, tick: float, traced: bool = False,
               expected: str | None = None, keep_spans: Path | None = None):
        """One checked replay: (child result, Outputs), or None when it failed."""
        self.attempted += 1
        try:
            result, out = replayer.run(files, tick, traced)
            outputs = inspect(out)
            if expected is not None and outputs.digest != expected:
                raise OutputError(f"output digest {outputs.digest[:12]} differs from {expected[:12]}")
        except (OutputError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
            self.problems.append(str(e))
            return None
        replayer.discard(out, keep_spans)
        return result, outputs


def measure(args, root: Path, work: Path, spec: dict, config: dict) -> dict:
    cfg = config["workloads"][args.workload]
    replayer = Replayer(root, work, time.monotonic() + RUN_LIMIT_S)
    tally = Tally()
    tally.attempted += 1  # the demo replay, checked against the goldens and their recorded digest
    if golden_gate(replayer, root) != config["golden_digest"]:
        tally.problems.append("fixtures/demo/golden changed since workloads.json recorded its digests; "
                              "record the workload digests again")

    demo = Demo.load(root)
    generate = GENERATORS[args.workload]
    ref_files, ref_tick = replayer.inputs("reference", generate(demo, cfg["reference_seed"]))
    tally.replay(replayer, ref_files, ref_tick, expected=cfg["digest"])

    files, tick_seconds = replayer.inputs("seeded", generate(demo, args.seed))
    expected = cfg["digest"] if args.seed == cfg["reference_seed"] else None
    spans_file = work.parent / f"spans-{args.workload}.tsv"
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + args.seconds
    n = 0
    while time.monotonic() < deadline or n < (2 if args.trace else 1):
        with_trace = bool(args.trace) and n % 2 == 1
        n += 1
        done = tally.replay(replayer, files, tick_seconds, with_trace, expected,
                            spans_file if with_trace else None)
        if done is None:
            continue
        result, outputs = done
        expected = expected or outputs.digest
        if with_trace:
            traced.append({**per_layer(result, outputs), "replay_s": result["replay_ns"] / 1e9})
        else:
            untraced.append(result)

    for problem in tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    metrics = {}
    chunk_ns = None
    if untraced and (traced or not args.trace):
        if args.trace:
            overhead = statistics.median(s["replay_s"] for s in traced) - statistics.median(
                (r["replay_ns"] - sum(r["chunk_ns"][1:-1])) / 1e9 for r in untraced  # chunks inside the replay
            )
            values = {m: statistics.median(s[m] for s in traced) for m in traced[0]}
            values["trace.overhead_s"] = overhead
        else:
            chunk_ns = statistics.fmean(fastest_chunks(untraced))
            values = end_to_end(untraced, cfg)
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    replays = [s["replay_s"] for s in traced] if args.trace else [r["replay_ns"] / 1e9 for r in untraced]
    return {
        "correct": not tally.problems and bool(metrics),
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "metrics": metrics,
        "replay_s": [round(t, 4) for t in replays],
        "chunk_us": None if chunk_ns is None else round(chunk_ns / 1e3, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= RUN_LIMIT_S / 2:
        parser.error(f"--seconds must lie in (0, {RUN_LIMIT_S / 2:g}]")

    root = Path.cwd()
    needed = ("BENCHMARK.json", "src/byrne/pipeline.py", "fixtures/demo/golden")
    absent = [name for name in needed if not (root / name).exists()]
    if absent:
        print(f"perfbench: run from the root of a byrne checkout; missing {absent}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    cfg = config["workloads"][args.workload]
    print(
        f"# byrne perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} src_lines={src_lines(root)} python={platform.python_version()} "
        f"nproc={os.cpu_count()} tick_tail=p{cfg['tick_tail_pct']:g}/{cfg['tick_samples']} "
        f"speak_tail=p{cfg['speak_tail_pct']:g}/{cfg['speak_samples']}"
    )
    (root / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    try:
        report = measure(args, root, work, spec, config)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"replay_s per replay {report.pop('replay_s')}")
    chunk_us = report.pop("chunk_us")
    if chunk_us is not None:
        print(f"calibration chunk {chunk_us} us (reference {calibrate.REFERENCE_NS / 1e3:g} us)")
    print(f"failed_frac {report['failed'] / report['attempted']:g} ({report['failed']}/{report['attempted']})")
    for name, m in report["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
