#!/usr/bin/env python3
"""Replay every benchmark workload at seeds 2 and 3 as byrne runs it, and again
with one fast path swapped for its reference in tests/, and fail unless both
sides write the same files.

    python scripts/oracle_replay.py {fold,render,verify,log,affect,rules}

No digest is recorded at these seeds, so each fast path is checked against its
reference on the replay itself:
- fold: `seeml.apply_directives` against the per-directive fold in oracle_seeml;
- render: `pipeline.render_key` against the full render in oracle_pipeline;
- verify: `pipeline.render_key` against the full render in oracle_pipeline,
  verified by the reference verifier in oracle_seeml, which projects the tree;
- log: `facts.parse_game_log` against the full read of every line in oracle_facts;
- affect: the decay and the activation that read each intensity once against
  the clamped decay and the pool scan in oracle_behaviors;
- rules: `emotions.apply_rules` against the rule firing in oracle_patterns.
A workload's inputs and both trees go to out/<swap>-replay/<workload>-<seed>/.
Exits with a replay's own code when one fails, and 1 when the first side writes
no utt-1.sable or an empty one, or when a file differs, naming it.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests"), str(REPO / "perfbench")]

import oracle_behaviors  # noqa: E402
import oracle_facts  # noqa: E402
import oracle_patterns  # noqa: E402
import oracle_pipeline  # noqa: E402
import oracle_seeml  # noqa: E402
from workloads import GENERATORS, Demo  # noqa: E402

from byrne import pipeline  # noqa: E402
from byrne.emotions import DecayFunction  # noqa: E402
from byrne.patterns import Form  # noqa: E402


def _raw(terms) -> tuple:
    return tuple(t.term if isinstance(t, Form) else t for t in terms)


def _swaps() -> dict:
    """Each swap's two sides' names, and the (owner, attribute, reference) its reference side sets."""
    raws: dict = {}  # id(rules) -> (rules, raw statics, raw rules), as the rule oracle takes them

    def apply_rules(pool, board, statics, rules, now):
        if id(rules) not in raws:
            raws[id(rules)] = (rules, _raw(statics), [replace(r, preconditions=_raw(r.preconditions)) for r in rules])
        _, raw_statics, raw_rules = raws[id(rules)]
        return oracle_patterns.apply_rules(pool, board, raw_statics, raw_rules, now)

    verified = partial(oracle_pipeline.render_key, verify=oracle_seeml.verify_and_split)
    return {
        "fold": (("walk", "fold"), [(pipeline, "apply_directives", oracle_seeml.apply_directives)]),
        "render": (("pair", "full"), [(pipeline, "render_key", oracle_pipeline.render_key)]),
        "verify": (("laid", "projected"), [(pipeline, "render_key", verified)]),
        "log": (("memo", "full"), [(pipeline, "parse_game_log", oracle_facts.parse_game_log)]),
        "affect": (
            ("once", "scan"),
            [
                (DecayFunction, "value", oracle_behaviors.value),
                (pipeline, "activate_behaviors", oracle_behaviors.activate_with_levels),
            ],
        ),
        "rules": (("memo", "full"), [(pipeline, "apply_rules", apply_rules)]),
    }


def _first_difference(a: Path, b: Path) -> str | None:
    """The first file, by relative path, that only one tree has or that the two hold differently."""
    names = sorted({p.relative_to(tree).as_posix() for tree in (a, b) for p in tree.rglob("*") if p.is_file()})
    for name in names:
        x, y = a / name, b / name
        if not (x.is_file() and y.is_file() and x.read_bytes() == y.read_bytes()):
            return name
    return None


def main(argv: list[str]) -> int:
    swaps = _swaps()
    if len(argv) != 1 or argv[0] not in swaps:
        print(f"usage: oracle_replay.py {{{','.join(swaps)}}}", file=sys.stderr)
        return 2
    swap = argv[0]
    (fast, reference), settings = swaps[swap]
    kept = [(owner, name, getattr(owner, name)) for owner, name, _ in settings]
    root = REPO / "out" / f"{swap}-replay"
    shutil.rmtree(root, ignore_errors=True)
    demo = Demo.load(REPO)
    for seed in (2, 3):
        for workload, generate in GENERATORS.items():
            inputs = generate(demo, seed)
            base = root / f"{workload}-{seed}"
            (base / "inputs").mkdir(parents=True)
            files = inputs.write(base / "inputs")
            for side, values in ((fast, []), (reference, settings)):
                for owner, name, value in values:
                    setattr(owner, name, value)
                try:
                    code = pipeline.run_replay(*files, base / side, tick_seconds=inputs.tick_seconds)
                finally:
                    for owner, name, value in kept:
                        setattr(owner, name, value)
                if code:
                    return code
            first = base / fast / "utt-1.sable"
            if not (first.is_file() and first.stat().st_size):
                print(f"{swap}: {first.relative_to(REPO)} is missing or empty", file=sys.stderr)
                return 1
            differs = _first_difference(base / fast, base / reference)
            if differs is not None:
                where = f"{workload} at seed {seed}: {fast}/{differs} and {reference}/{differs}"
                print(f"{swap}: {where} differ", file=sys.stderr)
                return 1
    print(f"{swap}: every workload at seeds 2 and 3 replays the same with the reference ({reference}) swapped in")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
