#!/usr/bin/env python3
"""Replay the bundled demo match into a fresh out/demo and summarize what happened.

The old out/demo is removed first, so the directory holds exactly this run.
"""

from __future__ import annotations

import shutil
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from byrne.pipeline import run_replay  # noqa: E402

DEMO = REPO / "fixtures" / "demo"
OUT = REPO / "out" / "demo"

if __name__ == "__main__":
    if OUT.exists():
        shutil.rmtree(OUT)
    code = run_replay(
        DEMO / "game.log", DEMO / "announcer.profile", DEMO / "announcer.style", OUT
    )
    if code != 0:
        sys.exit(code)
    lines = (OUT / "commentary.trace").read_text(encoding="utf-8").splitlines()[1:]
    kinds = Counter(line.split("\t")[1] for line in lines)
    print(f"replayed demo into {OUT}")
    print(
        f"utterances started: {kinds.get('START', 0)}, finished: {kinds.get('END', 0)}, "
        f"interrupted: {kinds.get('INTERRUPT', 0)}"
    )
    first_goal = next((line for line in lines if "scores" in line and "START" in line), None)
    if first_goal:
        index = first_goal.split("\t")[2]
        print(f"goal call: see utt-{index}.sable / utt-{index}.facs")
