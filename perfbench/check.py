"""Output checks for one replay's output directory.

A replay passes when its commentary trace is well formed (every START closed by
an END or an INTERRUPT, no utterance started twice), the directory holds exactly
one `.sable`/`.facs` pair per START plus the two traces, and nothing else.
The `.facs` range and overlap invariants are not checked here: they are known
defects that the test suite tracks.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

TRACES = ("commentary.trace", "emotions.trace")
_TAG = re.compile(r"<[^>]*>")


class OutputError(Exception):
    pass


@dataclass(frozen=True)
class Outputs:
    digest: str
    utterances: int
    interrupts: int
    files: int
    bytes: int
    words: int  # spoken tokens across every .sable, one per timed word
    facs_rows: int  # timeline rows across every .facs


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def digest(tree: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(tree):
        h.update(name.encode() + b"\0" + str(len(tree[name])).encode() + b"\0" + tree[name])
    return h.hexdigest()


def _utterances(trace: str) -> tuple[list[int], int]:
    lines = trace.splitlines()
    if not lines or not lines[0].startswith("# commentary-trace v1"):
        raise OutputError("commentary.trace lacks its header")
    started: list[int] = []
    open_: set[int] = set()
    interrupts = 0
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != 4 or not fields[2].isdigit():
            raise OutputError(f"malformed trace line {line!r}")
        kind, n = fields[1], int(fields[2])
        if kind == "START":
            if n in open_ or n in started:
                raise OutputError(f"utterance {n} started twice")
            started.append(n)
            open_.add(n)
        elif kind in ("END", "INTERRUPT"):
            if n not in open_:
                raise OutputError(f"{kind} for utterance {n}, which is not running")
            open_.discard(n)
            interrupts += kind == "INTERRUPT"
        else:
            raise OutputError(f"unknown trace event {kind!r}")
    if open_:
        raise OutputError(f"utterances never closed: {sorted(open_)}")
    return started, interrupts


def inspect(out: Path) -> Outputs:
    """Check one replay's outputs and count what it wrote; raises OutputError."""
    tree = read_tree(out)
    missing = [name for name in TRACES if name not in tree]
    if missing:
        raise OutputError(f"missing {missing}")
    started, interrupts = _utterances(tree["commentary.trace"].decode("utf-8"))
    expected = set(TRACES) | {f"utt-{n}.{ext}" for n in started for ext in ("sable", "facs")}
    if set(tree) != expected:
        extra, absent = sorted(set(tree) - expected), sorted(expected - set(tree))
        raise OutputError(f"files do not match the STARTs: extra {extra[:5]}, missing {absent[:5]}")
    words = facs_rows = 0
    for name, data in tree.items():
        if name.endswith(".sable"):
            words += len(_TAG.sub(" ", data.decode("utf-8")).split())
        elif name.endswith(".facs"):
            facs_rows += data.count(b"\n") - 1
    return Outputs(
        digest=digest(tree),
        utterances=len(started),
        interrupts=interrupts,
        files=len(tree),
        bytes=sum(len(d) for d in tree.values()),
        words=words,
        facs_rows=facs_rows,
    )
