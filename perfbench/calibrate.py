"""A fixed pure-Python workload that measures how fast the host runs right now.

`chunk()` unifies small keyed patterns against a board of facts, the same kind
of work as byrne's rule matching, but with code of its own: no change to
`src/` changes its cost. Its time moves only with the machine.

The replay child times one chunk just before the replay, one after every
`EVERY`-th step and one just after the replay, so the chunks sample the host at
the same moments as the parts of the replay around them (see `scaled` in
run.py).
"""

from __future__ import annotations

from time import perf_counter_ns

EVERY = 10  # steps between chunks
REFERENCE_NS = 300_000  # a chunk at its fastest on a quiet 2-vCPU x86 VM, CPython 3.11

_PREDS = ("pass", "shot", "save", "foul", "corner", "move", "has-ball")
_PLAYERS = ("a1", "a2", "a3", "b1", "b2", "b3")
_BOARD = [
    (_PREDS[i % 7], {"player": _PLAYERS[i % 6], "to": _PLAYERS[(i * 5) % 6], "team": "ab"[i % 2]})
    for i in range(60)
]
_PATTERNS = [
    (_PREDS[i % 7], {"player": "?p", "to": _PLAYERS[i % 6]} if i % 3 else {"team": "?t"})
    for i in range(24)
]


def _unify(pattern: dict, fact: dict, bindings: dict) -> dict | None:
    out = dict(bindings)
    for key, want in pattern.items():
        have = fact.get(key)
        if have is None:
            return None
        if want.startswith("?"):
            bound = out.get(want)
            if bound is None:
                out[want] = have
            elif bound != have:
                return None
        elif want != have:
            return None
    return out


def chunk() -> int:
    """One unit of work: every pattern against every fact, twice."""
    matches = 0
    for _ in range(2):
        for pred, pattern in _PATTERNS:
            for fpred, fact in _BOARD:
                if fpred == pred and _unify(pattern, fact, {}) is not None:
                    matches += 1
                matches += len(f"{pred}:{fpred}") & 1
    return matches


def timed_chunk() -> int:
    """One chunk's wall time in nanoseconds."""
    t0 = perf_counter_ns()
    chunk()
    return perf_counter_ns() - t0
