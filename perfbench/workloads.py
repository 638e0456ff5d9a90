"""Seeded input generators for the replay benchmark's workloads.

Each generator is a pure function of the demo fixtures and a seed: the same
seed gives byte-identical files. A seed changes the order, the players and the
wording of a workload, never its size or its mix, so runs on different seeds do
the same amount of work and their timings can be pooled.

- match90: the demo match tiled 8 times (about 18 minutes), a realistic mix
  that works every layer.
- rules_dense: one demo tile at quarter-second ticks through 50 extra emotion
  rules; rule matching dominates and speech sits nearly idle.
- chatter: a new play every second for ten minutes through word- and phrase-scoped behaviors and
  five-phrase templates; nearly every tick cuts the running utterance.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

EMOTION_TYPES = ("fear", "anger", "sadness", "happiness", "disgust", "surprise", "interest")
DECAY_PER_S = 0.67  # the demo log's analysis-side relevance decay per second


@dataclass(frozen=True)
class Inputs:
    log: str
    profile: str
    style: str
    tick_seconds: float

    def write(self, directory: Path) -> tuple[Path, Path, Path]:
        paths = (directory / "game.log", directory / "char.profile", directory / "char.style")
        for path, text in zip(paths, (self.log, self.profile, self.style)):
            path.write_text(text, encoding="utf-8")
        return paths


@dataclass(frozen=True)
class Demo:
    log: str
    profile: str
    style: str

    @classmethod
    def load(cls, root: Path) -> "Demo":
        d = root / "fixtures" / "demo"
        return cls(*(
            (d / name).read_text(encoding="utf-8")
            for name in ("game.log", "announcer.profile", "announcer.style")
        ))


def _fmt(t: float) -> str:
    return format(round(t, 6), ".10g")


# --- tiling the demo match -----------------------------------------------------

_TICK = re.compile(r"^\(tick ([0-9.]+)\)$")
_SIDE = re.compile(r"(?<![\w?-])([ab])([1-9]?)(?![\w-])")
_TIME_ARG = re.compile(r"((?:begin|end)?time: )([0-9.]+)")


def _demo_ticks(log: str) -> list[tuple[float, list[str]]]:
    ticks: list[tuple[float, list[str]]] = []
    for raw in log.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _TICK.match(line)
        if m:
            ticks.append((float(m.group(1)), []))
        else:
            ticks[-1][1].append(line)
    return ticks


def _side_map(rng: random.Random, mirrored: bool) -> dict[str, str]:
    """Player and team renaming for one tile: players shuffled within their
    side, and on a mirrored tile the two sides swapped."""
    a = ["a1", "a2", "a3"]
    b = ["b1", "b2", "b3"]
    rng.shuffle(a)
    rng.shuffle(b)
    if mirrored:
        a, b = b, a
    mapping = {"a": "b" if mirrored else "a", "b": "a" if mirrored else "b"}
    mapping.update({f"a{i}": a[i - 1] for i in (1, 2, 3)})
    mapping.update({f"b{i}": b[i - 1] for i in (1, 2, 3)})
    return mapping


def tiled_log(demo_log: str, rng: random.Random, tiles: int, gap: float = 10.0) -> str:
    """The demo match `tiles` times over, each tile shifted past the last by
    `gap` seconds. Exactly half the tiles swap the sides, so which side scores
    and who fouls whom varies by seed while the mix stays fixed. Each tile also
    carries one throw-in, a play the demo announcer has no template for, so the
    coverage-skip path runs."""
    ticks = _demo_ticks(demo_log)
    period = ticks[-1][0] - ticks[0][0] + gap
    mirrored = set(rng.sample(range(tiles), tiles // 2))
    whole = [t for t, _ in ticks if t == int(t) and ticks[0][0] + 20 <= t <= ticks[-1][0] - 5]
    lines = [f"# demo match tiled {tiles}x (generated)"]
    for k in range(tiles):
        names = _side_map(rng, k in mirrored)
        offset = k * period
        throw_at = rng.choice(whole)
        throw_team = rng.choice("ab")

        def rename(line: str) -> str:
            line = _SIDE.sub(lambda m: names[m.group(0)], line)
            return _TIME_ARG.sub(lambda m: m.group(1) + _fmt(float(m.group(2)) + offset), line)

        for t, facts in ticks:
            lines.append(f"(tick {_fmt(t + offset)})")
            lines.extend(rename(f) for f in facts)
            if t >= throw_at and t == int(t):
                rel = round(6 * DECAY_PER_S ** (t - throw_at), 2)
                if rel >= 1:
                    lines.append(f"(fact (throw-in team: {names[throw_team]}) relevance: {rel:g})")
    return "\n".join(lines) + "\n"


# 8 tiles make an 18-minute match. A 90-minute one (40 tiles) replays in about
# 8 s on a shared 2-vCPU VM under Python 3.11: too few replays per run to find
# each tick at its fastest (see `fastest` in run.py).
MATCH_TILES = 8


def match90(demo: Demo, seed: int) -> Inputs:
    rng = random.Random(f"match90:{seed}")
    return Inputs(tiled_log(demo.log, rng, tiles=MATCH_TILES), demo.profile, demo.style, 1.0)


# --- rules_dense ----------------------------------------------------------------

# Demo plays by the argument that names a team, and by one that names a player.
_TEAM_PLAYS = (("corner", "team"), ("kickoff", "team"), ("foul", "against"), ("scores", "team"))
_PLAYER_PLAYS = (
    ("pass", "to"),
    ("pass", "from"),
    ("has-ball", "player"),
    ("move", "player"),
    ("shot", "player"),
    ("save", "player"),
    ("foul", "by"),
)
_DECAYS = ("1/t", "(exp {k})", "(linear {k})", "constant")


def _rules(count: int) -> list[str]:
    """`count` emotion rules. Half join a static on a team; of the rest, half
    match one player play and half join that play to an emotion in the pool.
    Three in ten carry a deletion, and the four decay forms take turns.
    Every cause names bound variables only, so the pool stays finite even under
    constant decay. The rules are the same for every seed."""
    layout = random.Random("rules_dense:layout")

    def etype() -> str:
        return layout.choice(EMOTION_TYPES)

    out = []
    for i in range(count):
        if i % 2 == 0:
            pred, key = _TEAM_PLAYS[(i // 2) % len(_TEAM_PLAYS)]
            static = layout.choice(("supports", "opponent"))
            pre = f"(pre ({static} team: ?t) ({pred} {key}: ?t))"
            target, cause, var = "nil", f"({pred} {key}: ?t)", "?t"
        else:
            pred, key = _PLAYER_PLAYS[(i // 2) % len(_PLAYER_PLAYS)]
            join = "" if i % 4 == 1 else f" (type: {etype()} target: ?p)"
            pre = f"(pre ({pred} {key}: ?p){join})"
            target, cause, var = "?p", f"({pred} {key}: ?p)", "?p"
        decay = _DECAYS[i % len(_DECAYS)].format(k=layout.choice((0.1, 0.2, 0.3, 0.5)))
        rule = (
            f"(emotion-rule\n  {pre}\n  (add (type: {etype()} intensity: {layout.randint(2, 9)} "
            f"target: {target} cause: {cause} decay: {decay}))"
        )
        if i % 10 in (3, 6, 9):
            rule += f"\n  (del (type: {etype()}{' target: ?p' if var == '?p' else ''}))"
        out.append(rule + ")")
    return out


_EMOTION_REF = re.compile(r"(?<=type: )\w+|(?<=\(motivated-by )[^)]*")


def rules_dense(demo: Demo, seed: int) -> Inputs:
    rng = random.Random(f"rules_dense:{seed}")
    log = tiled_log(demo.log, rng, tiles=1)
    profile = demo.profile + "\n# generated rules\n" + "\n\n".join(_rules(50)) + "\n"
    # The seed relabels the emotion types across the whole profile, rules and
    # behaviors alike, so every seed does the same matching work.
    relabel = dict(zip(EMOTION_TYPES, rng.sample(EMOTION_TYPES, len(EMOTION_TYPES))))
    profile = _EMOTION_REF.sub(lambda m: " ".join(relabel.get(w, w) for w in m.group(0).split()), profile)
    return Inputs(log, profile, demo.style, 0.25)


# --- chatter --------------------------------------------------------------------

# Each kind of play: its predicate, the template pattern over its arguments
# (?t names a team, any other variable a player), how many of the 600 plays
# are of this kind, and the five phrases of its chatter template.
_CHATTER_PLAYS = (
    ("pass", "from: ?x to: ?y", 180,
     "?x has the ball now / he looks up and around / and plays it on / forward to ?y in space / what a ball that is"),
    ("has-ball", "player: ?p", 90,
     "?p on the ball again / the shot is on here / goal side of his man / a quick look up field / and on he goes now"),
    ("move", "player: ?p", 90,
     "?p makes the run forward / into a bit of space / the ball will come to him / he wants a shot at goal / "
     "and a goal would follow"),
    ("shot", "player: ?p", 60,
     "?p shoots from range / a real shot at goal / is it a goal this time / the ball flies on and on / "
     "just wide of the goal"),
    ("save", "player: ?p", 48,
     "saved by ?p in goal / what a stop that is / the ball is loose again / no goal for them yet / "
     "the keeper is up quickly"),
    ("foul", "by: ?p against: ?t", 48,
     "a foul by ?p there / the ball is dead now / the referee has seen it / takes a long look at it / "
     "and waves play on again"),
    ("corner", "team: ?t", 48,
     "corner for ?t now / the ball goes in high / a header at the post / no goal from that one / and it is cleared away"),
    ("kickoff", "team: ?t", 18,
     "?t kick off again / the ball rolls back / and the game is on / back under way again / with the crowd behind them"),
    ("scores", "team: ?t", 18,
     "goal goal goal / a goal for ?t now / the ball is in the net / what a goal that is / and the crowd roars on"),
)
_ARG = re.compile(r"([\w-]+): \?(\w)")

# Most behaviors answer to interest, which passes and shots keep in the pool,
# so nearly every utterance gets a dozen layers of markup.
_CHATTER_BEHAVIORS = (
    ("interest", '(au 5 0.4 (word "ball"))'),
    ("interest", '(speech RATE every-phrase SPEED: "+5%")'),
    ("interest", '(au 2 0.3 (word "the"))'),
    ("interest", "(speech EMPH utterance)"),
    ("interest", '(au 1 0.3 (word "and"))'),
    ("interest", '(speech PITCH every-phrase RANGE: "+10%")'),
    ("interest", '(expr surprise 0.3 (word "a"))'),
    ("interest", "(au 12 0.4 every-phrase)"),
    ("surprise", "(aural whistle every-phrase)"),
    ("happiness", "(expr smile 0.4 every-phrase)"),
    ("sadness", '(aural groan (word "goal"))'),
    ("anger", '(speech VOLUME every-phrase LEVEL: "+10%")'),
)


def _chatter_profile(demo_profile: str, rng: random.Random) -> str:
    parts = [demo_profile, "# generated chatter behaviors and templates"]
    behaviors = list(_CHATTER_BEHAVIORS)
    rng.shuffle(behaviors)
    for i, (emotion, directive) in enumerate(behaviors, 1):
        parts.append(
            f"(behavior id: chat-{i} group: chat-{i}\n"
            f"  (motivated-by {emotion})\n  (directives {directive}))"
        )
    for pred, pattern, _, phrases in _CHATTER_PLAYS:
        segs = " ".join(f"<seg>{phrase}</seg>" for phrase in phrases.split(" / "))
        parts.append(f'(template id: chat-{pred}\n  (pre ({pred} {pattern}))\n  (text "<su>{segs}</su>"))')
    return "\n\n".join(parts) + "\n"


def chatter(demo: Demo, seed: int) -> Inputs:
    """A dense match: one new play every second for 600 s, each scored above
    what the previous play has decayed to, so it always outranks the running
    utterance."""
    rng = random.Random(f"chatter:{seed}")
    plays = [(pred, pattern) for pred, pattern, n, _ in _CHATTER_PLAYS for _ in range(n)]
    rng.shuffle(plays)
    players = ("a1", "a2", "a3", "b1", "b2")
    live: list[tuple[str, float, int]] = []  # fact text, initial relevance, start tick
    lines = ["# chatter match (generated)"]
    for t, (pred, pattern) in enumerate(plays):
        args, named = [], []
        for key, var in _ARG.findall(pattern):
            if var == "t":
                args.append(f"{key}: {rng.choice('ab')}")
            else:
                named.append(rng.choice([p for p in players if p not in named]))
                args.append(f"{key}: {named[-1]}")
        fact = f"({pred} {' '.join(args)} begintime: {t} endtime: {t + 1})"
        lines.append(f"(tick {t})")
        for text, rel, start in live:
            lines.append(f"(fact {text} relevance: {round(rel * DECAY_PER_S ** (t - start), 2):g})")
        live = [(text, rel, start) for text, rel, start in live if rel * DECAY_PER_S ** (t - start) >= 1]
        live.append((fact, rng.choice((7, 8, 9)), t))
        lines.append(f"(fact {fact} relevance: {live[-1][1]})")
    return Inputs("\n".join(lines) + "\n", _chatter_profile(demo.profile, rng), demo.style, 1.0)


GENERATORS = {"match90": match90, "rules_dense": rules_dense, "chatter": chatter}
