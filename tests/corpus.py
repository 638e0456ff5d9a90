"""Seeded random generators and builders shared by the test modules."""

from __future__ import annotations

from random import Random

from byrne.facts import FactBoard, GameFact, TickUpdate, apply_tick, fact_from_sexpr
from byrne.seeml import (
    EXPRESSION_NAMES,
    Directive,
    Element,
    Node,
    Scope,
    SeemlDocument,
    Text,
    document,
    element,
)
from byrne.sexpr import Sexpr, Symbol, kw, to_text

_WORDS = ["goal", "pass", "ball", "saved", "what", "a", "stop", "corner", "now", "Kirk", "flies"]

_PLAYERS = [Symbol(p) for p in ("a1", "a2", "a3", "b1", "b2", "b3")]
_TEAMS = [Symbol(t) for t in ("a", "b")]


def random_fact(rng: Random) -> GameFact:
    kind = rng.randrange(4)
    if kind == 0:
        args = (("from", rng.choice(_PLAYERS)), ("to", rng.choice(_PLAYERS)))
        pred = Symbol("pass")
    elif kind == 1:
        args = (("player", rng.choice(_PLAYERS)),)
        pred = Symbol("has-ball")
    elif kind == 2:
        args = (("player", rng.choice(_PLAYERS)), ("toloc", (rng.randrange(50), rng.randrange(30))))
        pred = Symbol("move")
    else:
        args = (("team", rng.choice(_TEAMS)),)
        pred = Symbol("scores")
    if rng.random() < 0.3:
        end = rng.randrange(0, 300)
        args = args + (("begintime", end - 5), ("endtime", end))
    relevance = round(rng.uniform(1.0, 10.0), 2)
    return fact_from_sexpr((pred, *(x for name, term in args for x in (kw(name), term))), relevance)


def random_board(rng: Random, min_size: int = 1, max_size: int = 8) -> FactBoard:
    facts = tuple(random_fact(rng) for _ in range(rng.randrange(min_size, max_size + 1)))
    return apply_tick(FactBoard(), TickUpdate(float(rng.randrange(0, 1000)), facts))


def markup(tag: str, scope: Scope, **attrs: str) -> Directive:
    """A directive that puts one validated element at `scope`."""
    return Directive(element(tag, attrs), scope)


def _random_text(rng: Random) -> Text:
    return Text(" ".join(rng.choice(_WORDS) for _ in range(rng.randrange(1, 4))) + " ")


def _random_tag(rng: Random) -> tuple[str, dict[str, str]]:
    """A tag drawn from the markup table's rows, with a value for some of its
    attributes: amounts and levels as deltas and as plain values."""
    roll = rng.randrange(13)
    if roll < 3:
        return rng.choice(["su", "seg", "np", "vp"]), {}
    if roll == 3:
        return "w", {"pos": rng.choice(["n", "v"])}
    if roll == 4:
        return "RATE", {"SPEED": rng.choice(["+5%", "+10%", "+15%", "-5%"])}
    if roll == 5:
        return "PITCH", {"RANGE": rng.choice(["+10%", "+20%", "-10%"])}
    if roll == 6:
        return "EXPR", {
            "NAME": rng.choice(EXPRESSION_NAMES),
            "LEVEL": rng.choice(["0.5", "0.8", "1.0"]),
        }
    if roll == 7:
        return "AU", {"NUM": str(rng.randrange(1, 47)), "LEVEL": "0.6"}
    if roll == 8:
        return "EMPH", {}
    if roll == 9:
        return "PITCH", {"BASE": rng.choice(["+5%", "-10%", "+2"]), "RANGE": rng.choice(["+10%", "wide"])}
    if roll == 10:
        return "VOLUME", {"LEVEL": rng.choice(["+10%", "-5%", "loud"])}
    if roll == 11:
        return "EMPH", {"LEVEL": rng.choice(["strong", "moderate", "+10%", "-5%"])}
    return "AFFECT", {
        "TYPE": rng.choice(["interest", "happiness"]),
        "LEVEL": rng.choice(["0.5", "+10%", "-0.2"]),
    }


def _random_node(rng: Random, depth: int, ancestors: list[tuple[str, dict[str, str]]]) -> Node:
    if depth <= 0 or rng.random() < 0.35:
        return _random_text(rng)
    if rng.random() < 0.12:
        return element("BREAK")
    if rng.random() < 0.08:
        return element("AURAL", {"NAME": rng.choice(["hiccup", "cheer"])})
    # re-using an ancestor's exact tag exercises the redundancy/additivity rules
    if ancestors and rng.random() < 0.35:
        tag, attrs = rng.choice(ancestors)
    else:
        tag, attrs = _random_tag(rng)
    kids = [
        _random_node(rng, depth - 1, ancestors + [(tag, attrs)])
        for _ in range(rng.randrange(1, 4))
    ]
    return element(tag, attrs, kids)


def random_document(rng: Random, max_depth: int = 4) -> SeemlDocument:
    roots = [_random_node(rng, max_depth, []) for _ in range(rng.randrange(1, 4))]
    return document(roots)


# --- profiles ---------------------------------------------------------------

_EMOTIONS = ["fear", "anger", "sadness", "happiness", "disgust", "surprise", "interest"]
_DECAYS = [Symbol("1/t"), Symbol("constant"), (Symbol("exp"), 0.3), (Symbol("linear"), 0.15)]
# Display names: some are words the templates speak or the triggers seek.
_DISPLAY_NAMES = ["Kirk", "the", "the ball", "a", "goal", "Kirk son", "b"]
# Word triggers: the templates' words next to their variables, two words
# around one, the display names, and words that begin or end with punctuation.
_TRIGGERS = [
    "goal", "score", "shoots", "ball", "the", "what a", "a b", "the ball", "kirk son", "kirkson",
    "goal!", "'ball", "score.", *_DISPLAY_NAMES,
]
# Two triggers in a row, the second's start the first's end: in the text the
# first leaves of "what a goal goal ?t", the second can line up otherwise than
# over the whole text, and take a fill.
_CHAINED_TRIGGERS = ("a goal", "goal goal")
_TEAM_LINES = [
    "<su><seg>?t score</seg></su>", '<seg>what a "goal"</seg>', "<su><seg>what a ?t goal</seg></su>",
    "<su><seg>what a goal goal ?t</seg></su>",
]
_SHOT_LINES = [
    "<su><seg>?p shoots</seg> <seg>the ball flies</seg></su>",
    "<su><seg><w>?p</w> has the ball</seg></su>",
    "<su><seg>a shot by ?p<np>son</np> now</seg></su>",
    "<su><seg>?p<EMPH>shoots</EMPH> wide</seg></su>",
    "<su><seg>one more ball?p wide</seg></su>",
]


def _random_scope(rng: Random) -> Sexpr:
    roll = rng.randrange(5)
    if roll == 0:
        return Symbol("utterance")
    if roll == 1:
        return Symbol("every-phrase")
    if roll == 2:
        return (Symbol("point"), Symbol(rng.choice(["start", "end"])))
    return (Symbol("word"), rng.choice(_TRIGGERS))


def _random_directive_form(rng: Random, scope: Sexpr | None = None) -> tuple:
    scope = scope or _random_scope(rng)
    roll = rng.randrange(6)
    if roll == 0:
        return (Symbol("expr"), Symbol(rng.choice(EXPRESSION_NAMES)), rng.choice([0, 0.5, 1]), scope)
    if roll == 1:
        return (Symbol("au"), rng.randrange(1, 47), rng.choice([0.25, 1.0]), scope)
    if roll == 2:
        return (Symbol("aural"), Symbol(rng.choice(["hiccup", "cheer"])), scope)
    if roll == 3:
        return (Symbol("speech"), Symbol("RATE"), scope, kw("SPEED"), rng.choice(["+5%", "-10%"]))
    if roll == 4:  # a <w> every phrase is spelled whole by the word triggers after it
        scope = Symbol("every-phrase") if rng.random() < 0.5 else scope
        return (Symbol("speech"), Symbol("w"), scope, kw("pos"), "n")
    return (Symbol("speech"), Symbol("EMPH"), scope)


def random_profile_forms(rng: Random) -> list[tuple]:
    """Top-level forms of a valid profile that uses every kind of form, with
    templates for scoring and shot facts."""
    team = (Symbol("scores"), kw("team"), Symbol("?t"))
    forms: list[tuple] = [
        (Symbol("static"), (Symbol("supports"), kw("team"), rng.choice(_TEAMS))),
        (Symbol("names"), *((p, rng.choice(_DISPLAY_NAMES)) for p in rng.sample(_PLAYERS + _TEAMS, 4))),
        (Symbol("params"), kw("lambda"), rng.choice([0, 2.5, 5])),
    ]
    for _ in range(rng.randrange(1, 4)):
        schema = (
            kw("type"), Symbol(rng.choice(_EMOTIONS)), kw("intensity"), rng.randrange(1, 11),
            kw("target"), rng.choice([Symbol("nil"), Symbol("?t")]), kw("cause"), team,
            kw("decay"), rng.choice(_DECAYS),
        )
        rule = [Symbol("emotion-rule"), (Symbol("pre"), team), (Symbol("add"), schema)]
        if rng.random() < 0.5:
            rule.append((Symbol("del"), (kw("type"), Symbol(rng.choice(_EMOTIONS)))))
        forms.append(tuple(rule))
    leaves = [f"leaf{i}" for i in range(rng.randrange(1, 4))]
    for bid in leaves:
        directives = tuple(_random_directive_form(rng) for _ in range(rng.randrange(1, 4)))
        if rng.random() < 0.25:
            directives += tuple(_random_directive_form(rng, (Symbol("word"), w)) for w in _CHAINED_TRIGGERS)
        forms.append((
            Symbol("behavior"), kw("id"), Symbol(bid), kw("group"), Symbol(rng.choice("xyz")),
            (Symbol("motivated-by"), Symbol(rng.choice(_EMOTIONS)), kw("target"), Symbol("?who")),
            (Symbol("directives"), *directives),
        ))
    forms.append((
        Symbol("behavior"), kw("id"), Symbol("root"), kw("group"), Symbol("w"),
        (Symbol("motivated-by"), Symbol(rng.choice(_EMOTIONS))),
        (Symbol("pre"), (Symbol("supports"), kw("team"), Symbol("?s"))),
        (Symbol("children"), *(Symbol(b) for b in rng.sample(leaves, len(leaves)))),
    ))
    for i in range(rng.randrange(1, 4)):
        forms.append((
            Symbol("template"), kw("id"), Symbol(f"line{i}"), (Symbol("pre"), team),
            (Symbol("text"), rng.choice(_TEAM_LINES)),
        ))
    for i in range(rng.randrange(1, 3)):
        forms.append((
            Symbol("template"), kw("id"), Symbol(f"shot{i}"),
            (Symbol("pre"), (Symbol("shot"), kw("player"), Symbol("?p"))),
            (Symbol("text"), rng.choice(_SHOT_LINES)),
        ))
    rng.shuffle(forms)
    return forms


def random_layout(rng: Random, form) -> str:
    """`form` as text with random whitespace, line breaks and comments."""
    if not isinstance(form, tuple):
        return to_text(form)

    def gap() -> str:
        return rng.choice([" ", "  ", "\n", "\n    ", "\t", " # note ( ) \"\n  "])

    inner = gap().join(random_layout(rng, item) for item in form)
    return "(" + rng.choice(["", " ", "\n"]) + inner + rng.choice(["", " ", "\n"]) + ")"
