"""Reference verifier, for equivalence tests.

This is how byrne verified and split a merged document before it did so in one
walk: one walk times the words and records the facial spans and `<seg>`
closes, a second projects the spoken side as a tree, and the tree is then
serialized. It differs from `seeml.verify_and_split` only in which error it
reports first: for a document with an unknown aural name, facial markup and no
words, it reports the missing words.
"""

from __future__ import annotations

from byrne.seeml import (
    GESTURE_MS,
    Element,
    FacsEvent,
    Node,
    OutputBundle,
    SeemlDocument,
    Text,
    TimedWord,
    VerifyError,
    _timeline_key,
    _unit,
    _with_children,
    document,
    element,
    lip_sync,
    serialize_seeml,
)
from byrne.style import StyleFile


def verify_and_split(doc: SeemlDocument, style: StyleFile) -> OutputBundle:
    word_ms = 60000.0 / style.words_per_minute
    words: list[TimedWord] = []
    seg_closes: list[float] = []
    spans: list[tuple[Element, float, float]] = []
    cursor = 0.0

    def walk(node: Node) -> None:
        nonlocal cursor
        if isinstance(node, Text):
            for token in node.text.split():
                words.append(TimedWord(token, cursor, word_ms))
                cursor += word_ms
            return
        if node.tag == "BREAK":
            cursor += style.break_ms
            return
        if node.tag == "AURAL":
            return
        start = cursor
        for child in node.children:
            walk(child)
        end = cursor
        if node.tag in ("EXPR", "AU"):
            spans.append((node, start, end))
        elif node.tag == "seg":
            seg_closes.append(end)

    for node in doc.children:
        walk(node)
    total = cursor

    facs: list[FacsEvent] = []
    for el, start, end in spans:
        if not words:
            raise VerifyError("facial mark-up with no words to anchor a timeline")
        if end <= start:  # point gesture: give it a nominal span
            end = start + GESTURE_MS
            total = max(total, end)
        duration = max(0.0, min(end, total) - start)
        level = float(el.attr("LEVEL", "1.0"))
        if el.tag == "AU":
            facs.append(FacsEvent(start, int(el.attr("NUM")), _unit(level), duration))
        else:
            weights = style.expressions[el.attr("NAME")]
            facs.extend(
                FacsEvent(start, au, _unit(weight * level), duration) for au, weight in weights
            )

    def project(node: Node) -> list[Node]:
        if isinstance(node, Text):
            return [node]
        if node.tag in ("EXPR", "AU"):
            out: list[Node] = []
            for child in node.children:
                out.extend(project(child))
            return out
        if node.tag == "AURAL":
            name = node.attr("NAME")
            path = style.aural.get(name)
            if path is None:
                raise VerifyError(f"aural event '{name}' missing from style")
            return [element("AUDIO", {"SRC": path})]
        kids: list[Node] = []
        for child in node.children:
            kids.extend(project(child))
        return [_with_children(node, kids)]

    body: list[Node] = []
    for node in doc.children:
        body.extend(project(node))
    script = serialize_seeml(document([element("SABLE", (), body)]))

    timeline = sorted([*facs, *lip_sync(words, style.visemes)], key=_timeline_key)
    return OutputBundle(script, tuple(timeline), total, tuple(sorted(seg_closes)))
