"""Reference directive fold, lip sync and verifier, for equivalence tests.

`apply_directives` is how byrne layered behavior markup before it walked each
run of every-phrase and word directives once: every directive rebuilds the
whole tree in turn. `lip_sync` scans every word's letters on every call.

`verify_and_split` is how byrne verified and split a merged document before
it did so in one walk: one walk times the words and records the facial spans
and `<seg>` closes, a second projects the spoken side as a tree, and the tree
is then serialized. Like `seeml.verify_and_split`, it takes a document the loader can
produce: every aural name is in the style.

`fill_sites` is how byrne found where a body's variables lie before it did so
in one walk: one walk gathers the texts and spells each `<seg>` and `<w>`
that holds a variable, and a second finds the paths to the texts that hold one.
It returns `seeml.FillSites`' `paths`, `held` and `spelled`.

It also holds `serialize_seeml`, a document's canonical text, which byrne
itself writes only inside `verify_and_split`, with the same escapes, and
`strip_text`, a document's words, which only the tests read.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Mapping, Sequence

from byrne.seeml import (
    CHILDLESS_TAGS,
    DEFAULT_VISEMES,
    GESTURE_MS,
    MIN_VISEME_MS,
    Directive,
    Element,
    FacsEvent,
    Node,
    OutputBundle,
    Paths,
    SeemlDocument,
    Text,
    TimedWord,
    VisemeEvent,
    _escape_text,
    _letter_class,
    _tagged,
    _timeline_key,
    _unit,
    _with_children,
    document,
    element,
    texts,
)
from byrne.sexpr import VARIABLE
from byrne.style import StyleFile


def strip_text(doc: SeemlDocument) -> str:
    """The document's words and spaces, markup dropped."""
    return "".join(texts(doc.children))


def text_paths(nodes: Sequence[Node], test: Callable[[str], object]) -> Paths:
    """The paths to the texts in and below `nodes` for which `test` is true."""
    found: list[tuple[int, Paths]] = []
    for i, node in enumerate(nodes):
        if isinstance(node, Text):
            if test(node.text):
                found.append((i, ()))
        elif inner := text_paths(node.children, test):
            found.append((i, inner))
    return tuple(found)


def _spelled_groups(nodes: Iterable[Node], groups: list[tuple[str, ...]]) -> list[str]:
    """The texts in and below `nodes`; those of each `<seg>` and `<w>` among
    them that holds a variable go to `groups` as well."""
    leaves: list[str] = []
    for node in nodes:
        if isinstance(node, Text):
            leaves.append(node.text)
            continue
        inner = _spelled_groups(node.children, groups)
        if node.tag in ("seg", "w") and any(map(VARIABLE.search, inner)):
            groups.append(tuple(inner))
        leaves += inner
    return leaves


def fill_sites(body: SeemlDocument) -> tuple[Paths, tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Where `body`'s variables lie, and what a word trigger reads of them."""
    spelled: list[tuple[str, ...]] = []
    leaves = _spelled_groups(body.children, spelled)
    held = tuple(leaf for leaf in leaves if VARIABLE.search(leaf))
    paths = text_paths(body.children, VARIABLE.search)
    return paths, held, (*spelled, tuple(leaves)) if held else ()


def _marked(node: Node, mark: Element) -> list[Node]:
    # a mark that cannot enclose text is inserted beside the node instead
    if mark.tag in CHILDLESS_TAGS:
        return [node, mark]
    return [_with_children(mark, (node,))]


def _wrap_phrases(nodes: Sequence[Node], mark: Element) -> list[Node]:
    out: list[Node] = []
    for node in nodes:
        if isinstance(node, Element):
            node = _with_children(node, _wrap_phrases(node.children, mark))
            if node.tag == "seg":
                out.extend(_marked(node, mark))
                continue
        out.append(node)
    return out


def _wrap_words(nodes: Sequence[Node], mark: Element, word: str, rx: re.Pattern[str]) -> list[Node]:
    out: list[Node] = []
    for node in nodes:
        if isinstance(node, Element):
            if node.tag == "w" and strip_text(SeemlDocument((node,))).strip().lower() == word:
                out.extend(_marked(node, mark))
            else:
                out.append(_with_children(node, _wrap_words(node.children, mark, word, rx)))
            continue
        pos = 0
        for m in rx.finditer(node.text):
            if m.start() > pos:
                out.append(Text(node.text[pos : m.start()]))
            out.extend(_marked(Text(m.group(0)), mark))
            pos = m.end()
        if pos < len(node.text):
            out.append(Text(node.text[pos:]))
    return out


def apply_directives(doc: SeemlDocument, directives: Sequence[Directive]) -> SeemlDocument:
    nodes: Sequence[Node] = doc.children
    for d in directives:
        mark = d.mark
        kind = d.scope.kind
        if kind == "utterance":
            nodes = [*nodes, mark] if mark.tag in CHILDLESS_TAGS else [_with_children(mark, nodes)]
        elif kind == "point":
            nodes = [mark, *nodes] if d.scope.position == "start" else [*nodes, mark]
        elif kind == "every-phrase":
            nodes = _wrap_phrases(nodes, mark)
        else:  # word
            rx = re.compile(rf"(?<!\w){re.escape(d.scope.word)}(?!\w)", re.IGNORECASE)
            nodes = _wrap_words(nodes, mark, d.scope.word.lower(), rx)
    return document(nodes)


def lip_sync(
    words: Sequence[TimedWord], visemes: Mapping[str, str] = DEFAULT_VISEMES
) -> list[VisemeEvent]:
    events: list[VisemeEvent] = []
    for w in words:
        runs: list[str] = []
        for ch in w.word.lower():
            if not ch.isalpha():
                continue
            cls = _letter_class(ch)
            if not runs or runs[-1] != cls:
                runs.append(cls)
        if not runs:
            runs = ["wide"]
        cap = max(1, int(w.duration_ms / MIN_VISEME_MS))
        runs = runs[:cap]
        dur = w.duration_ms / len(runs)
        events.extend(
            VisemeEvent(w.onset_ms + i * dur, visemes[cls], dur) for i, cls in enumerate(runs)
        )
    return events


def serialize_seeml(doc: SeemlDocument) -> str:
    """Canonical text: attributes sorted and double-quoted, childless tags self-closed."""
    return "".join(_serialize_node(n) for n in doc.children)


def _serialize_node(node: Node) -> str:
    if isinstance(node, Text):
        return _escape_text(node.text)
    return _tagged(node.tag, node.attrs, "".join(_serialize_node(c) for c in node.children))


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
            return [element("AUDIO", {"SRC": style.aural[node.attr("NAME")]})]
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
