"""SEEML tag trees: parse, serialize, decorate, merge, verify, split.

SEEML is a thin superset of three SGML vocabularies plus a local supplement:
structural text annotation (lower-case: su, seg, np, vp, w), speech prosody
(upper-case: RATE, PITCH, VOLUME, EMPH, BREAK, AUDIO under a SABLE root),
facial mark-up (EXPR for whole expressions, AU for single action units), and
AURAL/AFFECT extras. The verifier turns one merged document into two outputs:
a speech script that keeps only the spoken side, and a millisecond timeline of
facial action units and lip-sync visemes. A ``LEVEL``, an ``AU NUM`` (unsigned)
and a delta (signed, as ``+10%``) hold decimal literals, read by `sexpr.atom`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import ByrneError
from .sexpr import Symbol, atom

if TYPE_CHECKING:
    from .style import StyleFile


class SeemlError(ByrneError):
    pass


class VerifyError(ByrneError):
    pass


GDA_TAGS = ("su", "seg", "np", "vp", "w")
SABLE_TAGS = ("SABLE", "RATE", "PITCH", "VOLUME", "EMPH", "BREAK", "AUDIO")
FACE_TAGS = ("EXPR", "AU")
SUPPLEMENT_TAGS = ("AURAL", "AFFECT")

# BREAK/AURAL are momentary and AUDIO is an insertion: none of them enclose text.
CHILDLESS_TAGS = frozenset({"BREAK", "AURAL", "AUDIO"})

EXPRESSION_NAMES = ("smile", "sadness", "fear", "anger", "disgust", "surprise")
AU_MIN, AU_MAX = 1, 46

_CANONICAL = {t.lower(): t for t in (*GDA_TAGS, *SABLE_TAGS, *FACE_TAGS, *SUPPLEMENT_TAGS)}

MIN_VISEME_MS = 60.0  # cartoon coarseness: at most one mouth shape per 60 ms
GESTURE_MS = 250.0  # nominal span for a point gesture that encloses no words

DEFAULT_VISEMES = {
    "a": "AA",
    "e": "EH",
    "i": "IY",
    "o": "OW",
    "u": "UW",
    "mbp": "MM",
    "fv": "FV",
    "w": "WW",
    "wide": "WIDE",
}


@dataclass(frozen=True)
class Text:
    text: str


@dataclass(frozen=True)
class Element:
    tag: str
    attrs: tuple[tuple[str, str], ...] = ()
    children: tuple["Node", ...] = ()

    def attr(self, name: str, default: Optional[str] = None) -> Optional[str]:
        for key, value in self.attrs:
            if key == name:
                return value
        return default


Node = Union[Text, Element]


@dataclass(frozen=True)
class SeemlDocument:
    children: tuple[Node, ...] = ()


def _normalize(children: Iterable[Node]) -> tuple[Node, ...]:
    # canonical trees never hold empty or adjacent text nodes
    out: list[Node] = []
    for child in children:
        if isinstance(child, Text):
            if not child.text:
                continue
            if out and isinstance(out[-1], Text):
                out[-1] = Text(out[-1].text + child.text)
                continue
        out.append(child)
    return tuple(out)


def _delta(value: str) -> Optional[tuple[float, str]]:
    """A signed value ("delta") as (magnitude, "%" or ""); merge_tags sums these."""
    if not value.startswith(("+", "-")):
        return None
    number, unit = (value[:-1], "%") if value.endswith("%") else (value, "")
    magnitude = atom(number)
    return None if isinstance(magnitude, Symbol) else (magnitude, unit)


def _validate(tag: str, attrs: dict[str, str]) -> None:
    # a signed value is a delta: reading each here fails a too-large literal at load
    deltas = {name: _delta(value) for name, value in attrs.items() if value.startswith(("+", "-"))}
    if tag == "AU":
        num = attrs.get("NUM", "")
        value = None if deltas.get("NUM") else atom(num)  # a signed NUM reads as a delta
        if not isinstance(value, int) or not AU_MIN <= value <= AU_MAX:
            raise SeemlError(f"AU NUM must be an unsigned integer {AU_MIN}-{AU_MAX}, got {num!r}")
    if tag == "EXPR":
        name = attrs.get("NAME")
        if name not in EXPRESSION_NAMES:
            raise SeemlError(
                f"unknown expression name {name!r}; expected one of {', '.join(EXPRESSION_NAMES)}"
            )
    if tag == "AURAL" and not attrs.get("NAME"):
        raise SeemlError("AURAL needs a NAME attribute")
    if tag == "AUDIO" and not attrs.get("SRC"):
        raise SeemlError("AUDIO needs a SRC attribute")
    if tag in ("EXPR", "AU", "AFFECT") and "LEVEL" in attrs:
        level, delta = attrs["LEVEL"], deltas.get("LEVEL")
        # verify_and_split reads EXPR/AU levels as plain numbers
        if delta and delta[1] and tag != "AFFECT":
            raise SeemlError(f"{tag} LEVEL delta cannot be a percentage, got {level!r}")
        if not delta:
            value = atom(level)
            if isinstance(value, Symbol) or not 0 <= value <= 1:
                raise SeemlError(f"{tag} LEVEL must be a number in [0,1] or a delta, got {level!r}")


def element(
    tag: str,
    attrs: Mapping[str, str] | Iterable[tuple[str, str]] = (),
    children: Iterable[Node] = (),
) -> Element:
    canon = _CANONICAL.get(tag.lower())
    if canon is None:
        raise SeemlError(f"unknown tag <{tag}>")
    case = str.lower if canon in GDA_TAGS else str.upper
    attr_map: dict[str, str] = {}
    for name, value in attrs.items() if isinstance(attrs, Mapping) else attrs:
        key = case(name)
        if key in attr_map:
            raise SeemlError(f"duplicate attribute {key} on <{canon}>")
        attr_map[key] = str(value)
    _validate(canon, attr_map)
    kids = _normalize(children)
    if canon in CHILDLESS_TAGS and kids:
        raise SeemlError(f"<{canon}> does not enclose content")
    return Element(canon, tuple(sorted(attr_map.items())), kids)


def document(children: Iterable[Node]) -> SeemlDocument:
    return SeemlDocument(_normalize(children))


_TAG_RE = re.compile(
    r"<\s*(/)?([A-Za-z][A-Za-z0-9]*)((?:\s+[A-Za-z][A-Za-z0-9]*\s*=\s*\"[^\"<>]*\")*)\s*(/)?\s*>"
)
_ATTR_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*\"([^\"]*)\"")
_ENTITY_RE = re.compile(r"&(amp|lt|gt|quot);")
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"'}


def _unescape(text: str) -> str:
    return _ENTITY_RE.sub(lambda m: _ENTITIES[m.group(1)], text)


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


def parse_seeml(text: str) -> SeemlDocument:
    """Parse SGML-style markup; tags are case-insensitive, unknown tags are errors."""
    stack: list[tuple[Element, list[Node]]] = []
    top: list[Node] = []

    def attach(node: Node) -> None:
        (stack[-1][1] if stack else top).append(node)

    pos = 0
    while pos < len(text):
        lt = text.find("<", pos)
        if lt == -1:
            attach(Text(_unescape(text[pos:])))
            break
        if lt > pos:
            attach(Text(_unescape(text[pos:lt])))
        m = _TAG_RE.match(text, lt)
        if m is None:
            raise SeemlError(f"malformed tag at offset {lt}: {text[lt:lt + 30]!r}")
        closing, name, attr_text, selfclose = m.groups()
        pos = m.end()
        if closing:
            if selfclose or attr_text.strip():
                raise SeemlError(f"malformed closing tag </{name}>")
            if not stack:
                raise SeemlError(f"unmatched closing tag </{name}>")
            open_el, kids = stack.pop()
            canon = _CANONICAL.get(name.lower())
            if canon != open_el.tag:
                raise SeemlError(f"closing tag </{name}> does not match <{open_el.tag}>")
            attach(Element(open_el.tag, open_el.attrs, _normalize(kids)))
            continue
        attrs = [(am.group(1), _unescape(am.group(2))) for am in _ATTR_RE.finditer(attr_text)]
        el = element(name, attrs)
        if selfclose or el.tag in CHILDLESS_TAGS:
            attach(el)
        else:
            stack.append((el, []))
    if stack:
        raise SeemlError(f"unclosed tag <{stack[-1][0].tag}>")
    return document(top)


def serialize_seeml(doc: SeemlDocument) -> str:
    """Canonical text: attributes sorted and double-quoted, childless tags self-closed."""
    return "".join(_serialize_node(n) for n in doc.children)


def _serialize_node(node: Node) -> str:
    if isinstance(node, Text):
        return _escape_text(node.text)
    return _tagged(node.tag, node.attrs, "".join(_serialize_node(c) for c in node.children))


def _tagged(tag: str, attrs: Iterable[tuple[str, str]], inner: str) -> str:
    # canonical trees hold no empty text, so empty `inner` means no children
    attr_text = "".join(f' {k}="{_escape_attr(v)}"' for k, v in attrs)
    return f"<{tag}{attr_text}>{inner}</{tag}>" if inner else f"<{tag}{attr_text}/>"


def elements(nodes: Iterable[Node]) -> Iterable[Element]:
    """Every element in and below `nodes`, in document order."""
    for node in nodes:
        if isinstance(node, Element):
            yield node
            yield from elements(node.children)


def substitute(doc: SeemlDocument, fill: Callable[[str], str]) -> SeemlDocument:
    """`doc` with `fill` applied to every text node and attribute value; what
    `fill` returns is literal text. An element whose attributes change is built
    again, so its checks run on the new values."""

    def walk(node: Node) -> Node:
        if isinstance(node, Text):
            return Text(fill(node.text))
        attrs = tuple((name, fill(value)) for name, value in node.attrs)
        kids = [walk(child) for child in node.children]
        if attrs != node.attrs:
            return element(node.tag, attrs, kids)
        return _with_children(node, kids)

    return document(walk(node) for node in doc.children)


def strip_text(doc: SeemlDocument) -> str:
    out: list[str] = []

    def walk(node: Node) -> None:
        if isinstance(node, Text):
            out.append(node.text)
        else:
            for child in node.children:
                walk(child)

    for node in doc.children:
        walk(node)
    return "".join(out)


# --- directive application -------------------------------------------------


@dataclass(frozen=True)
class Scope:
    kind: str  # utterance | every-phrase | word | point
    word: str = ""
    position: str = ""  # start | end


UTTERANCE = Scope("utterance")
EVERY_PHRASE = Scope("every-phrase")


def word_trigger(word: str) -> Scope:
    if not str(word):
        raise SeemlError("word trigger needs a non-empty word")
    return Scope("word", word=str(word))


def at_point(position: str) -> Scope:
    if position not in ("start", "end"):
        raise SeemlError(f"point scope must be start or end, not '{position}'")
    return Scope("point", position=position)


@dataclass(frozen=True)
class Directive:
    """A behavior's markup: one validated element and where it goes."""

    mark: Element
    scope: Scope


def _with_children(el: Element, children: Iterable[Node]) -> Element:
    return Element(el.tag, el.attrs, _normalize(children))


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


def _word_regex(word: str) -> re.Pattern[str]:
    return re.compile(rf"(?<!\w){re.escape(word)}(?!\w)", re.IGNORECASE)


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
    """Layer behavior-driven markup over an already marked-up utterance.

    Every span a directive wraps reuses its element's tag and attributes.
    """
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
        elif kind == "word":
            nodes = _wrap_words(nodes, mark, d.scope.word.lower(), _word_regex(d.scope.word))
        else:
            raise SeemlError(f"unknown directive scope '{kind}'")
    return document(nodes)


# --- merge algebra ----------------------------------------------------------


def _identity(el: Element) -> tuple[tuple, dict[str, tuple[float, str]]]:
    """The merge identity of `el`, and its signed relative ("delta") attributes.

    The identity is the tag, the absolute attributes, and the delta names and
    units: delta magnitudes are left out, so two RATE tags asking for different
    signed speed changes count as identical and add up.
    """
    plain, deltas = [], {}  # a loop: on the merge's hot path a comprehension costs a frame
    for name, value in el.attrs:
        if delta := _delta(value):
            deltas[name] = delta
        else:
            plain.append((name, value))
    units = tuple(sorted((name, unit) for name, (_, unit) in deltas.items()))
    return (el.tag, tuple(plain), units), deltas


def merge_tags(doc: SeemlDocument) -> SeemlDocument:
    """Resolve stacked markup with the three combination rules.

    Non-identical tags are independent and untouched. An element identical to a
    strict ancestor is redundant: without delta attributes the inner copy goes
    (the larger scope stands); with delta attributes the tags collapse onto the
    innermost span and their deltas sum.
    """

    def merge(nodes: Iterable[Node], plain_anc: frozenset, sums: dict) -> tuple[list[Node], set]:
        """The merged `nodes`, and the identities of the delta elements among them.

        `sums` maps a delta identity to the deltas summed over its enclosing
        copies. A delta element collapses when its identity comes back from
        below: the innermost copy of a chain always survives, and a delta
        identity never equals a plain one, since it has units.
        """
        out: list[Node] = []
        found: set = set()
        for node in nodes:
            if isinstance(node, Text):
                out.append(node)
                continue
            ident, deltas = _identity(node)
            if deltas:
                inherited = sums.get(ident, {})
                summed = {name: inherited.get(name, 0.0) + mag for name, (mag, _) in deltas.items()}
                kids, below = merge(node.children, plain_anc, {**sums, ident: summed})
                if ident not in below:
                    attrs = [*ident[1], *((n, f"{summed[n]:+g}{u}") for n, (_, u) in deltas.items())]
                    # the summed deltas are new attribute values, so they are validated again
                    kids = [element(node.tag, attrs, kids)]
                    below.add(ident)
            elif ident in plain_anc:
                kids, below = merge(node.children, plain_anc, sums)
            else:
                kids, below = merge(node.children, plain_anc | {ident}, sums)
                kids = [_with_children(node, kids)]
            out.extend(kids)
            found |= below
        return out, found

    return document(merge(doc.children, frozenset(), {})[0])


# --- verifier: timing, split, lip sync ---------------------------------------


@dataclass(frozen=True)
class TimedWord:
    word: str
    onset_ms: float
    duration_ms: float


@dataclass(frozen=True)
class FacsEvent:
    onset_ms: float
    au: int
    intensity: float
    duration_ms: float


@dataclass(frozen=True)
class VisemeEvent:
    onset_ms: float
    viseme: str
    duration_ms: float


@dataclass(frozen=True)
class OutputBundle:
    speech_script: str
    timeline: tuple[Union[FacsEvent, VisemeEvent], ...]
    total_duration_ms: float
    seg_boundaries_ms: tuple[float, ...]


def _letter_class(ch: str) -> str:
    if ch in "aeiou":
        return ch
    if ch in "mbp":
        return "mbp"
    if ch in "fv":
        return "fv"
    if ch == "w":
        return "w"
    return "wide"


def lip_sync(
    words: Sequence[TimedWord], visemes: Mapping[str, str] = DEFAULT_VISEMES
) -> list[VisemeEvent]:
    """Cartoon-style mouth shapes from a letter-class scan, spread evenly per word;
    `visemes` maps every letter class to its mouth shape."""
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


def _timeline_key(ev: Union[FacsEvent, VisemeEvent]) -> tuple:
    if isinstance(ev, FacsEvent):
        return (ev.onset_ms, 0, ev.au, ev.duration_ms, "")
    return (ev.onset_ms, 1, 0, ev.duration_ms, ev.viseme)


def _unit(intensity: float) -> float:
    # merged signed LEVELs can sum past either end of the scale
    return min(1.0, max(0.0, intensity))


def verify_and_split(doc: SeemlDocument, style: "StyleFile") -> OutputBundle:
    """Assign word timings, resolve facial markup through the style file, and
    split the document into a speech script plus a facial/viseme timeline.

    One walk times the words, records the facial spans and the `<seg>` closes,
    and writes the spoken side: `EXPR`/`AU` dropped, `AURAL` resolved to `AUDIO`.
    """
    word_ms = 60000.0 / style.words_per_minute
    words: list[TimedWord] = []
    seg_closes: list[float] = []
    spans: list[tuple[Element, float, float]] = []
    cursor = 0.0

    def speak(node: Node) -> str:
        nonlocal cursor
        if isinstance(node, Text):
            for token in node.text.split():
                words.append(TimedWord(token, cursor, word_ms))
                cursor += word_ms
            return _escape_text(node.text)
        if node.tag == "AURAL":
            name = node.attr("NAME")
            path = style.aural.get(name)
            if path is None:
                raise VerifyError(f"aural event '{name}' missing from style")
            return _serialize_node(element("AUDIO", {"SRC": path}))
        if node.tag == "BREAK":
            cursor += style.break_ms
        start = cursor
        inner = "".join(speak(child) for child in node.children)
        if node.tag in ("EXPR", "AU"):
            spans.append((node, start, cursor))
            return inner
        if node.tag == "seg":
            seg_closes.append(cursor)
        return _tagged(node.tag, node.attrs, inner)

    script = _tagged("SABLE", (), "".join(speak(node) for node in doc.children))
    total = cursor
    if spans and not words:
        raise VerifyError("facial mark-up with no words to anchor a timeline")

    facs: list[FacsEvent] = []
    for el, start, end in spans:
        if end <= start:  # point gesture: give it a nominal span
            end = start + GESTURE_MS
            total = max(total, end)
        duration = max(0.0, min(end, total) - start)
        level = atom(el.attr("LEVEL", "1.0"))
        if el.tag == "AU":
            facs.append(FacsEvent(start, atom(el.attr("NUM")), _unit(level), duration))
        else:
            # the markup admits only the six names, and the style maps all six
            weights = style.expressions[el.attr("NAME")]
            facs.extend(
                FacsEvent(start, au, _unit(weight * level), duration) for au, weight in weights
            )

    timeline = sorted([*facs, *lip_sync(words, style.visemes)], key=_timeline_key)
    return OutputBundle(script, tuple(timeline), total, tuple(sorted(seg_closes)))


def format_face_timeline(bundle: OutputBundle) -> str:
    """Tab-separated timeline rows under the `#byrne-facs v1` header."""
    lines = ["#byrne-facs v1"]
    for ev in bundle.timeline:
        if isinstance(ev, FacsEvent):
            kind, ident, intensity = "AU", str(ev.au), ev.intensity
        else:
            kind, ident, intensity = "VIS", ev.viseme, 1.0
        lines.append(
            f"{round(ev.onset_ms)}\t{kind}\t{ident}\t{intensity:.3f}\t{round(ev.duration_ms)}"
        )
    return "\n".join(lines) + "\n"
