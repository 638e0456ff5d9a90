"""SEEML tag trees: parse, serialize, decorate, merge, verify, split.

SEEML is a thin superset of GDA text structure, SABLE speech prosody and FACS
facial mark-up, plus AURAL/AFFECT extras; `TAGS` gives each tag's attributes.
The verifier turns one merged document into a speech script that keeps only the
spoken side, and a millisecond timeline of facial action units and lip-sync visemes.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ByrneError
from .sexpr import VARIABLE, Symbol, atom

if TYPE_CHECKING:
    from .style import StyleFile


class SeemlError(ByrneError):
    pass


# BREAK/AURAL are momentary and AUDIO is an insertion: none of them enclose text.
CHILDLESS_TAGS = frozenset({"BREAK", "AURAL", "AUDIO"})

EXPRESSION_NAMES = ("smile", "sadness", "fear", "anger", "disgust", "surprise")
AU_MIN, AU_MAX = 1, 46

# Each tag, with the attributes it takes, the kind of each, and whether the tag
# needs it. A lower-case tag (GDA text structure) has lower-case attributes;
# the rest are SABLE speech, FACS face, and the AURAL/AFFECT supplement. Only an
# amount or a level may be a delta, a signed decimal literal with an optional "%",
# and `merge_tags` sums deltas only. A level is a number in [0,1] or a delta, and
# a facial level's delta has no "%", since the verifier reads it as a number.
# An unsigned amount ("strong"), a name and a path are written as given.
AMOUNT, LEVEL, FACE_LEVEL, NAME, PATH = "amount", "level", "facial level", "name", "path"
EXPRESSION, ACTION_UNIT = "expression", "action unit"
_SUMMED = (AMOUNT, LEVEL, FACE_LEVEL)
REQUIRED, OPTIONAL = True, False
TAGS: dict[str, dict[str, tuple[str, bool]]] = {
    **{tag: {} for tag in ("su", "seg", "np", "vp", "SABLE", "BREAK")},
    "w": {"pos": (NAME, OPTIONAL)},
    "RATE": {"SPEED": (AMOUNT, OPTIONAL)},
    "PITCH": {"BASE": (AMOUNT, OPTIONAL), "RANGE": (AMOUNT, OPTIONAL)},
    "VOLUME": {"LEVEL": (AMOUNT, OPTIONAL)},
    "EMPH": {"LEVEL": (AMOUNT, OPTIONAL)},
    "AUDIO": {"SRC": (PATH, REQUIRED)},
    "EXPR": {"NAME": (EXPRESSION, REQUIRED), "LEVEL": (FACE_LEVEL, OPTIONAL)},
    "AU": {"NUM": (ACTION_UNIT, REQUIRED), "LEVEL": (FACE_LEVEL, OPTIONAL)},
    "AURAL": {"NAME": (NAME, REQUIRED)},
    "AFFECT": {"TYPE": (NAME, OPTIONAL), "LEVEL": (LEVEL, OPTIONAL)},
}
_CANONICAL = {t.lower(): t for t in TAGS}

# Elements on one path from a document's top. The directive, merge and verify
# walks recurse once or twice per level, so the profile loader holds a template
# body plus the most markup one utterance's behaviors can wrap around it to this.
MAX_NESTING = 200
# The largest delta a literal may give: `merge_tags` sums one per element on a
# path, and the + 1 leaves room for rounding, so no sum reaches infinity.
_MAX_DELTA = sys.float_info.max / (MAX_NESTING + 1)

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


# Tree nodes have slots: a replay keeps many trees (see `pipeline.Memos`).
@dataclass(frozen=True, slots=True)
class Text:
    text: str


@dataclass(frozen=True, slots=True)
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
    """A signed decimal literal ("delta") as (magnitude, "%" or "")."""
    if not value.startswith(("+", "-")):
        return None
    number, unit = (value[:-1], "%") if value.endswith("%") else (value, "")
    magnitude = atom(number)
    return None if isinstance(magnitude, Symbol) else (magnitude, unit)


def _validate(tag: str, attrs: dict[str, str]) -> None:
    """One check per attribute, by the kind `TAGS` gives it."""
    for name, value in attrs.items():
        if name not in TAGS[tag]:
            raise SeemlError(f"<{tag}> takes no attribute {name}")
        kind, where = TAGS[tag][name][0], f"{tag} {name}"
        # the merge sums deltas: reading each here fails a too-large literal at load
        delta = _delta(value) if kind in _SUMMED else None
        if delta and abs(delta[0]) > _MAX_DELTA:
            raise SeemlError(f"{where} delta must lie within ±{_MAX_DELTA:.3g}, got {value!r}")
        if delta and delta[1] and kind == FACE_LEVEL:
            raise SeemlError(f"{where} delta cannot be a percentage, got {value!r}")
        if kind in (LEVEL, FACE_LEVEL) and not delta:
            number = atom(value)
            if isinstance(number, Symbol) or not 0 <= number <= 1:
                raise SeemlError(f"{where} must be a number in [0,1] or a delta, got {value!r}")
        if kind == EXPRESSION and value not in EXPRESSION_NAMES:
            raise SeemlError(f"{where} must be one of {', '.join(EXPRESSION_NAMES)}, got {value!r}")
        if kind == ACTION_UNIT:
            number = None if value.startswith(("+", "-")) else atom(value)
            if not isinstance(number, int) or not AU_MIN <= number <= AU_MAX:
                raise SeemlError(f"{where} must be an unsigned integer {AU_MIN}-{AU_MAX}, got {value!r}")
    for name, (_, required) in TAGS[tag].items():
        if required and not attrs.get(name):
            raise SeemlError(f"{tag} needs a {name} attribute")


def element(
    tag: str,
    attrs: Mapping[str, str] | Iterable[tuple[str, str]] = (),
    children: Iterable[Node] = (),
) -> Element:
    canon = _CANONICAL.get(tag.lower())
    if canon is None:
        raise SeemlError(f"unknown tag <{tag}>")
    case = str.lower if canon.islower() else str.upper
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
        if len(stack) >= MAX_NESTING:
            raise SeemlError(f"markup nests deeper than {MAX_NESTING} elements at offset {lt}")
        if selfclose or el.tag in CHILDLESS_TAGS:
            attach(el)
        else:
            stack.append((el, []))
    if stack:
        raise SeemlError(f"unclosed tag <{stack[-1][0].tag}>")
    return document(top)


@lru_cache(maxsize=1024)
def _tag_texts(tag: str, attrs: tuple[tuple[str, str], ...]) -> tuple[str, str, str]:
    """An element's open tag, its close tag, and its self-closed form."""
    attr_text = "".join(f' {k}="{_escape_attr(v)}"' for k, v in attrs)
    return f"<{tag}{attr_text}>", f"</{tag}>", f"<{tag}{attr_text}/>"


def elements(nodes: Iterable[Node]) -> Iterable[Element]:
    """Every element in and below `nodes`, in document order."""
    for node in nodes:
        if isinstance(node, Element):
            yield node
            yield from elements(node.children)


def nesting(nodes: Iterable[Node], tag: Optional[str] = None) -> int:
    """The most elements (only `tag` ones, when given) on one path down from `nodes`."""
    deepest, todo = 0, [(node, 0) for node in nodes]
    while todo:
        node, above = todo.pop()
        if isinstance(node, Element):
            here = above + (tag is None or node.tag == tag)
            deepest = max(deepest, here)
            todo.extend((child, here) for child in node.children)
    return deepest


def texts(nodes: Iterable[Node]) -> Iterable[str]:
    """The text of every text node in and below `nodes`, in document order."""
    for node in nodes:
        if isinstance(node, Text):
            yield node.text
        else:
            yield from texts(node.children)


# Where the texts that hold a variable lie in a node list: an (index, paths)
# pair for each node that is such a text (its paths empty) or holds one below it.
Paths = tuple[tuple[int, "Paths"], ...]


def fill_in(doc: SeemlDocument, paths: Paths, table: Mapping[str, str]) -> SeemlDocument:
    """`doc` with each variable in the texts `paths` leads to replaced by its
    text in `table`, as literal text. Attribute values are kept as they are,
    and only the elements on the paths are rebuilt."""

    def walk(nodes: tuple[Node, ...], paths: Paths) -> tuple[Node, ...]:
        out = list(nodes)
        for i, inner in paths:
            node = nodes[i]
            if isinstance(node, Text):
                out[i] = Text(VARIABLE.sub(lambda m: table[m.group(0)], node.text))
            else:
                out[i] = Element(node.tag, node.attrs, walk(node.children, inner))
        return _normalize(out)  # a text filled with nothing goes

    return SeemlDocument(walk(doc.children, paths))


# --- directive application -------------------------------------------------


@dataclass(frozen=True)
class Scope:
    kind: str  # utterance | every-phrase | word | point
    word: str = ""
    position: str = ""  # start | end
    # a word trigger's whole-word, case-blind match, compiled once at load
    pattern: Optional[re.Pattern[str]] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind == "word":
            rx = re.compile(rf"(?<!\w){re.escape(self.word)}(?!\w)", re.IGNORECASE)
            object.__setattr__(self, "pattern", rx)


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
    # Hashed once: every utterance's render-memo lookup hashes its directives.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.mark, self.scope)))

    def __hash__(self) -> int:
        return self._hash


def _with_children(el: Element, children: Iterable[Node]) -> Element:
    return Element(el.tag, el.attrs, _normalize(children))


def _walk(nodes: Iterable[Node], run: Sequence[Directive], inside: bool) -> list[Node]:
    """`nodes` with a run of every-phrase and word directives applied in one walk.

    The result equals applying the directives one after another, each to the
    whole list, with the list normalized after each one when it lies `inside`
    an element. A canonical list stays canonical, since only a text's own
    fragments can meet, so the walk builds its elements without normalizing.
    """
    out: list[Node] = []
    for node in nodes:
        if isinstance(node, Text):
            out += _walk_text(node, run, inside)
        elif node.tag in ("seg", "w"):
            out += _walk_element(node, run)
        else:  # nothing can wrap it, so its children get the whole run
            out.append(Element(node.tag, node.attrs, tuple(_walk(node.children, run, True))))
    return out


def _walk_element(el: Element, run: Sequence[Directive]) -> list[Node]:
    """`el`, a `<seg>` or `<w>`, inside the wraps and beside the childless marks
    `run` puts around it.

    Every-phrase wraps every `<seg>` on the chain from the outermost wrap in to
    `el`, and a word trigger the outermost `<w>` spelling it, which hides `el`'s
    children from it. A later wrap sits inside an earlier one, and a later
    childless mark before an earlier one.
    """
    chain = [el.tag]  # the tags from the outermost wrap in to `el`
    wraps: list[Element] = []
    beside: list[list[Element]] = [[]]  # the childless marks set beside each link of the chain
    inner: list[Directive] = []  # the directives `el`'s children get
    spelled: Optional[str] = None  # every <w> on the chain spells `el`'s text
    for d in run:
        if d.scope.kind == "every-phrase":
            hits = [i for i, tag in enumerate(chain) if tag == "seg"]
            inner.append(d)
        else:
            hits = []
            if "w" in chain:
                if spelled is None:
                    spelled = _spelling(texts(el.children))
                if spelled == d.scope.word.lower():
                    hits = [chain.index("w")]
            if not hits:
                inner.append(d)
        for i in reversed(hits):  # the inner links first, so the outer indices hold
            if d.mark.tag in CHILDLESS_TAGS:
                beside[i].insert(0, d.mark)
            else:
                wraps.insert(i, d.mark)
                chain.insert(i, d.mark.tag)
                beside.insert(i + 1, [])
    nodes = [Element(el.tag, el.attrs, tuple(_walk(el.children, inner, True))), *beside[-1]]
    for mark, marks in zip(reversed(wraps), reversed(beside[:-1])):
        nodes = [Element(mark.tag, mark.attrs, tuple(nodes)), *marks]
    return nodes


def _spelling(leaves: Iterable[str]) -> str:
    """What a word trigger must equal, ignoring case, to spell an element whose texts are `leaves`."""
    return "".join(leaves).strip().lower()


def _occurrences(rx: re.Pattern[str], text: str) -> Iterator[tuple[int, int]]:
    """The span of every match of `rx` in `text`, overlapping ones too."""
    m = rx.search(text)
    while m:
        yield m.span()
        m = rx.search(text, m.start() + 1)


def _touched(text: str, spans: list[tuple[int, int]], patterns: Sequence[re.Pattern[str]]) -> bool:
    """Whether some match of one of `patterns` in `text` overlaps one of `spans`."""
    return any(a < end and start < b for rx in patterns for a, b in _occurrences(rx, text) for start, end in spans)


def _flanked(text: str) -> bool:
    """Each variable in `text` has whitespace or an edge of `text` on both sides."""
    return all(
        (m.start() == 0 or text[m.start() - 1].isspace()) and (m.end() == len(text) or text[m.end()].isspace())
        for m in VARIABLE.finditer(text)
    )


def _filled(text: str, table: Mapping[str, str]) -> tuple[str, list[tuple[int, int]]]:
    """`text` with each variable replaced from `table`, and the span each fill takes in it."""
    parts, spans, end, size = [], [], 0, 0
    for m in VARIABLE.finditer(text):
        value = table[m.group(0)]
        size += m.start() - end
        parts += (text[end : m.start()], value)
        spans.append((size, size + len(value)))
        size, end = size + len(value), m.end()
    parts.append(text[end:])
    return "".join(parts), spans


@dataclass(frozen=True)
class FillSites:
    """Where a body's variables lie, found once per body by `fill_sites`."""

    paths: Paths  # to the texts that hold a variable
    held: tuple[str, ...]  # those texts, in document order
    # The texts of each <seg> and <w> that holds a variable, and of the whole
    # body if it holds one: `_walk_element` spells such an element by them.
    spelled: tuple[tuple[str, ...], ...]
    found: tuple[str, ...]  # every variable in `held`, in document order, repeats included


def fill_sites(body: SeemlDocument) -> FillSites:
    """Where `body`'s variables lie, and what a word trigger reads of them, in one walk."""
    leaves: list[str] = []  # every text, in document order
    held: list[str] = []
    spelled: list[tuple[str, ...]] = []
    found: list[str] = []

    def walk(nodes: Sequence[Node]) -> Paths:
        paths: list[tuple[int, Paths]] = []
        for i, node in enumerate(nodes):
            if isinstance(node, Text):
                leaves.append(node.text)
                if variables := VARIABLE.findall(node.text):
                    paths.append((i, ()))
                    held.append(node.text)
                    found.extend(variables)
            else:
                start = len(leaves)
                if below := walk(node.children):
                    paths.append((i, below))
                    if node.tag in ("seg", "w"):
                        spelled.append(tuple(leaves[start:]))
        return tuple(paths)

    paths = walk(body.children)
    return FillSites(paths, tuple(held), (*spelled, tuple(leaves)) if held else (), tuple(found))


# A word trigger that begins and ends with a word character.
_WORDLIKE = re.compile(r"\w(?:.*\w)?", re.DOTALL)


def fill_guard(sites: FillSites, directives: Sequence[Directive]) -> Optional[Callable[[Mapping[str, str]], bool]]:
    """Whether filling a body's variables, at the `sites` found in it, commutes
    with applying `directives` to it: None when no fill is known to, else a
    test of a table from each variable to its text.

    The walk reads text only through word triggers, so a table passes when no
    trigger can read a variable, which holds when:
    (a) every word trigger begins and ends with a word character;
    (b) every variable has whitespace or the edge of its text on both sides;
    (c) no match of a trigger, overlapping matches included, overlaps a
        variable in the body or a filled text in the filled body;
    (d) no trigger equals, ignoring case, the text of a `<seg>`, a `<w>` or
        the body that holds a variable, filled or not: `_walk_element` spells
        an element by that text.
    A match, by (a) and its whole-word test, has a word character just inside
    each end and a non-word character or the text's edge just outside. So a
    match in a fragment that earlier triggers leave in `_walk_text` is a match
    of the whole text with the same neighbours, though not always one that
    `finditer` over the whole text returns: (c) reads overlapping matches for
    that. By (b) and (c), a match in one body is one in the other, with the
    same characters and neighbours, so both walks split every text alike.
    """
    held, groups = sites.held, sites.spelled
    triggers = [d.scope for d in directives if d.scope.kind == "word"]
    patterns = [scope.pattern for scope in triggers]
    words = frozenset(scope.word.lower() for scope in triggers)
    if not (
        all(_WORDLIKE.fullmatch(scope.word) for scope in triggers)
        and all(map(_flanked, held))
        and not any(_touched(leaf, [m.span() for m in VARIABLE.finditer(leaf)], patterns) for leaf in held)
        and not any(_spelling(group) in words for group in groups)
    ):
        return None

    def fits(table: Mapping[str, str]) -> bool:
        if not triggers:  # only a word trigger reads text
            return True
        filled = {leaf: _filled(leaf, table) for leaf in held}
        if any(_touched(text, spans, patterns) for text, spans in filled.values()):
            return False
        return not any(_spelling(filled[t][0] if t in filled else t for t in group) in words for group in groups)

    return fits


def _walk_text(node: Text, run: Sequence[Directive], inside: bool) -> list[Node]:
    """`node` split by each word trigger of `run` in turn. A childless mark leaves
    its match as text, which merges with its neighbours inside an element before
    the next trigger reads it; a wrapped match is walked by the rest of `run`."""
    nodes: list[Node] = [node]
    for i, d in enumerate(run):
        if d.scope.kind != "word":
            continue
        out: list[Node] = []
        hit = False
        for frag in nodes:
            pos = 0
            if isinstance(frag, Text):
                for m in d.scope.pattern.finditer(frag.text):
                    if m.start() > pos:
                        out.append(Text(frag.text[pos : m.start()]))
                    match = Text(m.group(0))
                    if d.mark.tag in CHILDLESS_TAGS:
                        out += (match, d.mark)
                    else:
                        out += _walk_element(Element(d.mark.tag, d.mark.attrs, (match,)), run[i + 1 :])
                    pos = m.end()
            if not pos:
                out.append(frag)
                continue
            hit = True
            if pos < len(frag.text):
                out.append(Text(frag.text[pos:]))
        if hit:
            nodes = list(_normalize(out)) if inside else out
    return nodes


def apply_directives(doc: SeemlDocument, directives: Sequence[Directive]) -> SeemlDocument:
    """Layer behavior-driven markup over an already marked-up utterance.

    Utterance and point directives act on the top list in order; each run of
    every-phrase and word directives between them is applied in one walk. Every
    span a directive wraps reuses its element's tag and attributes.
    """
    if not directives:
        return doc
    nodes: Sequence[Node] = doc.children
    for walked, group in groupby(directives, key=lambda d: d.scope.kind in ("every-phrase", "word")):
        if walked:
            nodes = _walk(nodes, list(group), False)
            continue
        for d in group:
            mark = d.mark
            if d.scope.kind == "utterance":
                nodes = [*nodes, mark] if mark.tag in CHILDLESS_TAGS else [_with_children(mark, nodes)]
            else:
                nodes = [mark, *nodes] if d.scope.position == "start" else [*nodes, mark]
    return document(nodes)


# --- merge algebra ----------------------------------------------------------


@lru_cache(maxsize=1024)
def _identity(
    tag: str, attrs: tuple[tuple[str, str], ...]
) -> tuple[tuple, tuple[tuple[str, float, str], ...]]:
    """The merge identity of a (tag, attrs) element, and the deltas of its
    amounts and levels as (name, magnitude, unit) triples.

    The identity is the tag, the other attributes, and the delta names and
    units: delta magnitudes are left out, so two RATE tags asking for different
    speed changes count as identical and add up. Each distinct pair is read
    once; both parts are tuples, so no caller can change a shared entry.
    """
    plain, deltas = [], []
    for name, value in attrs:
        if TAGS[tag][name][0] in _SUMMED and (delta := _delta(value)):
            deltas.append((name, *delta))
        else:
            plain.append((name, value))
    units = tuple(sorted((name, unit) for name, _, unit in deltas))
    return (tag, tuple(plain), units), tuple(deltas)


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
            if isinstance(node, Text) or node.tag in CHILDLESS_TAGS:  # no span to merge
                out.append(node)
                continue
            ident, deltas = _identity(node.tag, node.attrs)
            if deltas:
                inherited = sums.get(ident, {})
                summed = {name: inherited.get(name, 0.0) + mag for name, mag, _ in deltas}
                kids, below = merge(node.children, plain_anc, {**sums, ident: summed})
                if ident not in below:
                    attrs = [*ident[1], *((n, f"{summed[n]:+g}{u}") for n, _, u in deltas)]
                    kids = [Element(node.tag, tuple(sorted(attrs)), _normalize(kids))]
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


# Timed words and events have slots too: the render memo keeps every bundle's timeline.
@dataclass(frozen=True, slots=True)
class TimedWord:
    word: str
    onset_ms: float
    duration_ms: float


@dataclass(frozen=True, slots=True)
class FacsEvent:
    onset_ms: float
    au: int
    intensity: float
    duration_ms: float


@dataclass(frozen=True, slots=True)
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


@lru_cache(maxsize=4096)
def _mouth_runs(word: str) -> tuple[str, ...]:
    """The letter class of each run of `word`'s letters, or just "wide" when it has none."""
    runs: list[str] = []
    for ch in word.lower():
        if not ch.isalpha():
            continue
        cls = _letter_class(ch)
        if not runs or runs[-1] != cls:
            runs.append(cls)
    return tuple(runs) or ("wide",)


@lru_cache(maxsize=4096)
def _mouth(word: str, duration_ms: float) -> tuple[tuple[float, str, float], ...]:
    """The (offset, letter class, duration) of each mouth shape of `word` spoken for `duration_ms`."""
    runs = _mouth_runs(word)[: max(1, int(duration_ms / MIN_VISEME_MS))]
    dur = duration_ms / len(runs)
    return tuple((i * dur, cls, dur) for i, cls in enumerate(runs))


def lip_sync(
    words: Sequence[TimedWord], visemes: Mapping[str, str] = DEFAULT_VISEMES
) -> list[VisemeEvent]:
    """Cartoon-style mouth shapes from a letter-class scan, spread evenly per word;
    `visemes` maps every letter class to its mouth shape. Each distinct word is
    scanned once, and spread once per duration."""
    return [
        VisemeEvent(w.onset_ms + off, visemes[c], dur) for w in words for off, c, dur in _mouth(w.word, w.duration_ms)
    ]


def _timeline_key(ev: Union[FacsEvent, VisemeEvent]) -> tuple:
    if isinstance(ev, FacsEvent):
        return (ev.onset_ms, 0, ev.au, ev.duration_ms, "")
    return (ev.onset_ms, 1, 0, ev.duration_ms, ev.viseme)


# What `Layout.bundle` does, op by op: speak a run of words, speak a fill,
# pause, open a facial span, close it, close a `<seg>`.
_WORDS, _FILL, _BREAK, _OPEN, _CLOSE, _SEG = range(6)


@dataclass(frozen=True)
class Layout:
    """A merged document laid out once for the verifier, with the texts at
    some paths left as fills. `bundle` times and splits the document with a
    table of fill texts in, without filling or walking the tree."""

    # The speech script in pieces: a text, or a run that only fills speak in,
    # as its open tag, close tag, self-closed form and fills (a bare fill's tags are empty).
    script: tuple[Union[str, tuple[str, str, str, tuple[int, ...]]], ...]
    # The ops in document order: a run of words carries each word's `_mouth`
    # rows, a fill its index, and a span's close its (AU, intensity) pairs.
    ops: tuple[tuple[int, object], ...]
    fills: tuple[str, ...]  # each fill's text, its variables as written
    style: "StyleFile"

    def bundle(self, table: Mapping[str, str]) -> OutputBundle:
        """The verifier's output for the document with each fill's variables
        replaced by their texts in `table`, as literal text."""
        filled = [VARIABLE.sub(lambda m: table[m.group(0)], text) for text in self.fills]
        word_ms, visemes = 60000.0 / self.style.words_per_minute, self.style.visemes
        mouths, opened, spans, seg_closes, cursor = [], [], [], [], 0.0  # spans as (start, end, pairs)
        for op, arg in self.ops:
            if op <= _FILL:
                for rows in arg if op == _WORDS else [_mouth(token, word_ms) for token in filled[arg].split()]:
                    mouths += [VisemeEvent(cursor + off, visemes[c], dur) for off, c, dur in rows]
                    cursor += word_ms
            elif op == _BREAK:
                cursor += self.style.break_ms
            elif op == _OPEN:
                opened.append(cursor)
            elif op == _CLOSE:
                spans.append((opened.pop(), cursor, arg))
            else:
                seg_closes.append(cursor)
        total = cursor

        facs: list[FacsEvent] = []
        for start, end, pairs in spans:
            if end <= start:  # point gesture: give it a nominal span
                end = start + GESTURE_MS
                total = max(total, end)
            duration = max(0.0, min(end, total) - start)
            facs.extend(FacsEvent(start, au, level, duration) for au, level in pairs)

        script = []
        for piece in self.script:
            if isinstance(piece, tuple):
                inner = "".join(_escape_text(filled[i]) for i in piece[3])
                piece = f"{piece[0]}{inner}{piece[1]}" if inner else piece[2]
            script.append(piece)
        timeline = sorted([*facs, *mouths], key=_timeline_key)
        return OutputBundle("".join(script), tuple(timeline), total, tuple(sorted(seg_closes)))


def layout(doc: SeemlDocument, style: "StyleFile", paths: Paths = ()) -> Layout:
    """`doc` laid out for `Layout.bundle` in one walk, the texts `paths` leads to as fills: its
    escapes, word splits, mouth shapes, tags and facial intensities are found here once."""
    word_ms = 60000.0 / style.words_per_minute
    ops: list[tuple[int, object]] = []
    fills: list[str] = []
    script: list = []  # the pieces of the elements on `paths`, in document order
    faces: dict = {}  # a facial span's attributes -> its (AU, intensity) pairs

    def lay(node: Node, at: Optional[Paths]) -> str:
        """`node`'s script, or "" when `at`, its paths, leads to a fill: its pieces then go to `script`."""
        if isinstance(node, Text):
            if at is None:
                ops.append((_WORDS, [_mouth(token, word_ms) for token in node.text.split()]))
                return _escape_text(node.text)
            ops.append((_FILL, len(fills)))
            script.append(("", "", "", (len(fills),)))
            fills.append(node.text)
            return ""
        if node.tag == "AURAL":
            # the load checks every name against the style; a path is written as the style gives it
            return _tag_texts("AUDIO", (("SRC", style.aural[node.attr("NAME")]),))[2]
        facial = node.tag in ("EXPR", "AU")  # timed, and dropped from the script
        if facial or node.tag == "BREAK":
            ops.append((_OPEN if facial else _BREAK, None))
        opening, closing, shut = ("", "", "") if facial else _tag_texts(node.tag, node.attrs)
        if at is None:
            inner = "".join([lay(child, None) for child in node.children])
        else:
            script.append(opening)
            start, below = len(script), dict(at)
            for i, child in enumerate(node.children):
                if text := lay(child, below.get(i)):
                    script.append(text)
        if facial:
            pairs = faces.get(node.attrs)
            if pairs is None:
                level = atom(node.attr("LEVEL", "1.0"))
                # the style maps all six expression names; merged signed LEVELs can sum past either end of [0, 1]
                weights = [(atom(node.attr("NUM")), 1.0)] if node.tag == "AU" else style.expressions[node.attr("NAME")]
                pairs = faces[node.attrs] = tuple((au, min(1.0, max(0.0, weight * level))) for au, weight in weights)
            ops.append((_CLOSE, pairs))
        if node.tag == "seg":
            ops.append((_SEG, None))
        if at is None:  # an element that nothing speaks in closes itself
            return f"{opening}{inner}{closing}" if inner else shut
        if all(isinstance(piece, tuple) and not piece[2] for piece in islice(script, start, None)):
            # only fills speak in it, and a fill may be empty
            script[start - 1 :] = [(opening, closing, shut, tuple(i for piece in script[start:] for i in piece[3]))]
        else:
            script.append(closing)
        return ""

    script.append(lay(Element("SABLE", (), doc.children), paths or None))
    # side by side texts are joined once here, not on every bundle
    runs = groupby(filter(None, script), key=lambda piece: isinstance(piece, str))
    pieces = tuple(piece for text, run in runs for piece in (["".join(run)] if text else run))
    return Layout(pieces, tuple(ops), tuple(fills), style)


def verify_and_split(doc: SeemlDocument, style: "StyleFile") -> OutputBundle:
    """Assign word timings, resolve facial markup through the style file, and
    split the document into a speech script plus a facial/viseme timeline."""
    return layout(doc, style).bundle({})


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
