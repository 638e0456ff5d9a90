"""Character profiles: statics, emotion rules, behaviors, templates.

One declarative file defines a character, so the same announcer can front any
content source. Everything is s-expressions; see the README for the grammar.
Loading validates the whole profile and reports every problem it finds, each
diagnostic naming the offending rule, behavior, template, or variable. It keys
every static and pattern the replay matches (`patterns.keyed`) once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping, Optional, Sequence

from .behaviors import (
    BehaviorError,
    BehaviorSpec,
    BoundSpec,
    MotivationPattern,
    bind_statics,
    leaf_directives,
)
from .emotions import (
    DecayFunction,
    EMOTION_TYPES,
    EmotionRule,
    EmotionSchema,
    NIL,
    RuleError,
)
from .errors import ByrneError
from .patterns import Keyed, is_ground, is_variable, keyed, parse_keyed, variables_in
from .sexpr import VARIABLE, SexprError, Sexpr, Symbol, is_keyword, keyword_name, read_top_level, to_text
from .seeml import (
    CHILDLESS_TAGS,
    EVERY_PHRASE,
    MAX_NESTING,
    UTTERANCE,
    Directive,
    Scope,
    SeemlDocument,
    SeemlError,
    at_point,
    element,
    elements,
    nesting,
    parse_seeml,
    texts,
    word_trigger,
)
from .style import StyleFile
from .textgen import Template, index_templates


class ProfileError(ByrneError):
    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class CharacterProfile:
    """A loaded character. `load_profile` reports every fault in the behavior
    graph as a diagnostic; a profile built by hand is checked where it is
    built, by `bind_statics`, which raises BehaviorError (a ByrneError) on the
    first cycle or dangling child, so `step` never meets one."""

    statics: tuple[Keyed, ...] = ()
    names: Mapping[str, str] = field(default_factory=dict)
    emotion_rules: tuple[EmotionRule, ...] = ()
    behaviors: tuple[BehaviorSpec, ...] = ()
    templates: tuple[Template, ...] = ()
    lambda_use_penalty: float = 5.0
    # Derived from the fields above when the profile is built; no tick changes them.
    bound_behaviors: tuple[BoundSpec, ...] = field(init=False, repr=False, compare=False)
    _template_index: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bound_behaviors", bind_statics(self.behaviors, self.statics))
        object.__setattr__(self, "_template_index", index_templates(self.templates, self.statics))

    def templates_for(self, predicate: str) -> tuple[Template, ...]:
        """The templates that can match a fact with this predicate, in profile order."""
        by_head, anywhere = self._template_index
        return by_head.get(str(predicate), anywhere)


def _split_form(
    items: Sequence[Sexpr], keys: Optional[Collection[str]], subforms: Collection[str]
) -> tuple[dict[str, Sexpr], dict[str, tuple]]:
    """Split one body into `key: value` pairs and (sub ...) forms by head.

    Only the named keys (any key when `keys` is None) and subforms are
    accepted, each at most once, so no part of a form is silently dropped.
    """
    pairs: dict[str, Sexpr] = {}
    subs: dict[str, tuple] = {}
    i = 0
    while i < len(items):
        item = items[i]
        if is_keyword(item):
            if i + 1 >= len(items):
                raise SexprError(f"keyword {item} has no value")
            name = keyword_name(item)
            if keys is not None and name not in keys:
                raise SexprError(f"unknown key {item}")
            if name in pairs:
                raise SexprError(f"repeated key {item}")
            pairs[name] = items[i + 1]
            i += 2
        elif isinstance(item, tuple) and item and isinstance(item[0], Symbol):
            head = str(item[0])
            if head not in subforms:
                raise SexprError(f"unknown form ({head} ...)")
            if head in subs:
                raise SexprError(f"repeated form ({head} ...)")
            subs[head] = item
            i += 1
        else:
            raise SexprError(f"unexpected item {to_text(item)}")
    return pairs, subs


def _parse_scope(form: Sexpr) -> Scope:
    if isinstance(form, Symbol):
        if str(form) == "utterance":
            return UTTERANCE
        if str(form) == "every-phrase":
            return EVERY_PHRASE
    if isinstance(form, tuple) and len(form) == 2 and isinstance(form[0], Symbol):
        head, arg = str(form[0]), form[1]
        if head == "word":
            return word_trigger(str(arg))
        if head == "point" and isinstance(arg, Symbol):
            return at_point(str(arg))
    raise SexprError(f"unknown scope {to_text(form)}")


def _level(value: Sexpr, where: str) -> str:
    # a negative number would print as "-0.5", which the markup reads as a signed delta
    if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
        raise SexprError(f"{where}: level must be a number in [0,1], got {to_text(value)}")
    return f"{float(value):g}"


def _parse_directive(form: tuple) -> Directive:
    """The directive's element, built and validated by the markup's own checks."""
    if not form or not isinstance(form[0], Symbol):
        raise SexprError(f"bad directive {to_text(form)}")
    head = str(form[0])
    if head == "expr":
        if len(form) != 4:
            raise SexprError("expected (expr <name> <level> <scope>)")
        mark = element("EXPR", {"NAME": str(form[1]), "LEVEL": _level(form[2], "expr")})
        return Directive(mark, _parse_scope(form[3]))
    if head == "au":
        if len(form) != 4:
            raise SexprError("expected (au <num> <level> <scope>)")
        if not isinstance(form[1], int):
            raise SexprError(f"action unit id must be an integer, got {to_text(form[1])}")
        mark = element("AU", {"NUM": str(form[1]), "LEVEL": _level(form[2], "au")})
        return Directive(mark, _parse_scope(form[3]))
    if head == "aural":
        if len(form) != 3:
            raise SexprError("expected (aural <name> <scope>)")
        return Directive(element("AURAL", {"NAME": str(form[1])}), _parse_scope(form[2]))
    if head == "speech":
        if len(form) < 3 or not isinstance(form[1], Symbol):
            raise SexprError("expected (speech <TAG> <scope> [ATTR: <value> ...])")
        attrs, _ = _split_form(form[3:], None, ())
        mark = element(str(form[1]), {name: str(value) for name, value in attrs.items()})
        for name, value in attrs.items():
            if not isinstance(value, str):  # a bare +10 reads as 10, losing its sign
                raise SexprError(f"{name}: value must be quoted, got {to_text(value)}")
        return Directive(mark, _parse_scope(form[2]))
    raise SexprError(f"unknown directive ({head} ...)")


def _parse_motivations(form: tuple) -> tuple[MotivationPattern, ...]:
    out: list[MotivationPattern] = []
    i = 1
    while i < len(form):
        item = form[i]
        if is_keyword(item) and keyword_name(item) == "target":
            if not out:
                raise SexprError("target: before any emotion type in motivated-by")
            if i + 1 >= len(form):
                raise SexprError("target: has no pattern")
            out[-1] = MotivationPattern(out[-1].emotion_type, keyed(form[i + 1]))
            i += 2
            continue
        if not isinstance(item, Symbol) or str(item) not in EMOTION_TYPES:
            raise SexprError(f"unknown emotion type {to_text(item)} in motivated-by")
        out.append(MotivationPattern(str(item)))
        i += 1
    return tuple(out)


def _parse_schema(form: Sexpr) -> EmotionSchema:
    if not isinstance(form, tuple):
        raise SexprError(f"bad emotion schema {to_text(form)}")
    pairs, _ = _split_form(form, ("type", "intensity", "target", "cause", "decay"), ())
    for required in ("type", "intensity", "cause", "decay"):
        if required not in pairs:
            raise SexprError(f"emotion schema missing {required}:")
    etype = pairs["type"]
    if not isinstance(etype, Symbol) or str(etype) not in EMOTION_TYPES:
        raise SexprError(f"unknown emotion type {to_text(etype)}")
    intensity = pairs["intensity"]
    if not isinstance(intensity, (int, float)) or not 0 < float(intensity) <= 10:
        raise SexprError(f"emotion intensity must lie in (0,10], got {to_text(intensity)}")
    return EmotionSchema(
        type=str(etype),
        intensity=float(intensity),
        target=pairs.get("target", NIL),
        cause=pairs["cause"],
        decay=DecayFunction.from_sexpr(pairs["decay"]),
    )


def _add_once(given: dict, key: str, value: object, what: str) -> None:
    """Record `key`, which the profile may give only once: a second entry fails the load."""
    if key in given:
        raise SexprError(f"duplicate {what} '{key}'")
    given[key] = value


def load_profile(text: str) -> CharacterProfile:
    """Parse and validate a profile; raises ProfileError listing every diagnostic."""
    diags: list[str] = []
    statics: list[Keyed] = []
    names: dict[str, str] = {}
    params: dict[str, float] = {}
    rules: list[EmotionRule] = []
    behaviors: dict[str, BehaviorSpec] = {}
    templates: dict[str, Template] = {}

    try:
        forms = read_top_level(text)
    except SexprError as e:
        raise ProfileError([str(e)]) from e

    for form, line in forms:
        if not isinstance(form, tuple) or not form or not isinstance(form[0], Symbol):
            diags.append(f"line {line}: expected a (head ...) form")
            continue
        head = str(form[0])
        try:
            if head == "static":
                if len(form) != 2:
                    raise SexprError("expected (static <fact>)")
                if not is_ground(form[1]):
                    raise SexprError(f"static fact contains variables: {to_text(form[1])}")
                statics.append(keyed(form[1]))
            elif head == "names":
                for entry in form[1:]:
                    if (
                        not isinstance(entry, tuple)
                        or len(entry) != 2
                        or not isinstance(entry[0], Symbol)
                        or type(entry[1]) is not str  # a Symbol is a str too: the name must be quoted
                    ):
                        raise SexprError(f"expected (<id> \"<display>\"), got {to_text(entry)}")
                    if not entry[1].strip():
                        raise SexprError(f"display name for '{entry[0]}' is blank")
                    _add_once(names, str(entry[0]), str(entry[1]), "name")
            elif head == "params":
                lam = _split_form(form[1:], ("lambda",), ())[0].get("lambda")
                if lam is not None:
                    if not isinstance(lam, (int, float)) or float(lam) < 0:
                        raise SexprError("lambda: must be a non-negative number of seconds")
                    _add_once(params, "lambda", float(lam), "param")
            elif head == "emotion-rule":
                rules.append(_load_rule(form, line, diags))
            elif head == "behavior":
                spec = _load_behavior(form, line, diags)
                if spec is not None:
                    _add_once(behaviors, spec.id, spec, "behavior id")
            elif head == "template":
                tmpl = _load_template(form, line, diags)
                if tmpl is not None:
                    _add_once(templates, tmpl.id, tmpl, "template id")
            else:
                raise SexprError(f"unknown form ({head} ...)")
        except (SexprError, RuleError) as e:
            diags.append(f"line {line}: {e}")

    specs, bodies = tuple(behaviors.values()), tuple(templates.values())
    leaves = _check_behavior_graph(specs, diags)
    if not diags:
        _check_nesting(bodies, specs, leaves, diags)

    if diags:
        raise ProfileError(diags)
    return CharacterProfile(
        statics=tuple(statics),
        names=names,
        emotion_rules=tuple(rules),
        behaviors=specs,
        templates=bodies,
        lambda_use_penalty=params.get("lambda", CharacterProfile.lambda_use_penalty),
    )


def _load_rule(form: tuple, line: int, diags: list[str]) -> EmotionRule:
    _, subs = _split_form(form[1:], (), ("pre", "add", "del"))
    pre, add, dele = subs.get("pre"), subs.get("add"), subs.get("del")
    preconditions = tuple(pre[1:]) if pre else ()
    additions = tuple(_parse_schema(s) for s in (add[1:] if add else ()))
    deletions = tuple(dele[1:]) if dele else ()
    bound = set().union(*map(variables_in, preconditions))
    added = [t for schema in additions for t in (schema.cause, schema.target)]
    for var in sorted(set().union(*map(variables_in, [*added, *deletions])) - bound):
        diags.append(f"line {line}: emotion-rule uses unbound variable {var}")
    for var in self_feeding(preconditions, additions):
        why = "takes it from an emotion view and nests it one level deeper on every tick"
        diags.append(f"line {line}: emotion-rule feeds on its own additions through {var}: {why}")
    return EmotionRule(tuple(map(keyed, preconditions)), additions, deletions)


def self_feeding(preconditions: Sequence[Sexpr], additions: Sequence[EmotionSchema]) -> list[Symbol]:
    """The variables through which a rule's additions feed on their own views,
    each firing nesting a view one level deeper than the one it matched.

    Only a bare variable or a headless keyword pattern matches a view. A
    variable that only bare ones bind may hold a whole view, so no cause or
    target may use it; one that only view-matching ones bind may hold a part
    of one, so a cause or target may use it only whole, as `cause: ?c` after
    `(pre (type: interest cause: ?c))` does. A headed or positional
    precondition binds from facts and statics alone."""
    source: dict[Symbol, int] = {}  # 0 a whole view, 1 a part of one, 2 a fact or static
    for p in preconditions:
        headless = isinstance(p, tuple) and p and is_keyword(p[0]) and parse_keyed(p) is not None
        kind = 0 if is_variable(p) else 1 if headless else 2
        for var in variables_in(p):
            source[var] = max(source.get(var, 0), kind)
    found: set[Symbol] = set()
    for term in (t for schema in additions for t in (schema.cause, schema.target)):
        # a lone variable copies a part of a view whole, so only a whole view nests there
        nests = 0 if is_variable(term) else 1
        found |= {var for var in variables_in(term) if source.get(var, 2) <= nests}
    return sorted(found)


def _load_behavior(form: tuple, line: int, diags: list[str]) -> Optional[BehaviorSpec]:
    pairs, subs = _split_form(
        form[1:], ("id", "group"), ("motivated-by", "pre", "children", "directives")
    )
    bid, group = pairs.get("id"), pairs.get("group")
    if not isinstance(bid, Symbol) or not isinstance(group, Symbol):
        diags.append(f"line {line}: behavior needs id: and group: symbols")
        return None
    motivated, pre = subs.get("motivated-by"), subs.get("pre")
    children, directives = subs.get("children"), subs.get("directives")
    if (children is None) == (directives is None):
        diags.append(f"line {line}: behavior '{bid}' needs (children ...) xor (directives ...)")
        return None
    parsed: list[Directive] = []
    for d in directives[1:] if directives else ():
        try:
            parsed.append(_parse_directive(d))
        except (SexprError, ByrneError) as e:
            diags.append(f"line {line}: behavior '{bid}': {e}")
    child_ids = tuple(str(c) for c in (children[1:] if children else ()))
    if children is not None and not child_ids:
        diags.append(f"line {line}: behavior '{bid}' has an empty (children) form")
    if directives is not None and len(directives) == 1:
        diags.append(f"line {line}: behavior '{bid}' has an empty (directives) form")
    return BehaviorSpec(
        id=str(bid),
        group=str(group),
        motivated_by=_parse_motivations(motivated) if motivated else (),
        preconditions=tuple(map(keyed, pre[1:])) if pre else (),
        children=child_ids,
        directives=tuple(parsed),
    )


def _load_template(form: tuple, line: int, diags: list[str]) -> Optional[Template]:
    pairs, subs = _split_form(form[1:], ("id",), ("pre", "text"))
    tid = pairs.get("id")
    if not isinstance(tid, Symbol):
        diags.append(f"line {line}: template needs an id: symbol")
        return None
    pre, text_form = subs.get("pre"), subs.get("text")
    if text_form is None or len(text_form) != 2 or not isinstance(text_form[1], str):
        diags.append(f"line {line}: template '{tid}' needs (text \"...\")")
        return None
    text = text_form[1]
    preconditions = tuple(pre[1:]) if pre else ()
    body = SeemlDocument()  # stands in for a body that fails to parse, failing the load
    try:
        body = parse_seeml(text)
        if not any(el.tag == "seg" for el in elements(body.children)):
            diags.append(f"line {line}: template '{tid}' body has no <seg> phrase markers")
        # a variable fills words, so no fact's value meets a check that markup must pass
        for el in elements(body.children):
            for name, value in el.attrs:
                for var in VARIABLE.findall(value):
                    diags.append(f"line {line}: template '{tid}' puts {var} in <{el.tag} {name}>, not in text")
        if not any(VARIABLE.sub("", leaf).split() for leaf in texts(body.children)):
            diags.append(f"line {line}: template '{tid}' body speaks no word of its own")
    except (SeemlError, SexprError) as e:
        diags.append(f"line {line}: template '{tid}' body: {e}")
    bound: set[Symbol] = set()
    for p in preconditions:
        bound |= variables_in(p)
    for var in sorted({Symbol(m.group(0)) for m in VARIABLE.finditer(text)} - bound):
        diags.append(f"line {line}: template '{tid}' uses unbound variable {var}")
    return Template(str(tid), tuple(map(keyed, preconditions)), body)


def check_against_style(profile: CharacterProfile, style: StyleFile) -> None:
    """Every aural event the profile's markup names must be in the style;
    raises ProfileError naming each missing one and its user.

    Expression names need no check: the markup admits only the six, and the
    style must map all six. No variable fills an attribute, so each name is
    checked as written.
    """
    users = [(f"behavior '{b.id}'", [d.mark for d in b.directives]) for b in profile.behaviors]
    users += [(f"template '{t.id}'", t.body.children) for t in profile.templates]
    diags: list[str] = []
    for user, nodes in users:
        for el in elements(nodes):
            name = el.attr("NAME")
            if el.tag != "AURAL" or name in style.aural:
                continue
            diag = f"{user} uses aural event '{name}', which the style's [aural] section lacks"
            if diag not in diags:
                diags.append(diag)
    if diags:
        raise ProfileError(diags)


def _check_behavior_graph(
    behaviors: Sequence[BehaviorSpec], diags: list[str]
) -> dict[str, tuple[Directive, ...]]:
    """Expand every spec with the walk the profile is built by, so cycles and
    dangling children have one definition; each distinct failure is reported
    once. Returns the leaf directives of each spec that expands."""
    index = {b.id: b for b in behaviors}
    leaves: dict[str, tuple[Directive, ...]] = {}
    for b in behaviors:
        try:
            leaves[b.id] = leaf_directives(b, index)
        except BehaviorError as e:
            if str(e) not in diags:
                diags.append(str(e))
    return leaves


def _levels(directive: Directive, segs: int) -> int:
    """Levels `directive` can add above a word: one for a wrap, one per `<seg>`
    on the path for an every-phrase wrap, none for a mark set beside its span."""
    if directive.mark.tag in CHILDLESS_TAGS or directive.scope.kind == "point":
        return 0
    return segs if directive.scope == EVERY_PHRASE else 1


def _check_nesting(
    templates: Sequence[Template],
    behaviors: Sequence[BehaviorSpec],
    leaves: Mapping[str, tuple[Directive, ...]],
    diags: list[str],
) -> None:
    """The deepest template body, wrapped in the most markup one utterance's
    winning behaviors can add, must nest at most `seeml.MAX_NESTING` deep. Each
    group has one winner, so a group adds the most any of its motivated
    behaviors expands to."""
    if not templates:
        return
    depth, deepest = max((nesting(t.body.children), t.id) for t in templates)
    # a speech directive may itself be a <seg>, for every-phrase wraps that follow it
    seg_marks = sum(d.mark.tag == "seg" for b in behaviors for d in b.directives)
    segs = max(nesting(t.body.children, "seg") for t in templates) + seg_marks
    heaviest: dict[str, tuple[int, str]] = {}
    for b in behaviors:
        if b.motivated_by:
            levels = sum(_levels(d, segs) for d in leaves[b.id])
            heaviest[b.group] = max(heaviest.get(b.group, (0, "")), (levels, b.id))
    added = sum(n for n, _ in heaviest.values())
    if depth + added > MAX_NESTING:
        names = ", ".join(f"'{bid}'" for n, bid in sorted(heaviest.values(), reverse=True) if n)
        diags.append(
            f"template '{deepest}' nests {depth} deep and behaviors {names} can wrap "
            f"{added} more levels around it; markup nests at most {MAX_NESTING} deep"
        )
