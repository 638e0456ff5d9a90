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
    ActivatedBehavior,
    BehaviorError,
    BehaviorSpec,
    BoundSpec,
    MotivationPattern,
    bind_statics,
    expand,
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
from .patterns import Keyed, is_ground, keyed, variables_in
from .sexpr import SexprError, Sexpr, Symbol, is_keyword, keyword_name, read_top_level, to_text
from .seeml import (
    EVERY_PHRASE,
    UTTERANCE,
    Directive,
    Scope,
    SeemlDocument,
    SeemlError,
    at_point,
    element,
    elements,
    parse_seeml,
    word_trigger,
)
from .style import StyleFile
from .textgen import Template, _VAR_RE, index_templates


class ProfileError(ByrneError):
    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class CharacterProfile:
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
    target = pairs.get("target")
    if isinstance(target, Symbol) and target == NIL:
        target = None
    return EmotionSchema(
        type=str(etype),
        intensity=float(intensity),
        target=target,
        cause=pairs["cause"],
        decay=DecayFunction.from_sexpr(pairs["decay"]),
    )


def _body_variables(body: str) -> set[Symbol]:
    return {Symbol(m.group(0)) for m in _VAR_RE.finditer(body)}


def load_profile(text: str) -> CharacterProfile:
    """Parse and validate a profile; raises ProfileError listing every diagnostic."""
    diags: list[str] = []
    statics: list[Keyed] = []
    names: dict[str, str] = {}
    rules: list[EmotionRule] = []
    behaviors: list[BehaviorSpec] = []
    templates: list[Template] = []
    lambda_penalty = 5.0

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
                        or not isinstance(entry[1], str)
                    ):
                        raise SexprError(f"expected (<id> \"<display>\"), got {to_text(entry)}")
                    names[str(entry[0])] = str(entry[1])
            elif head == "params":
                lam = _split_form(form[1:], ("lambda",), ())[0].get("lambda")
                if lam is not None:
                    if not isinstance(lam, (int, float)) or float(lam) < 0:
                        raise SexprError("lambda: must be a non-negative number of seconds")
                    lambda_penalty = float(lam)
            elif head == "emotion-rule":
                rules.append(_load_rule(form, line, diags))
            elif head == "behavior":
                spec = _load_behavior(form, line, diags)
                if spec is not None:
                    if any(b.id == spec.id for b in behaviors):
                        diags.append(f"line {line}: duplicate behavior id '{spec.id}'")
                    else:
                        behaviors.append(spec)
            elif head == "template":
                tmpl = _load_template(form, line, diags)
                if tmpl is not None:
                    if any(t.id == tmpl.id for t in templates):
                        diags.append(f"line {line}: duplicate template id '{tmpl.id}'")
                    else:
                        templates.append(tmpl)
            else:
                raise SexprError(f"unknown form ({head} ...)")
        except (SexprError, RuleError) as e:
            diags.append(f"line {line}: {e}")

    _check_behavior_graph(behaviors, diags)

    if diags:
        raise ProfileError(diags)
    return CharacterProfile(
        statics=tuple(statics),
        names=names,
        emotion_rules=tuple(rules),
        behaviors=tuple(behaviors),
        templates=tuple(templates),
        lambda_use_penalty=lambda_penalty,
    )


def _load_rule(form: tuple, line: int, diags: list[str]) -> EmotionRule:
    _, subs = _split_form(form[1:], (), ("pre", "add", "del"))
    pre, add, dele = subs.get("pre"), subs.get("add"), subs.get("del")
    preconditions = tuple(pre[1:]) if pre else ()
    additions = tuple(_parse_schema(s) for s in (add[1:] if add else ()))
    deletions = tuple(dele[1:]) if dele else ()
    bound: set[Symbol] = set()
    for p in preconditions:
        bound |= variables_in(p)
    used: set[Symbol] = set()
    for schema in additions:
        used |= variables_in(schema.cause)
        if schema.target is not None:
            used |= variables_in(schema.target)
    for p in deletions:
        used |= variables_in(p)
    for var in sorted(used - bound):
        diags.append(f"line {line}: emotion-rule uses unbound variable {var}")
    return EmotionRule(tuple(map(keyed, preconditions)), additions, deletions)


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
    except (SeemlError, SexprError) as e:
        diags.append(f"line {line}: template '{tid}' body: {e}")
    bound: set[Symbol] = set()
    for p in preconditions:
        bound |= variables_in(p)
    for var in sorted(_body_variables(text) - bound):
        diags.append(f"line {line}: template '{tid}' uses unbound variable {var}")
    return Template(str(tid), tuple(map(keyed, preconditions)), body)


def check_against_style(profile: CharacterProfile, style: StyleFile) -> None:
    """Every aural event the profile's markup names must be in the style;
    raises ProfileError naming each missing one and its user.

    Expression names need no check: the markup admits only the six, and the
    style must map all six. A name holding a variable in a template body is
    only known per utterance, so it is left to the replay; a directive is never
    substituted, so its name is checked as written.
    """
    users = [(f"behavior '{b.id}'", [d.mark for d in b.directives], False) for b in profile.behaviors]
    users += [(f"template '{t.id}'", t.body.children, True) for t in profile.templates]
    diags: list[str] = []
    for user, nodes, substituted in users:
        for el in elements(nodes):
            name = el.attr("NAME")
            if el.tag != "AURAL" or name in style.aural or (substituted and _VAR_RE.search(name)):
                continue
            diag = f"{user} uses aural event '{name}', which the style's [aural] section lacks"
            if diag not in diags:
                diags.append(diag)
    if diags:
        raise ProfileError(diags)


def _check_behavior_graph(behaviors: list[BehaviorSpec], diags: list[str]) -> None:
    """Expand every spec with the replay's own walk, so cycles and dangling
    children have one definition; each distinct failure is reported once."""
    for b in behaviors:
        try:
            expand([ActivatedBehavior(b, 0.0, ())], behaviors)
        except BehaviorError as e:
            if str(e) not in diags:
                diags.append(str(e))

