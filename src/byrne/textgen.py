"""Template-based surface generation.

Templates pair precondition patterns with a SEEML body, parsed once at load,
whose ``seg`` elements double as interrupt markers; its variables are the runs
of its text that `seeml.fill_sites` finds, and they fill in words only. When
several templates cover a fact, the least recently and least often used one
wins, keeping the phrasing from looping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .patterns import Binding, Candidates, Form, Keyed, match_all
from .seeml import FillSites, SeemlDocument, fill_in, fill_sites
from .sexpr import Sexpr, Symbol, to_text


@dataclass(frozen=True)
class Template:
    id: str
    preconditions: tuple[Keyed, ...]
    body: SeemlDocument
    # Found once when the template is built: the body's variables in document
    # order, and where they lie in it.
    variables: tuple[Symbol, ...] = field(init=False, repr=False, compare=False)
    sites: FillSites = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sites = fill_sites(self.body)
        object.__setattr__(self, "variables", tuple(dict.fromkeys(map(Symbol, sites.found))))
        object.__setattr__(self, "sites", sites)


@dataclass(frozen=True)
class UsageRecord:
    use_count: int = 0
    last_used_tick: Optional[float] = None


@dataclass(frozen=True)
class UsageHistory:
    records: Mapping[str, UsageRecord] = field(default_factory=dict)

    def record(self, template_id: str) -> UsageRecord:
        return self.records.get(template_id, UsageRecord())


def match_templates(
    fact: Form, templates: Iterable[Template], statics: Iterable[Keyed] = ()
) -> tuple[tuple[Template, Binding], ...]:
    """Each template whose preconditions match the keyed fact (plus the keyed
    statics), with its first binding, in the order given. A pure function of
    its arguments, so a replay matches each fact once."""
    universe = Candidates([fact, *statics])  # indexed once for all templates
    return tuple(
        (template, bindings[0])
        for template in templates
        if (bindings := match_all(template.preconditions, universe))
    )


def select_template(
    covering: Iterable[tuple[Template, Binding]],
    history: UsageHistory,
    now: float,
    *,
    lambda_use_penalty: float,
) -> Optional[tuple[Template, Binding]]:
    """Best-scoring of the covering (template, binding) pairs that
    `match_templates` returns; None when there are none.

    Score is seconds-since-last-use minus a per-use penalty; a never-used
    template scores infinitely fresh. Ties break on template id.
    """
    best: tuple[tuple, Template, Binding] | None = None
    for template, binding in covering:
        rec = history.record(template.id)
        recency = float("inf") if rec.last_used_tick is None else now - rec.last_used_tick
        score = recency - lambda_use_penalty * rec.use_count
        key = (-score, template.id)
        if best is None or key < best[0]:
            best = (key, template, binding)
    return None if best is None else (best[1], best[2])


def index_templates(
    templates: Iterable[Template], statics: Iterable[Keyed]
) -> tuple[dict[str, tuple[Template, ...]], tuple[Template, ...]]:
    """The templates that can match a fact of each predicate, in profile order.

    `match_templates` matches preconditions against the fact plus the statics,
    so a keyword-shaped precondition whose head no static has can only match
    the fact, which is keyword-shaped with its predicate as head. A template
    with one such head is a candidate for that predicate alone, one with none
    for every predicate, and one with two for none. Returns the per-predicate
    candidates and the candidates for any other predicate.
    """
    # None, the head of a positional or headless form, names no predicate
    static_heads = {s.head for s in statics if isinstance(s, Form)} | {None}
    owns = [
        (t, {p.head for p in t.preconditions if isinstance(p, Form)} - static_heads) for t in templates
    ]
    anywhere = tuple(t for t, own in owns if not own)
    by_head = {
        head: tuple(t for t, own in owns if own <= {head})
        for head in {next(iter(own)) for _, own in owns if len(own) == 1}
    }
    return by_head, anywhere


def render_term(term: Sexpr, names: Mapping[str, str] | None = None) -> str:
    """Surface form of a bound term; player/team ids go through the name table."""
    if isinstance(term, Symbol):
        return (names or {}).get(str(term), str(term))
    if isinstance(term, str):
        return term
    if isinstance(term, int):
        return str(term)
    if isinstance(term, float):
        return f"{term:g}"
    return to_text(term)


def fill(
    template: Template, binding: Binding, names: Mapping[str, str] | None = None
) -> tuple[str, ...]:
    """The literal text each of `template.variables` stands for under `binding`.
    The instantiated body is a pure function of the template and these texts.
    `binding` binds every variable: the loader rejects a body variable that no
    precondition holds, and `match_all` binds every precondition variable."""
    texts = []
    for var in template.variables:
        texts.append(render_term(binding[var], names))
    return tuple(texts)


def instantiate(
    template: Template, binding: Binding, names: Mapping[str, str] | None = None
) -> SeemlDocument:
    """Substitute bound terms, as literal text, into the body's text."""
    table = dict(zip(template.variables, fill(template, binding, names)))
    return fill_in(template.body, template.sites.paths, table)


def record_usage(history: UsageHistory, template_id: str, now: float) -> UsageHistory:
    records = dict(history.records)
    rec = records.get(template_id, UsageRecord())
    records[template_id] = UsageRecord(rec.use_count + 1, float(now))
    return UsageHistory(records)
