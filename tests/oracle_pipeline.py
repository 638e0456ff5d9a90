"""Reference render of one render key, for equivalence tests.

`render_key` is how byrne rendered a render key before it walked, merged and
laid out each (template, directives) pair once and timed the words per key:
the template is instantiated, and the filled body walked, merged and verified,
by `verify` when it is given. It takes `pipeline.render_key`'s arguments, so it
can stand in for it.
"""

from __future__ import annotations

from byrne.patterns import Binding
from byrne.pipeline import Memos, PairRender
from byrne.seeml import OutputBundle, apply_directives, merge_tags, verify_and_split
from byrne.textgen import instantiate


def render_key(
    memos: Memos, pair: PairRender, binding: Binding, fills: tuple[str, ...], verify=verify_and_split
) -> OutputBundle:
    doc = instantiate(pair.template, binding, memos.profile.names)
    return verify(merge_tags(apply_directives(doc, pair.directives)), memos.style)
