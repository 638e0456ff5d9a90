"""Reference render of one render key, for equivalence tests.

`render_key` is how byrne rendered a render key before it walked and merged
each (template, directives) pair once and filled the words in per key: the
template is instantiated, and the filled body walked, merged and verified.
It takes `pipeline.render_key`'s arguments, so it can stand in for it.
"""

from __future__ import annotations

from byrne.patterns import Binding
from byrne.pipeline import Memos, PairRender
from byrne.seeml import OutputBundle, apply_directives, merge_tags, verify_and_split
from byrne.textgen import instantiate


def render_key(memos: Memos, pair: PairRender, binding: Binding, fills: tuple[str, ...]) -> OutputBundle:
    doc = instantiate(pair.template, binding, memos.profile.names)
    return verify_and_split(merge_tags(apply_directives(doc, pair.directives)), memos.style)
