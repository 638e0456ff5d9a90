from __future__ import annotations

import re
import sys
from dataclasses import replace
from itertools import product
from random import Random
from typing import Sequence

import hypothesis.strategies as st
import oracle_seeml as oracle
import pytest
from hypothesis import assume, given, settings

from byrne.seeml import (
    AMOUNT,
    CHILDLESS_TAGS,
    DEFAULT_VISEMES,
    EVERY_PHRASE,
    FACE_LEVEL,
    LEVEL,
    MIN_VISEME_MS,
    MAX_NESTING,
    NAME,
    PATH,
    TAGS,
    UTTERANCE,
    Directive,
    Element,
    Scope,
    FacsEvent,
    Node,
    SeemlDocument,
    SeemlError,
    Text,
    TimedWord,
    VisemeEvent,
    apply_directives,
    at_point,
    document,
    element,
    elements,
    fill_guard,
    fill_in,
    fill_sites,
    format_face_timeline,
    lip_sync,
    merge_tags,
    nesting,
    parse_seeml,
    texts,
    verify_and_split,
    word_trigger,
)
from byrne.seeml import _identity, _mouth_runs
from byrne.sexpr import VARIABLE
from corpus import markup, random_document
from oracle_seeml import serialize_seeml, strip_text
from test_textgen import _BODIES

# --- parse / serialize --------------------------------------------------------

# Every attribute name the table lists, and two misspellings.
_ATTRIBUTE_NAMES = sorted({name for takes in TAGS.values() for name in takes} | {"SPED", "NUMB"})
# A valid value for each attribute a tag needs.
_NEEDED = {"AUDIO": 'SRC="a.wav" ', "AURAL": 'NAME="cheer" ', "EXPR": 'NAME="smile" ', "AU": 'NUM="4" '}


class TestParse:
    def test_minimal_document(self):
        doc = parse_seeml("<su><seg>goal</seg></su>")
        assert doc == SeemlDocument(
            (Element("su", (), (Element("seg", (), (Text("goal"),)),)),)
        )

    def test_expression_span(self):
        doc = parse_seeml('<EXPR NAME="smile">great pass</EXPR>')
        (el,) = doc.children
        assert el.tag == "EXPR" and el.attr("NAME") == "smile"
        assert el.children == (Text("great pass"),)

    def test_tags_case_insensitive_on_input(self):
        assert parse_seeml("<SU><SEG>x</SEG></SU>") == parse_seeml("<su><seg>x</seg></su>")
        assert parse_seeml('<rate speed="+10%">x</rate>').children[0].tag == "RATE"

    def test_nesting_is_bounded(self):
        at_bound = "<su>" + "<np>" * (MAX_NESTING - 2) + "<BREAK/>" + "</np>" * (MAX_NESTING - 2) + "</su>"
        doc = parse_seeml(at_bound)
        assert nesting(doc.children) == MAX_NESTING and nesting(doc.children, "np") == MAX_NESTING - 2
        with pytest.raises(SeemlError, match=f"nests deeper than {MAX_NESTING} elements"):
            parse_seeml(f"<seg>{at_bound}</seg>")

    def test_unknown_tag_listed(self):
        with pytest.raises(SeemlError, match="blink"):
            parse_seeml("<blink>x</blink>")

    def test_unbalanced_tags(self):
        with pytest.raises(SeemlError):
            parse_seeml("<su><seg>x</su>")
        with pytest.raises(SeemlError):
            parse_seeml("<su>x")
        with pytest.raises(SeemlError):
            parse_seeml("x</su>")

    def test_au_range_enforced(self):
        parse_seeml('<AU NUM="46">x</AU>')
        with pytest.raises(SeemlError):
            parse_seeml('<AU NUM="47">x</AU>')
        with pytest.raises(SeemlError):
            parse_seeml('<AU NUM="0">x</AU>')
        with pytest.raises(SeemlError):
            parse_seeml("<AU>x</AU>")

    def test_expression_names_restricted_to_the_six(self):
        for name in ("smile", "sadness", "fear", "anger", "disgust", "surprise"):
            parse_seeml(f'<EXPR NAME="{name}">x</EXPR>')
        with pytest.raises(SeemlError, match="happiness"):
            parse_seeml('<EXPR NAME="happiness">x</EXPR>')

    def test_facial_level_delta_must_be_a_plain_number(self):
        parse_seeml('<AU LEVEL="+0.8" NUM="12">x</AU>')
        parse_seeml('<AFFECT LEVEL="+10%" TYPE="interest">x</AFFECT>')
        with pytest.raises(SeemlError, match="percentage"):
            parse_seeml('<AU LEVEL="+10%" NUM="12">x</AU>')
        with pytest.raises(SeemlError, match="percentage"):
            parse_seeml('<EXPR LEVEL="-5%" NAME="smile">x</EXPR>')

    @pytest.mark.parametrize("level", [" 0.5", "١", "+١", "nan", "inf", "1_0", "0.5%", "?x"])
    def test_level_must_be_a_decimal_literal(self, level):
        for tag in ('EXPR NAME="smile"', 'AU NUM="12"', 'AFFECT TYPE="interest"'):
            with pytest.raises(SeemlError, match=r"LEVEL must be a number in \[0,1\] or a delta"):
                parse_seeml(f'<{tag} LEVEL="{level}">x</{tag.split()[0]}>')

    def test_childless_tags_do_not_enclose_text(self):
        parse_seeml('<BREAK/> and <AURAL NAME="hiccup"/>')
        with pytest.raises(SeemlError):
            element("BREAK", (), (Text("x"),))

    def test_entity_escapes(self):
        doc = parse_seeml("<seg>fish &amp; chips &lt;3</seg>")
        assert strip_text(doc) == "fish & chips <3"

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SeemlError):
            parse_seeml('<w pos="n" pos="v">x</w>')

    def test_repeated_attribute_pair_rejected_not_overwritten(self):
        with pytest.raises(SeemlError, match="duplicate attribute NUM on <AU>"):
            element("AU", [("NUM", "1"), ("NUM", "2")])

    @pytest.mark.parametrize("text", ['<AU NUM="1" NUM="2"/>', '<au num="1" NUM="2"/>'])
    def test_repeated_attribute_in_markup_rejected_whatever_its_case(self, text):
        with pytest.raises(SeemlError, match="duplicate attribute NUM on <AU>"):
            parse_seeml(text)

    @pytest.mark.parametrize(
        "text",
        [
            '<AU LEVEL="+1e308" NUM="5">x</AU>',
            '<RATE SPEED="+1e308%">x</RATE>',
            '<PITCH BASE="-1e308">x</PITCH>',
            # at max / MAX_NESTING, rounding lets MAX_NESTING of them sum to infinity
            f'<RATE SPEED="+{sys.float_info.max / MAX_NESTING!r}%">x</RATE>',
        ],
    )
    def test_delta_too_large_to_sum_is_rejected(self, text):
        # MAX_NESTING such deltas on one path would sum past the largest float
        with pytest.raises(SeemlError, match=r"(LEVEL|SPEED|BASE) delta must lie within ±8\.9\d*e\+305, got"):
            parse_seeml(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('<RATE SPED="+10%">x</RATE>', "<RATE> takes no attribute SPED"),
            ('<BREAK LEVEL="+1"/>', "<BREAK> takes no attribute LEVEL"),
            ('<au num="4" levle="0.5">x</au>', "<AU> takes no attribute LEVLE"),
        ],
    )
    def test_an_attribute_the_tag_does_not_take_fails_the_load(self, text, message):
        with pytest.raises(SeemlError, match=re.escape(message)):
            parse_seeml(text)

    @given(
        st.sampled_from(sorted(TAGS)),
        st.sampled_from(_ATTRIBUTE_NAMES) | st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,5}", fullmatch=True),
        st.sampled_from(["+1", "+10%", "0.5", "n", ""]),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_attribute_outside_the_table_fails_the_load(self, tag, name, value):
        canonical = name.lower() if tag.islower() else name.upper()
        assume(canonical not in TAGS[tag])
        # the tag's required attributes are given, so only the stray one can fail
        with pytest.raises(SeemlError) as err:
            parse_seeml(f'<{tag} {_NEEDED.get(tag, "")}{name}="{value}"/>')
        assert str(err.value) == f"<{tag}> takes no attribute {canonical}"

    def test_a_path_is_written_as_given_signed_or_not(self):
        # a path is no amount, so it is neither read as a number nor summed
        doc = parse_seeml('<AUDIO SRC="+1e400"/>')
        assert doc.children[0].attr("SRC") == "+1e400"
        assert merge_tags(doc) == doc

    def test_attribute_values_escape_and_round_trip(self):
        doc = document([element("AUDIO", {"SRC": 'clips/"a&b".wav'})])
        text = serialize_seeml(doc)
        assert "&quot;" in text and "&amp;" in text
        assert parse_seeml(text) == doc


class TestSerialize:
    def test_empty_document(self):
        assert serialize_seeml(SeemlDocument()) == ""

    def test_attributes_sorted_and_quoted(self):
        el = element("EXPR", {"NAME": "smile", "LEVEL": "0.8"}, (Text("x"),))
        assert serialize_seeml(document([el])) == '<EXPR LEVEL="0.8" NAME="smile">x</EXPR>'

    def test_childless_au_serializes_as_empty_element(self):
        assert serialize_seeml(document([element("AU", {"NUM": "4"})])) == '<AU NUM="4"/>'

    def test_round_trip_fixpoint_on_random_documents(self):
        rng = Random(1234)
        for _ in range(300):
            doc = random_document(rng)
            assert parse_seeml(serialize_seeml(doc)) == doc

    def test_canonical_form_idempotent(self):
        rng = Random(77)
        for _ in range(100):
            text = serialize_seeml(random_document(rng))
            assert serialize_seeml(parse_seeml(text)) == text

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_fixpoint_property(self, seed):
        doc = random_document(Random(seed))
        assert parse_seeml(serialize_seeml(doc)) == doc


# --- directive application ----------------------------------------------------


# "what a" spans two words, so a childless mark beside "a" changes what it can match
TRIGGERS = ["goal", "ball", "KIRK", "a", "what a"]


def random_directive(rng: Random, earlier: Sequence[Directive] = ()) -> Directive:
    """One directive, for every scope: a prosody, facial or aural mark, a `<seg>`
    or `<w>` speech mark that later directives walk again, or a childless
    `BREAK`/`AURAL` that goes beside its span. A third of the word triggers
    repeat an `earlier` one."""
    repeats = [d.scope for d in earlier if d.scope.kind == "word"]
    if repeats and rng.random() < 0.3:
        scope = rng.choice(repeats)
    else:
        scope = rng.choice([
            UTTERANCE,
            EVERY_PHRASE,
            word_trigger(rng.choice(TRIGGERS)),
            word_trigger(rng.choice(TRIGGERS)),
            at_point(rng.choice(["start", "end"])),
        ])
    roll = rng.randrange(9)
    if roll == 0:
        return markup("EXPR", scope, NAME=rng.choice(["smile", "fear"]), LEVEL=rng.choice(["0.3", "1"]))
    if roll == 1:
        return markup("AU", scope, NUM=rng.choice(["4", "12"]), LEVEL=rng.choice(["0.4", "0.6"]))
    if roll == 2:
        return markup("AURAL", scope, NAME=rng.choice(["hiccup", "cheer"]))
    if roll == 3:
        return markup("RATE", scope, SPEED=rng.choice(["+5%", "-10%"]))
    if roll == 4:
        return markup(rng.choice(["EMPH", "BREAK"]), scope)
    if roll == 5:
        return markup("seg", scope)
    if roll == 6:
        return markup("w", scope, pos=rng.choice(["n", "v"]))
    if roll == 7:
        return markup("BREAK", scope)
    return markup("PITCH", scope, RANGE=rng.choice(["+10%", "+20%"]))


def random_directives(rng: Random, most: int) -> list[Directive]:
    directives: list[Directive] = []
    for _ in range(rng.randrange(1, most)):
        directives.append(random_directive(rng, directives))
    return directives


def spelled_document(rng: Random) -> SeemlDocument:
    """A random document with, here and there, a `<w>` that spells a trigger
    inside another `<w>` that spells it too, or that spells more."""
    nodes = list(random_document(rng).children)
    for _ in range(rng.randrange(3)):
        word = rng.choice(TRIGGERS)
        inner = element("w", {"pos": "v"}, [Text(f"{rng.choice([word, word.swapcase()])} ")])
        outer = [inner] if rng.random() < 0.5 else [Text(f"{rng.choice(TRIGGERS)} "), inner]
        nodes.insert(rng.randrange(len(nodes) + 1), element("w", {"pos": "n"}, outer))
    return document(nodes)


class TestApplyDirectives:
    def test_directives_built_apart_are_one_memo_key(self):
        # the render memo keys on directive tuples; each directive's hash is kept
        first = (markup("RATE", EVERY_PHRASE, SPEED="+5%"), markup("AU", word_trigger("goal"), NUM="4"))
        second = (markup("RATE", EVERY_PHRASE, SPEED="+5%"), markup("AU", word_trigger("goal"), NUM="4"))
        assert first == second and first[0] is not second[0]
        assert len({first, second}) == 1
        assert markup("RATE", EVERY_PHRASE, SPEED="+5%") != markup("RATE", UTTERANCE, SPEED="+5%")

    def test_utterance_scope_wraps_root(self):
        doc = parse_seeml("<su><seg>goal</seg></su>")
        smiled = apply_directives(doc, [markup("EXPR", UTTERANCE, NAME="smile", LEVEL="0.8")])
        assert (
            serialize_seeml(smiled)
            == '<EXPR LEVEL="0.8" NAME="smile"><su><seg>goal</seg></su></EXPR>'
        )

    def test_word_trigger_wraps_only_that_word(self):
        doc = parse_seeml("<su><seg>Kirk to the bridge</seg></su>")
        marked = apply_directives(doc, [markup("AU", word_trigger("Kirk"), NUM="4", LEVEL="0.6")])
        assert (
            serialize_seeml(marked)
            == '<su><seg><AU LEVEL="0.6" NUM="4">Kirk</AU> to the bridge</seg></su>'
        )

    def test_word_trigger_is_case_insensitive_whole_word(self):
        doc = parse_seeml("<su><seg>kirk likes kirkland</seg></su>")
        marked = apply_directives(doc, [markup("AU", word_trigger("Kirk"), NUM="4", LEVEL="0.6")])
        out = serialize_seeml(marked)
        assert '<AU LEVEL="0.6" NUM="4">kirk</AU> likes kirkland' in out

    def test_word_trigger_wraps_w_elements(self):
        doc = parse_seeml('<su><seg><w pos="n">Kirk</w> beams up</seg></su>')
        marked = apply_directives(doc, [markup("AU", word_trigger("Kirk"), NUM="4", LEVEL="0.6")])
        assert '<AU LEVEL="0.6" NUM="4"><w pos="n">Kirk</w></AU>' in serialize_seeml(marked)

    def test_aural_event_appends_at_end(self):
        doc = parse_seeml("<su><seg>oh dear</seg></su>")
        out = apply_directives(doc, [markup("AURAL", at_point("end"), NAME="hiccup")])
        assert serialize_seeml(out) == '<su><seg>oh dear</seg></su><AURAL NAME="hiccup"/>'

    def test_point_start_prepends(self):
        doc = parse_seeml("<su><seg>goal</seg></su>")
        out = apply_directives(doc, [markup("AURAL", at_point("start"), NAME="cheer")])
        assert serialize_seeml(out).startswith('<AURAL NAME="cheer"/>')

    def test_every_phrase_wraps_each_seg(self):
        doc = parse_seeml("<su><seg>one</seg> <seg>two</seg></su>")
        out = apply_directives(
            doc, [markup("RATE", EVERY_PHRASE, SPEED="+10%")]
        )
        assert serialize_seeml(out) == (
            '<su><RATE SPEED="+10%"><seg>one</seg></RATE> '
            '<RATE SPEED="+10%"><seg>two</seg></RATE></su>'
        )

    def test_insertion_directive_at_every_phrase_lands_beside_segs(self):
        doc = parse_seeml("<su><seg>one</seg> <seg>two</seg></su>")
        out = apply_directives(doc, [markup("AURAL", EVERY_PHRASE, NAME="hiccup")])
        assert serialize_seeml(out).count('<AURAL NAME="hiccup"/>') == 2

    def test_unresolvable_expression_name_rejected(self):
        with pytest.raises(SeemlError):
            markup("EXPR", UTTERANCE, NAME="smirk", LEVEL="0.5")

    def test_text_content_is_preserved(self):
        rng = Random(55)
        directives = [
            markup("EXPR", UTTERANCE, NAME="smile", LEVEL="0.8"),
            markup("RATE", EVERY_PHRASE, SPEED="+10%"),
            markup("AU", word_trigger("goal"), NUM="4", LEVEL="0.6"),
            markup("AURAL", at_point("end"), NAME="hiccup"),
        ]
        for _ in range(50):
            doc = random_document(rng)
            out = apply_directives(doc, directives)
            assert strip_text(out) == strip_text(doc)


    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_text_preserved_property(self, seed):
        rng = Random(seed)
        doc = random_document(rng)
        directives = random_directives(rng, 6)
        assert strip_text(apply_directives(doc, directives)) == strip_text(doc)

    @given(st.integers(min_value=0, max_value=10**9), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_word_directive_marks_each_occurrence_once(self, seed, insertion):
        # corpus text runs end in a space, so every whole word lies inside one text node
        rng = Random(seed)
        word = rng.choice(["goal", "BALL", "kirk", "a", "what"])
        # a <w> holding just the word is marked whole, the rest word by word
        spelled = element("w", {"pos": "n"}, [Text(f"{word.swapcase()} ")])
        doc = document([spelled, *random_document(rng).children])
        occurrences = re.findall(
            rf"(?<!\w){re.escape(word)}(?!\w)", strip_text(doc), re.IGNORECASE
        )
        if insertion:
            mark = element("AURAL", {"NAME": "klaxon"})
            out = apply_directives(doc, [markup("AURAL", word_trigger(word), NAME="klaxon")])
        else:
            mark = element("AU", {"NUM": "40", "LEVEL": "0.35"})
            out = apply_directives(doc, [markup("AU", word_trigger(word), NUM="40", LEVEL="0.35")])
        marked: list[str] = []

        def walk(nodes, inside: bool) -> None:
            for i, node in enumerate(nodes):
                if not isinstance(node, Element):
                    continue
                if (node.tag, node.attrs) == (mark.tag, mark.attrs):
                    assert not inside, "an occurrence is marked twice"
                    if insertion:
                        before = nodes[i - 1]
                        text = before.text if isinstance(before, Text) else strip_text(
                            SeemlDocument((before,))
                        )
                        marked.append(re.split(r"\s+", text.strip())[-1])
                    else:
                        marked.append(strip_text(SeemlDocument((node,))).strip())
                walk(node.children, inside or (node.tag, node.attrs) == (mark.tag, mark.attrs))

        walk(out.children, False)
        assert len(marked) == len(occurrences)
        assert all(m.lower() == word.lower() for m in marked)

    def test_no_directives_return_the_document_itself(self):
        doc = parse_seeml("<su><seg>goal</seg></su>")
        assert apply_directives(doc, []) is doc

    def test_a_later_wrap_sits_inside_an_earlier_one(self):
        doc = parse_seeml("<su><seg>goal</seg></su>")
        out = apply_directives(doc, [
            markup("RATE", EVERY_PHRASE, SPEED="+5%"),
            markup("EMPH", EVERY_PHRASE),
            markup("AURAL", EVERY_PHRASE, NAME="hiccup"),
            markup("BREAK", EVERY_PHRASE),
        ])
        # the later childless mark sits next to the span, inside the earlier wraps
        assert serialize_seeml(out) == (
            '<su><RATE SPEED="+5%"><EMPH><seg>goal</seg><BREAK/><AURAL NAME="hiccup"/>'
            "</EMPH></RATE></su>"
        )

    def test_a_seg_mark_is_wrapped_by_a_later_every_phrase_directive(self):
        doc = parse_seeml("<su><seg>goal</seg> now</su>")
        out = apply_directives(doc, [
            markup("seg", word_trigger("now")),
            markup("seg", EVERY_PHRASE),
            markup("EMPH", EVERY_PHRASE),
        ])
        assert serialize_seeml(out) == (
            "<su><EMPH><seg><EMPH><seg>goal</seg></EMPH></seg></EMPH> "
            "<EMPH><seg><EMPH><seg>now</seg></EMPH></seg></EMPH></su>"
        )

    def test_a_w_mark_is_wrapped_whole_by_a_later_trigger_it_spells(self):
        doc = parse_seeml("<su><seg>Kirk runs</seg></su>")
        out = apply_directives(doc, [
            markup("w", word_trigger("kirk"), pos="n"),
            markup("EMPH", word_trigger("KIRK")),
            markup("w", EVERY_PHRASE, pos="v"),
            markup("AU", word_trigger("kirk runs"), NUM="4", LEVEL="0.6"),
        ])
        assert serialize_seeml(out) == (
            '<su><AU LEVEL="0.6" NUM="4"><w pos="v"><seg><EMPH><w pos="n">Kirk</w></EMPH>'
            " runs</seg></w></AU></su>"
        )

    def test_a_childless_word_mark_lets_its_match_merge_with_the_text_before_it(self):
        # inside an element the fragments merge, so "what a" matches across the mark's match;
        # on the top list they stay apart until the document is built
        out = apply_directives(
            parse_seeml("<seg>what a goal</seg> what a goal"),
            [markup("BREAK", word_trigger("a")), markup("EMPH", word_trigger("what a"))],
        )
        assert serialize_seeml(out) == (
            "<seg><EMPH>what a</EMPH><BREAK/> goal</seg> what a<BREAK/> goal"
        )

    def test_a_word_trigger_is_compiled_once_and_ignored_by_equality(self):
        scope = word_trigger("Kirk")
        assert scope.pattern.pattern == r"(?<!\w)Kirk(?!\w)"
        assert scope == Scope("word", word="Kirk") and hash(scope) == hash(Scope("word", word="Kirk"))
        assert UTTERANCE.pattern is None and at_point("end").pattern is None

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=300, deadline=None)
    def test_walk_matches_the_directive_fold_property(self, seed):
        rng = Random(seed)
        doc = spelled_document(rng)
        directives = random_directives(rng, 12)
        assert apply_directives(doc, directives) == oracle.apply_directives(doc, directives)

    def test_walk_matches_the_directive_fold_on_many_documents(self):
        # the kinds of mark the property must reach, counted so a narrowed generator shows
        rng = Random(2121)
        seen = {"seg mark walked again": 0, "w mark wrapped whole": 0, "w in w": 0}
        for _ in range(600):
            doc = spelled_document(rng)
            directives = random_directives(rng, 12)
            out = apply_directives(doc, directives)
            assert out == oracle.apply_directives(doc, directives)
            tags = [d.mark.tag for d in directives]
            if "seg" in tags and EVERY_PHRASE in [d.scope for d in directives[tags.index("seg") + 1 :]]:
                seen["seg mark walked again"] += 1
            words = [d.scope.word.lower() for d in directives if d.mark.tag == "w"]
            if any(d.scope.kind == "word" and d.scope.word.lower() in words for d in directives[1:]):
                seen["w mark wrapped whole"] += 1
            seen["w in w"] += any(
                el.tag == "w" and any(k.tag == "w" for k in elements(el.children))
                for el in elements(doc.children)
            )
        assert all(count >= 30 for count in seen.values()), seen


# --- filling a walked body ------------------------------------------------------

# Few words, so that triggers, variables and fills meet: "x x" overlaps itself,
# "p" lies inside "?p", "x!" and "x " end in a non-word character, and a fill
# can be one trigger, spell a <w>, or join two.
_FILL_WORDS = ["x", "x", "q", "x!", "Q", "?p", "?p"]
_FILL_TRIGGERS = ["x", "q", "q x", "x x", "x x", "x q", "x!", "x ", "p"]
_FILLS = ["x", "q", "X", "x x", "q x", ""]


def _fill_case(rng: Random) -> tuple[SeemlDocument, list[Directive]]:
    """One or two `<seg>`s of a few words and variables, some in a `<w>`, some
    glued to their neighbours, and a few marks on those words."""
    segs: list[Node] = []
    for _ in range(rng.randrange(1, 3)):
        children: list[Node] = []
        for _ in range(rng.randrange(1, 4)):
            words = [rng.choice(_FILL_WORDS) for _ in range(rng.randrange(1, 5))]
            text = Text(rng.choice([" ", " ", ""]).join(words) + rng.choice([" ", ""]))
            children.append(element("w", {"pos": "n"}, [text]) if rng.random() < 0.3 else text)
        segs.append(element("seg", {}, children))
    body = document(segs)
    directives = []
    for _ in range(rng.randrange(1, 5)):
        scope = rng.choice([word_trigger(rng.choice(_FILL_TRIGGERS))] * 4 + [EVERY_PHRASE, UTTERANCE])
        tag = rng.choice(["EMPH", "BREAK", "w"])
        directives.append(markup(tag, scope, **({"pos": "v"} if tag == "w" else {})))
    return body, directives


def _fill(doc: SeemlDocument, text: str) -> SeemlDocument:
    """`doc` with every variable, "?p" or one glued on to it such as "?pq", filled with `text`."""
    sites = fill_sites(doc)
    return fill_in(doc, sites.paths, dict.fromkeys(sites.found, text))


class TestFillSites:
    @staticmethod
    def _check(body: SeemlDocument) -> None:
        sites = fill_sites(body)
        assert (sites.paths, sites.held, sites.spelled) == oracle.fill_sites(body)
        assert list(sites.found) == [var for text in sites.held for var in VARIABLE.findall(text)]

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_one_walk_finds_the_two_walks_sites_in_a_body_and_its_merged_tree_property(self, seed):
        body, directives = _fill_case(Random(seed))
        self._check(body)
        self._check(merge_tags(apply_directives(body, directives)))

    @given(_BODIES)
    @settings(max_examples=200, deadline=None)
    def test_one_walk_finds_the_two_walks_sites_in_a_template_body_property(self, body):
        self._check(parse_seeml(body))


class TestFillGuard:
    @staticmethod
    def _check(body: SeemlDocument, directives: Sequence[Directive], counts: dict) -> None:
        fits = fill_guard(fill_sites(body), directives)
        counts["body refused"] += fits is None
        variables = {var for leaf in texts(body.children) for var in VARIABLE.findall(leaf)}
        for text in _FILLS:
            if fits is not None and fits(dict.fromkeys(variables, text)):
                counts["filled after the walk"] += 1
                walked = apply_directives(body, directives)
                assert _fill(walked, text) == apply_directives(_fill(body, text), directives)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=300, deadline=None)
    def test_a_fill_the_guard_passes_commutes_with_the_walk_property(self, seed):
        self._check(*_fill_case(Random(seed)), {"body refused": 0, "filled after the walk": 0})

    def test_a_fill_the_guard_passes_commutes_with_the_walk_on_every_small_body(self):
        # every text of up to four words over "q", "x" and "?p" under every pair
        # of triggers: few enough to try all, and among them a trigger that lines
        # up otherwise in the fragment another leaves than over the whole text
        triggers = ["q", "x", "q x", "x q", "x x"]
        counts = {"body refused": 0, "filled after the walk": 0}
        for size in range(1, 5):
            for words in product(["q", "x", "?p"], repeat=size):
                body = document([element("seg", {}, [Text(" ".join(words))])])
                for first, second in product(triggers, repeat=2):
                    for tag in ("EMPH", "BREAK"):
                        directives = [markup(tag, word_trigger(first)), markup("EMPH", word_trigger(second))]
                        self._check(body, directives, counts)
        assert counts["filled after the walk"] >= 18000, counts

    def test_a_seg_a_w_wraps_every_phrase_is_spelled_by_its_filled_text(self):
        # no one text reads "kirkson": only the <seg> spells it
        body = parse_seeml("<seg>?p<np>son</np></seg><seg>runs on</seg>")
        directives = [markup("w", EVERY_PHRASE, pos="n"), markup("EMPH", word_trigger("kirkson"))]
        fits = fill_guard(fill_sites(body), directives)
        assert fits is not None and fits({"?p": "Angus"}) and not fits({"?p": "Kirk"})
        walked = apply_directives(body, directives)
        assert _fill(walked, "Kirk") != apply_directives(_fill(body, "Kirk"), directives)

    def test_a_trigger_that_overlaps_itself_is_read_in_the_fragments_others_leave(self):
        # over "q x x x", finditer finds "x x" at 2 only; in " x x", left after
        # "q x", it finds the fill's "x x" at 4
        body = parse_seeml("<seg>q x x ?p</seg>")
        directives = [markup("AU", word_trigger("q x"), NUM="4"), markup("EMPH", word_trigger("x x"))]
        fits = fill_guard(fill_sites(body), directives)
        assert fits is not None and fits({"?p": "q"}) and not fits({"?p": "x"})
        walked = apply_directives(body, directives)
        assert _fill(walked, "x") != apply_directives(_fill(body, "x"), directives)


# --- merge algebra --------------------------------------------------------------


def _delta(value: str):
    m = re.match(r"^([+-](?:\d+\.?\d*|\.\d+))(%?)$", value)
    return (float(m.group(1)), m.group(2)) if m else None


# The kinds of attribute whose deltas the merge sums.
_SUMMED = (AMOUNT, LEVEL, FACE_LEVEL)


def _deltas(el: Element) -> dict:
    """The deltas of `el`'s amounts and levels: the only values the merge sums."""
    return {k: _delta(v) for k, v in el.attrs if TAGS[el.tag][k][0] in _SUMMED and _delta(v)}


def _key(el: Element):
    deltas = _deltas(el)
    plain = tuple(sorted((k, v) for k, v in el.attrs if k not in deltas))
    return (el.tag, plain, tuple(sorted((k, unit) for k, (_, unit) in deltas.items())))


class _MutableNode:
    def __init__(self, node):
        if isinstance(node, Text):
            self.text, self.el, self.kids = node.text, None, []
        else:
            self.text, self.el = None, node
            self.kids = [_MutableNode(c) for c in node.children]

    def freeze(self):
        if self.el is None:
            return [Text(self.text)]
        kids = [g for k in self.kids for g in k.freeze()]
        return [element(self.el.tag, dict(self.el.attrs), kids)]


def reference_merge(doc: SeemlDocument) -> SeemlDocument:
    """Fixpoint oracle: quadratic scans resolving one redundant pair at a time."""
    roots = [_MutableNode(n) for n in doc.children]

    def walk(node, ancestors):
        yield node, ancestors
        for kid in node.kids:
            yield from walk(kid, ancestors + [node])

    def all_nodes():
        for root in roots:
            yield from walk(root, [])

    def splice(target):
        for node, ancestors in all_nodes():
            if target in node.kids:
                i = node.kids.index(target)
                node.kids[i:i + 1] = target.kids
                return
        i = roots.index(target)
        roots[i:i + 1] = target.kids

    def add_delta(el: Element, extra: dict) -> Element:
        attrs = dict(el.attrs)
        for name, (mag, unit) in extra.items():
            current = _delta(attrs.get(name, f"+0{unit}"))
            attrs[name] = f"{current[0] + mag:+g}{unit}"
        return Element(el.tag, tuple(sorted(attrs.items())), ())

    def immediate_same_key(anc):
        # same-identity descendants not shielded by an intermediate same-identity tag
        out = []

        def descend(node):
            for kid in node.kids:
                if kid.el is not None and _key(kid.el) == _key(anc.el):
                    out.append(kid)
                    continue
                descend(kid)

        descend(anc)
        return out

    while True:
        resolved = False
        for node, ancestors in list(all_nodes()):
            if node.el is None:
                continue
            for anc in ancestors:
                if anc.el is None or _key(anc.el) != _key(node.el):
                    continue
                if _deltas(anc.el) or _deltas(node.el):
                    mine = _deltas(anc.el)
                    for inner in immediate_same_key(anc):
                        inner.el = add_delta(inner.el, mine)
                    splice(anc)
                else:
                    splice(node)
                resolved = True
                break
            if resolved:
                break
        if not resolved:
            break
    return document([n for root in roots for n in root.freeze()])


def assert_no_identical_nesting(doc: SeemlDocument) -> None:
    def walk(node, ancestors):
        if isinstance(node, Element):
            for anc in ancestors:
                assert _key(anc) != _key(node), f"redundant nesting of {node.tag}"
            for child in node.children:
                walk(child, ancestors + [node])

    for node in doc.children:
        walk(node, [])


# Name and path attributes, signed and not, and an amount beside a name.
_SIGNED = st.sampled_from(["+1", "+1.0", "-2", "+1e400", "+10%", "n"])
_NAMED = st.one_of(
    st.tuples(st.just("w"), st.fixed_dictionaries({"pos": _SIGNED})),
    st.tuples(st.just("AFFECT"), st.fixed_dictionaries({"TYPE": _SIGNED})),
    st.tuples(st.just("AFFECT"), st.fixed_dictionaries({"TYPE": _SIGNED, "LEVEL": st.just("+10%")})),
    st.tuples(st.just("AURAL"), st.fixed_dictionaries({"NAME": _SIGNED})),
    st.tuples(st.just("AUDIO"), st.fixed_dictionaries({"SRC": _SIGNED})),
)
# Every (tag, attribute, kind) whose deltas the merge sums.
_SUMMED_ROWS = [
    (tag, name, kind) for tag, takes in TAGS.items() for name, (kind, _) in takes.items() if kind in _SUMMED
]


def _name_and_path_values(doc: SeemlDocument) -> set:
    return {
        (el.tag, name, value)
        for el in elements(doc.children)
        for name, value in el.attrs
        if TAGS[el.tag][name][0] in (NAME, PATH)
    }


class TestMergeTags:
    def test_merging_twice_gives_equal_documents(self):
        # the second merge reads every identity from the memo the first one filled
        text = (
            '<RATE SPEED="+10%">fast <RATE SPEED="+5%">faster '
            "<EMPH>now <EMPH>really</EMPH></EMPH></RATE></RATE>"
        )
        first, second = merge_tags(parse_seeml(text)), merge_tags(parse_seeml(text))
        assert first == second
        assert serialize_seeml(second) == (
            'fast <RATE SPEED="+15%">faster <EMPH>now really</EMPH></RATE>'
        )

    def test_memoised_identities_are_immutable_and_bounded(self):
        ident, deltas = _identity("RATE", (("SPEED", "+10%"),))
        assert ident == ("RATE", (), (("SPEED", "%"),)) and deltas == (("SPEED", 10, "%"),)
        hash((ident, deltas))  # tuples all the way down: no caller can change a shared entry
        assert _identity("RATE", (("SPEED", "+10%"),)) is _identity("RATE", (("SPEED", "+10%"),))
        assert _identity.cache_info().maxsize is not None

    def test_identical_inner_tag_removed_outer_kept(self):
        doc = parse_seeml(
            '<EXPR LEVEL="0.8" NAME="smile">so <EXPR LEVEL="0.8" NAME="smile">very</EXPR> good</EXPR>'
        )
        merged = merge_tags(doc)
        assert (
            serialize_seeml(merged) == '<EXPR LEVEL="0.8" NAME="smile">so very good</EXPR>'
        )

    def test_nested_deltas_sum_on_inner_span(self):
        doc = parse_seeml('<RATE SPEED="+10%">fast <RATE SPEED="+5%">faster</RATE> bit</RATE>')
        assert (
            serialize_seeml(merge_tags(doc)) == 'fast <RATE SPEED="+15%">faster</RATE> bit'
        )

    def test_non_identical_tags_are_independent(self):
        text = '<EXPR LEVEL="0.8" NAME="smile"><AU LEVEL="0.5" NUM="9">ha</AU></EXPR>'
        assert serialize_seeml(merge_tags(parse_seeml(text))) == text

    def test_different_levels_are_independent(self):
        text = '<EXPR LEVEL="0.8" NAME="smile"><EXPR LEVEL="0.5" NAME="smile">hm</EXPR></EXPR>'
        assert serialize_seeml(merge_tags(parse_seeml(text))) == text

    def test_n_nested_deltas_collapse_to_sum(self):
        doc = parse_seeml(
            '<RATE SPEED="+1%"><RATE SPEED="+2%"><RATE SPEED="+4%">x</RATE></RATE></RATE>'
        )
        assert serialize_seeml(merge_tags(doc)) == '<RATE SPEED="+7%">x</RATE>'

    def test_only_a_signed_decimal_literal_is_a_delta(self):
        # other digit scripts are text, and so never sum; an exponent is part of the literal
        text = '<RATE SPEED="+5%"><RATE SPEED="+١٠%">x</RATE></RATE>'
        assert serialize_seeml(merge_tags(parse_seeml(text))) == text
        doc = parse_seeml('<RATE SPEED="+5%"><RATE SPEED="+1e1%">x</RATE></RATE>')
        assert serialize_seeml(merge_tags(doc)) == '<RATE SPEED="+15%">x</RATE>'

    def test_negative_deltas_sum(self):
        doc = parse_seeml('<RATE SPEED="+10%"><RATE SPEED="-4%">x</RATE></RATE>')
        assert serialize_seeml(merge_tags(doc)) == '<RATE SPEED="+6%">x</RATE>'

    def test_delta_ancestor_spreads_to_every_branch(self):
        doc = parse_seeml(
            '<RATE SPEED="+10%"><RATE SPEED="+5%">a</RATE> mid <RATE SPEED="+3%">b</RATE></RATE>'
        )
        assert serialize_seeml(merge_tags(doc)) == (
            '<RATE SPEED="+15%">a</RATE> mid <RATE SPEED="+13%">b</RATE>'
        )

    def test_deltas_nested_to_the_limit_sum_to_a_finite_value(self):
        largest = repr(sys.float_info.max / (MAX_NESTING + 1))
        doc = parse_seeml(f'<RATE SPEED="+{largest}%">' * MAX_NESTING + "x" + "</RATE>" * MAX_NESTING)
        (merged,) = merge_tags(doc).children
        speed = merged.attr("SPEED")
        assert speed.startswith("+1.7") and speed.endswith("e+308%")

    def test_collapsed_element_keeps_canonical_attribute_order(self):
        doc = parse_seeml('<PITCH BASE="+5%" RANGE="wide"><PITCH BASE="+5%" RANGE="wide">x</PITCH></PITCH>')
        merged = merge_tags(doc)
        assert merged == parse_seeml('<PITCH BASE="+10%" RANGE="wide">x</PITCH>')

    def test_a_childless_value_is_kept_as_written(self):
        # a signed name is no amount: rewritten as +1 it would name another sound
        text = '<RATE SPEED="+5%"><AURAL NAME="+1.0"/>x</RATE>'
        assert serialize_seeml(merge_tags(parse_seeml(text))) == text

    @pytest.mark.parametrize(
        "text, merged",
        [
            ('<w pos="+1"><w pos="+1">x</w></w>', '<w pos="+1">x</w>'),
            (
                '<AFFECT TYPE="+1.0">a <AFFECT TYPE="+1.0">b</AFFECT></AFFECT>',
                '<AFFECT TYPE="+1.0">a b</AFFECT>',
            ),
        ],
    )
    def test_a_signed_name_is_not_summed(self, text, merged):
        # a name is no amount: the identical inner copy goes, and the value stays as written
        assert serialize_seeml(merge_tags(parse_seeml(text))) == merged

    @given(st.lists(_NAMED, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_names_and_paths_are_kept_as_written_property(self, marks):
        # each mark wraps the ones before it; a childless one goes beside them
        nodes: list = [Text("x")]
        for tag, attrs in marks:
            nodes = [element(tag, attrs), *nodes] if tag in CHILDLESS_TAGS else [element(tag, attrs, nodes)]
        doc = document(nodes)
        written = _name_and_path_values(doc)
        assert _name_and_path_values(merge_tags(doc)) <= written
        assert merge_tags(doc) == reference_merge(doc)

    @given(st.sampled_from(_SUMMED_ROWS), st.lists(st.integers(-50, 50), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_amounts_and_levels_sum_on_the_inner_span_property(self, row, steps):
        tag, name, kind = row
        unit = "" if kind == FACE_LEVEL else "%"
        opens = "".join(f'<{tag} {_NEEDED.get(tag, "")}{name}="{step:+d}{unit}">' for step in steps)
        (merged,) = merge_tags(parse_seeml(f"{opens}x{f'</{tag}>' * len(steps)}")).children
        assert merged.attr(name) == f"{sum(steps):+g}{unit}" and merged.children == (Text("x"),)

    def test_idempotent_on_corpus(self):
        rng = Random(2024)
        for _ in range(200):
            merged = merge_tags(random_document(rng))
            assert merge_tags(merged) == merged

    def test_text_preserved_on_corpus(self):
        rng = Random(321)
        for _ in range(200):
            doc = random_document(rng)
            assert strip_text(merge_tags(doc)) == strip_text(doc)

    def test_no_identical_nesting_remains_on_corpus(self):
        rng = Random(9)
        for _ in range(200):
            assert_no_identical_nesting(merge_tags(random_document(rng)))

    def test_matches_bruteforce_reference_merge(self):
        rng = Random(808)
        for _ in range(250):
            doc = random_document(rng)
            assert merge_tags(doc) == reference_merge(doc)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_merge_property(self, seed):
        rng = Random(seed)
        doc = random_document(rng)
        assert merge_tags(doc) == reference_merge(doc)
        # behavior markup stacked on template markup, as a replay merges it
        directives = random_directives(rng, 8)
        layered = apply_directives(random_document(rng), directives)
        assert merge_tags(layered) == reference_merge(layered)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_text_preserving_over_directives_property(self, seed):
        # behavior markup stacked on template markup, as a replay merges it
        rng = Random(seed)
        directives = random_directives(rng, 8)
        doc = apply_directives(random_document(rng), directives)
        merged = merge_tags(doc)
        assert merge_tags(merged) == merged
        assert strip_text(merged) == strip_text(doc)
        assert_no_identical_nesting(merged)


# --- verify and split ------------------------------------------------------------


class TestVerifyAndSplit:
    def test_smile_over_one_word(self, minimal_style):
        doc = parse_seeml('<EXPR LEVEL="1.0" NAME="smile"><su><seg>goal</seg></su></EXPR>')
        bundle = verify_and_split(doc, minimal_style)
        facs = [ev for ev in bundle.timeline if isinstance(ev, FacsEvent)]
        word_ms = 60000.0 / 180.0
        assert [(ev.au, ev.intensity) for ev in facs] == [(6, 0.6), (12, 0.9)]
        for ev in facs:
            assert ev.onset_ms == 0.0
            assert abs(ev.duration_ms - word_ms) <= 1.0
        assert bundle.speech_script == "<SABLE><su><seg>goal</seg></su></SABLE>"
        reparsed = parse_seeml(bundle.speech_script)
        assert "EXPR" not in bundle.speech_script and "AU" not in bundle.speech_script
        assert strip_text(reparsed) == "goal"

    def test_plain_document_is_sable_projection(self, minimal_style):
        doc = parse_seeml("<su><seg>what a match</seg></su>")
        bundle = verify_and_split(doc, minimal_style)
        assert all(isinstance(ev, VisemeEvent) for ev in bundle.timeline)
        assert bundle.speech_script == "<SABLE><su><seg>what a match</seg></su></SABLE>"
        assert bundle.total_duration_ms == pytest.approx(3 * 60000.0 / 180.0)

    def test_aural_event_becomes_audio_element(self, minimal_style):
        doc = parse_seeml('<su><seg>oh</seg></su><AURAL NAME="hiccup"/>')
        bundle = verify_and_split(doc, minimal_style)
        assert '<AUDIO SRC="sounds/hiccup.wav"/>' in bundle.speech_script

    def test_aural_path_is_written_as_the_style_gives_it(self, minimal_style):
        # a path is no amount, so a signed one is not read as a number
        style = replace(minimal_style, aural={"hiccup": "+1e400"})
        bundle = verify_and_split(parse_seeml('<seg>oh</seg><AURAL NAME="hiccup"/>'), style)
        assert bundle.speech_script == '<SABLE><seg>oh</seg><AUDIO SRC="+1e400"/></SABLE>'

    def test_break_adds_fixed_pause(self, minimal_style):
        doc = parse_seeml("<su><seg>one</seg><BREAK/><seg>two</seg></su>")
        bundle = verify_and_split(doc, minimal_style)
        word_ms = 60000.0 / 180.0
        visemes = [ev for ev in bundle.timeline if isinstance(ev, VisemeEvent)]
        second_word = [ev for ev in visemes if ev.onset_ms >= word_ms]
        assert min(ev.onset_ms for ev in second_word) == pytest.approx(word_ms + 300.0)
        assert bundle.total_duration_ms == pytest.approx(2 * word_ms + 300.0)

    def test_seg_boundaries_recorded_in_order(self, minimal_style):
        doc = parse_seeml("<su><seg>one two</seg> <seg>three</seg></su>")
        bundle = verify_and_split(doc, minimal_style)
        word_ms = 60000.0 / 180.0
        assert bundle.seg_boundaries_ms == (
            pytest.approx(2 * word_ms),
            pytest.approx(3 * word_ms),
        )

    def test_affect_supplement_passes_through_to_speech_script(self, minimal_style):
        doc = parse_seeml(
            '<AFFECT LEVEL="0.5" TYPE="interest"><su><seg>edge of the seat</seg></su></AFFECT>'
        )
        bundle = verify_and_split(doc, minimal_style)
        assert bundle.speech_script == (
            '<SABLE><AFFECT LEVEL="0.5" TYPE="interest">'
            "<su><seg>edge of the seat</seg></su></AFFECT></SABLE>"
        )

    def test_point_gesture_gets_nominal_span(self, minimal_style):
        doc = parse_seeml('<su><seg>goal for us today</seg></su><AU NUM="4"/>')
        bundle = verify_and_split(doc, minimal_style)
        (au,) = [ev for ev in bundle.timeline if isinstance(ev, FacsEvent)]
        assert au.duration_ms > 0

    def test_events_lie_within_total_duration_on_corpus(self, minimal_style):
        rng = Random(44)
        checked = 0
        for _ in range(120):
            doc = random_document(rng)
            if not strip_text(doc).split():
                continue
            bundle = verify_and_split(merge_tags(doc), minimal_style)
            for ev in bundle.timeline:
                assert -1e-9 <= ev.onset_ms <= bundle.total_duration_ms + 1e-9
                assert ev.onset_ms + ev.duration_ms <= bundle.total_duration_ms + 1e-6
            checked += 1
        assert checked > 60

    def test_summed_au_deltas_clamp_to_one(self, minimal_style):
        doc = parse_seeml('<AU LEVEL="+0.8" NUM="12">so <AU LEVEL="+0.8" NUM="12">good</AU></AU>')
        bundle = verify_and_split(merge_tags(doc), minimal_style)
        rows = [line.split("\t") for line in format_face_timeline(bundle).splitlines()[1:]]
        assert [row[3] for row in rows if row[1] == "AU"] == ["1.000"]

    def test_negative_level_clamps_to_zero(self, minimal_style):
        for text in ('<AU LEVEL="-0.5" NUM="12">good</AU>', '<EXPR LEVEL="-0.5" NAME="smile">good</EXPR>'):
            bundle = verify_and_split(parse_seeml(text), minimal_style)
            facs = [ev for ev in bundle.timeline if isinstance(ev, FacsEvent)]
            assert facs and all(ev.intensity == 0.0 for ev in facs)
            assert "-0.500" not in format_face_timeline(bundle)

    def test_facs_rows_in_unit_range_and_sorted_on_corpus(self, minimal_style):
        # stacks of signed facial levels around random documents push merged sums past [0,1]
        rng = Random(47)
        levels = ["+0.8", "-0.5", "+0.3", "0.6", "1.0"]
        checked = 0
        for _ in range(120):
            node = document(random_document(rng).children)
            for _ in range(rng.randrange(1, 4)):
                if rng.random() < 0.5:
                    attrs = {"NUM": str(rng.choice((4, 12))), "LEVEL": rng.choice(levels)}
                    node = document([element("AU", attrs, node.children)])
                else:
                    attrs = {"NAME": rng.choice(("smile", "fear")), "LEVEL": rng.choice(levels)}
                    node = document([element("EXPR", attrs, node.children)])
            if not strip_text(node).split():
                continue
            bundle = verify_and_split(merge_tags(node), minimal_style)
            rows = [line.split("\t") for line in format_face_timeline(bundle).splitlines()[1:]]
            onsets = [int(row[0]) for row in rows]
            assert onsets == sorted(onsets)
            assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)
            checked += 1
        assert checked > 60

    def test_speech_script_always_free_of_facial_tags(self, minimal_style):
        rng = Random(46)
        for _ in range(80):
            doc = random_document(rng)
            if not strip_text(doc).split():
                continue
            bundle = verify_and_split(merge_tags(doc), minimal_style)
            assert "<EXPR" not in bundle.speech_script
            assert "<AU " not in bundle.speech_script and "<AU>" not in bundle.speech_script
            parse_seeml(bundle.speech_script)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_verifier_property(self, minimal_style, seed):
        rng = Random(seed)
        doc = random_document(rng)
        # a template the loader takes speaks a word of its own, and names only
        # aural events in the style, as every random document does
        assume(strip_text(doc).split())
        if rng.random() < 0.5:
            directives = random_directives(rng, 8)
            doc = apply_directives(doc, directives)
        doc = merge_tags(doc)
        assert verify_and_split(doc, minimal_style) == oracle.verify_and_split(doc, minimal_style)


class TestLipSync:
    def test_ball_letter_class_scan(self):
        # hand scan: b -> closure, a -> open vowel, ll -> wide (one run)
        events = lip_sync([TimedWord("ball", 0.0, 300.0)])
        assert [ev.viseme for ev in events] == ["MM", "AA", "WIDE"]
        assert [ev.onset_ms for ev in events] == [0.0, 100.0, 200.0]
        assert all(ev.duration_ms == pytest.approx(100.0) for ev in events)

    def test_pass_letter_class_scan(self):
        events = lip_sync([TimedWord("pass", 0.0, 300.0)])
        assert [ev.viseme for ev in events] == ["MM", "AA", "WIDE"]

    def test_empty_word_list(self):
        assert lip_sync([]) == []

    def test_viseme_style_overrides(self):
        events = lip_sync([TimedWord("go", 0.0, 200.0)], {**DEFAULT_VISEMES, "o": "OH"})
        assert [ev.viseme for ev in events] == ["WIDE", "OH"]

    def test_rounded_and_labiodental_classes(self):
        events = lip_sync([TimedWord("wolf", 0.0, 400.0)])
        assert [ev.viseme for ev in events] == ["WW", "OW", "WIDE", "FV"]

    def test_at_most_one_viseme_per_60ms(self):
        events = lip_sync([TimedWord("absolutely", 0.0, 120.0)])
        assert len(events) <= 2

    def test_letterless_word_gets_fallback_shape(self):
        events = lip_sync([TimedWord("42", 0.0, 300.0)])
        assert [ev.viseme for ev in events] == ["WIDE"]

    def test_events_stay_within_word_span(self):
        rng = Random(90)
        vocab = ["ball", "pass", "goal", "saved", "wow", "Kirk", "offside", "1-0"]
        for _ in range(50):
            words = []
            cursor = 0.0
            for _ in range(rng.randrange(1, 6)):
                dur = rng.uniform(80, 500)
                words.append(TimedWord(rng.choice(vocab), cursor, dur))
                cursor += dur
            for word, events in zip(words, (lip_sync([w]) for w in words)):
                assert len(events) >= 1
                for ev in events:
                    assert ev.onset_ms >= word.onset_ms - 1e-9
                    assert ev.onset_ms + ev.duration_ms <= word.onset_ms + word.duration_ms + 1e-6

    def test_letterless_words_keep_their_own_class_runs(self):
        assert [ev.viseme for ev in lip_sync([TimedWord("1-0!", 0.0, 300.0)])] == ["WIDE"]
        assert [ev.viseme for ev in lip_sync([TimedWord("MoB", 0.0, 300.0)])] == ["MM", "OW", "MM"]

    def test_each_distinct_word_is_scanned_once(self):
        _mouth_runs.cache_clear()
        lip_sync([
            TimedWord("goal", 0.0, 300.0),
            TimedWord("Goal", 300.0, 300.0),
            TimedWord("goal", 600.0, 90.0),
        ])
        info = _mouth_runs.cache_info()
        assert (info.misses, info.hits) == (2, 1) and info.maxsize is not None

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.text(alphabet=".,!?-'\"()", min_size=1, max_size=4),  # punctuation only
                    st.text(alphabet="aAbBeEfFiImMoOpPuUvVwWxXyYzZ", min_size=1, max_size=8),
                    st.text(alphabet="0123456789-:", min_size=1, max_size=5),
                    st.text(alphabet="abefimopuvwlrst", min_size=20, max_size=60),  # cut by the cap
                    st.text(min_size=1, max_size=6),
                ),
                st.floats(min_value=1.0, max_value=2000.0),
            ),
            max_size=8,
        ),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_character_scan_property(self, tokens, styled):
        visemes = {**DEFAULT_VISEMES, "o": "OH", "wide": "EE"} if styled else DEFAULT_VISEMES
        words, cursor = [], 0.0
        for token, duration in tokens:
            words.append(TimedWord(token, cursor, duration))
            cursor += duration
        expected = oracle.lip_sync(words, visemes)
        assert lip_sync(words, visemes) == expected
        assert lip_sync(words, visemes) == expected  # again, from the memo
        for word in words:
            assert len(lip_sync([word])) <= max(1, int(word.duration_ms / MIN_VISEME_MS))
