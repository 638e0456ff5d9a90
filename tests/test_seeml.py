from __future__ import annotations

import re
from random import Random

import hypothesis.strategies as st
import oracle_seeml as oracle
import pytest
from hypothesis import given, settings

from byrne.seeml import (
    DEFAULT_VISEMES,
    EVERY_PHRASE,
    UTTERANCE,
    Element,
    FacsEvent,
    SeemlDocument,
    SeemlError,
    Text,
    TimedWord,
    VerifyError,
    VisemeEvent,
    apply_directives,
    at_point,
    document,
    element,
    format_face_timeline,
    lip_sync,
    merge_tags,
    parse_seeml,
    serialize_seeml,
    strip_text,
    verify_and_split,
    word_trigger,
)
from corpus import markup, random_document

# --- parse / serialize --------------------------------------------------------


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


def random_directive(rng: Random):
    scope = rng.choice([
        UTTERANCE,
        EVERY_PHRASE,
        word_trigger(rng.choice(["goal", "ball", "KIRK", "a"])),
        at_point(rng.choice(["start", "end"])),
    ])
    roll = rng.randrange(6)
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
    return markup("PITCH", scope, RANGE=rng.choice(["+10%", "+20%"]))


class TestApplyDirectives:
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
        directives = [random_directive(rng) for _ in range(rng.randrange(1, 6))]
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


# --- merge algebra --------------------------------------------------------------


def _delta(value: str):
    m = re.match(r"^([+-](?:\d+\.?\d*|\.\d+))(%?)$", value)
    return (float(m.group(1)), m.group(2)) if m else None


def _key(el: Element):
    plain = tuple(sorted((k, v) for k, v in el.attrs if _delta(v) is None))
    deltas = tuple(sorted((k, _delta(v)[1]) for k, v in el.attrs if _delta(v) is not None))
    return (el.tag, plain, deltas)


def _has_delta(el: Element) -> bool:
    return any(_delta(v) is not None for _, v in el.attrs)


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
                if _has_delta(anc.el) or _has_delta(node.el):
                    mine = {
                        k: _delta(v) for k, v in anc.el.attrs if _delta(v) is not None
                    }
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


class TestMergeTags:
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
        directives = [random_directive(rng) for _ in range(rng.randrange(1, 8))]
        layered = apply_directives(random_document(rng), directives)
        assert merge_tags(layered) == reference_merge(layered)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_text_preserving_over_directives_property(self, seed):
        # behavior markup stacked on template markup, as a replay merges it
        rng = Random(seed)
        directives = [random_directive(rng) for _ in range(rng.randrange(1, 8))]
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

    def test_missing_aural_mapping_is_an_error(self, minimal_style):
        doc = parse_seeml('<su><seg>oh</seg></su><AURAL NAME="klaxon"/>')
        with pytest.raises(VerifyError, match="klaxon"):
            verify_and_split(doc, minimal_style)

    def test_zero_word_document_with_facial_span_is_an_error(self, minimal_style):
        doc = parse_seeml('<EXPR NAME="smile"><BREAK/></EXPR>')
        with pytest.raises(VerifyError):
            verify_and_split(doc, minimal_style)

    def test_unknown_aural_name_reported_before_missing_words(self, minimal_style):
        doc = parse_seeml('<EXPR NAME="smile"><AURAL NAME="klaxon"/></EXPR>')
        with pytest.raises(VerifyError, match="klaxon"):
            verify_and_split(doc, minimal_style)

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
            try:
                bundle = verify_and_split(merge_tags(doc), minimal_style)
            except VerifyError:
                continue
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
            try:
                bundle = verify_and_split(merge_tags(node), minimal_style)
            except VerifyError:
                continue
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
            try:
                bundle = verify_and_split(merge_tags(doc), minimal_style)
            except VerifyError:
                continue
            assert "<EXPR" not in bundle.speech_script
            assert "<AU " not in bundle.speech_script and "<AU>" not in bundle.speech_script
            parse_seeml(bundle.speech_script)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_verifier_property(self, minimal_style, seed):
        rng = Random(seed)
        doc = random_document(rng)
        if rng.random() < 0.5:
            directives = [random_directive(rng) for _ in range(rng.randrange(1, 8))]
            doc = apply_directives(doc, directives)
        doc = merge_tags(doc)
        try:
            expected = oracle.verify_and_split(doc, minimal_style)
        except VerifyError:
            with pytest.raises(VerifyError):
                verify_and_split(doc, minimal_style)
            return
        assert verify_and_split(doc, minimal_style) == expected


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
