from __future__ import annotations

import re
from random import Random

import hypothesis.strategies as st
import pytest
from conftest import DEMO, MINIMAL_STYLE
from hypothesis import given, settings

from byrne.patterns import keyed
from byrne.profile import ProfileError, check_against_style, load_profile
from byrne.sexpr import read_one, read_top_level, to_text
from byrne.style import StyleError, load_style
from corpus import random_layout, random_profile_forms


class TestLoadStyle:
    def test_minimal_style_is_valid(self):
        style = load_style(MINIMAL_STYLE)
        assert style.words_per_minute == 180.0
        assert set(style.expressions) == {
            "smile", "sadness", "fear", "anger", "disgust", "surprise",
        }

    def test_expression_line_parses_weighted_action_units(self):
        style = load_style(MINIMAL_STYLE)
        assert style.expressions["smile"] == ((6, 0.6), (12, 0.9))

    def test_missing_expression_named(self):
        broken = MINIMAL_STYLE.replace("disgust = AU9:0.8 AU10:0.4\n", "")
        with pytest.raises(StyleError, match="disgust"):
            load_style(broken)

    def test_expression_outside_the_six_named_with_its_line(self):
        # the markup admits no other expression name, so such an entry could never be read
        with pytest.raises(StyleError, match=r"line 9: unknown key 'smirk' in \[expressions\]"):
            load_style(MINIMAL_STYLE.replace("\n\n[aural]", "\nsmirk = AU1:0.5\n\n[aural]"))

    def test_missing_sections(self):
        with pytest.raises(StyleError, match=r"\[expressions\]"):
            load_style("[speech]\nwords_per_minute = 180\n")
        with pytest.raises(StyleError, match=r"\[speech\]"):
            load_style(MINIMAL_STYLE.split("[speech]")[0])

    def test_words_per_minute_must_be_positive(self):
        # a rate below one word a minute could time a timeline past the largest float
        for bad in ("0", "-10", "fast", "nan", "inf", "1_80", "١٨٠", "0.5", "1e-320"):
            broken = MINIMAL_STYLE.replace("words_per_minute = 180", f"words_per_minute = {bad}")
            with pytest.raises(StyleError, match=f"words_per_minute must be a number .*, got {bad}$"):
                load_style(broken)

    def test_break_ms_must_be_a_number_of_at_most_a_minute(self):
        for bad in ("-1", "fast", "nan", "inf", "1_80", "١٨٠", "60001", "60000.5"):
            with pytest.raises(StyleError, match=rf"break_ms must be a number in \[0,60000\], got {bad}$"):
                load_style(MINIMAL_STYLE + f"break_ms = {bad}\n")
        assert load_style(MINIMAL_STYLE + "break_ms = 6e4\n").break_ms == 60000

    def test_missing_words_per_minute(self):
        broken = MINIMAL_STYLE.replace("words_per_minute = 180", "pace = brisk")
        with pytest.raises(StyleError, match="words_per_minute"):
            load_style(broken)
        broken = MINIMAL_STYLE.replace("words_per_minute = 180", "break_ms = 150")
        with pytest.raises(StyleError, match="missing words_per_minute"):
            load_style(broken)

    def test_bad_action_unit_terms(self):
        for bad, error in (
            ("AU47:0.5", "AU47 outside 1-46"),
            ("AU0:0.5", "AU0 outside 1-46"),
            ("AU6:1.5", "weight 1.5 not a number in"),
            ("six", "expected AU<k>:<w> terms, got 'six'"),
            ("AU12:1.2.3", "weight 1.2.3 not a number in"),
            ("AU12:nan", "weight nan not a number in"),
            ("AU١٢:0.9", "expected AU<k>:<w> terms, got 'AU١٢:0.9'"),
        ):
            broken = MINIMAL_STYLE.replace("smile = AU6:0.6 AU12:0.9", f"smile = {bad}")
            with pytest.raises(StyleError, match=rf"expression 'smile': {re.escape(error)}"):
                load_style(broken)

    def test_unknown_viseme_class_rejected(self):
        with pytest.raises(StyleError, match="zz"):
            load_style(MINIMAL_STYLE + "\n[visemes]\nzz = QQ\n")

    def test_aural_passes_through_and_extra_speech_keys_fail(self):
        style = load_style(MINIMAL_STYLE)
        assert style.aural["hiccup"] == "sounds/hiccup.wav"
        # no output reads any other [speech] key, so the load names it and fails
        with pytest.raises(StyleError, match=r"line 16: unknown key 'base_pitch_hz' in \[speech\]"):
            load_style(MINIMAL_STYLE + "base_pitch_hz = 120\n")

    def test_break_ms_configurable(self):
        style = load_style(MINIMAL_STYLE + "\nbreak_ms = 150\n")
        assert style.break_ms == 150.0

    def test_unknown_section_named_with_its_line(self):
        with pytest.raises(StyleError, match=r"line 17: unknown section \[speach\]"):
            load_style(MINIMAL_STYLE + "\n[speach]\nbreak_ms = 150\n")

    def test_repeated_key_named_with_its_line(self):
        with pytest.raises(StyleError, match=r"line 16: repeated key 'words_per_minute' in \[speech\]"):
            load_style(MINIMAL_STYLE + "words_per_minute = 240\n")
        with pytest.raises(StyleError, match=r"line 4: repeated key 'smile' in \[expressions\]"):
            load_style(MINIMAL_STYLE.replace("smile = AU6:0.6 AU12:0.9\n", "smile = AU6:0.6\n" * 2))
        with pytest.raises(StyleError, match=r"line 18: repeated key 'cheer' in \[aural\]"):
            load_style(MINIMAL_STYLE + "\n[aural]\ncheer = sounds/other.wav\n")

    @pytest.mark.parametrize(
        "line, line_no, section",
        [
            ("smile = AU6:0.6 AU12:0.9", 3, "expressions"),
            ("cheer = sounds/cheer.wav", 12, "aural"),
            ("words_per_minute = 180", 15, "speech"),
            ("a = AA", 18, "visemes"),
        ],
    )
    def test_empty_value_named_with_its_line(self, line, line_no, section):
        # an empty [aural] value would fail the replay as an AUDIO without a SRC
        key = line.split()[0]
        text = (MINIMAL_STYLE + "\n[visemes]\na = AA\n").replace(line, f"{key} =")
        with pytest.raises(StyleError, match=rf"line {line_no}: empty value for '{key}' in \[{section}\]"):
            load_style(text)

    @pytest.mark.parametrize("value", ["A\tA", "A A"])
    def test_viseme_must_be_one_token(self, value):
        # a viseme is one field of a tab-separated .facs row
        with pytest.raises(StyleError, match=r"line 18: viseme 'a' must be one token"):
            load_style(MINIMAL_STYLE + f"\n[visemes]\na = {value}\n")


VALID_PROFILE = """
(static (supports team: a))
(names (a1 "Angus"))
(params lambda: 3)
(emotion-rule
  (pre (supports team: ?t) (scores team: ?t))
  (add (type: happiness intensity: 8 target: nil cause: (scores team: ?t) decay: 1/t)))
(behavior id: beam group: face
  (motivated-by happiness)
  (directives (expr smile 0.9 utterance)))
(template id: score-line
  (pre (scores team: ?t))
  (text "<su><seg>goal for ?t</seg></su>"))
"""


class TestLoadProfile:
    def test_single_static(self):
        profile = load_profile('(static (supports team: a))')
        assert profile.statics == (keyed(read_one("(supports team: a)")),)

    def test_empty_profile_is_a_silent_commentator(self):
        profile = load_profile("")
        assert profile.statics == () and profile.templates == ()

    def test_valid_profile_loads(self):
        profile = load_profile(VALID_PROFILE)
        assert profile.lambda_use_penalty == 3.0
        assert profile.names == {"a1": "Angus"}
        assert [b.id for b in profile.behaviors] == ["beam"]

    def test_demo_profile_depends_on_its_forms_alone(self, demo_profile):
        text = (DEMO / "announcer.profile").read_text(encoding="utf-8")
        assert load_profile(_canonical(text)) == demo_profile

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_generated_profile_depends_on_its_forms_alone(self, seed):
        rng = Random(seed)
        text = "\n\n# a comment\n".join(random_layout(rng, f) for f in random_profile_forms(rng))
        profile = load_profile(text)
        assert profile.behaviors and profile.templates and profile.emotion_rules
        assert load_profile(_canonical(text)) == profile

    def test_demo_profile_has_no_diagnostics(self):
        text = (DEMO / "announcer.profile").read_text(encoding="utf-8")
        load_profile(text)  # raises on any diagnostic


def _canonical(text: str) -> str:
    """One canonical line per top-level form: no comments, no layout."""
    return "".join(to_text(form) + "\n" for form, _ in read_top_level(text))


def _expect_diagnostic(text: str, fragment: str) -> None:
    with pytest.raises(ProfileError) as err:
        load_profile(text)
    assert any(fragment in d for d in err.value.diagnostics), err.value.diagnostics


_MARKUP_PIECES = st.sampled_from([
    "<su>", "</su>", "<seg>", "</seg>", '<RATE SPEED="?s">', "</RATE>", '<AURAL NAME="?s"/>',
    '<AU NUM="99">', '<EXPR NAME="?s">', "</EXPR>", "<BREAK/>", "&amp;", "&", "?s", "?x", '"',
    "\\", "<", ">", "goal ",
])


class TestProfileValidation:
    def test_behavior_cycle_named(self):
        _expect_diagnostic(
            VALID_PROFILE
            + """
(behavior id: spin group: g (motivated-by fear) (children whirl))
(behavior id: whirl group: g (children spin))
""",
            "cycle",
        )

    def test_dangling_child_named(self):
        _expect_diagnostic(
            VALID_PROFILE + "(behavior id: solo group: g (motivated-by fear) (children ghost))",
            "ghost",
        )

    def test_unbound_rule_variable_named(self):
        _expect_diagnostic(
            """
(emotion-rule
  (pre (scores team: ?t))
  (add (type: happiness intensity: 8 target: ?other cause: (scores team: ?t) decay: 1/t)))
""",
            "?other",
        )

    def test_unbound_template_variable_named(self):
        _expect_diagnostic(
            '(template id: t1 (pre (corner team: ?t)) (text "<su><seg>?player takes it</seg></su>"))',
            "?player",
        )

    def test_unknown_expression_name_named(self):
        _expect_diagnostic(
            "(behavior id: smirker group: face (motivated-by happiness)"
            " (directives (expr smirk 0.5 utterance)))",
            "smirk",
        )

    def test_duplicate_behavior_id_named(self):
        _expect_diagnostic(
            VALID_PROFILE + "(behavior id: beam group: voice (motivated-by fear)"
            " (directives (au 4 0.5 utterance)))",
            "duplicate behavior id 'beam'",
        )

    def test_duplicate_template_id_named(self):
        _expect_diagnostic(
            VALID_PROFILE
            + '(template id: score-line (pre (corner team: ?t)) (text "<su><seg>corner ?t</seg></su>"))',
            "duplicate template id 'score-line'",
        )

    def test_children_xor_directives(self):
        _expect_diagnostic(
            "(behavior id: both group: g (motivated-by fear)"
            " (children x) (directives (au 4 0.5 utterance)))",
            "xor",
        )
        _expect_diagnostic("(behavior id: neither group: g (motivated-by fear))", "xor")

    def test_template_without_phrase_markers(self):
        _expect_diagnostic(
            '(template id: flat (pre (corner team: ?t)) (text "<su>corner for ?t</su>"))',
            "seg",
        )

    def test_template_body_must_parse(self):
        _expect_diagnostic(
            '(template id: broken (pre (corner team: ?t)) (text "<su><seg>?t</wrong></su>"))',
            "broken",
        )

    def test_body_that_fails_to_parse_still_has_its_variables_checked(self):
        with pytest.raises(ProfileError) as err:
            load_profile(
                '(template id: broken (pre (corner team: ?t)) (text "<su><seg>?who</wrong></su>"))\n'
                '(template id: broken (pre (corner team: ?t)) (text "<su><seg>?t</seg></su>"))\n'
            )
        assert err.value.diagnostics == [
            "line 1: template 'broken' body: closing tag </wrong> does not match <seg>",
            "line 1: template 'broken' uses unbound variable ?who",
            "line 2: duplicate template id 'broken'",
        ]

    @given(st.one_of(st.text(), st.lists(_MARKUP_PIECES).map("".join)))
    @settings(max_examples=200, deadline=None)
    def test_any_template_text_loads_or_fails_to_load(self, text):
        try:
            load_profile(f"(template id: t (pre (chant words: ?s)) (text {to_text(text)}))")
        except ProfileError:
            pass

    def test_bad_emotion_type_and_intensity(self):
        _expect_diagnostic(
            "(emotion-rule (pre (x y: 1))"
            " (add (type: smug intensity: 5 target: nil cause: (x y: 1) decay: 1/t)))",
            "smug",
        )
        _expect_diagnostic(
            "(emotion-rule (pre (x y: 1))"
            " (add (type: fear intensity: 11 target: nil cause: (x y: 1) decay: 1/t)))",
            "intensity",
        )

    def test_bad_decay_form(self):
        _expect_diagnostic(
            "(emotion-rule (pre (x y: 1))"
            " (add (type: fear intensity: 5 target: nil cause: (x y: 1) decay: t/2)))",
            "decay",
        )

    def test_au_id_out_of_range(self):
        _expect_diagnostic(
            "(behavior id: b group: g (motivated-by fear) (directives (au 47 0.5 utterance)))",
            "1-46",
        )

    @pytest.mark.parametrize(
        "directive, fragment",
        [
            ("(expr smile -0.5 utterance)", "expr: level must be a number in [0,1], got -0.5"),
            ("(au 4 1.5 utterance)", "au: level must be a number in [0,1], got 1.5"),
            ('(au "7" 0.5 utterance)', 'action unit id must be an integer, got "7"'),
            ("(au 4.0 0.5 utterance)", "action unit id must be an integer, got 4.0"),
        ],
    )
    def test_directive_rejected_naming_its_behavior(self, directive, fragment):
        with pytest.raises(ProfileError) as err:
            load_profile(f"(behavior id: odd group: g (motivated-by fear)\n (directives {directive}))")
        assert err.value.diagnostics == [f"line 1: behavior 'odd': {fragment}"]

    def test_static_with_variables_rejected(self):
        _expect_diagnostic("(static (supports team: ?t))", "variables")

    def test_syntax_error_carries_line(self):
        _expect_diagnostic("(static (supports team: a))\n(broken", "line 2")

    def test_several_diagnostics_reported_together(self):
        text = (
            "(behavior id: b group: g (motivated-by fear) (children ghost))\n"
            '(template id: t (pre (x y: ?q)) (text "<su><seg>?zz</seg></su>"))\n'
        )
        with pytest.raises(ProfileError) as err:
            load_profile(text)
        assert len(err.value.diagnostics) >= 2

    def test_unknown_rule_subform_named(self):
        _expect_diagnostic(
            "(emotion-rule (pre (x y: 1))"
            " (ad (type: fear intensity: 5 target: nil cause: (x y: 1) decay: 1/t)))",
            "(ad ...)",
        )

    def test_unknown_template_key_named(self):
        _expect_diagnostic(
            '(template id: t colour: red (pre (x y: ?q)) (text "<su><seg>?q</seg></su>"))',
            "colour:",
        )

    def test_repeated_template_text_named(self):
        _expect_diagnostic(
            '(template id: t (pre (x y: ?q)) (text "<su><seg>?q</seg></su>")'
            ' (text "<su><seg>again</seg></su>"))',
            "repeated form (text ...)",
        )

    def test_repeated_speech_attribute_named(self):
        _expect_diagnostic(
            "(behavior id: hurry group: voice (motivated-by fear)"
            ' (directives (speech RATE utterance SPEED: "+5%" SPEED: "+10%")))',
            "repeated key SPEED:",
        )

    def test_speech_attribute_repeated_in_another_case_named(self):
        _expect_diagnostic(
            "(behavior id: hurry group: voice (motivated-by fear)"
            " (directives (speech RATE (point end) SPEED: 1 speed: 2)))",
            "duplicate attribute SPEED on <RATE>",
        )

    @pytest.mark.parametrize("value", ["+10", "-0.5", "10", "(a b)"])
    def test_speech_attribute_value_must_be_quoted(self, value):
        # the reader takes +10 as the number 10, which would write SPEED="10", not a delta
        with pytest.raises(ProfileError) as err:
            load_profile(
                "(behavior id: hurry group: voice (motivated-by fear)"
                f" (directives (speech RATE utterance SPEED: {value})))"
            )
        written = to_text(read_one(value))
        assert err.value.diagnostics == [
            f"line 1: behavior 'hurry': SPEED: value must be quoted, got {written}"
        ]

    def test_speech_directive_markup_checked_at_load(self):
        _expect_diagnostic(
            "(behavior id: blinker group: face (motivated-by fear)"
            " (directives (speech BLINK utterance)))",
            "BLINK",
        )

    def test_cycle_reported_once(self):
        with pytest.raises(ProfileError) as err:
            load_profile(
                "(behavior id: spin group: g (motivated-by fear) (children whirl))\n"
                "(behavior id: whirl group: g (children spin))\n"
                "(behavior id: top group: h (motivated-by anger) (children spin))\n"
            )
        assert err.value.diagnostics == ["behavior cycle involving 'spin', 'whirl'"]

    def test_dangling_child_reported_once(self):
        with pytest.raises(ProfileError) as err:
            load_profile(
                "(behavior id: top group: g (motivated-by fear) (children mid))\n"
                "(behavior id: mid group: g (children ghost))\n"
            )
        assert err.value.diagnostics == ["behavior 'mid' expands to unknown child 'ghost'"]


class TestCheckAgainstStyle:
    def test_demo_profile_fits_demo_style(self, demo_profile, demo_style):
        check_against_style(demo_profile, demo_style)

    def test_every_missing_name_reported_with_its_user(self, minimal_style):
        profile = load_profile(
            "(behavior id: horn group: sound (motivated-by fear)"
            " (directives (aural klaxon (point end)) (speech AURAL utterance NAME: \"bell\")))\n"
            "(template id: honk (pre (move player: ?p))"
            ' (text "<su><seg>?p runs</seg><AURAL NAME=\\"hooter\\"/></su>"))\n'
        )
        with pytest.raises(ProfileError) as err:
            check_against_style(profile, minimal_style)
        assert err.value.diagnostics == [
            "behavior 'horn' uses aural event 'klaxon', which the style's [aural] section lacks",
            "behavior 'horn' uses aural event 'bell', which the style's [aural] section lacks",
            "template 'honk' uses aural event 'hooter', which the style's [aural] section lacks",
        ]

    def test_variable_name_in_a_directive_is_checked_as_written(self, minimal_style):
        # a directive's markup is never substituted, so ?x is the name the replay looks up
        profile = load_profile(
            "(behavior id: howl group: sound (motivated-by fear) (directives (aural ?x (point end))))\n"
        )
        with pytest.raises(ProfileError) as err:
            check_against_style(profile, minimal_style)
        assert err.value.diagnostics == [
            "behavior 'howl' uses aural event '?x', which the style's [aural] section lacks"
        ]

    def test_name_bound_per_utterance_left_to_the_replay(self, minimal_style):
        profile = load_profile(
            "(template id: echo (pre (noise sound: ?s))"
            ' (text "<su><seg>listen</seg><AURAL NAME=\\"?s\\"/></su>"))\n'
        )
        check_against_style(profile, minimal_style)
