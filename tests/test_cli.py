from __future__ import annotations

import filecmp
import re

import pytest
from conftest import DEMO, GOLDEN, MINIMAL_STYLE

from byrne import pipeline
from byrne.cli import main


def _demo_args(out, style=DEMO / "announcer.style") -> list[str]:
    return [
        "--log", str(DEMO / "game.log"),
        "--character", str(DEMO / "announcer.profile"),
        "--style", str(style),
        "--out", str(out),
    ]


def test_demo_run_exits_0_and_writes_the_goldens(tmp_path):
    out = tmp_path / "demo"
    assert main(_demo_args(out)) == 0
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    _, mismatch, errors = filecmp.cmpfiles(GOLDEN, out, names, shallow=False)
    assert mismatch == [] and errors == []


def test_trace_echoes_every_event_of_the_commentary_trace(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main([*_demo_args(out), "--trace"]) == 0
    trace = (out / "commentary.trace").read_text(encoding="utf-8").splitlines()
    assert capsys.readouterr().out.splitlines() == trace[1:]  # all but the header


def test_unknown_speech_key_exits_1_with_load_error(tmp_path, capsys):
    style = tmp_path / "extra.style"
    style.write_text(MINIMAL_STYLE + "base_pitch_hz = 120\n", encoding="utf-8")
    assert main(_demo_args(tmp_path / "o", style)) == 1
    err = capsys.readouterr().err
    assert err.startswith("commentate: load error:") and "base_pitch_hz" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_rule_feeding_on_its_own_views_exits_1_at_load(tmp_path, capsys, monkeypatch):
    # such a rule nests the pool one level deeper on every tick, and the replay would not end
    monkeypatch.setattr(pipeline, "step", None)  # a replay that started would fail, not hang
    profile = tmp_path / "feeding.profile"
    rule = "(emotion-rule (pre ?x) (add (type: interest intensity: 5 cause: ?x decay: constant)))\n"
    profile.write_text((DEMO / "announcer.profile").read_text(encoding="utf-8") + rule, encoding="utf-8")
    args = _demo_args(tmp_path / "o")
    args[args.index("--character") + 1] = str(profile)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("commentate: load error:") and "feeds on its own additions through ?x:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        # ?1p would bind and then be spoken as written: no substitution reads it as a variable
        (lambda text: re.sub(r"\?p\b", "?1p", text), "line 28: ?1p is not a variable"),
        (lambda text: text.replace('(b1 "Viktor")', '(b1 "Viktor") (a1 "Alan")'), "line 7: duplicate name 'a1'"),
        (lambda text: text + "(params lambda: 2)\n", "line 132: duplicate param 'lambda'"),
        (lambda text: text.replace('(b1 "Viktor")', "(b1 Viktor)"), 'line 7: expected (<id> "<display>"), got (b1 Viktor)'),
        # a blank name is spoken as nothing, and under facial markup leaves no word to time it
        (lambda text: text.replace('(b1 "Viktor")', '(b1 " ")'), "line 7: display name for 'b1' is blank"),
    ],
    ids=["variable-outside-the-grammar", "repeated-name", "second-lambda", "unquoted-name", "blank-name"],
)
def test_demo_profile_entry_the_replay_would_misread_exits_1_naming_its_line(tmp_path, capsys, edit, message):
    profile = tmp_path / "edited.profile"
    profile.write_text(edit((DEMO / "announcer.profile").read_text(encoding="utf-8")), encoding="utf-8")
    args = _demo_args(tmp_path / "o")
    args[args.index("--character") + 1] = str(profile)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"commentate: load error: {profile}: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tick", ["abc", "1_0", "١", " 2", "nan", "0", "?1p"])
def test_tick_seconds_not_a_positive_decimal_literal_exits_1(tmp_path, capsys, tick):
    # the flag is read as the log reads numbers
    assert main([*_demo_args(tmp_path / "o"), "--tick-seconds", tick]) == 1
    err = capsys.readouterr().err
    assert err.startswith("commentate: load error:") and f"--tick-seconds {tick}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "drop, extra, message",
    [
        ((), ["--seed", "abc"], "unrecognized arguments: --seed abc"),
        (("--log",), [], "the following arguments are required: --log"),
        ((), ["--seed", "1"], "unrecognized arguments: --seed 1"),  # the trace header's seed is fixed
    ],
)
def test_usage_error_exits_1(tmp_path, capsys, drop, extra, message):
    # bad arguments are bad input, as an input that fails to load is; 2 is for runtime errors
    args = _demo_args(tmp_path / "o")
    for flag in drop:
        del args[args.index(flag) : args.index(flag) + 2]
    with pytest.raises(SystemExit) as exited:
        main([*args, *extra])
    assert exited.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: commentate") and f"commentate: error: {message}\n" in err
    assert not (tmp_path / "o").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: commentate")
