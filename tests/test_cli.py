from __future__ import annotations

import filecmp

import pytest
from conftest import DEMO, GOLDEN, MINIMAL_STYLE

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


@pytest.mark.parametrize("tick", ["abc", "1_0", "١", " 2", "nan", "0"])
def test_tick_seconds_not_a_positive_decimal_literal_exits_1(tmp_path, capsys, tick):
    # the flag is read as the log reads numbers
    assert main([*_demo_args(tmp_path / "o"), "--tick-seconds", tick]) == 1
    err = capsys.readouterr().err
    assert err.startswith("commentate: load error:") and f"--tick-seconds {tick}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
