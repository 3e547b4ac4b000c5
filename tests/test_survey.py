"""scripts/survey_corpus.py on files it cannot survey: the sweep goes on."""

from __future__ import annotations

import shutil
from pathlib import Path

from test_scripts import load_script

NODE = Path(__file__).resolve().parent.parent / "rings" / "node.ring"


def test_unreadable_files_and_budget_errors_go_to_stderr(tmp_path, capsys):
    (tmp_path / "broken.ring").write_text("varz x\n", encoding="utf-8")
    (tmp_path / "inhomogeneous.ring").write_text(
        "vars: x\nideal: x^2 - x\n", encoding="utf-8")
    shutil.copy(NODE, tmp_path)
    survey = load_script("survey_corpus")
    assert survey.main([str(tmp_path), "--max-steps", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "== node.ring: Q[x=1, y=1]/(x*y)\n\n"
    assert "== broken.ring: skipped (line 1:" in captured.err
    assert "== inhomogeneous.ring: skipped (line 2:" in captured.err
    assert "error: step budget of 3 exceeded" in captured.err


def test_empty_directory_exits_one(tmp_path, capsys):
    assert load_script("survey_corpus").main([str(tmp_path)]) == 1
    assert "no .ring files under" in capsys.readouterr().err
