"""The command-line scripts in scripts/, run in process on small inputs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import RING_FILES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """Import scripts/<name>.py as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sr_census_agrees_on_four_vertices(capsys):
    assert load_script("sr_census").main(["--vertices", "4"]) == 0
    out = capsys.readouterr().out
    assert "DISAGREE" not in out
    assert "checked 24 classes on <= 4 vertices (8 nearly regular)" in out


def test_survey_corpus_covers_every_ring_file(capsys):
    assert load_script("survey_corpus").main([str(RING_FILES[0].parent)]) == 0
    captured = capsys.readouterr()
    assert "DISAGREE" not in captured.out
    assert captured.err == ""
    for path in RING_FILES:
        assert f"== {path.name}: " in captured.out
