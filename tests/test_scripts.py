"""Smoke tests of the scripts under scripts/: each runs on a small range and
prints the structural fact it exists to show."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, argv: list[str], monkeypatch, capsys) -> str:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name] + argv)
    module.main()
    return capsys.readouterr().out


def test_value_survey_differences_vanish(monkeypatch, capsys):
    out = run_script("value_survey", ["--max-n", "2", "--max-m", "3"], monkeypatch, capsys)
    assert "difference order 3: all zero" in out


def test_complex_census_top_rank(monkeypatch, capsys):
    out = run_script("complex_census", ["--max-n", "2", "--max-genus", "2"], monkeypatch, capsys)
    assert "H_2=Z^6; predicted top rank 6" in out
