"""Smoke tests: every example script must run end-to-end.

Examples are the public face of the library; a refactor that breaks one
should fail CI, not a reader.  Each test imports the script as a module
and runs its ``main()`` inside a temp directory (some write files).
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.py")
)


def run_example(path: Path, monkeypatch, tmp_path, argv=None):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(path)] + (argv or []))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


def test_examples_discovered():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "coupling_aware_fill",
        "contest_run",
        "gdsii_workflow",
        "signoff_audit",
        "eco_refill",
    } <= names


def test_quickstart(monkeypatch, tmp_path, capsys):
    run_example(
        Path(__file__).parent.parent / "examples" / "quickstart.py",
        monkeypatch,
        tmp_path,
    )
    out = capsys.readouterr().out
    assert "after fill" in out
    assert "DRC violations: 0" in out


def test_coupling_aware_fill(monkeypatch, tmp_path, capsys):
    run_example(
        Path(__file__).parent.parent / "examples" / "coupling_aware_fill.py",
        monkeypatch,
        tmp_path,
    )
    out = capsys.readouterr().out
    assert "overlay-aware" in out
    assert re.search(r"overlay-aware fill couples \d+% less metal to the bus", out)


def test_gdsii_workflow(monkeypatch, tmp_path, capsys):
    run_example(
        Path(__file__).parent.parent / "examples" / "gdsii_workflow.py",
        monkeypatch,
        tmp_path,
    )
    out = capsys.readouterr().out
    assert "round-trip verified" in out
    assert (tmp_path / "demo_out.gds").exists()


def test_signoff_audit(monkeypatch, tmp_path, capsys):
    run_example(
        Path(__file__).parent.parent / "examples" / "signoff_audit.py",
        monkeypatch,
        tmp_path,
    )
    out = capsys.readouterr().out
    assert "0 litho" in out
    assert "0 DRC violations" in out


def test_contest_run(monkeypatch, tmp_path, capsys):
    run_example(
        Path(__file__).parent.parent / "examples" / "contest_run.py",
        monkeypatch,
        tmp_path,
        argv=["s"],
    )
    out = capsys.readouterr().out
    assert "ours" in out
    assert "vs best baseline" in out


def test_eco_refill(monkeypatch, tmp_path, capsys):
    run_example(
        Path(__file__).parent.parent / "examples" / "eco_refill.py",
        monkeypatch,
        tmp_path,
    )
    out = capsys.readouterr().out
    assert "ECO:" in out
    assert "DRC violations: 0" in out
