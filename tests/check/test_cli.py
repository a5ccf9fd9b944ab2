"""CLI behaviour of ``python -m repro.check``: exit codes, JSON output,
and the smoke guarantee that the shipped tree is clean."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.check.cli import main
from repro.check.findings import JSON_SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

VIOLATION_SNIPPET = textwrap.dedent(
    """\
    __all__ = ["make_fill"]

    def make_fill(w, h):
        try:
            return Rect(0, 0, w / 2, 1.5)
        except:
            pass

    def helper(cache={}):
        return cache
    """
)


@pytest.fixture
def violation_file(tmp_path):
    # path fragment geometry/ puts the fixture in REP001 scope
    pkg = tmp_path / "geometry"
    pkg.mkdir()
    target = pkg / "bad_fill.py"
    target.write_text(VIOLATION_SNIPPET)
    return target


def run_cli(args):
    """Run the CLI in-process, capturing (exit_code, stdout)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_seeded_violation_file_exits_nonzero(violation_file):
    code, out = run_cli([str(violation_file)])
    assert code == 1
    # the snippet trips the dbu, exception-hygiene, mutable-default
    # and export-consistency rules
    for expected in ("REP001", "REP003", "REP004", "REP006"):
        assert expected in out


def test_json_output_schema(violation_file):
    code, out = run_cli([str(violation_file), "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["version"] == JSON_SCHEMA_VERSION
    assert doc["checked_files"] == 1
    assert doc["counts"]["total"] == len(doc["findings"]) > 0
    assert doc["counts"]["error"] + doc["counts"]["warning"] == doc["counts"]["total"]
    by_code = doc["counts"]["by_code"]
    assert sum(by_code.values()) == doc["counts"]["total"]
    f = doc["findings"][0]
    assert set(f) == {"code", "message", "path", "line", "col", "severity"}
    # stable ordering: findings sorted by (path, line, col, code)
    keys = [(f["path"], f["line"], f["col"], f["code"]) for f in doc["findings"]]
    assert keys == sorted(keys)


def test_select_restricts_rules(violation_file):
    code, out = run_cli([str(violation_file), "--select", "REP003"])
    assert code == 1
    assert "REP003" in out and "REP001" not in out


def test_ignore_skips_rules(violation_file):
    code, out = run_cli(
        [str(violation_file), "--ignore", "REP001,REP003,REP004,REP006"]
    )
    assert code == 0


def test_unknown_rule_is_usage_error(violation_file):
    code, _ = run_cli([str(violation_file), "--select", "REP999"])
    assert code == 2


def test_empty_path_is_usage_error(tmp_path):
    code, _ = run_cli([str(tmp_path)])
    assert code == 2


def test_list_rules():
    code, out = run_cli(["--list-rules"])
    assert code == 0
    for rule in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006"):
        assert rule in out


def test_clean_file_exits_zero(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text('__all__ = ["f"]\n\n\ndef f(x):\n    return x + 1\n')
    code, out = run_cli([str(clean)])
    assert code == 0
    assert "clean" in out


def test_shipped_tree_is_clean_smoke():
    """The CI gate in miniature: ``python -m repro.check src/`` exits 0."""
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.check", str(SRC), "--format", "json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["counts"]["total"] == 0
    assert doc["checked_files"] > 50


# ----------------------------------------------------------------------
# GitHub Actions annotation format
# ----------------------------------------------------------------------


def test_github_format_emits_workflow_commands(violation_file):
    code, out = run_cli([str(violation_file), "--format", "github"])
    assert code == 1
    lines = [ln for ln in out.splitlines() if ln]
    assert lines, "github format produced no annotations"
    for line in lines:
        assert line.startswith(("::error ", "::warning "))
        assert "file=" in line and "line=" in line and "::" in line[2:]
    assert any("title=REP003" in ln for ln in lines)
    # annotations point at the real file so GitHub can anchor them
    assert any(str(violation_file) in ln.replace("%3A", ":") for ln in lines)


def test_github_format_clean_tree_prints_nothing(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text('__all__ = ["f"]\n\n\ndef f(x):\n    return x + 1\n')
    code, out = run_cli([str(clean), "--format", "github"])
    assert code == 0
    assert out.strip() == ""


def test_github_format_escapes_newlines():
    from repro.check import Finding, Severity, render_github

    f = Finding("REP001", "line one\nline two", "a.py", 3, 0, Severity.ERROR)
    out = render_github([f])
    assert "\n" not in out
    assert "%0A" in out


# ----------------------------------------------------------------------
# Suppression accounting
# ----------------------------------------------------------------------


def test_suppressed_counts_in_text_output(tmp_path):
    target = tmp_path / "m.py"
    target.write_text(
        '__all__ = ["f"]\n\n\ndef f(a=[]):  # repro: noqa[REP003]\n    return a\n'
    )
    code, out = run_cli([str(target)])
    assert code == 0
    assert "1 finding(s) suppressed by noqa" in out


def test_suppressed_counts_in_json_output(tmp_path):
    target = tmp_path / "m.py"
    target.write_text(
        '__all__ = ["f"]\n\n\ndef f(a=[]):  # repro: noqa[REP003]\n    return a\n'
    )
    code, out = run_cli([str(target), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"]["suppressed"] == 1
    assert doc["counts"]["suppressed_by_code"] == {"REP003": 1}


def test_suppressed_statistics_listing(tmp_path):
    target = tmp_path / "m.py"
    target.write_text(
        '__all__ = ["f"]\n\n\ndef f(a=[]):  # repro: noqa[REP003]\n    return a\n'
    )
    code, out = run_cli([str(target), "--statistics"])
    assert code == 0
    assert "REP003: 1 suppressed" in out


# ----------------------------------------------------------------------
# Runner edge paths
# ----------------------------------------------------------------------


def test_multi_rule_noqa_suppresses_only_listed(tmp_path):
    from repro.check import analyze_source

    # one line tripping two rules: REP003 (mutable default) and REP001
    # (float literal reaching a coordinate); a multi-code directive on
    # that line must suppress both, and nothing else
    source = textwrap.dedent(
        """\
        __all__ = ["f", "g"]


        def f(a=[]): return Rect(0, 0, 10.5, 2)  # repro: noqa[REP001,REP003]


        def g():
            try:
                return 1
            except:
                pass
        """
    )
    result = analyze_source(source, path="src/repro/geometry/m.py")
    assert all(f.code not in ("REP001", "REP003") for f in result.findings)
    # REP004 is on a different line and stays
    assert [f.code for f in result.findings] == ["REP004"]
    assert result.suppressed == 2
    assert result.suppressed_by_code == {"REP001": 1, "REP003": 1}


def test_rep000_syntax_error_location(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n    pass\n")
    code, out = run_cli([str(target), "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert [f["code"] for f in doc["findings"]] == ["REP000"]
    finding = doc["findings"][0]
    assert finding["path"] == str(target)
    assert finding["line"] == 1
    assert finding["severity"] == "error"
    assert "syntax error" in finding["message"]


def test_unreadable_file_reported_with_exit_one(tmp_path):
    # a dangling symlink named *.py is discovered but cannot be read
    # (permission traps don't work under root, which ignores modes)
    trap = tmp_path / "trap.py"
    trap.symlink_to(tmp_path / "does-not-exist")
    (tmp_path / "ok.py").write_text('__all__ = ["g"]\n\n\ndef g():\n    return 1\n')
    code, out = run_cli([str(trap), str(tmp_path / "ok.py"), "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["checked_files"] == 2
    assert [f["code"] for f in doc["findings"]] == ["REP000"]
    assert "cannot read" in doc["findings"][0]["message"]


def test_undecodable_file_reported(tmp_path):
    target = tmp_path / "binary.py"
    target.write_bytes(b"\xff\xfe\x00bad bytes\x00")
    code, out = run_cli([str(target)])
    assert code == 1
    assert "REP000" in out
