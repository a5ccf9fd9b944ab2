"""Analysis driver: walk files, parse, run rules, apply suppressions.

Suppression syntax (line-scoped, matching the finding's line)::

    risky_line()  # repro: noqa            — suppress every rule here
    risky_line()  # repro: noqa[REP005]    — suppress listed rules only
    risky_line()  # repro: noqa[REP001,REP005]

Suppressions are deliberately loud in the source — grep for
``repro: noqa`` to audit every waived invariant.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .findings import Finding, Severity, sort_findings
from .rules import ModuleContext, Rule, select_rules

__all__ = [
    "NoqaDirectives",
    "collect_noqa",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
    "AnalysisResult",
]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[\s*(?P<codes>[A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)\s*\])?",
)

#: directories never worth descending into
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist", ".mypy_cache"}


class NoqaDirectives:
    """Per-line suppression table for one file."""

    def __init__(self) -> None:
        #: line -> None (blanket) or set of rule codes
        self._lines: Dict[int, Optional[Set[str]]] = {}

    def add(self, line: int, codes: Optional[Set[str]]) -> None:
        if codes is None:
            self._lines[line] = None  # blanket suppression wins
            return
        if line in self._lines and self._lines[line] is None:
            return  # already blanket-suppressed
        self._lines.setdefault(line, set()).update(codes)  # type: ignore[union-attr]

    def suppresses(self, finding: Finding) -> bool:
        if finding.line not in self._lines:
            return False
        codes = self._lines[finding.line]
        return codes is None or finding.code in codes

    def __len__(self) -> int:
        return len(self._lines)


def collect_noqa(source: str) -> NoqaDirectives:
    """Extract ``# repro: noqa`` directives from comment tokens.

    Tokenising (rather than regexing raw lines) keeps a ``noqa`` inside
    a string literal from acting as a directive.  Falls back to a plain
    line scan when the file cannot be tokenised.
    """
    directives = NoqaDirectives()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            _scan_comment(directives, lineno, line)
        return directives
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            _scan_comment(directives, tok.start[0], tok.string)
    return directives


def _scan_comment(directives: NoqaDirectives, lineno: int, text: str) -> None:
    m = _NOQA_RE.search(text)
    if not m:
        return
    codes = m.group("codes")
    if codes is None:
        directives.add(lineno, None)
    else:
        directives.add(lineno, {c.strip() for c in codes.split(",")})


class AnalysisResult:
    """Findings plus bookkeeping for one analysis run.

    Suppressions are counted, not dropped: ``suppressed`` and
    ``suppressed_by_code`` account for every finding waived by a
    ``# repro: noqa`` directive so waived debt stays visible in
    reports.
    """

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.checked_files: int = 0
        self.suppressed: int = 0
        self.suppressed_by_code: Dict[str, int] = {}

    def extend(self, other: "AnalysisResult") -> None:
        self.findings.extend(other.findings)
        self.checked_files += other.checked_files
        self.suppressed += other.suppressed
        for code, count in other.suppressed_by_code.items():
            self.suppressed_by_code[code] = self.suppressed_by_code.get(code, 0) + count


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisResult:
    """Analyze one module given as a string (the test-facing API)."""
    result = AnalysisResult()
    result.checked_files = 1
    active = list(rules) if rules is not None else select_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                code="REP000",
                message=f"syntax error: {exc.msg}",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                severity=Severity.ERROR,
            )
        )
        return result
    ctx = ModuleContext(path, source, tree)
    noqa = collect_noqa(source)
    for rule in active:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if noqa.suppresses(finding):
                result.suppressed += 1
                result.suppressed_by_code[finding.code] = (
                    result.suppressed_by_code.get(finding.code, 0) + 1
                )
            else:
                result.findings.append(finding)
    result.findings = sort_findings(result.findings)
    return result


def analyze_file(
    path: Union[str, Path], rules: Optional[Sequence[Rule]] = None
) -> AnalysisResult:
    """Analyze one file on disk."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        result = AnalysisResult()
        result.checked_files = 1
        result.findings.append(
            Finding(
                code="REP000",
                message=f"cannot read file: {exc}",
                path=str(p),
                line=1,
                col=0,
                severity=Severity.ERROR,
            )
        )
        return result
    return analyze_source(source, path=str(p), rules=rules)


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: Set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    out.add(sub)
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def analyze_paths(
    paths: Iterable[Union[str, Path]],
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisResult:
    """Analyze every Python file under the given paths."""
    active = list(rules) if rules is not None else select_rules()
    total = AnalysisResult()
    for p in iter_python_files(paths):
        total.extend(analyze_file(p, rules=active))
    total.findings = sort_findings(total.findings)
    return total
