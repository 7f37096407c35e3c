"""reprolint: an AST-based invariant linter for the repro codebase.

The repo's correctness story rests on conventions that tests can only
sample — bit-exact cached evaluation, ``--jobs N`` byte-identical
sweeps, strict finite-JSON archives, and a serving layer full of
``threading`` state where one unguarded access is a heisenbug rather
than a test failure. This engine turns those conventions into
machine-checked invariants:

* **Rules** are small :class:`Rule` subclasses (one module each under
  :mod:`repro.analysis.rules`) that walk a parsed file and emit
  :class:`Finding` records. Rules are pure AST/source analyses — no
  imports of the linted code, so linting never executes it.
* **Suppression** is inline and auditable: a ``# repro: allow(<rule>)``
  comment on the flagged line (or the line above) silences exactly that
  rule there, and the suppression count is reported so pragmas cannot
  accumulate invisibly.
* **Per-directory rule sets** (:class:`LintConfig`) give ``tests/`` and
  ``benchmarks/`` looser rules than ``src/repro/`` — test code may use
  ad-hoc randomness; library code may not.
* **Stable output**: findings sort by ``(path, line, rule, message)``
  and the JSON rendering (:mod:`repro.analysis.report`) is
  byte-deterministic, so CI diffs between two lint runs are meaningful.

Entry points: ``repro lint`` (:mod:`repro.cli`) and :func:`lint_paths`
for library use.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

PathLike = Union[str, Path]

#: Every shipped rule id, sorted. The registry in
#: :mod:`repro.analysis.rules` asserts it matches this tuple at import
#: time, so the two can never drift silently.
ALL_RULE_IDS = (
    "bare-except",
    "determinism",
    "lock-discipline",
    "strict-json",
    "thread-lifecycle",
    "unused-import",
)

#: Rule id attached to files the engine cannot parse. Always active —
#: a syntax error is never ruleset-dependent.
PARSE_RULE_ID = "parse-error"

SUPPRESS_COMMENT = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")
GUARDED_BY_COMMENT = re.compile(r"#\s*guarded-by:\s*(\w+)")
_ATTR_DECL = re.compile(r"(?:\bself\.)?(\w+)\s*[:=]")


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Field order *is* the sort order — ``(path, line, rule, message)`` —
    which is what makes ``repro lint --format json`` byte-stable across
    runs and rule-execution orders.
    """

    path: str
    line: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------
# Import-alias resolution
# ----------------------------------------------------------------------
def module_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted import path they were bound from.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import
    random as nr`` maps ``nr -> numpy.random``; ``import numpy.random``
    maps ``numpy -> numpy``. Only import-bound names resolve — a local
    variable shadowing a module name simply stops resolving, which
    biases every rule toward false negatives rather than false alarms.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    root = name.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never name stdlib/numpy modules
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.rand`` to ``"numpy.random.rand"`` (or None).

    Walks an Attribute chain down to its base Name and substitutes the
    import alias; any non-Name base (a call result, a subscript, a
    string literal) resolves to None.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


def receiver_name(node: ast.AST) -> Optional[str]:
    """The last name segment of a call receiver (``a.b.c() -> "b"``;
    ``x.join() -> "x"``). None for literals and call results."""
    if isinstance(node, ast.Attribute):
        inner = node.value
        if isinstance(inner, ast.Name):
            return inner.id
        if isinstance(inner, ast.Attribute):
            return inner.attr
    return None


# ----------------------------------------------------------------------
# Per-file context handed to every rule
# ----------------------------------------------------------------------
class FileContext:
    """One parsed file plus everything rules need to inspect it."""

    def __init__(self, path: PathLike, source: str, config: "LintConfig"):
        self.path = Path(path)
        self.display_path = Path(path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.config = config
        self.tree = ast.parse(source, filename=str(path))
        self.aliases = module_aliases(self.tree)
        self.suppressions: Dict[int, set] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = SUPPRESS_COMMENT.search(line)
            if match:
                ids = {part.strip() for part in match.group(1).split(",")}
                self.suppressions[lineno] = {part for part in ids if part}

    def dotted(self, node: ast.AST) -> Optional[str]:
        return dotted_name(node, self.aliases)

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        """True if the line (or the one above it) carries a matching
        ``# repro: allow(<rule-id>)`` pragma."""
        for candidate in (lineno, lineno - 1):
            allowed = self.suppressions.get(candidate)
            if allowed and (rule_id in allowed or "*" in allowed):
                return True
        return False


class Rule:
    """Base class of one lint rule (see :mod:`repro.analysis.rules`)."""

    id: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> List[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            path=ctx.display_path, line=int(line), rule=self.id, message=message
        )


# ----------------------------------------------------------------------
# Configuration: per-directory rule sets + whitelists
# ----------------------------------------------------------------------
#: Longest-matching selector wins; a selector matches when it appears
#: as a directory-path segment sequence anywhere in the linted path, so
#: both ``src/repro/cli.py`` and ``/abs/checkout/src/repro/cli.py``
#: pick up the ``src/repro/`` set.
DEFAULT_RULESETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("src/repro/", ALL_RULE_IDS),
    # Test and benchmark code may use ad-hoc randomness and broad
    # excepts (pytest.raises scaffolding), but must still honor the
    # archive and threading invariants it exercises.
    ("tests/", ("lock-discipline", "strict-json", "thread-lifecycle", "unused-import")),
    ("benchmarks/", ("lock-discipline", "strict-json", "thread-lifecycle", "unused-import")),
    ("examples/", ("strict-json", "thread-lifecycle")),
)

#: Path suffixes exempt from the strict-json rule: the routing layer
#: that *implements* the finite-JSON convention.
DEFAULT_JSON_WHITELIST = ("repro/experiments/io.py",)


@dataclass(frozen=True)
class LintConfig:
    """Which rules apply where (see :data:`DEFAULT_RULESETS`)."""

    rulesets: Tuple[Tuple[str, Tuple[str, ...]], ...] = DEFAULT_RULESETS
    default_rules: Tuple[str, ...] = ALL_RULE_IDS
    strict_json_whitelist: Tuple[str, ...] = DEFAULT_JSON_WHITELIST

    def rules_for(self, path: PathLike) -> Tuple[str, ...]:
        """Rule ids active for ``path`` (longest selector match wins)."""
        norm = "/" + Path(path).as_posix().lstrip("/") + "/"
        best: Optional[Tuple[str, Tuple[str, ...]]] = None
        for selector, rule_ids in self.rulesets:
            sel = selector.strip("/")
            if f"/{sel}/" in norm and (best is None or len(sel) > len(best[0])):
                best = (sel, rule_ids)
        return best[1] if best is not None else self.default_rules

    def json_whitelisted(self, path: PathLike) -> bool:
        norm = Path(path).as_posix()
        return any(norm.endswith(suffix) for suffix in self.strict_json_whitelist)


DEFAULT_CONFIG = LintConfig()


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """All findings of one lint run, sorted and count-summarized."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0

    @property
    def counts(self) -> Dict[str, int]:
        """Findings per rule id, key-sorted."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files": self.files,
            "suppressed": self.suppressed,
            "total": len(self.findings),
            "counts": self.counts,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def _rule_objects(rule_filter: Optional[Iterable[str]] = None) -> List[Rule]:
    from repro.analysis.rules import get_rules  # lazy: rules import this module

    return get_rules(rule_filter)


def lint_source(
    path: PathLike,
    source: str,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], int]:
    """Lint one in-memory source; returns ``(findings, suppressed)``.

    The active rules are the intersection of ``rules`` (default: all
    registered) with the config's per-directory set for ``path``.
    Findings carrying a matching ``# repro: allow(...)`` pragma are
    dropped and counted instead.
    """
    config = config if config is not None else DEFAULT_CONFIG
    rules = rules if rules is not None else _rule_objects()
    active_ids = set(config.rules_for(path))
    try:
        ctx = FileContext(path, source, config)
    except SyntaxError as error:
        finding = Finding(
            path=Path(path).as_posix(),
            line=int(error.lineno or 1),
            rule=PARSE_RULE_ID,
            message=f"file does not parse: {error.msg}",
        )
        return [finding], 0
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        if rule.id not in active_ids:
            continue
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
    return sorted(findings), suppressed


def lint_file(
    path: PathLike,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], int]:
    """Lint one file on disk; returns ``(findings, suppressed)``."""
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(path, source, config=config, rules=rules)


def iter_python_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files/directories into a deduplicated, sorted file list.

    Directories are walked recursively for ``*.py``; ``__pycache__``
    and hidden directories are skipped. Order is deterministic
    (per-argument, then sorted within each directory).
    """
    seen = set()
    files: List[Path] = []

    def _add(candidate: Path) -> None:
        key = candidate.resolve()
        if key not in seen:
            seen.add(key)
            files.append(candidate)

    for path in paths:
        path = Path(path)
        if path.is_file():
            _add(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"lint path does not exist: {path}")
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(part == "__pycache__" or part.startswith(".") for part in parts):
                continue
            _add(candidate)
    return files


def lint_paths(
    paths: Sequence[PathLike],
    config: Optional[LintConfig] = None,
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint files and directories; ``rules`` optionally filters by id."""
    rule_objects = _rule_objects(rules)
    report = LintReport()
    for path in iter_python_files(paths):
        findings, suppressed = lint_file(path, config=config, rules=rule_objects)
        report.findings.extend(findings)
        report.suppressed += suppressed
        report.files += 1
    report.findings.sort()
    return report
