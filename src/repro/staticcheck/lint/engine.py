"""reprolint engine: AST rule framework + suppression handling.

The linter walks Python sources under ``src/repro`` and applies
simulation-hygiene rules (:mod:`.rules`).  Rules are scope-aware:

* **sim scope** — code that executes *inside* the simulated machine
  (cores, caches, coherence, NoC, kernel, workloads, ...).  Determinism
  rules (no wall-clock, no unordered set iteration, integer cycle
  arithmetic, kernel-API event scheduling) apply here.
* **host scope** — code that runs *around* the simulator (experiment
  drivers, reliability harness, this checker).  Wall-clock time and
  other host facilities are legitimate there.
* **pure scope** — the declarative protocol tables the model checker
  itself consumes.  These must stay side-effect-free.

Suppressions are inline comments with a mandatory justification::

    holders = set(entry.sharers)  # reprolint: disable=unordered-iteration -- consumed by sorted() on the next line

A suppression without a justification, or one that suppresses nothing,
is itself reported (``bad-suppression`` / ``unused-suppression``): the
waiver list must stay auditable and live.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

__all__ = [
    "Finding",
    "LintRule",
    "Suppression",
    "audit_suppressions",
    "classify_scope",
    "lint_file",
    "lint_paths",
    "iter_python_files",
]

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>[a-z0-9,\-\s]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)

#: Top-level ``repro`` subpackages / modules that run inside the
#: simulated machine.  Everything not listed in either scope set is
#: treated as sim scope (the conservative default).
SIM_SCOPE = frozenset(
    {
        "coherence",
        "consistency",
        "cpu",
        "invisispec",
        "mem",
        "network",
        "security",
        "sim",
        "stats",
        "workloads",
        "system.py",
        "params.py",
        "configs.py",
        "errors.py",
    }
)

#: Host-side packages: drive, measure, or verify the simulator from
#: outside simulated time.
HOST_SCOPE = frozenset(
    {
        "experiments",
        "hwmodel",
        "reliability",
        "service",
        "staticcheck",
        "runner.py",
        "__main__.py",
    }
)

#: Side-effect-free protocol table modules (consumed by the model
#: checker; see docs/STATIC_ANALYSIS.md).
PURE_MODULES = (
    ("coherence", "protocol.py"),
    ("coherence", "mesi.py"),
    ("coherence", "messages.py"),
    ("invisispec", "lifecycle.py"),
)


class Finding:
    """One rule violation at a source location."""

    __slots__ = ("path", "line", "col", "rule", "message")

    def __init__(self, path, line, col, rule, message):
        self.path = str(path)
        self.line = line
        self.col = col
        self.rule = rule
        self.message = message

    def as_dict(self):
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class Suppression:
    """A parsed ``# reprolint: disable=...`` comment."""

    __slots__ = ("line", "rules", "justification", "used")

    def __init__(self, line, rules, justification):
        self.line = line
        self.rules = rules
        self.justification = justification
        self.used = False


class LintRule(ast.NodeVisitor):
    """Base class: a named, scope-gated AST visitor.

    Subclasses set ``name``, ``scopes`` (subset of {"sim", "host",
    "pure"}) and call :meth:`report` from their ``visit_*`` methods.
    """

    name = "abstract-rule"
    description = ""
    scopes = frozenset({"sim"})

    def __init__(self, path, scope):
        self.path = path
        self.scope = scope
        self.findings = []

    def report(self, node, message):
        self.findings.append(
            Finding(self.path, node.lineno, node.col_offset, self.name, message)
        )

    def run(self, tree):
        self.visit(tree)
        return self.findings


def classify_scope(path):
    """``"sim"``, ``"host"`` or ``"pure"`` for a file under repro/."""
    parts = Path(path).parts
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return "sim"  # outside the package tree: be conservative
    rel = parts[anchor + 1 :]
    if not rel:
        return "sim"
    for pkg, mod in PURE_MODULES:
        if rel[-2:] == (pkg, mod):
            return "pure"
    head = rel[0]
    if head in HOST_SCOPE:
        return "host"
    if head in SIM_SCOPE:
        return "sim"
    return "sim"


def parse_suppressions(source):
    """Extract Suppression objects (and malformed-comment findings)."""
    suppressions = {}
    bad = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except tokenize.TokenizeError:  # pragma: no cover - ast parses first
        comments = []
    for lineno, comment in comments:
        if "reprolint" not in comment:
            continue
        m = _SUPPRESS_RE.search(comment)
        if m is None:
            bad.append(
                (lineno, "malformed reprolint comment (expected "
                 "'# reprolint: disable=rule -- justification')")
            )
            continue
        rules = tuple(
            r.strip() for r in m.group("rules").split(",") if r.strip()
        )
        why = m.group("why")
        if not why:
            bad.append(
                (lineno, "suppression without a justification: add "
                 "' -- <why this is safe>'")
            )
            continue
        suppressions[lineno] = Suppression(lineno, rules, why)
    return suppressions, bad


def lint_file(path, rules, source=None):
    """Lint one file; returns a list of Findings (possibly empty)."""
    path = str(path)
    if source is None:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path,
                exc.lineno or 1,
                exc.offset or 0,
                "syntax-error",
                f"file does not parse: {exc.msg}",
            )
        ]
    scope = classify_scope(path)
    suppressions, bad_comments = parse_suppressions(source)
    findings = [
        Finding(path, lineno, 0, "bad-suppression", message)
        for lineno, message in bad_comments
    ]
    for rule_cls in rules:
        if scope not in rule_cls.scopes:
            continue
        findings.extend(rule_cls(path, scope).run(tree))
    kept = []
    for finding in findings:
        sup = suppressions.get(finding.line)
        if sup is not None and finding.rule in sup.rules:
            sup.used = True
            continue
        kept.append(finding)
    for sup in suppressions.values():
        if not sup.used:
            kept.append(
                Finding(
                    path,
                    sup.line,
                    0,
                    "unused-suppression",
                    f"suppression for {', '.join(sup.rules)} matches no "
                    "finding on this line; delete it",
                )
            )
    kept.sort(key=lambda f: (f.line, f.col, f.rule))
    return kept


def iter_python_files(paths):
    """Expand files/directories into a sorted list of .py files."""
    out = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    return out


def lint_paths(paths, rules):
    """Lint every .py file under ``paths``; returns (findings, nfiles)."""
    files = iter_python_files(paths)
    findings = []
    for path in files:
        findings.extend(lint_file(path, rules))
    return findings, len(files)


def audit_suppressions(paths):
    """The live waiver list: every ``# reprolint: disable=`` comment
    under ``paths`` as ``{"path", "line", "rules", "justification"}``
    dicts in (path, line) order.

    This is the review surface for suppressions — the linter itself
    already rejects malformed or dead ones (``bad-suppression`` /
    ``unused-suppression``), so anything this returns is a deliberate,
    justified, still-active waiver.
    """
    entries = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        suppressions, _bad = parse_suppressions(source)
        for lineno in sorted(suppressions):
            sup = suppressions[lineno]
            entries.append(
                {
                    "path": str(path),
                    "line": sup.line,
                    "rules": list(sup.rules),
                    "justification": sup.justification,
                }
            )
    return entries
