"""The AST-walking rule engine behind ``repro-clue lint``.

The repo's correctness story rests on hand-maintained invariants — the
one-memory-reference hot path, seeded-RNG discipline, the public API
surface, the never-wrong-forwarding oracles.  This engine
makes them machine-checked: it parses every file once, hands the parse
to a registry of :class:`Rule` objects, and reconciles their findings
against per-line suppressions and a committed baseline so legacy debt
never blocks CI while *new* violations always do.

Vocabulary:

* :class:`SourceFile` — one parsed file: path, text, AST, and the
  ``# repro: noqa[RULE]`` suppressions found on its lines;
* :class:`Rule` — a check; per-file rules implement :meth:`Rule
  .check_file`, cross-file rules implement :meth:`Rule.finish` over the
  whole :class:`Project`;
* :class:`Finding` — one violation, addressable as ``path:line:col``;
* baseline — a JSON map of finding fingerprints to counts; only
  findings *above* the baseline fail the run (and stale baseline
  entries are reported so the file shrinks over time).

Suppression syntax (the reason clause is required — an unexplained
suppression is itself a finding)::

    while True:  # repro: noqa[RC106] -- descends a finite trie

Multiple codes: ``# repro: noqa[RC101,RC103] -- reason``.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

#: Engine-owned finding code for files the parser rejects.
PARSE_ERROR_CODE = "RC100"

#: The ``repro: noqa[CODES]`` comment, with an optional ``-- reason``
#: clause (see the module docstring for spelled-out examples).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<codes>[A-Z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)

#: The line of a witness-path call-site tag, ``[path/to/file.py:12]``.
_WITNESS_LINE_RE = re.compile(r"(\[[^\[\]\s]+):\d+\]")


class Finding:
    """One rule violation at a source location."""

    __slots__ = ("code", "path", "line", "col", "message", "rule_name")

    def __init__(
        self,
        code: str,
        path: str,
        line: int,
        col: int,
        message: str,
        rule_name: str = "",
    ):
        self.code = code
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        self.rule_name = rule_name

    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline.

        Leaving the line out keeps baselines stable across unrelated
        edits above a legacy finding; duplicates are handled by count.
        Witness paths name their call sites as ``[file:line]``; those
        lines are dropped too, so moving a call site in another file
        does not turn a baselined finding into a new one.
        """
        message = _WITNESS_LINE_RE.sub(r"\1]", self.message)
        return "%s|%s|%s" % (self.code, self.path, message)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "rule": self.rule_name,
        }

    def __repr__(self) -> str:
        return "Finding(%s %s:%d:%d %s)" % (
            self.code, self.path, self.line, self.col, self.message,
        )


class Suppression:
    """One parsed ``# repro: noqa[...]`` comment.

    A trailing comment suppresses findings on its own line; a
    *standalone* comment line suppresses findings on the next line
    (room for a full reason without overlong lines).
    """

    __slots__ = ("line", "codes", "reason", "standalone", "used")

    def __init__(
        self,
        line: int,
        codes: Set[str],
        reason: Optional[str],
        standalone: bool = False,
    ):
        self.line = line
        self.codes = codes
        self.reason = reason
        self.standalone = standalone
        self.used = False

    def matches(self, finding: Finding) -> bool:
        if finding.code not in self.codes:
            return False
        if finding.line == self.line:
            return True
        return self.standalone and finding.line == self.line + 1


class SourceFile:
    """One parsed source file plus its suppression table."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree: Optional[ast.AST] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as error:
            self.parse_error = error
        self.suppressions = self._parse_suppressions()

    def _parse_suppressions(self) -> List[Suppression]:
        """Suppressions from real ``#`` comments only — tokenizing keeps
        doc examples mentioning the syntax from suppressing anything."""
        found: List[Suppression] = []
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.text).readline)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return found
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            codes = {
                code.strip()
                for code in match.group("codes").split(",")
                if code.strip()
            }
            number = token.start[0]
            standalone = (
                number <= len(self.lines)
                and self.lines[number - 1].lstrip().startswith("#")
            )
            found.append(
                Suppression(
                    number, codes, match.group("reason"), standalone
                )
            )
        return found

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        """Convenience: a finding of ``rule`` anchored at ``node``."""
        return Finding(
            rule.code,
            self.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
            rule.name,
        )

    def line_finding(self, rule: "Rule", line: int, message: str) -> Finding:
        return Finding(rule.code, self.path, line, 1, message, rule.name)

    def __repr__(self) -> str:
        return "SourceFile(%r, %d lines)" % (self.path, len(self.lines))


class Project:
    """Every parsed file of one analysis run (the cross-file rules' view).

    Cross-file rules see two representations: the parsed
    :class:`SourceFile` objects, and — for the whole-program layer —
    per-file :class:`~repro.analyzer.graph.summary.ModuleSummary`
    digests plus the call graph resolved over them, each built once
    per run on first use.
    """

    def __init__(self, files: Sequence[SourceFile]):
        self.files = list(files)
        self._summaries: Optional[Dict[str, object]] = None
        self._graph = None

    def summaries(self) -> Dict[str, object]:
        """``path → ModuleSummary`` over every file of the run."""
        if self._summaries is None:
            from repro.analyzer.graph.summary import summarize_source

            self._summaries = {
                source.path: summarize_source(source)
                for source in self.files
            }
        return self._summaries

    def graph(self):
        """The whole-program call graph (built once per run)."""
        if self._graph is None:
            from repro.analyzer.graph.callgraph import build_call_graph

            self._graph = build_call_graph(self.summaries())
        return self._graph

    def find(self, suffix: str) -> Optional[SourceFile]:
        """The file whose (posix) path ends with ``suffix``, if any."""
        normalized = suffix.replace(os.sep, "/")
        for source in self.files:
            if source.path.replace(os.sep, "/").endswith(normalized):
                return source
        return None

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)


class Rule:
    """Base class for analyzer rules.

    Subclasses set ``code`` (``RCnnn``), ``name`` (kebab-case slug),
    ``rationale`` (which invariant / past regression motivates it), and
    override :meth:`check_file` and/or :meth:`finish`.  Rules marked
    ``informational`` report but never fail the run.
    """

    code: str = "RC000"
    name: str = "abstract"
    rationale: str = ""
    informational: bool = False

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        """Per-file findings; ``source.tree`` is never None here."""
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        """Cross-file findings, after every file was parsed."""
        return ()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.code)


#: The global rule registry, populated by the ``@register`` decorator
#: at :mod:`repro.analyzer.rules` import time.
_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default set (unique codes)."""
    existing = _REGISTRY.get(rule_class.code)
    if existing is not None and existing is not rule_class:
        raise ValueError(
            "rule code %s already registered by %s"
            % (rule_class.code, existing.__name__)
        )
    _REGISTRY[rule_class.code] = rule_class
    return rule_class


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by code."""
    # Importing the rules package populates the registry on first use.
    from repro.analyzer import rules as _rules  # noqa: F401

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


class AnalysisResult:
    """Everything one run produced, pre-baseline."""

    def __init__(
        self,
        findings: List[Finding],
        files: int,
        unused_suppressions: List[Finding],
    ):
        #: Every surviving (non-suppressed) finding, sorted by location.
        self.findings = findings
        self.files = files
        #: Suppressions that matched nothing (dead noqa comments) —
        #: reported so stale suppressions get cleaned up.
        self.unused_suppressions = unused_suppressions

    def by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    def __repr__(self) -> str:
        return "AnalysisResult(%d findings over %d files)" % (
            len(self.findings), self.files,
        )


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    seen: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError("no such file or directory: %s" % path)
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                name for name in dirs
                if name not in ("__pycache__", ".git")
            )
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(root, name)
                if full not in seen:
                    seen.add(full)
                    yield full


def load_files(paths: Sequence[str]) -> List[SourceFile]:
    """Read and parse every python file under ``paths``."""
    files: List[SourceFile] = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            text = handle.read()
        files.append(SourceFile(_normalize(filename), text))
    return files


def _normalize(path: str) -> str:
    return os.path.relpath(path).replace(os.sep, "/")


def analyze(
    files: Sequence[SourceFile],
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisResult:
    """Run ``rules`` (default: all registered) over parsed ``files``."""
    active = list(rules) if rules is not None else default_rules()
    raw: List[Finding] = []
    parsed: List[SourceFile] = []
    for source in files:
        if source.parse_error is not None:
            error = source.parse_error
            raw.append(
                Finding(
                    PARSE_ERROR_CODE,
                    source.path,
                    error.lineno or 1,
                    (error.offset or 0) + 1,
                    "syntax error: %s" % error.msg,
                    "parse-error",
                )
            )
            continue
        parsed.append(source)
        for rule in active:
            raw.extend(rule.check_file(source))
    project = Project(parsed)
    for rule in active:
        raw.extend(rule.finish(project))

    # Match findings against suppressions and report the leftovers.
    suppressions_by_path = {
        source.path: source.suppressions for source in files
    }
    for suppressions in suppressions_by_path.values():
        for suppression in suppressions:
            suppression.used = False
    surviving: List[Finding] = []
    for finding in raw:
        suppressed = False
        for suppression in suppressions_by_path.get(finding.path, ()):
            if suppression.matches(finding):
                suppression.used = True
                suppressed = True
        if not suppressed:
            surviving.append(finding)

    unused: List[Finding] = []
    for path in suppressions_by_path:
        for suppression in suppressions_by_path[path]:
            if not suppression.used:
                unused.append(
                    Finding(
                        "RC199",
                        path,
                        suppression.line,
                        1,
                        "unused suppression for %s"
                        % ",".join(sorted(suppression.codes)),
                        "unused-noqa",
                    )
                )
            elif suppression.reason is None:
                surviving.append(
                    Finding(
                        "RC198",
                        path,
                        suppression.line,
                        1,
                        "suppression of %s gives no reason "
                        "(append ' -- why it is safe')"
                        % ",".join(sorted(suppression.codes)),
                        "unexplained-noqa",
                    )
                )
    surviving.sort(key=Finding.sort_key)
    unused.sort(key=Finding.sort_key)
    return AnalysisResult(surviving, len(files), unused)


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisResult:
    """Load, parse, and analyze every python file under ``paths``."""
    return analyze(load_files(paths), rules)


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
BASELINE_VERSION = 1


def load_baseline(path: str) -> Dict[str, int]:
    """The committed fingerprint→count map; {} when the file is absent."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "findings" not in payload:
        raise ValueError("malformed baseline file: %s" % path)
    findings = payload["findings"]
    if not isinstance(findings, dict):
        raise ValueError("malformed baseline 'findings' in %s" % path)
    return {str(key): int(value) for key, value in findings.items()}


def write_baseline(findings: Sequence[Finding], path: str) -> Dict[str, int]:
    """Persist the fingerprints of ``findings`` as the new baseline."""
    counts: Dict[str, int] = {}
    for finding in findings:
        key = finding.fingerprint()
        counts[key] = counts.get(key, 0) + 1
    payload = {
        "version": BASELINE_VERSION,
        "comment": (
            "Known legacy findings tolerated by repro-clue lint; "
            "regenerate with 'repro-clue lint --write-baseline'."
        ),
        "findings": {key: counts[key] for key in sorted(counts)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return counts


def diff_baseline(
    findings: Sequence[Finding], baseline: Dict[str, int]
) -> Tuple[List[Finding], List[str]]:
    """``(new, stale)``: findings above the baseline, and baseline
    fingerprints the tree no longer produces (candidates for removal)."""
    remaining = dict(baseline)
    new: List[Finding] = []
    for finding in findings:
        key = finding.fingerprint()
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            new.append(finding)
    stale = sorted(key for key, count in remaining.items() if count > 0)
    return new, stale


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def render_text(
    result: AnalysisResult,
    new_findings: Sequence[Finding],
    stale: Sequence[str],
    rules: Sequence[Rule],
) -> str:
    """The human reporter: one line per finding plus a summary."""
    gating = [f for f in new_findings if not _is_informational(f, rules)]
    info = [f for f in new_findings if _is_informational(f, rules)]
    lines: List[str] = []
    for finding in new_findings:
        tag = " (informational)" if _is_informational(finding, rules) else ""
        lines.append(
            "%s:%d:%d: %s %s [%s]%s"
            % (
                finding.path,
                finding.line,
                finding.col,
                finding.code,
                finding.message,
                finding.rule_name,
                tag,
            )
        )
    for finding in result.unused_suppressions:
        lines.append(
            "%s:%d:%d: %s %s [%s] (informational)"
            % (
                finding.path,
                finding.line,
                finding.col,
                finding.code,
                finding.message,
                finding.rule_name,
            )
        )
    for key in stale:
        lines.append("stale baseline entry: %s" % key)
    baselined = len(result.findings) - len(new_findings)
    lines.append(
        "%d files, %d findings (%d gating, %d informational, "
        "%d baselined, %d stale baseline entries)"
        % (
            result.files,
            len(result.findings),
            len(gating),
            len(info),
            baselined,
            len(stale),
        )
    )
    return "\n".join(lines)


def render_json_report(
    result: AnalysisResult,
    new_findings: Sequence[Finding],
    stale: Sequence[str],
    rules: Sequence[Rule],
) -> str:
    """The machine reporter (consumed by CI annotations/tooling)."""
    gating = [f for f in new_findings if not _is_informational(f, rules)]
    payload = {
        "files": result.files,
        "findings": [finding.as_dict() for finding in new_findings],
        "unused_suppressions": [
            finding.as_dict() for finding in result.unused_suppressions
        ],
        "stale_baseline": list(stale),
        "summary": {
            "total": len(result.findings),
            "gating": len(gating),
            "informational": len(new_findings) - len(gating),
            "baselined": len(result.findings) - len(new_findings),
            "by_code": result.by_code(),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _is_informational(finding: Finding, rules: Sequence[Rule]) -> bool:
    for rule in rules:
        if rule.code == finding.code:
            return rule.informational
    return finding.code == "RC199"


def gating_findings(
    new_findings: Sequence[Finding], rules: Sequence[Rule]
) -> List[Finding]:
    """The subset of ``new_findings`` that should fail the run."""
    return [f for f in new_findings if not _is_informational(f, rules)]
