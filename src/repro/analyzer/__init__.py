"""repro.analyzer — AST static analysis enforcing the repo's invariants.

``repro-clue lint`` runs this engine over ``src/repro``.  Each
invariant is checked by exactly one rule: hot-path purity for the
one-memory-reference claim (``RC101``), seeded-RNG discipline
(``RC102``), wall-clock-free engines (``RC103``), package
``__all__`` consistency (``RC105``), bounded loops and retries
(``RC106``, ``RC112``), stray to-do markers (``RC110``), and
vectorized batch kernels (``RC111``).  Two invariants need no rule.
The telemetry catalogue is one table
(:data:`repro.telemetry.instruments.CATALOGUE`) that registers and
binds every series, and the fastpath compilers publish every compiled
array read-only, so numpy rejects a store into one at run time.  The
engine itself owns ``RC100`` (parse errors), ``RC198`` (unexplained
suppression) and ``RC199`` (unused suppression).  RC101 and RC102
walk the whole-program call graph (:mod:`repro.analyzer.graph`): a
violation is flagged wherever a privileged entry point can *reach*
it, with the concrete entry→sink witness path in the message.  Bare
excepts, mutable defaults and library asserts are ruff's (``E722``,
``B006``, ``S101``).

``render_sarif`` is the SARIF 2.1.0 reporter behind ``--format sarif``.

Typical use::

    from repro.analyzer import analyze_paths, default_rules
    result = analyze_paths(["src/repro"])
    for finding in result.findings:
        print(finding)

See :mod:`repro.analyzer.engine` for suppressions and the baseline
workflow, and DESIGN.md "Static analysis" for rule rationales.
"""

from repro.analyzer.engine import (
    PARSE_ERROR_CODE,
    AnalysisResult,
    Finding,
    Project,
    Rule,
    SourceFile,
    Suppression,
    analyze,
    analyze_paths,
    default_rules,
    diff_baseline,
    gating_findings,
    iter_python_files,
    load_baseline,
    load_files,
    register,
    render_json_report,
    render_text,
    write_baseline,
)
from repro.analyzer.sarif import render_sarif

__all__ = [
    "AnalysisResult",
    "Finding",
    "PARSE_ERROR_CODE",
    "Project",
    "Rule",
    "SourceFile",
    "Suppression",
    "analyze",
    "analyze_paths",
    "default_rules",
    "diff_baseline",
    "gating_findings",
    "iter_python_files",
    "load_baseline",
    "load_files",
    "register",
    "render_json_report",
    "render_sarif",
    "render_text",
    "write_baseline",
]
