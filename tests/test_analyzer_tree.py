"""Integration: the live src/repro tree is clean under repro-clue lint."""

import ast
import json
import pathlib

import pytest

from repro import cli
from repro.analyzer import (
    default_rules,
    diff_baseline,
    gating_findings,
    load_baseline,
)
from repro.analyzer.purity import is_hot_path_function

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BASELINE = ROOT / "lint-baseline.json"


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    # Finding paths are repo-relative; anchor the walk at the repo root.
    monkeypatch.chdir(ROOT)


def describe(findings):
    return "\n".join(
        "%s:%d: %s %s" % (f.path, f.line, f.code, f.message)
        for f in findings
    )


def test_live_tree_has_no_gating_findings_above_baseline(live_tree):
    _, result = live_tree
    new, stale = diff_baseline(result.findings, load_baseline(str(BASELINE)))
    gating = gating_findings(new, default_rules())
    assert gating == [], describe(gating)
    assert stale == [], "stale baseline entries: %s" % (stale,)


def test_live_tree_is_clean_under_the_interprocedural_rules(live_tree):
    # The call-graph rules get no baseline help at all: every hot
    # entry's reachable set is pure or explicitly @cold_path-bounded,
    # and no engine reaches a seed fork through a loop.
    _, result = live_tree
    graph_findings = [
        f for f in result.findings if f.code in ("RC101", "RC102")
    ]
    assert graph_findings == [], describe(graph_findings)


def test_every_hot_path_function_is_a_call_graph_entry(live_tree):
    # RC101 starts its walk at the graph's @hot_path nodes, and the
    # graph holds only module-level functions and methods of
    # module-level classes.  A @hot_path def nested anywhere else
    # would go unchecked, so there must be none.
    files, _ = live_tree
    decorated = set()
    entries = set()
    for source in files:
        for node in ast.walk(source.tree):
            if is_hot_path_function(node):
                decorated.add((source.path, node.lineno))
        for node in source.tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if is_hot_path_function(member):
                    entries.add((source.path, member.lineno))
    assert entries and decorated == entries


def test_live_tree_has_no_dead_suppressions(live_tree):
    _, result = live_tree
    assert result.unused_suppressions == [], [
        "%s:%d" % (f.path, f.line) for f in result.unused_suppressions
    ]


def test_committed_baseline_is_well_formed_and_empty():
    payload = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    # The tree starts clean; any future entry needs a justification in
    # its fingerprint's message text (reviewed like code).
    assert payload["findings"] == {}


def test_cli_lint_exits_zero_on_the_live_tree(capsys):
    code = cli.main(
        ["lint", str(SRC), "--baseline", str(BASELINE)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0 gating" in out


def test_cli_lint_json_format_summarises(capsys):
    code = cli.main(
        ["lint", str(SRC), "--baseline", str(BASELINE), "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["summary"]["gating"] == 0
    assert payload["files"] > 90


def test_cli_lint_select_unknown_code_errors():
    with pytest.raises(SystemExit):
        cli.main(["lint", str(SRC), "--select", "RC999"])


def test_cli_lint_flags_a_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import random\n"
        "\n"
        "\n"
        "def f(items):\n"
        "    random.shuffle(items)\n",
        encoding="utf-8",
    )
    code = cli.main(["lint", str(bad), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RC102" in out
