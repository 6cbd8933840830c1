"""Engine-level tests: suppressions, baseline, reporters, registry."""

import ast
import json

import pytest

from repro.analyzer import engine


class ReturnSpotter(engine.Rule):
    """Toy rule: flags every ``return`` statement (deterministic bait)."""

    code = "RC901"
    name = "return-spotter"
    rationale = "test scaffolding"

    def check_file(self, source):
        return [
            source.finding(self, node, "return spotted")
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Return)
        ]


class PassSpotter(engine.Rule):
    code = "RC902"
    name = "pass-spotter"
    rationale = "test scaffolding"

    def check_file(self, source):
        return [
            source.finding(self, node, "pass spotted")
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Pass)
        ]


def run(text, rules=None, path="snippet.py"):
    return engine.analyze(
        [engine.SourceFile(path, text)],
        rules if rules is not None else [ReturnSpotter()],
    )


# ----------------------------------------------------------------------
# findings and fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_ignores_line_number():
    a = engine.Finding("RC901", "m.py", 3, 1, "return spotted")
    b = engine.Finding("RC901", "m.py", 99, 7, "return spotted")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() == "RC901|m.py|return spotted"


def test_fingerprint_ignores_witness_path_lines():
    message = "'m.sink' allocates; path: m.entry -> m.sink [%s]"
    a = engine.Finding("RC901", "m.py", 3, 1, message % "pkg/m.py:10")
    b = engine.Finding("RC901", "m.py", 3, 1, message % "pkg/m.py:11")
    other = engine.Finding("RC901", "m.py", 3, 1, message % "pkg/n.py:10")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint().endswith("-> m.sink [pkg/m.py]")
    # The call site's file stays part of the identity.
    assert a.fingerprint() != other.fingerprint()


def test_plain_finding_survives():
    result = run("def f():\n    return 1\n")
    assert [f.code for f in result.findings] == ["RC901"]
    assert result.findings[0].line == 2
    assert result.files == 1


def test_parse_error_becomes_rc100():
    result = run("def f(:\n")
    assert [f.code for f in result.findings] == [engine.PARSE_ERROR_CODE]
    assert "syntax error" in result.findings[0].message


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_trailing_suppression_with_reason():
    result = run(
        "def f():\n"
        "    return 1  # repro: noqa[RC901] -- constant-time by design\n"
    )
    assert result.findings == []
    assert result.unused_suppressions == []


def test_standalone_suppression_covers_next_line():
    result = run(
        "def f():\n"
        "    # repro: noqa[RC901] -- the comment line above the code\n"
        "    return 1\n"
    )
    assert result.findings == []
    assert result.unused_suppressions == []


def test_standalone_suppression_reaches_only_one_line():
    result = run(
        "def f():\n"
        "    # repro: noqa[RC901] -- only the next line\n"
        "    return 1\n"
        "\n"
        "def g():\n"
        "    return 2\n"
    )
    assert [f.code for f in result.findings] == ["RC901"]
    assert result.findings[0].line == 6


def test_missing_reason_is_a_gating_rc198():
    result = run("def f():\n    return 1  # repro: noqa[RC901]\n")
    codes = [f.code for f in result.findings]
    assert codes == ["RC198"]
    assert "no reason" in result.findings[0].message
    # RC198 gates even though the suppressed finding itself is gone.
    assert engine.gating_findings(result.findings, [ReturnSpotter()])


def test_unused_suppression_reported_as_rc199():
    result = run("x = 1  # repro: noqa[RC901] -- nothing to suppress\n")
    assert result.findings == []
    assert [f.code for f in result.unused_suppressions] == ["RC199"]


def test_one_comment_may_carry_multiple_codes():
    result = run(
        "def f():\n"
        "    pass  # repro: noqa[RC901, RC902] -- both silenced\n"
        "    return 1  # repro: noqa[RC901] -- and this one too\n",
        rules=[ReturnSpotter(), PassSpotter()],
    )
    assert result.findings == []
    assert result.unused_suppressions == []


def test_docstring_mention_of_the_syntax_is_not_a_suppression():
    result = run(
        '"""Docs show: ``return x  # repro: noqa[RC901] -- why``."""\n'
        "def f():\n"
        "    return 1\n"
    )
    # The docstring example neither suppresses the finding below it
    # nor registers as an unused suppression.
    assert [f.code for f in result.findings] == ["RC901"]
    assert result.unused_suppressions == []


def test_suppression_for_other_code_does_not_apply():
    result = run(
        "def f():\n"
        "    return 1  # repro: noqa[RC902] -- wrong code entirely\n",
        rules=[ReturnSpotter(), PassSpotter()],
    )
    assert [f.code for f in result.findings] == ["RC901"]
    assert [f.code for f in result.unused_suppressions] == ["RC199"]


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
def test_baseline_roundtrip(tmp_path):
    findings = [
        engine.Finding("RC901", "m.py", 2, 1, "return spotted"),
        engine.Finding("RC901", "m.py", 5, 1, "return spotted"),
        engine.Finding("RC902", "n.py", 1, 1, "pass spotted"),
    ]
    path = str(tmp_path / "baseline.json")
    written = engine.write_baseline(findings, path)
    assert written == {
        "RC901|m.py|return spotted": 2,
        "RC902|n.py|pass spotted": 1,
    }
    assert engine.load_baseline(path) == written
    payload = json.loads((tmp_path / "baseline.json").read_text())
    assert payload["version"] == engine.BASELINE_VERSION


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert engine.load_baseline(str(tmp_path / "absent.json")) == {}


def test_load_baseline_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"not-findings": 1}')
    with pytest.raises(ValueError):
        engine.load_baseline(str(path))


def test_diff_baseline_new_and_stale():
    old = engine.Finding("RC901", "m.py", 2, 1, "return spotted")
    new = engine.Finding("RC902", "m.py", 3, 1, "pass spotted")
    baseline = {
        old.fingerprint(): 1,
        "RC903|gone.py|fixed long ago": 1,
    }
    fresh, stale = engine.diff_baseline([old, new], baseline)
    assert fresh == [new]
    assert stale == ["RC903|gone.py|fixed long ago"]


def test_diff_baseline_counts_duplicates():
    finding = engine.Finding("RC901", "m.py", 2, 1, "return spotted")
    twin = engine.Finding("RC901", "m.py", 9, 1, "return spotted")
    baseline = {finding.fingerprint(): 1}
    fresh, stale = engine.diff_baseline([finding, twin], baseline)
    # One occurrence is tolerated by the baseline, the second is new.
    assert len(fresh) == 1
    assert stale == []


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def test_render_text_lists_findings_and_summary():
    rules = [ReturnSpotter()]
    result = run("def f():\n    return 1\n", rules)
    text = engine.render_text(result, result.findings, [], rules)
    assert "snippet.py:2:" in text
    assert "RC901" in text
    assert "1 files, 1 findings (1 gating, 0 informational" in text


def test_render_text_marks_informational():
    class InfoRule(ReturnSpotter):
        informational = True

    rules = [InfoRule()]
    result = run("def f():\n    return 1\n", rules)
    text = engine.render_text(result, result.findings, [], rules)
    assert "(informational)" in text
    assert engine.gating_findings(result.findings, rules) == []


def test_render_json_report_is_machine_readable():
    rules = [ReturnSpotter()]
    result = run("def f():\n    return 1\n", rules)
    payload = json.loads(
        engine.render_json_report(result, result.findings, ["old|x|y"], rules)
    )
    assert payload["files"] == 1
    assert payload["summary"]["gating"] == 1
    assert payload["summary"]["by_code"] == {"RC901": 1}
    assert payload["stale_baseline"] == ["old|x|y"]
    assert payload["findings"][0]["code"] == "RC901"


# ----------------------------------------------------------------------
# registry and file discovery
# ----------------------------------------------------------------------
def test_default_rules_cover_the_documented_codes():
    # One code per invariant: the retired call-graph twins (RC113,
    # RC114, RC116), ruff's hygiene codes (RC107-RC109), the
    # telemetry-catalogue reconciliation (RC104; the catalogue is one
    # table now) and the frozen-array rule (RC115; numpy's read-only
    # flag rejects the stores at run time) are gone.
    codes = [rule.code for rule in engine.default_rules()]
    assert codes == [
        "RC101", "RC102", "RC103", "RC105",
        "RC106", "RC110", "RC111", "RC112",
    ]


def test_register_rejects_duplicate_codes():
    class First(engine.Rule):
        code = "RC990"
        name = "first"

    class Second(engine.Rule):
        code = "RC990"
        name = "second"

    try:
        assert engine.register(First) is First
        # Re-registering the same class is idempotent ...
        assert engine.register(First) is First
        # ... but a different class under the same code is an error.
        with pytest.raises(ValueError):
            engine.register(Second)
    finally:
        engine._REGISTRY.pop("RC990", None)


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.txt").write_text("not python\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.cpython-39.py").write_text("")
    found = list(engine.iter_python_files([str(tmp_path)]))
    assert found == [str(tmp_path / "pkg" / "a.py")]


def test_iter_python_files_rejects_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(engine.iter_python_files([str(tmp_path / "nope")]))
