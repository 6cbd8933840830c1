"""RC112 bounded-retry: every retry loop carries an explicit budget."""

import pathlib

from repro.analyzer import SourceFile, analyze
from repro.analyzer.rules import BoundedRetryRule

FIXTURES = pathlib.Path(__file__).resolve().parent / "analyzer_fixtures"


def load(name):
    return SourceFile(name, (FIXTURES / name).read_text(encoding="utf-8"))


def run(*sources):
    return analyze(list(sources), [BoundedRetryRule()])


def test_flags_unbudgeted_retry_loops():
    result = run(load("bad_retry.py"))
    assert all(finding.code == "RC112" for finding in result.findings)
    messages = [finding.message for finding in result.findings]
    assert len(messages) == 2
    assert sum("while True" in message for message in messages) == 1
    assert sum("no statically visible budget" in message for message in messages) == 1


def test_budgeted_loops_pass():
    result = run(load("bad_retry.py"))
    lines = {finding.line for finding in result.findings}
    text = (FIXTURES / "bad_retry.py").read_text(encoding="utf-8")
    for needle in ("attempts < max_retries", "while attempts_left:", "while queue:"):
        good_line = next(
            number
            for number, line in enumerate(text.splitlines(), start=1)
            if needle in line
        )
        assert good_line not in lines


def test_non_retry_while_loops_are_out_of_scope():
    source = SourceFile(
        "plain.py",
        "def drain(queue):\n    while queue:\n        queue.pop()\n",
    )
    assert run(source).findings == []


def test_countdown_via_explicit_subtraction_passes():
    source = SourceFile(
        "countdown.py",
        "def f(op, retries):\n"
        "    while retries:\n"
        "        op()\n"
        "        retries = retries - 1\n",
    )
    assert run(source).findings == []


def test_attribute_retry_names_are_detected():
    source = SourceFile(
        "attr.py",
        "def f(self, op):\n"
        "    while op.pending:\n"
        "        self.retries += 1\n"
        "        op.poke()\n",
    )
    findings = run(source).findings
    assert len(findings) == 1
    assert "'retries'" in findings[0].message


def test_live_tree_is_clean(live_tree):
    _, result = live_tree
    assert [f for f in result.findings if f.code == "RC112"] == []
