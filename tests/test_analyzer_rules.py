"""Per-rule tests against the known-bad snippets in analyzer_fixtures/."""

import pathlib

from repro.analyzer import analyze, SourceFile
from repro.analyzer.rules import (
    HotPathPurityRule,
    PublicApiRule,
    SeededRngRule,
    StrayTodoRule,
    UnboundedLoopRule,
    WallClockRule,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "analyzer_fixtures"


def load(name, path=None):
    """A fixture as a SourceFile; ``path`` overrides the analysis path
    for rules that key on path suffixes (``__init__``)."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return SourceFile(path or name, text)


def run(rule, *sources):
    return analyze(list(sources), [rule])


# ----------------------------------------------------------------------
# RC101 hot-path purity, in the entries themselves
# ----------------------------------------------------------------------
def test_hotpath_flags_every_forbidden_construct():
    result = run(HotPathPurityRule(), load("bad_hotpath.py"))
    messages = [f.message for f in result.findings]
    assert all(f.code == "RC101" for f in result.findings)
    for needle in (
        "list literal",
        "dict literal",
        "comprehension",
        "%-formats",
        "f-string",
        "str.format",
        "print()",
        "binds metric labels",
        "without a tracer.active sampling guard",
        "nested function",
    ):
        assert any(needle in message for message in messages), needle
    # All of the above and nothing else.
    assert len(messages) == 10


def test_hotpath_guarded_trace_and_raise_paths_are_legal():
    result = run(HotPathPurityRule(), load("bad_hotpath.py"))
    for message in (m for f in result.findings for m in [f.message]):
        assert "guarded_trace_is_fine" not in message
        assert "raising_may_format" not in message


def test_hotpath_accepts_the_real_data_path_idioms():
    result = run(HotPathPurityRule(), load("clean_hotpath.py"))
    assert result.findings == []


# ----------------------------------------------------------------------
# RC102 seeded RNG
# ----------------------------------------------------------------------
def line_of(name, needle):
    """The 1-based line of the first fixture line containing ``needle``."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return number
    raise LookupError(needle)


def test_rng_rule_flags_the_three_regression_shapes():
    result = run(SeededRngRule(), load("bad_rng.py"))
    messages = [f.message for f in result.findings]
    assert all(f.code == "RC102" for f in result.findings)
    assert sum("module-level random." in m for m in messages) == 4
    assert sum("SystemRandom()" in m for m in messages) == 1
    assert sum("without an explicit seed" in m for m in messages) == 1
    assert sum("seed arithmetic inside a loop" in m for m in messages) == 1
    assert len(messages) == 7


def test_rng_rule_allows_seed_derivation_outside_loops():
    result = run(SeededRngRule(), load("bad_rng.py"))
    # derived_outside_loop_is_fine lives on lines 27-30: nothing there.
    assert not [f for f in result.findings if 27 <= f.line <= 30]


def test_rng_rule_covers_module_level_and_class_body_code():
    # Call-graph summaries hold only functions and methods, so these
    # draws must stay per-file findings.
    result = run(SeededRngRule(), load("bad_rng.py"))
    by_line = {f.line: f.message for f in result.findings}
    module_level = line_of("bad_rng.py", "random.shuffle(_DECK)")
    class_body = line_of("bad_rng.py", "offset = random.random()")
    assert "random.shuffle()" in by_line[module_level]
    assert "random.random()" in by_line[class_body]


def test_rng_rule_flags_reseeding():
    source = SourceFile(
        "reseed.py",
        "def restart(self, seed):\n"
        "    self.rng.seed(seed)\n",
    )
    result = run(SeededRngRule(), source)
    assert [f.code for f in result.findings] == ["RC102"]
    assert "self.rng.seed() re-seeds" in result.findings[0].message


# ----------------------------------------------------------------------
# RC103 wall clocks
# ----------------------------------------------------------------------
def test_wall_clock_rule_flags_clocks_and_entropy():
    result = run(WallClockRule(), load("bad_clock.py"))
    messages = [f.message for f in result.findings]
    assert all(f.code == "RC103" for f in result.findings)
    for needle in (
        "time.time()",
        "time.perf_counter()",
        "datetime.now()",
        "uuid.uuid4()",
        "os.urandom()",
    ):
        assert any(needle in m for m in messages), needle
    assert len(messages) == 5


# ----------------------------------------------------------------------
# RC105 public API
# ----------------------------------------------------------------------
def test_public_api_rule_flags_init_drift():
    result = run(
        PublicApiRule(),
        load("bad_api/__init__.py", path="bad_api/__init__.py"),
    )
    messages = [f.message for f in result.findings]
    assert all(f.code == "RC105" for f in result.findings)
    assert any("duplicate __all__ entry 'OrderedDict'" in m for m in messages)
    assert any("phantom export 'ClueTable'" in m for m in messages)
    assert any("'accidental'" in m and "missing from __all__" in m
               for m in messages)
    assert len(messages) == 3


def test_public_api_rule_ignores_non_init_modules():
    result = run(
        PublicApiRule(),
        load("bad_api/__init__.py", path="bad_api/not_init.py"),
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# RC106 bounded loops
# ----------------------------------------------------------------------
def test_loop_rule_flags_unsuppressed_while_true():
    result = run(UnboundedLoopRule(), load("bad_loops.py"))
    messages = [f.message for f in result.findings]
    assert all(f.code == "RC106" for f in result.findings)
    assert any("no statically visible iteration cap" in m for m in messages)
    assert any("can never terminate" in m for m in messages)
    # The third while-True carries a reasoned suppression — consumed,
    # so it is neither a finding nor an unused suppression.
    assert len(messages) == 2
    assert result.unused_suppressions == []


# ----------------------------------------------------------------------
# RC110 stray to-do markers (informational)
# ----------------------------------------------------------------------
def test_todo_rule_reports_but_never_gates():
    rule = StrayTodoRule()
    result = run(rule, load("bad_todo.py"))
    assert [f.code for f in result.findings] == ["RC110"] * 3
    assert rule.informational
    from repro.analyzer import gating_findings

    assert gating_findings(result.findings, [rule]) == []
