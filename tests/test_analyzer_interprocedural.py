"""The call-graph rules RC101 and RC102 against the fixture
mini-packages.

Each package exercises one rule end to end across function and file
boundaries: a positive finding with its entry→sink witness path, a
negative (unreachable or sanctioned) twin, and a suppressed case.
"""

import pathlib

from repro.analyzer import SourceFile, analyze, default_rules
from repro.analyzer.rules import (
    BoundedRetryRule,
    HotPathPurityRule,
    SeededRngRule,
    UnboundedLoopRule,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "analyzer_fixtures"


def load(name, path=None, prefix=""):
    """A fixture as a SourceFile; ``path`` overrides the analysis path
    for rules that key on path suffixes or module names, and
    ``prefix`` is prepended to the text."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return SourceFile(path or name, prefix + text)


def run(rule, *sources):
    return analyze(list(sources), [rule])


# ----------------------------------------------------------------------
# RC101 hot-path purity, below the entries
# ----------------------------------------------------------------------
def closure_sources(mid_prefix=""):
    return (
        load("closure_pkg/__init__.py"),
        load("closure_pkg/hot.py"),
        load("closure_pkg/mid.py", prefix=mid_prefix),
        load("closure_pkg/impure.py"),
    )


def test_closure_flags_the_sink_with_the_full_witness_path():
    result = run(HotPathPurityRule(), *closure_sources())
    assert [f.code for f in result.findings] == ["RC101"]
    finding = result.findings[0]
    assert (finding.path, finding.line, finding.col) == (
        "closure_pkg/impure.py", 8, 12,
    )
    assert "comprehension" in finding.message
    # The full entry → mid → sink chain, with call-site locations.
    assert "closure_pkg.hot.probe -> closure_pkg.mid.helper [" in (
        finding.message
    )
    assert "-> closure_pkg.impure.sink [closure_pkg/mid.py:" in (
        finding.message
    )


def test_closure_never_descends_past_a_cold_path_barrier():
    result = run(HotPathPurityRule(), *closure_sources())
    for finding in result.findings:
        assert "build_entry" not in finding.message
        assert "expensive" not in finding.message


def test_closure_ignores_impure_but_unreachable_functions():
    result = run(HotPathPurityRule(), *closure_sources())
    assert all("unreached" not in f.message for f in result.findings)


def test_closure_suppression_at_the_sink_is_honoured_and_consumed():
    result = run(HotPathPurityRule(), *closure_sources())
    assert all("waived_sink" not in f.message for f in result.findings)
    assert result.unused_suppressions == []


def test_moving_a_call_site_keeps_the_fingerprint():
    # One blank line at the top of mid.py moves the helper -> sink call
    # site named in the witness path; the finding in impure.py is the
    # same finding, so its baseline/SARIF identity must not change.
    before = analyze(list(closure_sources()), default_rules()).findings
    after = analyze(
        list(closure_sources(mid_prefix="\n")), default_rules()
    ).findings
    assert len(before) == len(after) == 1
    assert before[0].message != after[0].message
    assert before[0].fingerprint() == after[0].fingerprint()


# ----------------------------------------------------------------------
# RC102 seeded RNG, through the call graph
# ----------------------------------------------------------------------
def rng_sources():
    return (
        load("rng_pkg/__init__.py"),
        load("rng_pkg/engine.py"),
        load("rng_pkg/helpers.py"),
    )


def test_rng_taint_flags_module_random_reached_from_an_engine():
    result = run(SeededRngRule(), *rng_sources())
    jitter = [f for f in result.findings if f.line == 19]
    assert len(jitter) == 1
    assert jitter[0].code == "RC102"
    assert jitter[0].path == "rng_pkg/helpers.py"
    assert "random.random()" in jitter[0].message


def test_rng_taint_sees_the_loop_through_the_call_path():
    # Random(seed + 1) sits in a loop-free function; only the looping
    # call site in the engine's round loop makes it the PR 2 class.
    result = run(SeededRngRule(), *rng_sources())
    fork = [f for f in result.findings if f.line == 15]
    assert len(fork) == 1
    assert fork[0].path == "rng_pkg/helpers.py"
    assert "seed arithmetic" in fork[0].message
    assert (
        "rng_pkg.engine.SweepEngine.run -> rng_pkg.helpers.step "
        "[rng_pkg/engine.py:16] -> rng_pkg.helpers.fork [" in fork[0].message
    )


def test_rng_taint_skips_documented_and_unreachable_draws():
    # Under the full rule set every site is reported once, as RC102,
    # and only the reached seed fork (15) carries a witness path:
    # jitter (19) and unreached_draw (29) are plain per-site findings,
    # and the waived draw (24) is suppressed, its noqa consumed.
    result = analyze(list(rng_sources()), default_rules())
    assert [(f.code, f.path, f.line) for f in result.findings] == [
        ("RC102", "rng_pkg/helpers.py", 15),
        ("RC102", "rng_pkg/helpers.py", 19),
        ("RC102", "rng_pkg/helpers.py", 29),
    ]
    traced = [f.line for f in result.findings if "path:" in f.message]
    assert traced == [15]
    assert result.unused_suppressions == []


def test_rng_rule_needs_a_looping_call_site_for_a_seed_fork():
    # The same helper called once, outside any loop, derives one
    # child RNG — the legal scenario-builder idiom.
    engine = SourceFile(
        "rng_pkg/engine.py",
        "from rng_pkg.helpers import fork\n"
        "\n"
        "\n"
        "class OnceEngine:\n"
        "    def run(self, seed):\n"
        "        return fork(seed)\n",
    )
    result = run(SeededRngRule(), engine, load("rng_pkg/helpers.py"))
    assert all(f.line != 15 for f in result.findings)


# ----------------------------------------------------------------------
# bounded loops: RC106 and RC112, flagged where the loop is written
# ----------------------------------------------------------------------
def test_loop_rule_flags_unbounded_drains_reachable_from_tick():
    sources = (
        load("loop_pkg/ticker.py", path="src/repro/serve/ticker.py"),
        load("loop_pkg/drain.py", path="src/repro/serve/drain.py"),
    )
    result = analyze(
        list(sources), [UnboundedLoopRule(), BoundedRetryRule()]
    )
    # bounded_drain passes, documented_drain's stated bound consumes
    # its suppression, and orphan_spin is flagged though no tick
    # reaches it.
    assert [(f.code, f.path, f.line) for f in result.findings] == [
        ("RC106", "src/repro/serve/drain.py", 8),
        ("RC112", "src/repro/serve/drain.py", 16),
        ("RC106", "src/repro/serve/ticker.py", 30),
    ]
    assert result.unused_suppressions == []
