"""Interprocedural rules RC113–RC116 against the fixture mini-packages.

Each package exercises one rule end to end across function and file
boundaries: a positive finding with its entry→sink witness path, a
negative (unreachable or sanctioned) twin, and a suppressed case.
"""

import pathlib

from repro.analyzer import SourceFile, analyze
from repro.analyzer.rules import (
    FrozenArrayRule,
    HotPathClosureRule,
    ReachableLoopRule,
    RngTaintRule,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "analyzer_fixtures"


def load(name, path=None):
    """A fixture as a SourceFile; ``path`` overrides the analysis path
    for rules that key on path suffixes or module names."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return SourceFile(path or name, text)


def run(rule, *sources):
    return analyze(list(sources), [rule])


# ----------------------------------------------------------------------
# RC113 hot-path closure
# ----------------------------------------------------------------------
def closure_sources():
    return (
        load("closure_pkg/__init__.py"),
        load("closure_pkg/hot.py"),
        load("closure_pkg/mid.py"),
        load("closure_pkg/impure.py"),
    )


def test_closure_flags_the_sink_with_the_full_witness_path():
    result = run(HotPathClosureRule(), *closure_sources())
    assert [f.code for f in result.findings] == ["RC113"]
    finding = result.findings[0]
    assert finding.path == "closure_pkg/impure.py"
    assert "comprehension" in finding.message
    # The full entry → mid → sink chain, with call-site locations.
    assert "closure_pkg.hot.probe -> closure_pkg.mid.helper [" in (
        finding.message
    )
    assert "-> closure_pkg.impure.sink [closure_pkg/mid.py:" in (
        finding.message
    )


def test_closure_never_descends_past_a_cold_path_barrier():
    result = run(HotPathClosureRule(), *closure_sources())
    for finding in result.findings:
        assert "build_entry" not in finding.message
        assert "expensive" not in finding.message


def test_closure_ignores_impure_but_unreachable_functions():
    result = run(HotPathClosureRule(), *closure_sources())
    assert all("unreached" not in f.message for f in result.findings)


def test_closure_suppression_at_the_sink_is_honoured_and_consumed():
    result = run(HotPathClosureRule(), *closure_sources())
    assert all("waived_sink" not in f.message for f in result.findings)
    assert result.unused_suppressions == []


# ----------------------------------------------------------------------
# RC114 rng taint
# ----------------------------------------------------------------------
def rng_sources():
    return (
        load("rng_pkg/__init__.py"),
        load("rng_pkg/engine.py"),
        load("rng_pkg/helpers.py"),
    )


def test_rng_taint_flags_module_random_reached_from_an_engine():
    result = run(RngTaintRule(), *rng_sources())
    jitter = [f for f in result.findings if "jitter" in f.message]
    assert len(jitter) == 1
    assert jitter[0].code == "RC114"
    assert jitter[0].path == "rng_pkg/helpers.py"
    assert "random.random" in jitter[0].message
    assert "SweepEngine.run -> rng_pkg.helpers.step [" in jitter[0].message


def test_rng_taint_sees_the_loop_through_the_call_path():
    # Random(seed + 1) sits in a loop-free function; only the looping
    # call site in the engine's round loop makes it the PR 2 class.
    result = run(RngTaintRule(), *rng_sources())
    fork = [f for f in result.findings if "fork" in f.message]
    assert len(fork) == 1
    assert "seed + 1" in fork[0].message or "seed arithmetic" in (
        fork[0].message
    )
    assert "-> rng_pkg.helpers.fork [" in fork[0].message


def test_rng_taint_skips_documented_and_unreachable_draws():
    result = run(RngTaintRule(), *rng_sources())
    assert len(result.findings) == 2  # jitter + fork, nothing else
    for finding in result.findings:
        assert "waived_draw" not in finding.message
        assert "unreached_draw" not in finding.message


# ----------------------------------------------------------------------
# RC115 frozen-array mutation
# ----------------------------------------------------------------------
def frozen_sources():
    return (
        load("frozen_pkg/compile_stub.py", path="src/repro/fastpath/compile.py"),
        load("frozen_pkg/mutate.py"),
    )


def test_frozen_rule_flags_stores_through_annotated_parameters():
    result = run(FrozenArrayRule(), *frozen_sources())
    messages = [f.message for f in result.findings]
    assert all(f.code == "RC115" for f in result.findings)
    assert any(
        "corrupt_child" in m and "subscript store" in m
        and "CompiledTrie.child" in m
        for m in messages
    )
    assert any(
        "bump_fd" in m and "in-place store" in m
        and "CompiledClueTable.rec_fd" in m
        for m in messages
    )


def test_frozen_rule_resolves_self_attribute_types():
    result = run(FrozenArrayRule(), *frozen_sources())
    attr = [
        f for f in result.findings if "corrupt_through_attr" in f.message
    ]
    assert len(attr) == 1
    assert "CompiledClueTable.rec_fd" in attr[0].message


def test_frozen_rule_permits_rebind_scalar_compiler_and_waived_stores():
    result = run(FrozenArrayRule(), *frozen_sources())
    assert len(result.findings) == 3
    for finding in result.findings:
        assert finding.path == "frozen_pkg/mutate.py"
        for legal in ("legal_rebind", "legal_scalar", "relayout",
                      "waived_patch"):
            assert legal not in finding.message
    assert result.unused_suppressions == []


def probe_sources():
    return (
        load("frozen_pkg/compile_stub.py", path="src/repro/fastpath/compile.py"),
        load("frozen_pkg/mutate_probe.py"),
    )


def test_frozen_rule_guards_the_merged_clue_probe():
    result = run(FrozenArrayRule(), *probe_sources())
    messages = [f.message for f in result.findings]
    assert len(result.findings) == 2
    assert any(
        "splice_probe_key" in m and "subscript store" in m
        and "CompiledClueTable.probe_keys" in m
        for m in messages
    )
    assert any(
        "retarget_probe" in m and "in-place store" in m
        and "CompiledClueTable.probe_recs" in m
        for m in messages
    )
    for finding in result.findings:
        assert finding.path == "frozen_pkg/mutate_probe.py"
        assert "legal_probe_rebind" not in finding.message


def layout_sources():
    return (
        load("frozen_pkg/layouts_stub.py", path="src/repro/fastpath/layouts.py"),
        load("frozen_pkg/mutate_layout.py"),
    )


def test_frozen_rule_flags_multibit_layout_stores():
    result = run(FrozenArrayRule(), *layout_sources())
    messages = [f.message for f in result.findings]
    assert all(f.code == "RC115" for f in result.findings)
    assert any(
        "corrupt_slot" in m and "subscript store" in m
        and "CompiledMultibitTrie.slots" in m
        for m in messages
    )
    assert any(
        "bump_leaf" in m and "in-place store" in m
        and "CompiledMultibitTrie.leaf_codes" in m
        for m in messages
    )
    attr = [f for f in result.findings if "corrupt_through_attr" in f.message]
    assert len(attr) == 1
    assert "CompiledMultibitTrie.slots" in attr[0].message


def test_frozen_rule_sanctions_the_layout_compiler_itself():
    result = run(FrozenArrayRule(), *layout_sources())
    assert len(result.findings) == 3
    for finding in result.findings:
        assert finding.path == "frozen_pkg/mutate_layout.py"
        for legal in ("legal_rebind_slots", "legal_scalar_field", "repack"):
            assert legal not in finding.message


# ----------------------------------------------------------------------
# RC116 reachable unbudgeted loops
# ----------------------------------------------------------------------
def loop_sources():
    return (
        load("loop_pkg/ticker.py", path="src/repro/serve/ticker.py"),
        load("loop_pkg/drain.py", path="src/repro/serve/drain.py"),
    )


def test_loop_rule_flags_unbounded_drains_reachable_from_tick():
    result = run(ReachableLoopRule(), *loop_sources())
    messages = [f.message for f in result.findings]
    assert all(f.code == "RC116" for f in result.findings)
    assert any(
        "drain_forever" in m and "while True:" in m
        and "repro.serve.ticker.tick -> repro.serve.drain.drain_forever ["
        in m
        for m in messages
    )
    assert any(
        "retry_send" in m and "retry loop" in m for m in messages
    )


def test_loop_rule_skips_bounded_documented_and_unreached_loops():
    result = run(ReachableLoopRule(), *loop_sources())
    assert len(result.findings) == 2
    for finding in result.findings:
        assert "bounded_drain" not in finding.message
        assert "documented_drain" not in finding.message
        assert "orphan_spin" not in finding.message


def test_loop_rule_needs_a_serving_module_path():
    # The same files under their fixture paths are not a serving plane:
    # no entry points, no findings.
    result = run(
        ReachableLoopRule(),
        load("loop_pkg/ticker.py"),
        load("loop_pkg/drain.py"),
    )
    assert result.findings == []
