"""Analyzer throughput: a full-tree ``repro-clue lint`` pass.

The lint job runs on every CI push and pre-commit habits only stick
when the tool is fast, so the full sweep over ``src/repro`` — parse,
ten rules, suppression + baseline reconciliation — is pinned here.
The interesting number is files (and source lines) per second: the
engine parses each file exactly once and hands the same AST to every
rule, so cost should grow linearly with tree size, not rule count.
"""

from __future__ import annotations

import os
import time

from repro.analyzer import analyze, default_rules, load_files

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "repro")


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_full_tree_analysis_throughput():
    files = load_files([_SRC])
    lines = sum(len(source.lines) for source in files)
    rules = default_rules()

    parse = _best_of(lambda: load_files([_SRC]))
    check = _best_of(lambda: analyze(files, rules))
    total = _best_of(lambda: analyze(load_files([_SRC]), rules))

    result = analyze(files, rules)
    print()
    print(
        "analyzer: %d files / %d lines, %d rules" % (
            len(files), lines, len(rules),
        )
    )
    print(
        "  load+parse %.1f ms, rules %.1f ms, end-to-end %.1f ms "
        "(%.0f files/s, %.0f klines/s)"
        % (
            1e3 * parse,
            1e3 * check,
            1e3 * total,
            len(files) / total,
            lines / total / 1e3,
        )
    )

    # Sanity: the sweep actually ran, and stays interactive even on
    # slow CI runners (seed tree takes ~0.5 s end-to-end locally).
    if len(files) < 50:
        raise AssertionError("analyzer saw only %d files" % len(files))
    if total > 30.0:
        raise AssertionError("full-tree lint took %.1f s" % total)
