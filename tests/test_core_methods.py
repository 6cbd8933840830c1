"""Unit tests for the Simple and Advance clue-table builders.

The handcrafted pair (conftest) pins down the paper's case analysis
exactly; the generated pair checks the statistical regime.
"""

import pytest

from repro.addressing import Prefix
from repro.core import AdvanceMethod, ReceiverState, SimpleMethod
from repro.core.receiver import TECHNIQUES
from tests.conftest import p


class TestReceiverState:
    def test_structures_agree(self, tiny_receiver):
        assert set(tiny_receiver.trie.prefixes()) == set(
            tiny_receiver.patricia.prefixes()
        )

    def test_fd_for_present_clue(self, tiny_receiver):
        assert tiny_receiver.fd_for_clue(p("00")) == (p("00"), "r-a")

    def test_fd_for_absent_clue_is_least_ancestor(self, tiny_receiver):
        # 0101 is absent; its deepest marked ancestor at the receiver is
        # the root region: only "00" and nothing on the 01 branch → no
        # ancestor, FD is (None, None).
        assert tiny_receiver.fd_for_clue(p("0101")) == (None, None)

    def test_fd_walks_partial_paths(self, tiny_receiver):
        assert tiny_receiver.fd_for_clue(p("1100")) == (p("1100"), "r-d")
        assert tiny_receiver.fd_for_clue(p("110")) == (p("1"), "r-c")


class TestSimpleMethod:
    def test_rejects_unknown_technique(self, tiny_receiver):
        with pytest.raises(ValueError):
            SimpleMethod(tiny_receiver, technique="quantum")

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_ptr_empty_iff_no_descendants(self, tiny_receiver, technique):
        method = SimpleMethod(tiny_receiver, technique)
        # "00" has descendant 0010 → pointer set.
        assert not method.build_entry(p("00")).pointer_empty()
        # "1100" is a leaf → pointer empty.
        assert method.build_entry(p("1100")).pointer_empty()
        # "0101" absent → pointer empty.
        assert method.build_entry(p("0101")).pointer_empty()

    def test_fd_recorded(self, tiny_receiver):
        entry = SimpleMethod(tiny_receiver).build_entry(p("00"))
        assert entry.final_decision() == (p("00"), "r-a")

    def test_build_table(self, tiny_receiver, tiny_sender_trie):
        method = SimpleMethod(tiny_receiver)
        table = method.build_table(tiny_sender_trie.prefixes())
        assert len(table) == 5


class TestAdvanceMethod:
    def test_rejects_unknown_technique(self, tiny_sender_trie, tiny_receiver):
        with pytest.raises(ValueError):
            AdvanceMethod(tiny_sender_trie, tiny_receiver, technique="quantum")

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_case1_absent_vertex(self, tiny_sender_trie, tiny_receiver, technique):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver, technique)
        entry = method.build_entry(p("0101"))
        assert entry.pointer_empty()
        assert entry.final_decision() == (None, None)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_case2_claim1_holds(self, tiny_sender_trie, tiny_receiver, technique):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver, technique)
        # "1" has receiver descendants but Claim 1 holds (1100 shared):
        # the Ptr must be empty where Simple would have searched.
        entry = method.build_entry(p("1"))
        assert entry.pointer_empty()
        assert entry.final_decision() == (p("1"), "r-c")

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_case3_problematic(self, tiny_sender_trie, tiny_receiver, technique):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver, technique)
        entry = method.build_entry(p("00"))
        assert not entry.pointer_empty()

    def test_potential_candidates_carry_next_hops(
        self, tiny_sender_trie, tiny_receiver
    ):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver)
        assert method.potential_candidates(p("00")) == [(p("0010"), "r-b")]

    def test_build_table_defaults_to_sender_universe(
        self, tiny_sender_trie, tiny_receiver
    ):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver)
        table = method.build_table()
        assert len(table) == len(tiny_sender_trie)
        assert table.pointer_count() == 1  # only "00"

    def test_problematic_fraction(self, tiny_sender_trie, tiny_receiver):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver)
        assert method.problematic_fraction() == pytest.approx(1 / 5)

    def test_walk_continuations_hold_the_live_problematic_set(
        self, tiny_sender_trie, tiny_receiver
    ):
        for technique in ("patricia", "regular"):
            method = AdvanceMethod(tiny_sender_trie, tiny_receiver, technique)
            continuation = method.build_entry(p("00")).continuation
            assert continuation.problematic is method.overlay.problematic

    def test_generated_pair_pointer_fraction_small(self, pair_structures):
        sender_trie, receiver = pair_structures
        method = AdvanceMethod(sender_trie, receiver, "binary")
        table = method.build_table()
        # §3.5: fewer than 10% of Advance entries need the Ptr field.
        assert table.pointer_count() / len(table) < 0.10
