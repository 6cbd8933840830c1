"""Unit tests for the overlay / Claim 1 machinery, on handcrafted tries.

The fixture pair (see conftest) realises the paper's three Advance cases:
clue ``0101`` is absent at the receiver (case 1), clue ``1`` satisfies
Claim 1 through the shared prefix ``1100`` (case 2), and clue ``00`` is
problematic because the receiver's ``0010`` extends it with no sender
prefix on the way (case 3 / Figure 6).
"""

import pytest

from repro.addressing import Prefix
from repro.trie import BinaryTrie, TrieOverlay
from tests.conftest import p


@pytest.fixture
def overlay(tiny_sender_trie, tiny_receiver):
    return TrieOverlay(tiny_sender_trie, tiny_receiver.trie)


class TestConstruction:
    def test_rejects_mixed_widths(self, tiny_sender_trie):
        with pytest.raises(ValueError):
            TrieOverlay(tiny_sender_trie, BinaryTrie(width=128))

    def test_marks_both_sides(self, overlay):
        # 0010 only the receiver has: it and 001 above it are unclaimed.
        # 00 both have, so it claims everything below it, yet Claim 1
        # fails there and at 001, whose children are unclaimed.
        assert overlay.unclaimed == {p("001"), p("0010")}
        assert overlay.problematic == {p("00"), p("001")}

    def test_find_absent(self, overlay):
        # Only receiver vertices enter the sets: 0101 only the sender
        # has, 111111 neither.
        for prefix in (p("0101"), p("111111")):
            assert prefix not in overlay.unclaimed
            assert prefix not in overlay.problematic


class TestClaim1:
    def test_case2_shared_extension_satisfies_claim(self, overlay):
        # The only receiver prefix below "1" is "1100", which the sender
        # also has: any path meets a sender prefix at the same time.
        assert overlay.claim1_holds(p("1"))

    def test_case3_unclaimed_extension_violates_claim(self, overlay):
        # "0010" extends "00" at the receiver with no sender prefix on the
        # path: the inverse of Claim 1 (Figure 6).
        assert overlay.is_problematic(p("00"))

    def test_case1_absent_clue_satisfies_claim(self, overlay):
        # "0101" is not a vertex of the receiver's trie at all.
        assert overlay.claim1_holds(p("0101"))

    def test_leaf_clue_satisfies_claim(self, overlay):
        assert overlay.claim1_holds(p("1100"))

    def test_clue_zero_problematic_through_unmarked_path(self, overlay):
        # "0" has receiver descendants 00 (marked2+marked1)... every path
        # from "0" to a receiver prefix passes 00 which is a sender prefix,
        # so Claim 1 holds for "0".
        assert overlay.claim1_holds(p("0"))


class TestPotentialSet:
    def test_potential_set_of_problematic_clue(self, overlay):
        assert overlay.potential_set(p("00")) == [p("0010")]

    def test_potential_set_empty_when_claim_holds(self, overlay):
        assert overlay.potential_set(p("1")) == []
        assert overlay.potential_set(p("0101")) == []

    def test_potential_set_cut_by_sender_prefix(self):
        # Receiver has 0, 00, 000; sender has 0 and 00: from clue 0 the
        # receiver prefix 00 is also a sender prefix so it and everything
        # below it are excluded.
        sender = BinaryTrie.from_prefixes([(p("0"), "s"), (p("00"), "s")])
        receiver = BinaryTrie.from_prefixes(
            [(p("0"), "r"), (p("00"), "r"), (p("000"), "r")]
        )
        overlay = TrieOverlay(sender, receiver)
        assert overlay.potential_set(p("0")) == []
        # But from clue 00 the receiver's 000 is exposed.
        assert overlay.potential_set(p("00")) == [p("000")]

    def test_potential_set_sorted(self):
        sender = BinaryTrie.from_prefixes([(p("0"), "s")])
        receiver = BinaryTrie.from_prefixes(
            [(p("011"), "r"), (p("00"), "r"), (p("0101"), "r")]
        )
        overlay = TrieOverlay(sender, receiver)
        result = overlay.potential_set(p("0"))
        assert result == sorted(result, key=lambda q: (q.length, q.bits))


class TestStopBooleans:
    """A walk stops at every vertex outside ``problematic`` (§4)."""

    def test_stop_true_where_claim_holds(self, overlay):
        assert p("1") not in overlay.problematic
        assert p("00") in overlay.problematic

    def test_stop_at_every_leaf(self, overlay):
        assert p("1100") not in overlay.problematic
        assert p("0010") not in overlay.problematic


class TestStatistics:
    def test_equal_prefixes(self, overlay):
        # Shared: 00, 1, 1100.
        assert overlay.equal_prefixes() == 3

    def test_problematic_clues_default_universe(self, overlay):
        assert overlay.problematic_clues() == [p("00")]

    def test_problematic_clues_custom_universe(self, overlay):
        assert overlay.problematic_clues(iter([p("1"), p("0101")])) == []

    def test_statistics_dict(self, overlay):
        stats = overlay.statistics()
        assert stats == {
            "sender_prefixes": 5,
            "receiver_prefixes": 4,
            "equal_prefixes": 3,
            "problematic_clues": 1,
        }


class TestGeneratedPair:
    def test_problematic_fraction_is_small(self, pair_structures):
        sender_trie, receiver = pair_structures
        overlay = TrieOverlay(sender_trie, receiver.trie)
        stats = overlay.statistics()
        fraction = stats["problematic_clues"] / stats["sender_prefixes"]
        # The paper's regime: Claim 1 holds for 95-99.5% of clues.
        assert fraction < 0.05

    def test_problematic_definition_bruteforce(self, pair_structures):
        """Claim 1 versus its brute-force definition on a sample of clues."""
        sender_trie, receiver = pair_structures
        overlay = TrieOverlay(sender_trie, receiver.trie)
        clues = list(sender_trie.prefixes())[::37]
        for clue in clues:
            expected = False
            for node in receiver.trie.marked_in_subtree(clue):
                q = node.prefix
                if q.length <= clue.length:
                    continue
                blocked = False
                probe = q
                while probe.length > clue.length:
                    if sender_trie.contains(probe):
                        blocked = True
                        break
                    probe = probe.parent()
                if not blocked:
                    expected = True
                    break
            assert overlay.is_problematic(clue) == expected, str(clue)
