"""Unit tests for synthetic table generation and neighbour derivation."""

import pytest

from repro.addressing import Prefix
from repro.tablegen import (
    DEFAULT_IPV4_HISTOGRAM,
    NeighborProfile,
    PAPER_PAIRS,
    PAPER_TABLE_SIZES,
    TableGenerator,
    derive_neighbor,
    generate_table,
    mean_length,
    normalise,
    paper_router_tables,
    subset_table,
)
from repro.trie import BinaryTrie, TrieOverlay


class TestHistogram:
    def test_normalise_sums_to_one(self):
        normal = normalise(DEFAULT_IPV4_HISTOGRAM)
        assert sum(normal.values()) == pytest.approx(1.0)

    def test_normalise_rejects_empty(self):
        with pytest.raises(ValueError):
            normalise({})

    def test_normalise_rejects_negative(self):
        with pytest.raises(ValueError):
            normalise({8: -1.0})

    def test_mean_length_in_1999_band(self):
        # /24-dominated tables have a mean around 21-23 bits.
        assert 19 <= mean_length(DEFAULT_IPV4_HISTOGRAM) <= 24


class TestTableGenerator:
    def test_generates_requested_count(self):
        table = generate_table(500, seed=1)
        assert len(table) == 500

    def test_prefixes_unique(self):
        table = generate_table(500, seed=2)
        prefixes = [prefix for prefix, _ in table]
        assert len(prefixes) == len(set(prefixes))

    def test_deterministic_given_seed(self):
        assert generate_table(200, seed=3) == generate_table(200, seed=3)

    def test_different_seeds_differ(self):
        assert generate_table(200, seed=3) != generate_table(200, seed=4)

    def test_sorted_output(self):
        table = generate_table(300, seed=5)
        keys = [(prefix.length, prefix.bits) for prefix, _ in table]
        assert keys == sorted(keys)

    def test_length_distribution_tracks_histogram(self):
        table = generate_table(4000, seed=6)
        histogram = {}
        for prefix, _ in table:
            histogram[prefix.length] = histogram.get(prefix.length, 0) + 1
        # /24 must dominate as in 1999 tables.
        assert max(histogram, key=histogram.get) == 24
        assert histogram[24] / len(table) > 0.35

    def test_nesting_produces_more_specifics(self):
        table = generate_table(2000, seed=7)
        trie = BinaryTrie.from_prefixes(table)
        nested = sum(
            1
            for prefix, _ in table
            if trie.least_marked_ancestor(prefix, include_self=False) is not None
        )
        assert nested / len(table) > 0.2

    def test_zero_count(self):
        assert generate_table(0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            TableGenerator(nesting=1.5)
        with pytest.raises(ValueError):
            TableGenerator(top_blocks=0)
        with pytest.raises(ValueError):
            TableGenerator(next_hops=())
        with pytest.raises(ValueError):
            generate_table(-1)

    def test_custom_next_hops(self):
        table = generate_table(50, seed=8, next_hops=("only",))
        assert all(hop == "only" for _, hop in table)


class TestDeriveNeighbor:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            NeighborProfile(drop=2.0)

    def test_high_similarity_by_default(self):
        base = generate_table(800, seed=10)
        neighbor = derive_neighbor(base, seed=11)
        overlay = TrieOverlay(
            BinaryTrie.from_prefixes(base), BinaryTrie.from_prefixes(neighbor)
        )
        stats = overlay.statistics()
        assert stats["equal_prefixes"] / len(base) > 0.9

    def test_add_specifics_creates_problematic_clues(self):
        base = generate_table(800, seed=12)
        calm = derive_neighbor(
            base, NeighborProfile(add_specifics=0.0, add=0.0, drop=0.0), seed=13
        )
        spiky = derive_neighbor(
            base, NeighborProfile(add_specifics=0.05, add=0.0, drop=0.0), seed=13
        )
        base_trie = BinaryTrie.from_prefixes(base)
        calm_count = len(
            TrieOverlay(base_trie, BinaryTrie.from_prefixes(calm)).problematic_clues()
        )
        spiky_count = len(
            TrieOverlay(base_trie, BinaryTrie.from_prefixes(spiky)).problematic_clues()
        )
        assert spiky_count > calm_count

    def test_aggregation_removes_specifics(self):
        base = generate_table(500, seed=14)
        aggregated = derive_neighbor(
            base,
            NeighborProfile(drop=0.0, add=0.0, add_specifics=0.0, aggregate=0.3),
            seed=15,
        )
        base_prefixes = {prefix for prefix, _ in base}
        neighbor_prefixes = {prefix for prefix, _ in aggregated}
        assert len(base_prefixes - neighbor_prefixes) > 0

    def test_deterministic(self):
        base = generate_table(300, seed=16)
        assert derive_neighbor(base, seed=17) == derive_neighbor(base, seed=17)


class TestSubsetTable:
    def test_is_mostly_subset(self):
        base = generate_table(1000, seed=18)
        subset = subset_table(base, 400, seed=19, extra_fraction=0.01)
        base_prefixes = {prefix for prefix, _ in base}
        inside = sum(1 for prefix, _ in subset if prefix in base_prefixes)
        assert inside / len(subset) > 0.95

    def test_requested_size_approximate(self):
        base = generate_table(1000, seed=20)
        subset = subset_table(base, 400, seed=21)
        assert 380 <= len(subset) <= 440

    def test_default_route_roots_one_family(self):
        # The family climb stops at the default route, which roots every
        # family once it is marked: the root has no strict ancestor.
        base = [
            (Prefix.parse("0.0.0.0/0"), "d"),
            (Prefix.parse("10.0.0.0/8"), "a"),
            (Prefix.parse("10.1.0.0/16"), "b"),
        ]
        subset = subset_table(base, 2, seed=1)
        # One family, kept whole.
        assert sorted(subset) == sorted(base)


class TestPaperRouterTables:
    def test_all_seven_routers_present(self):
        tables = paper_router_tables(scale=0.02, seed=1)
        assert set(tables) == set(PAPER_TABLE_SIZES)

    def test_sizes_scale(self):
        tables = paper_router_tables(scale=0.02, seed=1)
        for name, entries in tables.items():
            expected = PAPER_TABLE_SIZES[name] * 0.02
            assert abs(len(entries) - expected) / expected < 0.25, name

    def test_pairs_are_similar(self):
        tables = paper_router_tables(scale=0.02, seed=1)
        for sender, receiver in PAPER_PAIRS:
            overlay = TrieOverlay(
                BinaryTrie.from_prefixes(tables[sender]),
                BinaryTrie.from_prefixes(tables[receiver]),
            )
            stats = overlay.statistics()
            smaller = min(stats["sender_prefixes"], stats["receiver_prefixes"])
            assert stats["equal_prefixes"] / smaller > 0.8, (sender, receiver)

    def test_problematic_fraction_in_paper_regime(self):
        tables = paper_router_tables(scale=0.02, seed=1)
        for sender, receiver in PAPER_PAIRS:
            overlay = TrieOverlay(
                BinaryTrie.from_prefixes(tables[sender]),
                BinaryTrie.from_prefixes(tables[receiver]),
            )
            stats = overlay.statistics()
            fraction = stats["problematic_clues"] / stats["sender_prefixes"]
            # Claim 1 holds for 93%+ of clues (paper: 95-99.5%).
            assert fraction < 0.07, (sender, receiver, fraction)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            paper_router_tables(scale=0.0)
