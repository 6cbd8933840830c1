"""Shared fixtures: handcrafted tables for precise cases, generated pairs
for statistical ones.  Expensive structures are session-scoped."""

from __future__ import annotations

import os
import pathlib
import random

import pytest

from repro.addressing import Prefix
from repro.core.receiver import ReceiverState
from repro.tablegen import NeighborProfile, derive_neighbor, generate_table
from repro.trie.binary_trie import BinaryTrie


def p(bits: str) -> Prefix:
    """Shorthand: a prefix from a literal bit string."""
    return Prefix.from_bitstring(bits)


@pytest.fixture
def trie_inserts(monkeypatch):
    """The prefixes passed to ``BinaryTrie.insert`` while a test runs."""
    calls = []
    insert = BinaryTrie.insert

    def counting(trie, prefix, next_hop):
        calls.append(prefix)
        return insert(trie, prefix, next_hop)

    monkeypatch.setattr(BinaryTrie, "insert", counting)
    return calls


@pytest.fixture
def tiny_sender_entries():
    """A handcrafted sender table (t1) used by the Claim 1 case tests."""
    return [
        (p("0"), "s-a"),
        (p("00"), "s-b"),
        (p("0101"), "s-c"),
        (p("1"), "s-d"),
        (p("1100"), "s-e"),
    ]


@pytest.fixture
def tiny_receiver_entries():
    """A handcrafted receiver table (t2) paired with the sender above.

    Structure relative to t1:
    * ``00`` shared; receiver extends it with ``0010`` while the sender has
      ``0010``'s sibling region unclaimed → problematic clue ``00``;
    * ``0101`` missing at the receiver (Advance case 1 for that clue);
    * ``1`` shared; the receiver's only extension ``1100`` is also a sender
      prefix → Claim 1 holds for clue ``1`` (case 2);
    * ``1100`` shared leaf.
    """
    return [
        (p("00"), "r-a"),
        (p("0010"), "r-b"),
        (p("1"), "r-c"),
        (p("1100"), "r-d"),
    ]


@pytest.fixture
def tiny_sender_trie(tiny_sender_entries):
    return BinaryTrie.from_prefixes(tiny_sender_entries)


@pytest.fixture
def tiny_receiver(tiny_receiver_entries):
    return ReceiverState(tiny_receiver_entries)


@pytest.fixture(scope="session")
def pair_tables():
    """A generated (sender, receiver) neighbour pair, medium size."""
    sender = generate_table(1200, seed=101)
    receiver = derive_neighbor(
        sender, NeighborProfile(add_specifics=0.01), seed=102
    )
    return sender, receiver


@pytest.fixture(scope="session")
def pair_structures(pair_tables):
    """(sender_trie, receiver_state) for the generated pair."""
    sender, receiver = pair_tables
    return BinaryTrie.from_prefixes(sender), ReceiverState(receiver)


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture(scope="session")
def live_tree():
    """``(files, result)``: one full-rule lint analysis of ``src/repro``
    with repo-relative paths, shared by the in-process live-tree checks."""
    from repro.analyzer import analyze, default_rules, load_files

    root = pathlib.Path(__file__).resolve().parent.parent
    previous = os.getcwd()
    os.chdir(root)
    try:
        files = load_files(["src/repro"])
        return files, analyze(files, default_rules())
    finally:
        os.chdir(previous)
