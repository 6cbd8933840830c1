"""Unit tests for packets, routers and the forwarding fabric."""

import gc
import random

import pytest

from repro.addressing import Address, Prefix
from repro.netsim import ClueRouter, LegacyRouter, Network, Packet
from repro.netsim.invariant import Traffic, forward_audited
from repro.routing import PathVectorRouting, chain_topology
from tests.conftest import p


def addr(bits: str) -> Address:
    return Address(int(bits, 2) << (32 - len(bits)), 32)


@pytest.fixture
def chain_tables():
    """Three-router chain: r0 -> r1 -> r2, destination homed at r2."""
    return {
        "r0": [(p("0001"), "r1"), (p("1"), "r1")],
        "r1": [(p("0001"), "r2"), (p("00010001"), "r2"), (p("1"), "r0")],
        "r2": [(p("0001"), "r2"), (p("00010001"), "r2"), (p("1"), "r1")],
    }


class TestPacket:
    def test_initial_state(self):
        packet = Packet(addr("0001"))
        assert not packet.clue.carries_clue()
        assert packet.hop_count() == 0
        assert packet.total_accesses() == 0

    def test_clue_prefix_decoding(self):
        packet = Packet(addr("0001"))
        packet.clue.length = 4
        assert packet.clue_prefix() == p("0001")


class TestClueRouter:
    def test_stamps_own_bmp_as_clue(self, chain_tables):
        router = ClueRouter("r0", chain_tables["r0"])
        packet = Packet(addr("00010001"))
        next_hop = router.process(packet)
        assert next_hop == "r1"
        assert packet.clue.length == 4  # r0's BMP is 0001

    def test_downstream_uses_clue(self, chain_tables):
        r0 = ClueRouter("r0", chain_tables["r0"])
        r1 = ClueRouter("r1", chain_tables["r1"])
        r1.register_neighbor("r0", chain_tables["r0"])
        packet = Packet(addr("00010001"))
        r0.process(packet)
        # warm r1's learned table, then measure.
        r1.process(Packet(addr("00010001")), None)
        warm = Packet(addr("00010001"))
        r0.process(warm)
        r1.process(warm, "r0")
        measured = Packet(addr("00010001"))
        r0.process(measured)
        r1.process(measured, "r0")
        # r1's record: clue-table probe + tiny continuation.
        assert measured.trace[-1].accesses <= 3
        assert measured.trace[-1].bmp == p("00010001")

    def test_clue_cleared_on_miss(self):
        router = ClueRouter("r0", [(p("1"), "r1")])
        packet = Packet(addr("0000"))
        assert router.process(packet) is None
        assert not packet.clue.carries_clue()

    def test_truncation_knob(self, chain_tables):
        router = ClueRouter("r0", chain_tables["r0"], truncate_clues_to=2)
        packet = Packet(addr("00010001"))
        router.process(packet)
        assert packet.clue.length == 2

    def test_rejects_unknown_method(self, chain_tables):
        with pytest.raises(ValueError):
            ClueRouter("r0", chain_tables["r0"], method="telepathy")

    def test_preprocess_builds_table_upfront(self, chain_tables):
        router = ClueRouter("r1", chain_tables["r1"], preprocess=True)
        router.register_neighbor("r0", chain_tables["r0"])
        packet = Packet(addr("00010001"))
        packet.clue.length = 4
        router.process(packet, "r0")
        lookup = router._lookups["r0"]
        assert lookup.misses == 0 and lookup.hits == 1

    def test_registered_table_is_a_snapshot(self, chain_tables):
        # r1 builds r0's trie on first read, after r0's own table has
        # changed; the Advance lookup still uses r0's table as registered.
        r0 = ClueRouter("r0", chain_tables["r0"])
        r1 = ClueRouter("r1", chain_tables["r1"])
        r1.register_neighbor("r0", chain_tables["r0"])
        r0.apply_update(add=[(p("00010001"), "r1")])
        packet = Packet(addr("00010001"))
        packet.clue.length = 4
        assert r1.process(packet, "r0") == "r2"
        # As registered, r0 lacks 00010001, so clue 0001 fails Claim 1
        # and the resumed search finds r1's longer match.
        assert packet.trace[-1].bmp == p("00010001")
        assert r1._lookups["r0"].table.record(p("0001")).continuation is not None
        assert set(r1._neighbor_tries["r0"].prefixes()) == {p("0001"), p("1")}

    def test_clue_table_sizes(self, chain_tables):
        router = ClueRouter("r1", chain_tables["r1"])
        packet = Packet(addr("00010001"))
        packet.clue.length = 4
        router.process(packet, "r0")
        assert router.clue_table_sizes() == {"r0": 1}


class TestLegacyRouter:
    def test_relays_clue_by_default(self, chain_tables):
        router = LegacyRouter("r1", chain_tables["r1"])
        packet = Packet(addr("00010001"))
        packet.clue.length = 4
        router.process(packet, "r0")
        assert packet.clue.length == 4

    def test_strips_clue_when_configured(self, chain_tables):
        router = LegacyRouter("r1", chain_tables["r1"], relay_clues=False)
        packet = Packet(addr("00010001"))
        packet.clue.length = 4
        router.process(packet, "r0")
        assert not packet.clue.carries_clue()

    def test_never_uses_clue(self, chain_tables):
        router = LegacyRouter("r1", chain_tables["r1"])
        with_clue = Packet(addr("00010001"))
        with_clue.clue.length = 4
        without = Packet(addr("00010001"))
        router.process(with_clue, "r0")
        router.process(without, "r0")
        assert with_clue.trace[0].accesses == without.trace[0].accesses


class TestNetwork:
    def test_duplicate_names_rejected(self, chain_tables):
        network = Network()
        network.add_router(LegacyRouter("r0", chain_tables["r0"]))
        with pytest.raises(ValueError):
            network.add_router(LegacyRouter("r0", chain_tables["r0"]))

    def test_unknown_start_rejected(self):
        with pytest.raises(KeyError):
            Network().send(addr("0001"), "nowhere")

    def test_delivery_along_chain(self, chain_tables):
        network = Network()
        for name, entries in chain_tables.items():
            network.add_router(ClueRouter(name, entries))
        report = network.send(addr("00010001"), "r0")
        assert report.delivered
        assert report.path == ["r0", "r1", "r2"]
        assert report.exit_reason == "local"

    def test_no_route(self, chain_tables):
        network = Network()
        network.add_router(LegacyRouter("r0", [(p("1"), "r0")]))
        report = network.send(addr("0000"), "r0")
        assert not report.delivered
        assert report.exit_reason == "no-route"

    def test_egress(self):
        network = Network()
        network.add_router(LegacyRouter("r0", [(p("1"), "elsewhere")]))
        report = network.send(addr("1000"), "r0")
        assert report.delivered
        assert report.exit_reason == "egress"

    def test_ttl_guards_loops(self):
        network = Network()
        network.add_router(LegacyRouter("a", [(p("1"), "b")]))
        network.add_router(LegacyRouter("b", [(p("1"), "a")]))
        report = network.forward(Packet(addr("1000"), ttl=8), "a")
        assert not report.delivered
        assert report.exit_reason == "ttl-exceeded"
        assert len(report.path) == 8

    def test_from_pathvector_registers_neighbors(self):
        graph = chain_topology(3)
        graph.nodes["r2"]["originated"] = [p("0001")]
        routing = PathVectorRouting(graph)
        routing.run()
        network = Network.from_pathvector(routing)
        report = network.send(addr("00011"), "r0")
        assert report.delivered
        assert report.path == ["r0", "r1", "r2"]
        # r1 knows r0's and r2's tables.
        assert set(network.routers["r1"].neighbor_names()) == {"r0", "r2"}

    def test_mesh_build_ends_in_one_young_collection(self):
        # The routers outlive the build, so it runs with the collector
        # paused and ends in one pass over the young generations; left
        # alone it took some 35 passes that freed nothing.
        seen = []

        def on_gc(phase, info):
            if phase == "start":
                seen.append(info["generation"])

        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            Network.mesh(5, 20, seed=0)
        finally:
            gc.callbacks.remove(on_gc)
        assert gc.isenabled()
        assert seen[-1:] == [1]
        assert len(seen) <= 2


class TestAuditedTraffic:
    @pytest.mark.parametrize(
        "count, pool, starts",
        [(0, True, True), (-1, True, True), (5, False, True), (5, True, False)],
        ids=["no-packets", "negative-count", "empty-pool", "no-starts"],
    )
    def test_nothing_is_drawn_without_packets_pool_or_starts(self, count, pool, starts):
        network, assignment = Network.mesh(3, 5, seed=1)
        rng = random.Random(0)
        state = rng.getstate()
        tally = Traffic()
        forward_audited(
            network,
            tally,
            count,
            rng,
            sorted(assignment["r0"]) if pool else [],
            sorted(network.routers) if starts else [],
        )
        assert rng.getstate() == state
        assert tally.packets == 0

    def test_tally_counts_every_packet_and_hop(self):
        network, assignment = Network.mesh(3, 5, seed=1)
        pool = sorted(prefix for prefixes in assignment.values() for prefix in prefixes)
        tally = Traffic()
        forward_audited(network, tally, 20, random.Random(0), pool, sorted(network.routers))
        assert tally.packets == 20
        assert tally.delivered + sum(tally.dropped.values()) == 20
        assert tally.wrong_hops == 0
        assert tally.hops >= tally.packets
        assert tally.avg_accesses() == tally.accesses / 20
