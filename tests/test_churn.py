"""End-to-end tests for repro.churn: streams, the engine, the auditor."""

import json
import random

import pytest

from repro.addressing import Prefix
from repro.churn import (
    ANNOUNCE,
    WITHDRAW,
    ChurnAuditError,
    ChurnEngine,
    ChurnProfile,
    ConsistencyAuditor,
    UpdateStream,
    build_churn_scenario,
)
from repro.churn.feed import TableDeltaFeed, build_adjacency_pairs


def receiver_only_entry(trie):
    """A /+4 below the trie's deepest prefix of length 28 at most, with
    that prefix's next hop.  Every router of a churn scenario holds the
    prefix, and none holds the extension."""
    deepest = max(
        (q for q in trie.prefixes() if q.length <= 28),
        key=lambda q: (q.length, q.bits),
    )
    extra = Prefix((deepest.bits << 4) | 0b1010, deepest.length + 4, 32)
    return extra, trie.next_hop_of(deepest)


def tiny_scenario(seed=7, **engine_kwargs):
    network, stream = build_churn_scenario(
        routers=4, per_node=20, seed=seed, technique="patricia"
    )
    engine = ChurnEngine(network, stream, seed=seed, **engine_kwargs)
    return network, stream, engine


class TestUpdateStream:
    def make(self, seed=0, **profile_kwargs):
        _network, stream = build_churn_scenario(
            routers=3,
            per_node=15,
            seed=seed,
            profile=ChurnProfile(**profile_kwargs) if profile_kwargs else None,
        )
        return stream

    def test_batches_respect_the_live_set(self):
        stream = self.make(seed=1)
        for batch in stream.batches(20):
            for update in batch:
                assert update.kind in (ANNOUNCE, WITHDRAW)
                if update.kind == ANNOUNCE:
                    assert update.prefix in stream.live
                else:
                    assert update.prefix not in stream.live

    def test_a_prefix_appears_at_most_once_per_batch(self):
        stream = self.make(seed=2, burst_mean=10.0, withdraw_fraction=0.5)
        for batch in stream.batches(30):
            prefixes = [update.prefix for update in batch]
            assert len(prefixes) == len(set(prefixes))

    def test_identical_seeds_replay_identically(self):
        first = [
            [(u.kind, str(u.prefix), u.origin) for u in batch]
            for batch in self.make(seed=5).batches(12)
        ]
        second = [
            [(u.kind, str(u.prefix), u.origin) for u in batch]
            for batch in self.make(seed=5).batches(12)
        ]
        assert first == second

    def test_locality_concentrates_announcements(self):
        stream = self.make(seed=3, locality=1.0, withdraw_fraction=0.0)
        hot = set(stream.hot_roots)
        length = stream.profile.hot_length
        for batch in stream.batches(15):
            for update in batch:
                assert update.prefix.length >= length
                assert update.prefix.truncate(length) in hot

    def test_the_kept_order_follows_every_batch(self):
        # Withdrawals, fresh announces and flaps all patch the kept list.
        stream = self.make(seed=6, burst_mean=8.0, withdraw_fraction=0.5, min_live=5)
        assert stream.sorted_live == sorted(stream.live)
        for _batch in stream.batches(300):
            assert stream.sorted_live == sorted(stream.live)
        assert stream.withdrawn and stream.announced and stream.flapped

    def test_live_floor_is_respected(self):
        stream = self.make(seed=4, withdraw_fraction=1.0, min_live=10)
        for _ in range(60):
            stream.next_batch()
        assert stream.live_count() >= 10

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ChurnProfile(burst_mean=0.0)
        with pytest.raises(ValueError):
            ChurnProfile(locality=1.5)
        with pytest.raises(ValueError):
            ChurnProfile(hot_length=40)
        with pytest.raises(ValueError):
            UpdateStream({})


class TestChurnEngine:
    def test_runs_converge_and_never_misforward(self):
        _network, _stream, engine = tiny_scenario(rebuild_budget=25)
        report = engine.run(12, traffic_per_epoch=20)
        assert len(report.epochs) == 12
        assert report.packets() == 240
        # Stale-window semantics: degraded speedup is allowed, wrong
        # forwarding never is.
        assert report.wrong_hops() == 0
        assert report.updates_applied() > 0

    def test_unbudgeted_epochs_always_converge(self):
        _network, _stream, engine = tiny_scenario()
        report = engine.run(8, traffic_per_epoch=5)
        assert report.epochs_converged() == 8
        assert all(epoch.pending_after == 0 for epoch in report.epochs)

    def test_tight_budget_leaves_backlog_then_recovers(self):
        _network, _stream, engine = tiny_scenario(rebuild_budget=1)
        report = engine.run(6, traffic_per_epoch=0)
        assert report.epochs_converged() < 6
        # Lifting the budget drains the inherited backlog.
        engine.rebuild_budget = None
        engine.run_epoch()
        assert engine.pending_total() == 0

    def test_deterministic_given_seed(self):
        def run():
            _n, _s, engine = tiny_scenario(rebuild_budget=30)
            report = engine.run(10, traffic_per_epoch=15)
            return json.dumps(report.as_dict(), sort_keys=True)

        assert run() == run()

    def test_incremental_beats_full_rebuild(self):
        _network, _stream, engine = tiny_scenario()
        report = engine.run(10)
        per_update = report.amortised_rebuilt_per_update()
        assert 0 < per_update < report.avg_table_entries
        assert report.rebuild_advantage() > 1.0
        assert "§3.4" in report.claim()

    def test_metrics_flow_into_the_registry(self):
        network, _stream, engine = tiny_scenario()
        engine.run(5, traffic_per_epoch=5)
        totals = network.instruments.totals()
        assert totals["updates_applied_total"] > 0
        assert totals["epochs_converged_total"] == 5
        assert totals["clues_rebuilt_total"] > 0

    def test_rejects_a_fabric_without_clue_routers(self):
        from repro.netsim.network import Network

        with pytest.raises(ValueError):
            ChurnEngine(Network(), None)


class TestSetUp:
    def test_each_table_is_inserted_once(self, trie_inserts):
        """Every pair shares the sender router's own trie, so set-up
        builds no trie over a registered neighbour table."""
        network, stream = build_churn_scenario(routers=5, per_node=20, seed=0)
        engine = ChurnEngine(network, stream)
        routers = network.routers
        assert sum(len(router.receiver.trie) for router in routers.values()) == 500
        assert len(trie_inserts) == 500
        assert len(engine.pairs) == 20
        for s_name, r_name in engine.pairs:
            upstream = routers[r_name]._neighbor_tries[s_name]
            assert upstream is routers[s_name].receiver.trie


class TestClaim1Sets:
    """Claim 1 fails only where a receiver prefix has no sender prefix
    above it, so the overlay's sets stay as sparse as the difference."""

    def test_pairs_of_equal_tables_keep_both_sets_empty(self):
        network, _stream = build_churn_scenario(routers=5, per_node=20, seed=0)
        pairs = build_adjacency_pairs(network, "patricia")
        assert len(pairs) == 20
        for maintained in pairs.values():
            assert maintained.overlay.unclaimed == set()
            assert maintained.overlay.problematic == set()

    def test_one_receiver_only_prefix_adds_its_unclaimed_path(self):
        network, _stream = build_churn_scenario(routers=5, per_node=20, seed=0)
        feed = TableDeltaFeed(network)
        r_name = sorted(network.routers)[0]
        extra, next_hop = receiver_only_entry(network.routers[r_name].receiver.trie)
        # extra and the three new vertices above it, below the prefix it
        # extends, which every sender has.
        path = [
            Prefix(extra.bits >> cut, extra.length - cut, 32) for cut in range(4)
        ]
        parents = [Prefix(q.bits >> 1, q.length - 1, 32) for q in path]
        feed.apply({r_name: [(extra, next_hop)]}, {})
        for (_s_name, receiver), maintained in feed.pairs.items():
            overlay = maintained.overlay
            if receiver == r_name:
                assert overlay.unclaimed == set(path)
                assert overlay.problematic == set(parents)
            else:
                assert overlay.unclaimed == overlay.problematic == set()
        feed.apply({}, {r_name: [extra]})
        for maintained in feed.pairs.values():
            assert maintained.overlay.unclaimed == set()
            assert maintained.overlay.problematic == set()


class TestAuditor:
    def test_scheduled_audits_find_no_divergence(self):
        _network, _stream, engine = tiny_scenario(
            rebuild_budget=20, audit_every=5
        )
        report = engine.run(15, traffic_per_epoch=10)
        assert len(report.audits) == 3
        assert all(audit.ok for audit in report.audits)
        assert report.divergences() == 0
        assert report.audits[0].entries_checked() > 0
        assert report.passed()

    def test_audit_settles_the_backlog_first(self):
        _network, _stream, engine = tiny_scenario(
            rebuild_budget=1, audit_every=3
        )
        report = engine.run(3)
        assert engine.pending_total() == 0
        assert report.audits[0].rebuilt_to_settle() >= 0

    def test_hard_auditor_raises_on_forged_divergence(self):
        _network, _stream, engine = tiny_scenario(audit_every=50)
        engine.run(2)
        pair_key = sorted(engine.pairs)[0]
        maintained = engine.pairs[pair_key]
        clue = sorted(maintained.sender_trie.prefixes())[0]
        maintained.table.record(clue).fd_next_hop = "forged"
        auditor = ConsistencyAuditor(every=1, hard=True)
        with pytest.raises(ChurnAuditError):
            auditor.audit(engine.pairs, epoch=99)
        soft = ConsistencyAuditor(every=1, hard=False)
        audit = soft.audit(engine.pairs, epoch=99)
        assert not audit.ok
        assert audit.divergence_count() >= 1

    def test_hard_auditor_raises_on_a_corrupted_stop(self):
        # A vertex wrongly in or out of the live problematic set flips
        # its stop and ends a resumed walk late (or early): the audit
        # must see it although every clue record still matches.
        _network, _stream, engine = tiny_scenario(audit_every=50)
        engine.run(2)
        s_name, r_name = sorted(engine.pairs)[0]
        maintained = engine.pairs[(s_name, r_name)]
        # A receiver-only prefix puts its path into both sets.
        extra, next_hop = receiver_only_entry(maintained.receiver.trie)
        engine.feed.apply({r_name: [(extra, next_hop)]}, {})
        auditor = ConsistencyAuditor(every=1, hard=True)
        assert auditor.audit(engine.pairs, epoch=98).ok
        problematic = maintained.overlay.problematic
        victim = sorted(problematic)[0]
        for corrupt, repair, vertex in (
            (problematic.add, problematic.discard, extra),
            (problematic.discard, problematic.add, victim),
        ):
            corrupt(vertex)
            with pytest.raises(ChurnAuditError, match="stop"):
                auditor.audit(engine.pairs, epoch=99)
            repair(vertex)
        assert auditor.audit(engine.pairs, epoch=100).ok

    def test_hard_auditor_raises_on_a_corrupted_unclaimed_memo(self):
        # A wrong unclaimed member flips no stop yet, but the next path
        # refresh would read it: the audit reports it too.
        _network, _stream, engine = tiny_scenario(audit_every=50)
        engine.run(2)
        maintained = engine.pairs[sorted(engine.pairs)[0]]
        maintained.overlay.unclaimed.add(maintained.receiver.trie.root.prefix)
        with pytest.raises(ChurnAuditError, match="unclaimed"):
            ConsistencyAuditor(every=1, hard=True).audit(engine.pairs, epoch=99)

    def test_auditor_validates_period(self):
        with pytest.raises(ValueError):
            ConsistencyAuditor(every=0)


class TestNetworkChurnApi:
    def test_engine_runs_epochs_and_audits_on_schedule(self):
        network, stream = build_churn_scenario(routers=3, per_node=15, seed=9)
        report = ChurnEngine(network, stream, audit_every=2, seed=9).run(
            4, traffic_per_epoch=5
        )
        assert len(report.epochs) == 4
        assert len(report.audits) == 2
        assert report.wrong_hops() == 0

    def test_apply_update_rejects_unknown_router(self):
        network, _stream = build_churn_scenario(routers=3, per_node=10, seed=1)
        with pytest.raises(KeyError):
            network.apply_update("nonexistent", add=[])


class TestChurnSweep:
    def test_sweep_reports_the_advantage_at_every_point(self):
        from repro.experiments import churn_sweep

        points = churn_sweep(
            [2.0, 5.0], [5], routers=3, per_node=15, epochs=4, seed=2
        )
        assert len(points) == 2
        for point in points:
            assert point.metrics["wrong_hops"] == 0
            assert (
                point.metrics["rebuilt_per_update"]
                < point.metrics["full_rebuild_cost"]
            )

    def test_sweep_validates_rates(self):
        from repro.experiments import churn_sweep

        with pytest.raises(ValueError):
            churn_sweep([0.5], [5], routers=3, per_node=10, epochs=2)
        with pytest.raises(ValueError):
            churn_sweep([2.0], [-1], routers=3, per_node=10, epochs=2)
