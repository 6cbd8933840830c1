"""The churn sweep: maintenance cost under live route updates (§3.4).

Crosses update rate with traffic rate over the same mesh fabric and
reports, per point, the amortised maintenance cost (clue entries rebuilt
per route update per pair) next to the full-rebuild cost a from-scratch
strategy would pay, plus the data-plane cost (memory references per
packet) actually observed while the churn was in flight.  The paper's
§3.4 position — maintain incrementally, never rebuild the world — is the
claim under test: the sweep passes where ``rebuilt_per_update`` stays
well below ``full_rebuild_cost`` at every operating point.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.churn import ChurnEngine, ChurnProfile, build_churn_scenario
from repro.experiments.sweeps import SweepPoint


def churn_sweep(
    update_rates: Sequence[float],
    traffic_rates: Sequence[int],
    routers: int = 5,
    per_node: int = 40,
    epochs: int = 12,
    seed: int = 0,
    technique: str = "patricia",
    rebuild_budget: int = None,
) -> List[SweepPoint]:
    """Sweep (mean updates per epoch) × (packets per epoch).

    Each point runs a fresh, identically seeded scenario so points differ
    only in their rates.  ``parameter`` is the ``(update_rate,
    traffic_rate)`` pair; metrics carry the §3.4 comparison.
    """
    points: List[SweepPoint] = []
    for update_rate in update_rates:
        if update_rate < 1:
            raise ValueError("update rates below 1 are not meaningful")
        for traffic_rate in traffic_rates:
            if traffic_rate < 0:
                raise ValueError("traffic rates cannot be negative")
            profile = ChurnProfile(burst_mean=update_rate)
            network, stream = build_churn_scenario(
                routers=routers,
                per_node=per_node,
                seed=seed,
                technique=technique,
                profile=profile,
            )
            engine = ChurnEngine(
                network,
                stream,
                rebuild_budget=rebuild_budget,
                seed=seed,
            )
            report = engine.run(epochs, traffic_per_epoch=traffic_rate)
            rebuilt_per_update = report.amortised_rebuilt_per_update()
            points.append(
                SweepPoint(
                    (update_rate, traffic_rate),
                    {
                        "updates": float(report.updates_applied()),
                        "refs_per_packet": report.traffic().avg_accesses(),
                        "rebuilt_per_update": rebuilt_per_update,
                        "full_rebuild_cost": report.avg_table_entries,
                        "advantage": report.rebuild_advantage(),
                        "wrong_hops": float(report.wrong_hops()),
                        "epochs_converged": float(report.epochs_converged()),
                    },
                )
            )
    return points
