"""repro.serve — the sharded serving plane over the compiled fast path.

The subsystem answers the systems question the paper leaves open: what
does clue-assisted lookup buy when it is deployed as a *service* —
partitioned across worker shards, fed by bursty heavy-tail traffic,
with finite queues in front of every worker?  Six modules, one story:

* :mod:`repro.serve.dispatch` — destination → shard (range or hash).
* :mod:`repro.serve.shard` — a compiled-and-certified table slice,
  and the rule that cuts the tables into slices.
* :mod:`repro.serve.batcher` — kernel-sized coalescing, bounded queues
  that refuse their overflow (the loop sheds or holds it).
* :mod:`repro.serve.loadgen` — seeded Zipf + bursty arrivals.
* :mod:`repro.serve.engine` — plain serving: the serving plane's one
  loop at one replica per slice, plus its payload.
* :mod:`repro.serve.report` — exact latency percentiles, the report
  base both front ends share, and the ``BENCH_serve.json`` payload.

The front end ``serve`` shares with ``chaos`` lives in
:mod:`repro.resilience.engine`: the config core the two configs
extend, the one set-up (fixture, then every slice built and certified
through :func:`repro.resilience.replica.build_replica_shards`), the
tick loop, and the never-wrong audit of every served answer.

Everything replays bit-identically from a seed; wall-clock throughput
exists only when the CLI injects a clock (RC103).
"""

from repro.serve.batcher import (
    BACKPRESSURE_POLICIES,
    BatchPolicy,
    RequestBatcher,
)
from repro.serve.dispatch import PARTITION_MODES, ShardPlan, route_batch
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.loadgen import LoadProfile, Workload, ZipfLoadGenerator
from repro.serve.report import (
    ServeReport,
    latency_summary,
    percentile_from_counts,
)
from repro.serve.shard import Shard

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BatchPolicy",
    "LoadProfile",
    "PARTITION_MODES",
    "RequestBatcher",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "Shard",
    "ShardPlan",
    "Workload",
    "ZipfLoadGenerator",
    "latency_summary",
    "percentile_from_counts",
    "route_batch",
]
