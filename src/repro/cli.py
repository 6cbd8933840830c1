"""Command-line interface to the reproduction.

Subcommands mirror the common workflows:

* ``generate``  — write a synthetic forwarding table as text;
* ``stats``     — Tables 1–3 style statistics for a router pair;
* ``compare``   — the §6 15-scheme comparison for a pair;
* ``figure1``   — the per-hop work profile of a packet crossing a chain;
* ``parse-rib`` — normalise a RIB text dump;
* ``space``     — the §3.5 clue-table space model;
* ``telemetry`` — run under full metrics/tracing and export the registry
  as JSON or Prometheus text;
* ``churn``     — live route churn over the netsim fabric with §3.4
  incremental clue-table maintenance, convergence tracking and
  from-scratch consistency audits;
* ``faults``    — adversarial fault injection (corrupted and Byzantine
  clues, record corruption, crashes, link failures) against the
  guarded, self-healing data path; the exit code reflects the
  never-wrong-forwarding invariant;
* ``lint``      — the :mod:`repro.analyzer` static-analysis pass over
  ``src/repro``; the exit code counts findings above the committed
  baseline;
* ``serve``     — the sharded serving plane: certified per-shard
  compiled tables, request batching with shed/block backpressure, a
  seeded Zipf/bursty load generator and a never-wrong audit of every
  served answer, emitting ``BENCH_serve.json``;
* ``chaos``     — fault-tolerant serving: the R-way replicated plane
  under a seeded shard fault schedule (crashes with rebuild +
  re-certification, slow replicas, dropped batches) with deadlines,
  bounded retries, hedging, health-steered failover and a degraded
  full-table path; every served answer is audited, emitting
  ``BENCH_resilience.json``;
* ``control``   — convergence under load: a seeded link-state IGP
  (hello/adjacency, LSA flooding, SPF) computes the routing tables
  live while flaps, cost changes and crashes perturb it; SPF deltas
  feed the clue tables and a brute-force shortest-path certifier
  gates the result, emitting ``BENCH_control.json``.

Tables may come from files (one ``prefix next_hop`` per line, RIB style)
or from the built-in synthetic pairs (``--synthetic``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from repro.experiments import (
    compare_pair,
    format_table,
    render_comparison,
)
from repro.core.space import space_report
from repro.netsim.path_profile import ChainScenario
from repro.tablegen import (
    NeighborProfile,
    derive_neighbor,
    generate_table,
    parse_rib_file,
)
from repro.tablegen.synthetic import Entry
from repro.trie import BinaryTrie, TrieOverlay


def _write_table(entries: Sequence[Entry], stream) -> None:
    for prefix, next_hop in entries:
        stream.write("%s %s\n" % (prefix, next_hop if next_hop is not None else "-"))


def _sample_rate(text: str) -> float:
    rate = float(text)
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(
            "sample rate must be within [0, 1], got %s" % text
        )
    return rate


def _load_pair(args) -> Tuple[List[Entry], List[Entry]]:
    if args.synthetic:
        sender = generate_table(args.count, seed=args.seed)
        receiver = derive_neighbor(sender, NeighborProfile(), seed=args.seed + 1)
        return sender, receiver
    if not (args.sender and args.receiver):
        raise SystemExit("either --synthetic or both --sender and --receiver files")
    return parse_rib_file(args.sender), parse_rib_file(args.receiver)


def _config(args, factory, **values):
    """``factory(**values)``; a value the config rejects ends the run
    like an argparse error: usage, one ``error:`` line, exit status 2."""
    try:
        return factory(**values)
    except ValueError as error:
        args.parser.error(str(error))


def _cmd_generate(args) -> int:
    entries = generate_table(args.count, seed=args.seed)
    if args.output:
        with open(args.output, "w") as handle:
            _write_table(entries, handle)
    else:
        _write_table(entries, sys.stdout)
    return 0


def _cmd_stats(args) -> int:
    sender, receiver = _load_pair(args)
    overlay = TrieOverlay(
        BinaryTrie.from_prefixes(sender), BinaryTrie.from_prefixes(receiver)
    )
    stats = overlay.statistics()
    rows = [[key, value] for key, value in sorted(stats.items())]
    fraction = stats["problematic_clues"] / max(stats["sender_prefixes"], 1)
    rows.append(["claim1 holds for", "%.2f%% of clues" % (100 * (1 - fraction))])
    print(format_table(["statistic", "value"], rows, title="pair statistics"))
    return 0


def _cmd_compare(args) -> int:
    sender, receiver = _load_pair(args)
    result = compare_pair(sender, receiver, packets=args.packets, seed=args.seed)
    print(render_comparison(result))
    if result.mismatches:
        print("WARNING: %d oracle mismatches" % result.mismatches, file=sys.stderr)
        return 1
    return 0


def _cmd_figure1(args) -> int:
    scenario = ChainScenario(background=args.background, seed=args.seed)
    profile = scenario.profile()
    print(
        format_table(
            ["router", "BMP length", "delta", "clue work", "legacy work"],
            profile.rows(),
            title="Figure 1: per-hop BMP length and work",
        )
    )
    return 0


def _cmd_parse_rib(args) -> int:
    entries = parse_rib_file(args.file, strict=args.strict)
    _write_table(entries, sys.stdout)
    print("parsed %d unique prefixes" % len(entries), file=sys.stderr)
    return 0


def _cmd_flows(args) -> int:
    from repro.netsim.flows import FlowExperiment, pareto_flow_sizes

    experiment = FlowExperiment(
        hops=args.hops, table_size=args.count, seed=args.seed
    )
    schemes = experiment.run(
        pareto_flow_sizes(args.flows, seed=args.seed + 1), seed=args.seed + 2
    )
    rows = [
        [name, round(cost.per_packet(), 2), cost.setup_messages,
         cost.first_packet_delay_hops]
        for name, cost in sorted(schemes.items())
    ]
    print(
        format_table(
            ["scheme", "refs/packet", "setup msgs", "first-pkt delay (hops)"],
            rows,
            title="flow economics over a %d-hop path" % args.hops,
        )
    )
    crossover = experiment.crossover_flow_size(seed=args.seed + 3)
    print(
        "tag switching overtakes clues for flows longer than ~%.0f packets"
        % crossover
    )
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import pair_report

    sender, receiver = _load_pair(args)
    report = pair_report(sender, receiver)
    rows = [[key, round(value, 4)] for key, value in sorted(report.items())]
    print(format_table(["metric", "value"], rows, title="pair structure"))
    return 0


def _cmd_reproduce(args) -> int:
    from repro.experiments.report import run_reproduction

    report = run_reproduction(
        scale=args.scale, packets=args.packets, seed=args.seed
    )
    text = report.render()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print("report written to %s" % args.output)
    else:
        print(text)
    return 0 if report.passed() else 1


def _cmd_telemetry(args) -> int:
    from repro.telemetry import (
        LookupInstruments,
        MetricsRegistry,
        Tracer,
        render_json,
        render_prometheus,
    )
    from repro.telemetry.synthetic import synthetic_telemetry_run

    if args.synthetic:
        run = synthetic_telemetry_run(
            packets=args.packets,
            background=args.count,
            seed=args.seed,
            sample_rate=args.sample_rate,
        )
        print(run.render(args.format))
        reconciliation = run.reconcile()
        bad = [name for name, row in reconciliation.items() if not row["ok"]]
        tracer = run.tracer
        print(
            "telemetry: %d packets, %d spans sampled (rate %g), "
            "reconciliation %s"
            % (
                len(run.reports),
                len(tracer.spans()) if tracer is not None else 0,
                args.sample_rate,
                "OK" if not bad else "FAILED for %s" % ", ".join(bad),
            ),
            file=sys.stderr,
        )
        return 0 if not bad else 1

    # Pair mode: stream the §6 comparison matrix into a fresh registry.
    sender, receiver = _load_pair(args)
    instruments = LookupInstruments(
        MetricsRegistry(), tracer=Tracer(rate=args.sample_rate, seed=args.seed)
    )
    compare_pair(
        sender,
        receiver,
        packets=args.packets,
        seed=args.seed,
        instruments=instruments,
    )
    renderer = render_json if args.format == "json" else render_prometheus
    print(renderer(instruments.registry))
    return 0


def _cmd_churn(args) -> int:
    import json

    from repro.churn import ChurnEngine, ChurnProfile, build_churn_scenario
    from repro.telemetry.export import render_prometheus

    profile = _config(
        args,
        ChurnProfile,
        burst_mean=args.updates,
        locality=args.locality,
        flap_fraction=args.flap,
    )
    network, stream = _config(
        args,
        build_churn_scenario,
        routers=args.routers,
        per_node=args.per_node,
        seed=args.seed,
        technique=args.technique,
        profile=profile,
    )
    engine = ChurnEngine(
        network,
        stream,
        rebuild_budget=args.rebuild_budget,
        audit_every=args.audit_every,
        hard_audit=not args.soft_audit,
        seed=args.seed,
    )
    report = engine.run(args.epochs, traffic_per_epoch=args.traffic)
    if args.format == "prom":
        print(render_prometheus(network.instruments.registry))
    else:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    summary = report.summary()
    print(
        "churn: %d epochs (%d converged), %d updates, %d wrong hops; %s"
        % (
            summary["epochs"],
            summary["epochs_converged"],
            summary["updates_applied"],
            summary["wrong_hops"],
            summary["claim"],
        ),
        file=sys.stderr,
    )
    return 0 if report.passed() else 1


def _cmd_faults(args) -> int:
    import json

    from repro.faults import FaultEngine, GuardPolicy, build_fault_scenario
    from repro.netsim import InvariantError
    from repro.telemetry.export import render_prometheus

    guard_policy = None
    if args.guard != "off":
        guard_policy = GuardPolicy(
            quarantine_enabled=(args.guard == "quarantine")
        )
    network, plan = _config(
        args,
        build_fault_scenario,
        routers=args.routers,
        per_node=args.per_node,
        seed=args.seed,
        technique=args.technique,
        flip_rate=args.flip_rate,
        scramble_rate=args.scramble_rate,
        byzantine_routers=args.byzantine,
        lie_mode=args.lie_mode,
        record_rate=args.record_rate,
        crashes=args.crashes,
        link_downs=args.link_downs,
        rounds=args.rounds,
    )
    try:
        report = FaultEngine(
            network,
            plan,
            guard_policy=guard_policy,
            seed=args.seed,
            hard_invariant=False if args.soft_invariant else None,
        ).run(args.rounds, args.traffic)
    except InvariantError as error:
        print("FAULT INVARIANT VIOLATED: %s" % error, file=sys.stderr)
        return 2
    if args.format == "prom":
        print(render_prometheus(network.instruments.registry))
    else:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    summary = report.summary()
    print(
        "faults: %d rounds, %d packets, %d injections, %d wrong hops "
        "(guard %s); %s"
        % (
            summary["rounds"],
            summary["packets"],
            summary["faults_total"],
            summary["wrong_hops"],
            args.guard,
            summary["claim"],
        ),
        file=sys.stderr,
    )
    return 0 if report.passed() else 1


def _cmd_control(args) -> int:
    import json

    from repro.control import (
        ControlConvergenceError,
        ControlEngine,
        build_control_scenario,
    )
    from repro.netsim import InvariantError
    from repro.telemetry.export import render_prometheus

    if args.quick:
        args.per_node = min(args.per_node, 6)
        args.ticks = min(args.ticks, 80)
        args.traffic = min(args.traffic, 6)
    try:
        scenario = _config(
            args,
            build_control_scenario,
            routers=args.routers,
            per_node=args.per_node,
            seed=args.seed,
            technique=args.technique,
            ticks=args.ticks,
            flaps=args.flaps,
            crashes=args.crashes,
            cost_changes=args.cost_changes,
            hello_interval=args.hello_interval,
            dead_interval=args.dead_interval,
            retransmit_interval=args.retransmit_interval,
        )
    except ControlConvergenceError as error:
        print("WARMUP NEVER CONVERGED: %s" % error, file=sys.stderr)
        return 2
    try:
        report = ControlEngine(
            scenario.network,
            scenario.plane,
            scenario.plan,
            cost_changes=scenario.cost_changes,
            rebuild_budget=args.rebuild_budget,
            seed=args.seed,
            hard_invariant=not args.soft_invariant,
        ).run(args.ticks, args.traffic)
    except InvariantError as error:
        print("CONTROL INVARIANT VIOLATED: %s" % error, file=sys.stderr)
        return 2
    if args.format == "prom":
        text = render_prometheus(scenario.network.instruments.registry)
    else:
        payload = {"scenario": scenario.config}
        payload.update(report.as_dict())
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    summary = report.summary()
    print(
        "control: %d ticks (%d converged), %d episodes, %d oracle "
        "divergences, %d wrong hops; %s"
        % (
            summary["ticks"],
            summary["ticks_converged"],
            summary["episodes"],
            summary["next_hop_divergences"] + summary["table_divergences"],
            summary["wrong_hops"],
            summary["claim"],
        ),
        file=sys.stderr,
    )
    if not summary["final_converged"]:
        # The certifier compares converged tables; mid-disruption ones
        # are still settling, so their divergences are not a verdict.
        print(
            "NOT CONVERGED: the run ended %d ticks into an open "
            "disruption episode" % summary["open_episode"],
            file=sys.stderr,
        )
        return 1
    if summary["next_hop_divergences"] or summary["table_divergences"]:
        print(
            "ORACLE DIVERGENCE: post-convergence tables differ from the "
            "brute-force shortest-path certifier",
            file=sys.stderr,
        )
        return 2
    return 0 if report.passed() else 1


def _cmd_lint(args) -> int:
    from repro.analyzer import (
        analyze_paths,
        default_rules,
        diff_baseline,
        gating_findings,
        load_baseline,
        render_json_report,
        render_sarif,
        render_text,
        write_baseline,
    )
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            kind = " (informational)" if rule.informational else ""
            print("%s %s%s" % (rule.code, rule.name, kind))
            print("    %s" % rule.rationale)
        return 0
    if args.select:
        wanted = {code.strip() for code in args.select.split(",")}
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            raise SystemExit(
                "unknown rule code(s): %s" % ", ".join(sorted(unknown))
            )
        rules = [rule for rule in rules if rule.code in wanted]
    try:
        result = analyze_paths(args.paths, rules)
    except FileNotFoundError as error:
        raise SystemExit(str(error))
    if args.write_baseline:
        previous = load_baseline(args.baseline)
        current = write_baseline(result.findings, args.baseline)
        pruned = sum(
            max(0, count - current.get(key, 0))
            for key, count in previous.items()
        )
        print(
            "baseline written to %s (%d findings, %d stale "
            "fingerprints pruned)"
            % (args.baseline, len(result.findings), pruned),
            file=sys.stderr,
        )
        return 0
    baseline = {} if args.no_baseline else load_baseline(args.baseline)
    new, stale = diff_baseline(result.findings, baseline)
    renderer = {
        "json": render_json_report,
        "sarif": render_sarif,
    }.get(args.format, render_text)
    print(renderer(result, new, stale, rules))
    return 1 if gating_findings(new, rules) else 0


def _cmd_bench_fastpath(args) -> int:
    import json
    import time

    from repro.experiments.fastbench import run_fastpath_bench
    from repro.fastpath import CertificationError

    if args.quick:
        args.table_size = min(args.table_size, 2000)
        args.packets = min(args.packets, 5000)
    layouts = args.layouts if args.layouts else ["dense"]
    try:
        payload = run_fastpath_bench(
            table_size=args.table_size,
            packets=args.packets,
            seed=args.seed,
            # The bench engine is wall-clock-free by design (RC103); the
            # CLI is the one place the real clock is injected, and passing
            # the callable is not a timing call on a library path.
            clock=time.perf_counter,
            layouts=layouts,
        )
    except CertificationError as error:
        print("CERTIFICATION FAILED: %s" % error, file=sys.stderr)
        return 2
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    for name, summary in payload["algorithms"].items():
        speedup = summary["speedup"]
        print(
            "%s: %.1fx batched over scalar (%.2f memrefs/packet, %s backend)"
            % (
                name,
                speedup if speedup else 0.0,
                summary["batched"]["memrefs_per_packet"],
                payload["backend"],
            ),
            file=sys.stderr,
        )
    for name, section in payload["layouts"].items():
        bound = section["entropy_bound_bytes_per_prefix"]
        print(
            "layout %s: %.1f B/prefix (entropy bound %.2f), "
            "%.2f full memrefs/packet (%.2fx dense)"
            % (
                name,
                section["bytes_per_prefix"],
                bound,
                section["full"]["memrefs_per_packet"],
                section["memrefs_vs_dense"] or 0.0,
            ),
            file=sys.stderr,
        )
    print(
        "certified: %d lanes, %d disagreements"
        % (
            payload["certification"]["checked"],
            payload["certification"]["disagreements"],
        ),
        file=sys.stderr,
    )
    return 0


def _run_serving(args, config_class, engine_class, bench, failure, **knobs) -> int:
    """One ``serve`` or ``chaos`` run, start to exit status.

    The shared knobs (clamped by ``--quick``) and the command's own
    ``knobs`` make a ``config_class``; a value it rejects exits 2 like
    an argparse error, and so does a shard that fails certification.
    ``bench(engine, clock)`` runs the engine into its report, which is
    written out; a failed report prints ``failure`` and exits 1.
    """
    import time

    from repro.fastpath import CertificationError

    if args.quick:
        args.table_size = min(args.table_size, 2000)
        args.requests = min(args.requests, 120000)
        args.universe = min(args.universe, 2048)
    config = _config(
        args,
        config_class,
        shards=args.shards,
        partition=args.partition,
        method=args.method,
        policy=args.policy,
        table_size=args.table_size,
        requests=args.requests,
        max_batch=args.batch_max,
        max_wait=args.max_wait,
        queue_capacity=args.queue_capacity,
        zipf_alpha=args.alpha,
        universe=args.universe,
        rate=args.rate,
        seed=args.seed,
        **knobs,
    )
    try:
        engine = engine_class(config)
    except CertificationError as error:
        print("SHARD CERTIFICATION FAILED: %s" % error, file=sys.stderr)
        return 2
    # The serving engines are wall-clock-free by design (RC103); the CLI
    # is the one place the real clock is injected, and passing the
    # callable is not a timing call on a library path.
    report = bench(engine, time.perf_counter)
    text = report.to_json()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    print(report.summary(), file=sys.stderr)
    if not report.passed():
        print(failure, file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, ServeEngine

    return _run_serving(
        args,
        ServeConfig,
        ServeEngine,
        lambda engine, clock: engine.run(clock=clock),
        "AUDIT FAILED: sharded path disagreed with the oracle",
        layout=args.layout,
    )


def _cmd_chaos(args) -> int:
    from repro.resilience import ChaosEngine, ResilienceConfig

    def bench(engine, clock):
        plan = engine.default_plan(
            crashes=args.crashes, slowdowns=args.slowdowns, drops=args.drops
        )
        return engine.bench(plan, clock=clock)

    return _run_serving(
        args,
        ResilienceConfig,
        ChaosEngine,
        bench,
        "AUDIT FAILED: a served answer disagreed with the oracle "
        "or requests went unaccounted",
        replication=args.replication,
        deadline_ticks=args.deadline,
        hedge_ticks=args.hedge_after,
        max_retries=args.max_retries,
        rebuild_ticks=args.rebuild_ticks,
    )


def _cmd_space(args) -> int:
    report = space_report(args.entries, args.pointer_fraction)
    rows = [[key, value] for key, value in sorted(report.items())]
    print(format_table(["quantity", "value"], rows, title="§3.5 space model"))
    return 0


def _add_serving_options(command, shards: int, requests: int, payload: str) -> None:
    """The flags ``serve`` and ``chaos`` share, with the command's own
    ``shards`` and ``requests`` defaults and its ``payload`` file."""
    command.add_argument("--shards", type=int, default=shards,
                         help="table slices (default %d)" % shards)
    command.add_argument("--partition", choices=("range", "hash"),
                         default="range",
                         help="destination partitioning (default range)")
    command.add_argument("--method", choices=("advance", "simple"),
                         default="advance",
                         help="clue-table construction (default advance)")
    command.add_argument("--policy", choices=("shed", "block"), default="shed",
                         help="backpressure when every queue a request may "
                              "take is full (default shed)")
    command.add_argument("--table-size", type=int, default=20000,
                         help="synthetic sender-table size (default 20000)")
    command.add_argument("--requests", type=int, default=requests,
                         help="lookups to replay (default %d)" % requests)
    command.add_argument("--batch-max", type=int, default=256,
                         help="max coalesced batch size (default 256)")
    command.add_argument("--max-wait", type=int, default=4,
                         help="ticks a partial batch may wait (default 4)")
    command.add_argument("--queue-capacity", type=int, default=4096,
                         help="per-worker queue bound (default 4096)")
    command.add_argument("--alpha", type=float, default=1.1,
                         help="Zipf popularity skew; 0 = uniform (default 1.1)")
    command.add_argument("--rate", type=float, default=512.0,
                         help="mean arrivals per tick (default 512)")
    command.add_argument("--universe", type=int, default=4096,
                         help="distinct destinations in the workload")
    command.add_argument("--seed", type=int, default=42)
    command.add_argument("--quick", action="store_true",
                         help="CI mode: clamp to 2000 prefixes / 120k requests")
    command.add_argument("--output", default=None,
                         help="write %s here (default stdout)" % payload)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for --help testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-clue",
        description="Routing with a Clue (SIGCOMM 1999) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic forwarding table")
    gen.add_argument("--count", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", help="output file (default stdout)")
    gen.set_defaults(func=_cmd_generate)

    def add_pair_options(command):
        command.add_argument("--sender", help="sender RIB dump file")
        command.add_argument("--receiver", help="receiver RIB dump file")
        command.add_argument(
            "--synthetic", action="store_true",
            help="use a generated neighbour pair instead of files",
        )
        command.add_argument("--count", type=int, default=2000,
                             help="table size for --synthetic")
        command.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser("stats", help="Tables 1-3 statistics for a pair")
    add_pair_options(stats)
    stats.set_defaults(func=_cmd_stats)

    comp = sub.add_parser("compare", help="the §6 15-scheme comparison")
    add_pair_options(comp)
    comp.add_argument("--packets", type=int, default=2000)
    comp.set_defaults(func=_cmd_compare)

    fig1 = sub.add_parser("figure1", help="per-hop work profile (Figure 1)")
    fig1.add_argument("--background", type=int, default=500)
    fig1.add_argument("--seed", type=int, default=0)
    fig1.set_defaults(func=_cmd_figure1)

    rib = sub.add_parser("parse-rib", help="normalise a RIB text dump")
    rib.add_argument("file")
    rib.add_argument("--strict", action="store_true")
    rib.set_defaults(func=_cmd_parse_rib)

    flows = sub.add_parser("flows", help="flow economics vs tag switching")
    flows.add_argument("--hops", type=int, default=5)
    flows.add_argument("--count", type=int, default=1000,
                       help="forwarding-table size per router")
    flows.add_argument("--flows", type=int, default=200)
    flows.add_argument("--seed", type=int, default=0)
    flows.set_defaults(func=_cmd_flows)

    analyze = sub.add_parser("analyze", help="structural metrics for a pair")
    add_pair_options(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    reproduce = sub.add_parser(
        "reproduce", help="run the whole evaluation, emit a markdown report"
    )
    reproduce.add_argument("--scale", type=float, default=0.05)
    reproduce.add_argument("--packets", type=int, default=500)
    reproduce.add_argument("--seed", type=int, default=42)
    reproduce.add_argument("--output", help="report file (default stdout)")
    reproduce.set_defaults(func=_cmd_reproduce)

    telemetry = sub.add_parser(
        "telemetry",
        help="run under full metrics/tracing, export the registry",
    )
    add_pair_options(telemetry)
    # Synthetic mode reuses --count as the chain's background-table size;
    # the full-pair default of 2000 would make the smoke run needlessly slow.
    telemetry.set_defaults(count=300)
    telemetry.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="export format (default json)",
    )
    telemetry.add_argument(
        "--sample-rate", type=_sample_rate, default=1.0,
        help="trace-sampling probability in [0, 1] (default 1.0)",
    )
    telemetry.add_argument(
        "--packets", type=int, default=16,
        help="packets per chain (synthetic) or sampled lookups (pair)",
    )
    telemetry.set_defaults(func=_cmd_telemetry)

    churn = sub.add_parser(
        "churn",
        help="live route churn with incremental clue-table maintenance",
    )
    churn.add_argument("--routers", type=int, default=5)
    churn.add_argument("--per-node", type=int, default=40,
                       help="originated prefixes per router")
    churn.add_argument("--epochs", type=int, default=60)
    churn.add_argument("--updates", type=float, default=6.0,
                       help="mean route updates per epoch (burst mean)")
    churn.add_argument("--traffic", type=int, default=25,
                       help="packets forwarded per epoch")
    churn.add_argument("--locality", type=float, default=0.6,
                       help="fraction of churn under the hot subtrees")
    churn.add_argument("--flap", type=float, default=0.25,
                       help="fraction of announcements reviving withdrawals")
    churn.add_argument("--rebuild-budget", type=int, default=None,
                       help="max clue entries rebuilt per epoch "
                            "(default: drain the backlog)")
    churn.add_argument("--audit-every", type=int, default=10,
                       help="from-scratch consistency audit period (epochs)")
    churn.add_argument("--soft-audit", action="store_true",
                       help="report divergences instead of raising")
    churn.add_argument("--technique", default="patricia",
                       choices=("regular", "patricia", "binary", "6way"))
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--format", choices=("json", "prom"), default="json",
                       help="report format (default json)")
    churn.set_defaults(func=_cmd_churn, parser=churn)

    faults = sub.add_parser(
        "faults",
        help="adversarial fault injection against the guarded data path",
    )
    faults.add_argument("--routers", type=int, default=5)
    faults.add_argument("--per-node", type=int, default=40,
                        help="originated prefixes per router")
    faults.add_argument("--rounds", type=int, default=12)
    faults.add_argument("--traffic", type=int, default=50,
                        help="packets forwarded per round")
    faults.add_argument("--flip-rate", type=_sample_rate, default=0.05,
                        help="clue bit-flip probability per link traversal")
    faults.add_argument("--scramble-rate", type=_sample_rate, default=0.02,
                        help="uniform clue-field corruption probability")
    faults.add_argument("--byzantine", type=int, default=1,
                        help="number of systematically lying routers")
    faults.add_argument("--lie-mode", default="shorter",
                        choices=("random", "shorter", "longer"))
    faults.add_argument("--record-rate", type=_sample_rate, default=0.2,
                        help="per-round clue-table corruption probability")
    faults.add_argument("--crashes", type=int, default=1,
                        help="router crash-restart events to schedule")
    faults.add_argument("--link-downs", type=int, default=1,
                        help="link-down windows to schedule")
    faults.add_argument("--guard", default="quarantine",
                        choices=("off", "guard", "quarantine"),
                        help="data-path policy (default quarantine)")
    faults.add_argument("--soft-invariant", action="store_true",
                        help="record wrong hops instead of raising")
    faults.add_argument("--technique", default="patricia",
                        choices=("regular", "patricia", "binary", "6way"))
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--format", choices=("json", "prom"), default="json",
                        help="report format (default json)")
    faults.set_defaults(func=_cmd_faults, parser=faults)

    control = sub.add_parser(
        "control",
        help="convergence under load: a link-state IGP drives the clue "
             "data path (BENCH_control.json)",
    )
    control.add_argument("--routers", type=int, default=12,
                         help="mesh size (default 12)")
    control.add_argument("--per-node", type=int, default=8,
                         help="originated prefixes per router")
    control.add_argument("--ticks", type=int, default=120,
                         help="simulation ticks after warmup (default 120)")
    control.add_argument("--traffic", type=int, default=8,
                         help="packets forwarded per tick")
    control.add_argument("--flaps", type=int, default=2,
                         help="link-flap windows to schedule")
    control.add_argument("--crashes", type=int, default=1,
                         help="router crash-restart windows to schedule")
    control.add_argument("--cost-changes", type=int, default=2,
                         help="link-cost changes to schedule")
    control.add_argument("--hello-interval", type=int, default=1,
                         help="ticks between hellos (default 1)")
    control.add_argument("--dead-interval", type=int, default=4,
                         help="silent ticks before an adjacency dies")
    control.add_argument("--retransmit-interval", type=int, default=2,
                         help="ticks before an unacked LSA is resent")
    control.add_argument("--rebuild-budget", type=int, default=None,
                         help="max clue entries rebuilt per tick "
                              "(default: drain the backlog)")
    control.add_argument("--soft-invariant", action="store_true",
                         help="record wrong hops instead of raising")
    control.add_argument("--technique", default="patricia",
                         choices=("regular", "patricia", "binary", "6way"))
    control.add_argument("--seed", type=int, default=0)
    control.add_argument("--quick", action="store_true",
                         help="CI mode: clamp prefixes/ticks/traffic "
                              "(the 12-router mesh is kept)")
    control.add_argument("--output", default=None,
                         help="write BENCH_control.json here (default stdout)")
    control.add_argument("--format", choices=("json", "prom"), default="json",
                         help="report format (default json)")
    control.set_defaults(func=_cmd_control, parser=control)

    lint = sub.add_parser(
        "lint",
        help="static-analysis pass enforcing the repo's invariants",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files/directories to analyze (default src/repro)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text; sarif is SARIF 2.1.0)",
    )
    lint.add_argument(
        "--baseline", default="lint-baseline.json",
        help="committed baseline file (default lint-baseline.json)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current findings as the new baseline",
    )
    lint.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every rule with its rationale and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    bench = sub.add_parser(
        "bench-fastpath",
        help="scalar vs batched lookup throughput (BENCH_fastpath.json)",
    )
    bench.add_argument("--table-size", type=int, default=20000,
                       help="synthetic sender-table size (default 20000)")
    bench.add_argument("--packets", type=int, default=50000,
                       help="packets per timing loop (default 50000)")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--quick", action="store_true",
                       help="CI mode: clamp to 2000 prefixes / 5000 packets")
    bench.add_argument("--output", default=None,
                       help="write the JSON payload here (default stdout)")
    bench.add_argument("--layout", action="append", dest="layouts",
                       choices=("dense", "multibit4", "multibit8"),
                       default=None,
                       help="compiled layout to certify and measure; repeat "
                            "for a matrix (default: dense)")
    bench.set_defaults(func=_cmd_bench_fastpath)

    serve = sub.add_parser(
        "serve",
        help="sharded serving plane: batching, backpressure, Zipf load "
             "(BENCH_serve.json)",
    )
    _add_serving_options(serve, shards=4, requests=1000000,
                         payload="BENCH_serve.json")
    serve.add_argument("--layout", choices=("dense", "multibit4", "multibit8"),
                       default="dense",
                       help="compiled trie layout the shards serve through "
                            "(default dense)")
    serve.set_defaults(func=_cmd_serve, parser=serve)

    chaos = sub.add_parser(
        "chaos",
        help="fault-tolerant serving: replica failover, deadlines, "
             "hedging, shard chaos (BENCH_resilience.json)",
    )
    _add_serving_options(chaos, shards=2, requests=250000,
                         payload="BENCH_resilience.json")
    chaos.add_argument("--replication", type=int, default=2,
                       help="replicas per slice (default 2)")
    chaos.add_argument("--deadline", type=int, default=32,
                       help="per-request deadline budget in ticks")
    chaos.add_argument("--hedge-after", type=int, default=6,
                       help="ticks pending before hedged re-dispatch")
    chaos.add_argument("--max-retries", type=int, default=3,
                       help="bounded retry budget per request")
    chaos.add_argument("--rebuild-ticks", type=int, default=8,
                       help="ticks a crashed replica takes to rebuild")
    chaos.add_argument("--crashes", type=int, default=1,
                       help="replica crash/restart episodes to schedule")
    chaos.add_argument("--slowdowns", type=int, default=1,
                       help="slow-replica windows to schedule")
    chaos.add_argument("--drops", type=int, default=1,
                       help="batch-drop windows to schedule")
    chaos.set_defaults(func=_cmd_chaos, parser=chaos)

    space = sub.add_parser("space", help="§3.5 clue-table space model")
    space.add_argument("--entries", type=int, default=60000)
    space.add_argument("--pointer-fraction", type=float, default=0.1)
    space.set_defaults(func=_cmd_space)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
