"""Command-line interface.

Gives operators the Figure-2 workflow without writing Python:

* ``repro simulate``  — generate a synthetic botnet trace (observable
  CSV + ground truth) for experimentation;
* ``repro chart``     — run BotMeter over an observable CSV and print
  the per-server landscape;
* ``repro taxonomy``  — print the Figure-3 taxonomy grid;
* ``repro families``  — list implemented DGA families and parameters;
* ``repro sweep``     — run one Figure-6 sweep row;
* ``repro enterprise``— run a (shortened) §V-B enterprise study;
* ``repro export-trace`` — write a synthetic trace in the botmeterd
  NDJSON wire format (or compact binary wire v2 with ``--wire v2``);
* ``repro convert-trace`` — convert a recorded trace between NDJSON
  and binary wire v2 (direction auto-detected);
* ``repro replay``    — drain a recorded trace through botmeterd (or
  the batch reference) and print the landscape series;
* ``repro serve``     — run botmeterd live: follow a file or stdin,
  with checkpointed recovery, metrics, optional fault injection
  (``--faults``) and restart supervision (``--supervise``); or listen
  for concurrent sensor connections (``--listen`` / ``--listen-uds``,
  the Sensornet ingest tier);
* ``repro sensor-send`` — stream an NDJSON trace (or one round-robin
  shard of it) to a listening botmeterd, with reconnect-and-resume;
* ``repro trace-report`` — aggregate one ``--trace-out`` span-event
  file (or several, with ``--merge``) into a per-stage latency table
  (Stagewatch);
* ``repro cluster-replay`` — drain a trace through an N-partition
  botmeterd cluster (Chartmesh) and merge the per-partition landscapes
  into one chart, byte-verified against the single-daemon replay;
* ``repro cluster-serve`` — run the cluster live: a router listener
  splits sensor streams by server hash across N partition backends
  (``--supervised`` adds Meshguard heartbeat supervision, seeded
  restarts, and durable router spooling).

Run ``python -m repro.cli <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core.botmeter import BotMeter, make_estimator
from .core.taxonomy import classify, render_taxonomy
from .dga.families import family_names, make_family
from .enterprise.trace_gen import EnterpriseConfig
from .eval.experiments import (
    sweep_d3_miss,
    sweep_dynamics,
    sweep_negative_ttl,
    sweep_population,
    sweep_window,
)
from .eval.parallel import TrialRunner
from .eval.realdata import run_enterprise_study
from .sim.network import SimConfig, simulate
from .sim.trace import load_observable_csv, save_observable_csv
from .timebase import SECONDS_PER_DAY, Timeline

__all__ = ["main", "build_parser"]

_SWEEPS = {
    "population": sweep_population,
    "window": sweep_window,
    "negative-ttl": sweep_negative_ttl,
    "dynamics": sweep_dynamics,
    "d3-miss": sweep_d3_miss,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BotMeter (ICDCS 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic botnet trace")
    sim.add_argument("--family", default="new_goz", choices=family_names())
    sim.add_argument("--bots", type=int, default=48)
    sim.add_argument("--servers", type=int, default=1)
    sim.add_argument("--days", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--sigma", type=float, default=0.0)
    sim.add_argument("--out", required=True, help="observable CSV output path")

    chart = sub.add_parser("chart", help="chart a landscape from an observable CSV")
    chart.add_argument("--family", default="new_goz", choices=family_names())
    chart.add_argument("--family-seed", type=int, default=7)
    chart.add_argument(
        "--estimator",
        default="auto",
        choices=("auto", "timing", "poisson", "bernoulli", "renewal"),
    )
    chart.add_argument("--negative-ttl", type=float, default=7_200.0)
    chart.add_argument("--granularity", type=float, default=0.1)
    chart.add_argument("trace", help="observable CSV (from `repro simulate`)")

    sub.add_parser("taxonomy", help="print the Figure-3 taxonomy grid")
    sub.add_parser("families", help="list implemented DGA families")

    sweep = sub.add_parser("sweep", help="run one Figure-6 sweep row")
    sweep.add_argument("row", choices=sorted(_SWEEPS))
    sweep.add_argument("--trials", type=int, default=3)
    sweep.add_argument(
        "--models", nargs="+", default=["AU", "AS", "AR", "AP"],
        choices=["AU", "AS", "AR", "AP"],
    )
    sweep.add_argument(
        "--values", nargs="+", type=float, default=None,
        help="override the row's swept parameter values",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="trial process-pool size (1 = serial; output is identical)",
    )
    sweep.add_argument(
        "--seed", type=int, default=0,
        help="root seed for the per-trial seed derivation",
    )
    sweep.add_argument(
        "--perf-json", default=None, metavar="PATH",
        help="write the runner's wall-time/throughput summary as JSON",
    )

    ent = sub.add_parser("enterprise", help="run the §V-B enterprise study")
    ent.add_argument("--days", type=int, default=210)
    ent.add_argument("--benign-clients", type=int, default=80)
    ent.add_argument("--seed", type=int, default=0)

    _SERVICE_ESTIMATORS = (
        "auto", "timing", "poisson", "bernoulli", "renewal", "occupancy", "ensemble",
    )

    def _add_engine_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--family", action="append", default=None, metavar="NAME[:SEED]",
            help="chart this DGA family (repeatable; default: the trace header)",
        )
        cmd.add_argument("--estimator", default="auto", choices=_SERVICE_ESTIMATORS)
        cmd.add_argument(
            "--grace", type=float, default=900.0,
            help="seconds past an epoch's end before it is emitted",
        )
        cmd.add_argument(
            "--granularity", type=float, default=None,
            help="timestamp granularity (default: the trace header, else 0.1)",
        )
        cmd.add_argument("--negative-ttl", type=float, default=7_200.0)
        cmd.add_argument(
            "--reorder-capacity", type=int, default=1024,
            help="bounded reorder-buffer size (the backpressure point)",
        )
        cmd.add_argument(
            "--policy", choices=("block", "drop-oldest"), default="block",
            help="full-buffer backpressure policy",
        )
        cmd.add_argument(
            "--max-corrupt", type=int, default=None,
            help="corrupt wire-line budget before aborting (default: unlimited)",
        )
        cmd.add_argument(
            "--faults", default=None, metavar="SPEC",
            help="seeded fault-injection schedule, e.g. "
                 "'seed=11,corrupt=0.01,dup=0.02,drop=0.008:3' "
                 "(see repro.service.faults.parse_fault_spec)",
        )
        cmd.add_argument(
            "--deadletter", default=None, metavar="PATH",
            help="NDJSON dead-letter sidecar for corrupt/late records",
        )
        cmd.add_argument("--out", default=None, help="landscape NDJSON (default: stdout)")
        cmd.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="write the Prometheus text exposition here",
        )
        cmd.add_argument(
            "--health-out", default=None, metavar="PATH",
            help="write the JSON health snapshot here",
        )
        cmd.add_argument(
            "--batch-lines", type=int, default=256, metavar="N",
            help="submit at most this many records per engine call "
                 "(1 = each record as it decodes; a wire-v2 frame submits "
                 "whole; output bytes never change)",
        )
        cmd.add_argument(
            "--profile", default=None, metavar="PATH",
            help="run under cProfile and dump pstats data here on exit "
                 "(also prints the Stagewatch per-stage attribution)",
        )
        cmd.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help="write Stagewatch span events here as NDJSON "
                 "(aggregate with `repro trace-report`)",
        )
        cmd.add_argument(
            "--trace-sample", type=int, default=16, metavar="N",
            help="time 1 of every N spans per stage (0 disables tracing; "
                 "output bytes never change either way)",
        )
        cmd.add_argument(
            "--d3", choices=("lexical", "oracle"), default=None,
            help="run an inline D3 detector in the decode path: 'lexical' "
                 "classifies every record with the committed char-bigram "
                 "model (benign verdicts never reach the engine; quality "
                 "annotations carry the measured miss/FP rates), 'oracle' "
                 "admits everything (the zero-miss baseline)",
        )
        cmd.add_argument(
            "--d3-threshold", type=float, default=0.0, metavar="MARGIN",
            help="lexical D3 decision threshold (score margin above which "
                 "a label is DGA)",
        )
        cmd.add_argument(
            "--d3-training", default=None, metavar="PATH",
            help="training-fixture JSON override for the lexical D3 model",
        )
        cmd.add_argument(
            "--doh-adoption", type=float, default=None, metavar="FRACTION",
            help="estimated encrypted-DNS adoption at this vantage; folded "
                 "into every epoch's quality.loss for interval widening "
                 "(default: the trace header's doh_adoption, else 0)",
        )

    export = sub.add_parser(
        "export-trace", help="write a synthetic trace as botmeterd NDJSON"
    )
    export.add_argument("--source", choices=("sim", "enterprise", "rekey"), default="sim")
    export.add_argument("--family", default="new_goz", choices=family_names())
    export.add_argument("--family-seed", type=int, default=7)
    export.add_argument(
        "--doh-adoption", type=float, default=0.0, metavar="FRACTION",
        help="sim/enterprise: fraction of bots per subnet resolving over "
             "encrypted DNS (invisible at the border vantage); recorded "
             "in the trace header",
    )
    export.add_argument(
        "--rekey-seed", type=int, default=21,
        help="rekey source: the seed the family migrates to at the handoff",
    )
    export.add_argument(
        "--takedown-hour", type=float, default=10.0,
        help="rekey source: hour of day 0 at which the takedown lands",
    )
    export.add_argument("--bots", type=int, default=48)
    export.add_argument("--servers", type=int, default=2)
    export.add_argument("--days", type=int, default=1)
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--sigma", type=float, default=0.0)
    export.add_argument(
        "--benign-clients", type=int, default=20,
        help="enterprise source only: benign client sample size",
    )
    export.add_argument("--out", required=True, help="trace output path")
    export.add_argument(
        "--wire", choices=("ndjson", "v2"), default="ndjson",
        help="output wire format: line-framed NDJSON (v1) or the compact "
             "binary frame format (botmeterd-wire-v2)",
    )
    export.add_argument(
        "--frame-records", type=int, default=4096, metavar="N",
        help="records per RECORDS frame when --wire v2",
    )

    convert = sub.add_parser(
        "convert-trace",
        help="convert a trace between NDJSON (v1) and binary wire v2; "
             "the direction is auto-detected from the input bytes",
    )
    convert.add_argument("trace", help="input trace (NDJSON or wire-v2)")
    convert.add_argument("--out", required=True, help="converted output path")
    convert.add_argument(
        "--frame-records", type=int, default=4096, metavar="N",
        help="records per RECORDS frame when converting to v2",
    )

    replay = sub.add_parser(
        "replay", help="drain a recorded NDJSON trace; print the landscape series"
    )
    replay.add_argument("trace", help="NDJSON trace (from `repro export-trace`)")
    replay.add_argument(
        "--engine", choices=("streaming", "batch"), default="streaming",
        help="botmeterd shards, or the per-epoch batch BotMeter reference",
    )
    _add_engine_options(replay)

    serve = sub.add_parser("serve", help="run botmeterd: follow a live NDJSON stream")
    serve.add_argument("--input", default=None,
                       help="trace file, or '-' for stdin (exclusive with --listen*)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="accept sensor connections over TCP (port 0 = ephemeral)")
    serve.add_argument("--listen-uds", default=None, metavar="PATH",
                       help="accept sensor connections on a Unix-domain socket")
    serve.add_argument("--expect-sensors", type=int, default=None, metavar="K",
                       help="gate the deterministic merge until K distinct "
                            "sensors said hello (recommended for determinism)")
    serve.add_argument("--addr-file", default=None, metavar="PATH",
                       help="write the bound addresses here once listening "
                            "(how sensors find an ephemeral port)")
    serve.add_argument("--net-window", type=int, default=4096, metavar="N",
                       help="per-sensor buffered-line cap before reads pause")
    _add_engine_options(serve)
    serve.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="checkpoint file (enables crash recovery)")
    serve.add_argument("--checkpoint-every", type=int, default=500, metavar="N",
                       help="records between checkpoints")
    serve.add_argument("--follow", action=argparse.BooleanOptionalAction, default=True,
                       help="keep tailing the input at EOF (--no-follow: drain and exit)")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       help="with --follow: exit after this many idle seconds")
    serve.add_argument("--poll-interval", type=float, default=0.1)
    serve.add_argument("--throttle", type=float, default=0.0,
                       help="seconds to sleep per record (crash-drill pacing)")
    serve.add_argument("--supervise", action="store_true",
                       help="restart the daemon on failures (bounded backoff, "
                            "injected hard faults disarmed on restart)")
    serve.add_argument("--max-restarts", type=int, default=5,
                       help="with --supervise: restart budget before giving up")
    serve.add_argument("--watchdog-deadline", type=float, default=None,
                       help="with --follow: seconds of ingest silence before "
                            "checkpointing and raising a restartable stall")

    send = sub.add_parser(
        "sensor-send",
        help="stream an NDJSON trace (or one shard) to a listening botmeterd",
    )
    send.add_argument("trace", help="NDJSON trace (from `repro export-trace`)")
    send.add_argument("--sensor", required=True, help="this sensor's id (the cursor key)")
    send.add_argument("--connect", default=None, metavar="HOST:PORT|uds:PATH",
                      help="server address (exclusive with --addr-file)")
    send.add_argument("--addr-file", default=None, metavar="PATH",
                      help="resolve the server from its --addr-file "
                           "(re-read on every reconnect attempt)")
    send.add_argument("--prefer", choices=("tcp", "uds"), default="tcp",
                      help="with --addr-file: preferred transport")
    send.add_argument("--shard", default=None, metavar="I/K",
                      help="send round-robin shard I of K (header goes to all)")
    send.add_argument("--from-ack", action="store_true",
                      help="resume from the last durable ack instead of the "
                           "welcome cursor (server discards the overlap)")
    send.add_argument("--retry-deadline", type=float, default=30.0,
                      help="give up reconnecting after this many seconds")
    send.add_argument("--throttle", type=float, default=0.0,
                      help="seconds to sleep per line (drill pacing)")

    trace = sub.add_parser(
        "trace-report",
        help="aggregate Stagewatch --trace-out file(s) into a per-stage table",
    )
    trace.add_argument(
        "trace", nargs="+",
        help="span-event NDJSON file(s) (from --trace-out); several files "
             "need --merge",
    )
    trace.add_argument(
        "--merge", action="store_true",
        help="fold multiple trace files (e.g. per-partition cluster traces) "
             "into one merged stage table, quantiles over the union",
    )
    trace.add_argument(
        "--json", action="store_true",
        help="emit the raw per-stage aggregation as JSON instead of a table",
    )

    def _add_cluster_engine_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--estimator", default="auto", choices=_SERVICE_ESTIMATORS)
        cmd.add_argument(
            "--grace", type=float, default=900.0,
            help="seconds past an epoch's end before it is emitted",
        )
        cmd.add_argument(
            "--reorder-capacity", type=int, default=1024,
            help="per-partition bounded reorder-buffer size",
        )
        cmd.add_argument(
            "--batch-lines", type=int, default=256, metavar="N",
            help="per-partition decode/submit batch size",
        )
        cmd.add_argument(
            "--trace-sample", type=int, default=0, metavar="N",
            help="Stagewatch sampling per partition (0 disables; merge the "
                 "per-partition files with `repro trace-report --merge`)",
        )

    creplay = sub.add_parser(
        "cluster-replay",
        help="drain a trace through an N-partition cluster; merge the "
             "landscapes into one chart (Chartmesh)",
    )
    creplay.add_argument("trace", help="NDJSON trace (from `repro export-trace`)")
    creplay.add_argument("--workdir", required=True,
                         help="cluster state directory (resumable)")
    creplay.add_argument("--partitions", type=int, default=None, metavar="N",
                         help="flat replay across N partitions "
                              "(exclusive with --plan)")
    creplay.add_argument(
        "--plan", default=None, metavar="N[:LINE],M[:LINE],...",
        help="reshard plan: run N partitions up to payload line LINE, "
             "then re-key to M, ... (the last segment runs to the end)",
    )
    creplay.add_argument(
        "--verify", action=argparse.BooleanOptionalAction, default=True,
        help="byte-compare the merged chart against a single-daemon replay",
    )
    creplay.add_argument("--checkpoint-every", type=int, default=100_000,
                         metavar="N", help="records between mid-segment checkpoints")
    _add_cluster_engine_options(creplay)

    cserve = sub.add_parser(
        "cluster-serve",
        help="serve Sensornet ingest through an N-partition cluster "
             "(router + partition backends)",
    )
    cserve.add_argument("--workdir", required=True,
                        help="cluster state directory (checkpoints, outputs)")
    cserve.add_argument("--partitions", type=int, default=3, metavar="N")
    cserve.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="router TCP listener (port 0 = ephemeral; "
                             "default 127.0.0.1:0 when no listener given)")
    cserve.add_argument("--listen-uds", default=None, metavar="PATH",
                        help="router Unix-domain-socket listener")
    cserve.add_argument("--addr-file", default=None, metavar="PATH",
                        help="write the router's bound addresses here")
    cserve.add_argument("--expect-sensors", type=int, default=None, metavar="K",
                        help="gate the router merge until K sensors said hello")
    cserve.add_argument("--checkpoint-every", type=int, default=500, metavar="N",
                        help="records between per-partition checkpoints")
    cserve.add_argument(
        "--supervised", action="store_true",
        help="run partitions under the Meshguard supervisor: heartbeat "
             "health, seeded-backoff restarts, durable router spooling",
    )
    cserve.add_argument("--max-partition-restarts", type=int, default=3,
                        metavar="N", help="restart budget before a partition "
                                          "is disarmed (supervised only)")
    cserve.add_argument("--mesh-seed", type=int, default=0, metavar="SEED",
                        help="seed for restart-backoff jitter (supervised only)")
    _add_cluster_engine_options(cserve)

    report = sub.add_parser("report", help="full reproduction report (Markdown)")
    report.add_argument("--trials", type=int, default=3)
    report.add_argument("--skip-enterprise", action="store_true")
    report.add_argument("--out", default=None, help="write Markdown here instead of stdout")
    report.add_argument(
        "--sweeps", nargs="+", default=None,
        choices=["fig6a", "fig6b", "fig6c", "fig6d", "fig6e"],
        help="run only these Figure-6 rows (default: all five)",
    )
    report.add_argument(
        "--models", nargs="+", default=["AU", "AS", "AR", "AP"],
        choices=["AU", "AS", "AR", "AP"],
    )
    report.add_argument(
        "--workers", type=int, default=1,
        help="trial process-pool size (1 = serial; the report is identical)",
    )
    report.add_argument(
        "--seed", type=int, default=0,
        help="root seed for the per-trial seed derivation",
    )
    report.add_argument(
        "--perf-json", default=None, metavar="PATH",
        help="write the sweep perf summary (workers, wall time, throughput) as JSON",
    )

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimConfig(
        family=args.family,
        n_bots=args.bots,
        n_local_servers=args.servers,
        n_days=args.days,
        seed=args.seed,
        sigma=args.sigma,
    )
    result = simulate(config)
    save_observable_csv(result.observable, args.out)
    print(f"wrote {len(result.observable)} observable lookups to {args.out}")
    for day in range(args.days):
        print(f"day {day}: actual active bots = {result.ground_truth.population(day)}")
    return 0


def _cmd_chart(args: argparse.Namespace) -> int:
    records = load_observable_csv(args.trace)
    if not records:
        print("trace is empty", file=sys.stderr)
        return 1
    dga = make_family(args.family, args.family_seed)
    estimator = args.estimator if args.estimator == "auto" else make_estimator(args.estimator)
    meter = BotMeter(
        dga,
        estimator=estimator,
        negative_ttl=args.negative_ttl,
        timestamp_granularity=args.granularity,
        timeline=Timeline(),
    )
    landscape = meter.chart(records)
    print(landscape.summary())
    return 0


def _cmd_taxonomy(_args: argparse.Namespace) -> int:
    print(render_taxonomy())
    return 0


def _cmd_families(_args: argparse.Namespace) -> int:
    print(f"{'family':<14}{'class':<6}{'θ∅':>8}{'θ∃':>5}{'θq':>7}{'δi':>8}")
    for name in family_names():
        dga = make_family(name)
        params = dga.params
        interval = f"{params.query_interval:.1f}s" + ("" if params.fixed_interval else "*")
        print(
            f"{name:<14}{classify(dga).name:<6}{params.n_nxd:>8}"
            f"{params.n_registered:>5}{params.barrel_size:>7}{interval:>8}"
        )
    print("(* = jittered interval)")
    return 0


def _write_perf_json(path: str, runner: TrialRunner) -> None:
    import json
    from pathlib import Path

    Path(path).write_text(json.dumps(runner.perf_summary(), indent=2) + "\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    runner = TrialRunner(workers=args.workers, root_seed=args.seed)
    kwargs = dict(trials=args.trials, models=tuple(args.models), runner=runner)
    if args.values is not None:
        kwargs["values"] = tuple(args.values)
    result = _SWEEPS[args.row](**kwargs)
    print(result.render())
    if args.perf_json:
        _write_perf_json(args.perf_json, runner)
    return 0


def _cmd_enterprise(args: argparse.Namespace) -> int:
    config = EnterpriseConfig(
        n_days=args.days, n_benign_clients=args.benign_clients, seed=args.seed
    )
    result = run_enterprise_study(config)
    print(result.render_table2())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .eval.report import generate_report

    runner = TrialRunner(workers=args.workers, root_seed=args.seed)
    kwargs = dict(
        trials=args.trials,
        include_enterprise=not args.skip_enterprise,
        models=tuple(args.models),
        runner=runner,
    )
    if args.sweeps is not None:
        kwargs["sweep_keys"] = tuple(args.sweeps)
    report = generate_report(**kwargs)
    markdown = report.to_markdown()
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(markdown)
        print(f"wrote report to {args.out}")
    else:
        print(markdown)
    if args.perf_json:
        _write_perf_json(args.perf_json, runner)
    return 0


def _parse_family_specs(specs: Sequence[str] | None):
    """``NAME[:SEED]`` flags -> ``{name: Dga}`` (``None`` defers to header)."""
    if not specs:
        return None
    dgas = {}
    for spec in specs:
        name, _, seed = spec.partition(":")
        dgas[name] = make_family(name, int(seed) if seed else 0)
    return dgas


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from .service.wire import WIRE_VERSION, encode_header, encode_record

    if args.source == "rekey":
        # Takedown/re-key campaign: the splice carries a `register`
        # control line, which only the NDJSON wire can express.
        if args.wire == "v2":
            print("error: --source rekey requires --wire ndjson", file=sys.stderr)
            return 2
        from .service.liveview import RekeyConfig, write_rekey_trace

        rekey_config = RekeyConfig(
            family=args.family,
            base_seed=args.family_seed,
            rekey_seed=args.rekey_seed,
            n_bots=args.bots,
            n_days=args.days,
            takedown_hour=args.takedown_hour,
            seed=args.seed,
        )
        header = write_rekey_trace(args.out, rekey_config)
        count = sum(1 for _ in open(args.out)) - 1
        print(
            f"wrote {count} lines (rekey: takedown day 0, handoff to "
            f"{header['rekey']['family']} at day {header['rekey']['handoff_day']}) "
            f"to {args.out}",
            file=sys.stderr,
        )
        return 0
    if args.source == "sim":
        config = SimConfig(
            family=args.family,
            family_seed=args.family_seed,
            n_bots=args.bots,
            n_local_servers=args.servers,
            n_days=args.days,
            seed=args.seed,
            sigma=args.sigma,
            doh_adoption=args.doh_adoption,
        )
        header = {
            "schema": "botmeter-trace-v1",
            "source": "sim",
            "families": [{"name": args.family, "seed": args.family_seed}],
            "granularity": config.timestamp_granularity,
            "negative_ttl": config.negative_ttl,
            "origin": config.origin.isoformat(),
        }
        if config.doh_adoption > 0:
            header["doh_adoption"] = config.doh_adoption
        records = simulate(config).observable
    else:
        from .enterprise.trace_gen import EnterpriseTraceGenerator

        config = EnterpriseConfig(
            n_days=args.days,
            n_benign_clients=args.benign_clients,
            seed=args.seed,
            doh_adoption=args.doh_adoption,
        )
        header = {
            "schema": "botmeter-trace-v1",
            "source": "enterprise",
            "families": [
                {"name": wave.family, "seed": wave.family_seed}
                for wave in config.waves
            ],
            "granularity": config.timestamp_granularity,
            "negative_ttl": config.negative_ttl,
            "origin": config.origin.isoformat(),
        }
        if config.doh_adoption > 0:
            header["doh_adoption"] = config.doh_adoption
        records = (
            record
            for day in EnterpriseTraceGenerator(config).days()
            for record in day.observable
        )
    count = 0
    if args.wire == "v2":
        from .service.wire2 import Wire2Writer

        # The META payload carries the same envelope NDJSON puts on its
        # header line, so a v2 export converts back to byte-identical NDJSON.
        with open(args.out, "wb") as fh:
            writer = Wire2Writer(fh, frame_records=args.frame_records)
            writer.write_header({"v": WIRE_VERSION, "type": "header", **header})
            for record in records:
                writer.add(record)
                count += 1
            writer.close()
    else:
        with open(args.out, "w") as fh:
            fh.write(encode_header(header) + "\n")
            for record in records:
                fh.write(encode_record(record) + "\n")
                count += 1
    print(
        f"wrote {count} records ({args.source}, {args.wire}) to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_convert_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .service.wire2 import ndjson_to_wire2, sniff_wire2, wire2_to_ndjson_lines

    raw = Path(args.trace).read_bytes()
    if sniff_wire2(raw[:4]):
        lines = wire2_to_ndjson_lines(raw)
        payload = b"\n".join(lines) + (b"\n" if lines else b"")
        Path(args.out).write_bytes(payload)
        print(
            f"converted v2 -> ndjson: {len(lines)} lines to {args.out}",
            file=sys.stderr,
        )
    else:
        with open(args.out, "wb") as fh:
            reader = ndjson_to_wire2(
                raw.splitlines(), fh, frame_records=args.frame_records
            )
        print(
            f"converted ndjson -> v2: {reader.records} records, "
            f"{reader.corrupt} quarantined to {args.out}",
            file=sys.stderr,
        )
    return 0


def _print_stage_attribution(daemon) -> None:
    """The Stagewatch per-stage table for ``--profile`` runs."""
    tracer = getattr(daemon, "tracer", None)
    if tracer is None:
        return
    summary = tracer.summary()
    if not summary["stages"]:
        return
    from .service.tracing import render_stage_table

    print(render_stage_table(summary), file=sys.stderr)


def _run_profiled(args: argparse.Namespace, fn, daemon=None):
    """Run ``fn`` — under cProfile when ``--profile PATH`` was given."""
    if getattr(args, "profile", None) is None:
        return fn()
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        print(
            f"profile written to {args.profile} "
            f"(inspect with `python -m pstats {args.profile}`)",
            file=sys.stderr,
        )
        if daemon is not None:
            # Supervised runs pass a getter: the daemon instance only
            # exists once the supervisor has built (or rebuilt) it.
            _print_stage_attribution(daemon() if callable(daemon) else daemon)


def _run_daemon(args: argparse.Namespace, fn, daemon) -> int:
    """:func:`_run_profiled` for a daemon run: a checkpoint that cannot
    be resumed is one stderr line and exit code 1."""
    from .service.checkpoint import CheckpointError

    try:
        return _run_profiled(args, fn, daemon=daemon)
    except CheckpointError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from .service.daemon import BotMeterDaemon, batch_series, families_from_header
    from .service.wire import NdjsonReader, encode_landscape

    dgas = _parse_family_specs(args.family)
    if args.engine == "streaming":
        daemon = BotMeterDaemon(
            args.trace,
            out_path=args.out,
            families=dgas,
            estimator=args.estimator,
            grace=args.grace,
            negative_ttl=args.negative_ttl,
            timestamp_granularity=args.granularity,
            reorder_capacity=args.reorder_capacity,
            policy=args.policy,
            follow=False,
            max_corrupt=args.max_corrupt,
            metrics_path=args.metrics_out,
            health_path=args.health_out,
            fault_injector=_make_injector(args),
            deadletter_path=args.deadletter,
            batch_lines=args.batch_lines,
            trace_out=args.trace_out,
            trace_sample=args.trace_sample,
            d3=args.d3,
            d3_threshold=args.d3_threshold,
            d3_training=args.d3_training,
            doh_adoption=args.doh_adoption,
        )
        return _run_daemon(args, daemon.run, daemon=daemon)

    reader = NdjsonReader(max_corrupt=args.max_corrupt)
    if args.deadletter:
        from .service.deadletter import MAX_LINE_SNIPPET, DeadLetterQueue

        dlq = DeadLetterQueue(args.deadletter)
        dlq.reset()
        reader.on_corrupt = lambda line, why: dlq.quarantine(
            "corrupt", line=line[:MAX_LINE_SNIPPET], why=why
        )
    injector = _make_injector(args)
    if injector is not None:
        with open(args.trace, "r") as fh:
            records = list(reader.read(injector.wrap(iter(fh))))
    else:
        with open(args.trace, "rb") as fh:
            records = list(reader.read(fh))
    header = reader.header or {}
    if dgas is None:
        if reader.header is None:
            print("no --family given and the trace has no header", file=sys.stderr)
            return 1
        dgas = families_from_header(reader.header)
    granularity = (
        args.granularity
        if args.granularity is not None
        else float(header.get("granularity", 0.1))
    )
    timeline = None
    if "origin" in header:
        import datetime as _dtmod

        timeline = Timeline(_dtmod.date.fromisoformat(header["origin"]))
    series = _run_profiled(
        args,
        lambda: batch_series(
            records,
            dgas,
            estimator=args.estimator,
            negative_ttl=args.negative_ttl,
            timestamp_granularity=granularity,
            timeline=timeline,
        ),
    )
    lines = [
        encode_landscape(epoch.family, epoch.day_index, epoch.landscape)
        for epoch in series
    ]
    if args.out:
        from pathlib import Path

        Path(args.out).write_text("".join(line + "\n" for line in lines))
    else:
        for line in lines:
            print(line)
    return 0


def _make_injector(args: argparse.Namespace, disarmed=None):
    if getattr(args, "faults", None) is None:
        return None
    from .service.faults import FaultInjector

    return FaultInjector(args.faults, disarmed=disarmed)


def _listen_address(spec: str | None) -> tuple[str, int] | None:
    """``--listen HOST:PORT`` -> ``(host, port)``; ``None`` when unset.

    An empty host binds 127.0.0.1; port 0 is ephemeral.  Raises
    :class:`ValueError` on anything else.
    """
    if not spec:
        return None
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"--listen wants HOST:PORT, got {spec!r}")
    return (host or "127.0.0.1", int(port))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.daemon import BotMeterDaemon

    net_mode = args.listen is not None or args.listen_uds is not None
    if net_mode and args.input:
        print("serve: --input and --listen/--listen-uds are exclusive", file=sys.stderr)
        return 2
    if not net_mode and not args.input:
        print("serve: need --input, --listen or --listen-uds", file=sys.stderr)
        return 2
    if net_mode and args.supervise:
        print("serve: --supervise is file-ingest only", file=sys.stderr)
        return 2
    if net_mode and args.faults:
        # The injector hooks the raw file-line path, which network
        # ingest bypasses; refusing beats silently not injecting.
        print("serve: --faults is file-ingest only", file=sys.stderr)
        return 2
    input_label = args.input if args.input else f"net:{args.listen or args.listen_uds}"

    def build_daemon(disarmed=None) -> BotMeterDaemon:
        return BotMeterDaemon(
            input_label,
            out_path=args.out,
            checkpoint_path=args.checkpoint,
            families=_parse_family_specs(args.family),
            estimator=args.estimator,
            grace=args.grace,
            negative_ttl=args.negative_ttl,
            timestamp_granularity=args.granularity,
            reorder_capacity=args.reorder_capacity,
            policy=args.policy,
            checkpoint_every=args.checkpoint_every,
            follow=args.follow,
            idle_timeout=args.idle_timeout,
            poll_interval=args.poll_interval,
            throttle=args.throttle,
            max_corrupt=args.max_corrupt,
            metrics_path=args.metrics_out,
            health_path=args.health_out,
            fault_injector=_make_injector(args, disarmed),
            deadletter_path=args.deadletter,
            watchdog_deadline=args.watchdog_deadline,
            batch_lines=args.batch_lines,
            trace_out=args.trace_out,
            trace_sample=args.trace_sample,
            d3=args.d3,
            d3_threshold=args.d3_threshold,
            d3_training=args.d3_training,
            doh_adoption=args.doh_adoption,
        )

    if net_mode:
        from .service.netingest import NetIngestServer

        try:
            tcp = _listen_address(args.listen)
        except ValueError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
        daemon = build_daemon()
        server = NetIngestServer(
            daemon,
            tcp=tcp,
            uds=args.listen_uds,
            expect_sensors=args.expect_sensors,
            window=args.net_window,
            addr_file=args.addr_file,
            idle_timeout=args.idle_timeout,
        )
        return _run_daemon(args, server.serve, daemon=daemon)

    if not args.supervise:
        daemon = build_daemon()
        return _run_daemon(args, daemon.run, daemon=daemon)

    from .service.supervisor import Supervisor, SupervisorGaveUp

    supervisor = Supervisor(build_daemon, max_restarts=args.max_restarts)
    try:
        return _run_daemon(args, supervisor.run, daemon=lambda: supervisor.daemon)
    except SupervisorGaveUp as exc:
        print(f"supervisor gave up: {exc}", file=sys.stderr)
        return 1


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from .service.tracing import render_trace_report, trace_report

    if len(args.trace) > 1 and not args.merge:
        print(
            "trace-report: several trace files need --merge "
            "(one merged stage table over the union)",
            file=sys.stderr,
        )
        return 2
    try:
        # --merge tolerates crash debris: a partition SIGKILLed before
        # its first header flush leaves a missing/empty trace file, and
        # the merged report should not die on it.
        report = trace_report(*args.trace, skip_missing=args.merge)
    except (OSError, ValueError) as exc:
        print(f"trace-report: {exc}", file=sys.stderr)
        return 1
    for path in report.get("skipped_files", ()):
        print(
            f"trace-report: warning: skipped missing/empty trace file {path}",
            file=sys.stderr,
        )
    try:
        if args.json:
            import json as _json

            print(_json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_trace_report(report))
    except BrokenPipeError:
        # Downstream pager/head closed early: not an error worth a trace.
        # Point stdout at devnull so the interpreter's exit-time flush
        # doesn't raise the same error again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


def _cmd_sensor_send(args: argparse.Namespace) -> int:
    import json as _json

    from .service.netingest import (
        SensorClient,
        SensorError,
        parse_address,
        read_address_file,
        shard_trace_lines,
    )

    if bool(args.connect) == bool(args.addr_file):
        print("sensor-send: need exactly one of --connect / --addr-file",
              file=sys.stderr)
        return 2
    if args.connect:
        address = parse_address(args.connect)
    else:
        addr_file, prefer = args.addr_file, args.prefer
        address = lambda: read_address_file(addr_file, prefer=prefer)  # noqa: E731
    shard = None
    if args.shard:
        index, sep, count = args.shard.partition("/")
        if not sep or not index.isdigit() or not count.isdigit():
            print(f"sensor-send: --shard wants I/K, got {args.shard!r}",
                  file=sys.stderr)
            return 2
        shard = (int(index), int(count))
    client = SensorClient(
        address,
        args.sensor,
        resume="ack" if args.from_ack else "welcome",
        retry_deadline=args.retry_deadline,
        throttle=args.throttle,
    )
    try:
        from pathlib import Path

        lines = Path(args.trace).read_bytes().splitlines()
        if shard is not None:
            lines = shard_trace_lines(lines, *shard)
        report = client.replay_lines(lines)
    except SensorError as exc:
        print(f"sensor-send: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(report.__dict__, sort_keys=True))
    return 0


def _parse_plan_spec(spec: str):
    """``N[:LINE],M[:LINE],...`` -> ``[(n_partitions, end_line|None)]``."""
    plan = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        n, _, end = chunk.partition(":")
        if not n.isdigit() or (end and not end.isdigit()):
            raise ValueError(f"bad plan segment {chunk!r} (want N or N:LINE)")
        plan.append((int(n), int(end) if end else None))
    if not plan:
        raise ValueError("empty plan")
    return plan


def _cmd_cluster_replay(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .service.cluster import ClusterError, ClusterVerifyError, cluster_replay

    if (args.partitions is None) == (args.plan is None):
        print("cluster-replay: need exactly one of --partitions / --plan",
              file=sys.stderr)
        return 2
    plan = None
    if args.plan is not None:
        try:
            plan = _parse_plan_spec(args.plan)
        except ValueError as exc:
            print(f"cluster-replay: {exc}", file=sys.stderr)
            return 2
    try:
        report = cluster_replay(
            Path(args.trace),
            Path(args.workdir),
            partitions=args.partitions,
            plan=plan,
            verify=args.verify,
            estimator=args.estimator,
            grace=args.grace,
            reorder_capacity=args.reorder_capacity,
            batch_lines=args.batch_lines,
            checkpoint_every=args.checkpoint_every,
            trace_sample=args.trace_sample,
            log=sys.stderr,
        )
    except ClusterVerifyError as exc:
        print(f"CLUSTER VERIFY FAILED: {exc}", file=sys.stderr)
        return 1
    except ClusterError as exc:
        print(f"cluster-replay: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .service.cluster import ClusterError, cluster_serve

    try:
        tcp = _listen_address(args.listen)
    except ValueError as exc:
        print(f"cluster-serve: {exc}", file=sys.stderr)
        return 2
    try:
        report = cluster_serve(
            Path(args.workdir),
            partitions=args.partitions,
            tcp=tcp,
            uds=args.listen_uds,
            addr_file=args.addr_file,
            expect_sensors=args.expect_sensors,
            estimator=args.estimator,
            grace=args.grace,
            reorder_capacity=args.reorder_capacity,
            batch_lines=args.batch_lines,
            checkpoint_every=args.checkpoint_every,
            trace_sample=args.trace_sample,
            supervised=args.supervised,
            max_partition_restarts=args.max_partition_restarts,
            mesh_seed=args.mesh_seed,
            log=sys.stderr,
        )
    except ClusterError as exc:
        print(f"cluster-serve: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(report, indent=2, sort_keys=True))
    return int(report.get("exit_code", 0) or 0)


_HANDLERS = {
    "simulate": _cmd_simulate,
    "chart": _cmd_chart,
    "taxonomy": _cmd_taxonomy,
    "families": _cmd_families,
    "sweep": _cmd_sweep,
    "enterprise": _cmd_enterprise,
    "report": _cmd_report,
    "export-trace": _cmd_export_trace,
    "convert-trace": _cmd_convert_trace,
    "replay": _cmd_replay,
    "serve": _cmd_serve,
    "sensor-send": _cmd_sensor_send,
    "trace-report": _cmd_trace_report,
    "cluster-replay": _cmd_cluster_replay,
    "cluster-serve": _cmd_cluster_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
