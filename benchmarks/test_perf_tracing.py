"""Stagewatch overhead guard: tracing-enabled replay must stay cheap.

Replays the same trace three ways — tracer disabled (``trace_sample=0``),
default sampling with no sink, and default sampling with a span-event
sink — and emits the ``BENCH_tracing.json`` (repro-perf-v1) artifact.
The sampled-tracing run must stay within 5% of the untraced baseline;
the bound is enforced under ``REPRO_PERF_STRICT=1`` (the CI
``trace-smoke`` smoke row) and advisory elsewhere.

Three measurement choices keep the guard stable on shared runners:

* the gated ratio uses **CPU time** (``time.process_time``) — tracing
  overhead is pure CPU work, and wall-clock on a noisy box jitters by
  far more than the 5% being measured.  Wall times still land in the
  artifact for trend tracking;
* variants run interleaved round-robin (not grouped), the order
  rotating every round so no variant always occupies the same slot,
  and the gated statistic is the **median of per-round paired ratios**
  (``sampled_cpu / untraced_cpu`` within each round): adjacent runs
  share whatever noise regime the host is in, so the ratio cancels it,
  and the median discards rounds where a burst hit only one variant;
* garbage is collected before every timed run, so collection pauses do
  not land on whichever variant happened to cross the GC threshold.

The sink variant is reported but not gated: span-event serialisation is
an opt-in debugging artifact, priced separately from always-on
histograms.
"""

import gc
import json
import os
import statistics
import time
from pathlib import Path

from repro.service.daemon import BotMeterDaemon
from repro.service.tracing import DEFAULT_SAMPLE
from repro.service.wire import encode_header, encode_record
from repro.sim import SimConfig, simulate

#: The acceptance bound: traced CPU time <= baseline * (1 + this).
OVERHEAD_BUDGET = 0.05

#: Interleaved rounds; the median paired ratio filters scheduler noise.
#: 15 rounds of a two-day replay narrow its spread against 7 rounds of
#: one day, whose median crossed the budget in 2 of 10 runs on a 2-vCPU
#: host with no code change.  On a host whose CPU time moves by ±30%
#: between runs the gate can still fail (EXPERIMENTS.md).
RUNS = 15

VARIANTS = {
    "untraced": (0, False),
    "sampled": (DEFAULT_SAMPLE, False),
    "sink": (DEFAULT_SAMPLE, True),
}


def artifact_path(tmp_path: Path, name: str) -> Path:
    root = os.environ.get("REPRO_PERF_DIR")
    directory = Path(root) if root else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def write_artifact(path: Path, payload: dict) -> None:
    payload = {"schema": "repro-perf-v1", "cpu_count": os.cpu_count(), **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nperf artifact: {path}")
    print(json.dumps(payload, indent=2, sort_keys=True))


def test_perf_tracing_overhead(tmp_path):
    run = simulate(
        SimConfig(family="murofet", n_bots=32, n_local_servers=4, n_days=2, seed=13)
    )
    trace = tmp_path / "trace.ndjson"
    with open(trace, "w") as fh:
        fh.write(
            encode_header(
                {
                    "families": [{"name": "murofet", "seed": 0}],
                    "granularity": 0.1,
                    "origin": run.timeline.origin.isoformat(),
                }
            )
            + "\n"
        )
        for record in run.observable:
            fh.write(encode_record(record) + "\n")
    n_records = len(run.observable)

    def replay(trace_sample: int, with_sink: bool) -> tuple[float, float, bytes]:
        out = tmp_path / "out.ndjson"
        daemon = BotMeterDaemon(
            trace,
            out_path=out,
            families={"murofet": run.dga},
            log_stream=open(os.devnull, "w"),
            batch_lines=256,
            trace_sample=trace_sample,
            trace_out=(tmp_path / "events.ndjson") if with_sink else None,
        )
        gc.collect()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        assert daemon.run() == 0
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        return cpu, wall, out.read_bytes()

    replay(0, False)  # warm imports and kernel caches
    replay(DEFAULT_SAMPLE, True)
    cpu: dict[str, list[float]] = {name: [] for name in VARIANTS}
    wall: dict[str, list[float]] = {name: [] for name in VARIANTS}
    output: dict[str, bytes] = {}
    order = list(VARIANTS)
    for round_index in range(RUNS):
        shift = round_index % len(order)
        for name in order[shift:] + order[:shift]:
            sample, with_sink = VARIANTS[name]
            cpu_s, wall_s, out_bytes = replay(sample, with_sink)
            cpu[name].append(cpu_s)
            wall[name].append(wall_s)
            output[name] = out_bytes

    # Observational purity holds regardless of which variant ran.
    assert output["sampled"] == output["untraced"]
    assert output["sink"] == output["untraced"]

    baseline_s = min(cpu["untraced"])
    overhead = statistics.median(
        s / u for s, u in zip(cpu["sampled"], cpu["untraced"])
    ) - 1.0
    sink_overhead = statistics.median(
        s / u for s, u in zip(cpu["sink"], cpu["untraced"])
    ) - 1.0
    strict = os.environ.get("REPRO_PERF_STRICT") == "1"
    write_artifact(
        artifact_path(tmp_path, "BENCH_tracing.json"),
        {
            "component": "service.tracing.overhead",
            "n_records": n_records,
            "trace_sample": DEFAULT_SAMPLE,
            "runs_per_variant": RUNS,
            "cpu_seconds_untraced": baseline_s,
            "cpu_seconds_sampled": min(cpu["sampled"]),
            "cpu_seconds_sampled_with_sink": min(cpu["sink"]),
            "wall_seconds_untraced": min(wall["untraced"]),
            "wall_seconds_sampled": min(wall["sampled"]),
            "wall_seconds_sampled_with_sink": min(wall["sink"]),
            "overhead_fraction_sampled": overhead,
            "overhead_fraction_with_sink": sink_overhead,
            "budget_fraction": OVERHEAD_BUDGET,
            "strict": strict,
        },
    )
    if strict:
        assert overhead <= OVERHEAD_BUDGET, (
            f"sampled tracing costs {overhead:.1%} CPU over the untraced "
            f"replay (budget {OVERHEAD_BUDGET:.0%}; median paired ratio over "
            f"{RUNS} rounds, untraced best {baseline_s:.3f}s, "
            f"{n_records} records)"
        )
