"""Tests of the benchmark's own logic (``python -m pytest bench -q``)."""

from __future__ import annotations

import dataclasses
import json
import re
import statistics
import subprocess
import sys
import time

import pytest

import run
import traced
import workloads

# -- statistics -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.supported_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert run.percentile([7.0], 99) == 7.0


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, med, q3 = run.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert run.quartiles([2.0]) == (2.0, 2.0, 2.0)


# -- crossing records and emission lag --------------------------------------

DAY = workloads.SECONDS_PER_DAY
GRACE = workloads.GRACE_S


def _row(epoch: int) -> bytes:
    return json.dumps({"type": "landscape", "epoch": epoch}).encode()


def test_crossing_record_is_first_at_or_past_the_grace_deadline():
    timestamps = [0.0, 50_000.0, DAY + GRACE - 0.1, DAY + GRACE, DAY + GRACE + 5,
                  2 * DAY + GRACE + 1, 2 * DAY + GRACE + 2]
    assert workloads.crossing_indices(timestamps) == {0: 3, 1: 5}


def test_one_record_can_cross_several_days():
    assert workloads.crossing_indices([10.0, 3 * DAY + GRACE]) == {0: 1, 1: 1, 2: 1}
    assert workloads.crossing_indices([10.0, 20.0]) == {}


def test_emission_lag_on_a_synthetic_schedule():
    # Header at 0, then record i due at 3 + i/4 s; records 4 and 9 close
    # epochs 0 and 1.  Epoch 2 closes only at stream end: no lag sample.
    due = [0.0] + [3.0 + i / 4 for i in range(12)]
    crossings = {0: 4, 1: 9}
    rows = [(4.5, _row(0)), (4.5, _row(0)), (6.0, _row(1)), (6.1, _row(1)), (9.0, _row(2))]
    lags = run.emission_lags(rows, crossings, due)
    assert lags == pytest.approx([4.5 - 4.0, 6.0 - 5.25])


def test_replay_lag_is_time_to_the_last_epochs_first_row():
    rows = [(1.5, _row(0)), (1.6, _row(0)), (2.5, _row(1)), (2.6, _row(1))]
    assert run.emission_lags(rows, None, None) == [2.5]
    assert run.emission_lags([], None, None) == []


def test_live_schedule_spacing():
    due = run.live_schedule(3)
    start, rate = workloads.LIVE_HEAD_START_S, workloads.LIVE_RATE
    assert due == [0.0, start, start + 1 / rate, start + 2 / rate]


# -- spans and self time ----------------------------------------------------


class ManualClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_self_time_subtracts_nested_spans():
    clock = ManualClock()
    recorder = traced.Recorder(clock=clock)
    inner = recorder.wrap("b.inner", lambda: clock.advance(3), keep=True)

    def body():
        clock.advance(2)
        inner()
        inner()
        clock.advance(1)

    outer = recorder.wrap("a.outer", body, keep=True)
    outer()
    assert recorder.totals["a.outer"] == [1, 9, 3]
    assert recorder.totals["b.inner"] == [2, 6, 6]
    assert recorder.spans == [
        ("b.inner", 2, 5, "a.outer"),
        ("b.inner", 5, 8, "a.outer"),
        ("a.outer", 0, 9, None),
    ]


def test_wrapped_generator_is_timed_per_next_only():
    clock = ManualClock()
    recorder = traced.Recorder(clock=clock)

    def produce(n):
        for i in range(n):
            clock.advance(2)  # producing an item
            yield i

    timed_produce = recorder.wrap_generator("g.produce", produce)

    def consume():
        items = []
        for item in timed_produce(3):
            clock.advance(5)  # consumer work between nexts
            items.append(item)
        return items

    outer = recorder.wrap("c.consume", consume)
    assert outer() == [0, 1, 2]
    calls, total, self_ns = recorder.totals["g.produce"]
    assert (calls, total, self_ns) == (4, 6, 6)  # 3 items + the exhausting next
    assert recorder.totals["c.consume"] == [1, 21, 15]


def test_exceptions_still_close_the_span():
    clock = ManualClock()
    recorder = traced.Recorder(clock=clock)

    def boom():
        clock.advance(4)
        raise ValueError("x")

    wrapped = recorder.wrap("e.boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert recorder.totals["e.boom"] == [1, 4, 4]
    assert recorder._stack == []


def _doc(**overrides):
    doc = {
        "import_s": 0.5,
        "totals": {
            "daemon.run": [1, 2_000_000_000, 300_000_000],
            "engine.submit_batch": [10, 1_200_000_000, 600_000_000],
            "engine.submit_columns": [4, 100_000_000, 50_000_000],
            "dga.nxdomains": [6, 500_000_000, 500_000_000],
            "liveview.admit": [8, 80, 80],
        },
        "spans": [],
        "close_ns": [10_000_000, 30_000_000, 20_000_000],
        "columns_fallbacks": 1,
        "distinct_windows": 2,
        "admitted": 6,
        "checkpoint_ns": [],
        "checkpoint_bytes": 0,
    }
    doc.update(overrides)
    return doc


def test_layer_metrics_from_a_trace_document():
    metrics = traced.layer_metrics(_doc(), n_records=1000, wall_s=3.0)
    assert metrics["engine.route_ns_per_rec"] == pytest.approx(650_000.0)
    assert metrics["engine.columns_fastpath_frac"] == pytest.approx(0.75)
    assert metrics["engine.close_ms_p50"] == pytest.approx(20.0)
    assert metrics["dga.window_calls"] == 6
    assert metrics["dga.window_waste"] == pytest.approx(3.0)
    assert metrics["liveview.admit_frac"] == pytest.approx(0.75)
    assert metrics["daemon.loop_self_ms"] == pytest.approx(300.0)
    # attributed: 0.5 import + 1.45 s of self time, of 3.0 s wall
    assert metrics["trace.unattributed_frac"] == pytest.approx(1.05 / 3.0)
    caller_provided = {"trace.overhead_frac", "gen.late_max_s", "host.probe_s"}
    assert set(metrics) == {m.name for m in traced.LAYER_METRICS} - caller_provided


def test_layer_ratios_with_no_calls_read_zero():
    doc = _doc(totals={}, close_ns=[], columns_fallbacks=0, distinct_windows=0, admitted=0)
    metrics = traced.layer_metrics(doc, n_records=10, wall_s=1.0)
    for name in ("engine.columns_fastpath_frac", "dga.window_waste",
                 "liveview.admit_frac", "engine.close_ms_p50"):
        assert metrics[name] == 0.0


def test_every_wrapped_callable_exists():
    import importlib

    for module_name, attribute, name, kind in traced.WRAPS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attribute)


# -- the open-loop feed -------------------------------------------------------


def test_feed_is_written_on_schedule_and_rows_are_timestamped(tmp_path):
    echo = "import sys\nfor line in sys.stdin:\n    print(line.strip(), flush=True)\n"
    lines = [b'{"epoch": %d}\n' % i for i in range(5)]
    feed = run.Feed(lines, [0.0, 0.2, 0.2, 0.4, 0.4])
    code, wall, rss, rows, late = run.run_program(
        [sys.executable, "-c", echo], tmp_path / "err", time.perf_counter() + 30, feed
    )
    assert code == 0 and rss > 0
    assert [line for _, line in rows] == [line.strip() for line in lines]
    assert rows[1][0] >= 0.2 and rows[3][0] >= 0.4
    assert 0 <= late < 0.5 and wall >= 0.4


def test_a_hung_program_is_killed_at_the_deadline(tmp_path):
    start = time.perf_counter()
    code, wall, _, rows, _ = run.run_program(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        tmp_path / "err",
        start + 0.5,
    )
    assert code is None and rows == [] and wall < 10


# -- workload generation ------------------------------------------------------

TINY = {
    name: dataclasses.replace(w, bots=3, servers=1, days=2)
    for name, w in workloads.WORKLOADS.items()
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generation_is_deterministic_in_the_seed(tmp_path, name):
    workload = TINY[name]

    def digest(seed, label):
        header, records = workloads.trace_records(workload, seed)
        path = tmp_path / f"{label}.{workload.ext}"
        workloads.write_trace(path, workload.wire, header, records)
        return workloads.sha256_file(path)

    assert digest(5, "a") == digest(5, "b")
    assert digest(5, "a") != digest(6, "c")


def test_single_family_trace_matches_export_trace(tmp_path):
    workload = TINY["replay_goz"]
    header, records = workloads.trace_records(workload, 4)
    ours = tmp_path / "ours.ndjson"
    workloads.write_trace(ours, "ndjson", header, records)
    theirs = tmp_path / "theirs.ndjson"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "export-trace", "--source", "sim",
         "--family", "new_goz", "--bots", "3", "--servers", "1", "--days", "2",
         "--seed", "4", "--out", str(theirs)],
        cwd=run.ROOT, env=workloads.program_env(run.ROOT), check=True,
        capture_output=True,
    )
    assert ours.read_bytes() == theirs.read_bytes()


def test_build_is_cached_and_records_its_inputs(tmp_path):
    workload = TINY["live_mix3"]
    built = workloads.ensure_built(workload, 3, tmp_path, run.ROOT)
    assert built.n_records == len(built.trace.read_bytes().splitlines()) - 1
    assert built.meta["sha256"]["trace"] == workloads.sha256_file(built.trace)
    assert len(built.prefix.read_bytes().splitlines()) == 2
    assert list(built.crossings) == [0]
    assert built.oracle.read_bytes().count(b"\n") == 2 * len(workload.families)
    again = workloads.ensure_built(workload, 3, tmp_path, run.ROOT)
    assert again.directory == built.directory and again.meta == built.meta


# -- BENCHMARK.json ---------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code_and_the_contract():
    bench = run.load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "bench/run.py"]
    assert bench["paths"] == ["bench"]
    assert 1 <= bench["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        run.E2E_METRICS
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in traced.LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in bench["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])
