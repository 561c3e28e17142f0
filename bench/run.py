"""The botmeterd benchmark.

Runs the real CLI (``python -m repro.cli replay|serve``) as a subprocess
on seeded workloads (see ``bench/workloads.py``), checks every output
byte for byte against an oracle, and prints each metric by name with its
unit, median, quartiles and sample count.

    python bench/run.py --seed 7                # every workload, 5 rounds
    python bench/run.py --seed 7 --trace        # plus one traced run each
    python bench/run.py --seed 7 --repeat 2     # two sets, checked for agreement
    python bench/run.py --workload replay_goz --seed 3 --seconds 30 --trace 0

With ``--workload`` one workload runs for ``--seconds`` and the last line
of standard output is a JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of ``BENCHMARK.json``).

A round is: host probe, set-up run, host probe, full run (with
``--trace 1``: probe, untraced full run, probe, traced full run).  The
set-up run is the same command on the trace's header and first record.
Live workloads are fed on stdin on a fixed schedule (open loop) by this
process; the daemon's landscape rows are timestamped as they are read.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import fcntl
import json
import math
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import traced  # noqa: E402  (bench/ is the script directory)
import workloads  # noqa: E402

#: (name, unit, better) of the end-to-end metrics; ``BENCHMARK.json``
#: holds the same list with the regression bounds.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("records_per_s", "records/s", "higher"),
    ("emit_lag_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PROBE_LOOPS = 1_400_000
MIN_SETUPS = 5
DEFAULT_ROUNDS = 5
LATE_LIMIT_S = 0.5
#: Hard limit on one invocation; runs that would pass it are killed.
INVOCATION_LIMIT_S = 170.0
#: Shortest wait between two writes of the live feed: records due in
#: the meantime go out in one write.
FEED_TICK_S = 0.002
PIPE_BYTES = 1 << 20


# -- statistics -------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile with at least ten of ``n``
    samples beyond it, or ``None``."""
    for p in candidates:
        if round(n * (100.0 - p) / 100.0, 6) >= 10:  # 100 - 99.9 is not exact
            return p
    return None


def emission_lags(
    rows: list[tuple[float, bytes]],
    crossings: dict[int, int] | None,
    due: list[float] | None,
) -> list[float]:
    """Seconds from the input that closes each epoch to its first row.

    ``rows`` are ``(seconds since spawn, landscape line)``.  On a live
    feed, epoch ``D``'s input is its crossing record, due at
    ``due[1 + crossings[D]]`` (``due[0]`` is the header); only epochs
    crossed in-stream count.  Without a feed the whole trace is on disk
    at spawn, so the landscape is complete when the last epoch's first
    row is read: that time is the run's one sample.  (Earlier epochs
    are left out: when they close depends on where the seed's day
    boundaries fall, not on the program.)
    """
    first: dict[int, float] = {}
    for t, line in rows:
        first.setdefault(int(json.loads(line)["epoch"]), t)
    if crossings is None:
        return [first[max(first)]] if first else []
    return [
        first[day] - due[1 + index]
        for day, index in sorted(crossings.items())
        if day in first
    ]


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host-speed witness."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


# -- driving one daemon process --------------------------------------------


@dataclasses.dataclass
class Feed:
    """Lines to write into the daemon's stdin, each due at ``due[i]``
    seconds after spawn."""

    lines: list[bytes]
    due: list[float]


def live_schedule(n_records: int) -> list[float]:
    """Due times of the live feed: the header at spawn, then record
    ``i`` at ``head start + i / rate``."""
    start, rate = workloads.LIVE_HEAD_START_S, workloads.LIVE_RATE
    return [0.0] + [start + i / rate for i in range(n_records)]


class _Sender:
    """Writes a :class:`Feed` on its schedule, whatever the daemon does
    (open loop), and records how late the writes completed.

    The pipe is enlarged to :data:`PIPE_BYTES`, as a collector's socket
    buffer would be: a daemon pause of a few hundred milliseconds (a new
    day's window generation) then backs input up in the pipe and shows
    as emission lag.  Only a backlog of more than ~2.5 s of input at the
    live rate makes the writes late.
    """

    def __init__(self, stream, feed: Feed, t0: float) -> None:
        self.stream = stream
        self.fd = stream.fileno()
        try:
            fcntl.fcntl(self.fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except OSError:
            pass  # the host caps pipe sizes lower; keep its default
        os.set_blocking(self.fd, False)
        self.lines = feed.lines
        self.due = [t0 + d for d in feed.due]
        self.next = 0
        self.pending = b""
        self.pending_first = 0
        self.late_max = 0.0
        self.done = False

    def pump(self, now: float) -> float:
        """Write what is due; returns seconds until the next write."""
        if not self.pending:
            end = bisect.bisect_right(self.due, now, lo=self.next)
            if end > self.next:
                self.pending = b"".join(self.lines[self.next : end])
                self.pending_first, self.next = self.next, end
        if self.pending:
            try:
                written = os.write(self.fd, self.pending)
            except BlockingIOError:
                written = 0
            except BrokenPipeError:
                self.close()
                return 1.0
            self.pending = self.pending[written:]
            if not self.pending:
                late = time.perf_counter() - self.due[self.pending_first]
                self.late_max = max(self.late_max, late)
        if self.pending:
            return FEED_TICK_S
        if self.next == len(self.lines):
            self.close()
            return 1.0
        return max(self.due[self.next] - time.perf_counter(), FEED_TICK_S)

    def close(self) -> None:
        self.done = True
        try:
            self.stream.close()
        except BrokenPipeError:
            pass


@dataclasses.dataclass
class Run:
    """One daemon process: its rows, its cost, and whether it was right."""

    kind: str
    ok: bool
    why: str
    wall_s: float
    rss_mb: float
    rows: list[tuple[float, bytes]]
    late_max_s: float = 0.0
    trace_doc: dict | None = None


def run_program(
    cmd: list[str],
    stderr_path: Path,
    deadline: float,
    feed: Feed | None = None,
) -> tuple[int | None, float, float, list[tuple[float, bytes]], float]:
    """Spawn ``cmd``, feed it, timestamp its stdout lines, reap it.

    Returns ``(exit code or None if killed at the deadline, wall seconds,
    peak RSS in MB, rows, generator lateness)``.  Everything runs on this
    thread: one selector loop both writes the feed and reads the rows.
    The peak RSS is at least this process's RSS at spawn (the child
    starts as a fork of it), so callers keep this process small.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=workloads.program_env(ROOT),
            stdin=subprocess.PIPE if feed is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
        )
    sender = _Sender(proc.stdin, feed, t0) if feed is not None else None
    rows: list[tuple[float, bytes]] = []
    buf = b""
    killed = False
    out_fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as selector:
        selector.register(out_fd, selectors.EVENT_READ)
        while True:
            now = time.perf_counter()
            if now >= deadline:
                proc.kill()
                killed = True
                break
            wait = 0.05
            if sender is not None and not sender.done:
                wait = min(wait, sender.pump(now))
            if not selector.select(min(wait, max(deadline - now, 0.0))):
                continue
            chunk = os.read(out_fd, 1 << 16)
            if not chunk:
                break
            t = time.perf_counter() - t0
            *lines, buf = (buf + chunk).split(b"\n")
            rows.extend((t, line) for line in lines)
    if sender is not None and not sender.done:
        sender.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if buf:
        rows.append((wall, buf))  # an unterminated last line
    late = sender.late_max if sender is not None else 0.0
    return (
        None if killed else proc.returncode,
        wall,
        usage.ru_maxrss / 1024.0,
        rows,
        late,
    )


# -- rounds -----------------------------------------------------------------


@dataclasses.dataclass
class Samples:
    """Everything measured on one workload."""

    built: workloads.Built
    probes: list[float] = dataclasses.field(default_factory=list)
    setups: list[Run] = dataclasses.field(default_factory=list)
    fulls: list[Run] = dataclasses.field(default_factory=list)
    traced: list[Run] = dataclasses.field(default_factory=list)
    #: records_per_s of each adjacent set-up/full pair (replays).
    rps: list[float] = dataclasses.field(default_factory=list)

    @property
    def runs(self) -> list[Run]:
        return self.setups + self.fulls + self.traced

    @property
    def failed(self) -> list[Run]:
        return [run for run in self.runs if not run.ok]


class Runner:
    """Runs rounds of one seed's workloads under one invocation deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.rundir = work / "run"
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self._feeds: dict[Path, Feed] = {}

    def _feed(self, path: Path, scheduled: bool) -> Feed:
        """The file's lines; scheduled on the live rate, or all at once."""
        if path not in self._feeds:
            lines = path.read_bytes().splitlines(keepends=True)
            due = live_schedule(len(lines) - 1) if scheduled else [0.0] * len(lines)
            self._feeds[path] = Feed(lines, due)
        return self._feeds[path]

    def _run(self, built: workloads.Built, kind: str) -> Run:
        w = built.workload
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.mkdir(parents=True)
        trace = built.prefix if kind == "setup" else built.trace
        argv = w.daemon_argv(trace, self.rundir)
        if kind == "traced":
            doc_path = self.rundir / "trace.json"
            cmd = [sys.executable, str(BENCH / "traced.py"), str(doc_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *argv]
        feed = self._feed(trace, kind != "setup") if w.live else None
        code, wall, rss, rows, late = run_program(
            cmd, self.logs / f"{w.name}.{kind}.stderr", self.deadline, feed
        )
        expected = (built.prefix_oracle if kind == "setup" else built.oracle).read_bytes()
        output = b"".join(line + b"\n" for _, line in rows)
        why = ""
        if code is None:
            why = "killed at the invocation deadline"
        elif code != 0:
            why = f"exit code {code}"
        elif output != expected:
            why = "output differs from the oracle"
        elif late > LATE_LIMIT_S:
            why = f"feed ran {late:.2f} s late (backlog grew)"
        run = Run(kind, not why, why, wall, rss, rows, late)
        if kind == "traced" and run.ok:
            run.trace_doc = json.loads(doc_path.read_text())
        if why:
            print(f"  FAILED {w.name} {kind} run: {why}", file=sys.stderr)
        return run

    def round(self, samples: Samples) -> None:
        """probe, set-up run, probe, full run."""
        samples.probes.append(probe())
        setup = self._run(samples.built, "setup")
        samples.setups.append(setup)
        samples.probes.append(probe())
        full = self._run(samples.built, "full")
        samples.fulls.append(full)
        if setup.ok and full.ok and not samples.built.workload.live:
            samples.rps.append(samples.built.n_records / (full.wall_s - setup.wall_s))

    def traced_round(self, samples: Samples) -> None:
        """probe, untraced full run, probe, traced full run."""
        samples.probes.append(probe())
        samples.fulls.append(self._run(samples.built, "full"))
        samples.probes.append(probe())
        samples.traced.append(self._run(samples.built, "traced"))

    def extra_setup(self, samples: Samples) -> None:
        samples.probes.append(probe())
        samples.setups.append(self._run(samples.built, "setup"))

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()


# -- summaries --------------------------------------------------------------


def lag_samples(samples: Samples) -> list[list[float]]:
    """Per good full run, its emission-lag samples (see :func:`emission_lags`)."""
    built = samples.built
    if not built.workload.live:
        return [emission_lags(run.rows, None, None) for run in samples.fulls if run.ok]
    due = live_schedule(built.n_records)
    return [emission_lags(run.rows, built.crossings, due) for run in samples.fulls if run.ok]


def e2e_values(samples: Samples) -> dict[str, list[float]]:
    """Per-run observations of each end-to-end metric.

    ``records_per_s`` of a replay is ``n_records / (wall - set-up wall)``
    per adjacent pair; of a live run it is records per second of stream,
    from the first record's due time to the last landscape row (the
    final epoch closes at stream end).
    """
    built = samples.built
    good_fulls = [run for run in samples.fulls if run.ok]
    if built.workload.live:
        rps = [
            built.n_records / (run.rows[-1][0] - workloads.LIVE_HEAD_START_S)
            for run in good_fulls
        ]
    else:
        rps = samples.rps
    return {
        "setup_s": [run.wall_s for run in samples.setups if run.ok],
        "records_per_s": rps,
        "emit_lag_p50_s": [statistics.median(lags) for lags in lag_samples(samples) if lags],
        "peak_rss_mb": [run.rss_mb for run in good_fulls],
    }


def layer_values(samples: Samples) -> dict[str, list[float]]:
    """Per traced run, every per-layer metric."""
    built = samples.built
    untraced = [run.wall_s for run in samples.fulls if run.ok]
    values: dict[str, list[float]] = {}
    for run in samples.traced:
        if not run.ok:
            continue
        metrics = traced.layer_metrics(run.trace_doc, built.n_records, run.wall_s)
        metrics["trace.overhead_frac"] = (
            run.wall_s / statistics.median(untraced) - 1.0 if untraced else 0.0
        )
        metrics["gen.late_max_s"] = max(r.late_max_s for r in samples.runs)
        metrics["host.probe_s"] = statistics.median(samples.probes)
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
    return values


def print_table(samples: Samples, values: dict[str, list[float]], units: dict[str, str]) -> None:
    built = samples.built
    runs = samples.runs
    print(
        f"\n== {built.workload.name}  seed {built.seed}  {built.n_records} records  "
        f"trace sha256 {built.meta['sha256']['trace'][:16]}  "
        f"({len(runs)} runs, {len(samples.failed)} failed)"
    )
    print(f"{'metric':<30} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  tail")
    for name, observed in values.items():
        if not observed:
            print(f"{name:<30} {units[name]:<10} {'(no sample)':>12}")
            continue
        q1, med, q3 = quartiles(observed)
        print(
            f"{name:<30} {units[name]:<10} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{len(observed):>4}  {_tail(name, samples)}"
        )


def _tail(name: str, samples: Samples) -> str:
    if name != "emit_lag_p50_s":
        return ""
    pooled = [lag for lags in lag_samples(samples) for lag in lags]
    if not pooled:
        return ""
    p = supported_percentile(len(pooled))
    head = f"pooled n={len(pooled)}"
    if p is not None:
        head += f" p{p:g}={percentile(pooled, p):.4f}"
    return head + f" max={max(pooled):.4f} (diagnostic)"


def print_summary(samples: Samples, trace_run: bool) -> None:
    e2e_units = {name: unit for name, unit, _ in E2E_METRICS}
    print_table(samples, e2e_values(samples), e2e_units)
    runs = samples.runs
    print(
        f"{'failed_frac':<30} {'fraction':<10} {len(samples.failed) / len(runs):>12.6g}"
        f"{'':>26} {len(runs):>4}"
    )
    print(f"{'host.probe_s':<30} {'s':<10} {statistics.median(samples.probes):>12.6g}")
    if trace_run:
        layer_units = {m.name: m.unit for m in traced.LAYER_METRICS}
        print_table(samples, layer_values(samples), layer_units)
        print("per-layer metric -> end-to-end metric it should move (no change predicted on)")
        for m in traced.LAYER_METRICS:
            print(f"  {m.name:<30} -> {m.moves}" + (f" (no change: {m.no_change})" if m.no_change else ""))


def result_json(samples: Samples, trace_run: bool) -> dict:
    """The one-line JSON result of a ``--workload`` run."""
    if trace_run:
        values = layer_values(samples)
        units = {m.name: m.unit for m in traced.LAYER_METRICS}
    else:
        values = e2e_values(samples)
        units = {name: unit for name, unit, _ in E2E_METRICS}
    missing = [name for name in units if not values.get(name)]
    if missing:
        raise RuntimeError(f"no good sample for {', '.join(missing)}")
    return {
        "correct": not samples.failed,
        "attempted": len(samples.runs),
        "failed": len(samples.failed),
        "metrics": {
            name: {"value": statistics.median(values[name]), "unit": units[name]}
            for name in units
        },
    }


def agreement(first: dict[str, Samples], second: dict[str, Samples], bounds: dict[str, float]) -> bool:
    """Print whether two sets agree on every end-to-end metric within
    its ``BENCHMARK.json`` bound; returns ``True`` when all agree."""
    print("\n== agreement of set 1 and set 2 (|median2 / median1 - 1| <= bound)")
    ok = True
    for name, samples in first.items():
        v1, v2 = e2e_values(samples), e2e_values(second[name])
        for metric, _, _ in E2E_METRICS:
            if not v1[metric] or not v2[metric]:
                print(f"  {name:<16} {metric:<16} no samples")
                ok = False
                continue
            m1, m2 = statistics.median(v1[metric]), statistics.median(v2[metric])
            rel = m2 / m1 - 1.0
            agree = abs(rel) <= bounds[metric]
            ok &= agree
            print(
                f"  {name:<16} {metric:<16} {m1:>12.6g} {m2:>12.6g} {rel:>+8.3f} "
                f"bound {bounds[metric]:.2f}  {'agree' if agree else 'DISAGREE'}"
            )
    return ok


# -- entry points -----------------------------------------------------------


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def measure_one(args, runner: Runner, built: workloads.Built, started: float) -> Samples:
    """Rounds of one workload until ``--seconds`` would be exceeded,
    then set-up runs until there are :data:`MIN_SETUPS`."""
    samples = Samples(built)
    trace_run = bool(args.trace)
    while True:
        round_start = time.perf_counter()
        if trace_run:
            runner.traced_round(samples)
        else:
            runner.round(samples)
        round_s = time.perf_counter() - round_start
        spent = time.perf_counter() - started
        if spent + round_s > args.seconds or 2 * round_s > runner.time_left():
            break
    while not trace_run and len(samples.setups) < MIN_SETUPS:
        setup_s = samples.setups[-1].wall_s
        if 2 * setup_s > runner.time_left():
            break
        runner.extra_setup(samples)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                        help="run one workload for --seconds and print a JSON result")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one --workload run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add traced runs and report the per-layer metrics")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="rounds per workload without --workload")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets of rounds; with 2 or more, check the sets agree")
    parser.add_argument("--work", type=Path, default=ROOT / ".bench_work",
                        help="directory for built workloads and run files")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One --workload invocation must end in bounded time; a full
    # round-robin session runs as long as its rounds take.
    deadline = math.inf if args.workload is None else time.perf_counter() + INVOCATION_LIMIT_S
    runner = Runner(args.work, deadline)
    benchmark = load_benchmark()

    if args.workload is not None:
        if args.seconds is None:
            args.seconds = float(benchmark.get("run_seconds", 30))
        workload = workloads.WORKLOADS[args.workload]
        built = workloads.ensure_built(workload, args.seed, args.work, ROOT)
        samples = measure_one(args, runner, built, time.perf_counter())
        print_summary(samples, bool(args.trace))
        try:
            result = result_json(samples, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0

    # Round-robin over every workload; ``--repeat`` sets, one after another.
    built = {
        name: workloads.ensure_built(w, args.seed, args.work, ROOT)
        for name, w in workloads.WORKLOADS.items()
    }
    sets = []
    for index in range(args.repeat):
        samples = {name: Samples(b) for name, b in built.items()}
        for _ in range(args.rounds):
            for name in built:
                runner.round(samples[name])
        if args.trace:
            for name in built:
                runner.traced_round(samples[name])
        print(f"\n#### set {index + 1} of {args.repeat}")
        for name in built:
            print_summary(samples[name], bool(args.trace))
        sets.append(samples)
    ok = all(not s.failed for samples in sets for s in samples.values())
    if args.repeat >= 2:
        bounds = {m["name"]: m["bound"] for m in benchmark.get("end_to_end", [])}
        ok &= agreement(sets[0], sets[1], bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
