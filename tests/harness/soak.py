"""The Faultline soak: replay a multi-family trace through a seeded
fault schedule under supervision, and prove four properties at once:

1. **survival** — the supervised daemon finishes with exit code 0, no
   matter how many injected stalls/crashes fire along the way;
2. **exact accounting** — the dead-letter queue reconciles *exactly*
   against the injector's fault ledger (every corrupt/truncated line
   quarantined, every late record dead-lettered, nothing double- or
   under-counted across checkpoint/restart replays);
3. **bounded degradation** — every per-(family, epoch) population total
   stays within a loss-derived bound of the clean (fault-free) run;
4. **determinism** — two runs with the same seed produce byte-identical
   landscape output, dead-letter sidecars and ledgers, including the
   supervised restart schedule.

The harness is deliberately plain-Python (no pytest dependency) so
``make soak`` (through ``python -m tests.harness``) and the test suite
drive the same code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.service.daemon import BotMeterDaemon
from repro.service.deadletter import read_deadletters
from repro.service.faults import FaultInjector, parse_fault_spec
from repro.service.supervisor import BackoffPolicy, HealthMonitor, Supervisor
from repro.sim.network import SimConfig, simulate
from repro.sim.trace import sort_observable

__all__ = ["SoakConfig", "SoakFailure", "build_soak_trace", "run_soak"]

#: Default fault schedule — every fault class exercised, hard faults
#: rare enough that the restart budget holds on small traces.
DEFAULT_FAULTS = (
    "seed=11,corrupt=0.01,truncate=0.004,dup=0.02,drop=0.008:3,"
    "reorder=0.004:256,skew=0.006:2000,stall=0.0002,crash=0.0002"
)


class SoakFailure(AssertionError):
    """One of the four soak properties did not hold."""


@dataclass(frozen=True)
class SoakConfig:
    """Parameters of one soak run."""

    workdir: Path
    families: tuple[tuple[str, int], ...] = (("murofet", 3), ("new_goz", 7))
    bots: int = 32
    days: int = 2
    servers: int = 2
    sim_seed: int = 5
    faults: str = DEFAULT_FAULTS
    runs: int = 2
    bound_factor: float = 0.5
    bound_slack: float = 3.0
    grace: float = 900.0
    reorder_capacity: int = 64
    checkpoint_every: int = 200
    max_restarts: int = 40
    # BLOCK: a full buffer releases its oldest record downstream, so the
    # clean reference loses nothing; records the schedule displaced past
    # the reorder horizon arrive late and are dead-lettered instead.
    policy: str = "block"


@dataclass
class SoakReport:
    """Everything the soak measured, JSON-ready."""

    records: int = 0
    clean_epochs: int = 0
    runs: list[dict[str, Any]] = field(default_factory=list)
    max_deviation: float = 0.0
    max_allowed: float = 0.0
    deterministic: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "records": self.records,
            "clean_epochs": self.clean_epochs,
            "runs": self.runs,
            "max_deviation": self.max_deviation,
            "max_allowed": self.max_allowed,
            "deterministic": self.deterministic,
        }


def build_soak_trace(cfg: SoakConfig) -> tuple[Path, int]:
    """Write the merged multi-family NDJSON trace; returns (path, records).

    One :func:`~repro.sim.network.simulate` run per family over the same
    day range and server count, merged in deterministic trace order
    under a single header declaring every family.
    """
    from repro.service.wire import encode_header, encode_record

    merged = []
    granularity = None
    origin = None
    for name, family_seed in cfg.families:
        sim = simulate(
            SimConfig(
                family=name,
                family_seed=family_seed,
                n_bots=cfg.bots,
                n_local_servers=cfg.servers,
                n_days=cfg.days,
                seed=cfg.sim_seed,
            )
        )
        merged.extend(sim.observable)
        granularity = sim.config.timestamp_granularity
        origin = sim.config.origin
    records = sort_observable(merged)
    header = {
        "schema": "botmeter-trace-v1",
        "source": "soak",
        "families": [
            {"name": name, "seed": seed} for name, seed in cfg.families
        ],
        "granularity": granularity,
        "origin": origin.isoformat(),
    }
    path = cfg.workdir / "trace.ndjson"
    with open(path, "w") as fh:
        fh.write(encode_header(header) + "\n")
        for record in records:
            fh.write(encode_record(record) + "\n")
    return path, len(records)


def _daemon_kwargs(cfg: SoakConfig, trace: Path) -> dict[str, Any]:
    return dict(
        input_path=trace,
        grace=cfg.grace,
        reorder_capacity=cfg.reorder_capacity,
        policy=cfg.policy,
        follow=False,
    )


def _series_totals(path: Path) -> dict[tuple[str, int], tuple[float, int]]:
    """Landscape NDJSON -> ``{(family, epoch): (total, matched)}``."""
    totals: dict[tuple[str, int], tuple[float, int]] = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        matched = int(row.get("quality", {}).get("matched", 0))
        totals[(row["family"], row["epoch"])] = (float(row["total"]), matched)
    return totals


def _run_faulted(
    cfg: SoakConfig, trace: Path, run_dir: Path, log_stream: Any
) -> dict[str, Any]:
    """One supervised faulted replay; returns its measured outcome."""
    run_dir.mkdir(parents=True, exist_ok=True)
    out = run_dir / "landscapes.ndjson"
    checkpoint = run_dir / "checkpoint.json"
    deadletter = run_dir / "deadletter.ndjson"

    def factory(disarmed: set[int]) -> BotMeterDaemon:
        return BotMeterDaemon(
            out_path=out,
            checkpoint_path=checkpoint,
            deadletter_path=deadletter,
            fault_injector=FaultInjector(cfg.faults, disarmed=disarmed),
            checkpoint_every=cfg.checkpoint_every,
            log_stream=log_stream,
            **_daemon_kwargs(cfg, trace),
        )

    supervisor = Supervisor(
        factory,
        max_restarts=cfg.max_restarts,
        backoff=BackoffPolicy(base=0.05, cap=1.0, seed=parse_fault_spec(cfg.faults).seed),
        health=HealthMonitor(),
        sleep=lambda _delay: None,  # delays computed and logged, not slept
        log_stream=log_stream,
    )
    code = supervisor.run()
    daemon = supervisor.daemon
    ledger = daemon.injector.ledger.to_dict()
    late_metric = daemon.metrics.counter("botmeterd_records_late_total").value()
    entries = read_deadletters(deadletter) if deadletter.exists() else []
    counts: dict[str, int] = {}
    for entry in entries:
        counts[entry["reason"]] = counts.get(entry["reason"], 0) + 1
    return {
        "exit_code": code,
        "restarts": supervisor.restarts,
        "disarmed": sorted(supervisor.disarmed),
        "ledger": ledger,
        "deadletter_counts": counts,
        "late_metric": int(late_metric),
        "health_state": supervisor.health.state.name,
        "health_transitions": list(supervisor.health.transitions),
        "landscapes": out.read_bytes(),
        "deadletters": deadletter.read_bytes() if deadletter.exists() else b"",
        "out_path": str(out),
        "deadletter_path": str(deadletter),
    }


def run_soak(cfg: SoakConfig, log_stream: Any = None) -> SoakReport:
    """Run the full soak and write ``report.json`` into the workdir;
    raises :class:`SoakFailure` on any violation."""
    import io

    log = log_stream if log_stream is not None else io.StringIO()
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    trace, n_records = build_soak_trace(cfg)

    # -- clean reference run -------------------------------------------------
    clean_out = cfg.workdir / "clean.ndjson"
    clean = BotMeterDaemon(
        out_path=clean_out, log_stream=log, **_daemon_kwargs(cfg, trace)
    )
    if clean.run() != 0:
        raise SoakFailure("clean reference run did not exit 0")
    clean_totals = _series_totals(clean_out)

    # -- supervised faulted runs --------------------------------------------
    report = SoakReport(records=n_records, clean_epochs=len(clean_totals))
    outcomes = []
    for index in range(cfg.runs):
        outcome = _run_faulted(cfg, trace, cfg.workdir / f"run{index}", log)
        if outcome["exit_code"] != 0:
            raise SoakFailure(
                f"supervised run {index} exited {outcome['exit_code']}"
            )
        outcomes.append(outcome)
        report.runs.append(
            {
                key: outcome[key]
                for key in (
                    "exit_code",
                    "restarts",
                    "disarmed",
                    "ledger",
                    "deadletter_counts",
                    "late_metric",
                    "health_state",
                    "out_path",
                    "deadletter_path",
                )
            }
        )

    # -- determinism: byte-identical output, sidecar and ledger --------------
    first = outcomes[0]
    for index, outcome in enumerate(outcomes[1:], start=1):
        for key in ("landscapes", "deadletters", "ledger", "disarmed"):
            if outcome[key] != first[key]:
                raise SoakFailure(
                    f"run {index} diverged from run 0 on {key!r} — the "
                    "seeded fault schedule is not deterministic"
                )
    report.deterministic = True

    # -- exact ledger <-> dead-letter reconciliation -------------------------
    ledger = first["ledger"]
    counts = first["deadletter_counts"]
    expect_corrupt = ledger["corrupted"] + ledger["truncated"]
    if counts.get("corrupt", 0) != expect_corrupt:
        raise SoakFailure(
            f"dead-letter corrupt count {counts.get('corrupt', 0)} != "
            f"ledger corrupted+truncated {expect_corrupt}"
        )
    if counts.get("late", 0) != first["late_metric"]:
        raise SoakFailure(
            f"dead-letter late count {counts.get('late', 0)} != "
            f"late-records metric {first['late_metric']}"
        )
    if ledger["crashes"] or ledger["stalls"]:
        # Hard-fault counts rewind with the checkpoint; every survived
        # hard fault must end up in `disarmed` instead.
        raise SoakFailure(
            "final ledger still carries un-disarmed hard faults: "
            f"{ledger['crashes']} crashes, {ledger['stalls']} stalls"
        )

    # -- quality annotations on every emitted row ----------------------------
    quality_sums = {"late": 0, "dropped": 0, "quarantined": 0}
    for raw in first["landscapes"].splitlines():
        row = json.loads(raw)
        quality = row.get("quality")
        if quality is None or any(
            key not in quality
            for key in ("matched", "late", "dropped", "quarantined", "loss")
        ):
            raise SoakFailure(f"landscape row missing quality annotation: {row}")
        for key in quality_sums:
            quality_sums[key] += quality[key]
    if quality_sums["quarantined"] != expect_corrupt:
        raise SoakFailure(
            f"quality quarantined sum {quality_sums['quarantined']} != "
            f"ledger corrupted+truncated {expect_corrupt}"
        )
    if quality_sums["late"] != first["late_metric"]:
        raise SoakFailure(
            f"quality late sum {quality_sums['late']} != "
            f"late-records metric {first['late_metric']}"
        )

    # -- bounded degradation -------------------------------------------------
    # Loss-derived bound: the schedule perturbed a `loss_fraction` of the
    # stream (dropped, garbled, duplicated, displaced), so an epoch that
    # charted `matched` records saw about `loss_fraction * matched`
    # perturbed ones — and each perturbed lookup can bias a cache-based
    # population estimate by at most O(1) bot (it can masquerade as one
    # extra infected host, or hide one).  `bound_factor` < 1 therefore
    # asserts sub-linear estimator sensitivity per perturbed record.
    perturbed = (
        ledger["dropped"]
        + ledger["corrupted"]
        + ledger["truncated"]
        + ledger["duplicated"]
        + ledger["reordered"]
        + ledger["skewed"]
    )
    loss_fraction = perturbed / max(1, ledger["records_in"])
    degraded_totals = _series_totals(Path(first["out_path"]))
    for key in sorted(set(clean_totals) | set(degraded_totals)):
        clean_value, clean_matched = clean_totals.get(key, (0.0, 0))
        degraded_value, _ = degraded_totals.get(key, (0.0, 0))
        deviation = abs(degraded_value - clean_value)
        allowed = (
            cfg.bound_factor * loss_fraction * clean_matched
            + cfg.bound_slack
        )
        report.max_deviation = max(report.max_deviation, deviation)
        report.max_allowed = max(report.max_allowed, allowed)
        if deviation > allowed:
            raise SoakFailure(
                f"epoch {key} deviated {deviation:.2f} from the clean run "
                f"(clean {clean_value:.2f}, degraded {degraded_value:.2f}); "
                f"allowed {allowed:.2f} at loss fraction {loss_fraction:.4f}"
            )
    (cfg.workdir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return report
