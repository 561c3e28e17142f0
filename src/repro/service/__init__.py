"""repro.service — botmeterd, the live landscape-charting service.

The deployable face of the reproduction (§I, Figure 1): a border-server
daemon that ingests the forwarded-lookup stream as versioned NDJSON,
demultiplexes it into per-(family × local-server) streaming shards,
emits per-epoch landscapes, checkpoints atomically for crash recovery,
and exposes Prometheus-style metrics.

Modules:

* :mod:`~repro.service.wire` — versioned NDJSON wire format + tolerant
  streaming reader (counted skip policy, truncated-tail detection);
* :mod:`~repro.service.reorder` — bounded reorder buffer with explicit
  backpressure (block vs drop-oldest);
* :mod:`~repro.service.engine` — the sharded multi-family engine with
  watermark-based epoch closure and per-epoch quality annotations;
* :mod:`~repro.service.checkpoint` — atomic JSON checkpoint store with
  a previous-generation fallback;
* :mod:`~repro.service.metrics` — counters/gauges, text exposition,
  JSON health snapshot;
* :mod:`~repro.service.daemon` — the serve/replay loop plus the batch
  reference series;
* :mod:`~repro.service.faults` — deterministic seeded fault injection
  (the Faultline layer);
* :mod:`~repro.service.deadletter` — NDJSON quarantine sidecar with
  reason codes;
* :mod:`~repro.service.supervisor` — health state machine, bounded
  backoff, restart supervision.
"""

from .checkpoint import CHECKPOINT_SCHEMA, CheckpointError, CheckpointStore
from .daemon import BotMeterDaemon, batch_series, families_from_header
from .deadletter import DEADLETTER_SCHEMA, DeadLetterQueue, read_deadletters
from .engine import EpochLandscape, ShardedLandscapeEngine
from .faults import (
    FaultInjector,
    FaultLedger,
    FaultSpec,
    InjectedCrashError,
    InjectedFault,
    UpstreamStallError,
    parse_fault_spec,
)
from .metrics import Counter, Gauge, MetricsRegistry
from .reorder import Backpressure, ReorderBuffer
from .supervisor import (
    BackoffPolicy,
    HealthMonitor,
    HealthState,
    Supervisor,
    SupervisorGaveUp,
)
from .wire import (
    WIRE_VERSION,
    NdjsonReader,
    WireError,
    encode_header,
    encode_landscape,
    encode_record,
    finalize_quality,
    landscape_to_dict,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointStore",
    "BotMeterDaemon",
    "batch_series",
    "families_from_header",
    "DEADLETTER_SCHEMA",
    "DeadLetterQueue",
    "read_deadletters",
    "EpochLandscape",
    "ShardedLandscapeEngine",
    "FaultInjector",
    "FaultLedger",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedFault",
    "UpstreamStallError",
    "parse_fault_spec",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Backpressure",
    "ReorderBuffer",
    "BackoffPolicy",
    "HealthMonitor",
    "HealthState",
    "Supervisor",
    "SupervisorGaveUp",
    "WIRE_VERSION",
    "NdjsonReader",
    "WireError",
    "encode_header",
    "encode_landscape",
    "encode_record",
    "finalize_quality",
    "landscape_to_dict",
]
