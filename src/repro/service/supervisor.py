"""Supervised recovery: health states, bounded backoff, restart loop.

The daemon's checkpoint machinery (PR 2) makes a *restart* cheap and
exact; this module decides *when* to restart and reports *how healthy*
the pipeline is while it runs:

* :class:`HealthMonitor` — a four-state machine
  (``healthy -> degraded -> stalled -> recovering``) driven by the
  quarantine fraction over a sliding record window, stall/failure
  events, and post-restart clean streaks.  The current state and every
  transition are published through the shared metrics registry
  (``botmeterd_health_state``, ``botmeterd_health_transitions_total``).
* :class:`BackoffPolicy` — bounded exponential backoff with
  *deterministic* seeded jitter, so two identical supervised runs
  compute identical delay schedules (the soak test's determinism
  criterion extends to the supervisor).
* :class:`Supervisor` — runs a daemon factory in a loop: hard faults
  (:class:`~repro.service.faults.InjectedFault`) and unexpected
  exceptions trigger backoff-then-restart from the last checkpoint, up
  to ``max_restarts``; injected fault sequence numbers are *disarmed*
  on restart (the upstream recovered), so the replayed schedule does
  not re-raise them.
"""

from __future__ import annotations

import enum
import json
import sys
import time
from collections import deque
from typing import IO, Any, Callable

from .checkpoint import CheckpointError
from .faults import InjectedFault
from .metrics import Counter, Gauge, MetricsRegistry

__all__ = [
    "HealthState",
    "HealthMonitor",
    "BackoffPolicy",
    "Supervisor",
    "SupervisorGaveUp",
]


class SupervisorGaveUp(RuntimeError):
    """The restart budget ran out without the daemon completing."""


class HealthState(enum.Enum):
    """Coarse pipeline health, exported as a numeric gauge."""

    HEALTHY = 0
    DEGRADED = 1
    STALLED = 2
    RECOVERING = 3


class HealthMonitor:
    """Sliding-window health state machine.

    Args:
        window: number of recent records the quarantine fraction is
            computed over.
        degraded_threshold: quarantine fraction above which a healthy
            pipeline is marked degraded (hysteresis: it recovers only
            below half the threshold).
        recover_streak: clean records required after a restart before
            ``recovering`` promotes back to ``healthy``.
    """

    def __init__(
        self,
        window: int = 200,
        degraded_threshold: float = 0.05,
        recover_streak: int = 50,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0 < degraded_threshold < 1:
            raise ValueError("degraded_threshold must be in (0, 1)")
        self.window = window
        self.degraded_threshold = degraded_threshold
        self.recover_streak = recover_streak
        self.state = HealthState.HEALTHY
        self._recent: deque[int] = deque(maxlen=window)
        self._streak = 0
        self.transitions: list[tuple[str, str]] = []
        self._gauge: Gauge | None = None
        self._counter: Counter | None = None

    def bind(self, metrics: MetricsRegistry) -> None:
        """Publish through this registry (rebind after every restart —
        each daemon instance owns a fresh, checkpoint-restored one)."""
        self._gauge = metrics.gauge(
            "botmeterd_health_state",
            "Pipeline health: 0 healthy, 1 degraded, 2 stalled, 3 recovering.",
        )
        self._counter = metrics.counter(
            "botmeterd_health_transitions_total",
            "Health state machine transitions, labelled by entered state.",
        )
        self.publish()

    def publish(self) -> None:
        if self._gauge is not None:
            self._gauge.set(self.state.value)

    @property
    def quarantine_fraction(self) -> float:
        if not self._recent:
            return 0.0
        return sum(self._recent) / len(self._recent)

    def _transition(self, state: HealthState) -> None:
        if state is self.state:
            return
        self.transitions.append((self.state.name, state.name))
        self.state = state
        if self._counter is not None:
            self._counter.inc(state=state.name.lower())
        self.publish()

    def record_ok(self, count: int = 1) -> None:
        """``count`` records charted cleanly, evaluated one at a time."""
        for _ in range(count):
            self._recent.append(0)
            self._streak += 1
            self._evaluate()

    def record_quarantined(self) -> None:
        """One record dead-lettered (corrupt or late)."""
        self._recent.append(1)
        self._streak = 0
        self._evaluate()

    def on_stall(self) -> None:
        """Ingest stopped making progress (watchdog or injected stall)."""
        self._transition(HealthState.STALLED)

    def on_failure(self) -> None:
        """The daemon died on an exception."""
        self._transition(HealthState.STALLED)

    def on_restart(self) -> None:
        """A supervised restart began; require a clean streak to promote."""
        self._streak = 0
        self._transition(HealthState.RECOVERING)

    def _evaluate(self) -> None:
        fraction = self.quarantine_fraction
        if self.state is HealthState.RECOVERING:
            if self._streak >= self.recover_streak:
                self._transition(
                    HealthState.DEGRADED
                    if fraction > self.degraded_threshold
                    else HealthState.HEALTHY
                )
        elif self.state is HealthState.HEALTHY:
            if fraction > self.degraded_threshold:
                self._transition(HealthState.DEGRADED)
        elif self.state is HealthState.DEGRADED:
            if fraction <= self.degraded_threshold / 2:
                self._transition(HealthState.HEALTHY)
        # STALLED only leaves via on_restart().


class BackoffPolicy:
    """Bounded exponential backoff with deterministic seeded jitter."""

    def __init__(
        self,
        base: float = 0.5,
        factor: float = 2.0,
        cap: float = 30.0,
        jitter: float = 0.1,
        seed: int = 0,
    ) -> None:
        if base < 0 or cap < base:
            raise ValueError("need 0 <= base <= cap")
        if not 0 <= jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        self.base = base
        self.factor = factor
        self.cap = cap
        self.jitter = jitter
        import random as _random

        self._rng = _random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Backoff before restart ``attempt`` (0-based), jittered."""
        raw = min(self.cap, self.base * self.factor ** attempt)
        return raw * (1.0 + self.jitter * self._rng.random())


class Supervisor:
    """Run a daemon factory under restart supervision.

    Args:
        factory: ``factory(disarmed: set[int]) -> daemon`` — builds a
            fresh daemon per attempt.  The ``disarmed`` set carries the
            sequence numbers of injected hard faults already survived;
            the factory must hand it to the daemon's fault injector.
        max_restarts: restart budget; exhausting it raises
            :class:`SupervisorGaveUp`.
        backoff: delay policy between restarts.
        health: shared :class:`HealthMonitor` (one is created if
            omitted); it is re-bound to each daemon's metrics registry.
        sleep: injection point for the backoff sleep (tests and the
            soak pass a no-op to stay fast; delays are still computed
            and recorded).
        log_stream: JSON-lines event log, default stderr.
    """

    def __init__(
        self,
        factory: Callable[[set[int]], Any],
        max_restarts: int = 5,
        backoff: BackoffPolicy | None = None,
        health: HealthMonitor | None = None,
        sleep: Callable[[float], None] = time.sleep,
        log_stream: IO[str] | None = None,
    ) -> None:
        self.factory = factory
        self.max_restarts = max_restarts
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.health = health if health is not None else HealthMonitor()
        self._sleep = sleep
        self._log = log_stream if log_stream is not None else sys.stderr
        self.restarts = 0
        self.disarmed: set[int] = set()
        self.events: list[dict[str, Any]] = []
        self.daemon: Any = None

    def _log_event(self, event: str, **fields: Any) -> None:
        payload = {"event": event, **fields}
        self.events.append(payload)
        print(json.dumps(payload, sort_keys=True), file=self._log, flush=True)

    def run(self) -> int:
        """Supervise until the daemon completes; returns its exit code.

        Raises:
            SupervisorGaveUp: after ``max_restarts`` failed attempts.
        """
        while True:
            self.daemon = self.factory(set(self.disarmed))
            self.health.bind(self.daemon.metrics)
            try:
                code = self.daemon.run()
            except InjectedFault as exc:
                self._handle_failure(exc.kind, seq=exc.seq, message=str(exc))
                if exc.seq is not None:
                    self.disarmed.add(exc.seq)
            except CheckpointError:
                raise  # a restart would resume the same checkpoint
            except Exception as exc:  # supervision boundary: restart, not die
                self._handle_failure("exception", message=f"{type(exc).__name__}: {exc}")
            else:
                self._log_event("supervisor_done", restarts=self.restarts, code=code)
                return code
            delay = self.backoff.delay(self.restarts)
            self.restarts += 1
            self._log_event("supervisor_restart", attempt=self.restarts, delay=delay)
            self._sleep(delay)
            self.health.on_restart()

    def _handle_failure(self, kind: str, **fields: Any) -> None:
        if kind == "stall":
            self.health.on_stall()
        else:
            self.health.on_failure()
        self._log_event("supervisor_caught", kind=kind, **fields)
        # Where did the failed attempt's wall-clock go?  The tracer's
        # per-stage accounting survives the exception, so log it before
        # the restart discards the daemon instance.
        tracer = getattr(self.daemon, "tracer", None)
        if tracer is not None:
            self._log_event("trace_summary", **tracer.summary())
        if self.restarts >= self.max_restarts:
            self._log_event("supervisor_gave_up", restarts=self.restarts)
            raise SupervisorGaveUp(
                f"daemon failed {self.restarts + 1} times "
                f"(budget {self.max_restarts}); last failure: {kind} {fields}"
            )
