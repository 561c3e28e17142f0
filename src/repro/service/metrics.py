"""botmeterd observability: counters, gauges, histograms, expositions.

A tiny dependency-free metrics registry shaped after the Prometheus
client model: named metrics, optional labels, monotonic counters vs
settable gauges vs fixed-bucket histograms, a ``/metrics``-style text
exposition (:meth:`MetricsRegistry.render_prometheus`) and a JSON health
snapshot (:meth:`MetricsRegistry.snapshot`).  Metric values are part of
the daemon's checkpoint, so a resumed run reports the same totals an
uninterrupted one would.

Histograms use **fixed log2 buckets** with exact integer counts: bucket
``i`` has the inclusive upper bound ``2**i`` (``le`` semantics, like
Prometheus), from ``le=1`` up to ``le=2**39`` plus a final overflow
(``+Inf``) bucket.  The geometry is fixed so histograms recorded by
different processes (cluster partitions, resumed daemons) merge *exactly*:
merging any split of an observation sequence bucket-by-bucket equals
observing the whole sequence in one histogram — for integer
observations the running sum is integer arithmetic, so even ``sum`` is
split-invariant (the property test in ``tests/test_service_tracing.py``
pins this).

Every exposition orders metric families by name and label-sets by their
sorted ``(name, value)`` tuples, never by dict insertion order, so two
registries that saw the same values in any order render byte-identical
output (the pinned-output test in ``tests/test_service_metrics.py``).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_BUCKET_BOUNDS",
    "MetricsRegistry",
    "merge_registry_states",
]

_LabelKey = tuple[tuple[str, str], ...]

#: Inclusive upper bounds of the finite histogram buckets: 2**0 .. 2**39
#: (the last, overflow bucket is +Inf).  2**39 ns is ~9.2 minutes, so
#: every sane stage latency and batch size lands in a finite bucket.
HISTOGRAM_BUCKET_BOUNDS: tuple[int, ...] = tuple(2**i for i in range(40))

_N_BUCKETS = len(HISTOGRAM_BUCKET_BOUNDS) + 1  # + the overflow bucket


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + inner + "}"


def _render_number(value: float) -> str:
    return repr(value) if value != int(value) else str(int(value))


def bucket_index(value: float) -> int:
    """The log2 bucket a value falls in (0-based; last = overflow).

    Exact at the boundaries: ``2**k`` lands in the bucket whose upper
    bound *is* ``2**k`` (``le`` semantics), computed through
    :func:`math.frexp` so no float-log rounding can misplace it.
    """
    if value <= HISTOGRAM_BUCKET_BOUNDS[0]:
        return 0
    if value > HISTOGRAM_BUCKET_BOUNDS[-1]:
        return _N_BUCKETS - 1
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    # ceil(log2(value)): an exact power of two has mantissa 0.5.
    return exponent - 1 if mantissa == 0.5 else exponent


class _Metric:
    """Shared storage: one value per label combination ('' = unlabelled)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._values: dict[_LabelKey, Any] = {}

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> Iterable[tuple[_LabelKey, Any]]:
        """Label-set series in deterministic (sorted-key) order."""
        return sorted(self._values.items())

    def _as_snapshot(self) -> Any:
        if set(self._values) <= {()}:
            return self._snapshot_value(self._values.get(()))
        return {
            ",".join(f"{n}={v}" for n, v in key): self._snapshot_value(value)
            for key, value in self.series()
        }

    def _snapshot_value(self, value: Any) -> Any:
        return 0.0 if value is None else value

    def render_into(self, lines: list[str]) -> None:
        series = list(self.series())
        if not series:
            series = [((), 0.0)]
        for key, value in series:
            lines.append(f"{self.name}{_render_labels(key)} {_render_number(value)}")

    # -- checkpointing -------------------------------------------------------

    def _export_series(self) -> list[list[Any]]:
        return [[list(map(list, key)), value] for key, value in self.series()]

    def _import_series(self, series: list[list[Any]]) -> None:
        for key, value in series:
            self._values[tuple((n, v) for n, v in key)] = float(value)

    def _merge_series(self, series: list[list[Any]]) -> None:
        """Fold another process's exported series into this metric:
        scalar kinds (counters, gauges) sum per label-set."""
        for key, value in series:
            k = tuple((n, v) for n, v in key)
            self._values[k] = self._values.get(k, 0.0) + float(value)


class Counter(_Metric):
    """A monotonically increasing count (records, epochs, drops...)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, total: float, **labels: str) -> None:
        """Jump to an externally tracked total (still monotonic)."""
        key = _label_key(labels)
        if total < self._values.get(key, 0.0):
            raise ValueError(
                f"counter {self.name} cannot decrease "
                f"({self._values.get(key, 0.0)} -> {total})"
            )
        self._values[key] = float(total)


class Gauge(_Metric):
    """A point-in-time level (buffer depth, watermark lag...)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)

    def add(self, delta: float, **labels: str) -> None:
        """Adjust the level by a (possibly negative) delta — the natural
        shape for open/close pairs like live connection counts."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + float(delta)


class _HistogramData:
    """One label-set's histogram state: exact bucket counts + extremes."""

    __slots__ = ("buckets", "sum", "count", "max")

    def __init__(self) -> None:
        self.buckets = [0] * _N_BUCKETS
        self.sum: float = 0  # stays an exact int while observations are ints
        self.count = 0
        self.max: float = 0

    def observe(self, value: float) -> None:
        self.buckets[bucket_index(value)] += 1
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value

    def merge(self, other: "_HistogramData") -> None:
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.sum += other.sum
        self.count += other.count
        if other.max > self.max:
            self.max = other.max

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the upper bound of the bucket the
        q-th observation falls in (the exact max for the overflow one)."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, n in enumerate(self.buckets):
            cumulative += n
            if cumulative >= rank:
                if i < len(HISTOGRAM_BUCKET_BOUNDS):
                    return float(min(HISTOGRAM_BUCKET_BOUNDS[i], self.max))
                return float(self.max)
        return float(self.max)

    def to_payload(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "sum": self.sum,
            "count": self.count,
            "max": self.max,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "_HistogramData":
        data = cls()
        buckets = list(payload["buckets"])
        if len(buckets) != _N_BUCKETS:
            raise ValueError(
                f"histogram payload has {len(buckets)} buckets; "
                f"this build uses {_N_BUCKETS}"
            )
        data.buckets = [int(n) for n in buckets]
        data.sum = payload["sum"]
        data.count = int(payload["count"])
        data.max = payload["max"]
        return data


class Histogram(_Metric):
    """Fixed log2-bucket distribution (latencies, batch sizes).

    ``observe`` files each value into the bucket geometry described in
    the module docstring; per-label-set state carries exact bucket
    counts, the running sum, the observation count and the exact max.
    Histograms recorded independently (per partition, per run segment)
    merge exactly via :meth:`merge_data`.
    """

    kind = "histogram"

    def _data(self, key: _LabelKey) -> _HistogramData:
        data = self._values.get(key)
        if data is None:
            data = self._values[key] = _HistogramData()
        return data

    def observe(self, value: float, **labels: str) -> None:
        self.observe_key(value, _label_key(labels))

    def observe_key(self, value: float, key: _LabelKey) -> None:
        """:meth:`observe` for a label set already in ``_label_key`` form
        (hot paths resolve their labels once, not per observation)."""
        if value < 0:
            raise ValueError(f"histogram {self.name} observed negative {value}")
        self._data(key).observe(value)

    def merge_data(self, payload: Mapping[str, Any], **labels: str) -> None:
        """Fold an exported label-set payload (another process's counts)
        into this histogram's series for ``labels``."""
        self._data(_label_key(labels)).merge(_HistogramData.from_payload(payload))

    def merge(self, other: "Histogram") -> None:
        """Fold every series of ``other`` into this histogram."""
        for key, data in other.series():
            self._data(key).merge(data)

    # -- accessors -----------------------------------------------------------

    def value(self, **labels: str) -> float:
        """The observation count (the scalar a histogram reduces to)."""
        data = self._values.get(_label_key(labels))
        return float(data.count) if data is not None else 0.0

    def count(self, **labels: str) -> int:
        data = self._values.get(_label_key(labels))
        return data.count if data is not None else 0

    def total(self, **labels: str) -> float:
        data = self._values.get(_label_key(labels))
        return data.sum if data is not None else 0

    def max_value(self, **labels: str) -> float:
        data = self._values.get(_label_key(labels))
        return data.max if data is not None else 0

    def bucket_counts(self, **labels: str) -> list[int]:
        data = self._values.get(_label_key(labels))
        return list(data.buckets) if data is not None else [0] * _N_BUCKETS

    def quantile(self, q: float, **labels: str) -> float:
        data = self._values.get(_label_key(labels))
        return data.quantile(q) if data is not None else 0.0

    def export_data(self, **labels: str) -> dict[str, Any] | None:
        """One label-set's mergeable payload (``None`` if never observed)."""
        data = self._values.get(_label_key(labels))
        return data.to_payload() if data is not None else None

    # -- expositions ---------------------------------------------------------

    def _snapshot_value(self, data: Any) -> Any:
        if data is None:
            return {"count": 0, "sum": 0, "max": 0, "p50": 0.0, "p95": 0.0}
        return {
            "count": data.count,
            "sum": data.sum,
            "max": data.max,
            "p50": data.quantile(0.5),
            "p95": data.quantile(0.95),
        }

    def render_into(self, lines: list[str]) -> None:
        series = list(self.series())
        if not series:
            series = [((), _HistogramData())]
        for key, data in series:
            cumulative = 0
            for bound, n in zip(HISTOGRAM_BUCKET_BOUNDS, data.buckets):
                cumulative += n
                labels = _render_labels(key, (("le", str(bound)),))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _render_labels(key, (("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{labels} {data.count}")
            lines.append(
                f"{self.name}_sum{_render_labels(key)} {_render_number(data.sum)}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {data.count}")

    # -- checkpointing -------------------------------------------------------

    def _export_series(self) -> list[list[Any]]:
        return [
            [list(map(list, key)), data.to_payload()] for key, data in self.series()
        ]

    def _import_series(self, series: list[list[Any]]) -> None:
        for key, payload in series:
            self._values[tuple((n, v) for n, v in key)] = _HistogramData.from_payload(
                payload
            )

    def _merge_series(self, series: list[list[Any]]) -> None:
        for key, payload in series:
            self._data(tuple((n, v) for n, v in key)).merge(
                _HistogramData.from_payload(payload)
            )


_KINDS: dict[str, type] = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Named metrics with Prometheus-text and JSON expositions."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls: type, name: str, help_text: str) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help_text)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help_text)  # type: ignore[return-value]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (one block per metric).

        Metric families render sorted by name and every family's
        label-sets render in sorted-label order — the output depends
        only on the recorded values, never on insertion order.
        """
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            metric.render_into(lines)
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready health snapshot: ``{metric: value | {labels: value}}``."""
        return {
            name: metric._as_snapshot()
            for name, metric in sorted(self._metrics.items())
        }

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Serialisable metric values (kinds and labels included)."""
        return {
            name: {
                "kind": metric.kind,
                "help": metric.help,
                "series": metric._export_series(),
            }
            for name, metric in sorted(self._metrics.items())
        }

    def import_state(self, state: Mapping[str, Any]) -> None:
        """Restore values exported by :meth:`export_state`."""
        for name in sorted(state):
            payload = state[name]
            cls = _KINDS.get(payload["kind"], Gauge)
            metric = self._get_or_create(cls, name, payload.get("help", ""))
            metric._import_series(payload["series"])

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Fold another registry's exported state into this one.

        Unlike :meth:`import_state` (a restore: values *overwrite*),
        merging *combines*: counters and gauges sum per label-set and
        histograms merge bucket-exactly — so folding N partition
        registries yields the totals one process observing every record
        would have reported.  The cluster aggregator builds its global
        exposition this way.
        """
        for name in sorted(state):
            payload = state[name]
            cls = _KINDS.get(payload["kind"], Gauge)
            metric = self._get_or_create(cls, name, payload.get("help", ""))
            metric._merge_series(payload["series"])


def merge_registry_states(states: Iterable[Mapping[str, Any]]) -> MetricsRegistry:
    """One registry holding the exact fold of every exported state."""
    merged = MetricsRegistry()
    for state in states:
        merged.merge_state(state)
    return merged
