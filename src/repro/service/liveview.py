"""Liveview: a real D3 in the streaming path, plus adversary-shift scenarios.

Every landscape the daemon charted before this module existed came from
oracle-D3 traffic: the trace generator only wrote NXDOMAINs that *were*
DGA-generated, so charting accuracy was never confounded by detection
accuracy.  The paper's premise is the opposite — BotMeter sits *behind*
an imperfect D3 algorithm and must survive both its misses and a
shifting adversary.  This module supplies the three missing pieces:

* :class:`StreamingDetector` — runs the lexical char-bigram classifier
  (:class:`repro.detect.lexical.LexicalDetector`, fit from a committed
  training fixture) inline in the daemon's decode path.  Records it
  classifies benign never reach the engine; records that *would* have
  matched a family window are counted as measured misses, and DGA
  verdicts that match no window as measured false positives.  The
  per-epoch quality annotation then carries the *measured* miss rate —
  the number downstream interval widening should use, not the
  configured one.  ``oracle`` mode admits everything (the historical
  behaviour) while still tallying per-family detections, so an
  oracle-vs-lexical replay pair isolates exactly the classifier's
  contribution to landscape error.
* :func:`generate_rekey_trace` — a takedown / re-key campaign: day 0 is
  a :func:`repro.sim.takedown.simulate_takedown` run (mid-day sinkhole,
  NXD storm), after which the botmaster migrates the family to a new
  seed.  The splice point carries a ``register`` control line so the
  replaying daemon onboards the re-keyed family *live* — the charted
  landscape shows the population handoff without a restart.
* The **dynamic taxonomy registry** glue: verdict caching, the family
  :class:`~repro.core.matcher.DayIndex`, and counter state that
  survives a checkpoint (the model itself is rebuilt deterministically
  from the fixture, so only integers ride the checkpoint).

Determinism contract: admission is a pure function of the record (the
verdict cache only memoizes), so the admitted subsequence — and hence
the landscape bytes — is identical at any batch framing and with
tracing on or off.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..core.matcher import DayIndex
from ..detect.lexical import LexicalDetector
from ..dns.message import ForwardedLookup
from ..timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR, Timeline
from .wire import encode_header, encode_record, encode_register

__all__ = [
    "TRAINING_FIXTURE",
    "load_training_fixture",
    "build_lexical_detector",
    "StreamingDetector",
    "RekeyConfig",
    "rekey_family_name",
    "generate_rekey_trace",
    "write_rekey_trace",
]

#: The committed training fixture the streaming detector fits from —
#: benign labels in the sim catalogue's shape plus common real-word
#: domains, and DGA labels from four families at seeds deliberately
#: different from every golden-trace seed (held-out generalisation).
TRAINING_FIXTURE = Path(__file__).resolve().parent.parent / "detect" / "training_fixture.json"

#: Verdict-memo cap; the cache is cleared (not evicted) when full, so
#: memory stays bounded while verdicts stay pure-function deterministic.
_VERDICT_CACHE_CAP = 65_536


def load_training_fixture(path: str | Path | None = None) -> tuple[list[str], list[str]]:
    """The committed (benign, dga) training label lists."""
    data = json.loads(Path(path or TRAINING_FIXTURE).read_text())
    return list(data["benign"]), list(data["dga"])


def build_lexical_detector(
    path: str | Path | None = None, threshold: float = 0.0
) -> LexicalDetector:
    """A :class:`LexicalDetector` fit from the committed fixture."""
    benign, dga = load_training_fixture(path)
    return LexicalDetector(threshold=threshold).fit(benign, dga)


class StreamingDetector:
    """Inline D3 gate for the daemon's decode path.

    Args:
        dgas: initial family taxonomy (``name -> Dga``); more families
            join live via :meth:`add_family` (the dynamic registry).
        timeline: the stream's epoch timeline (from the trace header).
        mode: ``"lexical"`` classifies every record with the bigram
            model and drops benign verdicts; ``"oracle"`` admits every
            record (perfect D3) while still counting detections.
        threshold: lexical decision threshold (margin above which a
            label is DGA).
        training_path: fixture override; ``None`` uses the committed one.
        metrics: optional :class:`~repro.service.metrics.MetricsRegistry`
            to expose the counters as ``botmeterd_d3_*``.
        detector: pre-built classifier (tests); overrides fitting.
    """

    def __init__(
        self,
        dgas: Mapping[str, Any],
        timeline: Timeline,
        mode: str = "lexical",
        threshold: float = 0.0,
        training_path: str | Path | None = None,
        metrics: Any = None,
        detector: LexicalDetector | None = None,
    ) -> None:
        if mode not in ("lexical", "oracle"):
            raise ValueError(f"unknown d3 mode {mode!r} (choose 'lexical' or 'oracle')")
        self.mode = mode
        self._timeline = timeline
        self._dgas: dict[str, Any] = {}
        self._index = DayIndex(self._dgas, timeline)
        self.detected: dict[str, int] = {}
        self.missed: dict[str, int] = {}
        self.fp = 0
        self._verdicts: dict[str, bool] = {}
        self._detector = None
        if mode == "lexical":
            self._detector = detector or build_lexical_detector(training_path, threshold)
        self._c_detected = self._c_missed = self._c_fp = None
        if metrics is not None:
            self._c_detected = metrics.counter(
                "botmeterd_d3_detected_total",
                "records the inline D3 classified DGA and routed to a family",
            )
            self._c_missed = metrics.counter(
                "botmeterd_d3_missed_total",
                "family-window records the inline D3 classified benign (measured misses)",
            )
            self._c_fp = metrics.counter(
                "botmeterd_d3_fp_total",
                "DGA verdicts matching no family window (measured false positives)",
            )
        for name in sorted(dict(dgas)):
            self.add_family(name, dgas[name])

    @property
    def families(self) -> list[str]:
        return sorted(self._dgas)

    def add_family(self, name: str, dga: Any) -> None:
        """Onboard a family live (idempotent); routing starts at once."""
        if name in self._dgas:
            return
        self._dgas[name] = dga
        self._index = DayIndex(self._dgas, self._timeline)
        self.detected.setdefault(name, 0)
        self.missed.setdefault(name, 0)

    # -- counters ------------------------------------------------------

    @property
    def missed_total(self) -> int:
        return sum(self.missed.values())

    @property
    def detected_total(self) -> int:
        return sum(self.detected.values())

    @property
    def fp_total(self) -> int:
        return self.fp

    @property
    def truth_total(self) -> int:
        """Family-window records seen so far (the miss-rate denominator)."""
        return self.detected_total + self.missed_total

    def measured_miss_rate(self) -> float:
        truth = self.truth_total
        return self.missed_total / truth if truth else 0.0

    def snapshot(self) -> tuple[int, int, int]:
        """``(missed, truth, fp)`` totals — journal one per record at
        enqueue time so emission deltas are batch-framing independent."""
        return (self.missed_total, self.truth_total, self.fp)

    # -- classification ------------------------------------------------

    def _classify(self, domain: str) -> bool:
        verdict = self._verdicts.get(domain)
        if verdict is None:
            if len(self._verdicts) >= _VERDICT_CACHE_CAP:
                self._verdicts.clear()
            assert self._detector is not None
            verdict = self._detector.is_dga(domain)
            self._verdicts[domain] = verdict
        return verdict

    def admit(self, record: ForwardedLookup) -> bool:
        """Gate one record; ``False`` means it never reaches the engine."""
        hits = [
            family for family, _ in self._index.routes(record.domain, record.timestamp)
        ]
        if self.mode == "oracle" or self._classify(record.domain):
            for family in hits:
                self.detected[family] += 1
                if self._c_detected is not None:
                    self._c_detected.inc(family=family)
            if not hits and self.mode != "oracle":
                self.fp += 1
                if self._c_fp is not None:
                    self._c_fp.inc()
            return True
        for family in hits:
            self.missed[family] += 1
            if self._c_missed is not None:
                self._c_missed.inc(family=family)
        return False

    # -- checkpoint state ----------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Counter state only; the model rebuilds from the fixture."""
        return {
            "detected": dict(self.detected),
            "missed": dict(self.missed),
            "fp": self.fp,
        }

    def import_state(self, state: Mapping[str, Any]) -> None:
        for family, count in dict(state.get("detected", {})).items():
            self.detected[family] = int(count)
        for family, count in dict(state.get("missed", {})).items():
            self.missed[family] = int(count)
        self.fp = int(state.get("fp", 0))


# ---------------------------------------------------------------------
# Takedown / re-key campaign traces
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class RekeyConfig:
    """A takedown-then-re-key campaign.

    Day 0 runs the base-seed family through
    :func:`~repro.sim.takedown.simulate_takedown`: at ``takedown_hour``
    the day's registrations are sinkholed and the bots NXD-storm.  From
    day 1 (the handoff) the surviving botnet runs the same generator
    re-keyed to ``rekey_seed``; a ``register`` control line at the
    splice onboards the new family id in the replaying daemon.
    """

    family: str = "new_goz"
    base_seed: int = 7
    rekey_seed: int = 21
    n_bots: int = 24
    n_days: int = 3
    takedown_hour: float = 10.0
    seed: int = 0
    negative_ttl: float = 7_200.0
    timestamp_granularity: float = 0.1
    origin: _dt.date = field(default_factory=lambda: _dt.date(2014, 5, 1))

    def __post_init__(self) -> None:
        if self.n_days < 2:
            raise ValueError("a re-key campaign needs at least 2 days (handoff is day 1)")
        if not 0 <= self.takedown_hour < 24:
            raise ValueError("takedown_hour must fall inside day 0")


def rekey_family_name(config: RekeyConfig) -> str:
    """The registered id of the re-keyed population."""
    return f"{config.family}-rk{config.rekey_seed}"


def generate_rekey_trace(config: RekeyConfig) -> tuple[dict[str, Any], list[str]]:
    """Header dict + NDJSON lines (header, day-0 storm, register, phase 2).

    Phase 2 is a fresh :func:`~repro.sim.network.simulate` run on the
    re-keyed seed with its origin shifted to the handoff date, and its
    timestamps shifted forward one day — so the spliced stream stays
    time-ordered and the re-keyed domains are exactly what the
    registered family's router expects on days ``1..n_days-1``.
    """
    from ..sim.network import SimConfig, simulate
    from ..sim.takedown import TakedownConfig, simulate_takedown

    takedown = simulate_takedown(
        TakedownConfig(
            family=config.family,
            family_seed=config.base_seed,
            n_bots=config.n_bots,
            takedown_time=config.takedown_hour * SECONDS_PER_HOUR,
            n_days=1,
            seed=config.seed,
            negative_ttl=config.negative_ttl,
            timestamp_granularity=config.timestamp_granularity,
            origin=config.origin,
        )
    )
    rekeyed = simulate(
        SimConfig(
            family=config.family,
            family_seed=config.rekey_seed,
            n_bots=config.n_bots,
            n_local_servers=1,
            n_days=config.n_days - 1,
            seed=config.seed + 1,
            negative_ttl=config.negative_ttl,
            timestamp_granularity=config.timestamp_granularity,
            origin=config.origin + _dt.timedelta(days=1),
        )
    )
    header = {
        "schema": "botmeter-trace-v1",
        "source": "rekey",
        "families": [{"name": config.family, "seed": config.base_seed}],
        "granularity": config.timestamp_granularity,
        "negative_ttl": config.negative_ttl,
        "origin": config.origin.isoformat(),
        "rekey": {
            "family": rekey_family_name(config),
            "base": config.family,
            "seed": config.rekey_seed,
            "handoff_day": 1,
        },
    }
    lines = [encode_header(header)]
    lines.extend(encode_record(record) for record in takedown.observable)
    lines.append(
        encode_register(rekey_family_name(config), config.family, config.rekey_seed)
    )
    lines.extend(
        encode_record(
            ForwardedLookup(
                record.timestamp + SECONDS_PER_DAY, record.server, record.domain
            )
        )
        for record in rekeyed.observable
    )
    return header, lines


def write_rekey_trace(path: str | Path, config: RekeyConfig) -> dict[str, Any]:
    """Write the campaign trace as NDJSON; returns the header dict."""
    header, lines = generate_rekey_trace(config)
    Path(path).write_text("".join(line + "\n" for line in lines))
    return header
