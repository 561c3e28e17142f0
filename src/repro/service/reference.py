"""The offline reference series the streaming daemon is checked against.

:func:`batch_series` charts a whole trace with the batch
:class:`~repro.core.botmeter.BotMeter`, one chart per (day, family), in
the daemon's emission order (``replay --engine batch``); its equality
with the streamed series is the subsystem's acceptance test.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.botmeter import BotMeter
from ..core.estimator import Estimator
from ..dga.base import Dga
from ..dns.message import ForwardedLookup
from ..sim.trace import sort_observable
from ..timebase import SECONDS_PER_DAY, Timeline
from .engine import EpochLandscape

__all__ = ["batch_series"]


def batch_series(
    records: Iterable[ForwardedLookup],
    dgas: Mapping[str, Dga],
    estimator: Estimator | str = "auto",
    detection_windows: Mapping[str, Mapping[int, frozenset[str]]] | None = None,
    negative_ttl: float = 7_200.0,
    timestamp_granularity: float = 0.1,
    timeline: Timeline | None = None,
) -> list[EpochLandscape]:
    """The offline reference series: one batch chart per (day, family).

    Emission order matches the streaming engine — days ascending,
    families sorted within each day — so two serialized series can be
    compared line by line.
    """
    ordered = sort_observable(records)
    if not ordered:
        return []
    last_day = int(ordered[-1].timestamp // SECONDS_PER_DAY)
    out: list[EpochLandscape] = []
    meters = {
        family: BotMeter(
            dga,
            estimator=estimator,
            detection_windows=(detection_windows or {}).get(family),
            negative_ttl=negative_ttl,
            timestamp_granularity=timestamp_granularity,
            timeline=timeline,
        )
        for family, dga in dgas.items()
    }
    for day in range(last_day + 1):
        window = (day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY)
        for family in sorted(dgas):
            landscape = meters[family].chart(ordered, *window)
            out.append(EpochLandscape(family, day, landscape))
    return out
