"""Occupancy estimator MO for sampling- and permutation-barrel DGAs.

An extension of the library: the paper applies only MT to AS
(Conficker-style) and AP (Necurs-style) families, but both classes admit
a *semantic* estimator in the spirit of MB — invert the number of
distinct NXDs observed during an epoch:

* **AS (sampling)** — a bot draws domains uniformly without replacement
  and stops on the first valid hit, so it queries ``q`` NXDs with the
  Eqn-2 distribution; given ``q``, each particular NXD is in the drawn
  set with probability ``q/θ∅``.  Marginally a bot covers a given NXD
  with probability ``E[q]/θ∅``, and coverages of different bots are
  independent, giving

      ``E[distinct] = θ∅·(1 − (1 − E[q]/θ∅)^N)``  (exact in expectation
      up to the negligible within-bot dependence across positions).

* **AP (permutation)** — identical formula: a random permutation prefix
  up to the first valid hit is exchangeable across positions, so the
  per-position coverage probability is again ``E[q]/θ∅``.

Like MB, the statistic is immune to caching (first lookups always
forwarded) and to timestamp granularity; like MB it degrades when the D3
window misses domains, and the same compensation trick (restrict to the
known window) applies.
"""

from __future__ import annotations

import math
from typing import Sequence

from .combinatorics import expected_barrel_consumption
from .estimator import (
    EstimationContext,
    MatchedLookup,
    PopulationEstimate,
    average_per_epoch,
)

__all__ = ["OccupancyEstimator", "invert_distinct_count"]

_N_CAP = 1e8


def invert_distinct_count(
    n_distinct: int, n_positions: int, per_bot_coverage: float
) -> float:
    """Solve ``n_distinct = P·(1 − (1 − c)^N)`` for ``N``.

    Args:
        n_distinct: observed distinct NXDs.
        n_positions: ``P`` — observable NXD positions.
        per_bot_coverage: ``c`` — probability a single bot covers a given
            position.

    Returns the continuous estimate, capped when the observation
    saturates (``n_distinct == n_positions`` is consistent with any large
    ``N``; the cap marks the point estimate as a lower bound).
    """
    if n_positions < 1:
        raise ValueError("need at least one observable position")
    if not 0 < per_bot_coverage < 1:
        raise ValueError("per-bot coverage must be in (0, 1)")
    if not 0 <= n_distinct <= n_positions:
        raise ValueError("distinct count out of range")
    if n_distinct == 0:
        return 0.0
    if n_distinct == n_positions:
        return _N_CAP
    fraction = n_distinct / n_positions
    return math.log1p(-fraction) / math.log1p(-per_bot_coverage)


class OccupancyEstimator:
    """Distinct-NXD inversion for AS/AP families.

    Args:
        compensate_detection_window: restrict the position universe to
            the D3-known NXDs (robust to misses); off by default to
            match the behaviour of the paper's semantic estimator under
            Figure 6(e).
    """

    name = "occupancy"

    def __init__(self, compensate_detection_window: bool = False) -> None:
        self._compensate = compensate_detection_window

    def estimate(
        self, lookups: Sequence[MatchedLookup], context: EstimationContext
    ) -> PopulationEstimate:
        """Invert each epoch's distinct-NXD count to a population."""
        params = context.dga.params
        expected_q = expected_barrel_consumption(
            params.n_registered, params.n_nxd, params.barrel_size
        )
        per_epoch: dict[int, float] = {}
        details: dict[str, object] = {
            "expected_barrel_consumption": expected_q,
            "compensated": self._compensate,
        }
        for day, start, end in context.epoch_bounds():
            date = context.timeline.date_for_day(day)
            nxds = context.dga.window(date)
            if self._compensate:
                universe = nxds & context.detected_nxds(day)
            else:
                universe = nxds
            if not universe:
                per_epoch[day] = 0.0
                continue
            observed = {
                l.domain
                for l in lookups
                if start <= l.timestamp < end and l.domain in universe
            }
            coverage = expected_q / params.n_nxd
            estimate = invert_distinct_count(
                len(observed), len(universe) if self._compensate else len(nxds),
                coverage,
            )
            per_epoch[day] = min(estimate, _N_CAP)
        return PopulationEstimate(
            value=average_per_epoch(per_epoch),
            estimator=self.name,
            per_epoch=per_epoch,
            details=details,
        )
