"""Bernoulli estimator MB (§IV-D).

MB targets randomcut DGAs (AR).  Its input is purely *semantic*: the set
of distinct DGA-NXDs observed during an epoch — a statistic that negative
caching cannot distort (the first lookup of every domain is always
forwarded) and that carries no timing information at all.  That is why
the paper finds MB immune to cache TTLs, timestamp granularity, and
activation-rate dynamics.

Model (Figure 5): the daily pool is a circle partitioned into arcs by the
``θ∃`` registered domains.  A bot starts at a uniformly random position
and covers a clockwise stretch of NXDs (ending at an arc boundary or
after ``θq`` lookups), so the NXD at within-arc offset ``a`` is covered
by any of ``w(a) = min(θq, a)`` start positions.  With ``N`` active bots,
each position's observation is a Bernoulli trial with success probability

    ``s_a(N) = 1 − (1 − w(a)/C)^N``,      C = θ∃ + θ∅.

The estimator inverts the observed coverage pattern back to ``N`` either
by maximising the Bernoulli (pseudo-)likelihood over positions
(``method="mle"``, the default) or by matching the expected number of
covered positions to the observed count (``method="moments"``).

The paper's Theorem-1 segment machinery — segment decomposition,
the barrel-consumption distribution (Eqn 2), and the endpoint/gap
occupancy combinatorics — lives in :mod:`repro.core.segments` and
:mod:`repro.core.combinatorics` and backs the per-segment diagnostics
this estimator reports; the closed-form expectation itself is
re-derived here because the paper's technical report is no longer
retrievable (see DESIGN.md §2).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .combinatorics import segment_validity_curve
from .estimator import (
    EstimationContext,
    MatchedLookup,
    PopulationEstimate,
    average_per_epoch,
)
from .numeric import gammaln_int, logsumexp, minimize_bounded
from .segments import DgaCircle, Segment, SegmentKind

__all__ = [
    "BernoulliEstimator",
    "solve_coverage_population",
    "solve_pattern_population",
]

_N_CAP = 1e8


def _coverage_weights(circle: DgaCircle, barrel_size: int) -> dict[str, int]:
    """``w(a) = min(θq, a)`` for every NXD on the circle, by domain."""
    return {
        domain: min(barrel_size, offset)
        for domain, _arc, offset in circle.iter_nxds()
    }


def _compress(
    weights: Sequence[int], covered: Sequence[bool]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group exchangeable positions: unique weight → (total, covered)."""
    totals: dict[int, int] = {}
    hits: dict[int, int] = {}
    for w, x in zip(weights, covered):
        totals[w] = totals.get(w, 0) + 1
        if x:
            hits[w] = hits.get(w, 0) + 1
    ws = np.array(sorted(totals), dtype=float)
    tot = np.array([totals[int(w)] for w in ws], dtype=float)
    hit = np.array([hits.get(int(w), 0) for w in ws], dtype=float)
    return ws, tot, hit


def solve_coverage_population(
    weights: Sequence[int],
    covered: Sequence[bool],
    circle_size: int,
    method: str = "mle",
) -> float:
    """Invert a Bernoulli coverage pattern to a population estimate.

    Args:
        weights: per-position coverage weights ``w(a)``.
        covered: per-position observation indicators.
        circle_size: ``C = θ∃ + θ∅``.
        method: ``"mle"`` (pseudo-likelihood maximum) or ``"moments"``
            (expected-coverage matching).

    Returns the continuous estimate ``N̂ >= 0``.
    """
    if len(weights) != len(covered):
        raise ValueError("weights and coverage indicators must align")
    if circle_size < 1:
        raise ValueError("circle size must be positive")
    if method not in ("mle", "moments"):
        raise ValueError(f"unknown method {method!r}")
    if not weights:
        return 0.0

    ws, tot, hit = _compress(weights, covered)
    n_covered = float(hit.sum())
    if n_covered == 0:
        return 0.0
    # log(1 - w/C) per weight class, strictly negative (-inf where w == C).
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-ws / circle_size)
    if np.any(~np.isfinite(log_miss)):
        # w == C: a single bot always covers such positions; they carry
        # no population information beyond "N >= 1".  Drop them.
        finite = np.isfinite(log_miss)
        ws, tot, hit, log_miss = ws[finite], tot[finite], hit[finite], log_miss[finite]
        if ws.size == 0:
            return 1.0
        n_covered = float(hit.sum())
        if n_covered == 0:
            return 1.0
    if np.all(hit == tot):
        # Every observable position covered: any sufficiently large N
        # fits; report the smallest N making full coverage the median
        # outcome (documented saturation behaviour).
        return _saturation_estimate(log_miss, tot)

    if method == "moments":
        target = n_covered

        def excess(n: float) -> float:
            # Decreasing in n: positive while expected coverage is still
            # below the observed count.
            return target - float(np.sum(tot * (1.0 - np.exp(n * log_miss))))

    else:

        def excess(n: float) -> float:
            # d/dN of the Bernoulli pseudo-log-likelihood.
            miss_pow = np.exp(n * log_miss)
            succ = 1.0 - miss_pow
            # Guard positions with succ == 0 at n == 0 handled by bracket.
            term_hit = hit * (-log_miss) * miss_pow / np.maximum(succ, 1e-300)
            term_miss = (tot - hit) * log_miss
            return float(np.sum(term_hit + term_miss))

    return _bracketed_root(excess)


def _saturation_estimate(log_miss: np.ndarray, tot: np.ndarray) -> float:
    """Smallest N with P(all positions covered) >= 1/2."""

    def log_p_all(n: float) -> float:
        return float(np.sum(tot * np.log1p(-np.exp(n * log_miss))))

    lo, hi = 1.0, 2.0
    while log_p_all(hi) < math.log(0.5) and hi < _N_CAP:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_p_all(mid) < math.log(0.5):
            lo = mid
        else:
            hi = mid
    return hi


def _bracketed_root(excess) -> float:
    """Root of a decreasing-excess function on (0, ∞) by bisection."""
    lo = 0.0
    hi = 1.0
    while excess(hi) > 0:
        lo = hi
        hi *= 2.0
        if hi > _N_CAP:
            return _N_CAP
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_arange_table = np.zeros(0)


def _arange(size: int) -> np.ndarray:
    """``np.arange(size, dtype=float)`` as a slice of one growing table."""
    global _arange_table
    if size > _arange_table.size:
        _arange_table = np.arange(max(size, 2 * _arange_table.size), dtype=float)
        _arange_table.flags.writeable = False
    return _arange_table[:size]


def _segment_log_mixture(mu: float, log_curve: np.ndarray) -> float:
    """``log Σ_n Poisson(n; μ)·V(n)`` for one segment."""
    if mu <= 0:
        return float(log_curve[0])  # only n = 0 has mass; V(0) = 0 → -inf
    size = log_curve.size
    log_pois = _arange(size) * math.log(mu) - mu - gammaln_int(size)
    return logsumexp(log_pois + log_curve)


def solve_pattern_population(
    segments: Sequence[Segment],
    total_nxds: int,
    circle_size: int,
    barrel_size: int,
    rough_estimate: float,
) -> float:
    """Maximum-likelihood population from the full coverage *pattern*.

    Poissonising the ``N`` uniform bot starts (independent Poisson counts
    per circle position with rate ``N/C``), the likelihood of an observed
    coverage pattern factorises:

    * each segment contributes ``Σ_n Pois(n; N·slots/C) · V(n)`` — the
      chance the Poisson number of starts that landed in its allowed slot
      range reproduces it exactly (``V`` from
      :func:`repro.core.combinatorics.segment_validity_curve`, i.e. the
      paper's Theorem-1 endpoint/gap occupancy machinery);
    * every *forbidden* position (uncovered NXDs and m-segment tails,
      where any start would have altered the pattern) contributes
      ``exp(−N/C)``.

    The 1-D MLE over ``N`` uses all the information in the distinct-NXD
    set — segment lengths, segment kinds, and uncovered gaps — which is
    what lets MB stay accurate where pure coverage counting saturates.

    Args:
        segments: the observed segment decomposition.
        total_nxds: number of NXD positions on the circle (``θ∅``).
        circle_size: ``C = θ∃ + θ∅``.
        barrel_size: ``θq``.
        rough_estimate: a cheap initial estimate (e.g. the positionwise
            MLE) used to size the search bracket and Poisson tails.

    Returns the continuous MLE ``N̂``.
    """
    if not segments:
        return 0.0
    n_hi = max(4.0 * rough_estimate + 20.0, 10.0 * len(segments) + 20.0)

    prepared: list[tuple[int, np.ndarray]] = []
    allowed = 0
    for segment in segments:
        boundary = segment.kind is SegmentKind.BOUNDARY
        mu_hi = n_hi * max(segment.length, 1) / circle_size
        min_needed = max(1, math.ceil(segment.length / barrel_size))
        n_max = int(mu_hi + 10.0 * math.sqrt(mu_hi + 1.0) + 3 * min_needed + 40)
        slots, curve = segment_validity_curve(
            segment.length, barrel_size, n_max, boundary
        )
        with np.errstate(divide="ignore"):
            log_curve = np.log(curve)
        prepared.append((slots, log_curve))
        allowed += slots
    forbidden = max(0, total_nxds - allowed)

    def neg_log_likelihood(population: float) -> float:
        total = -population * forbidden / circle_size
        for slots, log_curve in prepared:
            total += _segment_log_mixture(
                population * slots / circle_size, log_curve
            )
        return -total

    return float(minimize_bounded(neg_log_likelihood, 1e-9, n_hi, xatol=1e-3))


class BernoulliEstimator:
    """Per-epoch coverage inversion, averaged over the window.

    Args:
        method: ``"pattern"`` (default — full segment-pattern likelihood,
            the Theorem-1 machinery), ``"mle"`` (positionwise Bernoulli
            pseudo-likelihood) or ``"moments"`` (expected-coverage
            matching).  See the module docstring.
        compensate_detection_window: when ``True``, the positionwise
            likelihood is restricted to the NXD positions the D3
            algorithm actually knows, making the estimator robust to
            detection misses — an extension over the paper, whose MB
            treats the detection window as complete and therefore
            under-estimates when domains are missed (Figure 6e).
            Forces ``method="mle"`` internally, because detection holes
            invalidate the exact segment-pattern model.
    """

    name = "bernoulli"

    def __init__(
        self, method: str = "pattern", compensate_detection_window: bool = False
    ) -> None:
        if method not in ("pattern", "mle", "moments"):
            raise ValueError(f"unknown method {method!r}")
        self._method = "mle" if compensate_detection_window else method
        self._compensate = compensate_detection_window

    def estimate(
        self, lookups: Sequence[MatchedLookup], context: EstimationContext
    ) -> PopulationEstimate:
        """Invert each epoch's distinct-NXD coverage to a population."""
        params = context.dga.params
        per_epoch: dict[int, float] = {}
        details: dict[str, object] = {
            "method": self._method,
            "compensated": self._compensate,
            "segments_per_epoch": {},
        }
        for day, start, end in context.epoch_bounds():
            date = context.timeline.date_for_day(day)
            pool = context.dga.pool(date)
            registered = context.dga.registered(date)
            circle = DgaCircle(pool, registered)
            weight_by_domain = _coverage_weights(circle, params.barrel_size)

            observed = {
                l.domain
                for l in lookups
                if start <= l.timestamp < end and l.domain in weight_by_domain
            }
            if self._compensate:
                position_domains = [
                    d for d in weight_by_domain if d in context.detected_nxds(day)
                ]
            else:
                position_domains = list(weight_by_domain)
            weights = [weight_by_domain[d] for d in position_domains]
            covered = [d in observed for d in position_domains]
            segments = circle.segments(observed)
            if self._method == "pattern":
                rough = solve_coverage_population(
                    weights, covered, circle.size, "mle"
                )
                # An m-segment shorter than θq cannot arise from complete
                # observation (every covering bot consumed a full barrel):
                # it is the signature of missing records or a partial D3
                # window, under which the exact pattern model is invalid.
                fragmented = any(
                    s.kind is SegmentKind.MIDDLE and s.length < params.barrel_size
                    for s in segments
                )
                if not observed:
                    per_epoch[day] = 0.0
                elif fragmented or len(observed) == len(weight_by_domain):
                    # Degrade to the positionwise estimate: fully
                    # saturated circles carry no pattern information, and
                    # fragmented patterns would mislead it.
                    per_epoch[day] = rough
                else:
                    per_epoch[day] = solve_pattern_population(
                        segments,
                        total_nxds=len(weight_by_domain),
                        circle_size=circle.size,
                        barrel_size=params.barrel_size,
                        rough_estimate=rough,
                    )
            else:
                per_epoch[day] = solve_coverage_population(
                    weights, covered, circle.size, self._method
                )
            details["segments_per_epoch"][day] = [  # type: ignore[index]
                (s.kind.value, s.length) for s in segments
            ]
        return PopulationEstimate(
            value=average_per_epoch(per_epoch),
            estimator=self.name,
            per_epoch=per_epoch,
            details=details,
        )
