"""Occupancy combinatorics behind the Bernoulli estimator (§IV-D).

The paper expresses Theorem 1 through three ingredients:

* the barrel-consumption distribution ``Pr(q = i)`` (Eqn 2) — how many
  NXDs a single randomcut bot queries;
* ``g(l̃, m)`` — the probability that ``m`` occupied start slots
  (including both endpoints) of a length-``l̃`` range leave no gap larger
  than ``θq``, computed by inclusion–exclusion over compositions;
* ``f(l̃, n, m)`` — increments of the classic occupancy probability that
  ``n`` uniform balls occupy exactly ``m`` of ``l̃`` boxes (the Stirling-
  number expression), which we evaluate through a numerically stable
  log-space surjection recurrence instead of alternating sums.

From these, ``V(l̃, n) = Σ_m P(exactly m occupied)·P(valid | m)`` is the
probability that ``n`` bots with i.i.d. uniform start slots reproduce an
observed segment exactly; it is monotone in ``n`` with limit 1, so
``h(n) = V(n) − V(n−1)`` is a proper distribution and
``E(N_L) = Σ n·h(n) = Σ_{n≥0} (1 − V(n))`` is the expected number of
bots required to cover the segment.

The four Theorem-1 kernels the Bernoulli estimator calls per segment —
:func:`barrel_consumption_pmf`, :func:`log_gap_subset_table`,
:func:`segment_validity_curve` and :func:`log_occupancy_table` — depend
only on their integer arguments, so each is memoised in-process (the
512 most recently used entries each).  Every shard of the sharded
engine shares the memo, and a cached value is bit-identical to a fresh
computation.
Returned arrays are read-only; callers that need to mutate must copy.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import lru_cache

import numpy as np

__all__ = [
    "barrel_consumption_pmf",
    "expected_barrel_consumption",
    "gap_constrained_subset_count",
    "log_gap_subset_table",
    "segment_validity_curve",
    "log_occupancy_table",
    "coverage_validity_curve",
    "expected_bots_to_cover",
]

_NEG_INF = float("-inf")

#: Entries each memoised kernel keeps (least recently used go first).
_MEMO_SIZE = 512


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=_MEMO_SIZE)
def barrel_consumption_pmf(
    n_registered: int, n_nxd: int, barrel_size: int
) -> np.ndarray:
    """``Pr(q = i)`` for ``i = 0..θq`` — Eqn (2) of the paper (memoised,
    read-only)."""
    return _readonly(_barrel_consumption_pmf_impl(n_registered, n_nxd, barrel_size))


def _barrel_consumption_pmf_impl(
    n_registered: int, n_nxd: int, barrel_size: int
) -> np.ndarray:
    """Uncached Eqn (2).

    ``q`` is the number of NXDs a bot queries: it stops after ``i`` NXDs
    by hitting a valid domain (case a) or aborts with ``q = θq`` having
    seen no valid domain (case b).  Computed in log space from binomial
    coefficients; exact hypergeometric structure, so the pmf sums to 1.
    """
    if n_registered < 0 or n_nxd < 0:
        raise ValueError("domain counts must be >= 0")
    total = n_registered + n_nxd
    if not 1 <= barrel_size <= total:
        raise ValueError(f"θq must be in [1, {total}], got {barrel_size}")

    pmf = np.zeros(barrel_size + 1)
    if n_registered == 0:
        pmf[barrel_size] = 1.0
        return pmf

    log_total = math.lgamma(total + 1)
    for i in range(barrel_size):
        if i > n_nxd:
            break
        # (a): θ∃/(i+1) · C(θ∅, i) / C(θ∃+θ∅, i+1)
        log_c_nxd = (
            math.lgamma(n_nxd + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n_nxd - i + 1)
        )
        log_c_total = (
            log_total - math.lgamma(i + 2) - math.lgamma(total - i)
        )
        pmf[i] = (
            n_registered / (i + 1) * math.exp(log_c_nxd - log_c_total)
        )
    if barrel_size <= n_nxd:
        # (b): C(θ∅, θq) / C(θ∃+θ∅, θq)
        log_c_nxd = (
            math.lgamma(n_nxd + 1)
            - math.lgamma(barrel_size + 1)
            - math.lgamma(n_nxd - barrel_size + 1)
        )
        log_c_total = (
            log_total
            - math.lgamma(barrel_size + 1)
            - math.lgamma(total - barrel_size + 1)
        )
        pmf[barrel_size] = math.exp(log_c_nxd - log_c_total)
    return pmf


def expected_barrel_consumption(
    n_registered: int, n_nxd: int, barrel_size: int
) -> float:
    """``E[q]`` — mean NXDs queried per activation under Eqn (2)."""
    pmf = barrel_consumption_pmf(n_registered, n_nxd, barrel_size)
    return float(np.dot(pmf, np.arange(len(pmf))))


@lru_cache(maxsize=4096)
def gap_constrained_subset_count(length: int, m: int, gap: int) -> int:
    """Number of ``m``-subsets of ``{1..length}`` that contain both 1 and
    ``length`` and whose consecutive elements differ by at most ``gap``.

    Equals the number of compositions of ``length − 1`` into ``m − 1``
    parts, each in ``[1, gap]`` — the inclusion–exclusion numerator of
    the paper's ``g``.  Exact integer arithmetic.
    """
    if length < 1 or m < 1 or gap < 1:
        raise ValueError("length, m and gap must be positive")
    if length == 1:
        return 1 if m == 1 else 0
    if m == 1:
        return 0  # cannot contain both distinct endpoints
    parts = m - 1
    total = length - 1
    count = 0
    for k in range(parts + 1):
        remaining = total - k * gap
        if remaining < parts:
            break
        term = math.comb(parts, k) * math.comb(remaining - 1, parts - 1)
        count += term if k % 2 == 0 else -term
    return count


@lru_cache(maxsize=_MEMO_SIZE)
def log_gap_subset_table(max_last: int, m_max: int, gap: int) -> np.ndarray:
    """``log A(j, m)`` for ``j = 1..max_last``, ``m = 1..m_max`` where
    ``A(j, m)`` counts ``m``-subsets of ``{1..j}`` with minimum 1,
    maximum ``j``, and consecutive gaps at most ``gap``.

    Memoised under the exact argument tuple (the peak-rescaling below
    makes entries depend on the table extents, so unlike the occupancy
    table it is never sliced from a larger one); read-only.
    """
    return _readonly(_log_gap_subset_table_impl(max_last, m_max, gap))


def _log_gap_subset_table_impl(max_last: int, m_max: int, gap: int) -> np.ndarray:
    """Uncached gap-subset table.

    Returned array has shape ``(m_max + 1, max_last + 1)`` (index 0 rows/
    columns unused, ``-inf`` for impossible combinations).  Computed by a
    sliding-window prefix-sum recurrence with floating-point rescaling —
    all terms are positive, so no cancellation occurs:

        ``A(j, m) = Σ_{i=j−gap}^{j−1} A(i, m−1)``.
    """
    if max_last < 1 or m_max < 1 or gap < 1:
        raise ValueError("max_last, m_max and gap must be positive")
    log_table = np.full((m_max + 1, max_last + 1), _NEG_INF)
    # Row m=1: only the singleton {1}.
    row = np.zeros(max_last + 1)
    row[1] = 1.0
    offset = 0.0
    log_table[1, 1] = 0.0
    for m in range(2, m_max + 1):
        csum = np.concatenate(([0.0], np.cumsum(row)))
        new_row = np.zeros(max_last + 1)
        # new_row[j] = sum of row[max(1, j-gap) .. j-1]
        js = np.arange(2, max_last + 1)
        hi = csum[js]          # prefix sum up to j-1
        lo = csum[np.maximum(js - gap, 0)]
        new_row[2:] = hi - lo
        peak = new_row.max()
        if peak <= 0:
            break  # no valid subsets for any larger m
        if peak > 1e250:
            new_row /= peak
            offset += math.log(peak)
        row = new_row
        with np.errstate(divide="ignore"):
            log_table[m] = np.where(row > 0, np.log(np.maximum(row, 1e-320)) + offset, _NEG_INF)
    return log_table


@lru_cache(maxsize=_MEMO_SIZE)
def segment_validity_curve(
    observed_len: int,
    gap: int,
    n_max: int,
    ends_at_boundary: bool,
) -> tuple[int, np.ndarray]:
    """``(slots, V)`` for one observed segment — the Bernoulli
    estimator's hot path, memoised under the exact argument tuple
    (read-only curve)."""
    slots, curve = _segment_validity_curve_impl(
        observed_len, gap, n_max, ends_at_boundary
    )
    return slots, _readonly(curve)


def _segment_validity_curve_impl(
    observed_len: int,
    gap: int,
    n_max: int,
    ends_at_boundary: bool,
) -> tuple[int, np.ndarray]:
    """``(slots, V)`` for one observed segment: the number of allowed
    start slots and the curve ``V(n)`` — the probability that ``n`` bots
    with i.i.d. uniform starts among those slots reproduce the segment
    exactly.

    For an **m-segment** the allowed start slots are
    ``slots = observed_len − θq + 1`` (every covering bot consumed its
    full barrel); validity requires slots 1 and ``slots`` occupied and
    start-gaps ≤ ``θq``.  For a **b-segment** the allowed slots are the
    whole segment; validity requires slot 1 occupied, gaps ≤ ``θq``, and
    the last start within ``θq`` of the boundary.
    """
    if observed_len < 1:
        raise ValueError("segment length must be >= 1")
    if ends_at_boundary:
        slots = observed_len
    else:
        # An m-segment shorter than the barrel only arises from detection
        # holes; degrade gracefully to a single-slot segment.
        slots = max(1, observed_len - gap + 1)
    if slots == 1:
        curve = np.ones(n_max + 1)
        curve[0] = 0.0
        return 1, curve

    m_cap = min(slots, n_max)
    log_a = log_gap_subset_table(slots, m_cap, gap)
    log_counts = np.full(m_cap + 1, _NEG_INF)
    if ends_at_boundary:
        lo = max(1, slots - gap + 1)
        # log Σ_{j=lo}^{slots} A(j, m) per m.
        for m in range(1, m_cap + 1):
            tail = log_a[m, lo:]
            finite = tail[np.isfinite(tail)]
            if finite.size:
                peak = finite.max()
                log_counts[m] = peak + math.log(np.exp(finite - peak).sum())
    else:
        log_counts[1:] = log_a[1:, slots]

    log_occ = log_occupancy_table(slots, n_max, m_cap)
    log_terms = log_occ + log_counts[None, :]
    row_max = np.max(log_terms, axis=1, keepdims=True)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    curve = np.exp(safe_max[:, 0]) * np.sum(np.exp(log_terms - safe_max), axis=1)
    return slots, np.clip(curve, 0.0, 1.0)


#: ``n_boxes -> table`` at the largest extents requested so far (LRU).
_OCCUPANCY: OrderedDict[int, np.ndarray] = OrderedDict()


def log_occupancy_table(n_boxes: int, n_max: int, m_max: int) -> np.ndarray:
    """``log P(n uniform balls land onto exactly one given m-subset and
    cover it)`` for ``n = 0..n_max``, ``m = 0..m_max``.

    Memoised per ``n_boxes``: entry ``(n, m)`` of the recurrence depends
    only on smaller indices, so the stored table grows to the largest
    extents requested so far and every request is a bit-exact read-only
    slice of it.
    """
    table = _OCCUPANCY.get(n_boxes)
    if table is None or table.shape[0] <= n_max or table.shape[1] <= m_max:
        rows, cols = n_max, m_max
        if table is not None:
            rows, cols = max(rows, table.shape[0] - 1), max(cols, table.shape[1] - 1)
        table = _readonly(_log_occupancy_table_impl(n_boxes, rows, cols))
        _OCCUPANCY[n_boxes] = table
        if len(_OCCUPANCY) > _MEMO_SIZE:
            _OCCUPANCY.popitem(last=False)
    _OCCUPANCY.move_to_end(n_boxes)
    return table[: n_max + 1, : m_max + 1]


def _log_occupancy_table_impl(n_boxes: int, n_max: int, m_max: int) -> np.ndarray:
    """Uncached occupancy table.

    This is ``log(T(n, m) / n_boxes^n)`` with ``T`` the surjection count
    ``m!·S(n, m)``; computed via the positive recurrence
    ``T(n, m) = m·(T(n−1, m) + T(n−1, m−1))`` entirely in log space, so
    no alternating-sum cancellation occurs.
    """
    if n_boxes < 1:
        raise ValueError("need at least one box")
    if n_max < 0 or m_max < 0:
        raise ValueError("table extents must be >= 0")
    table = np.full((n_max + 1, m_max + 1), _NEG_INF)
    table[0, 0] = 0.0
    log_boxes = math.log(n_boxes)
    ms = np.arange(1, m_max + 1, dtype=float)
    log_m_over_boxes = np.log(ms) - log_boxes
    for n in range(1, n_max + 1):
        prev = table[n - 1]
        # logaddexp(prev[m], prev[m-1]) vectorised over m = 1..m_max.
        table[n, 1:] = log_m_over_boxes + np.logaddexp(prev[1:], prev[:-1])
    return table


def coverage_validity_curve(
    length: int, gap: int, n_max: int
) -> np.ndarray:
    """``V(n)`` for ``n = 0..n_max``: probability that ``n`` bots with
    i.i.d. uniform start slots in ``{1..length}`` occupy a valid
    configuration (both endpoints occupied, consecutive gaps ≤ ``gap``).

    ``V`` is non-decreasing with limit 1.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    m_max = length
    log_occ = log_occupancy_table(length, n_max, m_max)
    log_counts = np.full(m_max + 1, _NEG_INF)
    for m in range(1, m_max + 1):
        count = gap_constrained_subset_count(length, m, gap)
        if count > 0:
            # math.log on an int of arbitrary size would overflow float
            # conversion for huge counts; go through log2 via bit_length.
            log_counts[m] = _log_of_int(count)
    with np.errstate(over="ignore"):
        log_terms = log_occ + log_counts[None, :]
    # V(n) = Σ_m count(m)·P_occ(n, m); logsumexp row-wise.
    row_max = np.max(log_terms, axis=1, keepdims=True)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    curve = np.exp(safe_max[:, 0]) * np.sum(
        np.exp(log_terms - safe_max), axis=1
    )
    return np.clip(curve, 0.0, 1.0)


def _log_of_int(value: int) -> float:
    """Natural log of a (possibly huge) positive Python int."""
    if value <= 0:
        raise ValueError("value must be positive")
    bits = value.bit_length()
    if bits <= 512:
        return math.log(value)
    shift = bits - 512
    return math.log(value >> shift) + shift * math.log(2.0)


def expected_bots_to_cover(
    length: int,
    barrel_size: int,
    ends_at_boundary: bool,
    rel_tol: float = 1e-6,
    n_cap: int = 100_000,
) -> float:
    """``E(N_L)`` of Theorem 1 for a segment of ``length`` observed NXDs.

    For an m-segment every covering bot consumed its full barrel, so the
    start slots span ``l̃ = length − θq + 1`` positions with endpoint and
    gap constraints.  For a b-segment the rightmost start slot is
    marginalised over ``l̃ ∈ [max(1, length−θq+1), length]`` (the paper's
    ``ll``/``lu``), mirroring bots that stopped at the arc boundary.

    Computed as ``Σ_{n≥0} (1 − V(n))``, truncated once the tail is below
    ``rel_tol`` of the running sum.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if barrel_size < 1:
        raise ValueError("barrel size must be >= 1")

    if ends_at_boundary:
        lo = max(1, length - barrel_size + 1)
        lengths = list(range(lo, length + 1))
    else:
        lengths = [max(1, length - barrel_size + 1)]

    if not ends_at_boundary:
        return _expected_hitting_number(lengths[0], barrel_size, rel_tol, n_cap)

    # For b-segments, V_b(n) = Σ_{l̃} P(rightmost occupied slot = l̃ and
    # configuration valid); equivalently count valid subsets of {1..L}
    # whose maximum is ≥ L−θq+1 — evaluated in one curve over L slots.
    return _expected_hitting_number_boundary(length, barrel_size, rel_tol, n_cap)


def _valid_curve_boundary(length: int, gap: int, n_max: int) -> np.ndarray:
    """V(n) for the b-segment condition: subsets of ``{1..length}``
    containing 1, with gaps ≤ ``gap``, reaching within ``gap`` of the
    boundary (maximum element ≥ length − gap + 1)."""
    m_max = length
    log_occ = log_occupancy_table(length, n_max, m_max)
    log_counts = np.full(m_max + 1, _NEG_INF)
    lo = max(1, length - gap + 1)
    for m in range(1, m_max + 1):
        count = 0
        for last in range(lo, length + 1):
            count += gap_constrained_subset_count(last, m, gap)
        if count > 0:
            log_counts[m] = _log_of_int(count)
    log_terms = log_occ + log_counts[None, :]
    row_max = np.max(log_terms, axis=1, keepdims=True)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    curve = np.exp(safe_max[:, 0]) * np.sum(np.exp(log_terms - safe_max), axis=1)
    return np.clip(curve, 0.0, 1.0)


def _sum_tail(curve_fn, length: int, gap: int, rel_tol: float, n_cap: int) -> float:
    """``Σ_{n≥0} (1 − V(n))`` with geometric growth of the table."""
    n_hi = max(16, 2 * length)
    while True:
        curve = curve_fn(length, gap, n_hi)
        tail = 1.0 - curve
        expectation = float(np.sum(tail))
        if tail[-1] < rel_tol * max(expectation, 1.0) or n_hi >= n_cap:
            # Geometric tail bound: 1−V(n) shrinks at least geometrically
            # once the endpoints dominate; extrapolate the residual.
            last = float(tail[-1])
            if 0 < last < 1 and len(tail) >= 2 and tail[-2] > 0:
                ratio = min(0.999999, last / float(tail[-2]))
                expectation += last * ratio / (1.0 - ratio)
            return expectation
        n_hi *= 2


def _expected_hitting_number(
    length: int, gap: int, rel_tol: float, n_cap: int
) -> float:
    if length == 1:
        return 1.0
    return _sum_tail(coverage_validity_curve, length, gap, rel_tol, n_cap)


def _expected_hitting_number_boundary(
    length: int, gap: int, rel_tol: float, n_cap: int
) -> float:
    if length == 1:
        return 1.0
    return _sum_tail(_valid_curve_boundary, length, gap, rel_tol, n_cap)
