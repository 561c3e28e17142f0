"""The scipy ports in :mod:`repro.core.numeric` against scipy itself.

Landscape rows print estimates as full ``repr`` floats, so "close" is not
enough: every check here is exact equality of the float bits.  The ports
mirror scipy 1.17 (older releases compute ``logsumexp`` differently), so
the module is skipped under an older scipy or none.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy", minversion="1.17")
scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_special = pytest.importorskip("scipy.special")

from repro.core.bernoulli import solve_pattern_population  # noqa: E402
from repro.core.combinatorics import segment_validity_curve  # noqa: E402
from repro.core.numeric import (  # noqa: E402
    gammaln_int,
    logsumexp,
    minimize_bounded,
)
from repro.core.segments import Segment, SegmentKind  # noqa: E402


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


finite = st.floats(min_value=-800.0, max_value=800.0, allow_nan=False)
element = st.one_of(finite, finite, finite, st.just(-math.inf))


class TestLogsumexp:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(element, min_size=1, max_size=40), st.integers(0, 3))
    def test_matches_scipy(self, values, ties):
        a = np.array(values, dtype=float)
        # Tie the maximum a few times over: ties change ``m``.
        a = np.concatenate([a, np.full(ties, a.max())])
        assert _bits(logsumexp(a)) == _bits(float(scipy_special.logsumexp(a)))

    @pytest.mark.parametrize(
        "values",
        [
            [3.25],
            [-math.inf],
            [-math.inf, -math.inf, -math.inf],
            [-math.inf, 1.5, 1.5, -2.0],
            [math.inf, 0.0],
            [700.0, 709.0, 709.0],
        ],
    )
    def test_edge_cases(self, values):
        a = np.array(values, dtype=float)
        assert _bits(logsumexp(a)) == _bits(float(scipy_special.logsumexp(a)))

    def test_random_arrays(self):
        rng = np.random.default_rng(20)
        for _ in range(2000):
            n = int(rng.integers(1, 200))
            a = rng.normal(0.0, float(rng.choice([1.0, 30.0, 300.0])), n)
            a[rng.random(n) < 0.2] = -math.inf
            assert _bits(logsumexp(a)) == _bits(float(scipy_special.logsumexp(a)))


class TestGammalnTable:
    def test_matches_scipy_below_200k(self):
        n = 200_000
        table = gammaln_int(n)
        reference = scipy_special.gammaln(np.arange(n, dtype=float) + 1.0)
        assert table.view(np.int64).tolist() == reference.view(np.int64).tolist()

    def test_slices_are_prefixes_and_read_only(self):
        small = gammaln_int(5)
        assert small.tolist() == [0.0, 0.0, math.log(2.0), math.log(6.0), math.log(24.0)]
        assert not small.flags.writeable
        assert gammaln_int(300)[:5].tolist() == small.tolist()


def _counted(func):
    calls = []

    def wrapped(x):
        calls.append(x)
        return func(x)

    return wrapped, calls


class TestMinimizeBounded:
    @settings(max_examples=300, deadline=None)
    @given(
        centre=st.floats(-20.0, 120.0),
        width=st.floats(0.05, 30.0),
        power=st.sampled_from([2, 4, 6]),
        wiggle=st.floats(0.0, 0.05),
        lo=st.floats(1e-9, 5.0),
        span=st.floats(0.01, 200.0),
        xatol=st.sampled_from([1e-3, 1e-5, 1e-8]),
    )
    def test_same_x_and_evaluations_as_scipy(
        self, centre, width, power, wiggle, lo, span, xatol
    ):
        # ``**`` on an np.float64 and on a float can round differently,
        # so this also checks that the port passes scipy's scalar types.
        def f(x):
            return ((x - centre) / width) ** power + wiggle * math.sin(x)

        hi = lo + span
        ref_f, ref_calls = _counted(f)
        reference = scipy_optimize.minimize_scalar(
            ref_f, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
        port_f, port_calls = _counted(f)
        x = minimize_bounded(port_f, lo, hi, xatol=xatol)
        assert _bits(x) == _bits(float(reference.x))
        assert len(port_calls) == len(ref_calls) == reference.nfev
        assert [_bits(v) for v in port_calls] == [_bits(v) for v in ref_calls]

    def test_evaluation_budget(self):
        ref_f, ref_calls = _counted(lambda x: -math.cos(x))
        scipy_optimize.minimize_scalar(
            ref_f, bounds=(0.0, 1e6), method="bounded",
            options={"xatol": 1e-12, "maxiter": 500},
        )
        port_f, port_calls = _counted(lambda x: -math.cos(x))
        minimize_bounded(port_f, 0.0, 1e6, xatol=1e-12)
        assert len(port_calls) == len(ref_calls)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            minimize_bounded(abs, 2.0, 1.0, xatol=1e-3)
        with pytest.raises(ValueError):
            minimize_bounded(abs, 0.0, math.inf, xatol=1e-3)


def _scipy_solve_pattern_population(
    segments, total_nxds, circle_size, barrel_size, rough_estimate
):
    """The MB pattern solver as written on scipy, for reference."""
    n_hi = max(4.0 * rough_estimate + 20.0, 10.0 * len(segments) + 20.0)
    prepared = []
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

    def mixture(mu, log_curve):
        if mu <= 0:
            return float(log_curve[0])
        n = np.arange(log_curve.size, dtype=float)
        log_pois = n * math.log(mu) - mu - scipy_special.gammaln(n + 1.0)
        return float(scipy_special.logsumexp(log_pois + log_curve))

    def neg_log_likelihood(population):
        total = -population * forbidden / circle_size
        for slots, log_curve in prepared:
            total += mixture(population * slots / circle_size, log_curve)
        return -total

    result = scipy_optimize.minimize_scalar(
        neg_log_likelihood, bounds=(1e-9, n_hi), method="bounded",
        options={"xatol": 1e-3},
    )
    return float(result.x)


@st.composite
def segment_sets(draw):
    barrel = draw(st.integers(2, 40))
    kinds = draw(
        st.lists(st.sampled_from([SegmentKind.MIDDLE, SegmentKind.BOUNDARY]),
                 min_size=1, max_size=8)
    )
    segments = []
    for arc, kind in enumerate(kinds):
        if kind is SegmentKind.MIDDLE:
            length = draw(st.integers(barrel, 4 * barrel))
        else:
            length = draw(st.integers(1, 3 * barrel))
        segments.append(Segment(arc, 1, length, kind))
    covered = sum(s.length for s in segments)
    total_nxds = covered + draw(st.integers(0, 20 * barrel))
    circle = total_nxds + len(segments) + draw(st.integers(0, 5))
    rough = draw(st.floats(0.5, 300.0))
    return segments, total_nxds, circle, barrel, rough


class TestPatternSolver:
    @settings(max_examples=40, deadline=None)
    @given(segment_sets())
    def test_matches_scipy_reference(self, case):
        segments, total_nxds, circle, barrel, rough = case
        ours = solve_pattern_population(segments, total_nxds, circle, barrel, rough)
        reference = _scipy_solve_pattern_population(
            segments, total_nxds, circle, barrel, rough
        )
        assert _bits(ours) == _bits(reference)
