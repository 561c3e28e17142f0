"""Tests for the in-process memo of the Theorem-1 kernels
(repro.core.combinatorics).

The memo sits under every combinatorics call the Bernoulli machinery
makes, so its one non-negotiable property is bit-exactness: a cached
(or sliced) table must equal the direct computation to the last bit,
shape and dtype included — anything else would break the streamed
series' byte-identity anchor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import combinatorics as comb
from repro.dga.families import make_family
from repro.service.engine import ShardedLandscapeEngine

MEMOISED = (
    comb.barrel_consumption_pmf,
    comb.log_gap_subset_table,
    comb.segment_validity_curve,
)


def _clear_memo():
    for kernel in MEMOISED:
        kernel.cache_clear()
    comb._OCCUPANCY.clear()


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Isolate every test from memo state other tests left behind."""
    _clear_memo()
    yield
    _clear_memo()


def _uncached(kind, args):
    """The value ``kind(*args)`` has when nothing is memoised: every
    kernel the composed curves call is swapped for its ``_impl``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(comb, "log_occupancy_table", comb._log_occupancy_table_impl)
        mp.setattr(comb, "log_gap_subset_table", comb._log_gap_subset_table_impl)
        if kind == "occ":
            return comb._log_occupancy_table_impl(*args)
        if kind == "seg":
            return comb._segment_validity_curve_impl(*args)
        return comb.coverage_validity_curve(*args)


def _memoised(kind, args):
    if kind == "occ":
        return comb.log_occupancy_table(*args)
    if kind == "seg":
        return comb.segment_validity_curve(*args)
    return comb.coverage_validity_curve(*args)


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got[0] == want[0]
        got, want = got[1], want[1]
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


_REQUESTS = st.one_of(
    st.tuples(
        st.just("occ"),
        st.tuples(
            st.integers(1, 16), st.integers(0, 24), st.integers(0, 16)
        ),
    ),
    st.tuples(
        st.just("seg"),
        st.tuples(
            st.integers(1, 18), st.integers(1, 5), st.integers(1, 24), st.booleans()
        ),
    ),
    st.tuples(
        st.just("cov"),
        st.tuples(st.integers(1, 14), st.integers(1, 5), st.integers(1, 24)),
    ),
)


class TestBitExactness:
    def test_occupancy_matches_impl(self):
        got = comb.log_occupancy_table(10, 8, 12)
        _assert_same(got, comb._log_occupancy_table_impl(10, 8, 12))

    def test_occupancy_superset_slice_is_bit_exact(self):
        comb.log_occupancy_table(10, 20, 30)  # grow the stored table first
        sliced = comb.log_occupancy_table(10, 8, 12)
        _assert_same(sliced, comb._log_occupancy_table_impl(10, 8, 12))
        assert comb._OCCUPANCY[10].shape == (21, 31)

    def test_occupancy_growth_serves_larger_request(self):
        small = comb.log_occupancy_table(6, 4, 4)
        large = comb.log_occupancy_table(6, 9, 9)
        _assert_same(large, comb._log_occupancy_table_impl(6, 9, 9))
        np.testing.assert_array_equal(large[:5, :5], small)
        # A larger n_max with a smaller m_max grows the stored table in
        # both extents and still returns exactly [:n_max+1, :m_max+1].
        mixed = comb.log_occupancy_table(6, 12, 3)
        _assert_same(mixed, comb._log_occupancy_table_impl(6, 12, 3))
        assert comb._OCCUPANCY[6].shape == (13, 10)

    def test_coverage_curve_then_segment_curve(self):
        """The two-call sequence that broke the growth path: the
        coverage curve stores the 12-box table at ``(4, 12)``, then the
        m-segment curve (12 slots, ``m_cap`` 6) asks for ``(6, 6)``."""
        comb.coverage_validity_curve(12, 3, 4)
        got = comb.segment_validity_curve(14, 3, 6, False)
        _assert_same(got, _uncached("seg", (14, 3, 6, False)))

    def test_gap_subsets_exact_key_only(self):
        got = comb.log_gap_subset_table(12, 6, 2)
        _assert_same(got, comb._log_gap_subset_table_impl(12, 6, 2))
        # A different extent is a different entry — never a slice (the
        # peak-rescaled recurrence makes values extent-dependent).
        comb.log_gap_subset_table(20, 6, 2)
        info = comb.log_gap_subset_table.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_barrel_pmf_matches_impl(self):
        got = comb.barrel_consumption_pmf(5, 35, 8)
        _assert_same(got, comb._barrel_consumption_pmf_impl(5, 35, 8))

    def test_public_wrappers_route_through_shared_cache(self):
        """A repeated call is served from the memo: the occupancy table
        as a view of the stored one, the others as the same object."""
        a = comb.log_occupancy_table(7, 5, 5)
        b = comb.log_occupancy_table(7, 5, 5)
        assert a.base is comb._OCCUPANCY[7] and b.base is comb._OCCUPANCY[7]
        curve = comb.segment_validity_curve(6, 2, 40, True)
        assert comb.segment_validity_curve(6, 2, 40, True) is curve
        info = comb.segment_validity_curve.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_segment_curve_matches_impl(self):
        got = comb.segment_validity_curve(6, 2, 40, True)
        _assert_same(got, _uncached("seg", (6, 2, 40, True)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_REQUESTS, min_size=1, max_size=12))
    def test_any_request_sequence_matches_the_uncached_kernels(self, requests):
        wanted = [_uncached(kind, args) for kind, args in requests]
        _clear_memo()
        for (kind, args), want in zip(requests, wanted):
            _assert_same(_memoised(kind, args), want)


class TestCacheBehaviour:
    def test_returned_arrays_are_read_only(self):
        comb.log_occupancy_table(8, 9, 9)
        for array in (
            comb.log_occupancy_table(8, 5, 5),
            comb.log_gap_subset_table(10, 4, 1),
            comb.barrel_consumption_pmf(3, 17, 5),
            comb.segment_validity_curve(4, 1, 20, False)[1],
        ):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_hits_and_misses_counted(self):
        comb.barrel_consumption_pmf(3, 17, 5)
        comb.barrel_consumption_pmf(3, 17, 5)
        comb.barrel_consumption_pmf(3, 18, 5)
        info = comb.barrel_consumption_pmf.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

    def test_lru_eviction_bounds_entries(self):
        for kernel in MEMOISED:
            assert kernel.cache_info().maxsize == comb._MEMO_SIZE
        for n_nxd in range(10, 11 + comb._MEMO_SIZE):
            comb.barrel_consumption_pmf(3, n_nxd, 5)
        assert comb.barrel_consumption_pmf.cache_info().currsize == comb._MEMO_SIZE
        for n_boxes in range(1, 2 + comb._MEMO_SIZE):
            comb.log_occupancy_table(n_boxes, 1, 1)
        assert len(comb._OCCUPANCY) == comb._MEMO_SIZE
        assert 1 not in comb._OCCUPANCY  # least recently used went first
        assert 1 + comb._MEMO_SIZE in comb._OCCUPANCY

    def test_warm_family_precomputes_pmf(self):
        """Engine construction and ``register_family`` compute each
        family's Eqn-2 PMF once; the estimators then hit the memo."""
        goz, qak = make_family("new_goz", 1), make_family("qakbot", 3)
        engine = ShardedLandscapeEngine({"new_goz": goz})
        assert comb.barrel_consumption_pmf.cache_info().misses == 1
        engine.register_family("qakbot", qak)
        assert comb.barrel_consumption_pmf.cache_info().misses == 2
        for dga in (goz, qak):
            p = dga.params
            comb.barrel_consumption_pmf(p.n_registered, p.n_nxd, p.barrel_size)
        info = comb.barrel_consumption_pmf.cache_info()
        assert (info.hits, info.misses) == (2, 2)
