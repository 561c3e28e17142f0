"""Tests for the DGA base abstractions (parameters, composition)."""

import datetime as dt

import pytest

from repro.dga.barrels import RandomCutBarrel, UniformBarrel
from repro.dga.base import WINDOW_MEMO_DAYS, Dga, DgaParameters
from repro.dga.pools import DrainReplenishPool
from repro.dga.wordgen import Lcg

DAY = dt.date(2014, 5, 1)


class TestDgaParameters:
    def test_pool_size(self):
        p = DgaParameters(n_registered=2, n_nxd=98, barrel_size=50, query_interval=1.0)
        assert p.pool_size == 100

    def test_rejects_negative_registered(self):
        with pytest.raises(ValueError):
            DgaParameters(-1, 10, 5, 1.0)

    def test_rejects_zero_nxd(self):
        with pytest.raises(ValueError):
            DgaParameters(1, 0, 1, 1.0)

    def test_rejects_barrel_exceeding_pool(self):
        with pytest.raises(ValueError):
            DgaParameters(2, 8, 11, 1.0)

    def test_rejects_zero_barrel(self):
        with pytest.raises(ValueError):
            DgaParameters(2, 8, 0, 1.0)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            DgaParameters(2, 8, 5, 0.0)

    def test_barrel_may_equal_pool(self):
        p = DgaParameters(2, 8, 10, 1.0)
        assert p.barrel_size == p.pool_size

    def test_zero_registered_allowed(self):
        # A fully-NXD pool models a botnet whose C2 was taken down.
        p = DgaParameters(0, 10, 5, 1.0)
        assert p.pool_size == 10

    def test_frozen(self):
        p = DgaParameters(2, 8, 5, 1.0)
        with pytest.raises(AttributeError):
            p.n_nxd = 99


def make_dga(n_registered=3, n_nxd=97, seed=0):
    params = DgaParameters(n_registered, n_nxd, min(50, n_nxd), 1.0)
    pool = DrainReplenishPool(seed ^ 0x1234, params.pool_size)
    return Dga("test", params, pool, RandomCutBarrel(), seed)


class TestDgaComposition:
    def test_registered_deterministic_per_day(self):
        dga = make_dga()
        assert dga.registered(DAY) == dga.registered(DAY)

    def test_registered_changes_daily(self):
        dga = make_dga()
        assert dga.registered(DAY) != dga.registered(DAY + dt.timedelta(days=1))

    def test_zero_registered_gives_empty_set(self):
        dga = make_dga(n_registered=0, n_nxd=100)
        assert dga.registered(DAY) == set()

    def test_nxdomains_preserve_pool_order(self):
        dga = make_dga()
        pool = dga.pool(DAY)
        nxds = dga.nxdomains(DAY)
        positions = [pool.index(d) for d in nxds]
        assert positions == sorted(positions)

    def test_window_is_the_nxdomain_set_built_once_per_day(self, monkeypatch):
        dga = make_dga()
        calls = []
        nxdomains = dga.nxdomains
        monkeypatch.setattr(dga, "nxdomains", lambda day: calls.append(day) or nxdomains(day))
        window = dga.window(DAY)
        assert window == frozenset(nxdomains(DAY))
        assert dga.window(DAY) is window
        assert calls == [DAY]

    def test_window_memo_keeps_the_latest_days(self, monkeypatch):
        dga = make_dga()
        calls = []
        nxdomains = dga.nxdomains
        monkeypatch.setattr(dga, "nxdomains", lambda day: calls.append(day) or nxdomains(day))
        days = [DAY + dt.timedelta(days=i) for i in range(WINDOW_MEMO_DAYS + 1)]
        for day in days:
            dga.window(day)
        for day in days[1:]:
            dga.window(day)
        assert calls == days
        dga.window(days[0])
        assert calls == days + [days[0]]

    def test_barrel_uses_activation_rng(self):
        dga = make_dga()
        assert dga.barrel(DAY, Lcg(1)) != dga.barrel(DAY, Lcg(2))

    def test_registered_positions_spread(self):
        # With many registered domains, the selection should not always
        # be a prefix of the pool (it partitions the circle into arcs).
        dga = make_dga(n_registered=10, n_nxd=190)
        pool = dga.pool(DAY)
        positions = sorted(pool.index(d) for d in dga.registered(DAY))
        assert positions[-1] > 20

    def test_uniform_dga_identical_barrels(self):
        params = DgaParameters(2, 98, 100, 0.5)
        pool = DrainReplenishPool(7, 100)
        dga = Dga("u", params, pool, UniformBarrel(), 7)
        assert dga.barrel(DAY, Lcg(1)) == dga.barrel(DAY, Lcg(2))

    def test_repr_mentions_models(self):
        text = repr(make_dga())
        assert "randomcut" in text and "drain-and-replenish" in text
