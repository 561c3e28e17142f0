"""Performance micro-benchmarks of the hot paths.

Unlike the reproduction benches (run once, print paper numbers), these
use pytest-benchmark's statistics properly: they time the operations a
deployment exercises continuously — cache lookups, matching, estimator
latency — so regressions are visible across commits.
"""

import datetime as dt
import time

import numpy as np

from repro.core.bernoulli import BernoulliEstimator
from repro.core.botmeter import BotMeter
from repro.core.combinatorics import barrel_consumption_pmf, segment_validity_curve
from repro.core.matcher import DgaDomainMatcher
from repro.core.renewal import RenewalEstimator
from repro.dga.families import make_family
from repro.dns.cache import DnsCache
from repro.dns.message import ForwardedLookup, RCode
from repro.sim import SimConfig, simulate

DAY = dt.date(2014, 5, 1)


def test_perf_cache_hit_path(benchmark):
    cache = DnsCache()
    for i in range(10_000):
        cache.put(f"d{i}.com", RCode.NXDOMAIN, 0.0, 1e9)

    def hits():
        for i in range(0, 10_000, 97):
            cache.get(f"d{i}.com", 1.0)

    benchmark(hits)


def test_perf_cache_insert_path(benchmark):
    def inserts():
        cache = DnsCache()
        for i in range(2_000):
            cache.put(f"d{i}.com", RCode.NXDOMAIN, float(i), 100.0)

    benchmark(inserts)


def test_perf_pool_generation(benchmark):
    dga = make_family("new_goz", 7)
    days = [DAY + dt.timedelta(days=i) for i in range(200)]

    def generate():
        # Uncached generation: a fresh day each call round-robins the list.
        day = days[generate.counter % len(days)]
        generate.counter += 1
        return dga.pool_model.pool_for(day)

    generate.counter = 0
    benchmark(generate)


def test_perf_matcher_throughput(benchmark):
    dga = make_family("new_goz", 7)
    nxds = frozenset(dga.nxdomains(DAY))
    matcher = DgaDomainMatcher({0: nxds})
    some_nxds = list(nxds)[:50]
    records = [
        ForwardedLookup(float(i), "s", some_nxds[i % 50] if i % 3 else "benign.example")
        for i in range(5_000)
    ]
    benchmark(matcher.match, records)


def test_perf_eqn2_pmf(benchmark):
    benchmark(barrel_consumption_pmf, 5, 9995, 500)


def test_perf_segment_validity_curve(benchmark):
    benchmark(segment_validity_curve, 700, 500, 60, True)


def test_perf_kernel_cache_warm_path():
    """A second same-family estimator build must hit the kernel memo:
    the warm pass has to be at least 10x faster than the cold one."""
    from repro.core import combinatorics

    dga = make_family("new_goz", 7)
    p = dga.params

    def build_kernels():
        barrel_consumption_pmf(p.n_registered, p.n_nxd, p.barrel_size)
        segment_validity_curve(700, p.barrel_size, 60, True)
        segment_validity_curve(350, p.barrel_size, 60, False)

    for kernel in (
        barrel_consumption_pmf,
        combinatorics.log_gap_subset_table,
        segment_validity_curve,
    ):
        kernel.cache_clear()
    combinatorics._OCCUPANCY.clear()
    start = time.perf_counter()
    build_kernels()
    cold = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(10):
        build_kernels()
    warm = (time.perf_counter() - start) / 10

    print(f"\nkernel warm path: cold={cold * 1e3:.2f}ms warm={warm * 1e6:.1f}us")
    assert warm * 10 < cold, (
        f"warm kernel path only {cold / warm:.1f}x faster than cold "
        f"({cold * 1e3:.2f}ms vs {warm * 1e3:.4f}ms)"
    )


def _observable(seed=77):
    run = simulate(SimConfig(family="new_goz", n_bots=48, seed=seed))
    return run


def test_perf_bernoulli_end_to_end(benchmark):
    run = _observable()
    meter = BotMeter(
        run.dga, estimator=BernoulliEstimator(), timeline=run.timeline
    )
    benchmark(meter.chart, run.observable, 0.0, 86_400.0)


def test_perf_renewal_end_to_end(benchmark):
    run = _observable()
    meter = BotMeter(run.dga, estimator=RenewalEstimator(), timeline=run.timeline)
    benchmark(meter.chart, run.observable, 0.0, 86_400.0)
