"""Query-pool models (§III-A): drain-and-replenish, sliding-window, and
multiple-mixture.

Each model turns ``(family seed, calendar day)`` into an ordered list of
domain names.  Daily batches are memoised because the simulator and the
matcher both enumerate the same pools repeatedly.
"""

from __future__ import annotations

import datetime as _dt

from .base import PoolClass, PoolModel
from .wordgen import LabelSpec, LcgBlocks, date_seed

__all__ = [
    "DrainReplenishPool",
    "SlidingWindowPool",
    "MultipleMixturePool",
]


class _BatchGenerator:
    """Generates the deterministic daily batch of domains for one DGA
    instance.

    A batch is the set of fresh domains generated on a given day; pool
    models differ in how batches are combined into the query pool.
    """

    def __init__(self, seed: int, batch_size: int, label_spec: LabelSpec, tld: str) -> None:
        if batch_size < 1:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        self._seed = seed
        self._batch_size = batch_size
        self._label_spec = label_spec
        self._tld = tld
        self._cache: dict[_dt.date, list[str]] = {}

    def batch_for(self, day: _dt.date) -> list[str]:
        cached = self._cache.get(day)
        if cached is not None:
            return cached
        # The same labels as drawing ``self._label_spec.draw(Lcg(...))``
        # one by one, generated a block of draws at a time.
        stream = LcgBlocks(date_seed(day, self._seed))
        spec = self._label_spec
        size = self._batch_size
        suffix = "." + self._tld
        seen: set[str] = set()
        batch: list[str] = []
        # Collisions between generated labels are astronomically rare but
        # would silently shrink the pool, so regenerate on duplicates: a
        # duplicate still uses up its draws.
        while len(batch) < size:
            labels, used = spec.labels(stream.draws(spec.block_draws(size - len(batch))))
            stream.consume(used)
            for label in labels:
                domain = label + suffix
                if domain not in seen:
                    seen.add(domain)
                    batch.append(domain)
                    if len(batch) == size:
                        break
        if len(self._cache) > 512:
            self._cache.clear()
        self._cache[day] = batch
        return batch


class DrainReplenishPool(PoolModel):
    """The entire pool is regenerated on a regular basis (Murofet, Srizbi,
    Conficker, GameoverZeus, ...).

    ``period_days`` > 1 models families such as Necurs whose pool rolls
    over every few days rather than daily: all days inside one period map
    to the same pool.
    """

    pool_class = PoolClass.DRAIN_REPLENISH

    def __init__(
        self,
        seed: int,
        pool_size: int,
        label_spec: LabelSpec | None = None,
        tld: str = "com",
        period_days: int = 1,
    ) -> None:
        if period_days < 1:
            raise ValueError(f"period_days must be >= 1, got {period_days}")
        self._gen = _BatchGenerator(seed, pool_size, label_spec or LabelSpec(), tld)
        self._period_days = period_days

    def _anchor(self, day: _dt.date) -> _dt.date:
        ordinal = day.toordinal()
        return _dt.date.fromordinal(ordinal - ordinal % self._period_days)

    def pool_for(self, day: _dt.date) -> list[str]:
        return list(self._gen.batch_for(self._anchor(day)))

    def useful_pool_for(self, day: _dt.date) -> list[str]:
        return self.pool_for(day)


class SlidingWindowPool(PoolModel):
    """A window of daily batches slides over time (Ranbyus, PushDo).

    ``days_back``/``days_forward`` bound the window relative to the
    current day; e.g. PushDo keeps −30..+15 days of 30 domains per day for
    a pool of 1,380 domains, Ranbyus keeps the past 30 days of 40 domains
    plus today's for a pool of 1,240.
    """

    pool_class = PoolClass.SLIDING_WINDOW

    def __init__(
        self,
        seed: int,
        daily_batch: int,
        days_back: int,
        days_forward: int = 0,
        label_spec: LabelSpec | None = None,
        tld: str = "com",
    ) -> None:
        if days_back < 0 or days_forward < 0:
            raise ValueError("window extents must be non-negative")
        self._gen = _BatchGenerator(seed, daily_batch, label_spec or LabelSpec(), tld)
        self._days_back = days_back
        self._days_forward = days_forward

    @property
    def window_days(self) -> int:
        """Number of daily batches in the pool."""
        return self._days_back + self._days_forward + 1

    def pool_for(self, day: _dt.date) -> list[str]:
        pool: list[str] = []
        for offset in range(-self._days_back, self._days_forward + 1):
            pool.extend(self._gen.batch_for(day + _dt.timedelta(days=offset)))
        return pool

    def useful_pool_for(self, day: _dt.date) -> list[str]:
        return self.pool_for(day)


class MultipleMixturePool(PoolModel):
    """Several identical DGA instances with different seeds interleaved
    (Pykspa): one instance generates useful domains, the others noise.

    Only the useful instance's domains are eligible for registration, but
    bots query the interleaved mixture, inflating the NXD stream seen by
    defenders.
    """

    pool_class = PoolClass.MULTIPLE_MIXTURE

    def __init__(
        self,
        seed: int,
        useful_size: int,
        noise_sizes: tuple[int, ...],
        label_spec: LabelSpec | None = None,
        tld: str = "com",
    ) -> None:
        if not noise_sizes:
            raise ValueError("multiple-mixture pool needs at least one noise instance")
        spec = label_spec or LabelSpec()
        self._useful = _BatchGenerator(seed, useful_size, spec, tld)
        self._noise = [
            _BatchGenerator(seed ^ (0xA5A5A5A5 + 0x1000003 * (i + 1)), size, spec, tld)
            for i, size in enumerate(noise_sizes)
        ]

    def pool_for(self, day: _dt.date) -> list[str]:
        streams = [self._useful.batch_for(day)] + [g.batch_for(day) for g in self._noise]
        pool: list[str] = []
        # Round-robin interleave so useful and noisy domains alternate in
        # the generation order, as observed for Pykspa.
        cursors = [0] * len(streams)
        remaining = sum(len(s) for s in streams)
        while remaining:
            for i, stream in enumerate(streams):
                if cursors[i] < len(stream):
                    pool.append(stream[cursors[i]])
                    cursors[i] += 1
                    remaining -= 1
        return pool

    def useful_pool_for(self, day: _dt.date) -> list[str]:
        return list(self._useful.batch_for(day))
