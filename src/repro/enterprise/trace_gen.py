"""Synthetic year-long enterprise DNS trace (real-data substitute, §V-B).

The paper evaluates BotMeter on a proprietary one-year trace from a local
DNS server resolving for >22.5K IPs (15K active/day).  That trace is not
available, so this module synthesises the closest equivalent that
exercises the same code paths:

* one local caching DNS server forwarding to a border server (the paper's
  observable dataset omits the forwarding-server field because there is
  only one local server);
* benign Zipf/diurnal background traffic from a configurable client
  sample (scaled down from 15K clients for tractability — the estimators
  only consume *matched* lookups, so benign volume affects realism of
  caching and collision noise, not the estimation maths);
* three concurrent infection waves — newGoZ (AR), Ramnit (AU),
  Qakbot (AU) — with time-varying daily populations;
* 1-second timestamp granularity, as in the paper's collection
  infrastructure.

Generation is *streaming*: one :class:`DayObservation` at a time, so a
full year never has to be held in memory.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..dga.base import Dga
from ..dga.families import make_family
from ..dns.authority import RegistrationAuthority
from ..dns.hierarchy import DnsHierarchy
from ..dns.message import ForwardedLookup
from ..sim.benign import BenignConfig, BenignTrafficModel
from ..sim.bots import Bot
from ..sim.trace import sort_raw
from ..timebase import SECONDS_PER_DAY, Timeline
from .waves import InfectionWave

__all__ = ["EnterpriseConfig", "DayObservation", "EnterpriseTraceGenerator", "default_waves"]


def default_waves() -> tuple[InfectionWave, ...]:
    """The three §V-B families, timed to echo Figure 7.

    Day indices are relative to the study origin 2014-05-01: Qakbot
    surfaces in late June, Ramnit in July, newGoZ in September.
    """
    return (
        InfectionWave("new_goz", family_seed=11, start_day=134, end_day=201, peak=30, seed=1),
        InfectionWave("ramnit", family_seed=13, start_day=67, end_day=147, peak=22, seed=2),
        InfectionWave("qakbot", family_seed=17, start_day=54, end_day=201, peak=12, seed=3),
    )


@dataclass(frozen=True)
class EnterpriseConfig:
    """Shape of the synthetic enterprise study."""

    n_days: int = 365
    origin: _dt.date = _dt.date(2014, 5, 1)
    seed: int = 0
    waves: tuple[InfectionWave, ...] = field(default_factory=default_waves)
    n_benign_clients: int = 80
    benign: BenignConfig = field(
        default_factory=lambda: BenignConfig(
            n_domains=2_000, lookups_per_client_per_day=200.0
        )
    )
    timestamp_granularity: float = 1.0
    negative_ttl: float = 7_200.0
    positive_ttl: float = 86_400.0
    #: Probability that a forwarded lookup appears twice at the vantage
    #: point (dual A/AAAA queries and resolver retries — ubiquitous in
    #: real traces).  Duplicates repeat the same domain within seconds,
    #: which is precisely what degrades MT on real data (§V-B): its
    #: heuristic #1 attributes the repeat to a *new* bot.
    duplicate_rate: float = 0.25
    #: Fraction of each wave's bots that sit behind shared NAT gateways
    #: (groups of :attr:`nat_group_size` share one source IP).  The
    #: paper's ground truth counts *distinct client IPs* (footnote 4),
    #: which under-counts NATed bots; setting this non-zero makes the
    #: IP-based and bot-based ground truths diverge so that bias can be
    #: studied.
    nat_share: float = 0.0
    nat_group_size: int = 4
    #: Fraction of each wave's bot pool that resolves over encrypted DNS
    #: (DoH/DoT) and so never appears at the local-resolver vantage.
    #: Adopters still activate, still count in ``actual``/``raw_matched``
    #: — they are real bots the border simply cannot see, the §PAPERS.md
    #: encrypted-queries visibility-loss scenario.
    doh_adoption: float = 0.0

    def __post_init__(self) -> None:
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        if not self.waves:
            raise ValueError("need at least one infection wave")
        if self.n_benign_clients < 0:
            raise ValueError("n_benign_clients must be >= 0")
        if not 0 <= self.duplicate_rate <= 1:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if not 0 <= self.nat_share <= 1:
            raise ValueError("nat_share must be in [0, 1]")
        if self.nat_group_size < 2:
            raise ValueError("nat_group_size must be >= 2")
        if not 0 <= self.doh_adoption <= 1:
            raise ValueError("doh_adoption must be in [0, 1]")


@dataclass
class DayObservation:
    """One day of the study: the vantage-point stream plus ground truth.

    Two ground truths are kept: ``actual`` counts active *bots* (device
    instances) while ``actual_ips`` counts distinct client IPs in the raw
    stream — the paper's methodology.  They coincide unless NAT sharing
    is configured.
    """

    day_index: int
    date: _dt.date
    observable: list[ForwardedLookup]
    actual: dict[str, int]  # family -> active bots
    raw_matched: dict[str, int]  # family -> raw (pre-cache) matched lookups
    actual_ips: dict[str, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.actual_ips is None:
            self.actual_ips = dict(self.actual)


class EnterpriseTraceGenerator:
    """Streams the synthetic enterprise trace day by day."""

    def __init__(self, config: EnterpriseConfig) -> None:
        self.config = config
        self.timeline = Timeline(config.origin)
        self._rng = np.random.default_rng(config.seed)

        self.dgas: dict[str, Dga] = {}
        self._bot_pools: dict[str, list[Bot]] = {}
        authority_benign: list[str] = []

        self._benign_model = (
            BenignTrafficModel(config.benign, self._rng)
            if config.n_benign_clients > 0
            else None
        )
        if self._benign_model is not None:
            authority_benign = self._benign_model.catalogue

        self.authority = RegistrationAuthority(
            benign=authority_benign,
            positive_ttl=config.positive_ttl,
            negative_ttl=config.negative_ttl,
        )
        for wave in config.waves:
            dga = make_family(wave.family, wave.family_seed)
            self.dgas[wave.family] = dga
            self.authority.add_registration_provider(dga.registered)
            pool_size = wave.max_population()
            n_natted = int(round(config.nat_share * pool_size))
            bots = []
            for i in range(pool_size):
                if i < n_natted:
                    gateway = i // config.nat_group_size
                    client = f"10.9.{gateway // 250}.{gateway % 250}-nat-{wave.family}"
                else:
                    client = f"10.1.{i // 250}.{i % 250}-{wave.family}"
                bots.append(Bot(i, client, dga, salt=config.seed))
            self._bot_pools[wave.family] = bots

        self.hierarchy = DnsHierarchy(
            self.authority,
            n_local_servers=1,
            timeline=self.timeline,
            timestamp_granularity=config.timestamp_granularity,
            negative_ttl=config.negative_ttl,
            positive_ttl=config.positive_ttl,
        )
        self._server_id = self.hierarchy.server_ids[0]
        self._benign_clients = [
            f"10.0.{i // 250}.{i % 250}" for i in range(config.n_benign_clients)
        ]
        # Encrypted-DNS adopters: the last ``round(adoption * pool)``
        # bots of each wave (the non-NATted tail, so one adopter does
        # not silently hide a whole NAT gateway).  Deterministic and
        # RNG-free: a zero-adoption config reproduces the historical
        # stream bit-exactly.
        self._doh_clients: set[str] = set()
        if config.doh_adoption > 0:
            for wave in config.waves:
                pool = self._bot_pools[wave.family]
                k = int(round(config.doh_adoption * len(pool)))
                self._doh_clients.update(
                    bot.client_id for bot in pool[len(pool) - k :]
                )

    def _day_nxd_sets(self, date: _dt.date) -> dict[str, frozenset[str]]:
        return {
            family: dga.window(date)
            for family, dga in self.dgas.items()
        }

    def days(self) -> Iterator[DayObservation]:
        """Generate the study day by day (caches persist across days)."""
        config = self.config
        for day_index in range(config.n_days):
            date = self.timeline.date_for_day(day_index)
            day_start = self.timeline.start_of_day(day_index)
            valid = self.authority.valid_on(date)

            lookups = []
            actual: dict[str, int] = {}
            actual_ips: dict[str, int] = {}
            for wave in config.waves:
                population = wave.population_on(day_index)
                actual[wave.family] = 0
                actual_ips[wave.family] = 0
                if population == 0:
                    continue
                pool = self._bot_pools[wave.family]
                population = min(population, len(pool))
                chosen = self._rng.choice(len(pool), size=population, replace=False)
                offsets = np.sort(self._rng.uniform(0, SECONDS_PER_DAY, size=population))
                active = 0
                active_ips: set[str] = set()
                for bot_idx, offset in zip(chosen, offsets):
                    bot = pool[int(bot_idx)]
                    train = bot.activate(
                        date, day_start + float(offset), valid, self._rng
                    )
                    if train:
                        lookups.extend(train)
                        active += 1
                        active_ips.add(bot.client_id)
                actual[wave.family] = active
                actual_ips[wave.family] = len(active_ips)

            if self._benign_model is not None and self._benign_clients:
                lookups.extend(
                    self._benign_model.day_lookups(self._benign_clients, day_start)
                )

            nxd_sets = self._day_nxd_sets(date)
            raw_matched = {family: 0 for family in self.dgas}
            for lookup in lookups:
                for family, nxds in nxd_sets.items():
                    if lookup.domain in nxds:
                        raw_matched[family] += 1
                        break

            for lookup in sort_raw(lookups):
                if lookup.client in self._doh_clients:
                    continue  # encrypted: invisible at this vantage
                self.hierarchy.lookup(lookup.client, lookup.domain, lookup.timestamp)
            observable = self.hierarchy.drain_observed()
            if config.duplicate_rate > 0 and observable:
                dup_mask = self._rng.random(len(observable)) < config.duplicate_rate
                extra = [
                    ForwardedLookup(
                        r.timestamp + float(self._rng.integers(0, 3)),
                        r.server,
                        r.domain,
                    )
                    for r, dup in zip(observable, dup_mask)
                    if dup
                ]
                observable.extend(extra)
            observable.sort(key=lambda r: (r.timestamp, r.domain))
            yield DayObservation(
                day_index, date, observable, actual, raw_matched, actual_ips
            )
