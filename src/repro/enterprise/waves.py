"""Infection waves: time-varying ground-truth bot populations.

The paper's real trace shows each DGA family active over a span of months
with day-to-day population swings (Figure 7).  An
:class:`InfectionWave` models one family's lifetime in the network: a
ramp-up to a peak, a plateau with multiplicative day-to-day noise, a
decay as remediation progresses, and sporadic inactive days — all
deterministic given the wave's seed, so ground truth is reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["InfectionWave"]


@dataclass(frozen=True)
class InfectionWave:
    """One family's infection profile over the study period.

    Attributes:
        family: DGA family name (see :mod:`repro.dga.families`).
        family_seed: seed of the family's DGA instance.
        start_day: first active day index.
        end_day: last active day index (inclusive).
        peak: plateau population in bots.
        ramp_days: days to ramp from 1 to the peak (and to decay back).
        activity: probability that a day within the window is active.
        noise_sigma: lognormal σ of day-to-day population noise.
        seed: wave-local randomness seed.
    """

    family: str
    family_seed: int
    start_day: int
    end_day: int
    peak: int
    ramp_days: int = 14
    activity: float = 0.85
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.end_day < self.start_day:
            raise ValueError("end_day must be >= start_day")
        if self.peak < 1:
            raise ValueError("peak must be >= 1")
        if not 0 < self.activity <= 1:
            raise ValueError("activity must be in (0, 1]")

    def _envelope(self, day_index: int) -> float:
        """Deterministic ramp/plateau/decay shape in [0, 1]."""
        if day_index < self.start_day or day_index > self.end_day:
            return 0.0
        into = day_index - self.start_day
        remaining = self.end_day - day_index
        ramp = min(1.0, (into + 1) / max(self.ramp_days, 1))
        decay = min(1.0, (remaining + 1) / max(self.ramp_days, 1))
        return min(ramp, decay)

    def population_on(self, day_index: int) -> int:
        """Nominal active-bot population for ``day_index`` (0 if inactive).

        Deterministic per ``(family, seed, day_index)`` in every process,
        and never above :meth:`max_population`.
        """
        envelope = self._envelope(day_index)
        if envelope == 0.0:
            return 0
        rng = np.random.default_rng(
            (self.seed, day_index, zlib.crc32(self.family.encode()))
        )
        if rng.random() > self.activity:
            return 0
        noise = float(np.exp(rng.normal(0.0, self.noise_sigma)))
        population = int(round(self.peak * envelope * noise))
        return min(max(1, population), self.max_population())

    def max_population(self) -> int:
        """Upper bound on any day's population (sizes the bot pool)."""
        tail = float(np.exp(4.0 * self.noise_sigma))
        return max(self.peak, int(self.peak * tail) + 1)
