"""Tests for the enterprise trace substitute (§V-B)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enterprise.trace_gen import (
    DayObservation,
    EnterpriseConfig,
    EnterpriseTraceGenerator,
    default_waves,
)
from repro.enterprise.waves import InfectionWave
from repro.timebase import SECONDS_PER_DAY

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def small_config(**overrides):
    defaults = dict(
        n_days=4,
        waves=(
            InfectionWave("new_goz", 11, 1, 3, peak=8, ramp_days=1, activity=1.0, seed=1),
            InfectionWave("qakbot", 17, 0, 3, peak=5, ramp_days=1, activity=1.0, seed=2),
        ),
        n_benign_clients=5,
        seed=3,
    )
    defaults.update(overrides)
    return EnterpriseConfig(**defaults)


class TestInfectionWave:
    def test_inactive_outside_window(self):
        wave = InfectionWave("new_goz", 1, 10, 20, peak=10)
        assert wave.population_on(5) == 0
        assert wave.population_on(25) == 0

    def test_active_inside_window(self):
        wave = InfectionWave("new_goz", 1, 10, 40, peak=10, ramp_days=2, activity=1.0)
        assert wave.population_on(25) >= 1

    def test_ramp_grows(self):
        wave = InfectionWave(
            "new_goz", 1, 0, 100, peak=50, ramp_days=20, activity=1.0, noise_sigma=0.0
        )
        assert wave.population_on(1) < wave.population_on(19)

    def test_decay_shrinks(self):
        wave = InfectionWave(
            "new_goz", 1, 0, 100, peak=50, ramp_days=20, activity=1.0, noise_sigma=0.0
        )
        assert wave.population_on(99) < wave.population_on(50)

    def test_deterministic(self):
        wave = InfectionWave("new_goz", 1, 0, 10, peak=10, seed=4)
        assert wave.population_on(5) == wave.population_on(5)

    def test_activity_gaps(self):
        wave = InfectionWave("new_goz", 1, 0, 200, peak=10, activity=0.5, seed=4)
        values = [wave.population_on(d) for d in range(30, 170)]
        assert values.count(0) > 20

    def test_max_population_bounds_daily_values(self):
        wave = InfectionWave("new_goz", 1, 0, 300, peak=15, seed=5)
        bound = wave.max_population()
        assert all(wave.population_on(d) <= bound for d in range(300))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        peak=st.integers(1, 500),
        noise_sigma=st.floats(0.0, 3.0),
    )
    def test_max_population_bounds_every_seed(self, seed, peak, noise_sigma):
        wave = InfectionWave(
            "ramnit", 2, 0, 60, peak=peak, ramp_days=3, activity=1.0,
            noise_sigma=noise_sigma, seed=seed,
        )
        bound = wave.max_population()
        assert all(wave.population_on(d) <= bound for d in range(61))

    def test_series_is_the_same_in_every_process(self):
        """The daily series may not depend on ``PYTHONHASHSEED``."""
        code = (
            "from repro.enterprise.waves import InfectionWave\n"
            "wave = InfectionWave('new_goz', 1, 0, 300, peak=15, seed=5)\n"
            "print([wave.population_on(d) for d in range(300)])\n"
        )
        series = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": REPO_SRC, "PYTHONHASHSEED": hashseed},
                capture_output=True, text=True, check=True,
            ).stdout
            for hashseed in ("0", "31")
        ]
        assert series[0] == series[1]
        assert any(int(v) for v in series[0].strip("[]\n").split(","))

    def test_validation(self):
        with pytest.raises(ValueError):
            InfectionWave("x", 1, 10, 5, peak=10)
        with pytest.raises(ValueError):
            InfectionWave("x", 1, 0, 5, peak=0)
        with pytest.raises(ValueError):
            InfectionWave("x", 1, 0, 5, peak=3, activity=0.0)

    def test_default_waves_cover_paper_families(self):
        families = {w.family for w in default_waves()}
        assert families == {"new_goz", "ramnit", "qakbot"}


class TestEnterpriseConfigValidation:
    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            small_config(n_days=0)

    def test_rejects_empty_waves(self):
        with pytest.raises(ValueError):
            small_config(waves=())

    def test_rejects_bad_duplicate_rate(self):
        with pytest.raises(ValueError):
            small_config(duplicate_rate=2.0)


class TestEnterpriseTraceGenerator:
    def test_yields_one_observation_per_day(self):
        days = list(EnterpriseTraceGenerator(small_config()).days())
        assert len(days) == 4
        assert all(isinstance(d, DayObservation) for d in days)

    def test_ground_truth_within_wave_bounds(self):
        config = small_config()
        for day in EnterpriseTraceGenerator(config).days():
            for wave in config.waves:
                if day.day_index < wave.start_day or day.day_index > wave.end_day:
                    assert day.actual[wave.family] == 0

    def test_observable_timestamps_in_day(self):
        for day in EnterpriseTraceGenerator(small_config()).days():
            lo = day.day_index * SECONDS_PER_DAY
            hi = lo + SECONDS_PER_DAY + 3_600  # small spillover allowed
            assert all(lo <= r.timestamp < hi for r in day.observable)

    def test_one_second_timestamps(self):
        for day in EnterpriseTraceGenerator(small_config(duplicate_rate=0.0)).days():
            assert all(float(r.timestamp).is_integer() for r in day.observable)

    def test_deterministic(self):
        a = [d.observable for d in EnterpriseTraceGenerator(small_config()).days()]
        b = [d.observable for d in EnterpriseTraceGenerator(small_config()).days()]
        assert a == b

    def test_duplicates_increase_volume(self):
        quiet = sum(
            len(d.observable)
            for d in EnterpriseTraceGenerator(small_config(duplicate_rate=0.0)).days()
        )
        noisy = sum(
            len(d.observable)
            for d in EnterpriseTraceGenerator(small_config(duplicate_rate=0.5)).days()
        )
        assert noisy > quiet * 1.2

    def test_raw_matched_counts_positive_on_active_days(self):
        for day in EnterpriseTraceGenerator(small_config()).days():
            for family, actual in day.actual.items():
                if actual > 0:
                    assert day.raw_matched[family] > 0

    def test_multiple_families_share_one_stream(self):
        generator = EnterpriseTraceGenerator(small_config())
        day = list(generator.days())[2]
        nxd_sets = {
            family: set(dga.nxdomains(day.date))
            for family, dga in generator.dgas.items()
        }
        seen = {family: 0 for family in nxd_sets}
        for record in day.observable:
            for family, nxds in nxd_sets.items():
                if record.domain in nxds:
                    seen[family] += 1
        assert all(count > 0 for count in seen.values())
