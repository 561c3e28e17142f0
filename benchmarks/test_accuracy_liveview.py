"""Liveview accuracy-regression tier: ``BENCH_accuracy.json``.

Three measured-accuracy anchors, merged into one ``repro-perf-v1``
artifact so ``benchmarks/summary.py`` and the CI ``liveview-smoke`` smoke row
can archive them together:

* **Lexical D3 on the committed training fixture** — per-family
  true-positive rate and benign false-positive rate on *held-out* data
  (golden seed 7, dates past the fixture's training window).  Strict
  floors pin the classifier: overall TPR >= 0.80, FPR <= 0.10.
* **DoH-corrected vs uncorrected interval coverage** — repeated sims
  with 25% encrypted-DNS adoption; the MP Gamma interval over the
  *visible* stream is compared against the full ground truth before
  and after the ``doh_loss``-driven correction (bounds scaled by
  ``1/(1-loss)`` and widened via ``widen_for_loss``, the quality
  annotation's documented reader contract).  Correction must recover
  most of the lost coverage.
* **Takedown handoff lag** — replay the committed re-key campaign with
  the lexical D3 inline; the re-keyed family must appear on the chart
  within one epoch of the trace header's handoff day.

Floors are assertions only under ``REPRO_PERF_STRICT=1`` (CI);
elsewhere the artifact is advisory, like every other perf suite.
"""

from __future__ import annotations

import datetime as dt
import json
import os
from pathlib import Path

from repro.core.botmeter import BotMeter
from repro.core.confidence import ConfidenceInterval, poisson_interval, widen_for_loss
from repro.core.poisson import PoissonEstimator
from repro.dga.families import make_family
from repro.service.daemon import BotMeterDaemon
from repro.service.liveview import build_lexical_detector, load_training_fixture
from repro.sim import SimConfig, simulate
from repro.timebase import SECONDS_PER_DAY

STRICT = os.environ.get("REPRO_PERF_STRICT") == "1"
GOLDEN_REKEY = Path(__file__).resolve().parents[1] / "tests" / "golden" / "liveview_rekey"

TPR_FLOOR = 0.80
FPR_CEILING = 0.10
COVERAGE_RECOVERY_FLOOR = 0.30  # corrected - uncorrected coverage
CORRECTED_COVERAGE_FLOOR = 0.60
HANDOFF_LAG_CEILING = 1  # epochs

DOH_ADOPTION = 0.25
DOH_TRIALS = 12
LEVEL = 0.9

HELD_OUT_SEED = 7  # every fixture family trains on other seeds
HELD_OUT_DATES = (dt.date(2014, 5, 3), dt.date(2014, 5, 4))


def artifact_path(tmp_path: Path) -> Path:
    root = os.environ.get("REPRO_PERF_DIR")
    directory = Path(root) if root else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    return directory / "BENCH_accuracy.json"


def merge_artifact(path: Path, section: str, payload: dict) -> dict:
    """Read-merge-write: the three tests share one artifact file."""
    document = {"schema": "repro-perf-v1", "cpu_count": os.cpu_count()}
    if path.exists():
        document.update(json.loads(path.read_text()))
    document[section] = payload
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nperf artifact: {path}")
    print(json.dumps({section: payload}, indent=2, sort_keys=True))
    return document


def test_accuracy_lexical_fixture_rates(tmp_path):
    detector = build_lexical_detector()
    benign_train, dga_train = load_training_fixture()
    trained = set(benign_train) | set(dga_train)

    per_family = {}
    for family in ("new_goz", "murofet", "qakbot", "ramnit"):
        dga = make_family(family, HELD_OUT_SEED)
        held_out = sorted(
            {d for date in HELD_OUT_DATES for d in dga.nxdomains(date)} - trained
        )[:400]
        detected = detector.detect(held_out)
        per_family[family] = round(len(detected) / len(held_out), 4)

    held_out_benign = [f"site{i:05d}.example" for i in range(301, 900, 3)] + [
        "university.edu", "newspaper.com", "projects.org", "calendar.com",
        "pictures.net", "library.org", "kitchen.com", "garden.net",
        "mountain.org", "winter.com", "coffee.net", "stories.org",
    ]
    held_out_benign = [d for d in held_out_benign if d not in trained]
    false_positives = detector.detect(held_out_benign)

    tpr = round(sum(per_family.values()) / len(per_family), 4)
    fpr = round(len(false_positives) / len(held_out_benign), 4)
    payload = {
        "true_positive_rate": tpr,
        "false_positive_rate": fpr,
        "per_family_tpr": per_family,
        "held_out_seed": HELD_OUT_SEED,
        "tpr_floor": TPR_FLOOR,
        "fpr_ceiling": FPR_CEILING,
    }
    merge_artifact(artifact_path(tmp_path), "lexical_fixture", payload)
    if STRICT:
        assert tpr >= TPR_FLOOR, f"lexical TPR {tpr} under floor {TPR_FLOOR}"
        assert fpr <= FPR_CEILING, f"lexical FPR {fpr} over ceiling {FPR_CEILING}"
        assert min(per_family.values()) >= 0.5, per_family


def _doh_intervals(seed: int):
    """One trial: (uncorrected interval, corrected interval, truth)."""
    run = simulate(
        SimConfig(
            family="murofet",
            n_bots=32,
            seed=seed,
            doh_adoption=DOH_ADOPTION,
        )
    )
    meter = BotMeter(run.dga, estimator=PoissonEstimator(), timeline=run.timeline)
    landscape = meter.chart(run.observable, 0.0, SECONDS_PER_DAY)
    stats = landscape.per_server["ldns-000"].details["epoch_stats"][0]
    uncorrected = poisson_interval(
        stats["visible_activations"], stats["exposure"], stats["window"], LEVEL
    )
    # The reader contract for a ``doh_loss`` quality annotation: the
    # visible-population bounds scale by 1/(1-loss) (thinned-Poisson
    # inversion), then widen_for_loss adds slack for the adoption
    # estimate itself being approximate.
    scale = 1.0 / (1.0 - DOH_ADOPTION)
    corrected = widen_for_loss(
        ConfidenceInterval(
            low=uncorrected.low * scale,
            point=uncorrected.point * scale,
            high=uncorrected.high * scale,
            level=LEVEL,
        ),
        DOH_ADOPTION,
    )
    truth = run.ground_truth.population(0)
    return uncorrected, corrected, truth


def test_accuracy_doh_corrected_interval_coverage(tmp_path):
    uncovered = covered = 0
    for seed in range(DOH_TRIALS):
        uncorrected, corrected, truth = _doh_intervals(seed)
        uncovered += uncorrected.contains(truth)
        covered += corrected.contains(truth)
    uncorrected_cov = round(uncovered / DOH_TRIALS, 4)
    corrected_cov = round(covered / DOH_TRIALS, 4)
    payload = {
        "doh_adoption": DOH_ADOPTION,
        "trials": DOH_TRIALS,
        "uncorrected_coverage": uncorrected_cov,
        "corrected_coverage": corrected_cov,
        "recovery_floor": COVERAGE_RECOVERY_FLOOR,
        "corrected_floor": CORRECTED_COVERAGE_FLOOR,
    }
    merge_artifact(artifact_path(tmp_path), "doh_coverage", payload)
    if STRICT:
        assert corrected_cov >= CORRECTED_COVERAGE_FLOOR, payload
        assert corrected_cov - uncorrected_cov >= COVERAGE_RECOVERY_FLOOR, payload


def test_accuracy_takedown_handoff_lag(tmp_path):
    header = json.loads(
        (GOLDEN_REKEY / "trace.ndjson").read_bytes().splitlines()[0]
    )
    out = tmp_path / "rekey.landscape.ndjson"
    daemon = BotMeterDaemon(
        GOLDEN_REKEY / "trace.ndjson",
        out_path=out,
        follow=False,
        batch_lines=256,
        d3="lexical",
    )
    assert daemon.run() == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    rekey_family = header["rekey"]["family"]
    first_charted = min(
        r["epoch"] for r in rows if r["family"] == rekey_family and r["total"] > 0
    )
    lag = first_charted - header["rekey"]["handoff_day"]
    miss_rate = max(r["quality"]["d3_miss_rate"] for r in rows)
    payload = {
        "rekey_family": rekey_family,
        "handoff_day": header["rekey"]["handoff_day"],
        "first_charted_epoch": first_charted,
        "handoff_lag_epochs": lag,
        "lag_ceiling": HANDOFF_LAG_CEILING,
        "measured_d3_miss_rate": miss_rate,
    }
    merge_artifact(artifact_path(tmp_path), "takedown_handoff", payload)
    if STRICT:
        assert 0 <= lag <= HANDOFF_LAG_CEILING, payload
        assert 0 < miss_rate < 0.5, payload
