"""The Faultline soak, at test scale.

`run_soak` itself asserts the four soak properties (survival, exact
accounting, bounded degradation, determinism) and raises `SoakFailure`
on any violation — so the main test here is simply that a seeded
multi-family run through the full default fault mix comes back green,
plus checks that the report carries what CI wants to archive.
"""

import json

import pytest

from tests.harness.soak import (
    DEFAULT_FAULTS,
    SoakConfig,
    SoakFailure,
    build_soak_trace,
    run_soak,
)

#: Small but busy: every fault class fires at test scale, hard faults
#: included (higher rates than the default so ~4k records still restart).
TEST_FAULTS = (
    "seed=11,corrupt=0.01,truncate=0.004,dup=0.02,drop=0.008:3,"
    "reorder=0.004:256,skew=0.006:2000,stall=0.001,crash=0.001"
)


def small_config(workdir, **overrides):
    overrides.setdefault("bots", 4)
    overrides.setdefault("days", 2)
    overrides.setdefault("faults", TEST_FAULTS)
    return SoakConfig(workdir=workdir, **overrides)


@pytest.fixture(scope="module")
def soak_report(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("soak")
    report = run_soak(small_config(workdir))
    return workdir, report


class TestRunSoak:
    def test_soak_passes_and_is_deterministic(self, soak_report):
        _workdir, report = soak_report
        assert report.deterministic is True
        assert report.records > 1000
        assert report.clean_epochs == 4  # 2 families x 2 days

    def test_hard_faults_were_exercised_and_survived(self, soak_report):
        _workdir, report = soak_report
        run = report.runs[0]
        assert run["exit_code"] == 0
        assert run["restarts"] == len(run["disarmed"]) > 0
        assert run["ledger"]["crashes"] == 0 and run["ledger"]["stalls"] == 0
        assert run["ledger"]["disarmed"] >= len(run["disarmed"])

    def test_every_fault_class_fired(self, soak_report):
        _workdir, report = soak_report
        ledger = report.runs[0]["ledger"]
        for kind in ("dropped", "corrupted", "truncated", "duplicated",
                     "reordered", "skewed"):
            assert ledger[kind] > 0, f"{kind} never fired at test scale"

    def test_report_is_json_ready(self, soak_report):
        workdir, report = soak_report
        document = json.loads((workdir / "report.json").read_text())
        assert document == json.loads(json.dumps(report.to_dict()))
        assert document["deterministic"] is True
        assert len(document["runs"]) == 2
        assert document["max_deviation"] <= document["max_allowed"]

    def test_quality_annotations_reach_the_output(self, soak_report):
        workdir, _report = soak_report
        rows = [
            json.loads(line)
            for line in (workdir / "run0" / "landscapes.ndjson")
            .read_text()
            .splitlines()
        ]
        assert rows and all("quality" in row for row in rows)
        assert sum(row["quality"]["quarantined"] for row in rows) > 0

    def test_clean_run_quality_is_all_zero_loss(self, soak_report):
        workdir, _report = soak_report
        rows = [
            json.loads(line)
            for line in (workdir / "clean.ndjson").read_text().splitlines()
        ]
        assert rows
        for row in rows:
            assert row["quality"]["loss"] == 0.0
            assert row["quality"]["quarantined"] == 0


class TestSoakFailure:
    def test_impossible_bound_trips_the_soak(self, tmp_path):
        config = small_config(
            tmp_path, runs=1, bound_factor=0.0, bound_slack=0.0
        )
        with pytest.raises(SoakFailure):
            run_soak(config)


class TestBuildTrace:
    def test_trace_is_deterministic(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        path_a, n_a = build_soak_trace(small_config(tmp_path / "a"))
        path_b, n_b = build_soak_trace(small_config(tmp_path / "b"))
        assert n_a == n_b
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_header_declares_every_family(self, tmp_path):
        path, _n = build_soak_trace(small_config(tmp_path))
        header = json.loads(path.read_text().splitlines()[0])
        assert [f["name"] for f in header["families"]] == ["murofet", "new_goz"]


class TestSoakCli:
    def test_faults_soak_verb_writes_report(self, tmp_path, capsys):
        # The `soak` row of the drill runner, with the fixed arguments
        # `make soak` uses: exit code 0 and a report.json in the workdir.
        from tests.harness.__main__ import main as harness_main

        code = harness_main(["soak", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        document = json.loads((tmp_path / "report.json").read_text())
        assert document["deterministic"] is True
        assert len(document["runs"]) == 2

    def test_default_faults_spec_parses(self):
        from repro.service.faults import parse_fault_spec

        spec = parse_fault_spec(DEFAULT_FAULTS)
        assert 0 < spec.total_rate <= 1
