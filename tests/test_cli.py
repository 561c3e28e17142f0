"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


#: The operator product: the paper's Figure-2 workflow, botmeterd and
#: the cluster that scales it.  Test drills live under tests/harness.
PRODUCT_VERBS = {
    "simulate", "chart", "taxonomy", "families", "sweep", "enterprise", "report",
    "export-trace", "convert-trace", "replay", "serve", "sensor-send",
    "trace-report", "cluster-replay", "cluster-serve",
}


def test_help_lists_only_product_verbs(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    verbs = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
    assert sorted(verbs.split(",")) == sorted(PRODUCT_VERBS)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--family", "nope", "--out", "x"])

    def test_sweep_rows(self):
        args = build_parser().parse_args(["sweep", "population"])
        assert args.row == "population"


class TestCommands:
    def test_taxonomy(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "drain-and-replenish" in out and "new_goz" in out

    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "conficker_c" in out and "AS" in out

    def test_simulate_then_chart_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "obs.csv"
        assert (
            main(
                [
                    "simulate",
                    "--family", "new_goz",
                    "--bots", "24",
                    "--seed", "3",
                    "--out", str(trace),
                ]
            )
            == 0
        )
        sim_out = capsys.readouterr().out
        assert "actual active bots" in sim_out
        assert trace.exists()

        assert (
            main(
                [
                    "chart",
                    "--family", "new_goz",
                    "--estimator", "bernoulli",
                    str(trace),
                ]
            )
            == 0
        )
        chart_out = capsys.readouterr().out
        assert "landscape" in chart_out and "TOTAL" in chart_out

    def test_chart_empty_trace_fails(self, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text("timestamp,server,domain\n")
        assert main(["chart", str(trace)]) == 1

    def test_sweep_small(self, capsys, monkeypatch):
        import repro.cli as cli

        def tiny_sweep(trials, models, **kwargs):
            from repro.eval.experiments import sweep_population

            return sweep_population(values=(8,), trials=trials, models=models)

        monkeypatch.setitem(cli._SWEEPS, "population", tiny_sweep)
        assert main(["sweep", "population", "--trials", "1", "--models", "AR"]) == 0
        out = capsys.readouterr().out
        assert "AR/bernoulli" in out

    def test_enterprise_short(self, capsys):
        assert main(["enterprise", "--days", "3", "--benign-clients", "3"]) == 0
        # Three days may or may not include active waves; command still
        # renders a (possibly empty) table.
        assert "DGA" in capsys.readouterr().out
