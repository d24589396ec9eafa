"""Smoke tests for the experiment harness (figures, tables, reporting)."""

import pytest

from repro.api import run
from repro.exceptions import AlgorithmError
from repro.experiments import (
    ALGORITHMS,
    SMOKE,
    benchmark_network,
    figure3,
    figure4,
    figure5,
    figure6_blocking,
    figure6_items,
    figure6_scalability,
    figure7,
    format_table,
    get_scale,
    summarize_by,
    table2,
    table5,
    table6,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.runners import spec_for
from repro.utility.configs import two_item_config


class TestScalePresets:
    def test_get_scale_by_name(self):
        assert get_scale("smoke").name == "smoke"
        assert get_scale(None).name == "default"
        assert get_scale(SMOKE) is SMOKE

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_scale("enormous")

    def test_with_seed(self):
        scaled = SMOKE.with_seed(99)
        assert scaled.seed == 99
        assert scaled.name == SMOKE.name

    def test_network_fraction_lookup(self):
        assert SMOKE.network_fraction("nethept") == pytest.approx(0.015)
        assert SMOKE.network_fraction("unknown") is None


class TestNetworks:
    def test_benchmark_network_cached(self):
        g1 = benchmark_network("nethept", SMOKE)
        g2 = benchmark_network("nethept", SMOKE)
        assert g1 is g2

    def test_table2_rows(self):
        rows = table2(SMOKE)
        assert len(rows) == 5
        assert {row["name"] for row in rows} == {
            "nethept", "douban-book", "douban-movie", "orkut", "twitter"}
        assert all(row["nodes"] > 0 for row in rows)


class TestRunAlgorithm:
    def test_dispatch_and_record(self):
        graph = benchmark_network("nethept", SMOKE)
        model = two_item_config("C1")
        spec = spec_for("SeqGRD-NM", SMOKE, network=graph.name,
                        configuration="C1", budgets={"i": 2, "j": 2})
        record = run(spec, graph=graph, model=model, rng=1,
                     options=SMOKE.imm_options)
        assert record.algorithm == "SeqGRD-NM"
        assert record.welfare > 0
        assert record.runtime_seconds > 0
        row = record.as_row()
        assert row["configuration"] == "C1"
        assert "adopt[i]" in row

    def test_unknown_algorithm(self):
        graph = benchmark_network("nethept", SMOKE)
        model = two_item_config("C1")
        spec = spec_for("Mystery", SMOKE, network=graph.name,
                        budgets={"i": 1})
        with pytest.raises(AlgorithmError):
            run(spec, graph=graph, model=model, options=SMOKE.imm_options)

    def test_algorithm_roster(self):
        assert "SeqGRD" in ALGORITHMS and "TCIM" in ALGORITHMS


class TestFigureWorkloads:
    def test_figure3_rows(self):
        rows = figure3(SMOKE, networks=["nethept"], budgets=[2],
                       algorithms=["SeqGRD-NM", "MaxGRD"])
        assert len(rows) == 2
        assert {row["algorithm"] for row in rows} == {"SeqGRD-NM", "MaxGRD"}
        assert all(row["runtime_s"] >= 0 for row in rows)

    def test_figure4_rows(self):
        rows = figure4(SMOKE, network="nethept", configurations=["C1", "C4"],
                       algorithms=["SeqGRD-NM"], budgets=[2])
        assert len(rows) == 2
        assert {row["configuration"] for row in rows} == {"C1", "C4"}

    def test_figure5_rows(self):
        rows = figure5(SMOKE, networks=["nethept"], configurations=["C6"],
                       budgets=[2], inferior_budget=3)
        assert len(rows) == 2
        assert {row["algorithm"] for row in rows} == {"SupGRD", "SeqGRD-NM"}

    def test_figure6_items_rows(self):
        rows = figure6_items(SMOKE, network="nethept", item_counts=[1, 2],
                             algorithms=["SeqGRD-NM"], budget=2)
        assert [row["num_items"] for row in rows] == [1, 2]

    def test_figure6_blocking_rows(self):
        rows = figure6_blocking(SMOKE, network="nethept", superior_budget=4,
                                inferior_budgets=[2])
        assert len(rows) == 2
        assert {row["algorithm"] for row in rows} == {"SeqGRD", "SeqGRD-NM"}

    def test_figure6_scalability_rows(self):
        rows = figure6_scalability(SMOKE, network="nethept",
                                   fractions=[0.5, 1.0], num_items=2,
                                   budget=2)
        assert len(rows) == 4  # two fractions x two probability settings
        assert {row["configuration"] for row in rows} == {
            "weighted-cascade", "uniform-0.01"}

    def test_figure7_rows(self):
        rows = figure7(SMOKE, networks=["nethept"], algorithms=["SeqGRD-NM"],
                       budgets=[2])
        assert len(rows) == 1
        assert rows[0]["configuration"] == "lastfm"


class TestTableWorkloads:
    def test_table5(self):
        rows = table5(10_000, rng=1)
        assert len(rows) == 4
        for row in rows:
            assert abs(row["learned_utility"] - row["published_utility"]) < 0.5

    def test_table6(self):
        rows = table6(SMOKE, networks=["nethept"], budgets=[2],
                      algorithms=["Round-robin", "SeqGRD-NM"])
        assert len(rows) == 4  # 2 algorithms x 2 configurations
        seqgrd_rows = [r for r in rows if r["algorithm"] == "SeqGRD-NM"]
        assert all("welfare_change" in row for row in seqgrd_rows)


class TestReporting:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125, "c": "x"}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text and "c" in text
        assert "10" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_summarize_by(self):
        rows = [{"algo": "x", "t": 1.0}, {"algo": "x", "t": 3.0},
                {"algo": "y", "t": 10.0}]
        summary = summarize_by(rows, "algo", "t")
        assert summary == {"x": 2.0, "y": 10.0}
