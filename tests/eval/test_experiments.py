"""Tests for the per-figure experiment drivers and reporting.

These run at a reduced scale, so they assert *structural* facts (series
present, paper data wired correctly, pricing identities) rather than the
full-scale shape targets, which live in ``benchmarks/``.
"""

import pytest

from repro.eval import paper_data
from repro.eval.experiments import (
    ALL_FIGURES,
    PAPER_LATENCIES,
    SLOW_CRYPTO_LATENCIES,
    figure3,
    figure5,
    figure8,
    figure9,
    figure10,
    plan_jobs,
)
from repro.eval.pipeline import SimulationScale
from repro.eval.report import format_figure, format_summary
from repro.eval.scheduler import run_jobs

_SCALE = SimulationScale(warmup_refs=60_000, measure_refs=60_000)


@pytest.fixture(scope="module")
def events():
    return run_jobs(plan_jobs(scale=_SCALE))


class TestPaperData:
    def test_figure3_average(self):
        values = list(paper_data.FIGURE3_XOM.values())
        assert sum(values) / len(values) == pytest.approx(16.76, abs=0.01)

    def test_figure5_lru_average(self):
        values = list(paper_data.FIGURE5_SNC_LRU.values())
        assert sum(values) / len(values) == pytest.approx(1.28, abs=0.01)

    def test_all_tables_cover_all_benchmarks(self):
        for table in (
            paper_data.FIGURE3_XOM,
            paper_data.FIGURE5_SNC_NOREPL,
            paper_data.FIGURE6_SNC_32KB,
            paper_data.FIGURE7_32WAY,
            paper_data.FIGURE8_XOM_384K,
            paper_data.FIGURE9_TRAFFIC,
            paper_data.FIGURE10_SNC_LRU,
        ):
            assert set(table) == set(paper_data.BENCHMARK_ORDER)

    def test_figure10_is_figure3_scaled(self):
        """The internal-consistency observation our timing model builds
        on: the paper's Figure 10 XOM column is Figure 3 times 102/50."""
        for name in paper_data.BENCHMARK_ORDER:
            ratio = (
                paper_data.FIGURE10_XOM[name] / paper_data.FIGURE3_XOM[name]
            )
            assert ratio == pytest.approx(102 / 50, rel=0.05), name


class TestLatencyConfigs:
    def test_paper_values(self):
        assert PAPER_LATENCIES.memory == 100
        assert PAPER_LATENCIES.crypto == 50
        assert SLOW_CRYPTO_LATENCIES.crypto == 102


@pytest.mark.slow
class TestFigureDrivers:
    def test_figure3_is_the_calibration_anchor(self, events):
        result = figure3(events)
        series = result.series_by_label("XOM")
        for name, value in series.paper.items():
            assert series.measured[name] == pytest.approx(value, abs=0.05)

    def test_figure5_series_and_ordering(self, events):
        result = figure5(events)
        labels = [series.label for series in result.series]
        assert labels == ["XOM", "SNC-NoRepl", "SNC-LRU"]
        lru = result.series_by_label("SNC-LRU")
        xom = result.series_by_label("XOM")
        for name in lru.measured:
            assert lru.measured[name] <= xom.measured[name] + 0.01

    def test_figure8_normalized_time_identity(self, events):
        """XOM-256K normalized time must equal 1 + figure3 slowdown."""
        fig8 = figure8(events)
        fig3 = figure3(events)
        xom256 = fig8.series_by_label("XOM-256KL2")
        for name, slowdown in fig3.series_by_label("XOM").measured.items():
            assert xom256.measured[name] == pytest.approx(
                1 + slowdown / 100, abs=1e-6
            )

    def test_figure9_non_negative(self, events):
        result = figure9(events)
        for value in result.series_by_label("traffic").measured.values():
            assert value >= 0.0

    def test_figure10_xom_scales_from_figure3(self, events):
        fig10 = figure10(events)
        fig3 = figure3(events)
        for name, base in fig3.series_by_label("XOM").measured.items():
            scaled = fig10.series_by_label("XOM").measured[name]
            assert scaled == pytest.approx(base * 102 / 50, rel=0.01)

    def test_all_figures_run(self, events):
        for figure in ALL_FIGURES:
            result = figure(events)
            assert result.series
            for series in result.series:
                assert set(series.measured) == set(
                    paper_data.BENCHMARK_ORDER
                )


@pytest.mark.slow
class TestReport:
    def test_format_figure_contains_all_rows(self, events):
        text = format_figure(figure5(events))
        for name in paper_data.BENCHMARK_ORDER:
            assert name in text
        assert "average" in text
        assert "paper" in text

    def test_format_summary_headlines(self, events):
        results = [figure5(events), figure10(events)]
        text = format_summary(results)
        assert "XOM" in text
        assert "SNC-LRU" in text
        assert "16.76" in text
