"""Tests for the CLI runner and the ASCII chart renderer."""

import pytest

from repro.eval.charts import render_averages, render_chart
from repro.eval.experiments import figure5, plan_jobs
from repro.eval.jobs import standard_snc_specs
from repro.eval.pipeline import SimulationScale
from repro.eval.runner import build_parser, main, parse_scale
from repro.eval.scheduler import run_jobs
from repro.eval.server import build_parser as build_serve_parser


@pytest.fixture(scope="module")
def small_figure():
    # Big enough to clear every benchmark's initialization phase.
    events = run_jobs(plan_jobs(
        scale=SimulationScale(warmup_refs=50_000, measure_refs=30_000)
    ))
    return figure5(events)


class TestParseScale:
    def test_full(self):
        scale = parse_scale("full")
        assert scale.warmup_refs == 200_000

    def test_quick(self):
        assert parse_scale("quick").measure_refs == 50_000

    def test_explicit(self):
        scale = parse_scale("1000:2000")
        assert (scale.warmup_refs, scale.measure_refs) == (1000, 2000)

    def test_garbage_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_scale("banana")


class TestParser:
    def test_defaults_select_all_figures(self):
        args = build_parser().parse_args([])
        assert args.figures == ["10", "3", "5", "6", "7", "8", "9"]

    def test_figure_subset(self):
        args = build_parser().parse_args(["--figures", "5", "10"])
        assert args.figures == ["5", "10"]

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--figures", "4"])


@pytest.mark.slow
class TestCharts:
    def test_chart_contains_all_benchmarks(self, small_figure):
        chart = render_chart(small_figure)
        for name in ("ammp", "art", "vpr", "mcf"):
            assert name in chart
        assert "#" in chart and "=" in chart

    def test_averages_chart(self, small_figure):
        chart = render_averages(small_figure)
        assert "XOM" in chart
        assert "SNC-LRU" in chart
        assert "paper" in chart and "ours" in chart

    def test_bars_scale_to_peak(self, small_figure):
        chart = render_chart(small_figure, width=30)
        longest = max(
            line.count("=") for line in chart.splitlines() if "|" in line
        )
        assert longest <= 30


class TestMain:
    @pytest.mark.slow
    def test_end_to_end_quick_run(self, capsys, tmp_path):
        code = main(["--figures", "5", "--scale", "50000:30000", "--charts",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        assert "Headline comparison" in out
        assert "averages" in out

    def test_too_small_scale_fails_cleanly(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="initialization"):
            main(["--figures", "3", "--scale", "2000:2000", "--no-cache"])

    def test_rejects_bad_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--jobs", "0", "--no-cache"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestJobsSelection:
    def test_plain_counts_accepted(self):
        parser = build_parser()
        assert parser.parse_args(["--jobs", "4"]).jobs == 4
        assert parser.parse_args([]).jobs == 1

    def test_auto_parses_to_the_resolve_later_sentinel(self):
        # "auto" cannot resolve at parse time: the cap is the sweep's
        # total lane count, known only once the tasks are merged.  The
        # parser hands main() the 0 sentinel; auto_jobs() does the rest.
        args = build_parser().parse_args(["--jobs", "auto"])
        assert args.jobs == 0

    def test_auto_jobs_caps_at_the_lane_count(self):
        import os

        from repro.eval.jobs import Job, SourceSpec, merge_jobs
        from repro.eval.scheduler import auto_jobs

        specs = (standard_snc_specs()["lru64"],)
        tasks = merge_jobs([
            Job(table="figure5", schemes=("otp",),
                source=SourceSpec.benchmark("art"), snc_configs=specs,
                scale=SimulationScale(20_000, 20_000)),
        ])
        # One task, one lane: auto must not spawn idle workers.
        assert auto_jobs(tasks) == 1
        assert auto_jobs([]) == 1
        many = merge_jobs([
            Job(table="figure5", schemes=("otp",),
                source=SourceSpec.benchmark("art"),
                snc_configs=tuple(standard_snc_specs().values()),
                scale=SimulationScale(20_000, 20_000)),
        ])
        expected = max(1, min(os.cpu_count() or 1,
                              len(many[0].snc_configs)))
        assert auto_jobs(many) == expected

    def test_garbage_jobs_gets_a_menu(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--jobs", "many"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid --jobs value 'many'" in err
        assert "'auto'" in err


class TestTraceStoreStats:
    def test_run_reports_trace_store_stats(self, capsys, tmp_path):
        code = main(["--figures", "5", "--scale", "50000:30000",
                     "--no-cache",
                     "--trace-cache-dir", str(tmp_path / "traces")])
        assert code == 0
        err = capsys.readouterr().err
        assert "trace store:" in err
        # Cold first run: every distinct recording misses once.
        assert "0 hits" in err

    def test_no_trace_cache_run_reports_no_trace_stats(self, capsys):
        code = main(["--figures", "5", "--scale", "50000:30000",
                     "--no-trace-cache", "--no-cache"])
        assert code == 0
        assert "trace store:" not in capsys.readouterr().err


class TestRetiredOptions:
    """There is one engine and one pool, so neither command line takes
    a selector for them; a script still passing one fails loudly."""

    @pytest.mark.parametrize("parser", [build_parser, build_serve_parser],
                             ids=["eval", "serve"])
    @pytest.mark.parametrize("flag,value", [("--backend", "replay"),
                                            ("--pool", "persistent")],
                             ids=["backend", "pool"])
    def test_selector_flag_rejected(self, parser, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parser().parse_args([flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert flag in err
