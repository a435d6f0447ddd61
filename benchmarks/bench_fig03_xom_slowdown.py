"""Figure 3: XOM slowdown per benchmark (the paper's motivation).

The XOM column is the calibration anchor
(``repro.timing.model.calibrate_compute_cycles``), so the measured
values must match the paper essentially exactly — this bench doubles as
the calibration's self-test.  The timed portion is one full benchmark
simulation at reduced scale — record pass plus batch pricing: the cost
of adding one workload to the sweep.
"""

import pytest

from repro.eval.api import (
    QUICK_SCALE,
    SimulationTask,
    figure3,
    format_figure,
    price_batch,
    record,
    record_task_for,
)


def simulate(task):
    return price_batch([task], record(record_task_for(task)))[0]


def test_figure3_matches_paper(bench_events, record_figure, benchmark):
    result = figure3(bench_events)
    record_figure("figure3", format_figure(result))
    series = result.series_by_label("XOM")
    for name, paper_value in series.paper.items():
        assert series.measured[name] == pytest.approx(paper_value, abs=0.05)
    assert series.measured_avg == pytest.approx(series.paper_avg, abs=0.05)

    benchmark(simulate, SimulationTask(workload="gcc", snc_configs=(),
                                       scale=QUICK_SCALE))
