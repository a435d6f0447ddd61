"""Shared fixtures for the figure-regeneration benchmarks.

The trace simulation runs once per pytest session (it feeds every figure);
each bench file prices its own figure from the shared events, registers the
paper-vs-measured table, and benchmarks a representative piece of the
pipeline.  All registered tables print in the terminal summary, and are
also written to ``benchmarks/results/`` so a plain file records the run.

Scale control: set ``REPRO_BENCH_REFS=warmup:measure`` (e.g. ``30000:50000``)
to shrink the trace for a quick pass; the default is the full scale used
for EXPERIMENTS.md.  Set ``REPRO_BENCH_JOBS=N`` (or ``auto`` for one
worker per CPU) to fan the per-benchmark simulations over N worker
processes (the same scheduler and warm pool ``python -m repro.eval
--jobs N`` uses), and ``REPRO_BENCH_CACHE=1`` to reuse the on-disk result
cache and trace store across benchmark sessions.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.eval.api import (
    ResultCache,
    SimulationScale,
    TraceStore,
    plan_jobs,
    run_jobs,
)

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_TABLES: dict[str, str] = {}


def _scale_from_env() -> SimulationScale:
    raw = os.environ.get("REPRO_BENCH_REFS")
    if not raw:
        return SimulationScale()
    warmup, measure = (int(part) for part in raw.split(":"))
    return SimulationScale(warmup_refs=warmup, measure_refs=measure)


@pytest.fixture(scope="session")
def bench_events():
    """All 11 benchmarks simulated once; every figure prices these.

    Declares every figure's jobs and runs them through the experiment
    scheduler, honoring the REPRO_BENCH_* environment knobs above.
    """
    jobs = plan_jobs(scale=_scale_from_env())
    raw_jobs = os.environ.get("REPRO_BENCH_JOBS", "1")
    if raw_jobs == "auto":
        n_jobs = os.cpu_count() or 1
    else:
        try:
            n_jobs = int(raw_jobs)
            if n_jobs < 1:
                raise ValueError
        except ValueError:
            raise pytest.UsageError(
                "REPRO_BENCH_JOBS must be a positive integer or "
                f"'auto', got {raw_jobs!r}"
            ) from None
    cache = trace_store = None
    if os.environ.get("REPRO_BENCH_CACHE") == "1":
        cache, trace_store = ResultCache(), TraceStore()
    return run_jobs(jobs, n_jobs=n_jobs, cache=cache,
                    trace_store=trace_store)


@pytest.fixture(scope="session")
def record_figure():
    """Register a rendered figure table for the terminal summary."""

    def _record(figure_id: str, table: str) -> None:
        _TABLES[figure_id] = table
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{figure_id}.txt").write_text(table + "\n")

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _TABLES:
        return
    terminalreporter.section("reproduced figures (paper vs measured)")
    for figure_id in sorted(_TABLES):
        terminalreporter.write_line(_TABLES[figure_id])
        terminalreporter.write_line("")
