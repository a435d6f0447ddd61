"""Tests for the multiprocessing scheduler: ordering, parity, caching."""

import pytest

from oracle import oracle_task

from repro.eval.cache import ResultCache
from repro.eval.jobs import Job, SourceSpec, standard_snc_specs
from repro.eval.pipeline import SimulationScale
from repro.eval.scheduler import run_jobs, run_tasks
from repro.eval.trace_store import TraceStore
from repro.eval.jobs import merge_jobs

_SCALE = SimulationScale(warmup_refs=20_000, measure_refs=20_000)
_WORKLOADS = ("art", "vpr", "equake")


def _jobs(scale=_SCALE, seed=1):
    specs = (standard_snc_specs()["lru64"],)
    return [
        Job(table="figure5", schemes=("otp",),
            source=SourceSpec.benchmark(name), snc_configs=specs,
            scale=scale, seed=seed)
        for name in _WORKLOADS
    ]


@pytest.fixture(scope="module")
def serial_results():
    return run_tasks(merge_jobs(_jobs()), n_jobs=1)


class TestOrdering:
    def test_serial_results_follow_task_order(self, serial_results):
        assert [result.task.workload for result in serial_results] == list(
            _WORKLOADS
        )

    def test_parallel_results_follow_task_order(self, serial_results):
        """Fan-out completes out of order; collection must not."""
        parallel = run_tasks(merge_jobs(_jobs()), n_jobs=2)
        assert [result.task.workload for result in parallel] == list(
            _WORKLOADS
        )


class TestParity:
    def test_parallel_matches_serial_exactly(self, serial_results):
        """--jobs N must be bit-identical to --jobs 1: the simulations are
        seeded and share nothing, so events must compare equal field by
        field."""
        parallel = run_tasks(merge_jobs(_jobs()), n_jobs=2)
        for serial, fanned in zip(serial_results, parallel):
            assert serial.task == fanned.task
            assert serial.events == fanned.events

    def test_run_jobs_indexes_by_workload(self):
        events = run_jobs(_jobs(), n_jobs=1)
        assert set(events) == set(_WORKLOADS)
        assert all(events[name].name == name for name in _WORKLOADS)

    def test_run_jobs_rejects_ambiguous_workload_mapping(self):
        """Two scales for one workload would silently collapse in the
        {workload: events} dict — must be rejected instead."""
        other = SimulationScale(warmup_refs=21_000, measure_refs=20_000)
        with pytest.raises(ValueError, match="one task per workload"):
            run_jobs(_jobs() + _jobs(scale=other))


class TestCaching:
    def test_warm_cache_simulates_nothing(self, tmp_path, serial_results):
        cache = ResultCache(tmp_path)
        first = run_tasks(merge_jobs(_jobs()), n_jobs=1, cache=cache)
        assert all(not result.cached for result in first)
        second = run_tasks(merge_jobs(_jobs()), n_jobs=1, cache=cache)
        assert all(result.cached for result in second)
        for cold, warm in zip(first, second):
            assert cold.events == warm.events

    def test_partial_cache_runs_only_the_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = _jobs()
        run_tasks(merge_jobs(jobs[:2]), n_jobs=1, cache=cache)
        results = run_tasks(merge_jobs(jobs), n_jobs=1, cache=cache)
        assert [result.cached for result in results] == [True, True, False]

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_tasks(merge_jobs(_jobs()), n_jobs=2, cache=cache)
        again = run_tasks(merge_jobs(_jobs()), n_jobs=1, cache=cache)
        assert all(result.cached for result in again)


class TestProgress:
    def test_one_line_per_task_with_timing_or_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        lines: list[str] = []
        run_tasks(merge_jobs(_jobs()), n_jobs=1, cache=cache,
                  progress=lines.append)
        # Per-task lines; the record and batch phases log their own.
        task_lines = [line for line in lines
                      if not line.startswith(("[record", "[batch"))]
        assert len(task_lines) == len(_WORKLOADS)
        assert all("batch-priced in" in line for line in task_lines)
        lines.clear()
        run_tasks(merge_jobs(_jobs()), n_jobs=1, cache=cache,
                  progress=lines.append)
        assert all(line.endswith("cached") for line in lines)

    def test_rejects_nonpositive_n_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            run_tasks([], n_jobs=0)


class TestReplayBackends:
    """The one backend, ``replay``: record once per workload, then
    batch-price every task of a recording in one pass."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_tasks([], backend="repla")

    @pytest.mark.parametrize("backend", ["fused", "replay-perevent"])
    def test_retired_backends_rejected(self, backend):
        with pytest.raises(ValueError, match="the only engine is 'replay'"):
            run_tasks([], backend=backend)

    def test_replay_backend_accepted(self):
        assert run_tasks([], backend="replay") == []

    def test_no_pool_parameter(self):
        with pytest.raises(TypeError, match="pool"):
            run_tasks([], pool="persistent")

    def test_batch_pricing_matches_oracle(self, serial_results):
        assert [r.events for r in serial_results] == [
            oracle_task(r.task) for r in serial_results
        ]

    def test_one_batch_pass_per_recording(self, tmp_path):
        """A multi-config sweep sharing one workload must price as ONE
        batch group — the progress log shows exactly one '[batch'
        line per distinct recording, tasks fan out within it."""
        specs = standard_snc_specs()
        jobs = []
        for keys in (("lru32", "lru64"), ("lru128", "norepl64")):
            jobs.extend(
                Job(table="figure6", schemes=("otp",),
                    source=SourceSpec.benchmark(name),
                    snc_configs=tuple(specs[k] for k in keys),
                    scale=_SCALE)
                for name in ("art", "vpr")
            )
        tasks = merge_jobs(jobs)
        assert len(tasks) == 2  # one merged task per workload
        lines: list[str] = []
        results = run_tasks(tasks, trace_store=TraceStore(tmp_path),
                            progress=lines.append)
        batch_lines = [line for line in lines if "[batch" in line]
        assert len(batch_lines) == 2  # one per recording, not per task
        assert all("batch-priced" in line for line in batch_lines)
        assert [r.events for r in results] == [
            oracle_task(task) for task in tasks
        ]
