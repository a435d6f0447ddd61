"""The integrity axis through the eval layer: specs, jobs, merging,
scheduling, caching, and the slowdown-vs-node-cache-size experiment."""

import pytest

from oracle import produce_task

from repro.errors import ConfigurationError
from repro.eval.cache import ResultCache
from repro.eval.experiments import (
    INTEGRITY_NODE_CACHE_SIZES,
    PAPER_LATENCIES,
    integrity_jobs,
    integrity_model_specs,
    integrity_slowdowns,
    integrity_table_keys,
)
from repro.eval.jobs import (
    IntegrityModelSpec,
    Job,
    SimulationTask,
    SourceSpec,
    merge_jobs,
    standard_snc_specs,
)
from repro.eval.pipeline import QUICK_SCALE, SimulationScale
from repro.eval.scheduler import run_jobs, run_tasks
from repro.secure.schemes import get_scheme

_SCALE = SimulationScale(warmup_refs=5_000, measure_refs=10_000)


def _integrity_spec(**overrides):
    spec = dict(key="tree_nc64", provider="hash_tree_cached",
                node_cache_entries=64)
    spec.update(overrides)
    return IntegrityModelSpec(**spec)


def _job(workload="art", integrity=(), **overrides):
    spec = dict(
        table="integrity", schemes=("otp",),
        source=SourceSpec.benchmark(workload),
        snc_configs=(standard_snc_specs()["lru64"],), scale=_SCALE,
        seed=1, integrity=tuple(integrity),
    )
    spec.update(overrides)
    return Job(**spec)


class TestIntegrityModelSpec:
    def test_rejects_unregistered_provider(self):
        with pytest.raises(KeyError, match="nosuchintegrity"):
            _integrity_spec(provider="nosuchintegrity")

    def test_rejects_model_free_provider(self):
        """``none`` is requested by omission — a job naming it would
        simulate nothing and price nothing."""
        with pytest.raises(ConfigurationError, match="none"):
            _integrity_spec(provider="none")

    def test_config_round_trip(self):
        config = _integrity_spec(n_lines=4096,
                                 node_cache_entries=32).to_config()
        assert config.n_lines == 4096
        assert config.node_cache_entries == 32

    @pytest.mark.parametrize("change", [
        dict(provider="hash_tree", node_cache_entries=0),
        dict(n_lines=1 << 18),
        dict(node_cache_entries=128),
        dict(tag_bytes=8),
    ])
    def test_canonical_tracks_every_field(self, change):
        assert (_integrity_spec(**change).canonical()
                != _integrity_spec().canonical())


class TestJobsAndMerging:
    def test_hash_tracks_integrity_dimension(self):
        (with_tree,) = merge_jobs([_job(integrity=[_integrity_spec()])])
        (without,) = merge_jobs([_job()])
        assert with_tree.config_hash() != without.config_hash()

    def test_merge_unions_integrity_by_key(self):
        jobs = [
            _job(integrity=[_integrity_spec()]),
            _job(integrity=[_integrity_spec(key="mac", provider="mac",
                                            node_cache_entries=0)]),
        ]
        tasks = merge_jobs(jobs)
        assert len(tasks) == 1
        assert [spec.key for spec in tasks[0].integrity] == [
            "mac", "tree_nc64",
        ]

    def test_merge_rejects_conflicting_integrity_key(self):
        jobs = [
            _job(integrity=[_integrity_spec()]),
            _job(integrity=[_integrity_spec(node_cache_entries=128)]),
        ]
        with pytest.raises(ValueError, match="tree_nc64"):
            merge_jobs(jobs)

    def test_figure_jobs_declare_no_integrity(self):
        """The paper's own configuration: every figure job declares no
        integrity model and every merged task's canonical form carries
        an empty integrity list, so the seven tables are untouched by
        the axis."""
        from repro.eval.experiments import plan_jobs
        jobs = plan_jobs(scale=_SCALE)
        assert all(job.integrity == () for job in jobs)
        for task in merge_jobs(jobs):
            assert task.canonical()["integrity"] == []


class TestExecution:
    def test_task_simulates_declared_integrity_configs(self):
        task = SimulationTask(
            workload="art", snc_configs=(standard_snc_specs()["lru64"],),
            scale=_SCALE, seed=1,
            integrity=(_integrity_spec(),
                       _integrity_spec(key="tree", provider="hash_tree",
                                       node_cache_entries=0)),
        )
        events = produce_task(task)
        assert set(events.integrity) == {"tree", "tree_nc64"}
        counts = events.integrity["tree_nc64"]
        assert counts.provider == "hash_tree_cached"
        assert counts.verifications > 0
        assert counts.node_cache_hits > 0
        assert events.integrity["tree"].node_cache_hits == 0

    def test_no_integrity_leaves_events_empty(self):
        task = SimulationTask(
            workload="art", snc_configs=(), scale=_SCALE, seed=1,
        )
        assert produce_task(task).integrity == {}

    def test_cache_round_trips_integrity_counts(self, tmp_path):
        task = SimulationTask(
            workload="art", snc_configs=(standard_snc_specs()["lru64"],),
            scale=_SCALE, seed=1, integrity=(_integrity_spec(),),
        )
        cache = ResultCache(tmp_path)
        first = run_tasks([task], cache=cache)[0]
        assert not first.cached
        second = run_tasks([task], cache=cache)[0]
        assert second.cached
        assert second.events.integrity == first.events.integrity

    def test_trace_events_rejects_unsimulated_key(self):
        task = SimulationTask(workload="art", snc_configs=(),
                              scale=_SCALE, seed=1)
        with pytest.raises(ConfigurationError, match="tree_nc64"):
            produce_task(task).trace_events(integrity_key="tree_nc64")

    def test_baseline_pricer_rejects_integrity_events(self):
        """The denominator never prices integrity: silently dropping
        the cost would fake a 0% slowdown."""
        from repro.timing.model import baseline_cycles

        task = SimulationTask(
            workload="art", snc_configs=(), scale=_SCALE, seed=1,
            integrity=(_integrity_spec(),),
        )
        events = produce_task(task)
        with pytest.raises(ValueError, match="baseline verifies nothing"):
            baseline_cycles(
                events.trace_events(integrity_key="tree_nc64"),
                PAPER_LATENCIES,
            )


class TestExperiment:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("integrity-cache"))
        # QUICK_SCALE: mcf's initialization phase outlasts the tiny
        # job-test scale before its measurement window sees misses.
        events = run_jobs(integrity_jobs(("art", "mcf"),
                                         scale=QUICK_SCALE),
                          cache=cache)
        return events, cache

    def test_cached_tree_strictly_cheaper_in_priced_cycles(self, sweep):
        """The acceptance bar: ``hash_tree_cached`` beats ``hash_tree``
        in *cycles* for every workload and every node-cache size."""
        events, _ = sweep
        price = get_scheme("otp").price
        for name, bench_events in events.items():
            uncached = price(
                bench_events.trace_events("lru64", integrity_key="tree"),
                PAPER_LATENCIES,
            )
            for entries in INTEGRITY_NODE_CACHE_SIZES:
                cached = price(
                    bench_events.trace_events(
                        "lru64", integrity_key=f"tree_nc{entries}"
                    ),
                    PAPER_LATENCIES,
                )
                assert cached < uncached, (name, entries)

    def test_slowdown_columns_order_as_threat_model(self, sweep):
        events, _ = sweep
        for bench_events in events.values():
            slowdowns = integrity_slowdowns(bench_events)
            assert (slowdowns["none"] < slowdowns["mac"]
                    < slowdowns["tree"])

    def test_warm_cache_replays_the_sweep_without_simulation(self, sweep):
        events, cache = sweep
        tasks = merge_jobs(integrity_jobs(("art", "mcf"),
                                          scale=QUICK_SCALE))
        results = run_tasks(tasks, cache=cache)
        assert all(result.cached for result in results)
        warm = {result.task.workload: result.events for result in results}
        assert warm["art"].integrity == events["art"].integrity

    def test_one_pass_carries_every_column(self, sweep):
        events, _ = sweep
        expected = {
            spec.key for spec in integrity_model_specs()
        }
        for bench_events in events.values():
            assert set(bench_events.integrity) == expected
        assert set(integrity_table_keys()) == expected | {"none"}
