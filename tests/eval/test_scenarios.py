"""Tests for the §4.3 scenario pipeline: jobs -> scheduler -> cache ->
pricer, and the FLUSH-vs-TAG invariants."""

import importlib.util
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from oracle import produce

from repro.eval.cache import ResultCache
from repro.eval.experiments import (
    SCENARIO_SCHEMES,
    scenario_jobs,
    scenario_slowdowns,
    scheme_config_key,
)
from repro.eval.jobs import (
    Job,
    SNCSpec,
    SourceSpec,
    merge_jobs,
    standard_snc_specs,
)
from repro.eval.pipeline import SimulationScale, standard_snc_configs
from repro.eval.scheduler import run_jobs, run_tasks
from repro.secure.snc_policy import SwitchStrategy
from repro.workloads.sources import MultiTaskInterleaver, SingleBenchmark

#: Short but past every init phase for the benchmarks used here.
SCALE = SimulationScale(warmup_refs=20_000, measure_refs=30_000)


def mix_events(strategy, workloads=("art", "vpr"), quantum=1000,
               snc=None):
    return produce(
        MultiTaskInterleaver(workloads, quantum=quantum),
        scale=SCALE,
        snc=snc or (standard_snc_specs()["lru64"],),
        strategy=strategy,
    )


class TestSingleTaskParity:
    def test_single_task_scenario_matches_the_benchmark_path(self):
        """The WorkloadSource refactor's anchor: one task, no switches,
        byte-identical events to the classic figure pipeline.

        TAG runs the full five standard configurations; FLUSH runs the
        LRU ones (flushing needs the spill table, so it rejects
        no-replacement configs up front)."""
        all_specs = tuple(standard_snc_specs().values())
        lru_only = tuple(spec for spec in all_specs
                         if spec.key != "norepl64")
        for strategy, specs in (("tag", all_specs), ("flush", lru_only)):
            bench = produce(SingleBenchmark("art"), scale=SCALE,
                            snc=specs)
            scenario = produce(SingleBenchmark("art"), scale=SCALE,
                               snc=specs, strategy=strategy)
            expected = asdict(bench)
            got = asdict(scenario)
            assert got.pop("task_read_misses") == {
                "0:art": bench.read_misses
            }
            expected.pop("task_read_misses")
            assert got == expected

    def test_one_task_interleave_equals_single_benchmark(self):
        via_interleaver = produce(
            MultiTaskInterleaver(["art"], quantum=500), scale=SCALE,
            strategy="tag",
        )
        direct = produce(SingleBenchmark("art"), scale=SCALE,
                         strategy="tag")
        left, right = asdict(via_interleaver), asdict(direct)
        assert left.pop("name") == "mix(art)@q500"
        assert right.pop("name") == "art"
        assert left == right


class TestStrategyInvariants:
    def test_tag_never_spills_at_switch_time(self):
        events = mix_events("tag")
        counts = events.snc["lru64"]
        assert counts.switches > 0
        assert counts.switch_spills == 0

    def test_flush_spills_at_every_switch_and_empties_the_snc(self):
        config = standard_snc_configs()["lru64"]
        source = MultiTaskInterleaver(["art", "vpr"], quantum=1000)
        from repro.secure.schemes import get_scheme

        sim = get_scheme("otp").build_timing_sim(
            config, switch_strategy=SwitchStrategy.FLUSH
        )
        for item in source.stream(1):
            from repro.workloads.sources import Switch

            if type(item) is Switch:
                assert len(sim.snc) > 0
                sim.switch_task(item.next_task)
                # FLUSH leaves the SNC empty at every switch.
                assert len(sim.snc) == 0
                break_after = sim.counts.switches >= 3
                if break_after:
                    break
            else:
                line, is_write = item
                if is_write:
                    sim.writeback(line)
                else:
                    sim.read_miss(line)
        assert sim.counts.switch_spills > 0

    def test_flush_costs_more_than_tag_when_working_sets_fit(self):
        flush = mix_events("flush")
        tag = mix_events("tag")
        # Identical workload view: the strategies see the same misses.
        assert flush.read_misses == tag.read_misses
        assert flush.task_read_misses == tag.task_read_misses
        from repro.eval.experiments import PAPER_LATENCIES
        from repro.secure.schemes import get_scheme
        from repro.timing.model import slowdown_pct

        base = get_scheme("baseline").price(
            flush.trace_events(), PAPER_LATENCIES
        )
        price = get_scheme("otp").price
        flush_slow = slowdown_pct(
            price(flush.trace_events("lru64"), PAPER_LATENCIES), base
        )
        tag_slow = slowdown_pct(
            price(tag.trace_events("lru64"), PAPER_LATENCIES), base
        )
        assert tag_slow < flush_slow

    def test_cross_task_writebacks_update_the_owners_entry(self):
        """A shared L2 can evict task A's dirty line during task B's
        quantum; the sequence-number update must run under A's tag (the
        owner tag travels with the line), not B's."""
        from repro.secure.schemes import get_scheme

        sim = get_scheme("otp").build_timing_sim(
            standard_snc_configs()["lru64"]
        )
        sim.begin_task(0)
        sim.writeback(10)  # task 0 owns line 10: seq 1
        sim.switch_task(1)
        sim.writeback(10, xom_id=0)  # evicted during task 1's quantum
        assert sim.snc.peek(10, xom_id=0) == 2  # owner's chain advanced
        assert sim.snc.peek(10, xom_id=1) is None  # no phantom entry
        assert sim.counts.update_hits == 1

    def test_flush_cross_task_writeback_leaves_no_residency(self):
        """Under FLUSH the SNC holds only the running task's entries: a
        descheduled owner's dirty eviction is a table read-modify-write,
        so the owner returns cold (no phantom warm hits) but its
        sequence chain still advances."""
        from repro.secure.schemes import get_scheme

        sim = get_scheme("otp").build_timing_sim(
            standard_snc_configs()["lru64"],
            switch_strategy=SwitchStrategy.FLUSH,
        )
        sim.begin_task(0)
        sim.writeback(10)  # task 0 owns line 10: seq 1
        sim.switch_task(1)  # flushes task 0's entries to the table
        spills_before = sim.counts.table_spills
        sim.writeback(10, xom_id=0)  # evicted during task 1's quantum
        assert sim.snc.peek(10, xom_id=0) is None  # no residency
        assert sim.counts.table_spills == spills_before + 1
        sim.switch_task(0)
        # Task 0 re-warms through a query miss and sees seq 2 — the
        # detached update was not lost.
        decision = sim.core.read(10)
        assert decision.seq == 2

    def test_both_registered_schemes_ride_the_scenario_pipeline(self):
        """otp and otp_split both simulate and price the same mix —
        the acceptance criterion's two-scheme end-to-end run."""
        base_config = standard_snc_configs()["lru64"]
        specs = tuple(
            SNCSpec.from_config(scheme_config_key(scheme), base_config,
                                scheme)
            for scheme in SCENARIO_SCHEMES
        )
        for strategy in SwitchStrategy:
            events = mix_events(strategy.value, snc=specs)
            slowdowns = scenario_slowdowns(events)
            assert set(slowdowns) == set(SCENARIO_SCHEMES)
            for value in slowdowns.values():
                assert value >= 0.0


class TestScenarioJobs:
    def test_jobs_merge_like_figure_jobs(self):
        jobs = scenario_jobs(["art", "vpr"], quantum=1000, scale=SCALE)
        assert len(jobs) == 2  # one per strategy
        tasks = merge_jobs(jobs + jobs)  # duplicates collapse
        assert len(tasks) == 2
        strategies = {task.strategy for task in tasks}
        assert strategies == {"flush", "tag"}
        # Each task carries one SNC config per scheme.
        assert all(len(task.snc_configs) == len(SCENARIO_SCHEMES)
                   for task in tasks)

    def test_config_hash_is_stable_and_strategy_sensitive(self):
        jobs = scenario_jobs(["art", "vpr"], quantum=1000, scale=SCALE)
        flush_task, tag_task = merge_jobs(jobs)
        assert flush_task.config_hash() == flush_task.config_hash()
        assert flush_task.config_hash() != tag_task.config_hash()

    def test_trace_source_hash_tracks_file_contents(self, tmp_path):
        from repro.workloads.tracegen import save_trace

        path = tmp_path / "t.trace"
        save_trace([(1, False)], path)
        spec = SourceSpec(kind="trace", trace_path=str(path))
        before = spec.canonical()
        save_trace([(2, True)], path)
        assert spec.canonical() != before

    def test_validation(self):
        with pytest.raises(KeyError):
            SourceSpec(kind="benchmark", workloads=("nope",))
        with pytest.raises(Exception):
            SourceSpec(kind="multitask", workloads=("art", "vpr"))
        with pytest.raises(ValueError):
            Job(
                table="x", schemes=("otp",),
                source=SourceSpec.benchmark("art"),
                snc_configs=(), strategy="bogus", scale=SCALE,
            )

    def test_scenario_tasks_cache_and_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = scenario_jobs(["art", "vpr"], quantum=1000, scale=SCALE)
        tasks = merge_jobs(jobs)
        cold = run_tasks(tasks, n_jobs=1, cache=cache)
        assert all(not result.cached for result in cold)
        warm = run_tasks(tasks, n_jobs=1, cache=cache)
        assert all(result.cached for result in warm)
        for before, after in zip(cold, warm):
            assert asdict(before.events) == asdict(after.events)

    def test_run_jobs_indexes_by_source_and_strategy(self, tmp_path):
        jobs = scenario_jobs(["art", "vpr"], quantum=1000, scale=SCALE)
        results = run_jobs(jobs, cache=ResultCache(tmp_path))
        label = jobs[0].source.label
        assert set(results) == {f"{label}/flush", f"{label}/tag"}

    def test_run_tasks_dispatches_on_kind(self):
        jobs = scenario_jobs(["art"], scale=SCALE)
        # A no-switch source has no strategy dimension: one TAG job only.
        (task,) = merge_jobs(jobs)
        assert task.strategy == "tag"
        [result] = run_tasks([task])
        direct = produce(SingleBenchmark("art"), scale=SCALE)
        assert result.events.read_misses == direct.read_misses
        assert result.events.task_read_misses == {
            "0:art": direct.read_misses
        }


def _context_switch_bench():
    """``benchmarks/bench_ablation_context_switch.py`` as a module."""
    path = (Path(__file__).parents[2] / "benchmarks"
            / "bench_ablation_context_switch.py")
    spec = importlib.util.spec_from_file_location("bench_context_switch",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_context_switch_bench_names_a_mix_below_its_scale(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    """The bench's default mixes below the quick scale: equake+mcf
    cannot get past its initialization phase, so the script names the
    mix and the scale on one line and exits 2 instead of dying with a
    traceback."""
    bench = _context_switch_bench()
    monkeypatch.setattr(sys, "argv", [
        "bench_ablation_context_switch.py", "--scale", "20000:30000",
        "--quantum", "1000", "--jobs", "1", "--no-cache",
        "--trace-cache-dir", str(tmp_path / "traces"),
        "--output", str(tmp_path / "out.json"),
    ])
    assert bench.main() == 2
    [line] = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("equake+mcf")]
    assert "at scale 20000:30000" in line
    assert not (tmp_path / "out.json").exists()
