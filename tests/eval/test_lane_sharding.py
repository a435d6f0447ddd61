"""Tests for lane-sharded batch pricing: the shard planner, the member
splitter, partial-events merging, scheduler-level byte parity across
job counts / forced shard shapes, crash-mid-shard recovery,
and the shard lines in the stats summaries."""

import json
import random

import pytest

from repro.eval import pool as pool_mod
from repro.eval import scheduler as scheduler_mod
from repro.eval.cache import events_to_dict
from repro.eval.experiments import scenario_jobs
from repro.eval.jobs import (
    IntegrityModelSpec,
    Job,
    SimulationTask,
    SNCSpec,
    SourceSpec,
    execute_record,
    merge_jobs,
    merge_shard_events,
    price_batch,
    record_task_for,
    task_lanes,
    total_lane_count,
)
from repro.eval.pipeline import SimulationScale
from repro.eval.pool import pool_stats, shutdown_worker_pool
from repro.eval.report import format_pool_stats, format_trace_stats
from repro.eval.scheduler import (
    MIN_SHARD_LANES,
    _shard_members,
    plan_lane_shards,
    run_tasks,
)
from repro.eval.trace_store import TraceStore

_SCALE = SimulationScale(warmup_refs=20_000, measure_refs=20_000)


def _sweep_tasks(n_configs=6, workload="equake", integrity=False,
                 scale=_SCALE):
    """One merged single-workload task with ``n_configs`` SNC lanes
    (power-of-two entry counts) and optionally one integrity lane."""
    specs = tuple(
        SNCSpec(key=f"lru{kb}e{eb}", size_bytes=kb * 1024, entry_bytes=eb)
        for kb in (4, 8, 16, 32) for eb in (2, 4)
    )[:n_configs]
    integ = ((IntegrityModelSpec(key="mac16", provider="mac"),)
             if integrity else ())
    job = Job(table="shard-test", schemes=("otp",),
              source=SourceSpec.benchmark(workload), snc_configs=specs,
              scale=scale, integrity=integ)
    return merge_jobs([job])


def _digest(results):
    return json.dumps([events_to_dict(r.events) for r in results])


@pytest.fixture(autouse=True)
def _fresh_global_pool():
    shutdown_worker_pool()
    yield
    shutdown_worker_pool()


class TestPlanLaneShards:
    def test_single_group_takes_all_workers(self):
        assert plan_lane_shards([16], 4) == [4]

    def test_spare_workers_dealt_to_biggest_group(self):
        assert plan_lane_shards([6, 6, 6], 4) == [2, 1, 1]
        assert plan_lane_shards([4, 2], 4) == [2, 1]

    def test_groups_covering_workers_stay_whole(self):
        assert plan_lane_shards([8, 8, 8, 8], 4) == [1, 1, 1, 1]
        assert plan_lane_shards([8, 8], 2) == [1, 1]

    def test_serial_never_shards(self):
        assert plan_lane_shards([16], 1) == [1]

    def test_min_lanes_per_shard_respected(self):
        # A split must leave MIN_SHARD_LANES lanes in every shard.
        assert plan_lane_shards([MIN_SHARD_LANES], 4) == [1]
        assert plan_lane_shards([2 * MIN_SHARD_LANES - 1], 4) == [1]
        assert plan_lane_shards([2 * MIN_SHARD_LANES], 4) == [2]

    def test_empty_plan(self):
        assert plan_lane_shards([], 4) == []

    def test_jobs_cap_every_group(self):
        # The worker count is the only cap on a plan.
        assert plan_lane_shards([16], 2) == [2]
        assert plan_lane_shards([16], 3) == [3]
        assert plan_lane_shards([16], 8) == [8]
        assert plan_lane_shards([16], 9) == [8]

    @pytest.mark.parametrize("lane_counts,n_jobs", [
        ([17], 2), ([17], 4), ([3, 17], 4), ([5, 5, 5], 8),
        ([1, 1, 30], 6), ([9, 2, 4, 7], 5), ([40], 64), ([2, 2], 1),
    ])
    def test_plan_invariants(self, lane_counts, n_jobs):
        """Every group keeps at least one pass, splits never leave a
        shard under MIN_SHARD_LANES lanes, the plan uses no more passes
        than there are workers (or groups), and it stops only when the
        workers run out or no group can split again."""
        plan = plan_lane_shards(lane_counts, n_jobs)
        assert len(plan) == len(lane_counts)
        assert all(shards >= 1 for shards in plan)
        for lanes, shards in zip(lane_counts, plan):
            if shards > 1:
                assert lanes >= MIN_SHARD_LANES * shards
        assert sum(plan) <= max(n_jobs, len(lane_counts))
        if sum(plan) < n_jobs:
            assert all(lanes < MIN_SHARD_LANES * (shards + 1)
                       for lanes, shards in zip(lane_counts, plan))


class TestShardMembers:
    def test_one_shard_degenerates_to_unsharded_item(self):
        members = list(enumerate(_sweep_tasks(4)))
        [shard] = _shard_members(members, 1)
        assert shard == [(0, members[0][1], None)]

    def test_non_divisor_chunks_balanced_within_one_lane(self):
        task = _sweep_tasks(5)[0]
        shards = _shard_members([(0, task)], 2)
        sizes = [len(shards[0][0][2]), len(shards[1][0][2])]
        assert sizes == [2, 3]
        # Contiguous, in canonical order, covering every lane once.
        recovered = shards[0][0][2] + shards[1][0][2]
        assert recovered == task_lanes(task)

    def test_full_coverage_collapses_to_none(self):
        # Two 3-lane tasks into 2 shards: each shard holds one whole
        # task, so both items carry lane_keys=None (the cheap spelling
        # price_batch treats as "everything").
        tasks = (_sweep_tasks(3, workload="equake")
                 + _sweep_tasks(3, workload="art"))
        shards = _shard_members(list(enumerate(tasks)), 2)
        assert shards == [[(0, tasks[0], None)], [(1, tasks[1], None)]]

    def test_task_spanning_a_boundary_splits_its_lanes(self):
        tasks = (_sweep_tasks(4, workload="equake")
                 + _sweep_tasks(2, workload="art"))
        shards = _shard_members(list(enumerate(tasks)), 3)
        assert shards[0] == [(0, tasks[0], task_lanes(tasks[0])[:2])]
        assert shards[1] == [(0, tasks[0], task_lanes(tasks[0])[2:])]
        assert shards[2] == [(1, tasks[1], None)]

    def test_lane_less_task_priced_exactly_once(self):
        # A task with no SNC configs and no integrity still has
        # non-lane events; it must land in exactly one shard, as a
        # full (lane_keys=None) member.
        bare = merge_jobs([Job(
            table="shard-test", schemes=("baseline",),
            source=SourceSpec.benchmark("art"), snc_configs=(),
            scale=_SCALE,
        )])[0]
        assert task_lanes(bare) == ()
        laned = _sweep_tasks(4)[0]
        shards = _shard_members([(0, bare), (1, laned)], 2)
        placements = [
            (index, keys)
            for shard in shards
            for index, _task, keys in shard if index == 0
        ]
        assert placements == [(0, None)]

    def test_integrity_lanes_ride_the_same_flattening(self):
        task = _sweep_tasks(3, integrity=True)[0]
        lanes = task_lanes(task)
        assert ("integrity", "mac16") in lanes
        assert total_lane_count([task]) == 4
        shards = _shard_members([(0, task)], 2)
        recovered = [lane for shard in shards
                     for _i, _t, keys in shard for lane in keys]
        assert recovered == list(lanes)


class TestMergeShardEvents:
    @pytest.fixture(scope="class")
    def task_and_recording(self):
        [task] = _sweep_tasks(6, integrity=True)
        return task, execute_record(record_task_for(task))

    def test_merged_partials_match_the_one_pass(self, task_and_recording):
        task, recording = task_and_recording
        [full] = price_batch([task], recording)
        lanes = task_lanes(task)
        partials = [
            price_batch([task], recording, lanes=[chunk])[0]
            for chunk in (lanes[:3], lanes[3:])
        ]
        merged = merge_shard_events(task, partials)
        assert json.dumps(events_to_dict(merged)) == json.dumps(
            events_to_dict(full)
        )

    def test_randomized_shard_shapes(self, task_and_recording):
        task, recording = task_and_recording
        [full] = price_batch([task], recording)
        expected = json.dumps(events_to_dict(full))
        lanes = task_lanes(task)
        rng = random.Random(20030100)
        for _ in range(5):
            n_shards = rng.randint(1, len(lanes))
            cuts = sorted(
                rng.sample(range(1, len(lanes)), n_shards - 1)
            )
            bounds = [0, *cuts, len(lanes)]
            partials = [
                price_batch([task], recording,
                            lanes=[lanes[lo:hi]])[0]
                for lo, hi in zip(bounds, bounds[1:])
            ]
            merged = merge_shard_events(task, partials)
            assert json.dumps(events_to_dict(merged)) == expected

    def test_missing_lane_is_an_error(self, task_and_recording):
        task, recording = task_and_recording
        lanes = task_lanes(task)
        partial = price_batch([task], recording, lanes=[lanes[:2]])[0]
        with pytest.raises(KeyError):
            merge_shard_events(task, [partial])


class TestSchedulerParity:
    @pytest.fixture(scope="class")
    def inline_digest(self):
        return _digest(run_tasks(_sweep_tasks(6), n_jobs=1))

    def test_sharded_run_byte_identical_and_counted(self, tmp_path,
                                                    inline_digest):
        store = TraceStore(tmp_path)
        tasks = _sweep_tasks(8)
        shards_before = pool_stats().lane_shards
        results = run_tasks(tasks, n_jobs=4, trace_store=store)
        assert _digest(results) == _digest(
            run_tasks(tasks, n_jobs=1)
        )
        assert pool_stats().lane_shards - shards_before == 4
        assert pool_stats().shard_seconds > 0
        assert store.price_passes == 1
        assert store.price_shards == 4

    def test_forced_shard_counts_stay_byte_identical(self, monkeypatch,
                                                     tmp_path,
                                                     inline_digest):
        tasks = _sweep_tasks(6)
        for forced, expected in ((1, 0), (3, 3)):
            monkeypatch.setattr(
                scheduler_mod, "plan_lane_shards",
                lambda lane_counts, n_jobs, forced=forced:
                    [forced] * len(lane_counts),
            )
            store = TraceStore(tmp_path / str(forced))
            before = pool_stats().lane_shards
            results = run_tasks(tasks, n_jobs=4, trace_store=store)
            assert _digest(results) == inline_digest
            assert pool_stats().lane_shards - before == expected

    def test_every_job_count(self, inline_digest):
        # The acceptance bar: --jobs 1, 2 and 4 all serialize
        # byte-identically, sharded or not.
        tasks = _sweep_tasks(6)
        for n_jobs in (1, 2, 4):
            results = run_tasks(tasks, n_jobs=n_jobs)
            assert _digest(results) == inline_digest, (
                f"diverged at n_jobs={n_jobs}"
            )

    def test_wide_sweep_shards_byte_identically(self, tmp_path):
        # The wide-warm shape: 15 LRU lanes the stack tier prices and
        # two lanes (no-replacement, otp_split) left on the batch pass,
        # dealt into two contiguous shards.
        specs = [SNCSpec(key=f"lru{kb}k_{assoc or 'fa'}",
                         size_bytes=kb * 1024, assoc=assoc)
                 for kb in (16, 32, 64, 128, 256)
                 for assoc in (None, 32, 8)]
        specs.append(SNCSpec(key="norepl64", size_bytes=64 * 1024,
                             policy="no-replacement"))
        specs.append(SNCSpec(key="lru64+otp_split", scheme="otp_split"))
        tasks = [SimulationTask(
            workload="equake", scale=_SCALE,
            snc_configs=tuple(sorted(specs, key=lambda spec: spec.key)),
        )]
        assert total_lane_count(tasks) == 17
        store = TraceStore(tmp_path)
        expected = _digest(run_tasks(tasks, n_jobs=1, trace_store=store))
        shards_before = pool_stats().lane_shards
        results = run_tasks(tasks, n_jobs=2, trace_store=store)
        assert _digest(results) == expected
        assert pool_stats().lane_shards - shards_before == 2

    def test_scenario_tasks_shard_too(self):
        # FLUSH and TAG share one recording (the record pass is
        # configuration-independent), so at --jobs 4 the single group
        # lane-shards across the strategies' tasks.
        jobs = scenario_jobs(("art", "vpr"), quantum=2000,
                             snc_keys=("lru32", "lru64"), scale=_SCALE)
        tasks = merge_jobs(jobs)
        assert len(tasks) == 2  # one per strategy
        # Two schemes x two geometries per task: eight lanes in all.
        assert total_lane_count(tasks) == 8
        expected = _digest(run_tasks(tasks, n_jobs=1))
        shards_before = pool_stats().lane_shards
        results = run_tasks(tasks, n_jobs=4)
        assert _digest(results) == expected
        assert pool_stats().lane_shards - shards_before == 4


class TestCrashMidShard:
    def test_dead_workers_shard_repriced_alone(self, monkeypatch,
                                               tmp_path):
        """Kill the worker pricing shard 1 of group 0: only that shard
        is retried (inline, after a respawn), and the merged tables
        are still byte-identical."""
        tasks = _sweep_tasks(8)
        expected = _digest(run_tasks(tasks, n_jobs=1,
                                     trace_store=TraceStore(tmp_path)))
        shutdown_worker_pool()  # workers must spawn with the env set
        monkeypatch.setenv("_REPRO_SHARD_CRASH", "0:1")
        stats = pool_stats()
        respawned = stats.workers_respawned
        retried = stats.tasks_retried
        results = run_tasks(tasks, n_jobs=4,
                            trace_store=TraceStore(tmp_path))
        assert _digest(results) == expected
        assert stats.workers_respawned - respawned == 1
        assert stats.tasks_retried - retried == 1


class TestStatsWording:
    def test_pool_line_reports_shards(self):
        stats = pool_mod.PoolStats(workers_spawned=4,
                                   tasks_dispatched=4,
                                   shm_shipments=1, shm_bytes=1_000_000,
                                   lane_shards=4, shard_seconds=1.0)
        line = format_pool_stats(stats)
        assert "4 lane shards priced (0.25s/shard)" in line

    def test_pool_line_silent_without_shards(self):
        stats = pool_mod.PoolStats(workers_spawned=2,
                                   tasks_dispatched=3)
        assert "lane shard" not in format_pool_stats(stats)

    def test_trace_line_reports_shard_passes(self, tmp_path):
        store = TraceStore(tmp_path)
        store.note_priced(3, 0.9, shards=4)
        line = format_trace_stats(store)
        assert "3 tasks batch-priced in 4 shards (0.9s)" in line
        assert "replay-priced" not in line

    def test_trace_line_keeps_old_wording_unsharded(self, tmp_path):
        store = TraceStore(tmp_path)
        store.note_priced(2, 0.5, shards=1)
        store.note_priced(1, 0.2, shards=1)
        line = format_trace_stats(store)
        assert "3 tasks replay-priced (0.7s)" in line
        assert "shards" not in line
