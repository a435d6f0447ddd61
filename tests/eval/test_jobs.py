"""Tests for the experiment job graph: specs, jobs, merging, hashing."""

import os
import pathlib
import subprocess
import sys
from dataclasses import asdict

import pytest

from oracle import produce_task

from repro.eval.experiments import (
    FIGURE_SNC_KEYS,
    figure_jobs,
    integrity_jobs,
    plan_jobs,
    scenario_jobs,
)
from repro.errors import ConfigurationError
from repro.eval.jobs import (
    Job,
    ScenarioTask,
    SNCSpec,
    SimulationTask,
    SourceSpec,
    Task,
    merge_jobs,
    record_task_for,
    standard_snc_specs,
    task_from_wire,
    task_to_wire,
)
from repro.eval.pipeline import SimulationScale, standard_snc_configs
from repro.secure.snc import SNCPolicy

_SCALE = SimulationScale(warmup_refs=5_000, measure_refs=10_000)


def _job(workload="art", snc_keys=("lru64",), scale=_SCALE, seed=1,
         figure="figure5", schemes=("otp",), alt_l2=False):
    specs = standard_snc_specs()
    return Job(
        table=figure, schemes=schemes,
        source=SourceSpec.benchmark(workload),
        snc_configs=tuple(specs[key] for key in snc_keys),
        scale=scale, seed=seed, alt_l2=alt_l2,
    )


class TestSNCSpec:
    def test_round_trips_every_standard_config(self):
        for key, config in standard_snc_configs().items():
            spec = SNCSpec.from_config(key, config)
            assert spec.to_config() == config

    def test_policy_survives(self):
        spec = standard_snc_specs()["norepl64"]
        assert spec.to_config().policy is SNCPolicy.NO_REPLACEMENT

    def test_standard_specs_bind_the_paper_scheme(self):
        for spec in standard_snc_specs().values():
            assert spec.scheme == "otp"

    def test_scheme_key_participates_in_canonical_form(self):
        base = standard_snc_specs()["lru64"]
        split = SNCSpec(key="lru64", scheme="otp_split")
        assert base.canonical() != split.canonical()


def _task(**overrides):
    (task,) = merge_jobs([_job(**overrides)])
    return task


class TestJob:
    def test_rejects_unknown_workload(self):
        with pytest.raises(KeyError, match="nosuchbench"):
            _job(workload="nosuchbench")

    def test_rejects_unregistered_scheme(self):
        with pytest.raises(KeyError, match="nosuchscheme"):
            _job(schemes=("nosuchscheme",))

    def test_rejects_unregistered_snc_spec_scheme(self):
        rogue = SNCSpec(key="lru64", scheme="nosuchscheme")
        with pytest.raises(KeyError, match="nosuchscheme"):
            Job(
                table="figure5", schemes=("otp",),
                source=SourceSpec.benchmark("art"),
                snc_configs=(rogue,), scale=_SCALE, seed=1,
            )

    def test_names_its_pass_like_the_merged_task(self):
        assert _job(workload="vpr").workload == "vpr"
        assert _task(workload="vpr").workload == "vpr"
        assert _job().workload == "art"

    def test_hash_is_deterministic(self):
        assert _task().config_hash() == _task().config_hash()

    def test_hash_ignores_spec_ordering(self):
        specs = standard_snc_specs()
        forward = SimulationTask(
            workload="art", snc_configs=(specs["lru32"], specs["lru64"]),
            scale=_SCALE,
        )
        backward = SimulationTask(
            workload="art", snc_configs=(specs["lru64"], specs["lru32"]),
            scale=_SCALE,
        )
        assert forward.config_hash() == backward.config_hash()

    @pytest.mark.parametrize("change", [
        dict(workload="vpr"),
        dict(snc_keys=("lru32",)),
        dict(scale=SimulationScale(warmup_refs=5_000, measure_refs=10_001)),
        dict(seed=2),
        dict(alt_l2=True),
    ])
    def test_hash_tracks_every_simulation_input(self, change):
        assert _task(**change).config_hash() != _task().config_hash()

    def test_merging_ignores_figure_and_schemes(self):
        a = _job(figure="figure5", schemes=("otp",))
        b = _job(figure="figure10", schemes=("xom", "otp"))
        assert merge_jobs([a, b]) == merge_jobs([a])

    def test_hash_stable_across_processes(self):
        """SHA-256 over canonical JSON, not salted ``hash()``: a fresh
        interpreter must compute the identical key."""
        code = (
            "from repro.eval.pipeline import SimulationScale\n"
            "from repro.eval.jobs import SimulationTask, standard_snc_specs\n"
            "task = SimulationTask(workload='art',"
            " snc_configs=(standard_snc_specs()['lru64'],),"
            " scale=SimulationScale(warmup_refs=5000, measure_refs=10000),"
            " seed=1)\n"
            "print(task.config_hash())"
        )
        src = pathlib.Path(__file__).parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH")) if part
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == _task().config_hash()


class TestTask:
    _MIX = SourceSpec(kind="multitask", workloads=("art", "vpr"),
                      quantum=1000)

    def test_figure_pass_needs_one_benchmark(self):
        with pytest.raises(ConfigurationError, match="switch strategy"):
            Task(source=self._MIX, snc_configs=(), scale=_SCALE)

    def test_alternate_l2_is_for_figure_passes_only(self):
        with pytest.raises(ConfigurationError, match="alternate L2"):
            Task(source=SourceSpec.benchmark("art"), snc_configs=(),
                 scale=_SCALE, strategy="tag", alt_l2=True)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="nosuchstrategy"):
            ScenarioTask(source=self._MIX, snc_configs=(),
                         strategy="nosuchstrategy", scale=_SCALE)

    def test_rejects_a_scheme_without_a_timing_sim(self):
        # xom prices from miss counts alone: an SNC spec naming it has
        # nothing to simulate, so the task is refused before any pass.
        spec = SNCSpec(key="xom64", scheme="xom")
        with pytest.raises(ConfigurationError, match="'xom'"):
            SimulationTask(workload="art", snc_configs=(spec,),
                           scale=_SCALE)
        wire = task_to_wire(SimulationTask(workload="art", snc_configs=(),
                                           scale=_SCALE))
        wire["snc"] = [asdict(spec)]
        with pytest.raises(ConfigurationError, match="'xom'"):
            task_from_wire(wire)

    def test_scenario_constructor_needs_a_strategy(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            ScenarioTask(source=SourceSpec.benchmark("art"),
                         snc_configs=(), strategy=None, scale=_SCALE)

    def test_constructors_build_the_one_task_class(self):
        figure = SimulationTask(workload="art", snc_configs=(),
                                scale=_SCALE, alt_l2=True)
        scenario = ScenarioTask(source=self._MIX, snc_configs=(),
                                strategy="flush", scale=_SCALE)
        assert type(figure) is type(scenario) is Task
        assert figure == Task(source=SourceSpec.benchmark("art"),
                              snc_configs=(), scale=_SCALE, alt_l2=True)
        assert (figure.workload, scenario.workload) == (
            "art", "mix(art+vpr)@q1000/flush"
        )

    def test_figure_and_scenario_jobs_merge_into_separate_tasks(self):
        """One job list may mix tables: a figure pass and a TAG pass
        over the same benchmark share a recording but not a task."""
        tag = Job(table="scenario", schemes=("otp",),
                  source=SourceSpec.benchmark("art"),
                  snc_configs=(standard_snc_specs()["lru64"],),
                  scale=_SCALE, strategy="tag")
        tasks = merge_jobs([_job(), tag, _job(snc_keys=("lru32",))])
        assert [task.workload for task in tasks] == ["art", "art/tag"]
        assert [spec.key for spec in tasks[0].snc_configs] == [
            "lru32", "lru64"
        ]
        assert (record_task_for(tasks[0])
                == record_task_for(tasks[1]))

    def test_every_table_merges_into_one_run(self):
        """Figures, scenarios and the integrity columns declare jobs one
        ``run_jobs`` call takes: each merged task has its own name, and
        the integrity models ride the figure passes."""
        tasks = merge_jobs(
            plan_jobs(scale=_SCALE)
            + scenario_jobs(("art", "vpr"), scale=_SCALE)
            + integrity_jobs(scale=_SCALE)
        )
        by_name = {task.workload: task for task in tasks}
        assert len(by_name) == len(tasks) == 11 + 2
        assert by_name["mcf"].integrity and not by_name["vpr"].integrity
        assert by_name["mix(art+vpr)@q2000/flush"].strategy == "flush"


class TestMergeJobs:
    def test_overlapping_figures_share_one_task(self):
        jobs = _job(snc_keys=("lru64",)), _job(snc_keys=("norepl64",
                                                         "lru64"))
        tasks = merge_jobs(list(jobs))
        assert len(tasks) == 1
        assert [spec.key for spec in tasks[0].snc_configs] == [
            "lru64", "norepl64"
        ]

    def test_distinct_scales_stay_separate(self):
        other = SimulationScale(warmup_refs=6_000, measure_refs=10_000)
        tasks = merge_jobs([_job(), _job(scale=other)])
        assert len(tasks) == 2

    def test_order_follows_first_appearance(self):
        tasks = merge_jobs([_job(workload="vpr"), _job(workload="art"),
                            _job(workload="vpr")])
        assert [task.workload for task in tasks] == ["vpr", "art"]

    def test_conflicting_geometry_for_one_key_rejected(self):
        rogue = SNCSpec(key="lru64", size_bytes=32 * 1024)
        jobs = [_job(), Job(
            table="figure6", schemes=("otp",),
            source=SourceSpec.benchmark("art"),
            snc_configs=(rogue,), scale=_SCALE, seed=1,
        )]
        with pytest.raises(ValueError, match="lru64"):
            merge_jobs(jobs)

    def test_conflicting_scheme_for_one_key_rejected(self):
        """The same pricing key bound to two different schemes is as
        ambiguous as two geometries: the merged task could only simulate
        one of them."""
        rogue = SNCSpec(key="lru64", scheme="otp_split")
        jobs = [_job(), Job(
            table="figure6", schemes=("otp_split",),
            source=SourceSpec.benchmark("art"),
            snc_configs=(rogue,), scale=_SCALE, seed=1,
        )]
        with pytest.raises(ValueError, match="lru64"):
            merge_jobs(jobs)

    def test_alt_l2_flag_merges_as_or(self):
        tasks = merge_jobs([_job(alt_l2=False), _job(alt_l2=True)])
        assert len(tasks) == 1
        assert tasks[0].alt_l2 is True
        tasks = merge_jobs([_job(alt_l2=False)])
        assert tasks[0].alt_l2 is False


class TestFigureDeclarations:
    def test_one_job_per_benchmark(self):
        jobs = figure_jobs("figure5", scale=_SCALE)
        assert len(jobs) == 11
        assert all(job.table == "figure5" for job in jobs)
        assert all(
            [spec.key for spec in job.snc_configs] == ["norepl64", "lru64"]
            for job in jobs
        )

    def test_figure3_needs_no_snc(self):
        assert all(job.snc_configs == ()
                   for job in figure_jobs("figure3", scale=_SCALE))

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            figure_jobs("figure4")

    def test_plan_for_all_figures_merges_to_one_task_per_benchmark(self):
        jobs = plan_jobs(scale=_SCALE)
        assert len(jobs) == len(FIGURE_SNC_KEYS) * 11
        tasks = merge_jobs(jobs)
        assert len(tasks) == 11
        for task in tasks:
            assert {spec.key for spec in task.snc_configs} == set(
                standard_snc_configs()
            )
            # figure8 is in the set, so the merged task simulates the
            # alternate L2.
            assert task.alt_l2 is True

    def test_only_figure8_declares_the_alternate_l2(self):
        for figure_id in FIGURE_SNC_KEYS:
            jobs = figure_jobs(figure_id, scale=_SCALE)
            expected = figure_id == "figure8"
            assert all(job.alt_l2 is expected for job in jobs), figure_id


class TestExecuteTask:
    def test_simulates_exactly_the_declared_configs(self):
        task = SimulationTask(
            workload="art",
            snc_configs=(standard_snc_specs()["lru64"],),
            scale=_SCALE, seed=1,
        )
        events = produce_task(task)
        assert set(events.snc) == {"lru64"}
        assert events.read_misses > 0

    def test_no_declared_configs_simulates_no_snc(self):
        """A figure3-style job must not pay for the five standard SNC
        simulators: an empty spec tuple builds no state machine."""
        task = SimulationTask(workload="art", snc_configs=(),
                              scale=_SCALE, seed=1)
        assert produce_task(task).snc == {}

    def test_alt_l2_only_simulated_when_declared(self):
        """A task whose figures never price the 384KB L2 carries no
        alternate-L2 counts — and the base counts must not depend on
        the flag."""
        base = SimulationTask(workload="art", snc_configs=(),
                              scale=_SCALE, seed=1, alt_l2=False)
        full = SimulationTask(workload="art", snc_configs=(),
                              scale=_SCALE, seed=1, alt_l2=True)
        skipped, simulated = produce_task(base), produce_task(full)
        assert skipped.read_misses_big_l2 is None
        assert skipped.allocate_misses_big_l2 is None
        assert simulated.read_misses_big_l2 > 0
        assert skipped.read_misses == simulated.read_misses
        assert skipped.writebacks == simulated.writebacks
        with pytest.raises(Exception, match="alternate-L2"):
            skipped.trace_events(alt_l2=True)
