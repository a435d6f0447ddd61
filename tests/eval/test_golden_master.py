"""Golden-master regression: the rendered paper tables, byte for byte.

The seven figure tables plus the §4.3 scenario table and the integrity
table, rendered at quick scale, are checked into ``tests/golden/``.  Any
refactor that silently drifts a single counter, calibration constant or
formatting rule fails here with a diff — the complement of the
differential suite, which only proves the engine agrees with the oracle
on randomized configurations.

The reference writes the goldens, production is checked against them:
the fixtures are rendered through the per-reference oracle
(``tests/eval/oracle.py``), while the test renders through the
production scheduler.  Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/eval/test_golden_master.py

and review the fixture diff like any other code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from oracle import oracle_task

from repro.eval.experiments import (
    FIGURES_BY_ID,
    integrity_jobs,
    plan_jobs,
    scenario_jobs,
)
from repro.eval.jobs import merge_jobs
from repro.eval.pipeline import QUICK_SCALE
from repro.eval.report import (
    format_figure,
    format_integrity_table,
    format_scenario_table,
)
from repro.eval.scheduler import run_tasks

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: The scenario table's pinned configuration: one mix per arm of the
#: §4.3 trade-off (fits / contends), both strategies each.
SCENARIO_MIXES = (("art", "vpr"), ("equake", "mcf"))
SCENARIO_QUANTUM = 2_000


def _by_workload(run, tasks) -> dict:
    return {task.workload: events
            for task, events in zip(tasks, run(tasks))}


def render_figures(run) -> dict[str, str]:
    """The seven figure tables from ``run(tasks) -> [events]``."""
    events = _by_workload(run, merge_jobs(plan_jobs(scale=QUICK_SCALE)))
    return {
        figure_id: format_figure(figure(events)) + "\n"
        for figure_id, figure in FIGURES_BY_ID.items()
    }


def render_all(run) -> dict[str, str]:
    """All nine tables, every task's events computed by ``run``."""
    tables = render_figures(run)
    scenarios = _by_workload(run, merge_jobs(
        job for mix in SCENARIO_MIXES
        for job in scenario_jobs(mix, quantum=SCENARIO_QUANTUM,
                                 scale=QUICK_SCALE)
    ))
    tables["scenarios"] = format_scenario_table(scenarios) + "\n"
    tables["integrity"] = format_integrity_table(_by_workload(
        run, merge_jobs(integrity_jobs(scale=QUICK_SCALE))
    )) + "\n"
    return tables


def run_production(tasks) -> list:
    return [result.events for result in run_tasks(tasks)]


def run_oracle(tasks) -> list:
    return [oracle_task(task) for task in tasks]


def _assert_matches_golden(tables: dict[str, str]) -> None:
    for name, rendered in tables.items():
        path = GOLDEN_DIR / f"{name}.txt"
        assert path.exists(), (
            f"missing golden fixture {path}; regenerate with "
            f"'PYTHONPATH=src python {__file__}'"
        )
        golden = path.read_text()
        assert rendered == golden, (
            f"{name} drifted from tests/golden/{name}.txt — if the "
            "change is intentional, regenerate the fixtures and review "
            "the diff"
        )


@pytest.fixture(scope="module")
def rendered_tables():
    return render_all(run_production)


def test_tables_match_golden_fixtures(rendered_tables):
    """Figures 3-10 plus the scenario and integrity tables, rendered
    through the production scheduler, must be byte-identical to the
    fixtures the oracle wrote."""
    _assert_matches_golden(rendered_tables)


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, rendered in render_all(run_oracle).items():
        path = GOLDEN_DIR / f"{name}.txt"
        path.write_text(rendered)
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
