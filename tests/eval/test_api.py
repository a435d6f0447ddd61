"""The stable ``repro.eval.api`` facade: exports, figure selection, and
the rule that benchmarks/examples consume the harness only through it.
"""

from __future__ import annotations

import ast
import inspect
import pathlib

import pytest

from oracle import oracle_task

from repro.eval import api, scheduler, server
from repro.eval.pipeline import SimulationScale

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_every_advertised_name_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_record_and_price_batch_compose(tmp_path):
    """The facade's phase-1/phase-2 pieces fit together: record a task's
    stream, batch-price it, and match the per-reference oracle."""
    scale = SimulationScale(warmup_refs=12_000, measure_refs=16_000)
    task = api.SimulationTask(
        workload="art",
        snc_configs=(api.standard_snc_specs()["lru64"],),
        scale=scale,
    )
    recording = api.record(api.record_task_for(task))
    store = api.TraceStore(tmp_path)
    store.put(api.record_task_for(task), recording)
    restored = store.get(api.record_task_for(task))
    [batched] = api.price_batch([task], restored)
    assert batched == oracle_task(task)


def _eval_imports(path: pathlib.Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    return {m for m in modules if m.startswith("repro.eval")}


@pytest.mark.parametrize("path", sorted(
    list(REPO.glob("benchmarks/*.py"))
    + [REPO / "examples" / "snc_design_space.py"],
), ids=lambda path: path.name)
def test_benchmarks_and_examples_import_only_the_facade(path):
    """Deep imports of eval internals from benchmarks/examples are what
    the facade exists to end; only ``repro.eval.api`` is allowed."""
    deep = _eval_imports(path) - {"repro.eval.api"}
    assert not deep, f"{path.name} imports eval internals: {sorted(deep)}"


@pytest.mark.parametrize("entry", [
    scheduler.run_jobs,
    server.EvalServer,
], ids=lambda entry: entry.__qualname__)
def test_entry_points_take_no_engine_or_pool(entry):
    """There is one engine and one pool; no entry point selects them
    (``run_tasks`` keeps a ``"replay"``-only ``backend`` keyword)."""
    params = inspect.signature(entry).parameters
    assert "backend" not in params
    assert "pool" not in params


#: Names and spellings of the deleted engines, pools and selectors, and
#: of the second task family and the run wrappers folded into
#: ``run_jobs``/``run_tasks``.
RETIRED = (
    'backend="fused"', "replay-perevent", "BACKENDS", "POOLS",
    'pool="spawn"', "--backend", "--pool", "record_source_reference",
    "REPRO_RECORD_REFERENCE", "simulate_benchmark", "simulate_scenario",
    "execute_task_replay", "replay_benchmark", "replay_scenario",
    "def replay_events(",
    "ExperimentJob", "ScenarioJob", "merge_scenario_jobs", "AnyTask",
    "run_scenario_tasks", "run_everything", "run_integrity_sweep",
    "index_scenario_results",
    "ReplayRequest", "replay_request_for", "replay_batch", "_build_sims",
)


def test_retired_names_appear_nowhere_user_facing():
    """Code, benchmarks, examples, docs and CI name only the one engine."""
    roots = [REPO / name for name in ("src", "benchmarks", "examples",
                                      "docs", ".github")]
    files = [REPO / "README.md"] + [
        path for root in roots for path in root.rglob("*")
        if path.suffix in {".py", ".md", ".yml", ".yaml", ".toml"}
    ]
    hits = [
        f"{path.relative_to(REPO)}: {name}"
        for path in files for name in RETIRED
        if name in path.read_text()
    ]
    assert not hits, hits
