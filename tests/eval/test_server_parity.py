"""Server-parity golden test: every table the repo pins — the seven
figure tables, the §4.3 scenario table and the integrity table — is
rendered from results fetched through a live serve daemon and
byte-diffed against the golden masters in ``tests/golden/``.

This turns the golden fixtures into server-parity oracles: the daemon
executes through the unchanged scheduler and ships events through the
result cache's canonical wire form, so a single drifted byte anywhere
in the protocol, the wire serialization or the dedupe layer fails here
with a table diff.  A second daemon re-renders two figures at
``n_jobs=4`` on the warm persistent pool, pinning parallel server runs
to the same bytes.
"""

from __future__ import annotations

import pytest

from test_golden_master import (
    GOLDEN_DIR,
    _assert_matches_golden,
    render_all,
    render_figures,
)

from repro.eval.cache import ResultCache
from repro.eval.client import EvalClient
from repro.eval.experiments import FIGURES_BY_ID, plan_jobs
from repro.eval.jobs import merge_jobs
from repro.eval.pipeline import QUICK_SCALE
from repro.eval.report import format_figure
from repro.eval.server import start_server_thread
from repro.eval.trace_store import TraceStore


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-parity")
    with start_server_thread(
        n_jobs=1,
        cache=ResultCache(tmp / "cache"),
        trace_store=TraceStore(tmp / "traces"),
    ) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(daemon):
    with EvalClient(daemon.address) as eval_client:
        yield eval_client


def _via(client):
    """``run(tasks) -> [events]`` through the daemon."""
    def run(tasks):
        return [result.events for result in client.run_tasks(tasks)]
    return run


@pytest.fixture(scope="module")
def server_tables(client):
    return render_all(_via(client))


def test_server_tables_match_golden_fixtures(server_tables):
    """Figures 3-10 plus the scenario and integrity tables, fetched
    through the daemon, must be byte-identical to the fixtures the
    oracle wrote."""
    assert GOLDEN_DIR.exists()
    _assert_matches_golden(server_tables)


def test_second_fetch_is_hot_and_identical(client, server_tables):
    """Refetching through the warm daemon (hot LRU, zero executions)
    renders the very same bytes."""
    refetched = render_figures(_via(client))
    assert client.last_request["counts"]["executed"] == 0
    assert client.last_request["counts"]["hot"] > 0
    for figure_id, rendered in refetched.items():
        assert rendered == server_tables[figure_id]


def test_parallel_server_run_matches_golden(tmp_path):
    """The same figure tables through a ``--jobs 4`` daemon (warm
    persistent pool, lane-sharded batches) stay byte-identical."""
    figure_ids = ["figure5", "figure10"]
    with start_server_thread(
        n_jobs=4,
        trace_store=TraceStore(tmp_path / "traces"),
    ) as handle:
        with EvalClient(handle.address) as client:
            tasks = merge_jobs(plan_jobs(figure_ids, scale=QUICK_SCALE))
            results = client.run_tasks(tasks)
    events = {result.task.workload: result.events
              for result in results}
    for figure_id in figure_ids:
        rendered = format_figure(FIGURES_BY_ID[figure_id](events))
        golden = (GOLDEN_DIR / f"{figure_id}.txt").read_text()
        assert rendered + "\n" == golden, f"{figure_id} drifted"
