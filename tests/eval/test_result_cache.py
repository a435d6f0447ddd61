"""Tests for the on-disk result cache: hit/miss, invalidation, robustness."""

import json
from pathlib import Path

import pytest

from oracle import produce_task

import repro.timing
from repro.eval.cache import (
    ResultCache,
    _fingerprint_module_names,
    code_fingerprint,
    default_cache_dir,
    events_from_dict,
    events_to_dict,
)
from repro.eval.jobs import (
    SimulationTask,
    price_batch,
    standard_snc_specs,
)
from repro.eval.pipeline import SimulationScale

_SCALE = SimulationScale(warmup_refs=5_000, measure_refs=10_000)


def _task(workload="art", snc_keys=("lru64",), scale=_SCALE, seed=1):
    specs = standard_snc_specs()
    return SimulationTask(
        workload=workload,
        snc_configs=tuple(specs[key] for key in snc_keys),
        scale=scale, seed=seed,
    )


@pytest.fixture(scope="module")
def art_events():
    return produce_task(_task())


class TestRoundTrip:
    def test_events_survive_serialization(self, art_events):
        assert events_from_dict(events_to_dict(art_events)) == art_events

    def test_miss_then_put_then_hit(self, tmp_path, art_events):
        cache = ResultCache(tmp_path)
        task = _task()
        assert cache.get(task) is None
        cache.put(task, art_events)
        assert cache.get(task) == art_events
        assert (cache.hits, cache.misses) == (1, 1)

    def test_entry_is_inspectable_json(self, tmp_path, art_events):
        cache = ResultCache(tmp_path)
        task = _task()
        cache.put(task, art_events)
        payload = json.loads(cache.path_for(task).read_text())
        assert payload["task"]["workload"] == "art"
        assert payload["events"]["read_misses"] == art_events.read_misses


class TestInvalidation:
    @pytest.mark.parametrize("other", [
        _task(workload="vpr"),
        _task(snc_keys=("lru32",)),
        _task(snc_keys=("lru64", "norepl64")),
        _task(scale=SimulationScale(warmup_refs=5_000,
                                    measure_refs=10_001)),
        _task(seed=2),
    ])
    def test_any_config_change_is_a_miss(self, tmp_path, art_events, other):
        cache = ResultCache(tmp_path)
        cache.put(_task(), art_events)
        assert cache.get(other) is None

    def test_key_includes_code_fingerprint(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        before = cache.key_for(_task())
        code_fingerprint.cache_clear()
        monkeypatch.setattr("repro.eval.cache.code_fingerprint",
                            lambda: "deadbeef")
        try:
            assert cache.key_for(_task()) != before
        finally:
            code_fingerprint.cache_clear()

    def test_fingerprint_covers_every_timing_module(self):
        # The batch pricer and its stack tier compute every SNC and
        # integrity count, so an edit to any timing module must miss.
        timing = Path(repro.timing.__file__).parent
        modules = {f"repro.timing.{path.stem}"
                   for path in timing.glob("*.py")
                   if path.stem != "__init__"}
        assert modules >= {"repro.timing.batch", "repro.timing.stack"}
        assert modules <= set(_fingerprint_module_names())

    def test_result_fingerprint_covers_the_pricing_call(self):
        # price_batch builds each task's state machines and assembles
        # its events, so an edit there must miss the result cache; it
        # stays out of the trace store's key, which only the record
        # pass decides.
        from repro.eval import trace_store

        module = price_batch.__module__
        assert module in _fingerprint_module_names()
        assert module not in trace_store._FINGERPRINT_MODULES

    def test_fingerprint_is_stable_hex(self):
        first = code_fingerprint()
        assert first == code_fingerprint()
        assert len(first) == 64
        int(first, 16)

    @pytest.mark.parametrize("edit, changes", [
        (lambda source: source.replace('"""', '"""Edited. ', 1), False),
        (lambda source: source.replace(
            '    """', '    """Edited function or class docstring. ', 1),
         False),
        (lambda source: "# A comment shifting every line.\n\n" + source
         + "\n# A trailing comment.\n", False),
        (lambda source: source + "\n_EXTRA = 1\n", True),
    ], ids=["module docstring", "inner docstring", "comments", "code"])
    def test_fingerprints_follow_code_not_documentation(
            self, tmp_path, monkeypatch, edit, changes):
        # repro.workloads.spec keys both the result cache and the trace
        # store; point the module at an edited copy of its source.
        import repro.workloads.spec as spec
        from repro.eval.trace_store import record_fingerprint

        fingerprints = (code_fingerprint.__wrapped__,
                        record_fingerprint.__wrapped__)
        before = [fingerprint() for fingerprint in fingerprints]
        source = Path(spec.__file__).read_text()
        edited = tmp_path / "spec.py"
        edited.write_text(edit(source))
        assert edited.read_text() != source
        monkeypatch.setattr(spec, "__file__", str(edited))
        after = [fingerprint() for fingerprint in fingerprints]
        assert [a != b for a, b in zip(after, before)] == [changes] * 2


class TestRobustness:
    def test_corrupt_entry_degrades_to_miss(self, tmp_path, art_events):
        cache = ResultCache(tmp_path)
        task = _task()
        cache.put(task, art_events)
        cache.path_for(task).write_text("{not json")
        assert cache.get(task) is None

    def test_wrong_shape_degrades_to_miss(self, tmp_path, art_events):
        cache = ResultCache(tmp_path)
        task = _task()
        cache.put(task, art_events)
        cache.path_for(task).write_text(json.dumps({"events": {"bad": 1}}))
        assert cache.get(task) is None

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EVAL_CACHE_DIR", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"

    def test_no_tmp_files_left_behind(self, tmp_path, art_events):
        cache = ResultCache(tmp_path)
        cache.put(_task(), art_events)
        assert not list(tmp_path.glob("*.tmp"))

    def test_unwritable_root_never_aborts_the_run(self, tmp_path,
                                                  art_events):
        # A cache root that cannot be a directory (it's a file) makes
        # every write fail with OSError — even when running as root,
        # where a read-only directory would not.
        root = tmp_path / "not-a-dir"
        root.write_text("occupied")
        cache = ResultCache(root)
        cache.put(_task(), art_events)  # must not raise
        assert cache.put_errors == 1
        assert cache.get(_task()) is None
