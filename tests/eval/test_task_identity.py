"""Task identity pinned by value.

A task's ``config_hash()`` keys the result cache and ``perfbench/pins.json``;
its record task's hash names the recording it prices; its wire form is what
serve protocol v1 clients send.  These literals were taken from the code
that wrote the committed pins, so a refactor of the task classes that moves
any of them re-keys every cached result and breaks old clients — the test
fails instead.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.api import (
    QUICK_SCALE,
    IntegrityModelSpec,
    ScenarioTask,
    SimulationTask,
    SourceSpec,
    record_task_for,
    scenario_snc_specs,
    standard_snc_specs,
    task_from_wire,
    task_to_wire,
)


def _snc(key, assoc=None, scheme="otp"):
    return {"key": key, "size_bytes": 65536, "entry_bytes": 2,
            "assoc": assoc, "policy": "lru", "scheme": scheme}


def _integrity(key, provider, node_cache_entries=0, tag_bytes=16):
    return {"key": key, "provider": provider, "n_lines": 524288,
            "node_cache_entries": node_cache_entries,
            "tag_bytes": tag_bytes}


def _source(kind, workloads, quantum=0):
    return {"kind": kind, "workloads": workloads, "quantum": quantum,
            "trace_path": "", "xom_slowdown_pct": 15.0}


def _cases():
    specs = standard_snc_specs()
    return {
        "figure-alt-l2": (
            SimulationTask(workload="art",
                           snc_configs=(specs["lru64_32way"],),
                           scale=QUICK_SCALE, alt_l2=True),
            "art",
            "d5287aa083fe78a6ba8b98d1fa16fedc1c12f61c495268ad82b162ab0ec097d2",
            "9f012c7dcb3303bb99478eec3bd68a8500fcba50e037d1ba5791e07942782d9c",
            {"snc": [_snc("lru64_32way", assoc=32)], "integrity": [],
             "scale": [30000, 50000], "seed": 1, "kind": "simulation",
             "workload": "art", "alt_l2": True},
        ),
        "integrity": (
            SimulationTask(
                workload="mcf", snc_configs=(specs["lru64"],),
                scale=QUICK_SCALE, seed=7,
                integrity=(
                    IntegrityModelSpec(key="mac", provider="mac"),
                    IntegrityModelSpec(key="tree_nc64",
                                       provider="hash_tree_cached",
                                       node_cache_entries=64),
                ),
            ),
            "mcf",
            "73820893ab66a007556280c4f2b23809103155dc4d1c560925cf13042c759def",
            "490fb12abdacfab0c1d054e7dbe927bc134e617e2b9c2d7bed75d1e02231b37d",
            {"snc": [_snc("lru64")],
             "integrity": [_integrity("mac", "mac"),
                           _integrity("tree_nc64", "hash_tree_cached",
                                      node_cache_entries=64)],
             "scale": [30000, 50000], "seed": 7, "kind": "simulation",
             "workload": "mcf", "alt_l2": False},
        ),
        "tag-one-benchmark": (
            ScenarioTask(source=SourceSpec(kind="benchmark",
                                           workloads=("art",)),
                         snc_configs=scenario_snc_specs(), strategy="tag",
                         scale=QUICK_SCALE),
            "art/tag",
            "0ae8e855f94f31be99a2b04b8bacdf4021c1c72f71f5b6e43b7e4dd43fb0448d",
            # A one-benchmark scenario records exactly the figure pass.
            "9f012c7dcb3303bb99478eec3bd68a8500fcba50e037d1ba5791e07942782d9c",
            {"snc": [_snc("lru64"),
                     _snc("lru64+otp_split", scheme="otp_split")],
             "integrity": [], "scale": [30000, 50000], "seed": 1,
             "kind": "scenario", "source": _source("benchmark", ["art"]),
             "strategy": "tag"},
        ),
        "flush-multitask-integrity": (
            ScenarioTask(
                source=SourceSpec(kind="multitask", workloads=("art", "vpr"),
                                  quantum=2000),
                snc_configs=scenario_snc_specs(), strategy="flush",
                scale=QUICK_SCALE, seed=3,
                integrity=(IntegrityModelSpec(key="mac", provider="mac",
                                              tag_bytes=8),),
            ),
            "mix(art+vpr)@q2000/flush",
            "53933337f7b04cb1ef0de1d95e84fbcfeb70812d99820045254daf43daed953b",
            "9afd59f92b1abf70ab6461f4c9f0a78ac29786dc81a8a3e5b14e0b3f97257e71",
            {"snc": [_snc("lru64"),
                     _snc("lru64+otp_split", scheme="otp_split")],
             "integrity": [_integrity("mac", "mac", tag_bytes=8)],
             "scale": [30000, 50000], "seed": 3, "kind": "scenario",
             "source": _source("multitask", ["art", "vpr"], quantum=2000),
             "strategy": "flush"},
        ),
    }


CASES = _cases()


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_config_hash_is_pinned(case):
    task, workload, task_hash, _record_hash, _wire = case
    assert task.workload == workload
    assert task.config_hash() == task_hash


def test_record_task_hash_is_pinned(case):
    task, _workload, _task_hash, record_hash, _wire = case
    assert record_task_for(task).config_hash() == record_hash


def test_wire_frame_is_pinned_byte_for_byte(case):
    """The JSON text, key order included, is the v1 frame clients send."""
    task, _workload, task_hash, _record_hash, wire = case
    text = json.dumps(task_to_wire(task))
    assert text == json.dumps(wire)
    rebuilt = task_from_wire(json.loads(text))
    assert rebuilt == task
    assert rebuilt.config_hash() == task_hash
