"""Ablation: a finer SNC capacity sweep than the paper's three points.

Figure 6 samples 32/64/128KB; this extension sweeps 16KB-256KB on the two
capacity-sensitive benchmarks (equake: a sharp fit cliff; mcf: a gradual
locality gradient) and reports where each one's knee falls — the data a
designer sizing an SNC actually wants.
"""

import pytest

from repro.eval.api import (
    PAPER_LATENCIES,
    SimulationScale,
    SimulationTask,
    SNCSpec,
    price_batch,
    record,
    record_task_for,
)
from repro.timing.model import baseline_cycles, otp_cycles, slowdown_pct

_SIZES_KB = (16, 32, 64, 128, 256)
_SCALE = SimulationScale(warmup_refs=120_000, measure_refs=150_000)


def simulate(task: SimulationTask):
    return price_batch([task], record(record_task_for(task)))[0]


def sweep(bench_name: str) -> dict[int, float]:
    events = simulate(SimulationTask(
        workload=bench_name,
        snc_configs=tuple(SNCSpec(key=f"{kb}kb", size_bytes=kb * 1024)
                          for kb in _SIZES_KB),
        scale=_SCALE,
    ))
    base = baseline_cycles(events.trace_events(), PAPER_LATENCIES)
    return {
        kb: slowdown_pct(
            otp_cycles(events.trace_events(f"{kb}kb"), PAPER_LATENCIES),
            base,
        )
        for kb in _SIZES_KB
    }


@pytest.fixture(scope="module")
def sweeps():
    return {name: sweep(name) for name in ("equake", "mcf")}


def test_snc_capacity_sweep(sweeps, record_figure, benchmark):
    lines = [
        "ablation: SNC capacity sweep, slowdown [%] (extension of Fig 6)",
        f"{'SNC size':<10}" + "".join(f"{kb:>9}KB" for kb in _SIZES_KB),
        "-" * (10 + 11 * len(_SIZES_KB)),
    ]
    for name, curve in sweeps.items():
        lines.append(
            f"{name:<10}"
            + "".join(f"{curve[kb]:>11.2f}" for kb in _SIZES_KB)
        )
    record_figure("ablation_snc_sweep", "\n".join(lines))

    equake, mcf = sweeps["equake"], sweeps["mcf"]
    # equake: a cliff — thrashing at 16/32KB, floor from 64KB up.
    assert equake[32] > 5 * equake[64]
    assert equake[64] == pytest.approx(equake[256], abs=0.3)
    # mcf: a gradient — monotone improvement across the whole sweep.
    values = [mcf[kb] for kb in _SIZES_KB]
    assert all(a >= b - 0.2 for a, b in zip(values, values[1:]))
    assert mcf[16] > 3 * mcf[128]

    # Timed portion: one equake sweep point at reduced scale.
    benchmark(simulate, SimulationTask(
        workload="equake",
        snc_configs=(SNCSpec(key="64kb"),),
        scale=SimulationScale(warmup_refs=30_000, measure_refs=30_000),
    ))
