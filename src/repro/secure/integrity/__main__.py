"""Registry completeness check: every integrity spec runs a program.

Run with ``python -m repro.secure.integrity``.  For each registered
:class:`~repro.secure.integrity.IntegritySpec`, the store/load probe
program executes end-to-end through
:class:`~repro.secure.processor.SecureProcessor` under the paper's OTP
scheme with that integrity configuration — provider construction, image
recording at install, per-line verification on every fetch — and the
output is checked.  Specs that claim to detect spoofing are then re-run
with a corrupted image (the untrusted-loader hook flips one bit) and
must raise :class:`~repro.errors.TamperDetected`.  Every spec with a
timing twin must also price a synthetic recording through
``replay_columns`` exactly as through its per-event methods.  Exits
non-zero if any spec fails, so CI catches a provider whose layers
drifted or that skips the columnar path.
"""

from __future__ import annotations

import random
import sys
from array import array

from repro.cpu.assembler import assemble
from repro.errors import TamperDetected
from repro.secure.integrity import IntegrityConfig, all_integrities
from repro.secure.processor import SecureProcessor
from repro.secure.schemes.__main__ import _EXPECTED, _SOURCE
from repro.secure.software import SegmentKind, package_program
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_RESET,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
)


def _processor(spec_key: str) -> SecureProcessor:
    return SecureProcessor(
        key_seed="integrity-check", engine_kind="otp", integrity=spec_key,
    )


def check_integrity(spec, plain) -> str | None:
    """Run one spec end-to-end; return an error string or None."""
    cpu = _processor(spec.key)
    program = package_program(
        plain, cpu.public_key, vendor_seed="integrity-check",
    )
    try:
        report = cpu.run(program)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        return f"raised {type(exc).__name__}: {exc}"
    if report.output != _EXPECTED:
        return f"output {report.output!r} != expected {_EXPECTED!r}"
    if spec.key != "none" and report.integrity is None:
        return "spec built no provider"
    if report.integrity is not None and (
        report.integrity.stats.verifications == 0
    ):
        return "provider never verified a line"

    if "spoof" not in spec.detects:
        return None
    # Detection half: the untrusted loader corrupts one code line; the
    # first fetch of it must trip the provider.
    code_base = next(
        segment.base for segment in program.segments
        if segment.kind is SegmentKind.CODE
    )

    def corrupt(dram, bus) -> None:
        line = bytearray(dram.read_line(code_base))
        line[0] ^= 0x01
        dram.write_line(code_base, bytes(line))

    cpu = _processor(spec.key)
    program = package_program(
        plain, cpu.public_key, vendor_seed="integrity-check",
    )
    try:
        cpu.run(program, on_install=corrupt)
    except TamperDetected:
        return None
    return "corrupted image executed without TamperDetected"


def replay_per_event(model, kinds, lines) -> None:
    """What ``replay_columns`` must equal: one per-event call per
    recorded event, as the oracle makes them."""
    for kind, line in zip(kinds, lines):
        if kind == EVENT_WRITEBACK:
            model.update(line)
        elif kind == EVENT_RESET:
            model.reset_counts()
        elif kind != EVENT_SWITCH:
            model.verify(line, critical=kind == EVENT_READ)


def check_columns(spec) -> str | None:
    """Price a synthetic recording (every event kind, two RESETs, lines
    on both sides of the covered region) through the timing twin's
    ``replay_columns`` and through its per-event methods; return an
    error string or None."""
    config = IntegrityConfig(base_addr=16 * 128, n_lines=16,
                             node_cache_entries=5)
    columnar = spec.build_timing_model(config)
    per_event = spec.build_timing_model(config)
    if not callable(getattr(columnar, "replay_columns", None)):
        return "timing twin has no replay_columns"
    rng = random.Random(spec.key)
    kinds = array("B", rng.choices(
        (EVENT_READ, EVENT_ALLOC, EVENT_WRITEBACK, EVENT_SWITCH),
        (4, 2, 4, 1), k=600))
    kinds[150] = kinds[300] = EVENT_RESET
    lines = array("Q", (rng.randrange(48) for _ in kinds))
    columnar.replay_columns(kinds, lines)
    replay_per_event(per_event, kinds, lines)
    if columnar.counts != per_event.counts:
        return (f"replay_columns counted {columnar.counts}, the per-event "
                f"methods {per_event.counts}")
    return None


def main() -> int:
    plain = assemble(_SOURCE, name="integrity-check")
    specs = all_integrities()
    print(f"integrity registry completeness check ({len(specs)} specs):")
    failures = []
    for spec in specs:
        error = check_integrity(spec, plain)
        if error is None and spec.verifies:
            error = check_columns(spec)
        if error is None:
            status = "ok"
        else:
            status = f"FAIL ({error})"
            failures.append(f"{spec.key}: {error}")
        detects = ",".join(sorted(spec.detects)) or "-"
        print(f"  {spec.key:<18} {spec.title:<28} "
              f"detects={detects:<20} {status}")
    if failures:
        print(f"{len(failures)} spec(s) failed", file=sys.stderr)
        return 1
    print("every registered integrity spec ran end-to-end")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
