"""repro — a reproduction of *Fast Secure Processor for Inhibiting
Software Piracy and Tampering* (Yang, Zhang, Gao; MICRO-36, 2003).

The paper's contribution is one-time-pad (counter-mode) memory encryption
with an on-chip Sequence Number Cache (SNC), which moves the decryption
work of an XOM-style secure processor off the memory-access critical path:
a read miss costs ``MAX(memory, crypto) + 1`` instead of
``memory + crypto``.

Package map (the README's repository map has the full inventory):

* :mod:`repro.crypto` — from-scratch DES/3DES/AES, SHA, RSA, MACs, and the
  counter-mode pad generation.
* :mod:`repro.memory` — DRAM, caches, write buffer, bus (with tap points).
* :mod:`repro.cpu` — the SRP-32 ISA, assembler and functional machine.
* :mod:`repro.secure` — the paper's engines (XOM and OTP+SNC), seeds,
  compartments, vendor packaging, integrity extension, the
  protection-scheme registry (:mod:`repro.secure.schemes` — one
  :class:`~repro.secure.schemes.SchemeSpec` per scheme, spanning the
  functional, timing and evaluation layers), and the assembled
  :class:`~repro.secure.processor.SecureProcessor`.
* :mod:`repro.timing` / :mod:`repro.workloads` / :mod:`repro.eval` — the
  trace-driven evaluation that regenerates the paper's Figures 3 and 5-10.
* :mod:`repro.attacks` — the threat model's adversary, runnable.
* :mod:`repro.area` — the CACTI-style model behind Figure 8's fairness.

Quick start::

    from repro import SecureProcessor, package_program, assemble

    cpu = SecureProcessor(key_seed="my-cpu")
    program = package_program(assemble(SOURCE), cpu.public_key)
    report = cpu.run(program)
    print(report.output, report.cycles)
"""

from repro.cpu import Machine, assemble
from repro.secure import (
    EngineKind,
    LatencyParams,
    OTPEngine,
    PlainProgram,
    ProtectionScheme,
    SchemeSpec,
    SecureProcessor,
    SecureProgram,
    SequenceNumberCache,
    SNCConfig,
    SNCPolicy,
    XOMEngine,
    all_schemes,
    get_scheme,
    package_program,
)

__version__ = "1.0.0"

__all__ = [
    "EngineKind",
    "LatencyParams",
    "Machine",
    "OTPEngine",
    "PlainProgram",
    "ProtectionScheme",
    "SNCConfig",
    "SNCPolicy",
    "SchemeSpec",
    "SecureProcessor",
    "SecureProgram",
    "SequenceNumberCache",
    "XOMEngine",
    "all_schemes",
    "assemble",
    "get_scheme",
    "package_program",
    "__version__",
]
