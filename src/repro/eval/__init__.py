"""Evaluation harness: job graph, scheduler, cache, figures, reporting.

The stable public surface is :mod:`repro.eval.api`; import from there.
"""
