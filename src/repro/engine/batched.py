"""Placeholder for a removed engine entry point.

The simulator has one engine, :class:`repro.engine.executor.
ConcurrentExecutor`.  This module survives only because the traced
benchmark (``bench/layers.py``) wraps ``run_batch`` here and in
:mod:`repro.core.training` by name; nothing calls it.
"""

from ..errors import SimulationError


def run_batch(*args, **kwargs):
    """Always raises: the lockstep batch engine no longer exists."""
    raise SimulationError(
        "run_batch was removed; use ConcurrentExecutor.run"
    )
