"""Warm-pool batch engine: persistent workers + cross-scenario reuse.

:mod:`repro.batch.pool` provides the :class:`~repro.batch.pool.WarmPool`
that every parallel entry point (``build_context``,
``CRPDAnalyzer.estimate_all_pairs``, the fuzz runner, ``repro sweep``)
fans out through; :mod:`repro.batch.engine` builds scenario sweeps on top
of it, deduplicating sweep points and letting the artifact store's
sub-artifact decomposition turn a grid of configurations into mostly
cache hits.
"""

from repro.batch.engine import (
    BatchResult,
    SweepPoint,
    analyze_batch,
    sweep_grid,
)
from repro.batch.pool import WarmPool, derived, in_worker

__all__ = [
    "BatchResult",
    "SweepPoint",
    "WarmPool",
    "analyze_batch",
    "derived",
    "in_worker",
    "sweep_grid",
]
