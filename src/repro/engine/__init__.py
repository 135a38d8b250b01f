"""Predictor simulation engines.

:func:`simulate` is the front door: it dispatches to the fastest engine
that supports the predictor and produces identical
:class:`SimulationResult` objects whichever engine runs.

There is one engine plus an oracle (see ``docs/ENGINES.md``):

``reference`` (:func:`simulate_reference`)
    Step-accurate Python loop: predict, compare, train — exactly the
    paper's modified ``sim-bpred``.  Supports **every** predictor.  The
    semantic ground truth every other path is tested against.

carriers (:func:`stream_simulator`, :class:`~repro.engine.batched.BatchedStream`)
    One chunked simulator per predictor family, carrying all predictor
    state between chunks: segmented-scan arrays for the two-level
    family (many configurations in one pass), agree, tournament,
    class-routed hybrids and static predictors; compiled per-record
    kernels for YAGS/bi-mode/filter/DHLF (:mod:`repro.engine.backend`).
    The streamed entry points (:func:`simulate_stream`,
    :func:`simulate_batched_stream`, :func:`simulate_sweep_stream`)
    feed them an iterator of chunks with peak memory O(chunk); the
    in-memory ones (:func:`simulate_vectorized`,
    :func:`simulate_batched`, :func:`simulate_sweep`, ...) feed them
    the whole trace as one chunk.

``engine`` names which carrier may run: ``"vectorized"`` the array
carriers, ``"batched"`` the two-level one, ``"auto"`` the fastest
available.  Callers can pass either a stateful
:class:`~repro.predictors.base.BranchPredictor` or a declarative
:class:`~repro.spec.PredictorSpec` — specs are built on the way in.
For many jobs at once, prefer :class:`repro.session.Session`, which
plans spec jobs into batched invocations (see ``docs/API.md``).
"""

from __future__ import annotations

from ..predictors.base import BranchPredictor
from ..spec import PredictorSpec, build_predictor
from ..trace.stream import Trace
from .backend import (
    BACKENDS,
    backend_availability,
    compiled_stream,
    resolve_backend,
    supports_compiled,
)
from .batched import (
    BatchedSweepResult,
    predictions_batched,
    simulate_batched,
    simulate_batched_stream,
    simulate_sweep,
    simulate_sweep_stream,
    supports_batched,
)
from .reference import simulate_reference
from .results import BranchResult, SimulationResult
from .scan import counter_step_table, segmented_automaton_scan, segmented_saturating_scan
from .streaming import (
    predictions_vectorized,
    simulate_stream,
    simulate_vectorized,
    stream_simulator,
    supports_vectorized,
)

__all__ = [
    "simulate",
    "simulate_reference",
    "simulate_vectorized",
    "simulate_batched",
    "simulate_sweep",
    "simulate_stream",
    "simulate_batched_stream",
    "simulate_sweep_stream",
    "stream_simulator",
    "predictions_vectorized",
    "predictions_batched",
    "supports_vectorized",
    "supports_batched",
    "BACKENDS",
    "backend_availability",
    "compiled_stream",
    "resolve_backend",
    "supports_compiled",
    "BatchedSweepResult",
    "SimulationResult",
    "BranchResult",
    "segmented_automaton_scan",
    "segmented_saturating_scan",
    "counter_step_table",
]


def simulate(
    predictor: BranchPredictor | PredictorSpec,
    trace: Trace,
    *,
    engine: str = "auto",
    backend: str | None = None,
) -> SimulationResult:
    """Simulate a predictor over a trace.

    Parameters
    ----------
    predictor:
        Any branch predictor, or a declarative
        :class:`~repro.spec.PredictorSpec` (built on entry).
    trace:
        Branch stream in program order.
    engine:
        ``"auto"`` (the array carrier when supported, compiled
        per-record kernels for the YAGS/bi-mode/filter/DHLF families,
        reference otherwise), ``"vectorized"`` (error if unsupported),
        ``"batched"`` (two-level family only; a one-configuration
        batch), or ``"reference"`` (the oracle).
    backend:
        Compiled-kernel implementation for the reference-path families
        (``python``/``cext``/``auto``; see :mod:`repro.engine.backend`
        and docs/PERFORMANCE.md).  Default: ``REPRO_ENGINE_BACKEND``,
        else auto-detect.
    """
    predictor = build_predictor(predictor)
    if engine == "reference":
        return simulate_reference(predictor, trace)
    return simulate_stream(
        predictor, [trace], engine=engine, backend=backend, trace_name=trace.name
    )
