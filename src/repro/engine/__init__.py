"""Predictor simulation engines.

:func:`simulate` is the front door: it runs the predictor's carrier
(or the oracle, on request) and produces identical
:class:`SimulationResult` objects whichever path runs.

There is one engine plus an oracle (see ``docs/ENGINES.md``):

``reference`` (:func:`simulate_reference`)
    Step-accurate Python loop: predict, compare, train — exactly the
    paper's modified ``sim-bpred``.  Supports **every** predictor.  The
    semantic ground truth every other path is tested against.

carriers (:func:`stream_simulator`, :class:`~repro.engine.batched.BatchedStream`)
    One chunked simulator per predictor family, carrying all predictor
    state between chunks: the two-level family (many configurations in
    one pass) runs a compiled sweep kernel or, without a C compiler,
    segmented-scan arrays; agree, tournament, class-routed hybrids and
    static predictors run arrays, with each tournament or hybrid
    component on its own carrier; YAGS/bi-mode/filter/DHLF run C
    per-record kernels or, without a C compiler, the stateful
    predictors (:mod:`repro.engine.backend`).
    :func:`simulate` and :func:`simulate_batched` feed them the whole
    trace as one chunk; :func:`simulate_stream` and
    :func:`simulate_batched_stream` feed them an iterator of chunks
    with peak memory O(chunk).

``engine`` is ``"auto"`` (the family's carrier) or ``"reference"``
(the oracle).  Callers can pass either a stateful
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
)
from .batched import simulate_batched, simulate_batched_stream, supports_batched
from .reference import simulate_reference
from .results import BranchResult, SimulationResult
from .scan import counter_step_table, segmented_automaton_scan, segmented_saturating_scan
from .streaming import simulate_stream, stream_simulator

__all__ = [
    "simulate",
    "simulate_reference",
    "simulate_batched",
    "simulate_stream",
    "simulate_batched_stream",
    "stream_simulator",
    "supports_batched",
    "BACKENDS",
    "backend_availability",
    "compiled_stream",
    "resolve_backend",
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
        ``"auto"`` (the predictor's carrier, see
        :func:`stream_simulator`) or ``"reference"`` (the oracle).
        Anything else raises :class:`~repro.errors.ConfigurationError`.
        The carriers' kernels come from ``REPRO_ENGINE_BACKEND`` (see
        :mod:`repro.engine.backend` and docs/PERFORMANCE.md).
    """
    predictor = build_predictor(predictor)
    if engine == "reference":
        return simulate_reference(predictor, trace)
    return simulate_stream(predictor, [trace], engine=engine, trace_name=trace.name)
