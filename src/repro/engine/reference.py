"""Step-accurate reference simulation engine.

Drives any :class:`~repro.predictors.base.BranchPredictor` over a
:class:`~repro.trace.stream.Trace` one record at a time, exactly as the
paper's modified ``sim-bpred`` does: predict, compare, train.  This
engine is the semantic ground truth every carrier is tested against.
"""

from __future__ import annotations

import numpy as np

from ..predictors.base import BranchPredictor
from ..predictors.hybrid import ClassRoutedHybrid
from ..predictors.static import OraclePredictor
from ..predictors.tournament import TournamentPredictor
from ..trace.stream import Trace
from .results import SimulationResult

__all__ = ["simulate_reference"]


def oracles_in(predictor: BranchPredictor) -> list[OraclePredictor]:
    """Every :class:`OraclePredictor` the engine must prime: the
    predictor itself, or a component of a tournament or class-routed
    hybrid, at any depth."""
    if isinstance(predictor, OraclePredictor):
        return [predictor]
    if isinstance(predictor, TournamentPredictor):
        parts = [predictor.first, predictor.second]
    elif isinstance(predictor, ClassRoutedHybrid):
        parts = predictor.components
    else:
        return []
    return [oracle for part in parts for oracle in oracles_in(part)]


def simulate_reference(
    predictor: BranchPredictor,
    trace: Trace,
    *,
    reset: bool = True,
) -> SimulationResult:
    """Simulate ``predictor`` over ``trace`` and attribute misses per PC.

    Parameters
    ----------
    predictor:
        Any branch predictor.  An :class:`OraclePredictor`, or one held
        by a tournament or class-routed hybrid, is primed with each
        outcome before prediction (:func:`oracles_in`).
    trace:
        The branch stream to simulate, in program order.
    reset:
        Reset the predictor first (default).  Pass ``False`` to continue
        warming an already-trained predictor across trace segments.
    """
    if reset:
        predictor.reset()

    # Encode PCs densely so per-branch accumulation is two bincounts
    # rather than a Python dict per record.
    unique_pcs, codes = np.unique(trace.pcs, return_inverse=True)
    miss_counts = np.zeros(len(unique_pcs), dtype=np.int64)

    pcs = trace.pcs
    outcomes = trace.outcomes
    primes = [oracle.prime for oracle in oracles_in(predictor)]
    predict = predictor.predict
    update = predictor.update

    for i in range(len(pcs)):
        pc = int(pcs[i])
        taken = bool(outcomes[i])
        for prime in primes:
            prime(taken)
        if predict(pc) != taken:
            miss_counts[codes[i]] += 1
        update(pc, taken)

    executions = np.bincount(codes, minlength=len(unique_pcs)).astype(np.int64)
    return SimulationResult(
        unique_pcs,
        executions,
        miss_counts,
        predictor_name=predictor.name,
        trace_name=trace.name,
    )
