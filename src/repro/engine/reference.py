"""Step-accurate reference simulation engine.

Drives any :class:`~repro.predictors.base.BranchPredictor` over a
:class:`~repro.trace.stream.Trace` one record at a time, exactly as the
paper's modified ``sim-bpred`` does: predict, compare, train.  This
engine is the semantic ground truth every carrier is tested against.
"""

from __future__ import annotations

import numpy as np

from ..predictors.base import BranchPredictor
from ..predictors.static import OraclePredictor
from ..trace.stream import Trace
from .results import SimulationResult

__all__ = ["simulate_reference"]


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
        Any branch predictor.  :class:`OraclePredictor` is recognised
        and primed with each outcome before prediction.
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
    is_oracle = isinstance(predictor, OraclePredictor)
    predict = predictor.predict
    update = predictor.update

    for i in range(len(pcs)):
        pc = int(pcs[i])
        taken = bool(outcomes[i])
        if is_oracle:
            predictor.prime(taken)
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
