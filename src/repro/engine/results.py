"""Simulation result containers and the per-PC attribution that fills them.

A predictor simulation produces, for every static branch, how many
times it executed and how many of those executions were mispredicted.
:class:`SimulationResult` stores those per-PC columns and derives the
aggregate and per-branch miss rates every analysis in the paper is
built from; :func:`_attribute_chunks` gathers them from a carrier's
per-branch miss counts, chunk by chunk.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..trace.stream import Trace

__all__ = ["BranchResult", "SimulationResult"]


@dataclass(frozen=True, slots=True)
class BranchResult:
    """Prediction outcome summary for one static branch."""

    pc: int
    executions: int
    mispredictions: int

    def __post_init__(self) -> None:
        if self.executions < 0 or self.mispredictions < 0:
            raise TraceError("counts must be non-negative")
        if self.mispredictions > self.executions:
            raise TraceError(
                f"mispredictions {self.mispredictions} exceed executions {self.executions}"
            )

    @property
    def miss_rate(self) -> float:
        """Fraction of this branch's executions that were mispredicted."""
        if self.executions == 0:
            return 0.0
        return self.mispredictions / self.executions


class SimulationResult(Mapping[int, BranchResult]):
    """Per-branch misprediction counts for one predictor over one trace.

    Mapping interface: ``result[pc]`` yields a :class:`BranchResult`.
    Column interface: :attr:`pcs`, :attr:`executions`,
    :attr:`mispredictions` are aligned numpy arrays.
    """

    __slots__ = ("_pcs", "_executions", "_mispredictions", "_index", "predictor_name", "trace_name")

    def __init__(
        self,
        pcs,
        executions,
        mispredictions,
        *,
        predictor_name: str = "",
        trace_name: str = "",
    ) -> None:
        self._pcs = np.asarray(pcs, dtype=np.int64)
        self._executions = np.asarray(executions, dtype=np.int64)
        self._mispredictions = np.asarray(mispredictions, dtype=np.int64)
        if not (len(self._pcs) == len(self._executions) == len(self._mispredictions)):
            raise TraceError("result columns must have equal length")
        if np.any(self._mispredictions > self._executions):
            raise TraceError("mispredictions cannot exceed executions")
        if np.any(self._mispredictions < 0) or np.any(self._executions < 0):
            raise TraceError("counts must be non-negative")
        for arr in (self._pcs, self._executions, self._mispredictions):
            arr.setflags(write=False)
        self._index = dict(zip(self._pcs.tolist(), range(len(self._pcs))))
        self.predictor_name = predictor_name
        self.trace_name = trace_name

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, pc: int) -> BranchResult:
        i = self._index[pc]
        return BranchResult(
            pc=int(self._pcs[i]),
            executions=int(self._executions[i]),
            mispredictions=int(self._mispredictions[i]),
        )

    def __iter__(self) -> Iterator[int]:
        return (int(pc) for pc in self._pcs)

    def __len__(self) -> int:
        return len(self._pcs)

    # -- column access ---------------------------------------------------

    @property
    def pcs(self) -> np.ndarray:
        """Distinct static branch PCs (sorted)."""
        return self._pcs

    @property
    def executions(self) -> np.ndarray:
        """Executions per PC."""
        return self._executions

    @property
    def mispredictions(self) -> np.ndarray:
        """Mispredictions per PC."""
        return self._mispredictions

    # -- aggregates --------------------------------------------------------

    @property
    def total_executions(self) -> int:
        """Total dynamic branches simulated."""
        return int(self._executions.sum())

    @property
    def total_mispredictions(self) -> int:
        """Total mispredictions across all branches."""
        return int(self._mispredictions.sum())

    @property
    def miss_rate(self) -> float:
        """Overall miss rate (dynamic-weighted)."""
        total = self.total_executions
        if total == 0:
            return 0.0
        return self.total_mispredictions / total

    @property
    def accuracy(self) -> float:
        """Overall prediction accuracy (1 − miss rate)."""
        return 1.0 - self.miss_rate

    def miss_rates(self) -> np.ndarray:
        """Per-PC miss rate array aligned with :attr:`pcs`."""
        execs = np.maximum(self._executions, 1)
        return np.where(self._executions > 0, self._mispredictions / execs, 0.0)

    def misses_for(self, pcs) -> tuple[int, int]:
        """(executions, mispredictions) summed over a set of PCs."""
        wanted = np.asarray(sorted(set(int(p) for p in pcs)), dtype=np.int64)
        mask = np.isin(self._pcs, wanted)
        return int(self._executions[mask].sum()), int(self._mispredictions[mask].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult(predictor={self.predictor_name!r}, "
            f"trace={self.trace_name!r}, miss_rate={self.miss_rate:.4f})"
        )


# -- per-PC attribution ---------------------------------------------------------


def count_misses(predictions, outcomes: np.ndarray, ids: np.ndarray, width: int) -> np.ndarray:
    """``(len(predictions) × width)`` misses per branch from per-step
    predictions: column ``j`` of row ``r`` counts the steps with
    ``ids == j`` that ``predictions[r]`` got wrong.  Every carrier
    without a counting kernel is counted this way."""
    misses = np.zeros((len(predictions), width), dtype=np.int64)
    for row, predicted in enumerate(predictions):
        # Misses are 0/1, so counting the missed ids directly beats a
        # weighted bincount over the whole chunk.
        misses[row] = np.bincount(ids[predicted != outcomes], minlength=width)
    return misses


def _as_trace(chunk) -> Trace:
    """A chunk as a validated :class:`~repro.trace.stream.Trace`.

    A ``(pcs, outcomes)`` pair passes the same checks as a trace (equal
    lengths, non-negative PCs, 0/1 outcomes) before any carrier sees
    it; views keep the caller's own arrays writeable.
    """
    if isinstance(chunk, Trace):
        return chunk
    pcs, outcomes = chunk
    return Trace(np.asarray(pcs).view(), np.asarray(outcomes).view())


def _attribute_chunks(
    count, predictors, chunks: Iterable, trace_name: str | None = None
) -> list[SimulationResult]:
    """Feed every chunk to a carrier and gather its misses per PC.

    ``count(pcs, outcomes, ids, width)`` advances the carrier over one
    chunk and returns its ``(len(predictors) × width)`` miss matrix,
    where ``ids`` (int64) numbers each step's branch by its rank among
    the chunk's ``width`` distinct PCs: the ids of the chunk's branch
    dictionary (:meth:`~repro.trace.stream.Trace.dictionary`), widened.
    A counting kernel fills the matrix as it steps; other carriers use
    :func:`count_misses`.  Chunks are
    :class:`~repro.trace.stream.Trace` objects or ``(pcs, outcomes)``
    pairs, which are validated like traces.  The result's trace name is
    ``trace_name``, else the first named chunk's.  This is the per-PC
    attribution of every engine except the reference oracle, which
    keeps its own.
    """
    pcs_axis = np.zeros(0, dtype=np.int64)
    # Row 0 counts executions; row 1 + i counts predictor i's misses.
    counts = np.zeros((len(predictors) + 1, 0), dtype=np.int64)
    name = trace_name
    for chunk in chunks:
        trace = _as_trace(chunk)
        if name is None and trace.name:
            name = trace.name
        if len(trace) == 0:
            continue
        chunk_pcs, ids = trace.dictionary()
        width = len(chunk_pcs)
        misses = count(trace.pcs, trace.outcomes, ids.astype(np.int64), width)
        # The first chunk's sorted unique PCs are the axis as they stand.
        merged = np.union1d(pcs_axis, chunk_pcs) if len(pcs_axis) else chunk_pcs
        if len(merged) > len(pcs_axis):
            # New PCs: move the counts onto the widened sorted axis.
            grown = np.zeros((len(counts), len(merged)), dtype=np.int64)
            grown[:, np.searchsorted(merged, pcs_axis)] = counts
            pcs_axis, counts = merged, grown
        rows = np.searchsorted(pcs_axis, chunk_pcs)
        counts[0, rows] += np.bincount(ids, minlength=width)
        counts[1:, rows] += misses
    return [
        SimulationResult(
            pcs_axis,
            counts[0],
            counts[row],
            predictor_name=predictor.name,
            trace_name=name or "",
        )
        for row, predictor in enumerate(predictors, 1)
    ]
