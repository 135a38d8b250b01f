"""Per-branch aggregation of trace streams.

This module computes, for every static branch in a trace, the three
quantities the paper's classification is built on:

* **executions** — how many times the branch ran,
* **taken count** — how many of those executions were taken, and
* **transition count** — how many times the branch's outcome differed
  from its own previous outcome (the numerator of the paper's new
  *branch transition rate* metric).

The aggregation reads the trace's branch dictionary
(:meth:`~repro.trace.stream.Trace.dictionary`): executions and taken
counts are bincounts over the branch ids, and transitions come from
one stable sort of the narrow ids (a radix sort), so profiling
multi-million-record traces costs milliseconds rather than a
Python-level loop per record.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from .stream import Trace

__all__ = ["BranchStats", "TraceStats", "taken_rate", "transition_rate"]


def taken_rate(taken: int, executions: int) -> float:
    """Taken rate = taken executions / total executions.

    A branch that never executed has taken rate 0 by convention.
    """
    if executions < 0 or taken < 0:
        raise TraceError("counts must be non-negative")
    if taken > executions:
        raise TraceError(f"taken count {taken} exceeds executions {executions}")
    if executions == 0:
        return 0.0
    return taken / executions


def transition_rate(transitions: int, executions: int) -> float:
    """Transition rate = direction changes / (executions − 1).

    The paper defines transition rate as "the number of times a branch
    changes direction ... over a given number of executions".  An
    execution stream of length *n* has *n − 1* adjacent pairs, so the
    natural normalization is *n − 1*: a perfectly alternating branch
    (T N T N ...) then has rate exactly 1.0 and lands in transition
    class 10 as the paper requires.  Branches executed fewer than twice
    have rate 0.
    """
    if executions < 0 or transitions < 0:
        raise TraceError("counts must be non-negative")
    if executions <= 1:
        if transitions:
            raise TraceError("a branch executed <= 1 time cannot transition")
        return 0.0
    if transitions > executions - 1:
        raise TraceError(
            f"transition count {transitions} exceeds maximum {executions - 1}"
        )
    return transitions / (executions - 1)


def _reduce_block(branches: np.ndarray, ids: np.ndarray, outcomes: np.ndarray):
    """Per-branch reduction of one block of records, given its dictionary.

    Returns ``(executions, taken, transitions, first_outcome,
    last_outcome)``, each aligned with ``branches`` (every branch has
    at least one record).  This is the single vectorized core behind
    both :meth:`TraceStats.from_trace` (one block = the whole trace)
    and :meth:`TraceStats.from_chunks` (one block per chunk, merged
    with carried state).
    """
    executions = np.bincount(ids, minlength=len(branches))
    # Each branch's outcomes in time order, one group per branch.
    sorted_outs = outcomes[np.argsort(ids, kind="stable")]
    ends = np.cumsum(executions) - 1
    starts = ends - executions + 1
    taken = np.add.reduceat(sorted_outs, starts, dtype=np.int64)
    # changes[k] = 1 when record k + 1 of the same group differs from
    # record k; a group's last record has no successor in it.
    changes = np.empty(len(ids), dtype=np.uint8)
    np.not_equal(sorted_outs[1:], sorted_outs[:-1], out=changes[:-1])
    changes[ends] = 0
    transitions = np.add.reduceat(changes, starts, dtype=np.int64)
    return executions, taken, transitions, sorted_outs[starts], sorted_outs[ends]


@dataclass(frozen=True, slots=True)
class BranchStats:
    """Aggregated dynamic behaviour of one static branch."""

    pc: int
    executions: int
    taken: int
    transitions: int

    def __post_init__(self) -> None:
        # Validate internal consistency once at construction so every
        # downstream rate computation can trust the counts.
        taken_rate(self.taken, self.executions)
        transition_rate(self.transitions, self.executions)

    @property
    def not_taken(self) -> int:
        """Number of not-taken executions."""
        return self.executions - self.taken

    @property
    def taken_rate(self) -> float:
        """Fraction of executions that were taken."""
        return taken_rate(self.taken, self.executions)

    @property
    def transition_rate(self) -> float:
        """Fraction of adjacent execution pairs that changed direction."""
        return transition_rate(self.transitions, self.executions)


class TraceStats(Mapping[int, BranchStats]):
    """Per-PC statistics for an entire trace.

    Behaves as an immutable mapping from branch PC to
    :class:`BranchStats`, and additionally exposes the underlying
    columns as numpy arrays for vectorized analysis.
    """

    __slots__ = ("_pcs", "_executions", "_taken", "_transitions", "_index", "name")

    def __init__(
        self,
        pcs: np.ndarray,
        executions: np.ndarray,
        taken: np.ndarray,
        transitions: np.ndarray,
        *,
        name: str = "",
    ) -> None:
        self._pcs = np.asarray(pcs, dtype=np.int64)
        self._executions = np.asarray(executions, dtype=np.int64)
        self._taken = np.asarray(taken, dtype=np.int64)
        self._transitions = np.asarray(transitions, dtype=np.int64)
        lengths = {
            len(self._pcs),
            len(self._executions),
            len(self._taken),
            len(self._transitions),
        }
        if len(lengths) != 1:
            raise TraceError("statistic columns must have equal length")
        for arr in (self._pcs, self._executions, self._taken, self._transitions):
            arr.setflags(write=False)
        self._index = dict(zip(self._pcs.tolist(), range(len(self._pcs))))
        self.name = name

    # -- construction ---------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceStats":
        """Aggregate a trace in one vectorized pass."""
        branches, ids = trace.dictionary()
        counts, taken_counts, trans_counts, _, _ = _reduce_block(branches, ids, trace.outcomes)
        return cls(branches, counts, taken_counts, trans_counts, name=trace.name)

    @classmethod
    def from_chunks(cls, chunks, *, name: str | None = None) -> "TraceStats":
        """Aggregate an iterator of trace chunks with O(chunk) memory.

        Bit-identical to :meth:`from_trace` over the concatenated
        chunks: per-chunk reductions (the same :func:`_reduce_block`
        pass, through each chunk's own dictionary) are merged into
        per-PC accumulators, and each PC's *last outcome* is carried
        across chunk boundaries so boundary-straddling transitions
        count exactly once.  ``name`` defaults to the first chunk's
        name.
        """
        pcs = np.zeros(0, dtype=np.int64)
        # Per PC on the sorted axis: executions, taken, transitions and
        # the last outcome seen (-1 before its first chunk).
        columns = np.zeros((4, 0), dtype=np.int64)
        resolved_name = name

        for chunk in chunks:
            if resolved_name is None and chunk.name:
                resolved_name = chunk.name
            if len(chunk) == 0:
                continue
            branches, ids = chunk.dictionary()
            counts, taken_counts, trans_counts, first_outs, last_outs = _reduce_block(
                branches, ids, chunk.outcomes
            )
            merged = np.union1d(pcs, branches)
            if len(merged) > len(pcs):
                # New PCs: move the columns onto the widened sorted axis.
                grown = np.zeros((4, len(merged)), dtype=np.int64)
                grown[3] = -1
                grown[:, np.searchsorted(merged, pcs)] = columns
                pcs, columns = merged, grown
            rows = np.searchsorted(pcs, branches)
            previous = columns[3, rows]
            columns[0, rows] += counts
            columns[1, rows] += taken_counts
            columns[2, rows] += trans_counts + ((previous >= 0) & (previous != first_outs))
            columns[3, rows] = last_outs

        return cls(pcs, *columns[:3], name=resolved_name or "")

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, pc: int) -> BranchStats:
        i = self._index[pc]
        return BranchStats(
            pc=int(self._pcs[i]),
            executions=int(self._executions[i]),
            taken=int(self._taken[i]),
            transitions=int(self._transitions[i]),
        )

    def __iter__(self) -> Iterator[int]:
        return (int(pc) for pc in self._pcs)

    def __len__(self) -> int:
        return len(self._pcs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceStats(static={len(self)}, dynamic={self.total_dynamic}"
            + (f", name={self.name!r})" if self.name else ")")
        )

    # -- column access ---------------------------------------------------

    @property
    def pcs(self) -> np.ndarray:
        """Sorted distinct branch PCs."""
        return self._pcs

    @property
    def executions(self) -> np.ndarray:
        """Execution count per PC (aligned with :attr:`pcs`)."""
        return self._executions

    @property
    def taken(self) -> np.ndarray:
        """Taken count per PC."""
        return self._taken

    @property
    def transitions(self) -> np.ndarray:
        """Transition count per PC."""
        return self._transitions

    @property
    def total_dynamic(self) -> int:
        """Total dynamic branch executions in the trace."""
        return int(self._executions.sum())

    def taken_rates(self) -> np.ndarray:
        """Taken rate per PC as a float array."""
        execs = self._executions
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(execs > 0, self._taken / np.maximum(execs, 1), 0.0)
        return rates

    def transition_rates(self) -> np.ndarray:
        """Transition rate per PC as a float array (denominator n − 1)."""
        execs = self._executions
        denom = np.maximum(execs - 1, 1)
        rates = np.where(execs > 1, self._transitions / denom, 0.0)
        return rates

    def dynamic_weights(self) -> np.ndarray:
        """Each PC's share of the dynamic stream (sums to 1 if nonempty)."""
        total = self.total_dynamic
        if total == 0:
            return np.zeros(0, dtype=np.float64)
        return self._executions / total
