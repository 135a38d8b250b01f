"""In-memory branch traces.

A :class:`Trace` is an immutable, column-oriented sequence of branch
records backed by numpy arrays (one array of PCs, one of outcomes).
This layout keeps multi-million-record traces compact and lets the
array carriers and the statistics pass operate without
per-record Python objects, while still exposing a convenient
record-at-a-time view for the reference engine and for tests.

Every trace also has a *branch dictionary* (:meth:`Trace.dictionary`):
its sorted distinct PCs and one id per record in the narrowest
unsigned dtype (:func:`branch_id_dtype`).  Producers that already know
it hand it over through :meth:`Trace.from_dictionary`; otherwise it is
built once, on first use.  Profiling, storing and per-branch miss
attribution all read it.

:class:`TraceBuilder` is the mutable companion used by producers (the
VM's branch hook, the synthetic workload generators) to accumulate
records cheaply before freezing them into a :class:`Trace`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import overload

import numpy as np

from ..errors import TraceError
from .record import BranchRecord

__all__ = ["Trace", "TraceBuilder", "branch_id_dtype", "concat"]


def branch_id_dtype(num_branches: int) -> np.dtype:
    """The narrowest unsigned dtype that numbers ``num_branches`` branches."""
    return np.min_scalar_type(max(num_branches - 1, 0))


class Trace:
    """An immutable sequence of dynamic conditional-branch outcomes.

    Parameters
    ----------
    pcs:
        Array-like of non-negative branch addresses, one per dynamic
        branch execution, in program order.
    outcomes:
        Array-like of 0/1 outcomes (1 = taken), same length as ``pcs``.
    name:
        Optional label (e.g. benchmark and input-set name) carried along
        for reporting.
    """

    __slots__ = ("_pcs", "_outcomes", "_dictionary", "name")

    def __init__(self, pcs, outcomes, *, name: str = "") -> None:
        pcs_arr = np.asarray(pcs, dtype=np.int64)
        out_arr = np.asarray(outcomes, dtype=np.uint8)
        if pcs_arr.ndim != 1 or out_arr.ndim != 1:
            raise TraceError("pcs and outcomes must be one-dimensional")
        if len(pcs_arr) != len(out_arr):
            raise TraceError(
                f"pcs and outcomes length mismatch: {len(pcs_arr)} != {len(out_arr)}"
            )
        if len(pcs_arr) and pcs_arr.min() < 0:
            raise TraceError("branch pcs must be non-negative")
        if len(out_arr) and out_arr.max() > 1:
            raise TraceError("outcomes must be 0 or 1")
        pcs_arr.setflags(write=False)
        out_arr.setflags(write=False)
        self._pcs = pcs_arr
        self._outcomes = out_arr
        self._dictionary: tuple[np.ndarray, np.ndarray] | None = None
        self.name = name

    def __reduce__(self):
        # Rebuilt through the validating constructors, so an unpickled
        # trace is read-only like any other and keeps its dictionary
        # (which then travels instead of the PCs).
        if self._dictionary is None:
            return _unpickle, (self.name, self._outcomes, self._pcs, None)
        return _unpickle, (self.name, self._outcomes, None, self._dictionary)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_dictionary(cls, branches, ids, outcomes, *, name: str = "") -> "Trace":
        """A trace given as its branch dictionary (see :meth:`dictionary`).

        ``branches`` must be int64, non-negative and strictly
        increasing; ``ids`` one per record, of the dtype
        :func:`branch_id_dtype` gives for ``len(branches)``, each below
        ``len(branches)``, and together using every branch, so the
        dictionary is the one :meth:`dictionary` would build.  Raises
        :class:`~repro.errors.TraceError` otherwise, or when the ids
        and outcomes differ in length or an outcome is not 0/1.
        """
        branches = np.asarray(branches)
        ids = np.asarray(ids)
        if branches.ndim != 1 or ids.ndim != 1:
            raise TraceError("branches and ids must be one-dimensional")
        if branches.dtype != np.int64:
            raise TraceError(f"branches must be int64, got {branches.dtype}")
        if np.any(branches[1:] <= branches[:-1]):
            raise TraceError("branches must be strictly increasing")
        if len(branches) and branches[0] < 0:
            raise TraceError("branch pcs must be non-negative")
        if ids.dtype != branch_id_dtype(len(branches)):
            raise TraceError(
                f"ids for {len(branches)} branches must be "
                f"{branch_id_dtype(len(branches))}, got {ids.dtype}"
            )
        uses = np.bincount(ids, minlength=len(branches))
        if len(uses) > len(branches):
            raise TraceError(f"an id is out of range for {len(branches)} branches")
        if not uses.all():
            raise TraceError("every branch must be used at least once")
        trace = cls(branches[ids], outcomes, name=name)
        branches.setflags(write=False)
        ids.setflags(write=False)
        trace._dictionary = (branches, ids)
        return trace

    @classmethod
    def from_records(cls, records: Iterable[BranchRecord], *, name: str = "") -> "Trace":
        """Materialize a trace from an iterable of :class:`BranchRecord`."""
        pcs: list[int] = []
        outs: list[int] = []
        for rec in records:
            pcs.append(rec.pc)
            outs.append(1 if rec.taken else 0)
        return cls(pcs, outs, name=name)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], *, name: str = "") -> "Trace":
        """Materialize a trace from ``(pc, taken)`` pairs."""
        pcs: list[int] = []
        outs: list[int] = []
        for pc, taken in pairs:
            pcs.append(pc)
            outs.append(1 if taken else 0)
        return cls(pcs, outs, name=name)

    @classmethod
    def empty(cls, *, name: str = "") -> "Trace":
        """An empty trace."""
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), name=name)

    # -- column access ---------------------------------------------------

    @property
    def pcs(self) -> np.ndarray:
        """Read-only ``int64`` array of branch addresses."""
        return self._pcs

    @property
    def outcomes(self) -> np.ndarray:
        """Read-only ``uint8`` array of outcomes (1 = taken)."""
        return self._outcomes

    def dictionary(self) -> tuple[np.ndarray, np.ndarray]:
        """The trace's branch dictionary ``(branches, ids)``.

        ``branches`` holds the sorted distinct PCs (int64) and ``ids``
        one id per record (``pcs == branches[ids]``) in the narrowest
        unsigned dtype (:func:`branch_id_dtype`).  Both are read-only;
        the pair is built on first use unless the producer supplied it.
        """
        dictionary = self._dictionary
        if dictionary is None:
            # Two threads may both build it on first use; that is
            # harmless, because both results are equal and read-only.
            branches, ids = np.unique(self._pcs, return_inverse=True)
            ids = ids.astype(branch_id_dtype(len(branches)))
            branches.setflags(write=False)
            ids.setflags(write=False)
            dictionary = self._dictionary = (branches, ids)
        return dictionary

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._pcs)

    def __bool__(self) -> bool:
        return len(self) > 0

    @overload
    def __getitem__(self, index: int) -> BranchRecord: ...

    @overload
    def __getitem__(self, index: slice) -> "Trace": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._pcs[index], self._outcomes[index], name=self.name)
        rec_pc = int(self._pcs[index])
        return BranchRecord(pc=rec_pc, taken=bool(self._outcomes[index]))

    def __iter__(self) -> Iterator[BranchRecord]:
        pcs = self._pcs
        outs = self._outcomes
        for i in range(len(pcs)):
            yield BranchRecord(pc=int(pcs[i]), taken=bool(outs[i]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            len(self) == len(other)
            and bool(np.array_equal(self._pcs, other._pcs))
            and bool(np.array_equal(self._outcomes, other._outcomes))
        )

    def __hash__(self) -> int:  # content hash; traces are immutable
        return hash((len(self), self._pcs.tobytes(), self._outcomes.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" name={self.name!r}" if self.name else ""
        return f"Trace(len={len(self)}, static={self.num_static_branches}{label})"

    # -- summary properties ------------------------------------------------

    @property
    def num_static_branches(self) -> int:
        """Number of distinct static branch PCs in the trace."""
        return len(self.dictionary()[0])

    @property
    def num_taken(self) -> int:
        """Total number of taken outcomes."""
        return int(self._outcomes.sum())

    @property
    def taken_fraction(self) -> float:
        """Fraction of all dynamic branches that were taken."""
        if not len(self):
            return 0.0
        return self.num_taken / len(self)

    def static_pcs(self) -> np.ndarray:
        """Sorted read-only array of distinct static branch PCs."""
        return self.dictionary()[0]

    # -- combinators ---------------------------------------------------------

    def with_name(self, name: str) -> "Trace":
        """A view of the same data (and dictionary) under a different label."""
        trace = Trace(self._pcs, self._outcomes, name=name)
        trace._dictionary = self._dictionary
        return trace

    def head(self, n: int) -> "Trace":
        """The first ``n`` records (or fewer if the trace is shorter)."""
        if n < 0:
            raise TraceError("head() requires a non-negative count")
        return self[:n]

    def concat(self, other: "Trace", *, name: str | None = None) -> "Trace":
        """This trace followed by ``other``.

        PC spaces are assumed compatible (the caller is responsible for
        disambiguating PCs across different programs; see
        :func:`repro.trace.filters.interleave` for the offsetting helper).
        """
        return concat([self, other], name=self.name if name is None else name)


def _unpickle(name: str, outcomes, pcs, dictionary) -> Trace:
    if dictionary is None:
        return Trace(pcs, outcomes, name=name)
    return Trace.from_dictionary(*dictionary, outcomes, name=name)


def concat(traces: Sequence[Trace], *, name: str = "") -> Trace:
    """Concatenate traces end to end, preserving program order."""
    if not traces:
        return Trace.empty(name=name)
    pcs = np.concatenate([t.pcs for t in traces])
    outs = np.concatenate([t.outcomes for t in traces])
    return Trace(pcs, outs, name=name)


class TraceBuilder:
    """Mutable accumulator that freezes into a :class:`Trace`.

    Producers append one record at a time (or in bulk); :meth:`build`
    snapshots the contents.  Appending after :meth:`build` is allowed and
    affects only subsequent snapshots.
    """

    __slots__ = ("_pcs", "_outcomes", "name")

    def __init__(self, *, name: str = "") -> None:
        self._pcs: list[int] = []
        self._outcomes: list[int] = []
        self.name = name

    def append(self, pc: int, taken: bool | int) -> None:
        """Record one dynamic branch execution."""
        if pc < 0:
            raise TraceError(f"branch pc must be non-negative, got {pc}")
        self._pcs.append(pc)
        self._outcomes.append(1 if taken else 0)

    def extend(self, records: Iterable[BranchRecord]) -> None:
        """Append many :class:`BranchRecord` objects."""
        for rec in records:
            self._pcs.append(rec.pc)
            self._outcomes.append(1 if rec.taken else 0)

    def extend_pairs(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Append many ``(pc, taken)`` pairs."""
        for pc, taken in pairs:
            self.append(pc, taken)

    def __len__(self) -> int:
        return len(self._pcs)

    def build(self) -> Trace:
        """Freeze the accumulated records into an immutable :class:`Trace`."""
        return Trace(self._pcs, self._outcomes, name=self.name)
