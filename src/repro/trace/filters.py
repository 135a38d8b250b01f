"""Trace transformations.

Pure functions producing new :class:`~repro.trace.stream.Trace` objects
from existing ones: PC-based selection, windowing, deterministic
sampling, PC remapping, and the interleaving helper used to merge the
per-benchmark traces of a suite into one stream with disjoint PC
spaces (mirroring how the paper aggregates SPECint95 results across
benchmarks weighted by dynamic occurrence).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..errors import TraceError
from .stream import Trace, branch_id_dtype

__all__ = [
    "select_pcs",
    "exclude_pcs",
    "select_where",
    "window",
    "sample_every",
    "remap_pcs",
    "offset_pcs",
    "merge_suite",
]

_INT64 = np.iinfo(np.int64)


def _pc_set(pcs: Iterable[int]) -> np.ndarray:
    """The distinct ``pcs``, sorted, as int64; raises
    :class:`~repro.errors.TraceError` for a value outside int64."""
    values = sorted(set(int(p) for p in pcs))
    if values and not (_INT64.min <= values[0] and values[-1] <= _INT64.max):
        raise TraceError("pcs must fit in int64")
    return np.asarray(values, dtype=np.int64)


def select_pcs(trace: Trace, pcs: Iterable[int]) -> Trace:
    """Keep only records whose PC is in ``pcs`` (order preserved)."""
    mask = np.isin(trace.pcs, _pc_set(pcs))
    return Trace(trace.pcs[mask], trace.outcomes[mask], name=trace.name)


def exclude_pcs(trace: Trace, pcs: Iterable[int]) -> Trace:
    """Drop all records whose PC is in ``pcs``."""
    mask = ~np.isin(trace.pcs, _pc_set(pcs))
    return Trace(trace.pcs[mask], trace.outcomes[mask], name=trace.name)


def select_where(trace: Trace, predicate: Callable[[int], bool]) -> Trace:
    """Keep records whose PC satisfies ``predicate``.

    The predicate is evaluated once per *static* branch, not per record.
    """
    keep = [int(pc) for pc in trace.static_pcs() if predicate(int(pc))]
    return select_pcs(trace, keep)


def window(trace: Trace, start: int, length: int) -> Trace:
    """The ``length`` records beginning at dynamic position ``start``."""
    if start < 0 or length < 0:
        raise TraceError("window start and length must be non-negative")
    return trace[start : start + length]


def sample_every(trace: Trace, stride: int, *, phase: int = 0) -> Trace:
    """Keep every ``stride``-th record starting at ``phase``.

    Deterministic systematic sampling; useful for quick-look analysis of
    very long traces.  Note that sampling distorts *transition* counts
    (adjacent surviving records were not adjacent originally), so use it
    for distribution estimates only, never for predictor simulation.
    """
    if stride <= 0:
        raise TraceError("stride must be positive")
    if not 0 <= phase < stride:
        raise TraceError("phase must satisfy 0 <= phase < stride")
    return Trace(trace.pcs[phase::stride], trace.outcomes[phase::stride], name=trace.name)


def remap_pcs(trace: Trace, mapping: Callable[[int], int]) -> Trace:
    """Apply ``mapping`` to every static PC."""
    table = {int(pc): int(mapping(int(pc))) for pc in trace.static_pcs()}
    for old, new in table.items():
        if new < 0:
            raise TraceError(f"remapped pc for {old} is negative ({new})")
    lut_keys = np.asarray(list(table.keys()), dtype=np.int64)
    lut_vals = np.asarray(list(table.values()), dtype=np.int64)
    idx = np.searchsorted(lut_keys, trace.pcs)
    return Trace(lut_vals[idx], trace.outcomes, name=trace.name)


def offset_pcs(trace: Trace, offset: int) -> Trace:
    """Shift every PC by a constant offset."""
    if not _INT64.min <= offset <= _INT64.max:
        raise TraceError("offset must fit in int64")
    if len(trace) and int(trace.pcs.min()) + offset < 0:
        raise TraceError("offset would produce negative pcs")
    if len(trace) and int(trace.pcs.max()) + offset > _INT64.max:
        raise TraceError("offset would push pcs past the int64 maximum")
    return Trace(trace.pcs + offset, trace.outcomes, name=trace.name)


def merge_suite(traces: Sequence[Trace], *, name: str = "suite", pc_stride: int = 1 << 24) -> Trace:
    """Concatenate benchmark traces with disjoint PC spaces.

    Each input trace's PCs are offset into its own ``pc_stride``-sized
    region, so branches from different benchmarks can never alias in the
    profiling tables.  This mirrors the paper's whole-suite aggregation:
    the combined trace weights every class by dynamic occurrence across
    all benchmarks.  (Predictor *hardware* tables still alias across
    benchmarks only if you simulate the merged trace directly — the
    experiment drivers simulate per benchmark and merge results instead.)
    """
    if pc_stride <= 0:
        raise TraceError("pc_stride must be positive")
    if not traces:
        return Trace.empty(name=name)
    dictionaries = [trace.dictionary() for trace in traces]
    for i, (trace, (branches, _)) in enumerate(zip(traces, dictionaries)):
        if len(branches) and int(branches[-1]) >= pc_stride:
            raise TraceError(
                f"trace {trace.name or i} has pcs >= pc_stride {pc_stride}; "
                "raise pc_stride"
            )
    # The merged dictionary: each member's branches offset into its own
    # region (so they stay sorted across members) and its ids by the
    # branches before it.
    branches = np.concatenate(
        [member + i * pc_stride for i, (member, _) in enumerate(dictionaries)]
    )
    ids = np.empty(sum(len(trace) for trace in traces), dtype=branch_id_dtype(len(branches)))
    record = first_id = 0
    for member, member_ids in dictionaries:
        part = ids[record : record + len(member_ids)]
        np.add(member_ids, first_id, out=part, dtype=ids.dtype)
        record += len(member_ids)
        first_id += len(member)
    outs = np.concatenate([trace.outcomes for trace in traces])
    return Trace.from_dictionary(branches, ids, outs, name=name)
