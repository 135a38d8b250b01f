"""The in-memory branch dictionary of a trace.

``Trace.dictionary()`` is ``(branches, ids)``: the sorted distinct PCs
and one id per record in the narrowest unsigned dtype.  These tests pin
it against ``np.unique`` at the id dtype boundaries, the validation of
``Trace.from_dictionary`` (also as the store's decode, where a rejected
dictionary reads as a miss), the producers that build it themselves,
pickling, and a threaded first use.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.pipeline import ArtifactStore, PipelineConfig
from repro.pipeline.artifacts import WorkloadNode
from repro.trace import Trace, merge_suite
from repro.trace.stream import branch_id_dtype
from repro.workloads.synthetic import BranchPopulation, BranchSpec, PatternModel, suite_traces

#: Distinct-branch counts on both sides of each id dtype boundary.
BOUNDARIES = [0, 1, 255, 256, 257, 65_535, 65_536, 65_537]


def trace_over(distinct, extra, seed):
    """A trace over exactly ``distinct`` random PCs, each used at least
    once, plus ``extra`` records on random ones of them."""
    rng = np.random.default_rng(seed)
    pcs = np.unique(rng.integers(0, 2**62, distinct + 64))[:distinct]
    rng.shuffle(pcs)
    if distinct:
        slots = np.concatenate([np.arange(distinct), rng.integers(0, distinct, extra)])
        rng.shuffle(slots)
    else:
        slots = np.zeros(0, dtype=np.int64)
    return Trace(pcs[slots], rng.integers(0, 2, len(slots)), name=f"{distinct} branches")


@settings(deadline=None)
@given(
    distinct=st.sampled_from(BOUNDARIES),
    extra=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_dictionary_matches_np_unique(distinct, extra, seed):
    trace = trace_over(distinct, extra, seed)
    branches, ids = trace.dictionary()
    want_branches, want_ids = np.unique(trace.pcs, return_inverse=True)
    assert branches.dtype == np.int64 and np.array_equal(branches, want_branches)
    assert ids.dtype == np.min_scalar_type(max(distinct - 1, 0))
    assert np.array_equal(ids, want_ids)
    assert not branches.flags.writeable and not ids.flags.writeable
    assert trace.dictionary() is trace.dictionary()
    assert trace.num_static_branches == distinct

    rebuilt = Trace.from_dictionary(branches, ids, trace.outcomes, name=trace.name)
    assert rebuilt == trace and hash(rebuilt) == hash(trace)
    assert rebuilt.name == trace.name
    assert rebuilt.dictionary()[0] is branches


@pytest.mark.parametrize(
    "distinct, dtype",
    [(0, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)],
)
def test_branch_id_dtype_is_the_narrowest(distinct, dtype):
    assert branch_id_dtype(distinct) == dtype


U8 = np.uint8
#: One defect each: (branches, ids, outcomes).
MALFORMED = {
    "unsorted": ([5, 3], np.array([0, 1], U8), [1, 0]),
    "duplicate": ([3, 3], np.array([0, 1], U8), [1, 0]),
    "negative": ([-1, 3], np.array([0, 1], U8), [1, 0]),
    "id-out-of-range": ([3, 5], np.array([0, 2], U8), [1, 0]),
    "signed-ids": ([3, 5], np.array([0, 1], np.int8), [1, 0]),
    "wide-ids": ([3, 5], np.array([0, 1], np.uint16), [1, 0]),
    "unused-branch": ([3, 5, 7], np.array([0, 2], U8), [1, 0]),
    "length-mismatch": ([3, 5], np.array([0, 1, 1], U8), [1, 0]),
    "outcome-not-0-1": ([3, 5], np.array([0, 1], U8), [1, 2]),
    "int32-branches": (np.array([3, 5], np.int32), np.array([0, 1], U8), [1, 0]),
    "two-dimensional": ([[3, 5]], np.array([0, 1], U8), [1, 0]),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_malformed_dictionary_is_rejected(defect):
    branches, ids, outcomes = MALFORMED[defect]
    if not isinstance(branches, np.ndarray):
        branches = np.array(branches, dtype=np.int64)
    with pytest.raises(TraceError):
        Trace.from_dictionary(branches, ids, outcomes)


NODE = WorkloadNode("traces")
DIGEST = "0" * 64

#: One defect each in a stored object's first trace.
STORED = {
    "unsorted": lambda a: a.update(branches_0=a["branches_0"][::-1].copy()),
    "duplicate": lambda a: a["branches_0"].__setitem__(1, a["branches_0"][0]),
    "negative": lambda a: a["branches_0"].__setitem__(0, -1),
    "id-out-of-range": lambda a: a["ids_0"].__setitem__(0, len(a["branches_0"])),
    "signed-ids": lambda a: a.update(ids_0=a["ids_0"].astype(np.int8)),
    "unused-branch": lambda a: a.update(
        branches_0=np.append(a["branches_0"], a["branches_0"][-1] + 4)
    ),
    "length-mismatch": lambda a: a.update(ids_0=np.append(a["ids_0"], a["ids_0"][:1])),
}


@pytest.mark.parametrize("defect", sorted(STORED))
def test_malformed_stored_dictionary_reads_as_a_miss(tmp_path, defect):
    traces = [Trace([0x40, 0x10, 0x40, 0x20], [1, 0, 0, 1], name="a"), Trace([8], [1], name="b")]
    store = ArtifactStore(tmp_path)
    store.put(DIGEST, NODE, traces, PipelineConfig())
    path = store.object_path(DIGEST)
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    STORED[defect](arrays)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    assert ArtifactStore(tmp_path).get(DIGEST, NODE) is None


def test_population_shorter_than_a_cycle_has_no_unused_branch():
    specs = [
        BranchSpec(pc=0x40 - 4 * i, model=PatternModel([1, 0, 0][: 1 + i % 3]), weight=1 + i % 4)
        for i in range(12)
    ]
    population = BranchPopulation(specs, seed=3)
    for n in (1, 5, population.cycle_length - 1, population.cycle_length + 7):
        trace = population.generate(n)
        branches, ids = trace.dictionary()
        want_branches, want_ids = np.unique(trace.pcs, return_inverse=True)
        assert np.array_equal(branches, want_branches)
        assert np.array_equal(ids, want_ids) and ids.dtype == np.uint8
        assert np.bincount(ids).all()


def test_merge_suite_dictionary_matches_np_unique():
    traces = [*suite_traces(scale=0.01), Trace.empty(name="none"), Trace([7, 7, 3], [1, 0, 1])]
    merged = merge_suite(traces)
    branches, ids = merged.dictionary()
    want_branches, want_ids = np.unique(merged.pcs, return_inverse=True)
    assert np.array_equal(branches, want_branches)
    assert np.array_equal(ids, want_ids)
    assert ids.dtype == branch_id_dtype(len(branches))
    offsets = np.concatenate([t.pcs + i * (1 << 24) for i, t in enumerate(traces)])
    assert np.array_equal(merged.pcs, offsets)


def test_unpickled_trace_is_read_only_and_keeps_its_dictionary():
    trace = Trace([9, 3, 9, 5], [1, 0, 0, 1], name="p")
    plain = pickle.loads(pickle.dumps(trace))
    assert plain == trace and plain.name == "p"
    assert not plain.pcs.flags.writeable and not plain.outcomes.flags.writeable

    trace.dictionary()
    rebuilt = pickle.loads(pickle.dumps(trace))
    assert rebuilt == trace and rebuilt.name == "p"
    branches, ids = rebuilt._dictionary
    assert np.array_equal(branches, [3, 5, 9]) and np.array_equal(ids, [2, 0, 2, 1])
    for array in (rebuilt.pcs, rebuilt.outcomes, branches, ids):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        rebuilt.pcs[0] = 1


def test_threaded_first_use_builds_equal_read_only_dictionaries():
    rng = np.random.default_rng(5)
    pcs = rng.integers(0, 1000, 50_000) * 4
    outcomes = rng.integers(0, 2, len(pcs))
    want_branches, want_ids = np.unique(pcs, return_inverse=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            trace = Trace(pcs, outcomes)
            barrier = threading.Barrier(8)
            results = []

            def first_use(trace=trace, barrier=barrier, results=results):
                barrier.wait(timeout=10)
                results.append(trace.dictionary())

            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 8
            for branches, ids in results:
                assert np.array_equal(branches, want_branches)
                assert np.array_equal(ids, want_ids) and ids.dtype == np.uint16
                assert not branches.flags.writeable and not ids.flags.writeable
    finally:
        sys.setswitchinterval(interval)
