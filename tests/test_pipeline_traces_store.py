"""The suite-traces artifact's store layout: a branch dictionary per trace.

``WorkloadNode`` stores each trace as its sorted distinct PCs, one id
per record in the narrowest unsigned dtype that holds them, and the
outcomes packed eight to a byte.  These tests pin the round trip at the
id dtype boundaries, that an inconsistent object reads as a miss and is
recomputed, and that an object in the earlier raw layout is rewritten
while every node below it stays cached.
"""

import json

import numpy as np
import pytest

from repro.experiments import ExperimentContext, all_experiment_ids
from repro.pipeline import ArtifactStore, PipelineConfig
from repro.pipeline.artifacts import WorkloadNode
from repro.trace import Trace

SMALL = dict(inputs="primary", scale=0.02, history_lengths=(0, 2))
NODE = WorkloadNode("traces")
DIGEST = "0" * 64


def trace_with(branches, length, seed):
    """``length`` records over exactly ``branches`` distinct PCs."""
    rng = np.random.default_rng(seed)
    slots = np.concatenate([np.arange(branches), rng.integers(0, branches, length - branches)])
    rng.shuffle(slots)
    outcomes = rng.integers(0, 2, length).astype(np.uint8)
    return Trace(slots * 4 + 0x1000, outcomes, name=f"{branches} branches")


def round_trip(root, traces):
    ArtifactStore(root).put(DIGEST, NODE, traces, PipelineConfig())
    return ArtifactStore(root).get(DIGEST, NODE)


def stored_arrays(path):
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def rewrite(path, arrays):
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def assert_same(decoded, traces):
    assert [t.name for t in decoded] == [t.name for t in traces]
    for got, want in zip(decoded, traces):
        assert got.pcs.dtype == np.int64 and got.outcomes.dtype == np.uint8
        assert np.array_equal(got.pcs, want.pcs)
        assert np.array_equal(got.outcomes, want.outcomes)


@pytest.mark.parametrize(
    "branches, dtype",
    [
        (1, np.uint8),
        (256, np.uint8),
        (257, np.uint16),
        (65_536, np.uint16),
        (65_537, np.uint32),
    ],
)
def test_round_trip_at_the_id_dtype_boundaries(tmp_path, branches, dtype):
    # Neither length is a multiple of 8, so the last packed byte is partial.
    traces = [trace_with(branches, branches + 3, seed=branches), trace_with(5, 13, seed=1)]
    assert_same(round_trip(tmp_path, traces), traces)
    arrays = stored_arrays(ArtifactStore(tmp_path).object_path(DIGEST))
    assert arrays["ids_0"].dtype == dtype
    assert len(arrays["branches_0"]) == branches
    assert len(arrays["taken_0"]) == -(-(branches + 3) // 8)


def test_round_trip_of_empty_traces_and_an_empty_suite(tmp_path):
    traces = [Trace.empty(name="nothing"), trace_with(3, 9, seed=2), Trace.empty()]
    assert_same(round_trip(tmp_path / "some", traces), traces)
    assert round_trip(tmp_path / "none", []) == []


def stored_traces(tmp_path):
    """A small run's traces, their digest and the path of their object."""
    context = ExperimentContext(cache_dir=tmp_path, **SMALL)
    traces = context.traces
    digest = context.pipeline.plan(["traces"]).digest_of("traces")
    return traces, digest, context.store.object_path(digest)


#: One inconsistency each, in the first trace of a stored object.
MALFORMED = {
    "fewer-ids-than-records": lambda arrays: arrays.update(ids_0=arrays["ids_0"][:-1]),
    "id-past-the-branches": lambda arrays: arrays.update(branches_0=arrays["branches_0"][:-1]),
    "packed-bits-short": lambda arrays: arrays.update(taken_0=arrays["taken_0"][:-1]),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_inconsistent_object_reads_as_a_miss_and_is_recomputed(tmp_path, defect):
    traces, digest, path = stored_traces(tmp_path)
    arrays = stored_arrays(path)
    MALFORMED[defect](arrays)
    rewrite(path, arrays)
    assert ArtifactStore(tmp_path).get(digest, NODE) is None
    assert not path.exists()
    assert_same(ExperimentContext(cache_dir=tmp_path, **SMALL).traces, traces)
    assert_same(ArtifactStore(tmp_path).get(digest, NODE), traces)


def test_parent_layout_is_rewritten_while_downstream_stays_cached(tmp_path):
    context = ExperimentContext(cache_dir=tmp_path, **SMALL)
    assert context.pipeline.run_experiments(all_experiment_ids()).ok
    traces, digest, path = stored_traces(tmp_path)
    # The raw layout the codec wrote before it stored branch dictionaries.
    legacy = {"__meta__": json.dumps({"names": [trace.name for trace in traces]})}
    for i, trace in enumerate(traces):
        legacy[f"pcs_{i}"] = trace.pcs
        legacy[f"outcomes_{i}"] = trace.outcomes
    rewrite(path, legacy)

    # A warm run all reads only its renders: nothing is recomputed.
    warm = ExperimentContext(cache_dir=tmp_path, **SMALL)
    report = warm.pipeline.run_experiments(all_experiment_ids())
    assert report.ok and report.computed == []

    # A run that reads the traces recomputes and rewrites them; the
    # nodes below keep their addresses and are served from the store.
    fresh = ExperimentContext(cache_dir=tmp_path, **SMALL)
    below = ["sweep", f"profile:{traces[0].name}", f"sweep:{traces[1].name}"]
    report = fresh.pipeline.execute(fresh.pipeline.plan(["traces", *below]))
    assert report.ok and report.computed == ["traces"]
    assert sorted(report.cached) == sorted(below)
    assert_same(report.value("traces"), traces)
    assert {"branches_0", "ids_0", "taken_0"} <= set(stored_arrays(path))
    assert "pcs_0" not in stored_arrays(path)
