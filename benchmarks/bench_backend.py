"""Compiled kernel backends.

Measures the ``REPRO_ENGINE_BACKEND`` layer (see docs/PERFORMANCE.md):

* per-record throughput for every *available* backend on one
  reference-path family (YAGS) plus the stateful reference loop — the
  ``cext`` kernel must be ≥ 4× the reference path; the ``python``
  backend steps the stateful predictor itself (the oracle's stream),
  so ``[python]`` times the same loop as ``[reference]`` through the
  carrier and its per-branch attribution;
* the paper's 34-configuration sweep on the two-level carrier under
  each backend — the C ``sweep_step`` kernel must be ≥ 3× the numpy
  scans it replaces as the default, in the same run.

Each case chooses its backend through the ``backend`` fixture of the
repository root's ``conftest.py``; the two same-run floors time two
backends in one test, so they set the variable themselves between
their timings.

Every timed body re-checks bit-exactness (against the reference engine,
or for the sweep, across the two independent backends), so a snapshot
can never record a fast wrong answer.
"""

from __future__ import annotations

import os
import time
from unittest import mock

import numpy as np
import pytest

from repro.engine import simulate, simulate_batched, simulate_reference
from repro.engine.backend import backend_availability
from repro.predictors import paper_predictor
from repro.predictors.paper_configs import HISTORY_LENGTHS
from repro.spec import YagsSpec
from repro.workloads.synthetic import SPEC95_INPUTS, input_trace

#: Compiled per-record kernels must beat the stateful reference loop by
#: at least this factor (the ISSUE 10 acceptance bar).
COMPILED_SPEEDUP_FLOOR = 4.0

#: The C sweep kernel must beat the carrier's numpy scans by at least
#: this factor on the go sweep (4.6× measured on a 2-vCPU Xeon).
SWEEP_SPEEDUP_FLOOR = 3.0

NO_CEXT = "no compiled backend available (cext absent: no C compiler)"


@pytest.fixture(scope="module")
def trace():
    go = next(i for i in SPEC95_INPUTS if i.benchmark == "go")
    return input_trace(go, scale=0.25)


@pytest.fixture(scope="module")
def yags_reference(trace):
    return simulate_reference(YagsSpec().build(), trace)


def test_backends_bit_identical(backend, trace, yags_reference):
    result = simulate(YagsSpec(), trace)
    assert np.array_equal(result.mispredictions, yags_reference.mispredictions)


# The oracle reads no backend; its case runs under ``python``, which
# every host has.
@pytest.mark.parametrize(
    "engine, backend",
    [
        pytest.param("reference", "python", id="reference"),
        pytest.param("auto", "python", id="python"),
        pytest.param("auto", "cext", id="cext"),
    ],
    indirect=["backend"],
)
def test_backend_throughput(benchmark, trace, yags_reference, engine, backend):
    """Per-record YAGS throughput: the reference loop and each backend."""
    benchmark.group = "backend-throughput"
    spec = YagsSpec()
    result = benchmark(lambda: simulate(spec, trace, engine=engine))
    assert result.total_mispredictions == yags_reference.total_mispredictions
    benchmark.extra_info["records"] = len(trace)


def best_of(run, check, repeats=3):
    """The shortest of ``repeats`` timed calls of ``run``, each result
    passed to ``check``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
        check(result)
    return min(times)


def test_compiled_speedup_floor(trace, yags_reference, monkeypatch):
    """The compiled backend clears the 4× acceptance bar.

    Timed by hand (not pytest-benchmark) so the assertion also runs
    under plain pytest; the snapshot numbers come from
    ``test_backend_throughput`` above.
    """
    if not backend_availability()["cext"][0]:
        pytest.skip(NO_CEXT)
    spec = YagsSpec()

    def check(result):
        assert result.total_mispredictions == yags_reference.total_mispredictions

    reference_time = best_of(lambda: simulate(spec, trace, engine="reference"), check, 1)
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", "cext")
    compiled_time = best_of(lambda: simulate(spec, trace), check)
    assert compiled_time * COMPILED_SPEEDUP_FLOOR <= reference_time, (
        f"compiled {compiled_time:.3f}s vs reference {reference_time:.3f}s: "
        f"below the {COMPILED_SPEEDUP_FLOOR}x floor"
    )


def paper_sweep(trace):
    """The paper's 34 configurations over ``trace`` in one batched pass."""
    return simulate_batched(
        [paper_predictor(kind, k) for kind in ("pas", "gas") for k in HISTORY_LENGTHS], trace
    )


def sweep_misses(sweep) -> list[np.ndarray]:
    return [result.mispredictions for result in sweep]


@pytest.fixture(scope="module")
def sweep_expected(trace):
    """The 34 configurations' per-PC misses on the numpy path."""
    with mock.patch.dict(os.environ, {"REPRO_ENGINE_BACKEND": "python"}):
        return sweep_misses(paper_sweep(trace))


def test_sweep_backend(benchmark, trace, sweep_expected, backend):
    """The paper's 34-configuration sweep on the two-level carrier."""
    benchmark.group = "sweep-backend"
    sweep = benchmark(lambda: paper_sweep(trace))
    got = sweep_misses(sweep)
    assert all(np.array_equal(a, b) for a, b in zip(got, sweep_expected))
    benchmark.extra_info["records"] = len(trace)
    benchmark.extra_info["configs"] = len(got)


def test_sweep_backend_floor(trace, sweep_expected, monkeypatch):
    """The C sweep kernel clears its same-run floor over the numpy scans.

    Timed by hand, like ``test_compiled_speedup_floor``, so it also runs
    under plain pytest.
    """
    if not backend_availability()["cext"][0]:
        pytest.skip(NO_CEXT)

    def check(sweep):
        got = sweep_misses(sweep)
        assert all(np.array_equal(a, b) for a, b in zip(got, sweep_expected))

    monkeypatch.setenv("REPRO_ENGINE_BACKEND", "python")
    numpy_time = best_of(lambda: paper_sweep(trace), check)
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", "cext")
    kernel_time = best_of(lambda: paper_sweep(trace), check)
    assert kernel_time * SWEEP_SPEEDUP_FLOOR <= numpy_time, (
        f"cext {kernel_time:.3f}s vs python {numpy_time:.3f}s: "
        f"below the {SWEEP_SPEEDUP_FLOOR}x floor"
    )
