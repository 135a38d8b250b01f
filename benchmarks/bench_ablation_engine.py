"""Ablation: simulation engines (throughput + exactness).

DESIGN.md commits to exactly-equivalent fast paths; this bench measures
the speedups and re-checks bit-exactness on a realistic trace:

* a single configuration's carrier (``simulate``, id ``vectorized``)
  vs the reference oracle,
* the batched multi-config sweep vs one ``simulate`` per configuration
  (the tentpole of the batched engine: all 34 paper configurations in
  one pass),
* the array carriers of the combining families (agree / tournament)
  that previously forced the reference engine.
"""

import numpy as np
import pytest

from repro.engine import simulate, simulate_batched, simulate_reference
from repro.predictors import (
    AgreePredictor,
    TournamentPredictor,
    make_gshare,
    paper_gas,
    paper_pas,
    paper_predictor,
)
from repro.predictors.paper_configs import HISTORY_LENGTHS
from repro.workloads.synthetic import SPEC95_INPUTS, input_trace


@pytest.fixture(scope="module")
def trace():
    go = next(i for i in SPEC95_INPUTS if i.benchmark == "go")
    return input_trace(go, scale=0.25)


@pytest.mark.parametrize("kind,history", [("gas", 8), ("pas", 8)])
def test_engines_agree_exactly(trace, kind, history):
    make = paper_gas if kind == "gas" else paper_pas
    ref = simulate_reference(make(history), trace)
    vec = simulate(make(history), trace)
    assert ref.total_mispredictions == vec.total_mispredictions
    assert np.array_equal(ref.mispredictions, vec.mispredictions)


#: The paper's 34 (kind, history length) configurations, in sweep order.
PAPER_KEYS = [(kind, k) for kind in ("pas", "gas") for k in HISTORY_LENGTHS]


def paper_sweep(trace):
    """The paper's 34 configurations over ``trace`` in one batched pass."""
    return simulate_batched([paper_predictor(kind, k) for kind, k in PAPER_KEYS], trace)


def test_sweep_engines_agree_exactly(trace):
    sweep = dict(zip(PAPER_KEYS, paper_sweep(trace)))
    for kind in ("pas", "gas"):
        for k in (0, 4, 12, 16):
            vec = simulate(paper_predictor(kind, k), trace)
            assert np.array_equal(sweep[kind, k].mispredictions, vec.mispredictions)


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_engine_throughput(benchmark, trace, engine):
    run = simulate if engine == "vectorized" else simulate_reference
    benchmark.group = "engine-throughput"
    result = benchmark(lambda: run(paper_gas(8), trace))
    assert result.total_executions == len(trace)


@pytest.mark.parametrize("mode", ["batched", "per-config"])
def test_sweep_throughput(benchmark, trace, mode):
    """The paper's full 34-configuration sweep over one trace."""
    benchmark.group = "sweep-throughput"
    if mode == "batched":
        results = benchmark(lambda: paper_sweep(trace))
    else:
        def per_config():
            return [simulate(paper_predictor(kind, k), trace) for kind, k in PAPER_KEYS]
        results = benchmark(per_config)
    misses = results[PAPER_KEYS.index(("gas", 8))].total_mispredictions
    assert misses > 0


@pytest.mark.parametrize(
    "family",
    ["agree", "tournament"],
)
def test_combining_family_throughput(benchmark, trace, family):
    """Array carriers of combining predictors (previously reference-only)."""
    benchmark.group = "combining-throughput"
    if family == "agree":
        make = lambda: AgreePredictor(12)
    else:
        make = lambda: TournamentPredictor(
            make_gshare(12, pht_index_bits=13), paper_pas(6)
        )
    predictor = make()
    result = benchmark(lambda: simulate(predictor, trace))
    ref = simulate_reference(make(), trace)
    assert result.total_mispredictions == ref.total_mispredictions
