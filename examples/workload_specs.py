"""Declarative workloads: specs, suites, content keys.

Every trace source in the library is a frozen, JSON-round-trippable
`WorkloadSpec` (see docs/WORKLOADS.md): synthetic SPEC95 analogues, VM
kernel programs, saved trace files, and composers.  This example
builds a mixed custom suite, runs the paper's sweep machinery over it,
and shows the content-key caching the layer buys.

Run:  python examples/workload_specs.py
  (REPRO_EXAMPLE_SCALE scales the workload sizes; default 0.5)
"""

import os

from repro import (
    BimodalSpec,
    ExperimentContext,
    KernelSpec,
    PopulationBranch,
    PopulationSpec,
    Session,
    Spec95InputSpec,
    SuiteSpec,
    TwoLevelSpec,
    WorkloadSpec,
)
from repro.workload_spec import LoopModelSpec, MarkovModelSpec

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.5"))

# -- 1. every trace source is a spec -----------------------------------------

suite = SuiteSpec(
    name="mixed-demo",
    members=(
        KernelSpec(name="binary_search", size=max(16, int(256 * SCALE))),
        Spec95InputSpec.of("gcc/expr.i", scale=0.05 * SCALE),
        PopulationSpec(
            name="loops-vs-coinflips",
            length=max(200, int(20_000 * SCALE)),
            seed=11,
            branches=(
                PopulationBranch(pc=0x100, model=LoopModelSpec(body=8), weight=4),
                PopulationBranch(
                    pc=0x104, model=MarkovModelSpec.from_rates(0.5, 0.5), hard=True
                ),
            ),
        ),
    ),
)

print(f"suite {suite.name!r}: {suite.labels()}")
print(f"content key: {suite.content_key()[:16]}…  (stable across processes)")

# Specs round-trip through JSON, so suites can live in files and flags:
#   python -m repro run all --suite mixed-demo.json
assert WorkloadSpec.from_json(suite.to_json()) == suite

# -- 2. sessions dedupe jobs by workload content ------------------------------

session = Session()
spec = TwoLevelSpec.gshare(8)
jobs = [session.submit(member, spec) for member in suite.members]
# Submitting an equal spec again is free — same content key, no rerun.
session.submit(KernelSpec(name="binary_search", size=max(16, int(256 * SCALE))), spec)
plan = session.plan()
print(f"\nsession plan: {plan.num_jobs} jobs -> {plan.num_unique} unique simulations")
results = session.run()
for job in jobs:
    result = results[job]
    print(f"  {result.trace_name:24s} gshare-8 miss rate {result.miss_rate:8.4%}")

# A cheaper predictor over the same workloads reuses the materialized
# traces (workloads materialize once per session, however many specs):
cheap = [session.submit(member, BimodalSpec(entries=1 << 10)) for member in suite.members]
for job, result in zip(cheap, map(session.run().__getitem__, cheap)):
    print(f"  {result.trace_name:24s} bimodal miss rate  {result.miss_rate:8.4%}")

# -- 3. the experiment pipeline runs on any suite -----------------------------

context = ExperimentContext(suite=suite, history_lengths=(0, 2, 4), cache_dir=None)
sweep = context.sweep
print(f"\npipeline sweep over {suite.name!r}: {sweep.total_dynamic:,} dynamic branches")
print("fig >>>", context.render("fig15").rendered.splitlines()[0])
print("\nsame DAG, same caching, same figures — different workload universe.")
