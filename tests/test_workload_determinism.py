"""Cross-process determinism of workload materialization.

Every registered :class:`WorkloadSpec` kind must materialize a
bit-identical trace in a *fresh subprocess* — the property the whole
content-keyed caching story rests on: a spec's ``content_key`` is only
a valid cache address if materialization depends on nothing but the
spec's fields (no hash randomization, no process-global RNG state, no
import-order effects).  This is the seed-plumbing audit for
``make_population``/``MarkovModel``/``PhasedModel`` and friends: any
generator that silently consults un-seeded randomness fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workload_spec import WORKLOADS
from test_workload_spec import spec_catalogue

SRC = str(Path(__file__).resolve().parent.parent / "src")

_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
from repro.workload_spec import WorkloadSpec, trace_fingerprint
spec = WorkloadSpec.from_json({spec_json!r})
print(trace_fingerprint(spec.materialize()))
"""


def subprocess_fingerprint(spec) -> str:
    """Materialize ``spec`` in a clean interpreter; return the trace
    fingerprint.  ``-I`` isolates the child from env vars (PYTHONPATH,
    PYTHONHASHSEED) so determinism cannot lean on inherited state."""
    script = _PROBE.format(src=SRC, spec_json=spec.to_json())
    result = subprocess.run(
        [sys.executable, "-I", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.fixture(scope="module")
def catalogue(tmp_path_factory):
    return spec_catalogue(tmp_path_factory.mktemp("workloads"))


def test_catalogue_covers_every_registered_kind(catalogue):
    # Adding a workload kind without a determinism probe fails loudly.
    assert set(catalogue) == set(WORKLOADS.kinds())


@pytest.mark.parametrize("kind", sorted(WORKLOADS.kinds()))
def test_kind_materializes_bit_identical_in_subprocess(kind, catalogue):
    from repro.workload_spec import trace_fingerprint

    spec = catalogue[kind]
    local = trace_fingerprint(spec.materialize())
    assert trace_fingerprint(spec.materialize()) == local  # stable in-process
    assert subprocess_fingerprint(spec) == local  # stable cross-process


def test_spec95_all_inputs_deterministic_in_subprocess():
    # The full default workload universe: every Table 1 population is
    # seeded from its label CRC, so the suite key is a valid address.
    from repro.workload_spec import spec95_suite, trace_fingerprint

    suite = spec95_suite("primary", 0.005)
    local = trace_fingerprint(suite.materialize())
    assert subprocess_fingerprint(suite) == local


def test_round_trip_preserves_materialization(catalogue):
    # JSON round-trip must not perturb generation (e.g. via float
    # formatting or tuple/list coercions).
    from repro.workload_spec import WorkloadSpec, trace_fingerprint

    for kind, spec in catalogue.items():
        rebuilt = WorkloadSpec.from_json(json.dumps(json.loads(spec.to_json())))
        assert trace_fingerprint(rebuilt.materialize()) == trace_fingerprint(
            spec.materialize()
        ), kind
