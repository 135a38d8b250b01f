"""Fixtures shared by the test suite (``tests/``) and the benchmark
suite (``benchmarks/``).

Defines the ``backend`` fixture, the one way a test or a benchmark
chooses a kernel backend.  It lives at the repository root, beside
``setup.py``, so pytest loads it for both trees; it imports nothing
beyond pytest and the package, so the benchmark gate runs without the
test suite's extras (hypothesis).
"""

import pytest

from repro.engine.backend import backend_availability


@pytest.fixture(params=["python", "cext"])
def backend(request, monkeypatch):
    """Run the test once per kernel backend, chosen the way every caller
    chooses it: through ``REPRO_ENGINE_BACKEND``, which each carrier
    and each perf ingest pass reads when it is built.  A backend this
    host cannot run (``cext`` without a C compiler) skips."""
    usable, reason = backend_availability()[request.param]
    if not usable:
        pytest.skip(f"backend {request.param!r} is unavailable: {reason}")
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", request.param)
    return request.param
