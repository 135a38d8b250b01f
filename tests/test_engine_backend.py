"""Bit-identity and selection contract of the compiled kernel backends.

The acceptance contract of the ``REPRO_ENGINE_BACKEND`` layer: for
every available backend, every reference-path family (YAGS, bi-mode,
filter, DHLF) and every chunk split — including one record per chunk
and one chunk for the whole trace — the compiled per-record kernels
produce byte-identical predictions to the stateful reference
predictors.  Selection rules (explicit argument > environment > auto,
unavailable-by-name raises, ``python`` always works) are pinned here
too; docs/PERFORMANCE.md documents the same matrix for users.
"""

import numpy as np
import pytest

from repro.engine import simulate, simulate_stream
from repro.engine.backend import (
    BACKENDS,
    backend_availability,
    compiled_stream,
    resolve_backend,
    supports_compiled,
)
from repro.engine.streaming import stream_simulator
from repro.errors import ConfigurationError
from repro.session import Session
from repro.spec import (
    BimodalSpec,
    BiModeSpec,
    DhlfSpec,
    FilterSpec,
    StaticSpec,
    TwoLevelSpec,
    YagsSpec,
)
from repro.trace.stream import Trace

# One record per chunk, a small odd split, a prime split, and one
# chunk holding the whole trace (ISSUE 10's reconciliation grid).
CHUNK_LENGTHS = (1, 7, 997, 1 << 20)


def make_trace(n=3000, seed=23, static=120, name="backend-test"):
    """A trace with per-PC structure so every family actually learns."""
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, static, n) * 4 + 0x4000
    outcomes = np.zeros(n, dtype=np.uint8)
    state: dict[int, int] = {}
    noise = rng.random(n)
    for i in range(n):
        pc = int(pcs[i])
        s = state.get(pc, pc & 0x7)
        outcomes[i] = 1 if (((s >> 2) ^ s) & 1) or noise[i] < 0.2 else 0
        state[pc] = ((s << 1) | int(outcomes[i])) & 0xFF
    return Trace(pcs, outcomes, name=name)


TRACE = make_trace()

# Every family with a compiled kernel, with non-default geometry so
# masks/tags/thresholds are exercised, plus filter over both supported
# backings (global/xor two-level and bimodal).
FAMILY_SPECS = {
    "yags": YagsSpec(),
    "yags-small": YagsSpec(
        history_bits=5, cache_index_bits=7, choice_index_bits=9, tag_bits=5
    ),
    "bimode": BiModeSpec(),
    "bimode-small": BiModeSpec(history_bits=5, direction_index_bits=8),
    "filter": FilterSpec(),
    "filter-bimodal": FilterSpec(backing=BimodalSpec(entries=256)),
    "filter-xor": FilterSpec(
        backing=TwoLevelSpec(
            history_kind="global", history_bits=8, index_scheme="xor"
        )
    ),
    "dhlf": DhlfSpec(),
    "dhlf-small": DhlfSpec(pht_index_bits=8, interval=64),
}


def available_backends():
    return [
        name for name, (usable, _) in backend_availability().items() if usable
    ]


def chunks_of(trace, k):
    for start in range(0, len(trace), k):
        yield trace[start : start + k]


def reference_predictions(spec, trace):
    stream = stream_simulator(spec.build(), engine="reference")
    return stream.feed(trace.pcs, trace.outcomes)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", sorted(FAMILY_SPECS))
    @pytest.mark.parametrize("chunk_len", CHUNK_LENGTHS)
    def test_predictions_identical_across_chunk_splits(
        self, backend, name, chunk_len
    ):
        spec = FAMILY_SPECS[name]
        expected = reference_predictions(spec, TRACE)
        stream = compiled_stream(spec.build(), backend)
        assert stream is not None, f"{name} should have a compiled kernel"
        got = np.concatenate(
            [
                stream.feed(chunk.pcs, chunk.outcomes)
                for chunk in chunks_of(TRACE, chunk_len)
            ]
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", sorted(FAMILY_SPECS))
    def test_simulate_result_identical(self, backend, name):
        spec = FAMILY_SPECS[name]
        base = simulate(spec, TRACE, engine="reference")
        result = simulate(spec, TRACE, backend=backend)
        assert np.array_equal(result.pcs, base.pcs)
        assert np.array_equal(result.executions, base.executions)
        assert np.array_equal(result.mispredictions, base.mispredictions)

    @pytest.mark.parametrize("backend", available_backends())
    def test_simulate_stream_routes_to_kernels(self, backend):
        spec = FAMILY_SPECS["yags"]
        base = simulate(spec, TRACE, engine="reference")
        result = simulate_stream(spec, chunks_of(TRACE, 997), backend=backend)
        assert np.array_equal(result.mispredictions, base.mispredictions)


class TestBackendSelection:
    def test_python_always_available(self):
        availability = backend_availability()
        assert set(availability) == {"python", "cext"}
        assert availability["python"][0] is True

    def test_resolve_defaults_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "python")
        assert resolve_backend() == "python"
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "")
        assert resolve_backend() in ("python", "cext")

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "nonsense")
        assert resolve_backend("python") == "python"

    def test_auto_resolves_to_concrete_backend(self):
        resolved = resolve_backend("auto")
        assert resolved in ("python", "cext")
        assert backend_availability()[resolved][0] if resolved != "python" else True

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("fortran")

    def test_unavailable_backend_by_name_raises(self):
        usable, _ = backend_availability()["cext"]
        if not usable:
            with pytest.raises(ConfigurationError, match="unavailable"):
                resolve_backend("cext")

    def test_env_backend_used_by_auto_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "python")
        base = simulate(FAMILY_SPECS["dhlf"], TRACE, engine="reference")
        result = simulate(FAMILY_SPECS["dhlf"], TRACE)
        assert np.array_equal(result.mispredictions, base.mispredictions)

    def test_supports_compiled(self):
        assert supports_compiled(YagsSpec().build())
        assert supports_compiled(BiModeSpec().build())
        assert supports_compiled(DhlfSpec().build())
        assert supports_compiled(FilterSpec().build())
        assert not supports_compiled(StaticSpec().build())
        assert not supports_compiled(TwoLevelSpec(history_bits=4).build())
        assert compiled_stream(StaticSpec().build()) is None

    def test_backends_tuple_is_the_cli_contract(self):
        assert BACKENDS == ("auto", "python", "cext")


class TestSessionAndCliPlumbing:
    def test_session_backend_forwarded(self):
        base = simulate(FAMILY_SPECS["bimode"], TRACE, engine="reference")
        session = Session(backend="python")
        result = session.simulate(TRACE, FAMILY_SPECS["bimode"])
        assert np.array_equal(result.mispredictions, base.mispredictions)

    def test_session_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            Session(backend="fortran")

    def test_cli_backend_flag(self, capsys):
        from repro.cli import main

        spec = '{"kind": "dhlf", "pht_index_bits": 8, "interval": 64}'
        workload = '{"kind": "kernel", "name": "bubble_sort", "size": 32}'
        code = main(
            [
                "simulate",
                "--spec",
                spec,
                "--workload",
                workload,
                "--backend",
                "python",
            ]
        )
        assert code == 0
        with_backend = capsys.readouterr().out
        code = main(
            ["simulate", "--spec", spec, "--workload", workload,
             "--engine", "reference"]
        )
        assert code == 0
        assert capsys.readouterr().out == with_backend

    def test_cli_backends_command(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "available" in out
        rows = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert rows[:3] == ["python", "cext", "auto"]
        assert "numba" not in out

    def test_cli_simulate_has_no_workers_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "simulate",
                    "--spec",
                    '{"kind": "bimodal"}',
                    "--workload",
                    '{"kind": "kernel", "name": "bubble_sort", "size": 32}',
                    "--workers",
                    "2",
                ]
            )
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err
