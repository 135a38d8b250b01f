"""Bit-identity and selection contract of the compiled kernel backends.

The acceptance contract of the ``REPRO_ENGINE_BACKEND`` layer: for
every available backend, every per-record family (YAGS, bi-mode,
filter, DHLF) and every chunk split — including one record per chunk
and one chunk for the whole trace — the family's carrier (its C
kernel on ``cext``, the stateful predictor on ``python``) produces
byte-identical predictions to the stateful reference predictors.
Selection rules (``REPRO_ENGINE_BACKEND``, else auto; no entry point
takes a backend argument; unavailable-by-name raises; ``python``
always works) are pinned here too; docs/PERFORMANCE.md documents the
same matrix for users.  Tests choose a backend through the shared
``backend`` fixture (the repository root's ``conftest.py``).
"""

import numpy as np
import pytest

from repro.cli import main
from repro.engine import (
    simulate,
    simulate_batched,
    simulate_batched_stream,
    simulate_stream,
)
from repro.engine.backend import (
    BACKENDS,
    _KernelStream,
    backend_availability,
    compiled_stream,
    resolve_backend,
)
from repro.engine.batched import BatchedStream
from repro.engine.compiled import cext
from repro.engine.streaming import _ReferenceStream, stream_simulator
from repro.errors import ConfigurationError
from repro.experiments import ExperimentContext
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


def chunks_of(trace, k):
    for start in range(0, len(trace), k):
        yield trace[start : start + k]


def reference_predictions(spec, trace):
    stream = stream_simulator(spec.build(), engine="reference")
    return stream.feed(trace.pcs, trace.outcomes)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("name", sorted(FAMILY_SPECS))
    @pytest.mark.parametrize("chunk_len", CHUNK_LENGTHS)
    def test_predictions_identical_across_chunk_splits(
        self, backend, name, chunk_len
    ):
        spec = FAMILY_SPECS[name]
        expected = reference_predictions(spec, TRACE)
        stream = stream_simulator(spec.build())
        # cext steps the family's C kernel; python the predictor itself.
        route = _KernelStream if backend == "cext" else _ReferenceStream
        assert type(stream) is route
        assert (compiled_stream(spec.build()) is None) == (backend == "python")
        got = np.concatenate(
            [
                stream.feed(chunk.pcs, chunk.outcomes)
                for chunk in chunks_of(TRACE, chunk_len)
            ]
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", sorted(FAMILY_SPECS))
    def test_simulate_result_identical(self, backend, name):
        spec = FAMILY_SPECS[name]
        base = simulate(spec, TRACE, engine="reference")
        result = simulate(spec, TRACE)
        assert np.array_equal(result.pcs, base.pcs)
        assert np.array_equal(result.executions, base.executions)
        assert np.array_equal(result.mispredictions, base.mispredictions)

    def test_simulate_stream_routes_to_kernels(self, backend):
        spec = FAMILY_SPECS["yags"]
        base = simulate(spec, TRACE, engine="reference")
        result = simulate_stream(spec, chunks_of(TRACE, 997))
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

    def test_family_without_a_kernel_never_probes_the_c_build(self, monkeypatch):
        # The kernel families are pinned by TestKernelBitIdentity; a
        # filter has a kernel only over a two-level or bimodal backing.
        def refuse():
            raise AssertionError("a family without a kernel probed the C build")

        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "auto")
        monkeypatch.setattr(cext, "available", refuse)
        for spec in (StaticSpec(), TwoLevelSpec(history_bits=4), FilterSpec(backing=YagsSpec())):
            assert compiled_stream(spec.build()) is None

    def test_backends_tuple_is_the_cli_contract(self):
        assert BACKENDS == ("auto", "python", "cext")


class TestSessionAndCliPlumbing:
    def test_no_entry_point_takes_a_backend(self, capsys):
        # The backend is one process-level setting, REPRO_ENGINE_BACKEND.
        spec = FAMILY_SPECS["bimode"]
        gas = [TwoLevelSpec.gas(2).build()]
        calls = [
            lambda: simulate(spec, TRACE, backend="python"),
            lambda: simulate_stream(spec, [TRACE], backend="python"),
            lambda: stream_simulator(spec.build(), backend="python"),
            lambda: simulate_batched(gas, TRACE, backend="python"),
            lambda: simulate_batched_stream(gas, [TRACE], backend="python"),
            lambda: BatchedStream(gas, backend="python"),
            lambda: compiled_stream(spec.build(), "python"),
            lambda: Session(backend="python"),
            lambda: ExperimentContext(scale=0.05, cache_dir=None).session(backend="python"),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "simulate",
                    "--spec",
                    '{"kind": "dhlf", "pht_index_bits": 8, "interval": 64}',
                    "--workload",
                    '{"kind": "kernel", "name": "bubble_sort", "size": 32}',
                    "--backend",
                    "python",
                ]
            )
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_cli_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "available" in out
        rows = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert rows[:3] == ["python", "cext", "auto"]
        assert "numba" not in out

    def test_cli_backends_command_resolves_the_setting(self, backend, capsys, monkeypatch):
        assert main(["backends"]) == 0
        assert f"REPRO_ENGINE_BACKEND={backend} -> {backend}" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "fortran")
        assert main(["backends"]) == 1
        assert "unknown backend 'fortran'" in capsys.readouterr().err

    def test_cli_simulate_has_no_workers_flag(self, capsys):
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


# -- the ctypes boundary ---------------------------------------------------------

CEXT_USABLE = backend_availability()["cext"][0]

#: One geometry per C kernel; ``sweep_step`` runs a PAs and a GAs.
KERNEL_SPECS = {
    "yags_step": FAMILY_SPECS["yags-small"],
    "bimode_step": FAMILY_SPECS["bimode-small"],
    "filter_step": FAMILY_SPECS["filter"],
    "dhlf_step": FAMILY_SPECS["dhlf-small"],
    "sweep_step": (TwoLevelSpec.pas(3), TwoLevelSpec.gas(5)),
}


def cext_call(name):
    """``(kernel, regs, params, state, prediction rows)`` of a fresh
    ``cext`` carrier for the named C kernel."""
    if name == "sweep_step":
        predictors = [spec.build() for spec in KERNEL_SPECS[name]]
        kernel = BatchedStream(predictors)._kernel
        return kernel.step, kernel.regs, kernel.params, (kernel.pht, kernel.bht), 2
    stream = compiled_stream(KERNEL_SPECS[name].build())
    return stream.kernel, stream.regs, stream.params, stream.state, 1


BAD_CASES = (
    "int32-pcs",
    "strided-pcs",
    "short-predictions",
    "short-outcomes",
    "read-only-predictions",
)


def bad_arrays(case, rows, n=64):
    """``(pcs, outcomes, predictions)`` with one defect."""
    pcs = np.arange(n, dtype=np.int64) * 4 + 0x4000
    outcomes = (np.arange(n) % 3 == 0).astype(np.uint8)
    predictions = np.empty(rows * n, dtype=np.uint8)
    if case == "int32-pcs":
        pcs = pcs.astype(np.int32)
    elif case == "strided-pcs":
        pcs = np.repeat(pcs, 2)[::2]
    elif case == "short-predictions":
        predictions = predictions[:-1]
    elif case == "short-outcomes":
        outcomes = outcomes[:-1]
    elif case == "read-only-predictions":
        predictions.setflags(write=False)
    return pcs, outcomes, predictions


#: One defect each in a ``sweep_count`` call over 64 records and a
#: 16-branch miss matrix.
COUNT_BAD_CASES = (
    "id-equal-to-width",
    "negative-id",
    "int32-ids",
    "short-ids",
    "ids-inside-the-matrix",
    "wrong-matrix-shape",
    "read-only-matrix",
)


def count_arrays(case, configs, n=64, width=16):
    """``(pcs, outcomes, ids, misses)`` for ``sweep_count`` with one defect."""
    pcs, outcomes, _ = bad_arrays("none", 1, n)
    ids = np.arange(n, dtype=np.int64) % width
    misses = np.zeros((configs, width), dtype=np.int64)
    if case == "id-equal-to-width":
        ids[5] = width
    elif case == "negative-id":
        ids[5] = -1
    elif case == "int32-ids":
        ids = ids.astype(np.int32)
    elif case == "short-ids":
        ids = ids[:-1]
    elif case == "ids-inside-the-matrix":
        # Valid ids at the check, but C would overwrite them as it counts.
        misses = np.zeros((configs, n), dtype=np.int64)
        ids = misses[0]
        ids[:] = np.arange(n) % width
    elif case == "wrong-matrix-shape":
        misses = np.zeros((configs + 1, width), dtype=np.int64)
    elif case == "read-only-matrix":
        misses.setflags(write=False)
    return pcs, outcomes, ids, misses


@pytest.mark.usefixtures("backend")
@pytest.mark.parametrize("backend", ["cext"], indirect=True)
class TestCtypesBoundary:
    """A bad array raises ConfigurationError and never reaches C."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
    def test_good_arrays_pass(self, name):
        kernel, regs, params, state, rows = cext_call(name)
        pcs, outcomes, predictions = bad_arrays("none", rows)
        kernel(pcs, outcomes, predictions, regs, params, *state)

    @pytest.mark.parametrize("case", BAD_CASES)
    @pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
    def test_bad_arrays_rejected(self, name, case):
        kernel, regs, params, state, rows = cext_call(name)
        pcs, outcomes, predictions = bad_arrays(case, rows)
        before = [table.copy() for table in state]
        with pytest.raises(ConfigurationError, match=name):
            kernel(pcs, outcomes, predictions, regs, params, *state)
        assert all(np.array_equal(a, b) for a, b in zip(before, state))

    @pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
    def test_wrong_state_dtype_or_count_rejected(self, name):
        kernel, regs, params, state, rows = cext_call(name)
        pcs, outcomes, predictions = bad_arrays("none", rows)
        widened = (state[0].astype(np.float64),) + tuple(state[1:])
        with pytest.raises(ConfigurationError, match=name):
            kernel(pcs, outcomes, predictions, regs, params, *widened)
        with pytest.raises(ConfigurationError, match=name):
            kernel(pcs, outcomes, predictions, regs, params, *state[:-1])

    def test_sweep_layout_must_match_its_rows(self):
        kernel, regs, params, state, rows = cext_call("sweep_step")
        pcs, outcomes, predictions = bad_arrays("none", rows)
        with pytest.raises(ConfigurationError, match="sweep_step"):
            kernel(pcs, outcomes, predictions, regs[:1].copy(), params, *state)

    @pytest.mark.parametrize(
        "column, value",
        [
            (1, 33),  # history wider than 32 bits
            (2, 63),  # PHT index wider than 62 bits
            (4, 1 << 20),  # PHT offset past the table
            (5, 1 << 20),  # BHT offset past the rows
            (6, 1 << 20),  # BHT mask past the rows
            (7, 9),  # counters wider than 8 bits
        ],
    )
    def test_sweep_tables_checked_when_built(self, column, value):
        _, regs, params, (pht, bht), _ = cext_call("sweep_step")
        cext.check_sweep_tables(params, regs, pht, bht)
        bad = params.copy()
        bad[1 + column] = value  # the first configuration is the PAs
        with pytest.raises(ConfigurationError, match="out of bounds"):
            cext.check_sweep_tables(bad, regs, pht, bht)
        with pytest.raises(ConfigurationError, match="disagree"):
            cext.check_sweep_tables(params, regs[:1], pht, bht)

    # ``sweep_count`` writes at every step's branch id, so a bad id or
    # miss matrix must never reach C either.

    @staticmethod
    def sweep_kernel():
        predictors = [spec.build() for spec in KERNEL_SPECS["sweep_step"]]
        return BatchedStream(predictors)._kernel

    def test_counting_entry_counts_the_misses_of_the_predictions(self):
        counting, stepping = self.sweep_kernel(), self.sweep_kernel()
        pcs, outcomes, ids, misses = count_arrays("none", len(counting.regs))
        predictions = np.empty(2 * len(pcs), dtype=np.uint8)
        stepping.step(
            pcs, outcomes, predictions, stepping.regs, stepping.params, stepping.pht, stepping.bht
        )
        counting.count(
            pcs, outcomes, ids, misses, counting.regs, counting.params, counting.pht, counting.bht
        )
        for row, predicted in enumerate(predictions.reshape(2, -1)):
            expected = np.bincount(ids[predicted != outcomes], minlength=misses.shape[1])
            assert np.array_equal(misses[row], expected)
        assert np.array_equal(counting.regs, stepping.regs)
        assert np.array_equal(counting.pht, stepping.pht)

    @pytest.mark.parametrize("case", COUNT_BAD_CASES)
    def test_counting_entry_rejects_bad_ids_or_matrix(self, case):
        kernel = self.sweep_kernel()
        pcs, outcomes, ids, misses = count_arrays(case, len(kernel.regs))
        before = [table.copy() for table in (kernel.regs, kernel.pht, kernel.bht)]
        with pytest.raises(ConfigurationError, match="sweep_count"):
            kernel.count(
                pcs, outcomes, ids, misses, kernel.regs, kernel.params, kernel.pht, kernel.bht
            )
        after = (kernel.regs, kernel.pht, kernel.bht)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestBuildCache:
    """The shared object's name keys everything that shapes the binary."""

    @staticmethod
    def fake_compiler(directory, body):
        path = directory / "cc"
        path.write_bytes(body)
        return str(path)

    def test_machine_and_compiler_change_the_name(self, tmp_path, monkeypatch):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        compiler = self.fake_compiler(tmp_path / "a", b"one compiler")
        other = self.fake_compiler(tmp_path / "b", b"another compiler")
        name = cext._library_name(compiler)
        assert name == cext._library_name(compiler)
        assert cext._library_name(other) != name
        monkeypatch.setattr(cext.platform, "machine", lambda: "elsewhere")
        assert cext._library_name(compiler) != name

    def test_no_compiler_loads_no_cached_object(self, tmp_path, monkeypatch):
        # Whatever the cache holds, a host that cannot key it stays off.
        (tmp_path / "repro_kernels_0000000000000000.so").write_bytes(b"")
        monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
        monkeypatch.setattr(cext, "_cache", {})
        monkeypatch.setattr(cext, "_find_compiler", lambda: None)
        usable, reason = cext.available()
        assert not usable and "no C compiler" in reason
        assert resolve_backend("auto") == "python"

    @pytest.mark.skipif(not CEXT_USABLE, reason="no C compiler on this host")
    def test_failing_smoke_call_makes_auto_resolve_to_python(self, monkeypatch):
        wrap = cext._wrap

        def miscompiled(name, func, argtypes):
            call = wrap(name, func, argtypes)
            if name != "sweep_step":
                return call

            def flipped(pcs, outcomes, predictions, *rest):
                call(pcs, outcomes, predictions, *rest)
                predictions ^= 1

            return flipped

        monkeypatch.setattr(cext, "_cache", {})
        monkeypatch.setattr(cext, "_wrap", miscompiled)
        usable, reason = cext.available()
        assert not usable and "smoke call of sweep_step" in reason
        assert resolve_backend("auto") == "python"
        with pytest.raises(ConfigurationError, match="unavailable"):
            resolve_backend("cext")
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "auto")
        assert BatchedStream([TwoLevelSpec.gas(2).build()]).backend == "python"
