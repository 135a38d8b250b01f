"""Tests for the chunked RBT v2 format, TraceReader and write_chunks."""

import io
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.trace import (
    Trace,
    TraceReader,
    load_trace,
    read_binary,
    rechunk,
    save_trace,
    write_binary,
    write_chunks,
)
from repro.trace.io import _HEADER, MAGIC
from repro.workload_spec import TraceFileSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_trace(n, seed=0, pcs_range=200, name="t"):
    rng = np.random.default_rng(seed)
    return Trace(
        rng.integers(0, pcs_range, n) * 4 + 0x400,
        rng.integers(0, 2, n),
        name=name,
    )


def chunks_of(trace, k):
    for start in range(0, len(trace), k):
        yield trace[start : start + k]


class TestV2RoundTrip:
    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 1000, 10_001])
    def test_roundtrip(self, compress, n):
        t = make_trace(n)
        buf = io.BytesIO()
        write_binary(t, buf, version=2, compress=compress, chunk_len=256)
        buf.seek(0)
        assert read_binary(buf) == t

    def test_roundtrip_preserves_name(self, tmp_path):
        t = make_trace(100, name="bench/input")
        path = tmp_path / "t.rbt"
        save_trace(t, path, version=2)
        assert load_trace(path).name == "bench/input"

    def test_save_trace_default_is_v2(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(make_trace(10), path)
        with TraceReader(path) as reader:
            assert reader.version == 2

    def test_v1_roundtrip_still_works(self, tmp_path):
        t = make_trace(1000)
        path = tmp_path / "t.rbt"
        save_trace(t, path, version=1)
        assert load_trace(path) == t

    def test_v1_rejects_compress(self):
        with pytest.raises(TraceFormatError):
            write_binary(make_trace(4), io.BytesIO(), version=1, compress=True)

    def test_unknown_version_rejected(self):
        with pytest.raises(TraceFormatError):
            write_binary(make_trace(4), io.BytesIO(), version=3)


class TestConvertBitIdentity:
    """v1 <-> v2 conversion preserves every record and the name."""

    @pytest.mark.parametrize("compress", [False, True])
    def test_v1_to_v2_streaming(self, tmp_path, compress):
        t = make_trace(5000, name="conv")
        v1 = tmp_path / "v1.rbt"
        v2 = tmp_path / "v2.rbt"
        save_trace(t, v1, version=1)
        with TraceReader(v1, chunk_len=512) as reader:
            records = write_chunks(
                rechunk(iter(reader), 640), v2, name=reader.name, compress=compress
            )
        assert records == len(t)
        back = load_trace(v2)
        assert back == t
        assert back.name == "conv"

    def test_v2_to_v1(self, tmp_path):
        t = make_trace(3000, name="conv")
        v2 = tmp_path / "v2.rbt"
        v1 = tmp_path / "v1.rbt"
        save_trace(t, v2, version=2, chunk_len=256)
        save_trace(load_trace(v2), v1, version=1)
        assert load_trace(v1) == t

    def test_fingerprint_is_chunking_invariant(self, tmp_path):
        t = make_trace(4000)
        paths = []
        for i, (chunk_len, compress) in enumerate([(256, False), (1024, True), (4096, False)]):
            path = tmp_path / f"f{i}.rbt"
            save_trace(t, path, version=2, chunk_len=chunk_len, compress=compress)
            paths.append(path)
        fingerprints = set()
        for path in paths:
            with TraceReader(path) as reader:
                fingerprints.add(reader.fingerprint)
        assert len(fingerprints) == 1


class TestTraceReader:
    @pytest.mark.parametrize("compress", [False, True])
    def test_chunk_iteration_and_random_access(self, tmp_path, compress):
        t = make_trace(10_000, name="r")
        path = tmp_path / "t.rbt"
        save_trace(t, path, version=2, chunk_len=1024, compress=compress)
        with TraceReader(path) as reader:
            assert len(reader) == len(t)
            assert reader.num_chunks == 10
            assert reader.compressed is compress
            assert sum(reader.chunk_counts()) == len(t)
            rebuilt = Trace(
                np.concatenate([c.pcs for c in reader]),
                np.concatenate([c.outcomes for c in reader]),
                name=reader.name,
            )
            assert rebuilt == t
            # Random access matches the slice, including the short tail.
            assert reader.chunk(7) == t[7 * 1024 : 8 * 1024].with_name("r")
            assert reader.chunk(9) == t[9 * 1024 :].with_name("r")
            with pytest.raises(IndexError):
                reader.chunk(10)

    def test_reader_is_reiterable(self, tmp_path):
        t = make_trace(2000)
        path = tmp_path / "t.rbt"
        save_trace(t, path, version=2, chunk_len=512)
        with TraceReader(path) as reader:
            first = [len(c) for c in reader]
            second = [len(c) for c in reader]
            assert first == second == [512, 512, 512, 464]

    def test_v1_synthesized_chunks(self, tmp_path):
        t = make_trace(5000)
        path = tmp_path / "t.rbt"
        save_trace(t, path, version=1)
        with TraceReader(path, chunk_len=1024) as reader:
            assert reader.version == 1
            assert reader.num_chunks == 5
            assert reader.read() == t
            assert reader.chunk(2) == t[2048:3072].with_name(t.name)

    def test_v1_chunk_len_must_be_byte_aligned(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(make_trace(100), path, version=1)
        with pytest.raises(TraceFormatError):
            TraceReader(path, chunk_len=100)

    def test_empty_file_reader(self, tmp_path):
        path = tmp_path / "e.rbt"
        save_trace(Trace.empty(name="e"), path)
        with TraceReader(path) as reader:
            assert len(reader) == 0
            assert reader.num_chunks == 0
            assert list(reader) == []
            assert reader.read().name == "e"


class TestCorruption:
    """Truncated or corrupted sections must raise, never load silently."""

    def _v1_bytes(self, t):
        buf = io.BytesIO()
        write_binary(t, buf, version=1)
        return buf.getvalue()

    def test_v1_truncated_outcomes_tail(self):
        # Regression: a v1 file whose packed-bits tail is one byte short
        # must raise, not silently zero-fill the missing outcomes.
        t = make_trace(1000)
        data = self._v1_bytes(t)
        with pytest.raises(TraceFormatError, match="outcome payload"):
            read_binary(io.BytesIO(data[:-1]))

    def test_v1_truncated_pcs(self):
        t = make_trace(1000)
        data = self._v1_bytes(t)
        packed = (len(t) + 7) // 8
        with pytest.raises(TraceFormatError, match="pc payload"):
            read_binary(io.BytesIO(data[: -(packed + 17)]))

    def test_v1_truncated_name(self):
        t = make_trace(0, name="some-long-trace-name")
        data = self._v1_bytes(t)
        with pytest.raises(TraceFormatError, match="trace name"):
            read_binary(io.BytesIO(data[: _HEADER.size + 3]))

    def test_v1_header_count_beyond_payload(self):
        # A header promising more records than the payload holds.
        t = make_trace(64)
        data = bytearray(self._v1_bytes(t))
        header = bytearray(_HEADER.pack(MAGIC, 1, 0, 1 << 20, 0))
        data[: _HEADER.size] = header
        with pytest.raises(TraceFormatError):
            read_binary(io.BytesIO(bytes(data)))

    def test_v2_truncated_trailer(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(make_trace(1000), path, version=2, chunk_len=256)
        data = path.read_bytes()
        with pytest.raises(TraceFormatError):
            read_binary(io.BytesIO(data[:-5]))

    def test_v2_corrupt_chunk_payload_fails_crc(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(make_trace(1000, name=""), path, version=2, chunk_len=256)
        data = bytearray(path.read_bytes())
        # Flip a bit inside the first chunk's PC payload (past header).
        data[40] ^= 0x01
        with pytest.raises(TraceFormatError):
            read_binary(io.BytesIO(bytes(data)))

    def test_v2_count_mismatch(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(make_trace(1000), path, version=2, chunk_len=256)
        data = bytearray(path.read_bytes())
        bad = bytearray(_HEADER.pack(MAGIC, 2, 0, 999, 1))
        data[: _HEADER.size] = bad
        with pytest.raises(TraceFormatError, match="header promises"):
            read_binary(io.BytesIO(bytes(data)))

    def test_v2_corrupt_compressed_chunk(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(make_trace(1000, name=""), path, version=2, compress=True, chunk_len=256)
        data = bytearray(path.read_bytes())
        data[60] ^= 0xFF
        (path.parent / "c.rbt").write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            load_trace(path.parent / "c.rbt")


class TestRechunk:
    def test_rechunk_exact_sizes(self):
        t = make_trace(1000)
        sizes = [len(c) for c in rechunk(chunks_of(t, 137), 256)]
        assert sizes == [256, 256, 256, 232]

    def test_rechunk_preserves_data(self):
        t = make_trace(777)
        parts = list(rechunk(chunks_of(t, 100), 64))
        rebuilt = Trace(
            np.concatenate([p.pcs for p in parts]),
            np.concatenate([p.outcomes for p in parts]),
        )
        assert rebuilt == Trace(t.pcs, t.outcomes)

    def test_rechunk_rejects_bad_len(self):
        with pytest.raises(TraceFormatError):
            list(rechunk([make_trace(10)], 0))


class TestWriteChunks:
    def test_skips_empty_chunks(self, tmp_path):
        t = make_trace(100)
        path = tmp_path / "t.rbt"
        chunks = [Trace.empty(), t[:50], Trace.empty(), t[50:], Trace.empty()]
        assert write_chunks(chunks, path, name="x") == 100
        back = load_trace(path)
        assert back == t.with_name("x")
        with TraceReader(path) as reader:
            assert reader.num_chunks == 2

    def test_compression_actually_shrinks(self, tmp_path):
        # Highly regular data compresses well below the raw encoding.
        t = Trace(np.full(50_000, 0x400), np.ones(50_000, dtype=np.uint8), name="c")
        raw = tmp_path / "raw.rbt"
        packed = tmp_path / "packed.rbt"
        save_trace(t, raw, version=2)
        save_trace(t, packed, version=2, compress=True)
        assert packed.stat().st_size < raw.stat().st_size / 10
        assert load_trace(packed) == t

    def test_zlib_payloads_are_valid(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(make_trace(512, name=""), path, version=2, compress=True, chunk_len=256)
        with TraceReader(path) as reader:
            entry = reader._chunks[0]
            raw = path.read_bytes()
            payload = raw[entry.offset : entry.offset + entry.pcs_bytes]
            assert len(zlib.decompress(payload)) == entry.count * 8

    def test_a_failed_write_leaves_the_destination_as_it_was(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(make_trace(100), path)
        before = path.read_bytes()

        def failing():
            yield make_trace(50)
            raise RuntimeError("the source failed")

        with pytest.raises(RuntimeError, match="the source failed"):
            write_chunks(failing(), path)
        with pytest.raises(TraceFormatError, match="version 3"):
            save_trace(make_trace(10), path, version=3)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["t.rbt"]


class TestLoadedTracesOwnTheirArrays:
    """A loaded trace does not share memory with its file, so rewriting
    or truncating the file leaves the trace as it was."""

    TRACE = Trace(np.arange(1000) * 4, np.arange(1000) % 2, name="own")

    @pytest.mark.parametrize("version", [1, 2])
    def test_rewriting_the_file_in_place(self, tmp_path, version):
        path = tmp_path / "t.rbt"
        save_trace(self.TRACE, path, version=version)
        doubled = io.BytesIO()
        twice = Trace(self.TRACE.pcs * 2, self.TRACE.outcomes, name="own")
        write_binary(twice, doubled, version=version)
        with TraceReader(path) as reader:
            loaded = [reader.read(), load_trace(path), TraceFileSpec(path=str(path)).materialize()]
        # The same size, written over the same file.
        with open(path, "r+b") as fp:
            fp.write(doubled.getvalue())
        assert path.stat().st_size == len(doubled.getvalue())
        assert all(trace == self.TRACE for trace in loaded)

    @pytest.mark.parametrize("version", [1, 2])
    def test_truncating_the_file(self, tmp_path, version):
        # A trace that still mapped its file died of SIGBUS here, so the
        # reads run in a child process.
        path = tmp_path / "t.rbt"
        save_trace(self.TRACE, path, version=version)
        script = (
            f"import os, sys; sys.path.insert(0, {SRC!r})\n"
            "from repro.trace import TraceReader, load_trace\n"
            f"path = {str(path)!r}\n"
            "with TraceReader(path) as reader:\n"
            "    traces = [reader.read(), load_trace(path)]\n"
            "os.truncate(path, 0)\n"
            "print(*[int(trace.pcs.sum()) for trace in traces])\n"
        )
        result = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, (result.returncode, result.stderr)
        assert result.stdout.split() == ["1998000", "1998000"]
