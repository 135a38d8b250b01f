"""Malformed trace files fail with ``TraceFormatError`` and nothing else.

A byte-mutation property test over seeds written as v1, v2, compressed
v2 and multi-chunk v2, plus one regression test per escape it found in
the readers: a name that is not UTF-8, a record count the file cannot
hold, and a v1 PC with the top bit set.  Run it longer with
``--hypothesis-profile fuzz`` (see ``tests/conftest.py``).
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.trace import Trace, TraceReader, load_trace, read_binary, read_text, write_binary
from repro.trace.io import _HEADER, _V2_EXTRA

SEED_TRACE = Trace(
    np.arange(37) % 5 * 4 + 0x400,
    np.arange(37) % 3 == 0,
    name="seed-ß",
)


def written(trace=SEED_TRACE, **kwargs) -> bytes:
    buf = io.BytesIO()
    write_binary(trace, buf, **kwargs)
    return buf.getvalue()


SEEDS = {
    "v1": written(version=1),
    "v2": written(),
    "v2-compressed": written(compress=True),
    "v2-chunked": written(chunk_len=8),
}


def read_whole(data: bytes) -> Trace:
    return read_binary(io.BytesIO(data))


def read_chunks(data: bytes) -> Trace:
    with TraceReader(io.BytesIO(data)) as reader:
        return reader.read()


@settings(deadline=None)
@given(
    seed=st.sampled_from(sorted(SEEDS)),
    edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=4),
)
def test_mutated_file_reads_or_raises_trace_format_error(seed, edits):
    data = bytearray(SEEDS[seed])
    for at, value in edits:
        data[at % len(data)] = value
    for read in (read_whole, read_chunks):
        try:
            trace = read(bytes(data))
        except TraceFormatError:
            continue
        assert isinstance(trace, Trace)


def with_count(data: bytes, count: int) -> bytes:
    magic, version, flags, _, name_len = _HEADER.unpack_from(data)
    return _HEADER.pack(magic, version, flags, count, name_len) + data[_HEADER.size :]


class TestEscapes:
    @pytest.mark.parametrize("version", [1, 2])
    def test_name_that_is_not_utf8(self, version):
        data = bytearray(written(Trace([4, 8], [1, 0], name="ab"), version=version))
        name_at = _HEADER.size + (_V2_EXTRA.size if version == 2 else 0)
        data[name_at : name_at + 2] = b"\xff\xfe"
        for read in (read_whole, read_chunks):
            with pytest.raises(TraceFormatError, match="not UTF-8"):
                read(bytes(data))

    @pytest.mark.parametrize("count", [2**62, 2**64 - 1])
    def test_v1_count_too_large_for_an_index(self, count):
        data = with_count(SEEDS["v1"], count)
        for read in (read_whole, read_chunks):
            with pytest.raises(TraceFormatError, match="truncated"):
                read(data)

    def test_v1_count_is_checked_before_the_payload_is_read(self, tmp_path):
        data = with_count(SEEDS["v1"], 2**40)
        requested = []

        class Spy(io.BytesIO):
            def read(self, n=-1):
                requested.append(n)
                return super().read(n)

        with pytest.raises(TraceFormatError, match="truncated pc payload"):
            read_binary(Spy(data))
        assert max(requested) <= len(data)
        path = tmp_path / "huge-count.rbt"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match="truncated pc payload"):
            load_trace(path)

    def test_v1_pc_with_the_top_bit_set(self):
        data = bytearray(written(Trace([4, 8], [1, 0], name="ab"), version=1))
        pcs_at = _HEADER.size + len("ab")
        data[pcs_at + 7] = 0x80  # the high byte of the first little-endian PC
        for read in (read_whole, read_chunks):
            with pytest.raises(TraceFormatError, match="non-negative"):
                read(bytes(data))

    def test_v2_pc_with_the_top_bit_set_unverified(self):
        data = bytearray(written(Trace([4, 8], [1, 0], name="ab")))
        pcs_at = _HEADER.size + _V2_EXTRA.size + len("ab")
        data[pcs_at + 7] = 0x80
        with TraceReader(io.BytesIO(bytes(data)), verify=False) as reader:
            with pytest.raises(TraceFormatError, match="non-negative"):
                reader.read()

    @pytest.mark.parametrize("pc", [-4, 2**63, 2**64])
    def test_text_pc_out_of_int64_range(self, pc):
        with pytest.raises(TraceFormatError, match="line 2"):
            read_text(io.StringIO(f"4 1\n{pc} 1\n"))


def test_seeds_read_back_as_written():
    for data in SEEDS.values():
        assert read_whole(data) == SEED_TRACE == read_chunks(data)
        assert read_whole(data).name == "seed-ß"
    assert struct.unpack_from("<Q", SEEDS["v1"], 8)[0] == len(SEED_TRACE)
