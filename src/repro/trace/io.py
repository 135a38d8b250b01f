"""Trace serialization.

Two interchange formats are provided:

* a **binary** format (``.rbt``, magic ``RBTR``) — compact, fast,
  outcomes bit-packed; the format every tool in this repo prefers, and
  the stand-in for SimpleScalar's dumped branch traces;
* a **text** format — one ``pc taken`` pair per line with ``#``
  comments; slow but diffable and easy to produce from other tools.

The binary format has two versions:

* **v1** — one monolithic block: all PCs, then all outcomes bit-packed.
  Simple, but loading is all-or-nothing: a multi-GB trace must be fully
  materialized in memory.
* **v2** — *chunked*: records are split into blocks of ``chunk_len``
  records (default ``1 << 20``), each block storing its PCs and packed
  outcomes (optionally zlib-compressed) independently, followed by a
  seekable chunk index in the footer with per-chunk CRC32 fingerprints
  and a whole-file sha256 over the logical record data.  v2 is what
  makes out-of-core processing possible: :class:`TraceReader` iterates
  or randomly accesses :class:`~repro.trace.stream.Trace`-typed chunks
  without ever holding the full trace, and :func:`write_chunks` streams
  a chunk iterator to disk the same way.

Both binary versions and the text format round-trip exactly, including
the trace name; :func:`load_trace` reads all of them transparently.
See ``docs/TRACES.md`` for the full byte-level specification.
"""

from __future__ import annotations

import hashlib
import io
import mmap
import os
import struct
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np

from ..errors import TraceError, TraceFormatError
from ..files import replacing
from .stream import Trace

__all__ = [
    "MAGIC",
    "INDEX_MAGIC",
    "FORMAT_VERSION",
    "DEFAULT_CHUNK_LEN",
    "FLAG_COMPRESSED",
    "write_binary",
    "read_binary",
    "write_text",
    "read_text",
    "save_trace",
    "load_trace",
    "TraceReader",
    "write_chunks",
    "rechunk",
]

MAGIC = b"RBTR"
#: Footer trailer magic of the v2 chunk index.
INDEX_MAGIC = b"RBTX"
#: Newest binary format version this module writes (and the
#: :func:`save_trace` default).
FORMAT_VERSION = 2
#: Nominal records per v2 chunk.  A multiple of 8 (so v1 files can be
#: chunk-addressed on byte boundaries too) balancing per-chunk overhead
#: against the O(chunk) working set of the streaming engines.
DEFAULT_CHUNK_LEN = 1 << 20
#: Header flag bit: chunk payloads are zlib-compressed (v2 only).
FLAG_COMPRESSED = 0x1

_HEADER = struct.Struct("<4sHHQI")  # magic, version, flags, count, name length
_V2_EXTRA = struct.Struct("<Q")  # nominal chunk_len
_CHUNK_RECORD = struct.Struct("<QQQQI")  # offset, pcs bytes, outcome bytes, count, crc32
_TRAILER = struct.Struct("<32sQ4s")  # file sha256, index offset, index magic


#: Largest single read.  A length field can claim more than the stream
#: holds, and a buffered read allocates the size it is asked for first.
_READ_PIECE = 1 << 24


def _read_exact(fp: BinaryIO, n: int, what: str) -> bytes:
    pieces = []
    remaining = n
    while remaining > 0:
        piece = fp.read(min(remaining, _READ_PIECE))
        if not piece:
            break
        pieces.append(piece)
        remaining -= len(piece)
    data = b"".join(pieces)
    if len(data) != n:
        raise TraceFormatError(f"truncated {what}: expected {n} bytes, got {len(data)}")
    return data


def _decode_name(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace name is not UTF-8: {exc}") from None


def _decoded_trace(pcs: np.ndarray, outcomes: np.ndarray, name: str) -> Trace:
    """A trace from decoded file columns: content the :class:`Trace`
    constructor rejects (a PC with the top bit set) is a format error."""
    try:
        return Trace(pcs, outcomes, name=name)
    except TraceError as exc:
        raise TraceFormatError(f"bad trace payload: {exc}") from None


def _pcs_bytes(trace: Trace) -> bytes:
    return np.ascontiguousarray(trace.pcs, dtype="<i8").tobytes()


class _StreamDigest:
    """Whole-file fingerprint accumulated one chunk at a time.

    Each column is digested as its own contiguous stream (PCs as
    little-endian int64 bytes, outcomes as *unpacked* uint8 bytes) and
    the file fingerprint is the sha256 of the two column digests — so
    it is independent of chunk boundaries (bit-packing pads each chunk
    separately) and two files holding the same records fingerprint
    equal no matter how they are chunked or compressed.
    """

    __slots__ = ("_pcs", "_outs")

    def __init__(self) -> None:
        self._pcs = hashlib.sha256()
        self._outs = hashlib.sha256()

    def update(self, pcs_raw: bytes, outcomes: np.ndarray) -> None:
        self._pcs.update(pcs_raw)
        self._outs.update(np.ascontiguousarray(outcomes, dtype=np.uint8).tobytes())

    def digest(self) -> bytes:
        return hashlib.sha256(self._pcs.digest() + self._outs.digest()).digest()


# -- binary format ---------------------------------------------------------


def write_binary(
    trace: Trace,
    fp: BinaryIO,
    *,
    version: int = FORMAT_VERSION,
    compress: bool = False,
    chunk_len: int = DEFAULT_CHUNK_LEN,
) -> None:
    """Serialize ``trace`` to an open binary stream.

    ``version=1`` writes the legacy monolithic layout; ``version=2``
    (default) writes the chunked layout, optionally zlib-compressed.
    The stream must be seekable for v2 (the footer index records
    absolute offsets); :class:`io.BytesIO` and regular files both are.
    """
    if version == 1:
        if compress:
            raise TraceFormatError("format v1 does not support compression")
        name_bytes = trace.name.encode("utf-8")
        fp.write(_HEADER.pack(MAGIC, 1, 0, len(trace), len(name_bytes)))
        fp.write(name_bytes)
        fp.write(_pcs_bytes(trace))
        fp.write(np.packbits(trace.outcomes).tobytes())
        return
    if version != 2:
        raise TraceFormatError(f"cannot write trace format version {version}")
    write_chunks(
        rechunk([trace], chunk_len),
        fp,
        name=trace.name,
        compress=compress,
        chunk_len=chunk_len,
    )


def read_binary(fp: BinaryIO) -> Trace:
    """Deserialize a trace written by :func:`write_binary` (v1 or v2)."""
    header = fp.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError("truncated trace header")
    # The chunk reader parses and validates both versions.  Its offsets
    # (and its end-of-file trailer lookup) are absolute, so it reads in
    # place only a trace that starts at byte 0; a trace embedded at a
    # non-zero offset, or a stream that cannot seek, is slurped first.
    if fp.seekable() and fp.tell() == _HEADER.size:
        fp.seek(0)
        source = fp
    else:
        source = io.BytesIO(header + fp.read())
    with TraceReader(source) as reader:
        return reader.read()


# -- chunked streaming writer -------------------------------------------------


def rechunk(chunks: Iterable[Trace], chunk_len: int) -> Iterator[Trace]:
    """Re-slice a chunk iterator into chunks of exactly ``chunk_len``
    records (the final chunk may be shorter).  Never holds more than
    one output chunk of data at a time."""
    if chunk_len < 1:
        raise TraceFormatError(f"chunk_len must be positive, got {chunk_len}")
    pending_pcs: list[np.ndarray] = []
    pending_outs: list[np.ndarray] = []
    pending = 0
    for chunk in chunks:
        pcs, outs = chunk.pcs, chunk.outcomes
        start = 0
        while len(pcs) - start >= chunk_len - pending:
            take = chunk_len - pending
            pending_pcs.append(pcs[start : start + take])
            pending_outs.append(outs[start : start + take])
            yield Trace(
                np.concatenate(pending_pcs), np.concatenate(pending_outs)
            )
            pending_pcs, pending_outs, pending = [], [], 0
            start += take
        if start < len(pcs):
            pending_pcs.append(pcs[start:])
            pending_outs.append(outs[start:])
            pending += len(pcs) - start
    if pending:
        yield Trace(np.concatenate(pending_pcs), np.concatenate(pending_outs))


def write_chunks(
    chunks: Iterable[Trace],
    destination: BinaryIO | str | os.PathLike[str],
    *,
    name: str = "",
    compress: bool = False,
    chunk_len: int = DEFAULT_CHUNK_LEN,
) -> int:
    """Stream an iterator of :class:`Trace` chunks to a v2 file.

    The full trace is never materialized: each incoming chunk is
    serialized (and optionally compressed) as soon as it arrives, and
    the index/fingerprints are accumulated incrementally.  Incoming
    chunk boundaries are preserved as the file's chunk boundaries
    (``chunk_len`` is recorded as the nominal size; pass the iterator
    through :func:`rechunk` to normalize).  Returns the total number of
    records written.  A path is replaced only once the whole file is
    written (see :func:`save_trace`).
    """
    if chunk_len < 1:
        raise TraceFormatError(f"chunk_len must be positive, got {chunk_len}")
    if isinstance(destination, (str, os.PathLike)):
        with replacing(destination) as fp:
            return write_chunks(
                chunks, fp, name=name, compress=compress, chunk_len=chunk_len
            )
    fp = destination

    name_bytes = name.encode("utf-8")
    flags = FLAG_COMPRESSED if compress else 0
    header_pos = fp.tell()
    # Count is not known until the iterator is drained; write a
    # placeholder header and patch it before the footer goes down.
    fp.write(_HEADER.pack(MAGIC, 2, flags, 0, len(name_bytes)))
    fp.write(_V2_EXTRA.pack(chunk_len))
    fp.write(name_bytes)

    digest = _StreamDigest()
    index: list[bytes] = []
    total = 0
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        pcs_raw = _pcs_bytes(chunk)
        out_raw = np.packbits(chunk.outcomes).tobytes()
        crc = zlib.crc32(out_raw, zlib.crc32(pcs_raw))
        digest.update(pcs_raw, chunk.outcomes)
        if compress:
            pcs_raw = zlib.compress(pcs_raw)
            out_raw = zlib.compress(out_raw)
        # All recorded offsets are relative to the header magic, so a
        # trace written mid-stream stays internally consistent.
        offset = fp.tell() - header_pos
        fp.write(pcs_raw)
        fp.write(out_raw)
        index.append(
            _CHUNK_RECORD.pack(offset, len(pcs_raw), len(out_raw), len(chunk), crc)
        )
        total += len(chunk)

    index_offset = fp.tell() - header_pos
    fp.write(struct.pack("<Q", len(index)))
    for record in index:
        fp.write(record)
    fp.write(_TRAILER.pack(digest.digest(), index_offset, INDEX_MAGIC))
    end = fp.tell()
    fp.seek(header_pos)
    fp.write(_HEADER.pack(MAGIC, 2, flags, total, len(name_bytes)))
    fp.seek(end)
    return total


# -- chunked reader -----------------------------------------------------------


class _ChunkEntry:
    __slots__ = ("offset", "pcs_bytes", "out_bytes", "count", "crc32", "start")

    def __init__(self, offset, pcs_bytes, out_bytes, count, crc32, start):
        self.offset = offset
        self.pcs_bytes = pcs_bytes
        self.out_bytes = out_bytes
        self.count = count
        self.crc32 = crc32
        #: Record index of the chunk's first record within the trace.
        self.start = start


class TraceReader:
    """Random and sequential chunk access to a binary trace file.

    Opens v1 and v2 files; ``len(reader)`` is the total record count,
    :attr:`num_chunks`/:meth:`chunk`/iteration give bounded-memory
    access to :class:`~repro.trace.stream.Trace`-typed chunks, and
    :meth:`read` materializes the whole trace (the moral equivalent of
    :func:`load_trace`).

    Uncompressed files (v1, or v2 written without ``compress``) are
    memory-mapped when backed by a real file, so chunk PCs are
    zero-copy views into the page cache; compressed v2 chunks are
    decompressed one at a time and CRC-checked against the index.

    Usable as a context manager; :meth:`close` releases the file
    handle (the mapping survives as long as chunk arrays reference it).
    """

    def __init__(
        self,
        source: BinaryIO | str | os.PathLike[str],
        *,
        chunk_len: int | None = None,
        verify: bool = True,
    ) -> None:
        if isinstance(source, (str, os.PathLike)):
            self._fp: BinaryIO = open(source, "rb")
            self._owns_fp = True
            self.path: str | None = os.fspath(source)
        else:
            self._fp = source
            self._owns_fp = False
            self.path = None
        self._verify = verify
        self._mmap: mmap.mmap | memoryview | None = None
        try:
            self._parse(chunk_len)
        except Exception:
            self.close()
            raise

    # -- parsing --------------------------------------------------------

    def _parse(self, chunk_len: int | None) -> None:
        fp = self._fp
        fp.seek(0)
        header = fp.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError("truncated trace header")
        magic, version, flags, count, name_len = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}; not a repro branch trace")
        if version not in (1, 2):
            raise TraceFormatError(f"unsupported trace format version {version}")
        self.version = version
        self.compressed = bool(flags & FLAG_COMPRESSED)
        self._count = count
        if version == 1:
            self.chunk_len = chunk_len or DEFAULT_CHUNK_LEN
            if self.chunk_len % 8:
                raise TraceFormatError(
                    "v1 chunk_len must be a multiple of 8 (outcomes are "
                    f"bit-packed over the whole stream), got {self.chunk_len}"
                )
            self.fingerprint = None
            self.name = _decode_name(_read_exact(fp, name_len, "trace name"))
            self._parse_v1(count, name_len)
        else:
            nominal = _V2_EXTRA.unpack(_read_exact(fp, _V2_EXTRA.size, "v2 header"))[0]
            self.chunk_len = int(nominal)
            self.name = _decode_name(_read_exact(fp, name_len, "trace name"))
            self._parse_v2(count)
        self._maybe_mmap()

    def _parse_v1(self, count: int, name_len: int) -> None:
        data_start = _HEADER.size + name_len
        self._pcs_start = data_start
        self._out_start = data_start + count * 8
        # Reject a count the file cannot hold before any read sized by it.
        end = self._fp.seek(0, os.SEEK_END)
        needed = self._out_start + (count + 7) // 8
        if end < needed:
            short = "pc" if end < self._out_start else "outcome"
            raise TraceFormatError(
                f"truncated {short} payload: {count} records need "
                f"{needed - data_start} bytes, {end - data_start} left"
            )
        self._chunks: list[_ChunkEntry] = []
        start = 0
        while start < count:
            n = min(self.chunk_len, count - start)
            self._chunks.append(
                _ChunkEntry(self._pcs_start + start * 8, n * 8, (n + 7) // 8, n, None, start)
            )
            start += n

    def _parse_v2(self, count: int) -> None:
        fp = self._fp
        end = fp.seek(0, os.SEEK_END)
        if end < _TRAILER.size:
            raise TraceFormatError("truncated v2 trailer")
        fp.seek(end - _TRAILER.size)
        sha, index_offset, index_magic = _TRAILER.unpack(
            _read_exact(fp, _TRAILER.size, "v2 trailer")
        )
        if index_magic != INDEX_MAGIC:
            raise TraceFormatError("missing chunk index trailer; file truncated?")
        self.fingerprint = sha.hex()
        if not _HEADER.size <= index_offset <= end - _TRAILER.size:
            raise TraceFormatError(f"chunk index offset {index_offset} out of range")
        fp.seek(index_offset)
        (num_chunks,) = struct.unpack("<Q", _read_exact(fp, 8, "chunk index"))
        index_bytes = num_chunks * _CHUNK_RECORD.size
        if index_offset + 8 + index_bytes > end - _TRAILER.size:
            raise TraceFormatError("chunk index extends past the trailer")
        raw = _read_exact(fp, index_bytes, "chunk index")
        self._chunks = []
        start = 0
        for i in range(num_chunks):
            record = _CHUNK_RECORD.unpack_from(raw, i * _CHUNK_RECORD.size)
            offset, pcs_bytes, out_bytes, chunk_count, crc = record
            if offset + pcs_bytes + out_bytes > index_offset:
                raise TraceFormatError(f"chunk {i} payload extends past the index")
            self._chunks.append(
                _ChunkEntry(offset, pcs_bytes, out_bytes, chunk_count, crc, start)
            )
            start += chunk_count
        if start != count:
            raise TraceFormatError(
                f"chunk index records {start} records, header promises {count}"
            )

    def _maybe_mmap(self) -> None:
        """Map uncompressed payloads for zero-copy chunk access."""
        if self.compressed:
            return
        try:
            fileno = self._fp.fileno()
        except (OSError, AttributeError, io.UnsupportedOperation):
            # In-memory streams: fall back to the buffer when available.
            getbuffer = getattr(self._fp, "getbuffer", None)
            if getbuffer is not None:
                self._mmap = getbuffer()
            return
        try:
            self._mmap = mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            self._mmap = None

    # -- sizing ---------------------------------------------------------

    def __len__(self) -> int:
        """Total number of records in the file."""
        return self._count

    @property
    def num_chunks(self) -> int:
        """Number of stored (v2) or synthesized (v1) chunks."""
        return len(self._chunks)

    def chunk_counts(self) -> list[int]:
        """Record count of each chunk, in order."""
        return [entry.count for entry in self._chunks]

    # -- chunk access ---------------------------------------------------

    def chunk(self, index: int) -> Trace:
        """Random access to one chunk as a :class:`Trace` (named like
        the file's trace, so per-PC attribution keeps working)."""
        if not 0 <= index < len(self._chunks):
            raise IndexError(f"chunk index {index} out of range [0, {len(self._chunks)})")
        return self._chunk(index, mapped=True)

    def _chunk(self, index: int, *, mapped: bool) -> Trace:
        entry = self._chunks[index]
        if self.version == 1:
            return self._read_v1_chunk(entry, mapped)
        return self._read_v2_chunk(entry, index, mapped)

    def _payload(self, offset: int, length: int, what: str, mapped: bool) -> bytes | memoryview:
        """``length`` bytes at ``offset``: a view of the mapping when
        ``mapped`` and the file is mapped, else bytes read from the file."""
        if mapped and self._mmap is not None:
            view = memoryview(self._mmap)[offset : offset + length]
            if len(view) != length:
                raise TraceFormatError(f"truncated {what}")
            return view
        self._fp.seek(offset)
        return _read_exact(self._fp, length, what)

    def _read_v1_chunk(self, entry: _ChunkEntry, mapped: bool) -> Trace:
        pcs_raw = self._payload(entry.offset, entry.pcs_bytes, "pc payload", mapped)
        # v1 outcomes are packed over the whole stream; chunk starts are
        # multiples of 8 records, so they land on byte boundaries.
        out_off = self._out_start + entry.start // 8
        out_raw = self._payload(out_off, entry.out_bytes, "outcome payload", mapped)
        pcs = np.frombuffer(pcs_raw, dtype="<i8")
        outcomes = np.unpackbits(
            np.frombuffer(out_raw, dtype=np.uint8), count=entry.count
        )
        return _decoded_trace(pcs, outcomes, self.name)

    def _read_v2_chunk(self, entry: _ChunkEntry, index: int, mapped: bool) -> Trace:
        pcs_raw = self._payload(entry.offset, entry.pcs_bytes, "pc payload", mapped)
        out_raw = self._payload(
            entry.offset + entry.pcs_bytes, entry.out_bytes, "outcome payload", mapped
        )
        if self.compressed:
            try:
                pcs_raw = zlib.decompress(bytes(pcs_raw))
                out_raw = zlib.decompress(bytes(out_raw))
            except zlib.error as exc:
                raise TraceFormatError(f"chunk {index} is corrupt: {exc}") from None
        if len(pcs_raw) != entry.count * 8 or len(out_raw) != (entry.count + 7) // 8:
            raise TraceFormatError(
                f"chunk {index} payload sizes do not match its record count"
            )
        if self._verify and entry.crc32 is not None:
            crc = zlib.crc32(out_raw, zlib.crc32(pcs_raw))
            if crc != entry.crc32:
                raise TraceFormatError(
                    f"chunk {index} CRC mismatch: stored {entry.crc32:#010x}, "
                    f"computed {crc:#010x}"
                )
        pcs = np.frombuffer(pcs_raw, dtype="<i8")
        outcomes = np.unpackbits(
            np.frombuffer(out_raw, dtype=np.uint8), count=entry.count
        )
        return _decoded_trace(pcs, outcomes, self.name)

    def __iter__(self) -> Iterator[Trace]:
        for index in range(len(self._chunks)):
            yield self.chunk(index)

    def chunks(self) -> Iterator[Trace]:
        """Iterate the file's chunks in record order (alias of ``iter``)."""
        return iter(self)

    def read(self) -> Trace:
        """Materialize the whole trace (bit-identical to :func:`load_trace`).

        The trace owns its arrays: its payloads are read from the file,
        not viewed through the shared mapping as streamed chunks are,
        which would change with the file and fault once it is truncated.
        """
        if not self._chunks:
            return Trace.empty(name=self.name)
        parts = [self._chunk(index, mapped=False) for index in range(len(self._chunks))]
        if len(parts) == 1:
            return parts[0]
        return Trace(
            np.concatenate([p.pcs for p in parts]),
            np.concatenate([p.outcomes for p in parts]),
            name=self.name,
        )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the file handle (mapped chunk views stay valid)."""
        mapped, self._mmap = self._mmap, None
        if isinstance(mapped, mmap.mmap):
            try:
                mapped.close()
            except BufferError:
                # Live chunk arrays still reference the mapping; the OS
                # releases it when the last array is garbage-collected.
                pass
        if self._owns_fp:
            self._fp.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceReader(v{self.version}, records={self._count}, "
            f"chunks={self.num_chunks}, compressed={self.compressed})"
        )


# -- text format -------------------------------------------------------------


def write_text(trace: Trace, fp: TextIO) -> None:
    """Serialize ``trace`` as one ``pc taken`` pair per line."""
    if trace.name:
        fp.write(f"# name: {trace.name}\n")
    pcs = trace.pcs
    outs = trace.outcomes
    for i in range(len(trace)):
        fp.write(f"{int(pcs[i])} {int(outs[i])}\n")


def read_text(fp: TextIO) -> Trace:
    """Deserialize a trace written by :func:`write_text`.

    Blank lines and ``#`` comments are ignored; a leading
    ``# name: <label>`` comment restores the trace name.
    """
    name = ""
    pcs: list[int] = []
    outs: list[int] = []
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name:"):
                name = body[len("name:") :].strip()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TraceFormatError(f"line {lineno}: expected 'pc taken', got {line!r}")
        try:
            pc = int(parts[0], 0)
            taken = int(parts[1], 0)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: non-integer field in {line!r}") from exc
        if taken not in (0, 1):
            raise TraceFormatError(f"line {lineno}: outcome must be 0 or 1, got {taken}")
        if not 0 <= pc < 2**63:
            raise TraceFormatError(f"line {lineno}: pc {pc} is not a non-negative int64")
        pcs.append(pc)
        outs.append(taken)
    return Trace(pcs, outs, name=name)


# -- path-level conveniences ---------------------------------------------------


def save_trace(
    trace: Trace,
    path: str | os.PathLike[str],
    *,
    version: int = FORMAT_VERSION,
    compress: bool = False,
    chunk_len: int = DEFAULT_CHUNK_LEN,
) -> None:
    """Write ``trace`` to ``path``; ``.txt`` selects the text format.

    Binary traces default to format v2 (chunked); pass ``version=1``
    for the legacy monolithic layout and ``compress=True`` to zlib the
    v2 chunk payloads.  The file is written beside ``path`` and renamed
    over it once complete (:func:`repro.files.replacing`), so a failed
    write leaves ``path`` as it was, and a reader of the old file (an
    in-place convert) keeps its bytes.
    """
    path = Path(path)
    if path.suffix == ".txt":
        with replacing(path, "w", encoding="utf-8") as fp:
            write_text(trace, fp)
    else:
        with replacing(path) as fp:
            write_binary(
                trace, fp, version=version, compress=compress, chunk_len=chunk_len
            )


def load_trace(path: str | os.PathLike[str]) -> Trace:
    """Read a trace from ``path``, sniffing binary vs text by magic."""
    path = Path(path)
    with open(path, "rb") as fp:
        head = fp.read(4)
        fp.seek(0)
        if head == MAGIC:
            return read_binary(fp)
        text = io.TextIOWrapper(fp, encoding="utf-8")
        return read_text(text)
