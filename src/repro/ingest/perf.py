"""``perf script`` LBR branch-stack ingestion.

Linux ``perf record -b`` captures the CPU's Last Branch Record stack;
``perf script -F brstack`` prints it one sample per line, each sample
carrying up to 32 branch entries of the form::

    0x401234/0x401250/P/-/-/0            # from/to/flags/in_tx/abort/cycles
    0x401234/0x401250/P/-/-/0/COND/-     # ... plus type, with save_type

The *flags* field is the per-entry prediction record: ``P`` predicted,
``M`` mispredicted, and — on CPUs with arch-LBR not-taken capture —
``N`` for a conditional branch that was *not taken*.  That maps
directly onto the repo's record model: every entry becomes one
``(pc=from, taken)`` record with ``taken = 'N' not in flags``.

A plain branch-event fallback is also accepted for tools that print
``FROM => TO`` transitions (one taken branch per line; a ``TO`` of
``0``/``-`` records a not-taken execution of ``FROM``).

The parser is a *line streamer*: the source file is read in fixed-size
blocks of whole lines (never slurped), records accumulate into bounded
chunk buffers, and each full chunk is handed to the caller as a
:class:`~repro.trace.stream.Trace` — so piping the iterator through
:func:`repro.trace.io.write_chunks` converts a multi-GB ``perf script``
dump to chunked RBT v2 in O(chunk) memory.  Garbled lines and malformed
entries are *counted and skipped*, never fatal; the
:class:`IngestReport` says exactly what was dropped and why, and
carries the sha256 of the source bytes (the same fingerprint
:class:`~repro.workload_spec.PerfLbrSpec` keys on), accumulated during
the very same pass.  See ``docs/INGEST.md`` for the capture recipe.

:meth:`PerfParser._parse_line` is the one definition of how a line
parses.  On the ``cext`` backend a C scanner
(:func:`repro.engine.compiled.cext.perf_scan`) decodes the lines made
of a header and well-formed brstack entries only, and hands every
other line back to it, in its place; the chunks and the report are the
same on both backends.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..errors import TraceError
from ..trace.io import DEFAULT_CHUNK_LEN, rechunk, write_chunks
from ..trace.stream import Trace, concat as concat_traces

__all__ = [
    "IngestReport",
    "PerfParser",
    "ingest_perf",
    "parse_perf_trace",
]

#: Bytes read (and fingerprinted) per block while streaming the source.
_READ_BLOCK = 1 << 20

#: One brstack entry: from/to/flags, optionally followed by the
#: in_tx/abort/cycles/type/... fields newer perf versions append.
_BRSTACK_RE = re.compile(
    r"^(?P<from>0x[0-9a-fA-F]+)"
    r"/(?P<to>0x[0-9a-fA-F]+|-)"
    r"/(?P<flags>[A-Za-z-]+)"
    r"(?P<rest>(?:/[^/\s]*)*)$"
)

#: Anything slash-shaped that starts like an address but failed the full
#: entry pattern — counted as a malformed entry, not silently dropped.
_BRSTACK_LIKE_RE = re.compile(r"^0[xX][0-9a-fA-F]")

#: A pid or pid/tid header token.
_PID_RE = re.compile(r"^(\d+)(?:/\d+)?$")

#: A timestamp header token (``123456.789:``) — ends with ':' like an
#: event name, so it must be excluded when hunting for the event.
_TIMESTAMP_RE = re.compile(r"^\d+(?:\.\d+)?:$")

#: An address in the ``FROM => TO`` fallback form.
_ADDR_RE = re.compile(r"^(?:0x)?[0-9a-fA-F]+$")

#: ``TO`` values that mean "target unresolved": the branch at FROM
#: executed but did not go anywhere we can see — a not-taken record.
_NULL_TARGETS = frozenset({"-", "0", "0x0"})

#: The largest branch pc a trace holds (pcs are int64).  A FROM address
#: above it (a kernel-space address, in a ``branches:uk`` capture) is a
#: counted ``pc-out-of-range`` skip.
_PC_MAX = (1 << 63) - 1


@dataclass
class IngestReport:
    """What one parsing pass over a ``perf script`` file observed.

    ``records`` is what landed in the trace; every dropped line/entry is
    accounted for in exactly one of the skip counters, so
    ``lines == matched_lines + filtered_lines + skipped_lines`` always
    holds (blank lines and ``#`` comments are not counted at all).
    """

    path: str = ""
    #: sha256 of the source file's raw bytes (the content-key input).
    sha256: str = ""
    records: int = 0
    #: Payload lines seen (blank/comment lines excluded).
    lines: int = 0
    #: Lines that contributed at least one record.
    matched_lines: int = 0
    #: Lines dropped by the --event/--pid filters.
    filtered_lines: int = 0
    #: Lines with no recognizable branch payload (garbage, truncation).
    skipped_lines: int = 0
    #: Malformed or unresolvable entries inside otherwise good lines.
    skipped_entries: int = 0
    #: Entries dropped by ``cond_only`` (typed, but not conditional).
    non_cond_entries: int = 0
    #: skip reason -> count, for the CLI's skip report.
    reasons: dict[str, int] = field(default_factory=dict)

    def _count(self, reason: str, times: int = 1) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + times

    def summary(self) -> str:
        """One-paragraph human-readable ingest summary."""
        parts = [f"{self.records:,} record(s) from {self.matched_lines:,} line(s)"]
        if self.filtered_lines:
            parts.append(f"{self.filtered_lines:,} line(s) filtered")
        if self.skipped_lines:
            parts.append(f"{self.skipped_lines:,} line(s) skipped")
        if self.skipped_entries:
            parts.append(f"{self.skipped_entries:,} entry(ies) skipped")
        if self.non_cond_entries:
            parts.append(f"{self.non_cond_entries:,} non-conditional entry(ies) dropped")
        text = ", ".join(parts)
        if self.reasons:
            detail = "; ".join(
                f"{reason}: {count}" for reason, count in sorted(self.reasons.items())
            )
            text += f" ({detail})"
        return text

    def to_dict(self) -> dict:
        """JSON-compatible form (``repro ingest perf --json``)."""
        return {
            "path": self.path,
            "sha256": self.sha256,
            "records": self.records,
            "lines": self.lines,
            "matched_lines": self.matched_lines,
            "filtered_lines": self.filtered_lines,
            "skipped_lines": self.skipped_lines,
            "skipped_entries": self.skipped_entries,
            "non_cond_entries": self.non_cond_entries,
            "reasons": dict(sorted(self.reasons.items())),
        }


class _LineHeader:
    """The metadata tokens of one ``perf script`` line."""

    __slots__ = ("pid", "event", "payload_start")

    def __init__(self, pid: int | None, event: str | None, payload_start: int) -> None:
        self.pid = pid
        self.event = event
        self.payload_start = payload_start


def _parse_header(tokens: list[str]) -> _LineHeader:
    """Split a line's tokens into header (comm/pid/cpu/time/event) and
    payload, tolerating the field subsets ``perf script -F`` emits."""
    pid: int | None = None
    event: str | None = None
    payload_start = 0
    for i, token in enumerate(tokens):
        if "/" in token and _BRSTACK_LIKE_RE.match(token):
            payload_start = i
            break
        if token == "=>":
            # Fallback payload: the address *before* the arrow belongs
            # to the payload too.
            payload_start = max(0, i - 1)
            break
        payload_start = i + 1
        if pid is None:
            match = _PID_RE.match(token)
            if match and i > 0:  # token 0 is the comm, even if numeric
                pid = int(match.group(1))
                continue
        if token.endswith(":") and len(token) > 1 and not _TIMESTAMP_RE.match(token):
            event = token[:-1]
    return _LineHeader(pid, event, payload_start)


def _event_matches(line_event: str | None, wanted: str) -> bool:
    """True when the line's event token satisfies ``--event``.

    Matches the full name or a prefix up to a modifier colon, so
    ``--event branches`` accepts ``branches``, ``branches:u`` and
    ``cpu/branches/``.
    """
    if line_event is None:
        return False
    if line_event == wanted:
        return True
    if line_event.startswith(wanted + ":"):
        return True
    return wanted in line_event.split("/")


class PerfParser:
    """Streaming parser for one ``perf script`` output file.

    Parameters
    ----------
    source:
        Path to the ``perf script`` text dump.
    event:
        Keep only lines whose event token matches (``None`` keeps all).
    pid:
        Keep only lines attributed to this process id (``None`` keeps
        all; lines carrying *no* pid token are filtered out when set).
    cond_only:
        Drop brstack entries whose type field (present with
        ``--branch-filter save_type`` captures) is not a conditional
        branch.  Untyped entries are always kept.

    :meth:`chunks` performs one full pass per call (the file is
    re-opened each time, so the iterator is restartable); after a
    completed pass :attr:`report` holds that pass's
    :class:`IngestReport` with the source fingerprint.
    """

    def __init__(
        self,
        source: str | os.PathLike[str],
        *,
        event: str | None = None,
        pid: int | None = None,
        cond_only: bool = False,
    ) -> None:
        self.path = os.fspath(source)
        self.event = event or None
        self.pid = None if pid is None else int(pid)
        self.cond_only = bool(cond_only)
        self.report: IngestReport | None = None

    # -- line-level parsing -------------------------------------------------

    def _parse_line(
        self, line: str, report: IngestReport, out_pcs: list[int], out_taken: list[int]
    ) -> None:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return
        report.lines += 1
        tokens = stripped.split()
        header = _parse_header(tokens)
        if self.event is not None and not _event_matches(header.event, self.event):
            report.filtered_lines += 1
            report._count("event-filtered")
            return
        if self.pid is not None and header.pid != self.pid:
            report.filtered_lines += 1
            report._count("pid-filtered")
            return

        produced = 0
        payload = tokens[header.payload_start :]
        arrow = "=>" in payload
        for i, token in enumerate(payload):
            match = _BRSTACK_RE.match(token)
            if match:
                produced += self._emit_brstack(match, report, out_pcs, out_taken)
            elif "/" in token and _BRSTACK_LIKE_RE.match(token):
                report.skipped_entries += 1
                report._count("malformed-entry")
            elif arrow and token == "=>":
                produced += self._emit_arrow(payload, i, report, out_pcs, out_taken)
        if produced:
            report.matched_lines += 1
        elif report.lines and not arrow and not payload:
            report.skipped_lines += 1
            report._count("no-branch-payload")
        else:
            # A payload was present but nothing survived: malformed
            # entries were already counted per entry; a line that had
            # *only* malformed/filtered entries still counts skipped
            # when nothing else explains it.
            if not any("/" in token or token == "=>" for token in payload):
                report.skipped_lines += 1
                report._count("no-branch-payload")
            elif not produced and not any(
                _BRSTACK_RE.match(token) or token == "=>" for token in payload
            ):
                report.skipped_lines += 1
                report._count("malformed-line")
            else:
                report.skipped_lines += 1
                report._count("empty-after-entry-skips")

    def _emit_brstack(
        self,
        match: re.Match,
        report: IngestReport,
        out_pcs: list[int],
        out_taken: list[int],
    ) -> int:
        if self.cond_only:
            rest = match.group("rest")
            if rest:
                fields = rest.lstrip("/").split("/")
                # from/to/flags[/in_tx/abort/cycles[/type[/spec]]]
                if len(fields) >= 4 and fields[3] not in ("-", ""):
                    if not fields[3].upper().startswith("COND"):
                        report.non_cond_entries += 1
                        report._count("non-conditional")
                        return 0
        pc = int(match.group("from"), 16)
        if pc > _PC_MAX:
            report.skipped_entries += 1
            report._count("pc-out-of-range")
            return 0
        flags = match.group("flags")
        taken = 0 if "N" in flags.upper() else 1
        out_pcs.append(pc)
        out_taken.append(taken)
        report.records += 1
        return 1

    def _emit_arrow(
        self,
        payload: list[str],
        arrow_index: int,
        report: IngestReport,
        out_pcs: list[int],
        out_taken: list[int],
    ) -> int:
        if arrow_index == 0 or arrow_index + 1 >= len(payload):
            report.skipped_entries += 1
            report._count("malformed-entry")
            return 0
        source, target = payload[arrow_index - 1], payload[arrow_index + 1]
        if not _ADDR_RE.match(source) or not (
            _ADDR_RE.match(target) or target in _NULL_TARGETS
        ):
            report.skipped_entries += 1
            report._count("malformed-entry")
            return 0
        pc = int(source, 16)
        if pc > _PC_MAX:
            report.skipped_entries += 1
            report._count("pc-out-of-range")
            return 0
        out_pcs.append(pc)
        out_taken.append(0 if target.lower() in _NULL_TARGETS else 1)
        report.records += 1
        return 1

    # -- streaming pass -----------------------------------------------------

    def _blocks(self, fp: BinaryIO, digest: "hashlib._Hash") -> Iterator[bytes]:
        """Stream the file as blocks of whole lines, each without its last
        newline, while fingerprinting the raw bytes.

        The final line is yielded even without a trailing newline, so a
        dump truncated mid-record still parses (its broken tail is
        counted as a skip, not an error).  The unfinished line is held
        as a list of reads and only each new read is searched, so a
        line spanning many reads costs linear time.
        """
        tail: list[bytes] = []
        while True:
            block = fp.read(_READ_BLOCK)
            if not block:
                break
            digest.update(block)
            cut = block.rfind(b"\n")
            if cut < 0:
                tail.append(block)
                continue
            yield b"".join([*tail, block[:cut]])
            tail = [block[cut + 1 :]]
        rest = b"".join(tail)
        if rest:
            yield rest

    def _parse_lines(self, block: bytes, report: IngestReport) -> tuple[np.ndarray, np.ndarray]:
        """The records of ``block``, every line through :meth:`_parse_line`."""
        pcs: list[int] = []
        taken: list[int] = []
        for raw in block.split(b"\n"):
            self._parse_line(raw.decode("utf-8", errors="replace"), report, pcs, taken)
        return np.array(pcs, dtype=np.int64), np.array(taken, dtype=np.uint8)

    def _scan_lines(self, block: bytes, report: IngestReport) -> tuple[np.ndarray, np.ndarray]:
        """The records of ``block``, through the C scanner
        (:func:`~repro.engine.compiled.cext.perf_scan`).

        The scanner decodes each line made of a header and well-formed
        brstack entries only; the filters apply here, ``--event`` once
        per distinct event token.  Every line it hands back goes through
        :meth:`_parse_line`, and its records land in its place.
        """
        from ..engine.compiled import cext

        lines, pcs, taken, events = cext.perf_scan(block, self.cond_only)
        kinds = lines[:, cext.PERF_KIND]
        scanned = kinds == cext.PERF_SCANNED
        report.lines += int(np.count_nonzero(scanned))
        keep = scanned
        if self.event is not None:
            tokens = [block[at : at + size].decode() for at, size in events.tolist()]
            # The last entry answers for lines without an event token (-1).
            matches = [_event_matches(token, self.event) for token in tokens] + [False]
            keep = _narrow(keep, np.array(matches)[lines[:, cext.PERF_EVENT]], report, "event")
        if self.pid is not None:
            pids = lines[:, cext.PERF_PID]
            keep = _narrow(keep, (pids >= 0) & (pids == self.pid), report, "pid")
        counts = np.where(keep, lines[:, cext.PERF_RECORDS], 0)
        report.matched_lines += int(np.count_nonzero(keep))
        report.records += int(counts.sum())
        if keep is not scanned:
            mask = np.repeat(keep[scanned], lines[scanned, cext.PERF_RECORDS])
            pcs, taken = pcs[mask], taken[mask]
        handed_back = np.flatnonzero(kinds == cext.PERF_HANDED_BACK)
        if len(handed_back):
            ends = lines[:, cext.PERF_END]
            kept = np.cumsum(counts)
            extra_pcs: list[int] = []
            extra_taken: list[int] = []
            where: list[int] = []
            for index in handed_back.tolist():
                start = int(ends[index - 1]) + 1 if index else 0
                line = block[start : int(ends[index])].decode("utf-8", errors="replace")
                produced = len(extra_pcs)
                self._parse_line(line, report, extra_pcs, extra_taken)
                # The line keeps no scanned records, so kept[index] counts
                # the records of the lines before it.
                where += [int(kept[index])] * (len(extra_pcs) - produced)
            if where:
                pcs = np.insert(pcs, where, extra_pcs)
                taken = np.insert(taken, where, extra_taken)
        return pcs, taken

    def chunks(self, chunk_len: int = DEFAULT_CHUNK_LEN) -> Iterator[Trace]:
        """One full parsing pass, yielding bounded-size trace chunks.

        The file is read in blocks of whole lines.  When the engine
        backend (:func:`~repro.engine.backend.resolve_backend`) is
        ``cext``, each block goes through the C scanner
        (:meth:`_scan_lines`); on ``python`` every line goes through
        :meth:`_parse_line`.  Both give the same chunks and report.
        """
        if chunk_len < 1:
            raise TraceError(f"chunk_len must be positive, got {chunk_len}")
        # Imported per pass: this module imports no engine code itself.
        from ..engine.backend import resolve_backend

        parse = self._scan_lines if resolve_backend() == "cext" else self._parse_lines
        report = IngestReport(path=self.path)
        digest = hashlib.sha256()
        try:
            fp = open(self.path, "rb")
        except OSError as exc:
            raise TraceError(f"cannot read perf trace {self.path!r}: {exc}") from None
        with fp:
            parts = (Trace(*parse(block, report)) for block in self._blocks(fp, digest))
            yield from rechunk(parts, chunk_len)
        report.sha256 = digest.hexdigest()
        self.report = report


def _narrow(keep: np.ndarray, matches: np.ndarray, report: IngestReport, name: str) -> np.ndarray:
    """``keep`` narrowed to ``matches``; each line it loses is counted
    as filtered by the ``name`` filter (``--event`` or ``--pid``)."""
    dropped = int(np.count_nonzero(keep & ~matches))
    if dropped:
        report.filtered_lines += dropped
        report._count(f"{name}-filtered", dropped)
    return keep & matches


def parse_perf_trace(
    source: str | os.PathLike[str],
    *,
    event: str | None = None,
    pid: int | None = None,
    cond_only: bool = False,
    name: str = "",
) -> tuple[Trace, IngestReport]:
    """Parse a whole ``perf script`` file into one in-memory trace.

    The materializing counterpart of :func:`ingest_perf` (what
    :meth:`PerfLbrSpec.materialize` calls); multi-GB captures should go
    through :func:`ingest_perf` instead and simulate out-of-core.
    """
    parser = PerfParser(source, event=event, pid=pid, cond_only=cond_only)
    parts = list(parser.chunks())
    assert parser.report is not None
    trace_name = name or Path(source).stem
    if not parts:
        return Trace.empty(name=trace_name), parser.report
    return concat_traces(parts, name=trace_name), parser.report


def ingest_perf(
    source: str | os.PathLike[str],
    destination: str | os.PathLike[str],
    *,
    event: str | None = None,
    pid: int | None = None,
    cond_only: bool = False,
    compress: bool = False,
    chunk_len: int = DEFAULT_CHUNK_LEN,
    name: str = "",
) -> IngestReport:
    """Convert a ``perf script`` dump to a chunked RBT v2 file.

    Streams end to end: parsed records flow straight into
    :func:`repro.trace.io.write_chunks` in ``chunk_len``-record chunks,
    so peak memory is O(chunk) however large the input.  Raises
    :class:`~repro.errors.TraceError` when *no* records parse (a wrong
    file fails loudly instead of writing an empty trace); partial skips
    are reported, not fatal.  Returns the pass's :class:`IngestReport`.
    """
    parser = PerfParser(source, event=event, pid=pid, cond_only=cond_only)
    trace_name = name or Path(source).stem
    write_chunks(
        parser.chunks(chunk_len),
        destination,
        name=trace_name,
        compress=compress,
        chunk_len=chunk_len,
    )
    report = parser.report
    assert report is not None
    if report.records == 0:
        try:
            os.unlink(destination)
        except OSError:
            pass
        raise TraceError(
            f"no branch records parsed from {os.fspath(source)!r} "
            f"({report.summary()}); is this really `perf script` output?"
        )
    return report
