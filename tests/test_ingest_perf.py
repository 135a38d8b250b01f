"""perf script ingestion tests (repro/ingest/perf.py + PerfLbrSpec).

The fixtures under tests/fixtures/perf/ are committed `perf script`
captures: clean (one pid/event), interleaved (two pids, two events),
truncated (file ends mid-entry), garbage (junk lines mixed in).
Determinism tests pin ingest output *bytes* and spec content keys
across repeated runs, fresh processes, and --chunk-len settings.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.cli import main
from repro.engine.backend import backend_availability
from repro.engine.compiled import cext
from repro.errors import ConfigurationError, TraceError
from repro.ingest import PerfParser, ingest_perf, parse_perf_trace
from repro.trace.io import TraceReader
from repro.trace.stream import concat
from repro.workload_spec import PerfLbrSpec

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "perf"
CLEAN = FIXTURES / "clean.txt"
INTERLEAVED = FIXTURES / "interleaved.txt"
TRUNCATED = FIXTURES / "truncated.txt"
GARBAGE = FIXTURES / "garbage.txt"
SRC = str(Path(__file__).resolve().parent.parent / "src")

CEXT_USABLE = backend_availability()["cext"][0]

#: One brstack entry, as the fixtures print them.
ENTRY_RE = re.compile(r"0x([0-9a-f]+)/0x[0-9a-f]+/([A-Z]+)/")


def oracle_records(path, *, pid=None, event=None):
    """Reference parse of a fixture via an independent regex pass."""
    records = []
    for line in path.read_text(errors="replace").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        tokens = line.split()
        if pid is not None and (len(tokens) < 2 or tokens[1] != str(pid)):
            continue
        if event is not None and not any(
            t.startswith(event) and t.endswith(":") for t in tokens
        ):
            continue
        for pc, flags in ENTRY_RE.findall(line):
            records.append((int(pc, 16), 0 if "N" in flags else 1))
    return records


class TestParser:
    def test_clean_parses_every_line_and_entry(self):
        trace, report = parse_perf_trace(CLEAN)
        expected = oracle_records(CLEAN)
        assert list(zip(trace.pcs.tolist(), trace.outcomes.tolist())) == expected
        assert report.lines == 40
        assert report.matched_lines == 40
        assert report.skipped_lines == 0
        assert report.skipped_entries == 0
        assert report.filtered_lines == 0
        assert report.records == len(expected) > 80

    def test_not_taken_flag_maps_to_outcome_zero(self):
        trace, _ = parse_perf_trace(CLEAN)
        expected = oracle_records(CLEAN)
        not_taken = sum(1 for _, taken in expected if taken == 0)
        assert int((trace.outcomes == 0).sum()) == not_taken > 0

    def test_pid_filter_partitions_interleaved(self):
        _, everything = parse_perf_trace(INTERLEAVED)
        trace_a, report_a = parse_perf_trace(INTERLEAVED, pid=1111)
        trace_b, report_b = parse_perf_trace(INTERLEAVED, pid=2222)
        assert report_a.records + report_b.records == everything.records
        assert report_a.filtered_lines == report_b.matched_lines
        assert list(zip(trace_a.pcs.tolist(), trace_a.outcomes.tolist())) == (
            oracle_records(INTERLEAVED, pid=1111)
        )
        assert len(trace_b) == report_b.records > 0

    def test_event_filter_partitions_interleaved(self):
        _, everything = parse_perf_trace(INTERLEAVED)
        _, branches = parse_perf_trace(INTERLEAVED, event="branches")
        _, cycles = parse_perf_trace(INTERLEAVED, event="cycles")
        assert branches.records + cycles.records == everything.records
        assert branches.records > 0 and cycles.records > 0
        assert branches.reasons.get("event-filtered", 0) == cycles.matched_lines

    def test_event_filter_matches_modifier_suffix(self):
        # --event branches must accept the fixture's `branches:u`.
        _, bare = parse_perf_trace(CLEAN, event="branches")
        _, qualified = parse_perf_trace(CLEAN, event="branches:u")
        assert bare.records == qualified.records > 0
        _, nothing = parse_perf_trace(CLEAN, event="cache-misses")
        assert nothing.records == 0
        assert nothing.filtered_lines == nothing.lines

    def test_truncated_final_line_is_counted_not_fatal(self):
        trace, report = parse_perf_trace(TRUNCATED)
        # The 12 whole lines parse; the torn tail is accounted for.
        assert report.lines == 13
        assert report.matched_lines >= 12
        assert report.records >= len(oracle_records(TRUNCATED)) - 4
        assert report.skipped_entries >= 1
        assert len(trace) == report.records

    def test_garbage_lines_are_skipped_with_reasons(self):
        trace, report = parse_perf_trace(GARBAGE)
        assert report.skipped_lines >= 4
        assert report.matched_lines == report.lines - report.skipped_lines > 0
        assert sum(report.reasons.values()) >= report.skipped_lines
        assert list(zip(trace.pcs.tolist(), trace.outcomes.tolist())) == (
            oracle_records(GARBAGE)
        )

    @pytest.mark.parametrize("path", [CLEAN, INTERLEAVED, TRUNCATED, GARBAGE])
    def test_line_accounting_invariant(self, path):
        for kwargs in ({}, {"pid": 1111}, {"event": "branches"}):
            _, report = parse_perf_trace(path, **kwargs)
            assert (
                report.matched_lines + report.filtered_lines + report.skipped_lines
                == report.lines
            ), (path.name, kwargs)

    def test_arrow_fallback_format(self, tmp_path):
        src = tmp_path / "plain.txt"
        src.write_text(
            "prog  42 [000] 1.0: 1 branches: 401000 => 401040\n"
            "prog  42 [000] 1.1: 1 branches: 401040 => 0\n"
            "prog  42 [000] 1.2: 1 branches: 401000 => 0x401080\n"
            "prog  42 [000] 1.3: 1 branches: => 401000\n"  # malformed
        )
        trace, report = parse_perf_trace(src)
        assert list(zip(trace.pcs.tolist(), trace.outcomes.tolist())) == [
            (0x401000, 1),
            (0x401040, 0),  # target 0: not-taken at FROM
            (0x401000, 1),
        ]
        assert report.skipped_entries == 1

    def test_cond_only_drops_typed_non_conditionals(self, tmp_path):
        src = tmp_path / "typed.txt"
        src.write_text(
            "p 1 [0] 1.0: 1 branches: "
            "0x10/0x20/P/-/-/0/COND/- 0x14/0x24/P/-/-/0/UNCOND/- 0x18/0x28/P\n"
        )
        _, plain = parse_perf_trace(src)
        trace, cond = parse_perf_trace(src, cond_only=True)
        assert plain.records == 3
        assert cond.records == 2  # untyped entries are kept
        assert cond.non_cond_entries == 1
        assert trace.pcs.tolist() == [0x10, 0x18]

    def test_parser_pass_is_restartable(self):
        parser = PerfParser(CLEAN)
        first = concat(list(parser.chunks(64)))
        fingerprint = parser.report.sha256
        second = concat(list(parser.chunks(8)))
        assert first == second
        assert parser.report.sha256 == fingerprint

    def test_missing_file_raises_trace_error(self):
        with pytest.raises(TraceError):
            parse_perf_trace("/nonexistent/perf.txt")


class TestIngest:
    def test_ingest_matches_in_memory_parse(self, tmp_path):
        out = tmp_path / "clean.rbt"
        report = ingest_perf(CLEAN, out, chunk_len=64)
        trace, parse_report = parse_perf_trace(CLEAN)
        with TraceReader(out) as reader:
            assert len(reader) == report.records == len(trace)
            loaded = concat(list(reader))
            assert loaded.pcs.tolist() == trace.pcs.tolist()
            assert loaded.outcomes.tolist() == trace.outcomes.tolist()
        assert report.sha256 == parse_report.sha256

    def test_repeated_runs_write_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.rbt", tmp_path / "b.rbt"
        ingest_perf(CLEAN, a, chunk_len=64, compress=True)
        ingest_perf(CLEAN, b, chunk_len=64, compress=True)
        assert a.read_bytes() == b.read_bytes()

    def test_fingerprint_identical_across_chunk_len(self, tmp_path):
        fingerprints = set()
        for chunk_len in (8, 64, 1 << 20):
            out = tmp_path / f"c{chunk_len}.rbt"
            ingest_perf(CLEAN, out, chunk_len=chunk_len)
            with TraceReader(out) as reader:
                fingerprints.add(reader.fingerprint)
        assert len(fingerprints) == 1

    def test_ingest_bytes_identical_in_fresh_process(self, tmp_path):
        local = tmp_path / "local.rbt"
        ingest_perf(CLEAN, local, chunk_len=64, compress=True)
        remote = tmp_path / "remote.rbt"
        script = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "from repro.ingest import ingest_perf\n"
            f"ingest_perf({str(CLEAN)!r}, {str(remote)!r}, chunk_len=64, compress=True)\n"
        )
        result = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert remote.read_bytes() == local.read_bytes()

    def test_source_sha256_is_the_file_fingerprint(self, tmp_path):
        out = tmp_path / "o.rbt"
        report = ingest_perf(CLEAN, out)
        assert report.sha256 == hashlib.sha256(CLEAN.read_bytes()).hexdigest()

    def test_no_records_fails_loudly_and_cleans_up(self, tmp_path):
        src = tmp_path / "not-perf.txt"
        src.write_text("this is not perf output\nnor is this\n")
        out = tmp_path / "out.rbt"
        with pytest.raises(TraceError, match="no branch records"):
            ingest_perf(src, out)
        assert not out.exists()


class TestPerfLbrSpec:
    def test_content_key_covers_source_and_filters(self):
        base = PerfLbrSpec(path=str(INTERLEAVED))
        keys = {
            base.content_key(),
            PerfLbrSpec(path=str(INTERLEAVED), pid=1111).content_key(),
            PerfLbrSpec(path=str(INTERLEAVED), event="branches").content_key(),
            PerfLbrSpec(path=str(INTERLEAVED), cond_only=True).content_key(),
            PerfLbrSpec(path=str(INTERLEAVED), alias="other").content_key(),
            PerfLbrSpec(path=str(CLEAN)).content_key(),
        }
        assert len(keys) == 6

    def test_content_key_stable_in_fresh_process(self):
        spec = PerfLbrSpec.of(str(CLEAN), event="branches")
        script = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "from repro.workload_spec import WorkloadSpec\n"
            f"print(WorkloadSpec.from_json({spec.to_json()!r}).content_key())\n"
        )
        result = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == spec.content_key()

    def test_key_ignores_path_location(self, tmp_path):
        copy = tmp_path / "renamed-dir" / "clean.txt"
        copy.parent.mkdir()
        copy.write_bytes(CLEAN.read_bytes())
        assert (
            PerfLbrSpec(path=str(copy)).content_key()
            == PerfLbrSpec(path=str(CLEAN)).content_key()
        )

    def test_materialize_applies_filters_and_label(self):
        spec = PerfLbrSpec(path=str(INTERLEAVED), pid=2222, alias="workerB")
        trace = spec.materialize()
        assert trace.name == "workerB"
        assert list(zip(trace.pcs.tolist(), trace.outcomes.tolist())) == (
            oracle_records(INTERLEAVED, pid=2222)
        )

    def test_pin_mismatch_fails(self, tmp_path):
        copy = tmp_path / "clean.txt"
        copy.write_bytes(CLEAN.read_bytes())
        spec = PerfLbrSpec.of(str(copy))
        spec.materialize()  # pin matches
        copy.write_bytes(CLEAN.read_bytes() + b"tampered\n")
        with pytest.raises(TraceError, match="changed"):
            spec.materialize()

    def test_empty_result_after_filters_fails(self):
        spec = PerfLbrSpec(path=str(CLEAN), pid=999999)
        with pytest.raises(TraceError, match="no branch records"):
            spec.materialize()


def records(trace):
    return list(zip(trace.pcs.tolist(), trace.outcomes.tolist()))


class TestKernelAddresses:
    """A FROM address past int64 is a counted skip, not a crash."""

    MIXED = (
        "prog 4242 [000] 1.0: 1 branches:uk: 0x401000/0x401040/P/-/-/0 "
        "0xffffffff81000000/0xffffffff81000010/P/-/-/0 0x401008/0x401010/PN/-/-/0\n"
        "prog 4242 [000] 1.1: 1 branches:uk: 0xffffffff81000020/0x401000/M/-/-/0\n"
        "prog 4242 [000] 1.2: 1 branches:uk: ffffffff81000000 => 401000\n"
    )

    def test_user_entries_kept_kernel_entries_skipped(self, tmp_path, backend):
        src = tmp_path / "uk.txt"
        src.write_text(self.MIXED)
        trace, report = parse_perf_trace(src)
        assert records(trace) == [(0x401000, 1), (0x401008, 0)]
        assert report.skipped_entries == 3
        assert report.reasons == {"pc-out-of-range": 3, "empty-after-entry-skips": 2}
        assert (report.lines, report.matched_lines, report.skipped_lines) == (3, 1, 2)

    def test_cli_exits_zero_and_reports_the_skip(self, tmp_path, backend, capsys):
        src = tmp_path / "uk.txt"
        src.write_text(self.MIXED)
        assert main(["ingest", "perf", str(src), "-o", str(tmp_path / "uk.rbt"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 2
        assert payload["reasons"]["pc-out-of-range"] == 3


class TestBrstackTargets:
    """Only FLAGS decide a brstack entry's outcome; its TO is never read
    as a target.  Only the ``FROM => TO`` form has null targets."""

    def test_brstack_to_is_not_an_outcome(self, tmp_path, backend):
        src = tmp_path / "to.txt"
        src.write_text(
            "p 1 [0] 1.0: 1 branches: 0x401000/-/P/-/-/0 0x401004/0x0/P/-/-/0\n"
            "p 1 [0] 1.1: 1 branches: 0x401008/0/P/-/-/0 0x40100c/0x401010/PN/-/-/0\n"
        )
        trace, report = parse_perf_trace(src)
        assert records(trace) == [(0x401000, 1), (0x401004, 1), (0x40100C, 0)]
        assert report.reasons == {"malformed-entry": 1}

    def test_arrow_null_targets_are_not_taken(self, tmp_path, backend):
        src = tmp_path / "arrow.txt"
        src.write_text("401000 => -\n401004 => 0\n401008 => 0x0\n40100c => 0x401000\n")
        trace, _ = parse_perf_trace(src)
        assert records(trace) == [(0x401000, 0), (0x401004, 0), (0x401008, 0), (0x40100C, 1)]


def scan(text: bytes, cond_only: bool = False):
    lines, pcs, taken, events = cext.perf_scan(text, cond_only)
    return lines, list(zip(pcs.tolist(), taken.tolist())), events


@pytest.mark.skipif(not CEXT_USABLE, reason="no C compiler on this host")
class TestScanner:
    """``perf_scan`` decodes only the lines it can classify exactly as
    ``_parse_line`` does; every other line is handed back."""

    HEAD = b"prog 42/43 [000] 1.5: 250000 branches:u: "

    @pytest.mark.parametrize(
        "line, kind",
        [
            (b"", cext.PERF_SKIPPED),
            (b" \t\x0b\x0c\r\x1c\x1f", cext.PERF_SKIPPED),
            (b"  # comment 0x1/0x2/P", cext.PERF_SKIPPED),
            (b"# comment \xff", cext.PERF_HANDED_BACK),
            (HEAD + b"0x401000/0x401040/P/-/-/0", cext.PERF_SCANNED),
            (HEAD + b"0x401000/-/MN", cext.PERF_SCANNED),
            (b"0x401000/0x401040/P/-/-/0", cext.PERF_SCANNED),
            (HEAD.rstrip(), cext.PERF_HANDED_BACK),  # header only
            (HEAD + b"401000 => 401040", cext.PERF_HANDED_BACK),
            (HEAD + b"0x401000/0x401040/P => 0x1", cext.PERF_HANDED_BACK),
            (HEAD + b"0x401000/0x401040/P junk", cext.PERF_HANDED_BACK),
            (HEAD + b"0x401000/0x401040/P?", cext.PERF_HANDED_BACK),
            (HEAD + b"0X401000/0x401040/P", cext.PERF_HANDED_BACK),
            (HEAD + b"0x401000/0X401040/P", cext.PERF_HANDED_BACK),
            (HEAD + b"0x401000/0/P", cext.PERF_HANDED_BACK),
            (HEAD + b"0x401000/0x401040/", cext.PERF_HANDED_BACK),
            (HEAD + b"0x00000000000401000/0x1/P", cext.PERF_HANDED_BACK),  # 17 digits
            (HEAD + b"0x8000000000000000/0x1/P", cext.PERF_HANDED_BACK),  # 2**63
            (HEAD + b"0x7fffffffffffffff/0x1/P", cext.PERF_SCANNED),
            (HEAD + b"0x401000/0x401040/P/\xc3\xa9", cext.PERF_HANDED_BACK),
            (b"pr\xc3\xb6g 42 1.5: 0x401000/0x401040/P", cext.PERF_HANDED_BACK),
            (b"prog 123456789012345678901 0x401000/0x401040/P", cext.PERF_HANDED_BACK),
        ],
    )
    def test_line_kind(self, line, kind):
        lines, _, _ = scan(line)
        assert lines[:, cext.PERF_KIND].tolist() == [kind]

    def test_header_fields(self):
        text = b"\n".join(
            [
                self.HEAD + b"0x10/0x20/P 0x14/-/PN",
                b"7 8 9/9 100: cpu/branches/: 1.25: 0x18/0x28/Mn",
                b"cycles: 0x1c/0x2c/P",
                self.HEAD + b"0x20/0x30/P",
            ]
        )
        lines, got, events = scan(text)
        assert got == [(0x10, 1), (0x14, 0), (0x18, 0), (0x1C, 1), (0x20, 1)]
        tokens = [text[at : at + size] for at, size in events.tolist()]
        assert tokens == [b"branches:u", b"cpu/branches/", b"cycles"]
        # Token 0 is the comm even when numeric; the first pid wins.
        assert lines[:, cext.PERF_PID].tolist() == [42, 8, -1, 42]
        assert lines[:, cext.PERF_EVENT].tolist() == [0, 1, 2, 0]
        assert lines[:, cext.PERF_RECORDS].tolist() == [2, 1, 1, 1]
        ends = [i for i, byte in enumerate(text) if byte == ord("\n")] + [len(text)]
        assert lines[:, cext.PERF_END].tolist() == ends

    def test_cond_only_hands_back_typed_entries(self):
        # Six slashes reach the TYPE field; five cannot.
        typed = self.HEAD + b"0x10/0x20/P/-/-/0/UNCOND"
        untyped = self.HEAD + b"0x10/0x20/P/-/-/0 0x14/-/P/"
        assert scan(typed)[0][:, cext.PERF_KIND].tolist() == [cext.PERF_SCANNED]
        assert scan(typed, True)[0][:, cext.PERF_KIND].tolist() == [cext.PERF_HANDED_BACK]
        assert scan(untyped, True)[0][:, cext.PERF_KIND].tolist() == [cext.PERF_SCANNED]

    def test_event_table_overflow_hands_back(self, tmp_path):
        distinct = cext.PERF_EVENTS + 3
        text = b"".join(b"p 1 ev%d: 0x%x/-/P\n" % (i, 4 * i) for i in range(distinct))
        lines, _, events = scan(text)
        kinds = lines[:, cext.PERF_KIND].tolist()
        assert kinds[: cext.PERF_EVENTS] == [cext.PERF_SCANNED] * cext.PERF_EVENTS
        assert kinds[cext.PERF_EVENTS : distinct] == [cext.PERF_HANDED_BACK] * 3
        assert len(events) == cext.PERF_EVENTS
        src = tmp_path / "events.txt"
        src.write_bytes(text)
        assert_routes_agree(src, {"event": "ev66"}, 8)

    def test_no_array_is_written_past_its_length(self):
        text = b"p 1 e: 0x10/0x20/P 0x14/0x24/P\np 1 e: 0x18/0x28/P\np 1 e: 0x1c/-/P\n"
        buf = np.frombuffer(text, dtype=np.uint8)
        lines = np.full((3, cext.PERF_COLUMNS), -7, dtype=np.int64)
        pcs = np.full(4, -7, dtype=np.int64)
        taken = np.full(4, 7, dtype=np.uint8)
        events = np.full((2, 2), -7, dtype=np.int64)
        totals = np.zeros(3, dtype=np.int64)
        # Room for one record and two lines: the first line's two records
        # do not fit, so it goes back; the third line is not reported.
        cext.load()["perf_scan"](buf, False, lines[:2], pcs[:1], taken[:1], events[:1], totals)
        assert totals.tolist() == [2, 1, 1]
        kinds = lines[:2, cext.PERF_KIND].tolist()
        assert kinds == [cext.PERF_HANDED_BACK, cext.PERF_SCANNED]
        assert pcs[0] == 0x18 and (pcs[1:] == -7).all() and (taken[1:] == 7).all()
        assert (lines[2] == -7).all() and (events[1] == -7).all()

    @pytest.mark.parametrize(
        "case", ["dtype", "strided", "read-only", "columns", "overlap", "totals", "taken"]
    )
    def test_bad_arrays_rejected(self, case):
        buf = np.frombuffer(b"p 1 e: 0x10/0x20/P", dtype=np.uint8)
        arrays = {
            "lines": np.zeros((1, cext.PERF_COLUMNS), dtype=np.int64),
            "pcs": np.zeros(4, dtype=np.int64),
            "taken": np.zeros(4, dtype=np.uint8),
            "events": np.zeros((2, 2), dtype=np.int64),
            "totals": np.zeros(3, dtype=np.int64),
        }
        if case == "dtype":
            arrays["pcs"] = arrays["pcs"].astype(np.int32)
        elif case == "strided":
            arrays["pcs"] = np.zeros(8, dtype=np.int64)[::2]
        elif case == "read-only":
            arrays["lines"].setflags(write=False)
        elif case == "columns":
            arrays["lines"] = np.zeros((1, 3), dtype=np.int64)
        elif case == "overlap":
            shared = np.zeros(8, dtype=np.int64)
            arrays["events"], arrays["totals"] = shared[:4].reshape(2, 2), shared[3:6]
        elif case == "totals":
            arrays["totals"] = np.zeros(2, dtype=np.int64)
        elif case == "taken":
            arrays["taken"] = np.zeros(3, dtype=np.uint8)
        with pytest.raises(ConfigurationError, match="perf_scan"):
            cext.load()["perf_scan"](buf, False, *arrays.values())
        assert not arrays["totals"].any()  # C never ran

    def test_block_must_be_bytes(self):
        with pytest.raises(ConfigurationError, match="bytes"):
            cext.perf_scan("p 1 e: 0x10/0x20/P", False)
        with pytest.raises(ConfigurationError, match="bytes"):
            cext.perf_scan(np.zeros(4, dtype=np.int64), False)


def route_output(path, backend, options, chunk_len):
    """Chunks, report and .rbt bytes of one ingest on ``backend``."""
    out = Path(str(path) + f".{backend}.rbt")
    with mock.patch.dict(os.environ, {"REPRO_ENGINE_BACKEND": backend}):
        parser = PerfParser(path, **options)
        chunks = [records(chunk) for chunk in parser.chunks(chunk_len)]
        try:
            ingest_perf(path, out, chunk_len=chunk_len, compress=True, **options)
            written = out.read_bytes()
        except TraceError:
            written = None
    return chunks, parser.report.to_dict(), written


def assert_routes_agree(path, options, chunk_len):
    expected = route_output(path, "python", options, chunk_len)
    assert route_output(path, "cext", options, chunk_len) == expected


@pytest.mark.skipif(not CEXT_USABLE, reason="no C compiler on this host")
class TestRoutesAgree:
    """The scanner route gives the per-line parser's chunks, report and
    ``.rbt`` bytes under every option and chunk length."""

    @pytest.mark.parametrize("chunk_len", [8, 65_536, 1 << 20])
    @pytest.mark.parametrize(
        "options",
        [{}, {"event": "branches"}, {"pid": 1111}, {"cond_only": True}],
        ids=["all", "event", "pid", "cond-only"],
    )
    @pytest.mark.parametrize("path", [CLEAN, INTERLEAVED, TRUNCATED, GARBAGE], ids=lambda p: p.stem)
    def test_fixture(self, path, options, chunk_len, tmp_path):
        copy = tmp_path / path.name
        copy.write_bytes(path.read_bytes())
        assert_routes_agree(copy, options, chunk_len)

    @pytest.mark.parametrize("cond_only", [False, True])
    def test_typed_entries(self, tmp_path, cond_only):
        src = tmp_path / "typed.txt"
        src.write_bytes(
            b"p 1 [0] 1.0: 1 branches: 0x10/0x20/P/-/-/0/COND 0x14/0x24/P/-/-/0/UNCOND\n"
            b"p 1 [0] 1.1: 1 branches: 0x18/0x28/P/-/-/0/COND/- 0x1c/0x2c/P/-/-/0\n"
            b"p 1 [0] 1.2: 1 branches: 0x20/0x30/P/-/-/0/uncond/- 0x24/0x34/P//\n"
            b"p 1 [0] 1.3: 1 branches: 0x28/0x38/P//-/-/JCC 0x2c/0x3c/P/-/-/0/-\n"
        )
        assert_routes_agree(src, {"cond_only": cond_only}, 8)

    @pytest.mark.parametrize("pid", [-1, 0, 7, 1 << 70])
    def test_pid_filter_on_lines_with_and_without_pids(self, tmp_path, pid):
        src = tmp_path / "pids.txt"
        src.write_bytes(
            b"branches: 0x10/0x20/P\n"
            b"p 7 branches: 0x14/0x24/P\n"
            b"p 0/0 branches: 0x18/0x28/P\n"
            b"7 branches: 0x1c/0x2c/P\n"
        )
        assert_routes_agree(src, {"pid": pid}, 8)

    def test_lines_across_read_blocks(self, tmp_path, monkeypatch):
        # Small reads put block boundaries inside lines and between a
        # line and its newline; the hand-back lines keep their places.
        from repro.ingest import perf

        monkeypatch.setattr(perf, "_READ_BLOCK", 97)
        copy = tmp_path / "garbage.txt"
        copy.write_bytes(GARBAGE.read_bytes() + CLEAN.read_bytes().replace(b"\n", b"\r\n"))
        assert_routes_agree(copy, {"event": "branches"}, 8)

    def test_python_backend_never_scans(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the scanner ran on the python backend")

        monkeypatch.setattr(cext, "perf_scan", refuse)
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "python")
        trace, _ = parse_perf_trace(CLEAN)
        assert records(trace) == oracle_records(CLEAN)


class TestBlockReader:
    def test_a_line_across_many_reads_costs_linear_time(self):
        # 64 reads of 1 MiB without a newline.  Growing the unfinished
        # line with ``+=`` and searching all of it after every read
        # copied and searched ~2 GiB: 1.5 s on a 2-vCPU Xeon, where
        # holding the reads in a list and joining them once takes 0.04 s.
        from repro.ingest import perf

        block = b"x" * perf._READ_BLOCK

        class Reads:
            left = 64

            def read(self, size):
                if not self.left:
                    return b""
                self.left -= 1
                return block

        start = time.perf_counter()
        blocks = list(PerfParser("unread.txt")._blocks(Reads(), mock.Mock()))
        elapsed = time.perf_counter() - start
        assert [len(b) for b in blocks] == [64 * len(block)]
        assert elapsed < 0.3, f"{elapsed:.2f} s for one 64 MiB line"
