"""Mutated ``perf script`` text ingests or raises ``TraceError``, and
the C scanner's route agrees with the per-line parser's.

A byte-mutation property test over the four committed fixtures and a
seed holding kernel-space addresses, crossed with the filter settings
and chunk lengths.  Every input must either ingest, with its report's
line accounting intact, or raise :class:`~repro.errors.TraceError`
(an input with no records); and on a host with a C compiler the
``cext`` route must give the ``python`` route's chunks and report.
Run it longer with ``--hypothesis-profile fuzz`` (see
``tests/conftest.py``).
"""

import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.backend import backend_availability
from repro.errors import TraceError
from repro.ingest import PerfParser, ingest_perf

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "perf"

KERNEL_SEED = (
    b"prog 4242 [000] 1.000000: 1 branches:uk: 0x401000/0x401040/P/-/-/0 "
    b"0xffffffff81000000/0xffffffff81000010/P/-/-/0 0x401008/0x401010/PN/-/-/0\n"
    b"prog 4242 [000] 1.000001: 1 branches:uk: 0xffffffff81000020/0x401000/M/-/-/0\n"
    b"prog 4242 [000] 1.000002: 1 branches:uk: ffffffff81000000 => 401000\n"
    b"prog 4242 [000] 1.000003: 1 branches:uk: 401000 => 0\n"
)

SEEDS = {path.stem: path.read_bytes() for path in sorted(FIXTURES.glob("*.txt"))}
SEEDS["kernel"] = KERNEL_SEED

#: Bytes and fragments that move a line between the scanner's rules:
#: separators, entry punctuation and flags, header markers, non-ASCII.
SEPARATORS = [b" ", b"\t", b"\r", b"\x0b", b"\x1c", b"\n"]
PUNCTUATION = [b"/", b"-", b"x", b"X", b"N", b"n", b"0", b"f", b"g", b":", b".", b"#", b"=>"]
NON_ASCII = [b"\x00", b"\x80", b"\xc2\xa0", b"\xff"]
TOKENS = [
    b" 0xffffffff81000000/0x0/P/-/-/0",
    b" 0x401000/-/P",
    b" 0x401008/0/P/-/-/0",
    b"/COND/-",
    b"/UNCOND",
    b" 1111 ",
    b" cycles:u: ",
    b" 4242/4242 ",
    b" 99999999999999999999 ",
    b" 0x00000000000000000401000/0x1/P",
]
FRAGMENTS = SEPARATORS + PUNCTUATION + NON_ASCII + TOKENS

FILTERS = [
    {},
    {"event": "branches"},
    {"pid": 1111},
    {"pid": 4242, "event": "branches:u"},
    {"cond_only": True},
]

CEXT_USABLE = backend_availability()["cext"][0]

mutations = st.lists(
    st.tuples(
        st.integers(0, 1 << 16),
        st.sampled_from(["replace", "insert", "delete"]),
        st.sampled_from(FRAGMENTS),
    ),
    max_size=6,
)


def mutate(seed: str, edits) -> bytes:
    data = bytearray(SEEDS[seed])
    for at, operation, fragment in edits:
        at %= len(data) + 1
        if operation == "insert":
            data[at:at] = fragment
        elif operation == "delete":
            del data[at : at + len(fragment)]
        else:
            data[at : at + len(fragment)] = fragment
    return bytes(data)


def parsed(path: str, backend: str, options: dict, chunk_len: int):
    """Chunks and report of one pass on ``backend``."""
    with mock.patch.dict(os.environ, {"REPRO_ENGINE_BACKEND": backend}):
        parser = PerfParser(path, **options)
        chunks = [(c.pcs.tolist(), c.outcomes.tolist()) for c in parser.chunks(chunk_len)]
    return chunks, parser.report.to_dict()


@settings(deadline=None)
@given(
    seed=st.sampled_from(sorted(SEEDS)),
    edits=mutations,
    options=st.sampled_from(FILTERS),
    chunk_len=st.sampled_from([8, 64, 65_536]),
)
def test_mutated_text_ingests_or_raises_trace_error(seed, edits, options, chunk_len):
    backends = ["python", "cext"] if CEXT_USABLE else ["python"]
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "capture.txt")
        Path(source).write_bytes(mutate(seed, edits))
        for backend in backends:
            with mock.patch.dict(os.environ, {"REPRO_ENGINE_BACKEND": backend}):
                try:
                    report = ingest_perf(
                        source, os.path.join(tmp, "out.rbt"), chunk_len=chunk_len, **options
                    )
                except TraceError:
                    continue
            accounted = report.matched_lines + report.filtered_lines + report.skipped_lines
            assert accounted == report.lines, (backend, report)
            assert report.records > 0


@pytest.mark.skipif(not CEXT_USABLE, reason="no C compiler on this host")
@settings(deadline=None)
@given(
    seed=st.sampled_from(sorted(SEEDS)),
    edits=mutations,
    options=st.sampled_from(FILTERS),
    chunk_len=st.sampled_from([8, 64, 65_536]),
)
def test_scanner_route_matches_the_per_line_parser(seed, edits, options, chunk_len):
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "capture.txt")
        Path(source).write_bytes(mutate(seed, edits))
        expected = parsed(source, "python", options, chunk_len)
        assert parsed(source, "cext", options, chunk_len) == expected


def test_every_seed_ingests():
    # The kernel seed feeds the pc-out-of-range skip and the arrow form;
    # the fixtures feed scanned lines and every hand-back reason.
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in SEEDS.items():
            source = os.path.join(tmp, f"{name}.txt")
            Path(source).write_bytes(data)
            reports[name] = parsed(source, "python", {}, 64)[1]
    assert all(report["records"] > 0 for report in reports.values())
    assert reports["kernel"]["records"] == 3
    assert reports["kernel"]["reasons"] == {"empty-after-entry-skips": 2, "pc-out-of-range": 3}
