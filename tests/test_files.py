"""Tests for repro.files.replacing, the replace-on-write every path
write goes through (trace files, store objects, manifest, run report):
a replaced file keeps what writing through it would keep.  A failed
write is covered in test_trace_io_v2.py and test_pipeline_faults.py."""

import os
import stat

import numpy as np
import pytest

from repro.trace import Trace, load_trace, save_trace, write_chunks

TRACE = Trace(np.arange(100) * 4, np.arange(100) % 2, name="t")


@pytest.mark.parametrize("writer", ["save_trace", "write_chunks"])
def test_a_symlink_keeps_pointing_at_its_updated_target(tmp_path, writer):
    target = tmp_path / "real.rbt"
    target.write_bytes(b"old")
    link = tmp_path / "link.rbt"
    link.symlink_to(target.name)
    if writer == "save_trace":
        save_trace(TRACE, link)
    else:
        write_chunks([TRACE], link, name="t")
    assert link.is_symlink() and os.readlink(link) == "real.rbt"
    assert load_trace(target) == TRACE
    assert sorted(os.listdir(tmp_path)) == ["link.rbt", "real.rbt"]


def test_an_existing_file_keeps_its_permission_bits(tmp_path):
    path = tmp_path / "t.rbt"
    save_trace(TRACE, path)
    path.chmod(0o640)
    save_trace(TRACE, path, version=1)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert load_trace(path) == TRACE
