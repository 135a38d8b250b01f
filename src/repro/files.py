"""Replace-on-write for every file the package writes to a path.

:func:`replacing` is the one copy of "write a temporary file beside the
target, rename it over the target once complete, remove it on failure".
Trace files (``save_trace``, ``write_chunks``) and the artifact store's
objects, manifest, run report and serve record all go through it, so a
failed or interrupted write never leaves a half-written file under the
target's name, and a reader of the old file keeps its bytes.
"""

from __future__ import annotations

import contextlib
import os
import shutil
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any

__all__ = ["replacing"]


@contextmanager
def replacing(path: str | os.PathLike[str], mode: str = "wb", **options: Any) -> Iterator[IO]:
    """An open temporary file that replaces ``path`` when the block
    completes, and is removed if the block raises.

    The temporary file is ``<name>.<pid>.tmp`` beside the target, so
    concurrent processes writing one path each land their own file and
    the last rename wins.  A symlink at ``path`` is followed: the link
    keeps pointing at its target, which gets the new bytes.  An
    existing target keeps its permission bits.  The rename needs write
    access to the target's directory, not to the target itself.
    """
    # Only a link at the last component matters to the rename; the full
    # resolve is left to the rare path that is one.
    target = Path(os.path.realpath(path) if os.path.islink(path) else path)
    temporary = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, **options) as fp:
            yield fp
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(target, temporary)
        os.replace(temporary, target)
    except BaseException:
        # The cleanup must not mask the original error: the temporary
        # file may be gone already (a gc sweeping litter).
        with contextlib.suppress(OSError):
            temporary.unlink()
        raise
