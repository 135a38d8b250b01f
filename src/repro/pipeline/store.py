"""Content-addressed artifact store with a JSON run manifest.

Artifacts live under ``<root>/objects/<sha256>.npz`` — one compressed
numpy archive per artifact, holding the node's arrays plus a
``__meta__`` JSON string — and ``<root>/manifest.json`` records what
each object *is* (key, kind, params, dep addresses, size, creation
time), so ``repro artifacts list`` can explain the cache and
``repro artifacts gc`` can sweep objects no current plan reaches.

Properties the pipeline relies on:

* **Content addressing** — the digest covers the producing spec and
  every upstream digest (:func:`~repro.pipeline.artifacts.node_digest`),
  so invalidation is automatic: a changed scale or sweep spec simply
  addresses different objects and the stale ones become garbage.
* **Corruption tolerance** — a truncated or corrupted object file is
  treated as a miss (and deleted); the executor recomputes it.  A
  corrupt manifest resets to empty without touching object files.
* **Write atomicity** — objects are written to a temp file and renamed
  into place, so a crashed run never leaves a half-written object
  under a valid address.  Manifest records are queued per ``put`` and
  merged to disk once per executor run (``flush_manifest``), read-
  before-write so concurrent runs sharing a cache directory keep each
  other's entries.  (A run killed before its flush leaves valid but
  manifest-untracked objects; ``has``/``gc`` key on digests, not the
  manifest, so correctness is unaffected.)
* **Concurrency** — the manifest read-merge-write (``flush_manifest``
  and ``gc``'s rewrite) runs under an advisory cross-process
  :class:`~repro.pipeline.locking.FileLock` (``<root>/.lock``), so
  concurrent runs sharing one cache directory cannot drop each other's
  records even when their flushes are truly simultaneous.  ``gc``
  additionally re-merges this process's still-pending records into the
  rewritten manifest, and sweeps stale ``*.tmp`` litter left by
  crashed writers.

Chaos hooks: with an active :class:`~repro.faults.FaultPlan`, ``put``
can raise an injected write error (``store-write`` site) or garble the
object file after a successful write (``corrupt`` site) — the executor
and the read-side corruption tolerance are tested through exactly
these paths.  Without a plan both hooks are no-ops.

A store with ``root=None`` is memory-only: artifacts are cached for
the process lifetime but nothing touches disk (``--no-cache``).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .. import faults
from ..files import replacing
from .locking import FileLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .artifacts import ArtifactNode, PipelineConfig

__all__ = ["SERVE_INFO_NAME", "SERVE_LOCK_NAME", "ArtifactStore", "ManifestEntry"]

_META_KEY = "__meta__"

#: Long-lived lock a ``repro serve`` scheduler holds on its cache root
#: (see :attr:`ArtifactStore.serve_lock`) and the holder-identity file
#: written next to it.
SERVE_LOCK_NAME = ".serve.lock"
SERVE_INFO_NAME = "serve.json"

#: Temp litter from a *crashed* writer is only swept by gc once it is
#: this old (seconds): a live concurrent writer's temp file is never
#: older, so sweeping cannot race an in-progress put.
TMP_LITTER_MIN_AGE = 3600.0


class ManifestEntry(dict):
    """One manifest record (a dict with attribute sugar for readability)."""

    @property
    def digest(self) -> str:
        return self["digest"]


class ArtifactStore:
    """Hash-keyed artifact files plus the run manifest.

    Parameters
    ----------
    root:
        Store directory (created on first write).  ``None`` keeps
        artifacts in memory only.
    """

    def __init__(self, root: str | Path | None) -> None:
        self.root = Path(root) if root is not None else None
        self._memory: dict[str, Any] = {}
        self._pending_manifest: dict[str, dict[str, Any]] = {}
        self._lock: FileLock | None = None
        self._serve_lock: FileLock | None = None

    @property
    def lock(self) -> FileLock:
        """The store's cross-process advisory lock (disk stores only).

        Serializes manifest merges and run-report checkpoints across
        runs sharing this cache directory.  Reentrant within one
        store object.
        """
        assert self.root is not None, "memory-only stores have nothing to lock"
        if self._lock is None:
            self._lock = FileLock(self.root / ".lock")
        return self._lock

    @property
    def serve_lock(self) -> FileLock:
        """The *service* lock on this cache directory (``.serve.lock``).

        A ``repro serve`` scheduler holds it for its whole lifetime —
        distinct from :attr:`lock`, which is taken and released around
        each manifest merge.  Destructive maintenance (``repro
        artifacts gc``) takes it with ``acquire(timeout=…)`` first and
        fails fast with the holder's identity (:meth:`read_serve_info`)
        instead of deleting a live server's in-progress artifacts.
        Being an OS-level ``flock``, it self-releases if the server
        dies, so a stale pid never wedges maintenance.
        """
        assert self.root is not None, "memory-only stores have nothing to lock"
        if self._serve_lock is None:
            self._serve_lock = FileLock(self.root / SERVE_LOCK_NAME)
        return self._serve_lock

    # -- serve holder info ----------------------------------------------

    @property
    def serve_info_path(self) -> Path | None:
        return self.root / SERVE_INFO_NAME if self.root is not None else None

    def write_serve_info(self, info: Mapping[str, Any]) -> None:
        """Record who holds :attr:`serve_lock` (pid, address, started).

        Written by the scheduler *after* it takes the serve lock, so a
        reader that just failed to acquire the lock can name the
        holder in its error message.
        """
        path = self.serve_info_path
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with replacing(path, "w") as fh:
            fh.write(json.dumps(dict(info), indent=1, sort_keys=True))

    def read_serve_info(self) -> dict[str, Any] | None:
        """The recorded serve-lock holder, or ``None`` (absent/corrupt)."""
        path = self.serve_info_path
        if path is None or not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def clear_serve_info(self) -> None:
        path = self.serve_info_path
        if path is not None:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)

    # -- paths ----------------------------------------------------------

    @property
    def objects_dir(self) -> Path | None:
        return self.root / "objects" if self.root is not None else None

    @property
    def manifest_path(self) -> Path | None:
        return self.root / "manifest.json" if self.root is not None else None

    def object_path(self, digest: str) -> Path | None:
        return self.objects_dir / f"{digest}.npz" if self.root is not None else None

    # -- membership and access ------------------------------------------

    def has(self, digest: str) -> bool:
        """True if the artifact is available (memory or disk)."""
        if digest in self._memory:
            return True
        path = self.object_path(digest)
        return path is not None and path.exists()

    def get(self, digest: str, node: "ArtifactNode") -> Any | None:
        """The stored value, or ``None`` on a miss *or* a corrupt object.

        Corrupt/truncated objects are deleted so the address reads as a
        clean miss from then on.
        """
        if digest in self._memory:
            return self._memory[digest]
        path = self.object_path(digest)
        if path is None or not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data[_META_KEY]))
                arrays = {name: data[name] for name in data.files if name != _META_KEY}
            value = node.decode(arrays, meta)
        except Exception:
            # Truncated download, torn write, zip damage, schema drift:
            # all read as a miss; the executor recomputes and rewrites.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._memory[digest] = value
        return value

    def put(
        self,
        digest: str,
        node: "ArtifactNode",
        value: Any,
        config: "PipelineConfig",
        dep_digests: Mapping[str, str] | None = None,
        fault_token: str | None = None,
    ) -> None:
        """Store a value under its content address.

        The value is memoized in process only *after* the object write
        succeeds, so a persistence failure (raised to the caller) never
        leaves this store claiming an artifact it does not hold.  The
        manifest record is queued; callers batch it to disk with
        :meth:`flush_manifest` (the executor does, once per run).

        ``fault_token`` names this write for the chaos hooks (the
        executor passes the node's attempt token); it defaults to the
        digest and has no effect without an active fault plan.
        """
        if self.root is None:
            self._memory[digest] = value
            return
        arrays, meta = node.encode(value)
        objects = self.objects_dir
        assert objects is not None
        objects.mkdir(parents=True, exist_ok=True)
        path = self.object_path(digest)
        assert path is not None
        faults.inject("store-write", fault_token or digest)
        # Concurrent runs sharing a cache dir may race to write the same
        # digest; each lands its own temp file and the last rename wins
        # (both contents are identical by content addressing).
        with replacing(path) as fh:
            np.savez_compressed(
                fh, **{_META_KEY: json.dumps(meta, sort_keys=True)}, **arrays
            )
        faults.inject_corruption(path, fault_token or digest)
        self._memory[digest] = value
        self._pending_manifest[digest] = {
            "key": node.key,
            "kind": node.kind,
            "params": node.params(config),
            "deps": dict(dep_digests or {}),
            "bytes": path.stat().st_size,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        }

    def flush_manifest(self) -> None:
        """Merge queued manifest records into ``manifest.json``.

        The read-merge-write runs under the store's cross-process
        :attr:`lock`, so records from other runs sharing the cache
        directory are preserved even when flushes are simultaneous,
        and one run costs one manifest write instead of one per
        artifact.
        """
        if self.root is None or not self._pending_manifest:
            return
        with self.lock:
            manifest = self.manifest()
            manifest.update(self._pending_manifest)
            self._write_manifest(manifest)
        self._pending_manifest.clear()

    # -- manifest --------------------------------------------------------

    def manifest(self) -> dict[str, dict[str, Any]]:
        """The manifest mapping digest -> record ({} when absent/corrupt)."""
        path = self.manifest_path
        if path is None or not path.exists():
            return {}
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    def _write_manifest(self, manifest: dict[str, dict[str, Any]]) -> None:
        path = self.manifest_path
        if path is None:
            return
        with replacing(path, "w") as fh:
            fh.write(json.dumps(manifest, indent=1, sort_keys=True))

    def entries(self) -> list[ManifestEntry]:
        """Manifest records (plus digest), newest first."""
        entries = [
            ManifestEntry(dict(record, digest=digest))
            for digest, record in self.manifest().items()
        ]
        entries.sort(key=lambda e: (e.get("created") or "", e.digest), reverse=True)
        return entries

    # -- garbage collection ----------------------------------------------

    def gc(self, live: set[str], *, dry_run: bool = False) -> tuple[int, int]:
        """Delete objects whose digest is not in ``live``.

        Returns ``(objects_removed, bytes_reclaimed)`` — with
        ``dry_run=True`` nothing is touched and the counts describe
        what *would* be removed.  Untracked files in the objects
        directory (manifest lost, older layouts) are swept by the same
        rule, as is ``*.tmp`` litter left behind by crashed writers
        (only once :data:`TMP_LITTER_MIN_AGE` old, so a live concurrent
        writer's in-progress temp file is never touched).

        The manifest rewrite runs under the store's cross-process
        :attr:`lock` and re-merges this process's still-pending records
        for live digests, so a gc racing concurrent writers never loses
        their (or its own) entries.
        """
        objects = self.objects_dir
        if objects is None or not objects.exists():
            return (0, 0)
        removed = reclaimed = 0
        # Litter age is judged against file mtimes, which are wall-clock:
        # monotonic time cannot be compared to them.
        now = time.time()  # repro: noqa[D102] -- mtime comparison needs wall clock
        for litter in sorted(objects.glob("*.tmp")):
            try:
                stat = litter.stat()
            except OSError:
                continue
            if now - stat.st_mtime < TMP_LITTER_MIN_AGE:
                continue
            if not dry_run:
                try:
                    litter.unlink()
                except OSError:
                    continue
            removed += 1
            reclaimed += stat.st_size
        for path in sorted(objects.glob("*.npz")):
            digest = path.stem
            if digest in live:
                continue
            size = path.stat().st_size
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
                self._memory.pop(digest, None)
            removed += 1
            reclaimed += size
        if not dry_run:
            with self.lock:
                manifest = self.manifest()
                pruned = {d: r for d, r in manifest.items() if d in live}
                for digest, record in self._pending_manifest.items():
                    if digest in live:
                        pruned.setdefault(digest, dict(record))
                if pruned != manifest:
                    self._write_manifest(pruned)
        return (removed, reclaimed)
