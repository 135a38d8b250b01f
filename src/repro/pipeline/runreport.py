"""Incremental run reports: the executor's crash-recovery checkpoint.

The executor persists a ``run-report.json`` into the store root after
every node completion, recording — per node key — the content address
it ran against, its terminal status, how many attempts it took, which
fault kinds it hit, and its timing.  Because artifacts themselves are
content-addressed on disk, this file is pure *bookkeeping*: a killed
run can be resumed by replanning against the store (which already
knows what exists) and the report (which knows what the previous run
did), and only the missing nodes recompute.

Schema (``version`` 1)::

    {
      "version": 1,
      "started": "2026-08-07T12:00:00",   # first write, UTC
      "updated": "2026-08-07T12:00:09",   # last write, UTC
      "config": {"suite": "<content key>", "scale": 1.0,
                 "history_lengths": [0, ...]},
      "nodes": {
        "<key>": {
          "digest":   "<sha256>",         # address the node ran against
          "status":   "computed|cached|failed|skipped",
          "attempts": 2,                  # total compute attempts
          "faults":   ["worker-crash"],   # fault kinds hit on the way
          "elapsed":  1.25,               # seconds, successful attempt
          "error":    "...",              # failed nodes only
          "resumed":  true                # served from a prior run
        }, ...
      },
      "known_failures": {                 # executor FailureMemo snapshot
        "<digest>": {"kind": "node-error", "error": "..."}, ...
      }
    }

A record is only trusted on resume when its digest still matches the
current plan's — a config change simply re-keys nodes and their stale
records are ignored (and rewritten as the new run touches them).
Reports are written atomically (temp + rename) under the store's
manifest lock, so concurrent runs sharing a cache directory cannot
interleave torn writes; a corrupt or foreign report loads as empty.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..files import replacing

__all__ = ["RUN_REPORT_NAME", "RUN_REPORT_VERSION", "NodeRecord", "RunReport"]

RUN_REPORT_NAME = "run-report.json"
RUN_REPORT_VERSION = 1


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


@dataclass
class NodeRecord:
    """One node's outcome in a run (see the module docstring schema)."""

    digest: str
    status: str
    attempts: int = 0
    faults: list[str] = field(default_factory=list)
    elapsed: float | None = None
    error: str | None = None
    resumed: bool = False

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "digest": self.digest,
            "status": self.status,
            "attempts": self.attempts,
            "faults": list(self.faults),
        }
        if self.elapsed is not None:
            record["elapsed"] = round(self.elapsed, 6)
        if self.error is not None:
            record["error"] = self.error
        if self.resumed:
            record["resumed"] = True
        return record

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "NodeRecord":
        return cls(
            digest=str(data.get("digest", "")),
            status=str(data.get("status", "")),
            attempts=int(data.get("attempts", 0)),
            faults=[str(kind) for kind in data.get("faults", [])],
            elapsed=data.get("elapsed"),
            error=data.get("error"),
            resumed=bool(data.get("resumed", False)),
        )


@dataclass
class RunReport:
    """The persisted per-run node ledger."""

    nodes: dict[str, NodeRecord] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)
    started: str = field(default_factory=_utcnow)
    updated: str = field(default_factory=_utcnow)
    #: Known-broken content addresses (the executor's shared
    #: :class:`~repro.pipeline.executor.FailureMemo` snapshot):
    #: digest -> {"kind": <fault kind>, "error": <first line>}.
    known_failures: dict[str, dict[str, str]] = field(default_factory=dict)

    # -- queries ---------------------------------------------------------

    def record(self, key: str, digest: str) -> NodeRecord | None:
        """The record for ``key`` *iff* it ran against ``digest``."""
        record = self.nodes.get(key)
        if record is not None and record.digest == digest:
            return record
        return None

    def completed(self, key: str, digest: str) -> bool:
        """Whether ``key`` finished (computed or cache-served) at ``digest``."""
        record = self.record(key, digest)
        return record is not None and record.status in ("computed", "cached")

    def counts(self) -> dict[str, int]:
        """Status -> node count (for summaries)."""
        counts: dict[str, int] = {}
        for record in self.nodes.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    # -- persistence -----------------------------------------------------

    @staticmethod
    def path_for(root: Path) -> Path:
        return Path(root) / RUN_REPORT_NAME

    @classmethod
    def load(cls, root: str | Path | None) -> "RunReport | None":
        """The report stored under ``root``, or ``None`` when absent,
        corrupt, or from an incompatible schema version."""
        if root is None:
            return None
        path = cls.path_for(Path(root))
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict) or data.get("version") != RUN_REPORT_VERSION:
            return None
        nodes_data = data.get("nodes")
        if not isinstance(nodes_data, dict):
            return None
        report = cls(
            nodes={
                str(key): NodeRecord.from_dict(record)
                for key, record in nodes_data.items()
                if isinstance(record, dict)
            },
            config=dict(data.get("config") or {}),
            started=str(data.get("started", "")),
            updated=str(data.get("updated", "")),
            known_failures={
                str(digest): {str(k): str(v) for k, v in record.items()}
                for digest, record in (data.get("known_failures") or {}).items()
                if isinstance(record, dict)
            },
        )
        return report

    def save(self, root: str | Path | None) -> Path | None:
        """Atomically write the report under ``root`` (no-op when ``None``)."""
        if root is None:
            return None
        self.updated = _utcnow()
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(root)
        payload = {
            "version": RUN_REPORT_VERSION,
            "started": self.started,
            "updated": self.updated,
            "config": self.config,
            "nodes": {key: record.to_dict() for key, record in self.nodes.items()},
        }
        if self.known_failures:
            payload["known_failures"] = self.known_failures
        with replacing(path, "w") as fh:
            fh.write(json.dumps(payload, indent=1, sort_keys=True))
        return path
