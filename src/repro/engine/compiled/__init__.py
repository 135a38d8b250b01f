"""Compiled kernels: per-record loops and the two-level sweep.

Four predictor families (YAGS, bi-mode, filter, DHLF) carry state —
tagged caches, selectively-trained banks, run counters, a fitted
history length — that does not reduce to the segmented-scan algebra
the array carriers are built on, so they stream through a per-record
loop.  This package removes the *Python* from that loop without
changing a single emitted bit:

* :mod:`.kernels` — the per-record loops rewritten over flat array
  state (no objects, no dicts).  Plain Python here; this is the
  portable source of truth that the C backend mirrors.
* :mod:`.cext` — a tiny C mirror of the kernels built on demand with
  the host C compiler and loaded through :mod:`ctypes` (stdlib only).
  It also holds ``sweep_step``, which advances every configuration of
  the two-level carrier (:class:`~repro.engine.batched.BatchedStream`)
  over one chunk; its no-compiler fallback is that carrier's numpy
  path, not an interpreted kernel.

Backend selection, availability probing and fallback live in
:mod:`repro.engine.backend`; every backend is pinned bit-identical to
the stateful reference predictors by ``tests/test_engine_backend.py``
and ``tests/test_engine_batched.py``.
"""

from __future__ import annotations
