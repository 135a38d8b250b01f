"""Compiled kernels: per-record loops and the two-level sweep.

Four predictor families (YAGS, bi-mode, filter, DHLF) carry state —
tagged caches, selectively-trained banks, run counters, a fitted
history length — that does not reduce to the segmented-scan algebra
the array carriers are built on, so they stream through a per-record
loop.  :mod:`.cext` removes the *Python* from that loop without
changing a single emitted bit: a tiny C transliteration of each
family's predictor over flat array state, built on demand with the
host C compiler and loaded through :mod:`ctypes` (stdlib only).  It
also holds ``sweep_step``, which advances every configuration of the
two-level carrier (:class:`~repro.engine.batched.BatchedStream`) over
one chunk.

Without a compiler nothing here runs: the per-record families step
the stateful predictors themselves, and the two-level carrier runs
its numpy scans.  Backend selection, availability probing and
fallback live in :mod:`repro.engine.backend`; every backend is pinned
bit-identical to the stateful reference predictors by
``tests/test_engine_backend.py`` and ``tests/test_engine_batched.py``.
"""

from __future__ import annotations
