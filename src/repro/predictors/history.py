"""Branch history registers and branch history tables.

Two-level predictors keep first-level state in shift registers of
recent outcomes: a single **global** history register (GAs, gshare) or
a **branch history table** (BHT) of per-address registers (PAs).  Both
are modelled here.  A history value is an integer whose bit *i* (LSB =
most recent) records the outcome *i + 1* executions ago, matching the
indexing convention of the array carriers.
"""

from __future__ import annotations

import numpy as np

from ..errors import PredictorError

__all__ = ["HistoryRegister", "BranchHistoryTable"]


class HistoryRegister:
    """A k-bit shift register of branch outcomes.

    ``bits == 0`` is legal and denotes the degenerate "no history"
    register whose value is always 0 (used for the paper's history
    length 0 configurations).
    """

    __slots__ = ("bits", "_mask", "_value")

    def __init__(self, bits: int) -> None:
        if bits < 0:
            raise PredictorError(f"history length must be >= 0, got {bits}")
        self.bits = bits
        self._mask = (1 << bits) - 1
        self._value = 0

    @property
    def value(self) -> int:
        """Current history pattern (0 when ``bits == 0``)."""
        return self._value

    def push(self, taken: bool) -> None:
        """Shift in the newest outcome (LSB = most recent)."""
        if self.bits == 0:
            return
        self._value = ((self._value << 1) | (1 if taken else 0)) & self._mask

    def reset(self) -> None:
        """Clear to the all-not-taken pattern."""
        self._value = 0

    def storage_bits(self) -> int:
        """Hardware cost in bits."""
        return self.bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HistoryRegister(bits={self.bits}, value={self._value:#x})"


class BranchHistoryTable:
    """A table of per-address k-bit history registers (the PAs BHT).

    Entries are selected by the low ``log2(entries)`` bits of the branch
    PC; distinct branches that collide share (and corrupt) one another's
    history, exactly as in the hardware the paper models.
    """

    __slots__ = ("entries", "bits", "_mask", "_index_mask", "_values")

    def __init__(self, entries: int, bits: int) -> None:
        if entries < 1:
            raise PredictorError(f"BHT must have >= 1 entry, got {entries}")
        if entries & (entries - 1):
            raise PredictorError(f"BHT entries must be a power of two, got {entries}")
        if bits < 0:
            raise PredictorError(f"history length must be >= 0, got {bits}")
        self.entries = entries
        self.bits = bits
        self._mask = (1 << bits) - 1
        self._index_mask = entries - 1
        self._values = np.zeros(entries, dtype=np.uint32)

    @property
    def index_bits(self) -> int:
        """Number of PC bits used to select an entry."""
        return self.entries.bit_length() - 1

    def index_of(self, pc: int) -> int:
        """BHT slot used by ``pc``."""
        return pc & self._index_mask

    def value(self, pc: int) -> int:
        """History pattern currently associated with ``pc``'s slot."""
        return int(self._values[pc & self._index_mask])

    def push(self, pc: int, taken: bool) -> None:
        """Shift the newest outcome into ``pc``'s history slot."""
        if self.bits == 0:
            return
        i = pc & self._index_mask
        self._values[i] = ((int(self._values[i]) << 1) | (1 if taken else 0)) & self._mask

    def reset(self) -> None:
        """Clear every history register."""
        self._values.fill(0)

    def storage_bits(self) -> int:
        """Hardware cost: entries × history width."""
        return self.entries * self.bits
