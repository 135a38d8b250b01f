"""The Agree predictor (Sprangle et al., ISCA 1997).

Instead of storing branch *directions*, the PHT stores whether the
branch will **agree** with a per-branch biasing bit.  Two branches that
alias to the same PHT entry but both usually agree with their own
biases now reinforce each other (constructive aliasing) instead of
fighting — a simple form of bias classification, as the paper's
related-work section notes.

The biasing bit is set the first time a branch is seen (its first
outcome), matching the practical variant of the original proposal.
"""

from __future__ import annotations

import numpy as np

from ..errors import PredictorError
from .base import BranchPredictor
from .counter import CounterTable
from .history import HistoryRegister

__all__ = ["AgreePredictor"]


class AgreePredictor(BranchPredictor):
    """Global-history agree predictor with first-time biasing bits.

    Parameters
    ----------
    history_bits:
        Global history length used in the gshare-style PHT index.
    pht_index_bits:
        log2 of the PHT entry count.
    bias_entries:
        Entries in the PC-indexed biasing-bit table.
    """

    def __init__(
        self,
        history_bits: int = 12,
        *,
        pht_index_bits: int = 12,
        bias_entries: int = 1 << 14,
    ) -> None:
        if bias_entries < 1 or bias_entries & (bias_entries - 1):
            raise PredictorError("bias_entries must be a positive power of two")
        self.history = HistoryRegister(history_bits)
        self.pht = CounterTable(1 << pht_index_bits, bits=2, initial=3)
        self._pht_mask = (1 << pht_index_bits) - 1
        self._bias_mask = bias_entries - 1
        self._bias = np.zeros(bias_entries, dtype=np.uint8)
        self._bias_set = np.zeros(bias_entries, dtype=bool)
        self.name = f"agree-h{history_bits}"

    @property
    def bias_entries(self) -> int:
        """Entries in the biasing-bit table (read by the agree carrier)."""
        return len(self._bias)

    def _index(self, pc: int) -> int:
        return (self.history.value ^ pc) & self._pht_mask

    def _bias_for(self, pc: int) -> bool:
        slot = pc & self._bias_mask
        if self._bias_set[slot]:
            return bool(self._bias[slot])
        return True  # unbiased branches default to taken

    def predict(self, pc: int) -> bool:
        agree = self.pht.predict(self._index(pc))
        bias = self._bias_for(pc)
        return bias if agree else not bias

    def update(self, pc: int, taken: bool) -> None:
        slot = pc & self._bias_mask
        if not self._bias_set[slot]:
            # First encounter: latch the outcome as the biasing bit.
            self._bias[slot] = 1 if taken else 0
            self._bias_set[slot] = True
        bias = bool(self._bias[slot])
        self.pht.update(self._index(pc), bool(taken) == bias)
        self.history.push(taken)

    def reset(self) -> None:
        self.pht.reset()
        self.history.reset()
        self._bias.fill(0)
        self._bias_set.fill(False)

    def storage_bits(self) -> int:
        # biasing bit + "set" valid bit per entry
        return self.pht.storage_bits() + self.history.storage_bits() + 2 * len(self._bias)
