"""Saturating counters and counter tables.

The n-bit saturating up/down counter is the fundamental storage element
of every table-based predictor in this library (and in the paper's PAs
and GAs configurations, which use 2-bit counters throughout).  The
counter predicts taken when its value is in the upper half of its
range, increments on taken outcomes, decrements on not-taken outcomes,
and saturates at both ends.
"""

from __future__ import annotations

import numpy as np

from ..errors import PredictorError

__all__ = ["SaturatingCounter", "CounterTable", "WEAKLY_TAKEN", "WEAKLY_NOT_TAKEN"]

#: Canonical 2-bit counter states (values 0..3).
STRONGLY_NOT_TAKEN = 0
WEAKLY_NOT_TAKEN = 1
WEAKLY_TAKEN = 2
STRONGLY_TAKEN = 3


class SaturatingCounter:
    """A single n-bit saturating up/down counter.

    Parameters
    ----------
    bits:
        Counter width; the value range is ``[0, 2**bits - 1]``.
    value:
        Initial value.  Defaults to the weakly-taken midpoint
        ``2**(bits-1)``, the conventional reset state.
    """

    __slots__ = ("bits", "_max", "_value", "_initial")

    def __init__(self, bits: int = 2, value: int | None = None) -> None:
        if bits < 1:
            raise PredictorError(f"counter width must be >= 1, got {bits}")
        self.bits = bits
        self._max = (1 << bits) - 1
        if value is None:
            value = 1 << (bits - 1)
        if not 0 <= value <= self._max:
            raise PredictorError(f"counter value {value} out of range [0, {self._max}]")
        self._value = value
        self._initial = value

    @property
    def value(self) -> int:
        """Current counter value."""
        return self._value

    @property
    def taken(self) -> bool:
        """The direction this counter currently predicts."""
        return self._value >= (1 << (self.bits - 1))

    def update(self, taken: bool) -> None:
        """Saturating increment on taken, decrement on not-taken."""
        if taken:
            if self._value < self._max:
                self._value += 1
        elif self._value > 0:
            self._value -= 1

    def reset(self) -> None:
        """Restore the construction-time value."""
        self._value = self._initial

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SaturatingCounter(bits={self.bits}, value={self._value})"


class CounterTable:
    """A dense array of n-bit saturating counters (a pattern history table).

    Stored as a numpy ``uint8`` array so multi-hundred-kilobit tables
    (the paper's 2^17-counter PHT) stay cheap, with scalar access used
    by the reference engine and raw array access used by the array
    carriers.
    """

    __slots__ = ("entries", "bits", "_max", "_threshold", "_initial", "_values")

    def __init__(self, entries: int, *, bits: int = 2, initial: int | None = None) -> None:
        if entries < 1:
            raise PredictorError(f"table must have >= 1 entry, got {entries}")
        if entries & (entries - 1):
            raise PredictorError(f"table entries must be a power of two, got {entries}")
        if not 1 <= bits <= 8:
            raise PredictorError(f"counter width must be in [1, 8], got {bits}")
        self.entries = entries
        self.bits = bits
        self._max = (1 << bits) - 1
        self._threshold = 1 << (bits - 1)
        if initial is None:
            initial = self._threshold  # weakly taken
        if not 0 <= initial <= self._max:
            raise PredictorError(f"initial value {initial} out of range")
        self._initial = initial
        self._values = np.full(entries, initial, dtype=np.uint8)

    @property
    def index_bits(self) -> int:
        """Number of index bits (log2 of the entry count)."""
        return self.entries.bit_length() - 1

    @property
    def initial(self) -> int:
        """The reset value every counter starts from (used by the
        array carriers to replay cold-start evolution)."""
        return self._initial

    @property
    def values(self) -> np.ndarray:
        """The raw counter array (mutable; used by the array carriers)."""
        return self._values

    def predict(self, index: int) -> bool:
        """Direction predicted by the counter at ``index``."""
        return bool(self._values[index] >= self._threshold)

    def value(self, index: int) -> int:
        """Raw counter value at ``index``."""
        return int(self._values[index])

    def update(self, index: int, taken: bool) -> None:
        """Saturating update of the counter at ``index``."""
        v = self._values[index]
        if taken:
            if v < self._max:
                self._values[index] = v + 1
        elif v > 0:
            self._values[index] = v - 1

    def strength(self, index: int) -> int:
        """Distance of the counter from the decision threshold.

        Used by confidence estimators: saturated counters are "high
        confidence", counters at the threshold are guesses.
        """
        v = int(self._values[index])
        return v - self._threshold if v >= self._threshold else self._threshold - 1 - v

    def reset(self) -> None:
        """Refill every counter with the initial value."""
        self._values.fill(self._initial)

    def storage_bits(self) -> int:
        """Hardware cost: entries × counter width."""
        return self.entries * self.bits

    def __len__(self) -> int:
        return self.entries
