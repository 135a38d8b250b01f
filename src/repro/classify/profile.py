"""Profile-based branch classification.

The paper classifies branches from a profiling pass: run the program
once, measure every branch's taken and transition rate, and assign
classes.  :class:`ProfileTable` is that profile — per-PC rates, classes
and dynamic weights, built from a :class:`~repro.trace.stats.TraceStats`
in one vectorized pass — and is the input to every analysis module and
to the class-guided hybrid construction.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from ..trace.stats import TraceStats
from ..trace.stream import Trace
from .classes import NUM_CLASSES, JointClass, rate_classes

__all__ = ["BranchProfile", "ProfileTable"]


@dataclass(frozen=True, slots=True)
class BranchProfile:
    """Classification record for one static branch."""

    pc: int
    executions: int
    taken_rate: float
    transition_rate: float
    taken_class: int
    transition_class: int

    @property
    def joint(self) -> JointClass:
        """The branch's joint (taken, transition) class."""
        return JointClass(taken=self.taken_class, transition=self.transition_class)

    @property
    def is_hard(self) -> bool:
        """True for paper's 5/5 hard-to-predict branches."""
        return self.joint.is_hard


class ProfileTable(Mapping[int, BranchProfile]):
    """Per-PC taken/transition classification of a whole trace."""

    __slots__ = (
        "stats",
        "_pcs",
        "_executions",
        "_taken_rates",
        "_transition_rates",
        "_taken_classes",
        "_transition_classes",
        "_index",
        "name",
    )

    def __init__(self, stats: TraceStats) -> None:
        #: The raw per-PC counts this profile was classified from.  Kept
        #: so the profile can be serialized exactly (the experiment
        #: pipeline's artifact store round-trips the integer counts, not
        #: the derived float rates).
        self.stats = stats
        self._pcs = stats.pcs
        self._executions = stats.executions
        self._taken_rates = stats.taken_rates()
        self._transition_rates = stats.transition_rates()
        self._taken_classes = rate_classes(self._taken_rates)
        self._transition_classes = rate_classes(self._transition_rates)
        self._index = stats._index  # the same pcs, row for row
        self.name = stats.name

    @classmethod
    def from_trace(cls, trace: Trace) -> "ProfileTable":
        """Profile and classify a trace in one step."""
        return cls(TraceStats.from_trace(trace))

    @classmethod
    def from_chunks(cls, chunks, *, name: str | None = None) -> "ProfileTable":
        """Profile and classify a chunk iterator with O(chunk) memory.

        Bit-identical to :meth:`from_trace` over the concatenated
        chunks (see :meth:`repro.trace.stats.TraceStats.from_chunks`).
        """
        return cls(TraceStats.from_chunks(chunks, name=name))

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, pc: int) -> BranchProfile:
        i = self._index[pc]
        return BranchProfile(
            pc=int(self._pcs[i]),
            executions=int(self._executions[i]),
            taken_rate=float(self._taken_rates[i]),
            transition_rate=float(self._transition_rates[i]),
            taken_class=int(self._taken_classes[i]),
            transition_class=int(self._transition_classes[i]),
        )

    def __iter__(self) -> Iterator[int]:
        return (int(pc) for pc in self._pcs)

    def __len__(self) -> int:
        return len(self._pcs)

    # -- column access ---------------------------------------------------

    @property
    def pcs(self) -> np.ndarray:
        """Sorted distinct branch PCs."""
        return self._pcs

    @property
    def executions(self) -> np.ndarray:
        """Executions per PC."""
        return self._executions

    @property
    def taken_classes(self) -> np.ndarray:
        """Taken-rate class per PC."""
        return self._taken_classes

    @property
    def transition_classes(self) -> np.ndarray:
        """Transition-rate class per PC."""
        return self._transition_classes

    @property
    def total_dynamic(self) -> int:
        """Total dynamic executions profiled."""
        return int(self._executions.sum())

    # -- class queries ------------------------------------------------------

    def pcs_in_taken_class(self, cls: int) -> np.ndarray:
        """PCs whose taken-rate class is ``cls``."""
        return self._pcs[self._taken_classes == cls]

    def pcs_in_transition_class(self, cls: int) -> np.ndarray:
        """PCs whose transition-rate class is ``cls``."""
        return self._pcs[self._transition_classes == cls]

    def pcs_in_joint_class(self, taken_cls: int, transition_cls: int) -> np.ndarray:
        """PCs in a joint (taken, transition) class cell."""
        mask = (self._taken_classes == taken_cls) & (
            self._transition_classes == transition_cls
        )
        return self._pcs[mask]

    def hard_pcs(self) -> np.ndarray:
        """PCs in the 5/5 hard-to-predict class."""
        return self.pcs_in_joint_class(5, 5)

    # -- dynamic-weighted distributions --------------------------------------

    def taken_class_distribution(self) -> np.ndarray:
        """Fraction of *dynamic* branches per taken class (sums to 1)."""
        return self._distribution(self._taken_classes)

    def transition_class_distribution(self) -> np.ndarray:
        """Fraction of dynamic branches per transition class (sums to 1)."""
        return self._distribution(self._transition_classes)

    def joint_distribution(self) -> np.ndarray:
        """(11, 11) matrix: dynamic fraction per (transition, taken) cell.

        Rows are transition classes, columns taken classes — the layout
        of the paper's Table 2.
        """
        matrix = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.float64)
        total = self.total_dynamic
        if total == 0:
            return matrix
        np.add.at(
            matrix,
            (self._transition_classes, self._taken_classes),
            self._executions / total,
        )
        return matrix

    def _distribution(self, classes: np.ndarray) -> np.ndarray:
        total = self.total_dynamic
        if total == 0:
            return np.zeros(NUM_CLASSES, dtype=np.float64)
        return np.bincount(
            classes, weights=self._executions, minlength=NUM_CLASSES
        ) / total
