"""Two-level adaptive branch predictors (Yeh & Patt).

A two-level predictor keeps (level 1) branch history — either one
global shift register or a table of per-address registers — and (level
2) a pattern history table (PHT) of saturating counters indexed by a
combination of the history pattern and branch-address bits.

:class:`TwoLevelPredictor` is the generic machine; the factory
functions below instantiate the named family members:

* :func:`make_gas` / :func:`make_pas` — the paper's GAs and PAs
  configurations (history concatenated with PC bits; see
  :mod:`repro.predictors.paper_configs` for the budgeted versions),
* :func:`make_gshare` — McFarling's XOR-indexed global scheme,
* :func:`make_gselect` — concatenation-indexed global scheme,
* :func:`make_pshare` — XOR-indexed per-address scheme.
"""

from __future__ import annotations

from ..errors import PredictorError
from ..spec import MAX_HISTORY_BITS
from .base import BranchPredictor
from .counter import CounterTable
from .history import BranchHistoryTable, HistoryRegister

__all__ = [
    "TwoLevelPredictor",
    "make_gas",
    "make_pas",
    "make_gshare",
    "make_gselect",
    "make_pshare",
]

_INDEX_SCHEMES = ("concat", "xor")
_HISTORY_KINDS = ("global", "per-address")


class TwoLevelPredictor(BranchPredictor):
    """Generic two-level adaptive predictor.

    Parameters
    ----------
    history_kind:
        ``"global"`` for one shared history register, ``"per-address"``
        for a BHT of per-branch registers.
    history_bits:
        History length *k* (0 is legal and reduces the predictor to a
        PC-indexed counter table).
    pht_index_bits:
        log2 of the PHT entry count.
    index_scheme:
        ``"concat"`` places the k history bits in the top of the index
        and fills the remaining ``pht_index_bits - k`` low bits with PC
        bits (the paper's GAs/PAs indexing).  ``"xor"`` XORs the history
        with PC bits (gshare/pshare).
    bht_entries:
        Entries in the per-address BHT (required when
        ``history_kind == "per-address"`` and ``history_bits > 0``).
    counter_bits:
        Width of the PHT saturating counters (2 in the paper).
    """

    def __init__(
        self,
        *,
        history_kind: str,
        history_bits: int,
        pht_index_bits: int,
        index_scheme: str = "concat",
        bht_entries: int | None = None,
        counter_bits: int = 2,
        name: str | None = None,
    ) -> None:
        if history_kind not in _HISTORY_KINDS:
            raise PredictorError(f"history_kind must be one of {_HISTORY_KINDS}")
        if index_scheme not in _INDEX_SCHEMES:
            raise PredictorError(f"index_scheme must be one of {_INDEX_SCHEMES}")
        if not 0 <= history_bits <= MAX_HISTORY_BITS:
            raise PredictorError(
                f"history_bits must be in [0, {MAX_HISTORY_BITS}], got {history_bits}"
            )
        if pht_index_bits < 1:
            raise PredictorError("pht_index_bits must be >= 1")
        if index_scheme == "concat" and history_bits > pht_index_bits:
            raise PredictorError(
                f"concat indexing needs history_bits ({history_bits}) <= "
                f"pht_index_bits ({pht_index_bits})"
            )

        self.history_kind = history_kind
        self.history_bits = history_bits
        self.pht_index_bits = pht_index_bits
        self.index_scheme = index_scheme
        self.pht = CounterTable(1 << pht_index_bits, bits=counter_bits)

        self._global_history: HistoryRegister | None = None
        self._bht: BranchHistoryTable | None = None
        if history_bits > 0:
            if history_kind == "global":
                self._global_history = HistoryRegister(history_bits)
            else:
                if bht_entries is None:
                    raise PredictorError("per-address predictors need bht_entries")
                self._bht = BranchHistoryTable(bht_entries, history_bits)

        self._pht_mask = (1 << pht_index_bits) - 1
        self._pc_fill_bits = pht_index_bits - history_bits  # concat only
        if name is None:
            kind = "GAs" if history_kind == "global" else "PAs"
            name = f"{kind}-h{history_bits}-{index_scheme}"
        self.name = name

    # -- index arithmetic ---------------------------------------------------

    def _history_for(self, pc: int) -> int:
        if self.history_bits == 0:
            return 0
        if self._global_history is not None:
            return self._global_history.value
        assert self._bht is not None
        return self._bht.value(pc)

    def pht_index(self, pc: int) -> int:
        """The PHT index this predictor uses for ``pc`` right now."""
        history = self._history_for(pc)
        if self.index_scheme == "concat":
            fill_mask = (1 << self._pc_fill_bits) - 1
            return ((history << self._pc_fill_bits) | (pc & fill_mask)) & self._pht_mask
        return (history ^ pc) & self._pht_mask

    # -- predictor protocol ------------------------------------------------

    def predict(self, pc: int) -> bool:
        return self.pht.predict(self.pht_index(pc))

    def update(self, pc: int, taken: bool) -> None:
        index = self.pht_index(pc)
        self.pht.update(index, taken)
        if self._global_history is not None:
            self._global_history.push(taken)
        elif self._bht is not None:
            self._bht.push(pc, taken)

    def reset(self) -> None:
        self.pht.reset()
        if self._global_history is not None:
            self._global_history.reset()
        if self._bht is not None:
            self._bht.reset()

    def storage_bits(self) -> int:
        bits = self.pht.storage_bits()
        if self._global_history is not None:
            bits += self._global_history.storage_bits()
        if self._bht is not None:
            bits += self._bht.storage_bits()
        return bits

    # -- introspection --------------------------------------------------------

    @property
    def bht(self) -> BranchHistoryTable | None:
        """The per-address history table, if this is a PAs-style predictor."""
        return self._bht

    @property
    def global_history(self) -> HistoryRegister | None:
        """The global history register, if this is a GAs-style predictor."""
        return self._global_history


# The named family members are defined declaratively on
# repro.spec.TwoLevelSpec (the single place that knows each member's
# geometry and defaults); these factories build the stateful predictor
# from those specs.


def make_gas(
    history_bits: int, *, pht_index_bits: int = 17, counter_bits: int = 2
) -> TwoLevelPredictor:
    """Global-history predictor with concatenated PC fill bits (paper's GAs)."""
    from ..spec import TwoLevelSpec

    return TwoLevelSpec.gas(
        history_bits, pht_index_bits=pht_index_bits, counter_bits=counter_bits
    ).build()


def make_pas(
    history_bits: int,
    *,
    pht_index_bits: int = 16,
    bht_entries: int = 1 << 13,
    counter_bits: int = 2,
) -> TwoLevelPredictor:
    """Per-address-history predictor with concatenated PC fill bits (paper's PAs)."""
    from ..spec import TwoLevelSpec

    return TwoLevelSpec.pas(
        history_bits,
        pht_index_bits=pht_index_bits,
        bht_entries=bht_entries,
        counter_bits=counter_bits,
    ).build()


def make_gshare(
    history_bits: int, *, pht_index_bits: int | None = None, counter_bits: int = 2
) -> TwoLevelPredictor:
    """McFarling's gshare: global history XORed with the branch address."""
    from ..spec import TwoLevelSpec

    return TwoLevelSpec.gshare(
        history_bits, pht_index_bits=pht_index_bits, counter_bits=counter_bits
    ).build()


def make_gselect(
    history_bits: int, *, pht_index_bits: int, counter_bits: int = 2
) -> TwoLevelPredictor:
    """gselect: global history concatenated with branch address bits."""
    from ..spec import TwoLevelSpec

    return TwoLevelSpec.gselect(
        history_bits, pht_index_bits=pht_index_bits, counter_bits=counter_bits
    ).build()


def make_pshare(
    history_bits: int,
    *,
    pht_index_bits: int | None = None,
    bht_entries: int = 1 << 13,
    counter_bits: int = 2,
) -> TwoLevelPredictor:
    """pshare: per-address history XORed with the branch address."""
    from ..spec import TwoLevelSpec

    return TwoLevelSpec.pshare(
        history_bits,
        pht_index_bits=pht_index_bits,
        bht_entries=bht_entries,
        counter_bits=counter_bits,
    ).build()
