"""Populations of synthetic branches and trace generation.

A :class:`BranchPopulation` is a set of static branches, each with an
outcome model and a relative dynamic weight.  Trace generation lays the
branches out on a repeating *schedule* (a shuffled cycle in which each
branch appears ``weight`` times), mimicking the loop-structured
interleaving of real programs: the global branch stream is periodic in
structure while each branch follows its own outcome process.  That
periodicity is what gives global-history predictors realistic
cross-branch correlation to exploit.

:func:`population_from_joint` builds a population whose
dynamic-weighted joint taken/transition distribution matches a target
11×11 matrix — the calibration mechanism that reproduces the paper's
Table 2 from published numbers rather than from unavailable SPEC95
binaries (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...classify.classes import NUM_CLASSES, class_bounds
from ...errors import ConfigurationError
from ...trace.stream import Trace, branch_id_dtype
from .models import BranchModel, MarkovModel, PatternModel, pattern_for_rates

__all__ = ["BranchSpec", "BranchPopulation", "population_from_joint"]


@dataclass(frozen=True, slots=True)
class BranchSpec:
    """One static branch in a population.

    A branch with ``follows`` set is a *correlated follower*: every one
    of its occurrences is scheduled immediately after an occurrence of
    the leader branch and copies the leader's outcome.  This is the
    cross-branch correlation (Evers et al.) that global-history
    predictors exploit and per-address predictors cannot; followers
    must have the same schedule weight as their leader.
    """

    pc: int
    model: BranchModel
    weight: int  # occurrences per schedule cycle
    hard: bool = False  # True for 5/5-cell branches (used for clustering)
    follows: int | None = None  # leader pc for correlated branches

    def __post_init__(self) -> None:
        if self.pc < 0:
            raise ConfigurationError("pc must be non-negative")
        if self.weight < 1:
            raise ConfigurationError("weight must be >= 1")
        if self.follows is not None and self.follows == self.pc:
            raise ConfigurationError("a branch cannot follow itself")


class BranchPopulation:
    """A set of branch specs plus the schedule that interleaves them.

    Parameters
    ----------
    specs:
        The static branches.
    seed:
        Seed for the schedule shuffle and all outcome models.
    hard_adjacency:
        Fraction of the hard (5/5) branches' schedule slots that are
        laid out contiguously.  Models programs (like the paper's
        ijpeg) whose hard branches occur back to back — the knob behind
        Figure 15's per-benchmark distance distributions.
    """

    def __init__(
        self,
        specs: list[BranchSpec],
        *,
        seed: int = 0,
        hard_adjacency: float = 0.0,
        name: str = "",
    ) -> None:
        if not specs:
            raise ConfigurationError("population needs at least one branch")
        if not 0.0 <= hard_adjacency <= 1.0:
            raise ConfigurationError("hard_adjacency must be in [0, 1]")
        pcs = [s.pc for s in specs]
        if len(set(pcs)) != len(pcs):
            raise ConfigurationError("branch pcs must be unique")
        self.specs = list(specs)
        self._index_of_pc = {s.pc: i for i, s in enumerate(self.specs)}
        self._validate_followers()
        self.seed = seed
        self.hard_adjacency = hard_adjacency
        self.name = name
        self._schedule = self._build_schedule()

    def _validate_followers(self) -> None:
        leaders_in_use: set[int] = set()
        for spec in self.specs:
            if spec.follows is None:
                continue
            leader_index = self._index_of_pc.get(spec.follows)
            if leader_index is None:
                raise ConfigurationError(
                    f"branch {spec.pc:#x} follows unknown pc {spec.follows:#x}"
                )
            leader = self.specs[leader_index]
            if leader.follows is not None:
                raise ConfigurationError("follower chains are not supported")
            if leader.pc in leaders_in_use:
                raise ConfigurationError(
                    f"leader {leader.pc:#x} already has a follower"
                )
            if leader.weight != spec.weight:
                raise ConfigurationError(
                    "follower weight must equal its leader's weight"
                )
            leaders_in_use.add(leader.pc)

    @property
    def num_static(self) -> int:
        """Number of static branches."""
        return len(self.specs)

    @property
    def cycle_length(self) -> int:
        """Dynamic branches per schedule cycle."""
        return len(self._schedule)

    def _build_schedule(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        follower_for = {
            self._index_of_pc[s.follows]: i
            for i, s in enumerate(self.specs)
            if s.follows is not None
        }

        # Schedule *units*: a lone branch occurrence, or an atomic
        # (leader, follower) pair so the follower always executes
        # immediately after its leader.
        soft_units: list[tuple[int, ...]] = []
        hard_units: list[tuple[int, ...]] = []
        for i, spec in enumerate(self.specs):
            if spec.follows is not None:
                continue  # emitted inside its leader's pair units
            follower = follower_for.get(i)
            unit = (i,) if follower is None else (i, follower)
            target = hard_units if spec.hard else soft_units
            target.extend([unit] * spec.weight)

        # Split hard units into a clustered portion (kept contiguous)
        # and a scattered portion mixed with everything else.
        rng.shuffle(hard_units)
        num_clustered = int(round(len(hard_units) * self.hard_adjacency))
        clustered = hard_units[:num_clustered]
        scattered = hard_units[num_clustered:] + soft_units
        rng.shuffle(scattered)

        if clustered:
            # Insert the cluster as a contiguous run at a random offset.
            offset = int(rng.integers(len(scattered) + 1))
            units = scattered[:offset] + clustered + scattered[offset:]
        else:
            units = scattered
        return np.asarray([i for unit in units for i in unit], dtype=np.int64)

    def generate(self, n: int, *, name: str | None = None) -> Trace:
        """A trace of ``n`` dynamic branches following the schedule."""
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        if n == 0:
            return Trace.empty(name=name or self.name)

        cycle = len(self._schedule)
        reps = n // cycle + 1
        slots = np.tile(self._schedule, reps)[:n]
        outcomes = np.zeros(n, dtype=np.uint8)

        root = np.random.default_rng(self.seed + 0x9E3779B9)
        counts = np.bincount(slots, minlength=len(self.specs))

        # The trace's branch dictionary comes from the slots: the PCs of
        # the specs scheduled at least once, sorted (equal PCs share one
        # id), numbered per spec and looked up per record.
        used = np.flatnonzero(counts)
        spec_pcs = np.asarray([s.pc for s in self.specs], dtype=np.int64)
        branches, used_ids = np.unique(spec_pcs[used], return_inverse=True)
        id_of_spec = np.zeros(len(self.specs), dtype=branch_id_dtype(len(branches)))
        id_of_spec[used] = used_ids

        # The trace repeats the schedule, so one stable sort of a single
        # cycle gives each branch's offsets in it; shifted into every
        # cycle, they are its positions in time order.
        order = np.argsort(self._schedule, kind="stable")
        per_cycle = np.bincount(self._schedule, minlength=len(self.specs))
        bounds = np.concatenate(([0], np.cumsum(per_cycle)))
        starts = np.arange(reps)[:, None] * cycle

        def positions(i: int) -> np.ndarray:
            return (starts + order[bounds[i] : bounds[i + 1]]).ravel()[: counts[i]]

        for i, spec in enumerate(self.specs):
            child = np.random.default_rng(root.integers(2**63))
            if counts[i] == 0 or spec.follows is not None:
                continue
            outcomes[positions(i)] = spec.model.generate(int(counts[i]), child)

        # Correlated followers copy the outcome of the occurrence right
        # before them — their leader, by schedule construction.
        for i, spec in enumerate(self.specs):
            if spec.follows is None or counts[i] == 0:
                continue
            at = positions(i)
            outcomes[at] = outcomes[at - 1]
        return Trace.from_dictionary(branches, id_of_spec[slots], outcomes, name=name or self.name)


def population_from_joint(
    joint_weights: np.ndarray,
    *,
    seed: int = 0,
    pc_base: int = 0x1000,
    branches_per_cell: int = 3,
    max_branches_per_cell: int = 12,
    structured_damping: float = 0.85,
    hard_adjacency: float = 0.0,
    correlated_fraction: float = 0.35,
    cycle_target: int = 4096,
    name: str = "",
) -> BranchPopulation:
    """Population whose joint class distribution matches ``joint_weights``.

    Parameters
    ----------
    joint_weights:
        (11, 11) nonnegative matrix — rows transition classes, columns
        taken classes (the paper's Table 2 layout).  Normalized
        internally.
    seed:
        Master seed for branch parameters, schedule, and outcomes.
    branches_per_cell, max_branches_per_cell:
        Static branches allocated per nonzero cell: heavier cells get
        more branches (up to the cap) so no single branch dominates.
    structured_damping:
        How strongly the "hardness" of a cell (distance of both rates
        from the 0/1 extremes) suppresses the deterministic-pattern
        component in favour of random Markov behaviour.  1.0 makes the
        central 5/5 cell purely random, 0.0 makes everything a
        learnable pattern.
    hard_adjacency:
        Passed through to :class:`BranchPopulation` (hard-branch
        clustering in the schedule).
    correlated_fraction:
        Probability that a (non-hard) cell branch becomes a correlated
        follower of another branch in the same cell — outcome copied
        from the leader, scheduled immediately after it.  This supplies
        the cross-branch correlation global-history predictors exploit
        in real programs; the hard 5/5 cell is never correlated.
    cycle_target:
        Approximate schedule cycle length; cell weights are quantized
        to integer slot counts against this resolution.
    """
    weights = np.asarray(joint_weights, dtype=np.float64)
    if weights.shape != (NUM_CLASSES, NUM_CLASSES):
        raise ConfigurationError(f"joint_weights must be 11x11, got {weights.shape}")
    if weights.min() < 0:
        raise ConfigurationError("joint_weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ConfigurationError("joint_weights must contain positive mass")
    weights = weights / total

    rng = np.random.default_rng(seed)
    specs: list[BranchSpec] = []
    next_pc = pc_base

    for x_cls in range(NUM_CLASSES):
        for t_cls in range(NUM_CLASSES):
            cell_weight = weights[x_cls, t_cls]
            if cell_weight <= 0:
                continue
            slots = max(1, int(round(cell_weight * cycle_target)))
            # Heavier cells get more static branches, but every branch
            # keeps at least ~6 slots per cycle so it executes often
            # enough for predictors to train out of cold start.
            num_branches = int(np.clip(
                round(branches_per_cell * (1 + 3 * cell_weight * NUM_CLASSES)),
                1,
                min(max_branches_per_cell, max(1, slots // 6)),
            ))
            per_branch = _split(slots, num_branches)
            hard = t_cls == 5 and x_cls == 5

            previous: BranchSpec | None = None
            for weight in per_branch:
                taken_rate, transition_rate = _jittered_rates(t_cls, x_cls, rng)
                model = _model_for(
                    taken_rate, transition_rate, rng, structured_damping
                )
                follows = None
                if (
                    not hard
                    and previous is not None
                    and previous.follows is None
                    and rng.random() < correlated_fraction
                ):
                    # Correlated pair: same weight as the leader so the
                    # schedule can emit them as an atomic unit.
                    follows = previous.pc
                    weight = previous.weight
                spec = BranchSpec(
                    pc=next_pc, model=model, weight=weight, hard=hard, follows=follows
                )
                specs.append(spec)
                # A follower cannot immediately lead another follower.
                previous = None if follows is not None else spec
                next_pc += 4
    return BranchPopulation(
        specs, seed=seed, hard_adjacency=hard_adjacency, name=name
    )


def _jittered_rates(t_cls: int, x_cls: int, rng: np.random.Generator) -> tuple[float, float]:
    """Random rates inside the cell's bands, respecting feasibility.

    The transition rate of a branch with taken rate p is bounded by
    2·min(p, 1−p) (every minority outcome contributes at most two
    direction changes).  Table 2's populated cells all admit feasible
    (p, x) pairs, but only in a corner of the cell for boundary cells
    like taken class 10 / transition class 1 — so the taken rate is
    nudged toward 0.5 within its band until the transition band is
    reachable, then the transition rate is drawn from the feasible part
    of its band.
    """
    t_lo, t_hi = class_bounds(t_cls)
    x_lo, x_hi = class_bounds(x_cls)
    margin_t = 0.2 * (t_hi - t_lo)
    taken = float(rng.uniform(t_lo + margin_t, t_hi - margin_t))

    # Ensure the *low edge* of the transition band is feasible for this
    # taken rate; otherwise pull the taken rate toward 0.5 just enough.
    if x_lo > 0:
        needed_minority = x_lo / 2 + 0.005
        if taken > 1 - needed_minority:
            taken = max(t_lo, min(1 - needed_minority, t_hi - 1e-6))
        elif taken < needed_minority:
            taken = min(t_hi - 1e-6, max(needed_minority, t_lo))

    feasible_max = 2 * min(taken, 1 - taken)
    hi = min(x_hi - 0.1 * (x_hi - x_lo), feasible_max)
    lo = min(x_lo + 0.1 * (x_hi - x_lo), hi)
    trans = float(rng.uniform(lo, hi)) if hi > lo else float(hi)
    trans = max(0.0, min(trans, 1.0))
    return taken, trans


def _model_for(
    taken_rate: float,
    transition_rate: float,
    rng: np.random.Generator,
    structured_damping: float,
) -> BranchModel:
    """Pattern (learnable) or Markov (random) model for the target rates."""
    if taken_rate < 0.02 and transition_rate < 0.02:
        return PatternModel([0])
    if taken_rate > 0.98 and transition_rate < 0.02:
        return PatternModel([1])

    hardness = (1 - abs(2 * taken_rate - 1)) * (1 - abs(2 * transition_rate - 1))
    structured_fraction = 1.0 - structured_damping * hardness
    if rng.random() < structured_fraction:
        period = int(rng.choice([20, 40, 60]))
        return pattern_for_rates(taken_rate, transition_rate, period=period)
    return MarkovModel.for_rates(taken_rate, transition_rate)


def _split(total: int, parts: int) -> list[int]:
    base = total // parts
    extra = total % parts
    return [base + (1 if i < extra else 0) for i in range(parts)]
