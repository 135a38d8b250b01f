"""DAG planning: expand experiment ids into a deduped, scheduled graph.

The :class:`Planner` knows the *universe* of artifacts a configuration
can produce — the suite traces, one profile and one sweep part per
trace, the merged profile, the aggregated sweep, the
misclassification report, and one render node per registered
experiment — and wires render nodes to exactly the artifacts their
runners declared via ``@artifact_inputs``.

Planning a set of targets trims the universe to the targets' ancestor
closure.  Because nodes are keyed (not duplicated per consumer), the
expensive shared artifacts appear **once** no matter how many
experiments consume them: fig5–fig12, table2, fig13, fig14 and the
§4.2 report all hang off the same ``sweep`` node, which ``repro plan
all`` makes explicit instead of leaving implicit in lazy-property
sharing.

The planner never generates trace data — trace artifact keys come from
the suite spec's member labels
(:meth:`repro.workload_spec.SuiteSpec.labels`) — so ``repro plan`` is
instant even for configurations whose artifacts would take minutes to
compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import PipelineError
from .artifacts import (
    ArtifactNode,
    MergedProfileNode,
    MisclassificationNode,
    PipelineConfig,
    ProfileNode,
    RenderNode,
    StreamedProfileNode,
    StreamedTraceSweepNode,
    SweepNode,
    TraceSweepNode,
    WorkloadNode,
    node_digest,
)
from .runreport import RunReport
from .store import ArtifactStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.base import Experiment
    from ..workload_spec import WorkloadSpec

__all__ = ["PlannedNode", "Plan", "Planner"]


@dataclass(frozen=True)
class PlannedNode:
    """One scheduled DAG node: the node plus its address and cache state.

    ``prior_status`` carries what a previous run's
    :class:`~repro.pipeline.runreport.RunReport` recorded for this node
    *at the same content address* (``None`` when not resuming, or when
    the address changed — a stale record is never trusted).
    """

    node: ArtifactNode
    digest: str
    cached: bool
    consumers: tuple[str, ...]
    prior_status: str | None = None

    @property
    def key(self) -> str:
        return self.node.key


@dataclass(frozen=True)
class Plan:
    """A topologically ordered, deduplicated artifact schedule.

    ``nodes`` maps key -> :class:`PlannedNode` in execution order
    (every node appears after all of its dependencies); ``targets``
    are the keys the caller asked for.
    """

    config: PipelineConfig
    nodes: dict[str, PlannedNode]
    targets: tuple[str, ...]

    @property
    def num_cached(self) -> int:
        return sum(1 for planned in self.nodes.values() if planned.cached)

    @property
    def num_to_run(self) -> int:
        return len(self.nodes) - self.num_cached

    def digest_of(self, key: str) -> str:
        return self.nodes[key].digest

    @property
    def num_from_prior(self) -> int:
        """Cached nodes a prior (resumed) run already completed."""
        return sum(
            1
            for planned in self.nodes.values()
            if planned.cached and planned.prior_status in ("computed", "cached")
        )

    def describe(self) -> str:
        """Human-readable schedule (``repro plan``): one line per node,
        dependency order, with content address, cache state (plus what a
        resumed run's prior report recorded) and how many downstream
        nodes share the artifact."""
        header = (
            f"plan: {len(self.targets)} target(s) -> {len(self.nodes)} node(s), "
            f"{self.num_cached} cached, {self.num_to_run} to run"
        )
        if self.num_from_prior:
            header += f" ({self.num_from_prior} completed by prior run)"
        lines = [header]
        for planned in self.nodes.values():
            state = "cached" if planned.cached else "run"
            if planned.prior_status is not None:
                state += f", prior: {planned.prior_status}"
            shared = ""
            if len(planned.consumers) > 1:
                shared = f"  shared by {len(planned.consumers)} consumers"
            lines.append(
                f"  {planned.node.key:28s} {planned.node.kind:18s} "
                f"{planned.digest[:12]}  [{state}]{shared}"
            )
        return "\n".join(lines)


class Planner:
    """Expands experiment ids / artifact keys into executable plans.

    One planner plans many times (``repro run all`` plans once per
    experiment), so its plans share one universe and the content
    address of every node that is not a render, rebuilt only when the
    suite's content key, its set of streamed members or the experiment
    registry changes.  The content key covers the bytes of trace-file
    members, so rewriting an unpinned file re-keys the next plan.  A
    render's address fingerprints its runner's code and the constants
    it reads, which can change within a process, so render addresses
    are computed on every plan, and so is every node's cache state
    (``store.has``).  :meth:`universe` builds afresh and needs no
    content key, so a one-off caller (the service validating a
    request) pays for neither.
    """

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        # (inputs, universe, non-render addresses computed so far): one
        # tuple, so a reader never pairs one build's universe with
        # another's addresses.
        self._built: tuple | None = None

    # -- the universe ---------------------------------------------------

    def trace_names(self) -> list[str]:
        """Suite trace labels for this configuration (no generation)."""
        assert self.config.suite is not None
        return self.config.suite.labels()

    def universe(self) -> dict[str, ArtifactNode]:
        """Every artifact node this configuration can produce, keyed and
        in dependency (topological) order."""
        return self._build_universe(*self._sources())

    def _sources(
        self,
    ) -> tuple[tuple[WorkloadSpec, ...], tuple[tuple[str, Experiment], ...]]:
        """What the universe is built from besides the config: the
        streamed suite members and the registered experiments."""
        from ..experiments.registry import EXPERIMENTS  # lazy: avoid cycle

        assert self.config.suite is not None
        members = self.config.suite.members
        streamed = tuple(member for member in members if member.streams())
        return streamed, tuple(EXPERIMENTS.items())

    def _current(self) -> tuple[dict[str, ArtifactNode], dict[str, str]]:
        """The universe and the known non-render addresses, rebuilt when
        what they were built from changed."""
        assert self.config.suite is not None
        sources = self._sources()
        inputs = (self.config, self.config.suite.content_key(), sources)
        built = self._built
        if built is None or built[0] != inputs:
            built = self._built = (inputs, self._build_universe(*sources), {})
        return built[1], built[2]

    def _build_universe(
        self,
        streamed_members: tuple[WorkloadSpec, ...],
        experiments: tuple[tuple[str, Experiment], ...],
    ) -> dict[str, ArtifactNode]:
        names = self.trace_names()
        # Out-of-core members (large binary trace files) get per-trace
        # nodes that stream straight from their file: no dependency on
        # the materialized suite-traces artifact, nothing shipped to
        # worker processes.  Suite-*level* artifacts (the merged
        # profile, experiments that consume raw traces) still
        # materialize everything — see docs/TRACES.md, "Limits".
        streamed = {member.label: member for member in streamed_members}
        nodes: dict[str, ArtifactNode] = {}

        def add(node: ArtifactNode) -> None:
            nodes[node.key] = node

        add(WorkloadNode(key="traces"))
        for name in names:
            if name in streamed:
                add(
                    StreamedProfileNode(
                        key=f"profile:{name}", trace_name=name, member=streamed[name]
                    )
                )
            else:
                add(ProfileNode(key=f"profile:{name}", deps=("traces",), trace_name=name))
        add(MergedProfileNode(key="profile:suite", deps=("traces",)))
        sweep_parts = tuple(f"sweep:{name}" for name in names)
        for name in names:
            if name in streamed:
                add(
                    StreamedTraceSweepNode(
                        key=f"sweep:{name}", trace_name=name, member=streamed[name]
                    )
                )
            else:
                add(
                    TraceSweepNode(
                        key=f"sweep:{name}", deps=("traces",), trace_name=name
                    )
                )
        add(SweepNode(key="sweep", deps=sweep_parts))
        add(MisclassificationNode(key="misclassification", deps=("sweep",)))
        for experiment_id, experiment in experiments:
            add(
                RenderNode(
                    key=f"render:{experiment_id}",
                    deps=self._render_deps(experiment.requires, names),
                    experiment_id=experiment_id,
                )
            )
        return nodes

    def _render_deps(
        self, requires: tuple[str, ...], names: list[str]
    ) -> tuple[str, ...]:
        deps: list[str] = []
        for role in requires:
            if role == "traces":
                deps.append("traces")
            elif role == "profiles":
                deps.extend(f"profile:{name}" for name in names)
            elif role == "merged_profile":
                deps.append("profile:suite")
            elif role == "sweep":
                deps.append("sweep")
            elif role == "misclassification":
                deps.append("misclassification")
            else:
                raise PipelineError(
                    f"unknown artifact requirement {role!r} "
                    "(expected traces/profiles/merged_profile/sweep/misclassification)"
                )
        return tuple(dict.fromkeys(deps))

    # -- planning -------------------------------------------------------

    def plan(
        self,
        targets: list[str],
        store: ArtifactStore | None = None,
        prior: "RunReport | None" = None,
    ) -> Plan:
        """Schedule the ancestor closure of ``targets``.

        Content addresses are assigned bottom-up; a node is marked
        ``cached`` when the store already holds its address.  With
        ``prior`` (a resumed run's
        :class:`~repro.pipeline.runreport.RunReport`), nodes carry the
        prior run's recorded status when their address is unchanged —
        resume is pure bookkeeping on top of content addressing: what
        the store holds is reused, what it lacks is recomputed, and the
        report says which is which.
        """
        universe, known = self._current()
        for key in targets:
            if key not in universe:
                raise PipelineError(
                    f"unknown artifact {key!r}; known: "
                    f"{', '.join(sorted(universe))}"
                )

        # Ancestor closure over the (acyclic by construction) universe.
        needed: set[str] = set()
        stack = list(targets)
        while stack:
            key = stack.pop()
            if key in needed:
                continue
            needed.add(key)
            stack.extend(universe[key].deps)

        digests: dict[str, str] = {}
        consumers: dict[str, list[str]] = {key: [] for key in needed}
        planned: dict[str, PlannedNode] = {}
        # Universe insertion order is already topological.
        ordered = [key for key in universe if key in needed]
        for key in ordered:
            node = universe[key]
            digest = known.get(key)
            if digest is None:
                digest = node_digest(
                    node, self.config, [digests[dep] for dep in node.deps]
                )
                if not isinstance(node, RenderNode):
                    known[key] = digest
            digests[key] = digest
            for dep in node.deps:
                consumers[dep].append(key)
        for key in ordered:
            node = universe[key]
            prior_record = prior.record(key, digests[key]) if prior is not None else None
            planned[key] = PlannedNode(
                node=node,
                digest=digests[key],
                cached=store.has(digests[key]) if store is not None else False,
                consumers=tuple(consumers[key]),
                prior_status=prior_record.status if prior_record is not None else None,
            )
        return Plan(config=self.config, nodes=planned, targets=tuple(targets))

    def plan_experiments(
        self,
        experiment_ids: list[str],
        store: ArtifactStore | None = None,
        prior: "RunReport | None" = None,
    ) -> Plan:
        """Plan the render artifacts of the given experiments."""
        return self.plan(
            [f"render:{experiment_id}" for experiment_id in experiment_ids],
            store,
            prior=prior,
        )

    def live_digests(self, store: ArtifactStore | None = None) -> set[str]:
        """Every content address the full current-config DAG can reach
        (the ``repro artifacts gc`` keep-set)."""
        plan = self.plan(list(self.universe()), store)
        return {planned.digest for planned in plan.nodes.values()}
