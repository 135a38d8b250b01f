"""repro — reproduction of "Branch Transition Rate: A New Metric for
Improved Branch Classification Analysis" (Haungs, Sallee & Farrens,
HPCA 2000).

The package layers, bottom to top:

* :mod:`repro.trace` — branch outcome streams, serialization, per-branch
  statistics (taken and transition counts).
* :mod:`repro.isa` / :mod:`repro.vm` — a small register VM whose
  programs emit authentic branch traces (the SimpleScalar stand-in).
* :mod:`repro.workloads` — SPECint95-calibrated synthetic populations
  and VM workload programs.
* :mod:`repro.predictors` — the paper's budgeted PAs/GAs plus the
  surveyed predictor families and the §5.4 class-guided hybrid.
* :mod:`repro.spec` — declarative, serializable predictor
  specifications (one spec class per family).
* :mod:`repro.workload_spec` — declarative, serializable workload
  specifications: every trace source (synthetic benchmarks, VM
  kernels, trace files, composers, suites) as a frozen, addressable
  spec (see ``docs/WORKLOADS.md``).
* :mod:`repro.engine` — the reference oracle and one chunked carrier
  per predictor family.
* :mod:`repro.session` — the planning/batching front door for many
  simulation jobs at once (see ``docs/API.md``).
* :mod:`repro.classify` — the 11-band taken/transition classification.
* :mod:`repro.analysis` — history sweeps, misclassification accounting,
  distance distributions, confidence, predication/dual-path advisors.
* :mod:`repro.pipeline` — the declarative experiment pipeline: typed
  artifact DAG, content-addressed store, planner, parallel executor.
* :mod:`repro.experiments` — one runner per paper table/figure.
* :mod:`repro.report` — plain-text tables, colormaps, line plots.

Quickstart::

    from repro import Trace, ProfileTable, paper_pas, simulate

    trace = Trace.from_pairs([(0x40, 1), (0x40, 0), (0x40, 1)])
    profile = ProfileTable.from_trace(trace)
    result = simulate(paper_pas(8), trace)
    print(profile[0x40].transition_rate, result.miss_rate)
"""

from .errors import (
    AssemblyError,
    ClassificationError,
    ConfigurationError,
    ExperimentError,
    PredictorError,
    ReproError,
    TraceError,
    TraceFormatError,
    VMError,
)
from .trace import (
    BranchRecord,
    BranchStats,
    Trace,
    TraceBuilder,
    TraceStats,
    load_trace,
    merge_suite,
    save_trace,
    taken_rate,
    transition_rate,
)
from .classify import (
    NUM_CLASSES,
    BranchProfile,
    DynamicClassifier,
    JointClass,
    ProfileTable,
    class_bounds,
    class_label,
    joint_class,
    rate_class,
)
from .predictors import (
    AgreePredictor,
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BiModePredictor,
    BimodalPredictor,
    BranchPredictor,
    ClassRoutedHybrid,
    FilterPredictor,
    LastOutcomePredictor,
    OraclePredictor,
    ProfileStaticPredictor,
    TournamentPredictor,
    TwoLevelPredictor,
    YagsPredictor,
    make_gas,
    make_gselect,
    make_gshare,
    make_pas,
    make_pshare,
    paper_gas,
    paper_pas,
    paper_predictor,
)
from .predictors.paper_configs import paper_gas_spec, paper_pas_spec, paper_spec
from .spec import (
    AgreeSpec,
    BiModeSpec,
    BimodalSpec,
    DhlfSpec,
    FilterSpec,
    HybridSpec,
    LastOutcomeSpec,
    PredictorSpec,
    ProfileStaticSpec,
    StaticSpec,
    TournamentSpec,
    TwoLevelSpec,
    YagsSpec,
    build_predictor,
    spec_from_dict,
    spec_from_json,
    spec_kinds,
)
from .workload_spec import (
    ConcatSpec,
    GenKernelSpec,
    KernelSpec,
    PerfLbrSpec,
    PopulationBranch,
    PopulationSpec,
    Spec95InputSpec,
    SuiteSpec,
    TraceFileSpec,
    WorkloadSpec,
    adversarial_suite,
    kernel_suite,
    load_suite,
    named_suite,
    spec95_suite,
    workload_spec_from_dict,
    workload_spec_from_json,
    workload_spec_kinds,
)
from .session import Session, SessionPlan, SessionResults, SimulationJob
from .engine import (
    SimulationResult,
    simulate,
    simulate_batched,
    simulate_reference,
)
from .analysis import (
    SweepConfig,
    SweepResult,
    design_hybrid,
    evaluate_confidence,
    hard_branch_distances,
    misclassification_report,
    run_sweep,
)
from .pipeline import (
    ArtifactStore,
    ExecutionReport,
    Pipeline,
    PipelineConfig,
    Plan,
    Planner,
)
from .experiments import ExperimentContext, run_experiment

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "TraceError",
    "TraceFormatError",
    "AssemblyError",
    "VMError",
    "PredictorError",
    "ConfigurationError",
    "ClassificationError",
    "ExperimentError",
    # trace
    "BranchRecord",
    "Trace",
    "TraceBuilder",
    "BranchStats",
    "TraceStats",
    "taken_rate",
    "transition_rate",
    "save_trace",
    "load_trace",
    "merge_suite",
    # classify
    "NUM_CLASSES",
    "rate_class",
    "class_bounds",
    "class_label",
    "JointClass",
    "joint_class",
    "BranchProfile",
    "ProfileTable",
    "DynamicClassifier",
    # predictors
    "BranchPredictor",
    "AlwaysTakenPredictor",
    "AlwaysNotTakenPredictor",
    "ProfileStaticPredictor",
    "OraclePredictor",
    "LastOutcomePredictor",
    "BimodalPredictor",
    "TwoLevelPredictor",
    "make_gas",
    "make_pas",
    "make_gshare",
    "make_gselect",
    "make_pshare",
    "paper_gas",
    "paper_pas",
    "paper_predictor",
    "AgreePredictor",
    "BiModePredictor",
    "YagsPredictor",
    "FilterPredictor",
    "TournamentPredictor",
    "ClassRoutedHybrid",
    # specs
    "PredictorSpec",
    "StaticSpec",
    "ProfileStaticSpec",
    "LastOutcomeSpec",
    "BimodalSpec",
    "TwoLevelSpec",
    "AgreeSpec",
    "TournamentSpec",
    "HybridSpec",
    "YagsSpec",
    "BiModeSpec",
    "FilterSpec",
    "DhlfSpec",
    "spec_kinds",
    "spec_from_dict",
    "spec_from_json",
    "build_predictor",
    "paper_gas_spec",
    "paper_pas_spec",
    "paper_spec",
    # workload specs (the trace-source counterpart of predictor specs;
    # the workload FilterSpec stays module-qualified to avoid clashing
    # with the predictor FilterSpec above)
    "WorkloadSpec",
    "Spec95InputSpec",
    "PopulationSpec",
    "PopulationBranch",
    "KernelSpec",
    "GenKernelSpec",
    "PerfLbrSpec",
    "TraceFileSpec",
    "ConcatSpec",
    "SuiteSpec",
    "workload_spec_kinds",
    "workload_spec_from_dict",
    "workload_spec_from_json",
    "spec95_suite",
    "kernel_suite",
    "adversarial_suite",
    "named_suite",
    "load_suite",
    # session
    "Session",
    "SessionPlan",
    "SessionResults",
    "SimulationJob",
    # engine
    "simulate",
    "simulate_reference",
    "simulate_batched",
    "SimulationResult",
    # analysis
    "run_sweep",
    "SweepConfig",
    "SweepResult",
    "misclassification_report",
    "hard_branch_distances",
    "evaluate_confidence",
    "design_hybrid",
    # pipeline
    "ArtifactStore",
    "ExecutionReport",
    "Pipeline",
    "PipelineConfig",
    "Plan",
    "Planner",
    # experiments
    "ExperimentContext",
    "run_experiment",
]
