"""prefixsynth: parallel prefix adder synthesis toolkit.

Build and edit prefix graphs, drive the two-phase (backbone, then
refinement) synthesis loop with pluggable decision policies, enumerate
backbone shapes from the closed-form e-graph of the associativity rewrite,
and export designs as EPR text or structural Verilog.
"""
from .backbone import (
    Backbone,
    BackboneError,
    RegroupError,
    balanced_backbone,
    complete,
    find_candidates,
    init_serial,
    regroup,
    to_timed_sexpr,
)
from .epr import (
    CriticalPath,
    EprParseError,
    critical_path,
    parse_epr,
    render_epr,
)
from .esat import (
    EGraph,
    TraceError,
    catalan,
    count_trees,
    derive_trace,
    design_space_log10,
    extract_optimal,
    extract_perturbed,
    filter_low_deficiency,
    saturate,
)
from .graph import (
    GraphError,
    IncompleteGraphError,
    Node,
    PrefixGraph,
    ValidationReport,
    addition_mismatches,
    deficiency,
    exhaustive_addition_check,
    parse_node_token,
    random_addition_check,
    simulate,
    validate,
)
from .dataio import (
    TrainingSample,
    SampleTurn,
    emit_report,
    emit_samples,
    emit_verilog,
    parse_samples,
    simulate_verilog,
    synthesize_samples,
)
from .policy import (
    Action,
    CriticalPathRefinePolicy,
    DecisionContext,
    Phase1Result,
    Phase2Result,
    Policy,
    PolicyAbort,
    PolicyError,
    RegroupTrace,
    RemoteEndpoint,
    RemoteLlmPolicy,
    ScriptedPolicy,
    build_phase1_prompt,
    build_phase2_prompt,
    parse_script,
    run_phase1,
    run_phase2,
)
from .refine import (
    RefinementError,
    fanout_opt,
    level_opt,
    node_clone,
    prune_dead,
)
from .structures import (
    brent_kung_graph,
    kogge_stone_graph,
    serial_graph,
    sklansky_graph,
)
from .timing import (
    ArrivalProfile,
    DelayModel,
    SweepRow,
    TimingReport,
    backbone_cost,
    graph_arrivals,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph
    "Node",
    "PrefixGraph",
    "GraphError",
    "IncompleteGraphError",
    "ValidationReport",
    "parse_node_token",
    "validate",
    "simulate",
    "deficiency",
    "addition_mismatches",
    "exhaustive_addition_check",
    "random_addition_check",
    # structures
    "serial_graph",
    "sklansky_graph",
    "kogge_stone_graph",
    "brent_kung_graph",
    # epr
    "render_epr",
    "parse_epr",
    "EprParseError",
    "CriticalPath",
    "critical_path",
    # backbone
    "Backbone",
    "BackboneError",
    "RegroupError",
    "init_serial",
    "balanced_backbone",
    "find_candidates",
    "regroup",
    "complete",
    "to_timed_sexpr",
    # timing
    "DelayModel",
    "ArrivalProfile",
    "TimingReport",
    "SweepRow",
    "backbone_cost",
    "graph_arrivals",
    # esat
    "EGraph",
    "TraceError",
    "saturate",
    "count_trees",
    "extract_optimal",
    "extract_perturbed",
    "derive_trace",
    "filter_low_deficiency",
    "catalan",
    "design_space_log10",
    # refine
    "RefinementError",
    "level_opt",
    "fanout_opt",
    "node_clone",
    "prune_dead",
    # policy
    "Action",
    "parse_script",
    "RegroupTrace",
    "DecisionContext",
    "Policy",
    "PolicyError",
    "PolicyAbort",
    "Phase1Result",
    "Phase2Result",
    "run_phase1",
    "run_phase2",
    "build_phase1_prompt",
    "build_phase2_prompt",
    "CriticalPathRefinePolicy",
    "ScriptedPolicy",
    "RemoteEndpoint",
    "RemoteLlmPolicy",
    # dataio
    "TrainingSample",
    "SampleTurn",
    "synthesize_samples",
    "emit_samples",
    "parse_samples",
    "emit_verilog",
    "simulate_verilog",
    "emit_report",
]
