"""Distributed gradient descent with finite-time quantized average
consensus over directed graphs: protocol simulator, theory calculators,
and experiment harness."""

from .consensus import (
    ConsensusNodeState,
    ConsensusNonterminationError,
    ConsensusResult,
    MassMessage,
    init_consensus,
    minmax_window_round,
    run_faqua,
    split_mass,
)
from .graph import (
    Digraph,
    GraphError,
    NotStronglyConnectedError,
    diameter,
    generate_random_strongly_connected,
    is_strongly_connected,
    read_edge_list,
    write_edge_list,
)
from .harness import (
    AuditReport,
    SweepEntry,
    SweepReport,
    audit_invariants,
    centralized_baseline,
    default_theory,
    delta_sweep,
    plateau_level,
    reference_instance,
    write_sweep_csv,
    write_trace_csv,
)
from .optimizer import (
    ConfigError,
    CostFunction,
    DivergenceError,
    OptRunConfig,
    ParameterViolationError,
    StepSizeInterval,
    TheoryConstants,
    build_cost,
    compute_theta_and_floor,
    gradient_step,
    quadratic_cost,
    quadratic_optimum,
    quagd_run,
    register_cost_type,
    step_size_interval,
    young_delta_interval,
)
from .quantizer import QuantizationLevel, quantize_floor, quantized_value
from .rng import mix64, node_streams
from .trace import RunTrace, StepRecord, residual_error

__version__ = "0.1.0"
