"""Experiment orchestration: reference instance, unquantized baseline,
quantization-level sweeps, invariant auditing, and CSV emission.

The harness is the analyst's side of the simulator: it audits the observer
diagnostics (centroid error, node deviation) that `optimizer.quagd_run`
computes from global state, which no node ever sees.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .consensus import ConsensusNonterminationError
from .graph import Digraph, generate_random_strongly_connected
from .optimizer import (
    ConfigError,
    DivergenceError,
    OptRunConfig,
    TheoryConstants,
    _residual,
    _sum,
    compute_theta_and_floor,
    quadratic_cost,
    quadratic_optimum,
    quagd_run,
    step_size_interval,
)
from .quantizer import QuantizationLevel
from .rng import mix64
from .trace import RunTrace, StepRecord, residual_error  # noqa: F401  (public API)

# Sub-seed domains derived from the master seed.
_GRAPH_TAG = 1
_COST_TAG = 2
_INIT_TAG = 3


def reference_graph(n: int, edge_prob: float, seed: int) -> Digraph:
    """The reference instance's random strongly connected digraph."""
    return generate_random_strongly_connected(n, edge_prob, mix64(seed, _GRAPH_TAG))


def reference_draws(n: int, seed: int) -> tuple[list[float], list[float]]:
    """The reference instance's unit-quadratic centers and initial estimates,
    each uniform in [0, 10] from its own sub-seed."""
    cost_rng = random.Random(mix64(seed, _COST_TAG))
    init_rng = random.Random(mix64(seed, _INIT_TAG))
    centers = [cost_rng.uniform(0.0, 10.0) for _ in range(n)]
    return centers, [init_rng.uniform(0.0, 10.0) for _ in range(n)]


def reference_instance(
    n: int = 20,
    edge_prob: float = 0.2,
    seed: int = 0,
    delta="0.01",
    max_outer: int = 60,
    alpha: Optional[float] = None,
    d_bound: Optional[int] = None,
) -> OptRunConfig:
    """The documented desk-scale reference configuration: a random strongly
    connected digraph, unit quadratics with centers uniform in [0, 10], and
    initial estimates uniform in [0, 10]."""
    centers, x0 = reference_draws(n, seed)
    return OptRunConfig(
        graph=reference_graph(n, edge_prob, seed),
        costs=[quadratic_cost(1.0, c) for c in centers],
        delta=QuantizationLevel(delta),
        x0=x0,
        max_outer=max_outer,
        master_seed=seed,
        alpha=alpha,
        d_bound=d_bound,
    )


def default_theory(cfg: OptRunConfig) -> TheoryConstants:
    """Theory constants for a config at its effective step size, with the
    auxiliary parameter at its default."""
    return compute_theta_and_floor(
        cfg.effective_alpha(), None, cfg.L, cfg.mu, cfg.graph.n, cfg.delta
    )


def centralized_baseline(cfg: OptRunConfig) -> RunTrace:
    """Unquantized exact-averaging reference: the scalar recursion
    x <- (1/n) sum_i (x - alpha * grad f_i(x)) from the mean initial value.
    An iterate or residual that is not finite raises DivergenceError."""
    cfg.validate()
    n = cfg.graph.n
    alpha = cfg.effective_alpha()
    x_star = quadratic_optimum(cfg.costs)
    x = _sum(cfg.x0) / n
    r0 = _residual([x] * n, cfg.x0, x_star, None)
    trace = RunTrace(x0=list(cfg.x0), delta=Fraction(0), x_star=x_star)
    trace.steps.append(StepRecord(k=0, estimates=[x] * n, residual=r0))
    for k in range(cfg.max_outer):
        x = x - (alpha / n) * _sum(c.gradient(x) for c in cfg.costs)
        if not math.isfinite(x):
            raise DivergenceError(k, "the iterate is not finite")
        r = _residual([x] * n, cfg.x0, x_star, k)
        trace.steps.append(StepRecord(k=k + 1, estimates=[x] * n, residual=r))
    return trace


# --- Sweeps ---


@dataclass
class SweepEntry:
    delta: Fraction
    trace: Optional[RunTrace] = None
    plateau: Optional[float] = None
    iters_to_plateau: Optional[int] = None
    theory_floor: Optional[float] = None
    exception: Optional[Exception] = None  # why the level's run failed

    @property
    def error(self) -> Optional[str]:
        exc = self.exception
        return None if exc is None else f"{type(exc).__name__}: {exc}"

    @property
    def quantization_dominated(self) -> bool:
        """True when the residual saturates immediately: the quantization
        grid is coarser than the initial distance to the optimum."""
        return self.iters_to_plateau == 0


@dataclass
class SweepReport:
    entries: list[SweepEntry] = field(default_factory=list)

    @property
    def all_failed(self) -> bool:
        return all(e.error is not None for e in self.entries)


def plateau_level(residuals: Sequence[float]) -> float:
    """Median residual over the final 20% of iterations; medians resist the
    bounded oscillation a quantized fixed point exhibits."""
    tail = max(1, math.ceil(0.2 * len(residuals)))
    return statistics.median(residuals[-tail:])


def iterations_to_plateau(residuals: Sequence[float], plateau: float) -> int:
    """First iteration whose residual is within 2x of the plateau level."""
    for k, r in enumerate(residuals):
        if r <= 2 * plateau:
            return k
    return len(residuals) - 1


def level_name(delta) -> str:
    """The name a quantization level is labelled and written under: its
    float's repr."""
    return repr(float(delta))


def delta_sweep(cfg: OptRunConfig, deltas: Sequence) -> SweepReport:
    """Run the outer loop once per quantization level with a shared master
    seed; per-level failures (invalid parameters, consensus nontermination,
    divergence) are recorded without aborting the sweep.  theory_floor is
    left None when the step size is outside the open admissible interval.

    At least one level is needed, and no two may share a level_name."""
    levels = [QuantizationLevel(d) for d in deltas]
    names = [level_name(lv.delta) for lv in levels]
    if not names or len(set(names)) != len(names):
        raise ConfigError(f"need one or more levels, distinct as floats: {names}")
    x_star = quadratic_optimum(cfg.costs)
    if x_star is None:
        raise ConfigError(
            "sweep needs the closed-form optimum; all costs must be quadratic"
        )
    interval = step_size_interval(cfg.L, cfg.mu, cfg.graph.n)
    report = SweepReport()
    for level in levels:
        entry = SweepEntry(delta=level.delta)
        cfg_d = replace(cfg, delta=level)
        try:
            entry.trace = quagd_run(cfg_d, x_star=x_star)
        except (ValueError, ConsensusNonterminationError, DivergenceError) as exc:
            entry.exception = exc
        else:
            residuals = entry.trace.residuals
            entry.plateau = plateau_level(residuals)
            entry.iters_to_plateau = iterations_to_plateau(residuals, entry.plateau)
            if interval.contains(cfg.effective_alpha()):
                try:
                    entry.theory_floor = float(default_theory(cfg_d).asymptotic_bound)
                except OverflowError:  # the bound exceeds every float
                    entry.theory_floor = math.inf
        report.entries.append(entry)
    return report


# --- Invariant auditing ---


@dataclass
class Violation:
    kind: str
    step: int
    detail: str


@dataclass
class AuditReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_invariants(trace: RunTrace) -> AuditReport:
    """Check every recorded outer step against the protocol contracts:
    exact mass conservation, the one-level averaging accuracy bound,
    node agreement, and the 2*delta / 4*delta observer bounds."""
    report = AuditReport()
    delta = float(trace.delta)
    # strict bounds in exact arithmetic; tiny slack absorbs float roundoff
    slack = 1e-9 * delta + 1e-15
    for step in trace.steps[1:]:
        if not step.conservation_ok:
            report.violations.append(
                Violation("conservation", step.k, "mass total changed during consensus")
            )
        if not step.accuracy_ok:
            report.violations.append(
                Violation(
                    "accuracy", step.k, "output further than delta from quantized mean"
                )
            )
        if not step.agreement_ok:
            report.violations.append(
                Violation("agreement", step.k, "nodes returned different values")
            )
        if step.centroid_err is not None and step.centroid_err > 2 * delta + slack:
            report.violations.append(
                Violation(
                    "centroid_bound",
                    step.k,
                    f"|mean estimate - mean stepped value| = {step.centroid_err} "
                    f"> 2*delta = {2 * delta}",
                )
            )
        if step.max_node_dev is not None and step.max_node_dev > 4 * delta + slack:
            report.violations.append(
                Violation(
                    "deviation_bound",
                    step.k,
                    f"max node deviation {step.max_node_dev} > 4*delta = {4 * delta}",
                )
            )
    return report


# --- CSV emission ---

TRACE_CSV_HEADER = "k,residual,inner_rounds,centroid_err,max_node_dev"
SWEEP_CSV_HEADER = "delta,plateau,iters_to_plateau,theory_floor"


def _cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def write_trace_csv(trace: RunTrace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        for s in trace.steps:
            fh.write(
                f"{s.k},{_cell(s.residual)},{s.inner_rounds},"
                f"{_cell(s.centroid_err)},{_cell(s.max_node_dev)}\n"
            )


def write_sweep_csv(report: SweepReport, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for e in report.entries:
            fh.write(
                f"{level_name(e.delta)},{_cell(e.plateau)},"
                f"{_cell(e.iters_to_plateau)},{_cell(e.theory_floor)}\n"
            )
