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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .graph import Digraph, generate_random_strongly_connected
from .optimizer import (
    ConfigError,
    DivergenceError,
    OptRunConfig,
    TheoryConstants,
    _residual,
    _run_levels,
    _sum,
    build_cost,
    compute_theta_and_floor,
    quadratic_optimum,
    step_size_interval,
)
from .quantizer import QuantizationLevel
from .rng import mix64
from .trace import RunTrace, StepRecord

# Sub-seed domains derived from the master seed.
_GRAPH_TAG = 1
_COST_TAG = 2
_INIT_TAG = 3

# The reference instance's defaults, which the CLI's options default to.
REFERENCE_NODES = 20
REFERENCE_EDGE_PROB = 0.2
REFERENCE_DELTA = "0.01"
REFERENCE_OUTER = 60


def reference_graph(n: int, edge_prob: float, seed: int) -> Digraph:
    """The reference instance's random strongly connected digraph."""
    return generate_random_strongly_connected(n, edge_prob, mix64(seed, _GRAPH_TAG))


def reference_problem(n: int, seed: int) -> tuple[list[dict], list[float]]:
    """The reference instance's cost specs (unit quadratics) and initial
    estimates; centers and estimates are uniform in [0, 10], each drawn
    from its own sub-seed."""
    cost_rng = random.Random(mix64(seed, _COST_TAG))
    init_rng = random.Random(mix64(seed, _INIT_TAG))
    specs = [{"type": "quadratic", "beta": 1.0, "center": cost_rng.uniform(0.0, 10.0)}
             for _ in range(n)]
    return specs, [init_rng.uniform(0.0, 10.0) for _ in range(n)]


def reference_instance(
    n: int = REFERENCE_NODES,
    edge_prob: float = REFERENCE_EDGE_PROB,
    seed: int = 0,
    delta=REFERENCE_DELTA,
    max_outer: int = REFERENCE_OUTER,
) -> OptRunConfig:
    """The documented desk-scale reference configuration: a random strongly
    connected digraph, unit quadratics with centers uniform in [0, 10], and
    initial estimates uniform in [0, 10]."""
    specs, x0 = reference_problem(n, seed)
    return OptRunConfig(
        graph=reference_graph(n, edge_prob, seed),
        costs=[build_cost(spec) for spec in specs],
        delta=delta,
        x0=x0,
        max_outer=max_outer,
        master_seed=seed,
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
    trace = RunTrace(delta=Fraction(0))
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
    """First iteration whose residual is within 2x of the plateau level.
    plateau is plateau_level(residuals), a median of them, so one always is."""
    return next(k for k, r in enumerate(residuals) if r <= 2 * plateau)


def level_name(delta) -> str:
    """The name a quantization level is labelled and written under: its
    float's repr."""
    return repr(float(delta))


def level_slug(delta) -> str:
    """The level_name as it appears in a file name: `.` as `p`, `-` as `m`."""
    return level_name(delta).replace(".", "p").replace("-", "m")


def delta_sweep(cfg: OptRunConfig, deltas: Sequence) -> SweepReport:
    """Run the outer loop at each quantization level with a shared master
    seed; per-level failures (invalid parameters, consensus nontermination,
    divergence) are recorded without aborting the sweep.  theory_floor is
    left None when the step size is outside the open admissible interval.

    The levels run in lockstep on shared draws, split by outer step over
    up to min(max_outer, usable CPUs) processes (optimizer._run_levels): a
    level takes a forked child's step where its input is the predicted one
    and runs the step here otherwise, so its trace or failure is the one
    quagd_run gives it alone.  At least one level is needed, and no two
    may share a level_name."""
    levels = [QuantizationLevel(d) for d in deltas]
    names = [level_name(lv.delta) for lv in levels]
    if not names or len(set(names)) != len(names):
        raise ConfigError(f"need one or more levels, distinct as floats: {names}")
    x_star = quadratic_optimum(cfg.costs)
    if x_star is None:
        raise ConfigError(
            "sweep needs the closed-form optimum; all costs must be quadratic"
        )
    n = cfg.graph.n
    interval = step_size_interval(cfg.L, cfg.mu, n)
    report = SweepReport()
    for level, outcome in zip(levels, _run_levels(cfg, levels, x_star)):
        entry = SweepEntry(delta=level.delta)
        if isinstance(outcome, Exception):
            entry.exception = outcome
        else:
            entry.trace = outcome
            residuals = entry.trace.residuals
            entry.plateau = plateau_level(residuals)
            entry.iters_to_plateau = iterations_to_plateau(residuals, entry.plateau)
            if interval.contains(alpha := cfg.effective_alpha(interval)):
                theory = compute_theta_and_floor(alpha, None, cfg.L, cfg.mu, n, level)
                try:
                    entry.theory_floor = float(theory.asymptotic_bound)
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
    """Check every recorded outer step against the protocol contracts, one
    violation kind each: conservation (exact mass), accuracy (the one-level
    averaging bound), centroid_bound (2*delta) and deviation_bound (4*delta).
    Node agreement holds by construction (see StepRecord)."""
    report = AuditReport()
    delta = float(trace.delta)
    for before, step in zip(trace.steps, trace.steps[1:]):
        centroid, dev = step.centroid_err, step.max_node_dev
        # strict bounds in exact arithmetic; the slack is the roundoff of means over
        # values up to size, stepped ones too (none for a non-finite size: no check)
        size = max(step.stepped_size, *map(abs, before.estimates + step.estimates))
        ulps = 2 * len(step.estimates) * math.ulp(size) if math.isfinite(size) else 0.0
        slack = 1e-9 * delta + ulps
        for kind, violated, detail in (
            ("conservation", not step.conservation_ok,
             "mass total changed during consensus"),
            ("accuracy", not step.accuracy_ok,
             "output further than delta from quantized mean"),
            ("centroid_bound", centroid is not None and centroid > 2 * delta + slack,
             f"|mean estimate - mean stepped value| = {centroid} > 2*delta = {2 * delta}"),
            ("deviation_bound", dev is not None and dev > 4 * delta + slack,
             f"max node deviation {dev} > 4*delta = {4 * delta}"),
        ):
            if violated:
                report.violations.append(Violation(kind, step.k, detail))
    return report


# --- CSV emission ---

TRACE_CSV_COLUMNS = ("k", "residual", "inner_rounds", "centroid_err", "max_node_dev")
SWEEP_CSV_COLUMNS = ("delta", "plateau", "iters_to_plateau", "theory_floor")


def _cell(value) -> str:
    if isinstance(value, Fraction):  # a quantization level
        return level_name(value)
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: str, columns: tuple[str, ...], records) -> None:
    """A header of the column names, then one row of each record's cells."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for rec in records:
            fh.write(",".join(_cell(getattr(rec, col)) for col in columns) + "\n")


def write_trace_csv(trace: RunTrace, path: str) -> None:
    _write_csv(path, TRACE_CSV_COLUMNS, trace.steps)


def write_sweep_csv(report: SweepReport, path: str) -> None:
    _write_csv(path, SWEEP_CSV_COLUMNS, report.entries)
