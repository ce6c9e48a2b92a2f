"""Outer optimization loop and convergence-theory calculators.

Each outer step k, every node takes a local gradient step and the network
jointly runs the quantized average-consensus protocol on the stepped
values; the identical consensus output becomes every node's next estimate.
The theory functions evaluate the step-size interval, the auxiliary
Young-parameter interval, the per-step contraction theta, and the
quantization error floor, all in exact rational arithmetic.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import marshal
import math
import numbers
import operator
import os
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .consensus import ConsensusNonterminationError, _run_lanes, run_faqua
from .graph import Digraph, diameter
from .quantizer import QuantizationLevel, quantize_floor
from .rng import NodeStreams
from .trace import RunTrace, StepRecord, residual_error


def _sum(values) -> float:
    """Left-to-right sum.  From CPython 3.12 the builtin sum() of floats is
    compensated, which changes last bits; this is the same on 3.10-3.13."""
    return functools.reduce(operator.add, values, 0)


def _real(x) -> bool:
    """Whether x is a real number; a bool is not one (True would read as 1).
    A float is tested first: the ABC check costs five times as much."""
    return type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)


class ConfigError(ValueError):
    """Invalid run configuration or theory input: a theory parameter
    outside its admissible interval included."""


class DivergenceError(RuntimeError):
    """The iterates left the floating-point range: a stepped value or the
    residual is no longer finite.  Carries the outer step as .outer_step."""

    def __init__(self, outer_step: int, detail: str):
        self.outer_step, self.detail = outer_step, detail
        super().__init__(f"divergence at outer step {outer_step}: {detail}")

    def __reduce__(self):
        return type(self), (self.outer_step, self.detail), self.__dict__


@dataclass
class CostFunction:
    """Local objective with gradient and smoothness/convexity constants.

    For the bundled quadratic family f(x) = beta/2 * (x - center)^2 the
    beta/center fields are set and lipschitz == strong_convexity == beta;
    custom costs leave them None.
    """

    evaluate: Callable[[float], float]
    gradient: Callable[[float], float]
    lipschitz: float
    strong_convexity: float
    beta: Optional[float] = None
    center: Optional[float] = None

    def __post_init__(self):
        mu, L = self.strong_convexity, self.lipschitz
        if not (_real(mu) and _real(L) and 0 < mu <= L):
            raise ConfigError(
                f"need 0 < strong_convexity <= lipschitz, got "
                f"mu={self.strong_convexity!r}, L={self.lipschitz!r}"
            )


def quadratic_cost(beta: float, center: float) -> CostFunction:
    """f(x) = beta/2 * (x - center)^2 with gradient beta*(x - center)."""
    real = _real(beta) and _real(center)
    if not (real and 0 < beta < math.inf and math.isfinite(center)):
        raise ConfigError(
            f"quadratic needs a finite positive beta and a finite center, "
            f"got beta={beta!r}, center={center!r}"
        )
    return CostFunction(
        evaluate=lambda x: 0.5 * beta * (x - center) ** 2,
        gradient=lambda x: beta * (x - center),
        lipschitz=beta,
        strong_convexity=beta,
        beta=beta,
        center=center,
    )


_COST_TYPES: dict[str, Callable[..., CostFunction]] = {"quadratic": quadratic_cost}


def register_cost_type(name: str, builder: Callable[..., CostFunction]) -> None:
    """Register a cost constructor reachable from config records."""
    _COST_TYPES[name] = builder


def build_cost(spec: dict) -> CostFunction:
    """Build a cost from a `{type: ..., **params}` record."""
    params = dict(spec)
    try:
        kind = params.pop("type")
    except KeyError:
        raise ConfigError(f"cost record missing 'type': {spec}") from None
    try:
        builder = _COST_TYPES[kind]
    except KeyError:
        raise ConfigError(f"unknown cost type {kind!r}") from None
    try:
        return builder(**params)
    except TypeError:  # bad parameters, or the builder's own error
        # bound only now: a bind costs 13 us, six times a whole build_cost
        try:
            inspect.signature(builder).bind(**params)
        except TypeError as exc:
            raise ConfigError(f"cost type {kind!r}: {exc}") from None
        raise


def quadratic_optimum(costs: list[CostFunction]) -> Optional[float]:
    """Closed-form minimizer sum(beta*c)/sum(beta), or None if any cost is
    not from the quadratic family."""
    if any(c.beta is None or c.center is None for c in costs):
        return None
    total = _sum(c.beta for c in costs)
    return _sum(c.beta * c.center for c in costs) / total


def gradient_step(x: float, alpha: float, f: CostFunction) -> float:
    """One descent step x - alpha * grad f(x)."""
    if alpha <= 0:
        raise ConfigError(f"step size must be positive, got {alpha}")
    return x - alpha * f.gradient(x)


# --- Theory calculators (exact rationals throughout) ---


def _exact(name: str, value) -> Fraction:
    """value as an exact rational; ConfigError if it is a bool, not finite
    or no number at all (None, a list)."""
    try:
        if isinstance(value, bool):  # True is no number
            raise ValueError
        return Fraction(value)
    except (OverflowError, TypeError, ValueError):
        raise ConfigError(f"{name} must be finite, got {value!r}") from None


@dataclass
class StepSizeInterval:
    lower: Fraction
    upper: Fraction
    nonempty: bool
    sufficient_condition: bool  # L < 3*mu guarantees nonemptiness

    def contains(self, alpha) -> bool:
        return self.lower < _exact("alpha", alpha) < self.upper

    def default_alpha(self) -> float:
        """The step size used when none is given: the float of the midpoint."""
        if not self.nonempty:
            raise ConfigError(
                "admissible step-size interval is empty; pass alpha explicitly"
            )
        return float((self.lower + self.upper) / 2)


def step_size_interval(L, mu, n: int) -> StepSizeInterval:
    """Admissible open interval (n(mu+L)/(4 mu L), 2n/(mu+L)) for the step size.

    Step sizes are floats, so constants that are not finite or put a bound
    beyond the float range are a ConfigError, as is a node count below 1."""
    if type(n) is not int or n < 1:  # a bool or a float is not a node count
        raise ConfigError(f"need at least 1 node, got n={n!r}")
    L, mu = _exact("L", L), _exact("mu", mu)
    if L <= 0 or mu <= 0:
        raise ConfigError(f"need positive constants, got mu={mu}, L={L}")
    lower = n * (mu + L) / (4 * mu * L)
    upper = Fraction(2 * n) / (mu + L)
    try:
        float(lower), float(upper)
    except OverflowError:
        raise ConfigError(
            f"the step-size interval for n={n} lies beyond the float range "
            f"(mu or L is too small)"
        ) from None
    return StepSizeInterval(
        lower=lower,
        upper=upper,
        nonempty=lower < upper,
        sufficient_condition=L < 3 * mu,
    )


def young_delta_interval(alpha, L, mu, n: int) -> tuple[Fraction, Fraction]:
    """Open interval (0, n[4 a mu L - n(mu+L)] / (2 a [n(mu+L) - 2 a mu L]))
    for the auxiliary contraction parameter; requires alpha strictly inside
    the step-size interval."""
    a, L, mu = _exact("alpha", alpha), _exact("L", L), _exact("mu", mu)
    interval = step_size_interval(L, mu, n)
    if not interval.contains(a):
        raise ConfigError(
            f"alpha={float(a)} outside the admissible interval "
            f"({float(interval.lower)}, {float(interval.upper)})"
        )
    numerator = n * (4 * a * mu * L - n * (mu + L))
    denominator = 2 * a * (n * (mu + L) - 2 * a * mu * L)
    upper = numerator / denominator
    return (Fraction(0), upper)


@dataclass
class TheoryConstants:
    """Contraction factor and quantization error floor, with the asymptotic
    plateau bound error_floor / (1 - theta) from unrolling the per-step
    contraction as a geometric series."""

    delta_young: Fraction
    young_upper: Fraction  # delta_young's upper bound, n(2s - 1) / (2a(1 - s))
    theta: Fraction
    error_floor: Fraction
    asymptotic_bound: Fraction


def compute_theta_and_floor(
    alpha, delta_young, L, mu, n: int, Delta
) -> TheoryConstants:
    """Evaluate theta = 2(1 + a d/n)(1 - s), s = 2 a mu L / (n(mu+L)), and the
    floor (8 + 32 a_hat^2 L^2 + 32 a_hat L^2 / d) * Delta^2, exactly.

    Every number must be finite and is taken at its exact value (a float at
    its binary value); a None delta_young means half its upper bound.  No
    theta check is needed: alpha inside the step-size interval gives
    1/2 < s < 1, so theta > 0, and theta < 1 exactly when d < young_upper."""
    a, L, mu = _exact("alpha", alpha), _exact("L", L), _exact("mu", mu)
    if isinstance(Delta, QuantizationLevel):
        Delta = Delta.delta
    Delta = _exact("Delta", Delta)
    if Delta < 0:
        raise ConfigError(f"quantization level must be >= 0, got {Delta}")
    _, d_upper = young_delta_interval(a, L, mu, n)
    d = d_upper / 2 if delta_young is None else _exact("delta_young", delta_young)
    if not (0 < d < d_upper):
        raise ConfigError(f"delta_young={float(d)} outside (0, {float(d_upper)})")
    a_hat = a / n
    theta = 2 * (1 + a * d / n) * (1 - 2 * a * mu * L / (n * (mu + L)))
    error_floor = (8 + 32 * a_hat**2 * L**2 + 32 * a_hat * L**2 / d) * Delta**2
    return TheoryConstants(
        delta_young=d,
        young_upper=d_upper,
        theta=theta,
        error_floor=error_floor,
        asymptotic_bound=error_floor / (1 - theta),
    )


# --- Run configuration and the outer loop ---


@dataclass
class OptRunConfig:
    graph: Digraph
    costs: list[CostFunction]
    delta: QuantizationLevel
    x0: list[float]
    max_outer: int
    master_seed: int
    alpha: Optional[float] = None  # None: midpoint of the admissible interval
    d_bound: Optional[int] = None  # None: exact graph diameter
    max_rounds: Optional[int] = None

    def __post_init__(self):
        self.delta = QuantizationLevel(self.delta)

    def validate(self) -> None:
        n = self.graph.n
        if len(self.costs) != n:
            raise ConfigError(f"expected {n} cost functions, got {len(self.costs)}")
        if len(self.x0) != n:
            raise ConfigError(f"expected {n} initial estimates, got {len(self.x0)}")
        for j, x in enumerate(self.x0):
            if not (_real(x) and 0 <= x < math.inf):
                raise ConfigError(
                    f"initial estimates must be finite and nonnegative, "
                    f"node {j} has {x!r}"
                )
        for name in ("max_outer", "master_seed", "d_bound", "max_rounds"):
            value = getattr(self, name)
            optional = name in ("d_bound", "max_rounds")  # None picks the default
            if not (type(value) is int or optional and value is None):  # True is no count
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.max_outer < 0:
            raise ConfigError(f"max_outer must be >= 0, got {self.max_outer}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.alpha is not None:
            if not (_real(self.alpha) and math.isfinite(self.alpha)):
                raise ConfigError(f"step size must be finite, got {self.alpha!r}")
            if self.alpha <= 0:
                raise ConfigError(f"step size must be positive, got {self.alpha}")

    @property
    def L(self) -> float:
        return _sum(c.lipschitz for c in self.costs)

    @property
    def mu(self) -> float:
        return _sum(c.strong_convexity for c in self.costs)

    def effective_alpha(self, interval: Optional[StepSizeInterval] = None) -> float:
        """alpha, or else the midpoint of the admissible interval (interval,
        if given, is that interval, already built by the caller)."""
        if self.alpha is not None:
            return self.alpha
        if interval is None:
            interval = step_size_interval(self.L, self.mu, self.graph.n)
        return interval.default_alpha()


def _residual(x, x0, x_star: Optional[float], k: Optional[int]):
    """residual_error of estimates x, or None without x_star.  One that is
    not finite raises DivergenceError at outer step k, or ConfigError for
    the initial estimates (k None); an x0 equal to x_star is a ConfigError."""
    if x_star is None:
        return None
    try:
        r = residual_error(x, x0, x_star)
    except OverflowError:
        r = math.inf
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if math.isfinite(r):
        return r
    if k is None:
        raise ConfigError("the residual of the initial estimates is not finite")
    raise DivergenceError(k, "the residual overflowed")


def quagd_run(
    cfg: OptRunConfig, x_star: Optional[float] = None, inner_trace=None
) -> RunTrace:
    """Run the full outer loop; returns the per-iteration trace.

    Residuals are filled when x_star is known.  Consensus nontermination
    propagates with the offending outer step attached as .outer_step; a
    stepped value or residual that is not finite raises DivergenceError,
    a gradient that raises (a DivergenceError too) a ConfigError with
    .outer_step, chained from its error.
    inner_trace, if given, receives the per-round consensus debug trace,
    with an `OUTER <k>` marker line before each outer step.  A traced run
    may split its outer steps over processes (_run_levels), its gradients
    all run here: once to predict every step, and again for each step that
    runs here, on its true input.
    """
    (out,) = _run_levels(cfg, [cfg.delta], x_star, inner_trace)
    if isinstance(out, Exception):
        raise out
    return out


def _run_levels(cfg: OptRunConfig, levels, x_star=None, inner_trace=None) -> list:
    """The outer loop at each quantization level, the levels in lockstep on
    shared draws.  Returns per level its RunTrace or the ValueError,
    ConsensusNonterminationError or DivergenceError that ended it, with
    .outer_step once a step has begun; a failing gradient is a ConfigError.
    Any other error propagates.  A run of several levels, or quagd_run's
    traced level, splits by outer step over _group_count processes: each
    level is predicted here (_predict), and forked child `part` runs each
    predicted step k = part (mod parts) on the predicted stepped values,
    the step's levels in one call, a level up to its failure there.  Per
    step it sends a marshal frame: each level's _row (None for a failure
    or a level not run) and the text it traced into its one buffer.
    _lockstep, the one loop here, takes a child's row for a level whose
    input is the predicted one and runs the step here otherwise, so each
    outcome is one process's, failures included."""
    n = cfg.graph.n
    try:
        cfg.validate()
        interval = step_size_interval(cfg.L, cfg.mu, n)
        alpha = cfg.effective_alpha(interval)
        if interval.nonempty and not interval.contains(alpha):
            for _ in levels:  # as many warnings as separate runs give
                warnings.warn(
                    f"alpha={alpha} outside the admissible interval "
                    f"({float(interval.lower)}, {float(interval.upper)}); "
                    f"convergence is not guaranteed",
                    stacklevel=3,  # the caller of quagd_run or delta_sweep
                )
        d_bound = diameter(cfg.graph) if cfg.d_bound is None else cfg.d_bound
        r0 = _residual(cfg.x0, cfg.x0, x_star, None)
    except ValueError as exc:
        return [exc] * len(levels)

    step = functools.partial(_step, cfg.graph, d_bound, cfg.max_rounds, len(levels) == 1,
                             NodeStreams(cfg.master_seed, n))
    out = [RunTrace(q.delta, [StepRecord(k=0, estimates=list(cfg.x0), residual=r0)])
           for q in levels]
    split = len(levels) > 1 or inner_trace is not None  # an untraced run never splits
    parts = _group_count(cfg, cfg.max_outer if split else 1)
    preds = [_predict(cfg, alpha, q) for q in levels] if parts > 1 else None

    def body(part, send):  # a forked child's
        trace = None if inner_trace is None else io.StringIO()
        lanes = range(len(levels))  # the levels not failed here
        for k in range(part, cfg.max_outer, parts):
            if not (lanes := [lane for lane in lanes if k < len(preds[lane])]):
                break
            rows = [None] * len(levels)
            for lane, result in zip(lanes, step(k, [preds[lane][k][0] for lane in lanes],
                                                [levels[lane] for lane in lanes], trace)):
                if not isinstance(result, Exception):
                    rows[lane] = _row(result)
            lanes = [lane for lane in lanes if rows[lane] is not None]
            send(marshal.dumps((rows, trace and trace.getvalue())))
            if trace is not None:
                trace.seek(0)
                trace.truncate()

    with _forked(parts, body) as recvs:
        return _lockstep(cfg, alpha, step, x_star, levels, out, inner_trace, preds, recvs,
                         parts)


# A split's threshold in node-steps (n * max_outer).  Split in two, with the
# next op timed in, three-level sweeps of 80, 100, 120, 160 and 1200 took 0.94,
# 0.93, 0.85, 0.81 and 0.64 of one process by median pair, and traced runs whose
# processes ran on CPUs of their own 1.01, 0.96, 0.89, 0.88 and 0.63
# (BENCH_41.json extra_runs.fork_threshold).  160 keeps a margin over both.
_FORK_MIN_NODE_STEPS = 160


def _group_count(cfg: OptRunConfig, steps: int) -> int:
    """How many processes a run of this many outer steps is split over
    (1 for a run that never splits): one per CPU in this process's affinity
    mask (free or not; a cgroup quota is not read), at most one per step.
    One alone for a run of fewer node-steps than pay for a fork, where
    there is no os.fork, or while another thread runs (a forked child
    would hold its locks, not the thread)."""
    if (steps < 2 or cfg.graph.n * cfg.max_outer < _FORK_MIN_NODE_STEPS
            or not hasattr(os, "fork") or threading.active_count() > 1):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(steps, len(os.sched_getaffinity(0)))
    return min(steps, os.cpu_count() or 1)


def _predict(cfg: OptRunConfig, alpha: float, level: QuantizationLevel) -> list:
    """The run at level as the quantized map gives it, with no round run:
    per outer step, the stepped values and lo = floor(S / n), S the sum of
    their counts floor(x_half / delta), every node then holding
    float(lo * delta).  That is the run while each consensus outputs
    floor(S / n), as it almost always does (its contract allows |lo n - S|
    <= n).  It stops at the first step whose gradients fail or overflow."""
    n, x, steps = cfg.graph.n, cfg.x0, []
    for k in range(cfg.max_outer):
        try:
            x_half = _stepped(cfg, alpha, x, k)
            lo = sum(quantize_floor(v, level) for v in x_half) // n
            x = [float(lo * level.delta)] * n
        except Exception:  # the loop meets it at step k
            break
        steps.append((x_half, lo))
    return steps


def _recv(pipe) -> Optional[bytes]:
    """The next frame's data from pipe (an 8-byte little-endian length, then
    the data), or None if the frame is empty or does not arrive whole."""
    size = int.from_bytes(pipe.read(8), "little")  # 0 at the pipe's end
    data = pipe.read(size)
    return data if size and len(data) == size else None


@contextlib.contextmanager
def _forked(parts: int, body):
    """{part: recv} for parts 1 .. parts - 1, each run as body(part, send) in
    a forked child that leaves by os._exit (running none of this process's
    clean-up, flushing no buffer it inherited).  send(data) writes data as
    one frame down a pipe, recv() reads the next (_recv): None always means
    this process does that piece itself.  A part whose os.pipe or os.fork
    fails (no descriptor or process to spare) has no entry.  A child first
    closes every read end it inherited, so once this process closes its
    own, a child still sending fails instead of blocking for good.  On exit
    every read end is closed and every child reaped, killed first if an
    exception ends the block (the one use of signal)."""
    pipes, children, recvs = [], [], {}  # every read end; every child; each child's recv
    try:
        for part in range(1, parts):
            try:
                read, write = os.pipe()
            except OSError:
                continue
            pipes.append(pipe := open(read, "rb"))
            with open(write, "wb") as sink:  # this process's end closes after the fork
                try:
                    pid = os.fork()
                except OSError:
                    continue
                if pid == 0:
                    try:
                        while pipes:
                            pipes.pop().close()

                        def send(data):
                            sink.write(len(data).to_bytes(8, "little") + data)
                            sink.flush()

                        body(part, send)
                    finally:
                        os._exit(0)
            children.append(pid)
            recvs[part] = functools.partial(_recv, pipe)
        yield recvs
    except BaseException:
        import signal

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in children:
            os.waitpid(pid, 0)


def _stepped(cfg: OptRunConfig, alpha: float, x, k: int) -> list:
    """Every node's stepped value at outer step k from estimates x.  One
    that is not finite raises DivergenceError; a gradient's own failure (a
    DivergenceError too) a ConfigError with .outer_step, chained from it."""
    try:
        x_half = [gradient_step(xi, alpha, f) for xi, f in zip(x, cfg.costs)]
        finite = all(map(math.isfinite, x_half))
    except Exception as exc:  # a custom cost's own failure, of any type
        err = ConfigError(f"the gradient step at outer step {k} failed: "
                          f"{type(exc).__name__}: {exc}")
        err.outer_step = k
        raise err from exc
    if not finite:
        raise DivergenceError(k, "a stepped value is not finite")
    return x_half


def _step(g: Digraph, d_bound: int, max_rounds, lone: bool, streams: NodeStreams, k: int,
          x_halves, qs, trace=None) -> list:
    """Outer step k's consensus on each level's stepped values, on the run's
    node streams at k: per level a ConsensusResult or the ValueError or
    ConsensusNonterminationError it fails with; any other error propagates,
    with .outer_step.  A run of one level (lone) goes through run_faqua,
    traced into trace after an OUTER line if given; one of several through
    _run_lanes, once one is left too, so it takes one route however split."""
    if trace is not None:
        trace.write(f"OUTER\t{k}\n")
    try:
        if lone:
            return [run_faqua(x_halves[0], g, d_bound, qs[0], streams.at(k), max_rounds,
                              trace=trace)]
        return _run_lanes(x_halves, g, d_bound, qs, streams.at(k), max_rounds)
    except Exception as exc:
        exc.outer_step = k
        if not isinstance(exc, (ValueError, ConsensusNonterminationError)):
            raise
        return [exc] * len(qs)


def _row(result):
    """What a step's record takes from its ConsensusResult (and a child
    sends): lo, the rounds, the conservation flag and the accuracy
    contract's.  A failure is its own row."""
    if isinstance(result, Exception):
        return result
    return (result.value_count, result.rounds_used,
            all(a.y_conserved and a.z_conserved for a in result.audits),
            result.within_accuracy_contract())


def _take(cfg: OptRunConfig, x_star, out: list, lane: int, k: int, x_half, q, row) -> None:
    """Record outer step k of out[lane], at level q, from its stepped values
    and its _row: a failure ends the level, else every node holds lo * delta.
    The record holds plain numbers, whatever number type a cost returns."""
    if isinstance(row, Exception):
        row.outer_step, out[lane] = k, row
        return
    n, (lo, rounds, conserved, contract) = cfg.graph.n, row
    value = float(lo * q.delta)  # as the kernel decodes it
    x = [value] * n
    x_hat = _sum(x) / n
    try:
        out[lane].steps.append(StepRecord(
            k=k + 1, estimates=x, residual=_residual(x, cfg.x0, x_star, k),
            inner_rounds=rounds, centroid_err=float(abs(x_hat - _sum(x_half) / n)),
            max_node_dev=abs(value - x_hat), conservation_ok=conserved, accuracy_ok=contract,
            stepped_size=float(max(map(abs, x_half))),
        ))
    except DivergenceError as exc:
        out[lane] = exc


def _lockstep(cfg: OptRunConfig, alpha: float, step, x_star, levels, out: list,
              inner_trace, preds, recvs: dict, parts: int) -> list:
    """out (per level its RunTrace, or the failure that ended it) run on to
    cfg.max_outer and returned.  Step k reads the frame of process k mod
    parts where that is a child (recvs, from _forked).  A level takes its
    row from the frame, the child's text copied in, where the row is not
    None and the level's estimates entering step k are its map's (preds,
    from _predict).  Else, a missed prediction, a failed or dead child, a
    refused fork or no split alike, it steps here from them, with every
    other level so run, on one stream set (step: _step, traced into
    inner_trace if given), as no node stream or draw depends on the level."""
    unsent = [None] * len(levels)  # the rows of a step no child sent
    for k in range(cfg.max_outer):
        if not any(isinstance(trace, RunTrace) for trace in out):
            break
        recv = recvs.get(k % parts)
        frame = recv and recv()
        rows, text = (unsent, None) if frame is None else marshal.loads(frame)
        stepped = {}  # each level stepped here: its stepped values
        for lane, trace in enumerate(out):
            if not isinstance(trace, RunTrace):
                continue
            x = trace.steps[-1].estimates  # after step 0 every node holds one value
            if rows[lane] is not None and (
                    k == 0 or x[0] == float(preds[lane][k - 1][1] * levels[lane].delta)):
                if text is not None:  # a traced run's one level
                    inner_trace.write(text)
                _take(cfg, x_star, out, lane, k, preds[lane][k][0], levels[lane], rows[lane])
                continue
            try:
                stepped[lane] = _stepped(cfg, alpha, x, k)
            except (ConfigError, DivergenceError) as exc:
                out[lane] = exc
        if stepped:
            results = step(k, list(stepped.values()), [levels[lane] for lane in stepped],
                           inner_trace)
            for (lane, x_half), result in zip(stepped.items(), results):
                _take(cfg, x_star, out, lane, k, x_half, levels[lane], _row(result))
    return out
