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
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import Callable, Optional

from .consensus import ConsensusNonterminationError, _run_lanes, run_faqua
from .graph import Digraph, diameter
from .quantizer import QuantizationLevel
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
    may fork processes that each run the whole loop (_split_trace), so a
    custom gradient must be a pure function of its input; a step whose
    text a child does not send whole is traced in the calling process.
    """
    (out,) = _run_levels(cfg, [cfg.delta], x_star, inner_trace)
    if isinstance(out, Exception):
        raise out
    return out


def _run_levels(cfg: OptRunConfig, levels, x_star=None, inner_trace=None) -> list:
    """The outer loop at each quantization level: the levels run in lockstep
    within each of up to min(len(levels), usable CPUs) processes.

    The levels are split round-robin into _group_count groups.  One group,
    as for quagd_run's untraced level, runs here on _lockstep; of several,
    group 0 runs here and each other group in a forked child (_run_groups).
    quagd_run's traced level instead splits its trace duty by outer step
    over up to min(max_outer, usable CPUs) processes (_split_trace).  Both
    fork through _forked, and a level or step text that a child does not
    send whole is run or traced here.  Returns per level its RunTrace or
    the ValueError, ConsensusNonterminationError or DivergenceError that
    ended it, with .outer_step once a step has begun; a failing gradient
    is a ConfigError.  Any other error propagates.
    """
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

    def start():  # a level's first record
        return StepRecord(k=0, estimates=list(cfg.x0), residual=r0)

    run = functools.partial(_lockstep, cfg, alpha, d_bound, start, x_star, len(levels) == 1)
    groups = _group_count(cfg, len(levels) if inner_trace is None else cfg.max_outer)
    if groups == 1:
        return run(levels, inner_trace)
    if inner_trace is not None:
        return _split_trace(run, levels, inner_trace, groups)
    return _run_groups(run, start, levels, groups)


# Both splits share one threshold in node-steps (n * max_outer), set by the
# traced run's, which splits only the trace and so pays later.  Split in two,
# three-level sweeps of 24, 80, 100 and 200 took 1.21, 0.96, 0.95 and 0.85 of
# their one-process time by median (BENCH_37.json extra_runs.small_sweeps);
# traced runs of 100, 120, 140, 160, 200 and 1200 took 1.04, 0.99-1.02, 0.97,
# 0.92, 0.91-0.97 and 0.81 (BENCH_39.json extra_runs.traced_run_sizes), against
# 0.99-1.01 for one process against itself.  160 keeps a margin over both.
_FORK_MIN_NODE_STEPS = 160


def _group_count(cfg: OptRunConfig, levels: int) -> int:
    """How many processes a run of this many levels (a traced run: outer
    steps) takes: one per CPU in this process's affinity mask (free or not;
    a cgroup quota is not read), at most one per level.  One alone for a run
    of fewer node-steps than pay for a fork, where there is no os.fork, or
    while another thread runs (a forked child would hold its locks, not the
    thread)."""
    if (levels < 2 or cfg.graph.n * cfg.max_outer < _FORK_MIN_NODE_STEPS
            or not hasattr(os, "fork") or threading.active_count() > 1):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(levels, len(os.sched_getaffinity(0)))
    return min(levels, os.cpu_count() or 1)


def _run_groups(run, start, levels, groups: int) -> list:
    """run's outcomes for levels split round-robin into groups: group 0 runs
    here, each other group in a forked child that sends one frame per level
    (_forked): the rows of its steps after the first (plain numbers, which
    marshal carries as they are; the first record is built here), a failure
    the loop raised pickled (a DivergenceError or a
    ConsensusNonterminationError, which has no cause), else nothing.  A
    group that cannot fork runs here with group 0, then every level whose
    frame is empty or not whole runs here again, all together, so each is
    what a run here gives, __cause__ included.  marshal is always loaded;
    pickle only once a level fails (it would add 0.3 MB)."""
    out: list = [None] * len(levels)

    def run_here(lanes):
        for lane, outcome in zip(lanes, run([levels[lane] for lane in lanes])):
            out[lane] = outcome

    def serve(g, send):  # a forked child's body
        for outcome in run(levels[g::groups]):
            if isinstance(outcome, RunTrace):
                send(marshal.dumps([astuple(step) for step in outcome.steps[1:]]))
            elif isinstance(outcome, (DivergenceError, ConsensusNonterminationError)):
                import pickle

                send(marshal.dumps(pickle.dumps(outcome)))
            else:
                send(b"")

    with _forked(groups, serve) as recvs:
        run_here([lane for lane in range(len(levels)) if lane % groups not in recvs])
        again = []  # the levels to run again here
        for g, recv in recvs.items():
            for lane in range(g, len(levels), groups):
                if (data := recv()) is None:
                    again.append(lane)
                elif isinstance(sent := marshal.loads(data), list):
                    steps = [start(), *(StepRecord(*row) for row in sent)]
                    out[lane] = RunTrace(levels[lane].delta, steps)
                else:
                    import pickle  # only once a child sends a failure

                    out[lane] = pickle.loads(sent)
        if again:
            run_here(sorted(again))
    return out


def _split_trace(run, levels, inner_trace, parts: int) -> list:
    """run's outcome for quagd_run's one level, traced into inner_trace by
    parts processes: each runs the whole loop, and process k % parts (this
    one is 0, the others forked children) traces outer step k.  Kernel and
    trace cost about the same, so a child keeps ahead of this process.

    A child traces into one buffer kept for the run (the trace writer's
    digit cache fills once) and after each of its steps sends the step's
    whole text as a frame (_forked): partial rows for a failure the loop
    records, nothing for one it does not catch.  Here a child's step runs
    untraced and its text is copied in; where none arrives whole, this
    process traces the step again from its streams, and the child's later
    steps too, as it traces every step of a child that could not fork; so
    the stream and any error are one process's."""

    def body(part, send):  # a forked child's
        buf = io.StringIO()

        def duty(k, consensus):
            if k % parts != part:
                return consensus(None)
            results = consensus(buf)  # what the loop does not catch sends nothing
            send(buf.getvalue().encode())
            buf.seek(0)
            buf.truncate()
            return results

        run(levels, duty=duty)

    def duty(k, consensus):
        recv = recvs.get(k % parts)
        if recv is None:  # this process's step, or a step whose child is gone
            return consensus(inner_trace)
        results = consensus(None)
        if (text := recv()) is None:
            del recvs[k % parts]
            return consensus(inner_trace)
        inner_trace.write(text.decode())
        return results

    with _forked(parts, body) as recvs:
        return run(levels, duty=duty)


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


def _lockstep(cfg: OptRunConfig, alpha: float, d_bound: int, start, x_star, lone: bool,
              levels, inner_trace=None, duty=None) -> list:
    """_run_levels' outcomes for levels all run in lockstep, from its
    prologue's alpha, d_bound and start(), a level's first record; every
    later record holds plain numbers, whatever number type a cost returns.

    No node stream or consensus draw depends on the level, so each outer
    step runs the live levels on one stream set.  lone says whether the
    caller's run has one level: run_faqua then runs it (inner_trace is for
    it alone); the levels of a run of several go through _run_lanes, also
    once one is left live, so a run takes one route however it is split.
    duty, if set, is a split traced run's (_split_trace): each step's
    consensus then runs as duty(k, consensus) has it, consensus(trace)
    running step k from its streams traced into trace (or untraced for
    None), and inner_trace goes unused.
    """
    n = cfg.graph.n
    out: list = [RunTrace(q.delta, [start()]) for q in levels]
    run_streams = NodeStreams(cfg.master_seed, n)  # reseeded in place each step

    def consensus(trace) -> list:  # step k's results, a failure the loop records as one
        streams = run_streams.at(k)
        if trace is not None:
            trace.write(f"OUTER\t{k}\n")
        try:
            if lone:
                return [run_faqua(x_halves[0], cfg.graph, d_bound, qs[0], streams,
                                  cfg.max_rounds, trace=trace)]
            return _run_lanes(x_halves, cfg.graph, d_bound, qs, streams, cfg.max_rounds)
        except Exception as exc:
            exc.outer_step = k
            if not isinstance(exc, (ValueError, ConsensusNonterminationError)):
                raise
            return [exc] * len(qs)

    for k in range(cfg.max_outer):
        stepped = {}  # each live level's stepped values
        for lane, trace in enumerate(out):
            if isinstance(trace, RunTrace):
                x = trace.steps[-1].estimates
                try:
                    x_half = [gradient_step(x[i], alpha, cfg.costs[i]) for i in range(n)]
                    if all(map(math.isfinite, x_half)):
                        stepped[lane] = x_half
                    else:
                        out[lane] = DivergenceError(k, "a stepped value is not finite")
                except Exception as exc:  # a custom cost's own failure, of any type
                    out[lane] = err = ConfigError(f"the gradient step at outer step {k} "
                                                  f"failed: {type(exc).__name__}: {exc}")
                    err.outer_step, err.__cause__ = k, exc
        if not stepped:
            break
        x_halves, qs = list(stepped.values()), [levels[lane] for lane in stepped]
        results = consensus(inner_trace) if duty is None else duty(k, consensus)
        for (lane, x_half), result in zip(stepped.items(), results):
            if isinstance(result, Exception):
                result.outer_step = k
                out[lane] = result
                continue
            x = result.per_node_values  # every node holds result.value
            x_hat = _sum(x) / n
            try:
                out[lane].steps.append(StepRecord(
                    k=k + 1,
                    estimates=x,
                    residual=_residual(x, cfg.x0, x_star, k),
                    inner_rounds=result.rounds_used,
                    centroid_err=float(abs(x_hat - _sum(x_half) / n)),
                    max_node_dev=abs(result.value - x_hat),
                    conservation_ok=all(
                        a.y_conserved and a.z_conserved for a in result.audits
                    ),
                    accuracy_ok=result.within_accuracy_contract(),
                    stepped_size=float(max(map(abs, x_half))),
                ))
            except DivergenceError as exc:
                out[lane] = exc
    return out
