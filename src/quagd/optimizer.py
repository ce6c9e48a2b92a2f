"""Outer optimization loop and convergence-theory calculators.

Each outer step k, every node takes a local gradient step and the network
jointly runs the quantized average-consensus protocol on the stepped
values; the identical consensus output becomes every node's next estimate.
The theory functions evaluate the step-size interval, the auxiliary
Young-parameter interval, the contraction factor, and the quantization
error floor, all in exact rational arithmetic.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .consensus import run_faqua
from .graph import Digraph, diameter
from .quantizer import QuantizationLevel
from .rng import node_streams
from .trace import RunTrace, StepRecord, residual_error


def _sum(values) -> float:
    """Left-to-right sum.  From CPython 3.12 the builtin sum() of floats is
    compensated, which changes last bits; this is the same on 3.10-3.13."""
    return functools.reduce(operator.add, values, 0)


class ParameterViolationError(ValueError):
    """A theory parameter lies outside its admissible interval."""


class ConfigError(ValueError):
    """Invalid run configuration."""


class DivergenceError(RuntimeError):
    """The iterates left the floating-point range: a stepped value or the
    residual is no longer finite.  Carries the outer step as .outer_step."""

    def __init__(self, outer_step: int, detail: str):
        self.outer_step = outer_step
        super().__init__(f"divergence at outer step {outer_step}: {detail}")


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
        if not (0 < self.strong_convexity <= self.lipschitz):
            raise ConfigError(
                f"need 0 < strong_convexity <= lipschitz, got "
                f"mu={self.strong_convexity}, L={self.lipschitz}"
            )


def quadratic_cost(beta: float, center: float) -> CostFunction:
    """f(x) = beta/2 * (x - center)^2 with gradient beta*(x - center)."""
    if not (0 < beta < math.inf and math.isfinite(center)):
        raise ConfigError(
            f"quadratic needs a finite positive beta and a finite center, "
            f"got beta={beta}, center={center}"
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
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise ConfigError(f"cost type {kind!r}: {exc}") from None
    return builder(**params)


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
    """value as an exact rational; ConfigError if it is not finite."""
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
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
    beyond the float range are a ConfigError."""
    L, mu = _exact("L", L), _exact("mu", mu)
    if L <= 0 or mu <= 0:
        raise ParameterViolationError(f"need positive constants, got mu={mu}, L={L}")
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
        raise ParameterViolationError(
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

    L: Fraction
    mu: Fraction
    alpha: Fraction
    alpha_hat: Fraction  # alpha / n
    delta_young: Fraction
    young_upper: Fraction  # delta_young's admissible upper bound
    theta: Fraction
    error_floor: Fraction
    asymptotic_bound: Fraction


def compute_theta_and_floor(
    alpha, delta_young, L, mu, n: int, Delta
) -> TheoryConstants:
    """Evaluate theta = 2(1 + a d/n)(1 - 2 a mu L / (n(mu+L))) and the floor
    (8 + 32 a_hat^2 L^2 + 32 a_hat L^2 / d) * Delta^2, exactly.

    Every number must be finite and is taken at its exact value (a float at
    its binary value); a None delta_young means half its admissible upper
    bound."""
    a, L, mu = _exact("alpha", alpha), _exact("L", L), _exact("mu", mu)
    if isinstance(Delta, QuantizationLevel):
        Delta = Delta.delta
    Delta = _exact("Delta", Delta)
    if Delta < 0:
        raise ParameterViolationError(f"quantization level must be >= 0, got {Delta}")
    _, d_upper = young_delta_interval(a, L, mu, n)
    d = d_upper / 2 if delta_young is None else _exact("delta_young", delta_young)
    if not (0 < d < d_upper):
        raise ParameterViolationError(
            f"delta_young={float(d)} outside (0, {float(d_upper)})"
        )
    a_hat = a / n
    theta = 2 * (1 + a * d / n) * (1 - 2 * a * mu * L / (n * (mu + L)))
    if not (0 < theta < 1):
        raise ParameterViolationError(f"contraction factor {float(theta)} not in (0, 1)")
    error_floor = (8 + 32 * a_hat**2 * L**2 + 32 * a_hat * L**2 / d) * Delta**2
    return TheoryConstants(
        L=L,
        mu=mu,
        alpha=a,
        alpha_hat=a_hat,
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
            if not 0 <= x < math.inf:
                raise ConfigError(
                    f"initial estimates must be finite and nonnegative, "
                    f"node {j} has {x}"
                )
        if self.max_outer < 0:
            raise ConfigError(f"max_outer must be >= 0, got {self.max_outer}")
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ConfigError(f"step size must be finite, got {self.alpha}")

    @property
    def L(self) -> float:
        return _sum(c.lipschitz for c in self.costs)

    @property
    def mu(self) -> float:
        return _sum(c.strong_convexity for c in self.costs)

    def effective_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return step_size_interval(self.L, self.mu, self.graph.n).default_alpha()

    def effective_d_bound(self) -> int:
        return self.d_bound if self.d_bound is not None else diameter(self.graph)


def _residual(x, x0, x_star: Optional[float], k: Optional[int]):
    """residual_error of estimates x, or None without x_star.  One that is
    not finite raises DivergenceError at outer step k, or ConfigError for
    the initial estimates (k None)."""
    if x_star is None:
        return None
    try:
        r = residual_error(x, x0, x_star)
    except OverflowError:
        r = math.inf
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
    stepped value or residual that is not finite raises DivergenceError.
    inner_trace, if given, receives the per-round consensus debug trace,
    with an `OUTER <k>` marker line before each outer step.
    """
    cfg.validate()
    n = cfg.graph.n
    alpha = cfg.effective_alpha()
    interval = step_size_interval(cfg.L, cfg.mu, n)
    if interval.nonempty and not interval.contains(alpha):
        warnings.warn(
            f"alpha={alpha} outside the admissible interval "
            f"({float(interval.lower)}, {float(interval.upper)}); "
            f"convergence is not guaranteed",
            stacklevel=2,
        )
    d_bound = cfg.effective_d_bound()

    x = list(cfg.x0)
    trace = RunTrace(x0=list(cfg.x0), delta=cfg.delta.delta, x_star=x_star)
    r0 = _residual(x, cfg.x0, x_star, None)
    trace.steps.append(StepRecord(k=0, estimates=list(x), residual=r0))
    for k in range(cfg.max_outer):
        x_half = [gradient_step(x[i], alpha, cfg.costs[i]) for i in range(n)]
        if not all(map(math.isfinite, x_half)):
            raise DivergenceError(k, "a stepped value is not finite")
        streams = node_streams(cfg.master_seed, n, k)
        if inner_trace is not None:
            inner_trace.write(f"OUTER\t{k}\n")
        try:
            result = run_faqua(
                x_half,
                cfg.graph,
                d_bound,
                cfg.delta,
                streams,
                cfg.max_rounds,
                trace=inner_trace,
            )
        except Exception as exc:
            exc.outer_step = k
            raise
        x = list(result.per_node_values)
        x_hat = _sum(x) / n
        z_hat = _sum(x_half) / n
        trace.steps.append(
            StepRecord(
                k=k + 1,
                estimates=list(x),
                residual=_residual(x, cfg.x0, x_star, k),
                inner_rounds=result.rounds_used,
                centroid_err=abs(x_hat - z_hat),
                max_node_dev=max(abs(xi - x_hat) for xi in x),
                conservation_ok=all(
                    a.y_conserved and a.z_conserved for a in result.audits
                ),
                accuracy_ok=result.within_accuracy_contract(),
                agreement_ok=len(set(result.per_node_values)) == 1,
            )
        )
    return trace
