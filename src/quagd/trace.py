"""Run records shared by the optimizer loop and the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence


def residual_error(
    x: Sequence[float], x0: Sequence[float], x_star: float
) -> float:
    """Normalized distance-to-optimum: sqrt(sum_j (x_j - x*)^2 / (x0_j - x*)^2).

    Every initial estimate must differ from x*, otherwise the metric is
    undefined for that node.
    """
    if len(x) != len(x0):
        raise ValueError(f"length mismatch: {len(x)} estimates vs {len(x0)} initials")
    total = 0.0
    for j, (xj, x0j) in enumerate(zip(x, x0)):
        denom = x0j - x_star
        if denom == 0:
            raise ValueError(
                f"node {j}: initial estimate equals the optimum, residual undefined"
            )
        total += (xj - x_star) ** 2 / denom**2
    return math.sqrt(total)


@dataclass
class StepRecord:
    """One outer-iteration row: estimates plus observer diagnostics.

    Observer values (centroid_err = |mean estimate - mean stepped value|,
    max_node_dev = max_i |x_i - mean estimate|) are computed from global
    state by `optimizer._lockstep`, never by nodes, as plain floats
    whatever number type a cost returns; they are None at k = 0.
    conservation_ok and accuracy_ok are the step's consensus audits, and
    stepped_size (largest |stepped value|, a float) sizes the audit's
    roundoff slack.
    Agreement is not recorded: the kernel gives every node one value, and
    only a traced run floods each node's extrema and checks them.
    """

    k: int
    estimates: list[float]
    residual: Optional[float] = None
    inner_rounds: int = 0
    centroid_err: Optional[float] = None
    max_node_dev: Optional[float] = None
    conservation_ok: bool = True
    accuracy_ok: bool = True
    stepped_size: float = 0.0  # not a trace.csv column


@dataclass
class RunTrace:
    """Full history of one run at level delta; steps[0] holds the initial estimates."""

    delta: Fraction
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def residuals(self) -> list[Optional[float]]:
        return [s.residual for s in self.steps]

    @property
    def final_estimates(self) -> list[float]:
        return self.steps[-1].estimates
