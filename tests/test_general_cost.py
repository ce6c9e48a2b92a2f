"""A cost outside the quadratic family, through the library and the CLI.

softplus beta=b center=c is f(x) = b/2 (x - c)^2 + log(1 + e^x), whose
gradient b (x - c) + sigma(x), with sigma(x) = (1 + tanh(x/2))/2 the logistic
function, gives mu = b and L = b + 1/4.  It has no closed-form optimum.
"""

import itertools
import math
from dataclasses import replace

import pytest

from quagd import optimizer
from quagd.harness import audit_invariants, default_theory, delta_sweep, reference_instance
from quagd.optimizer import CostFunction, quagd_run
from test_cli import run_cli


def softplus_cost(beta: float, center: float) -> CostFunction:
    return CostFunction(
        evaluate=lambda x: (
            0.5 * beta * (x - center) ** 2 + max(x, 0.0) + math.log1p(math.exp(-abs(x)))
        ),
        gradient=lambda x: beta * (x - center) + (1 + math.tanh(x / 2)) / 2,
        lipschitz=beta + 0.25,
        strong_convexity=beta,
    )


@pytest.fixture(autouse=True)
def softplus_type(monkeypatch):
    monkeypatch.setitem(optimizer._COST_TYPES, "softplus", softplus_cost)


def bisect_optimum(costs) -> float:
    """The root of the increasing total gradient, to the last float."""
    lo, hi = -100.0, 100.0
    while lo < (mid := (lo + hi) / 2) < hi:
        if sum(c.gradient(mid) for c in costs) < 0:
            lo = mid
        else:
            hi = mid
    return mid


@pytest.mark.parametrize("delta", ["0.1", "0.01"])
@pytest.mark.parametrize("seed", range(5))
def test_run_ends_within_the_asymptotic_bound(seed, delta):
    ref = reference_instance(seed=seed, delta=delta)
    cfg = replace(ref, costs=[softplus_cost(1.0, c.center) for c in ref.costs])
    trace = quagd_run(cfg)
    assert audit_invariants(trace).clean
    assert all(s.residual is None for s in trace.steps)
    x_hat = trace.final_estimates[0]  # the audit checked that every node agrees
    x_star = bisect_optimum(cfg.costs)
    assert (x_hat - x_star) ** 2 <= default_theory(cfg).asymptotic_bound


SOFTPLUS_INI = "[graph]\nnodes = 4\n[costs]\n" + "".join(
    f"{j} = softplus beta=1.0 center={2.5 * j}\n" for j in range(4)
)


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(SOFTPLUS_INI)
    return str(path)


def test_run_writes_no_residuals(config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--config", config, "--max-iters", "5", "--output-dir", str(out)
    ) == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [""] * 6
    assert not (out / "residual.svg").exists()
    assert "final residual" not in capsys.readouterr().out


def test_sweep_needs_the_closed_form_optimum(config, tmp_path, capsys):
    assert run_cli(
        "sweep", "--config", config, "--deltas", "0.1", "--output-dir", str(tmp_path)
    ) == 2
    assert "sweep needs the closed-form optimum" in capsys.readouterr().err


def test_theory_from_the_config(config, capsys):
    assert run_cli("theory", "--config", config) == 0


def broken(gradient):
    """The 6-node reference instance with every cost's gradient replaced."""
    ref = reference_instance(n=6, max_outer=3)
    return replace(ref, costs=[replace(c, gradient=gradient) for c in ref.costs])


BROKEN_GRADIENTS = {
    "ZeroDivisionError": lambda x: 1 / 0,
    "TypeError": lambda x: "a",
    "ValueError": lambda x: math.log(-1),
}


@pytest.mark.parametrize("kind", BROKEN_GRADIENTS)
def test_failing_gradient_is_a_config_error_naming_its_outer_step(kind):
    cfg = broken(BROKEN_GRADIENTS[kind])
    with pytest.raises(optimizer.ConfigError, match=f"outer step 0 failed: {kind}") as err:
        quagd_run(cfg)
    assert err.value.outer_step == 0
    assert type(err.value.__cause__).__name__ == kind
    report = delta_sweep(cfg, ["0.1", "0.01"])
    assert report.all_failed
    for entry in report.entries:
        assert isinstance(entry.exception, optimizer.ConfigError)
        assert entry.exception.outer_step == 0
        assert type(entry.exception.__cause__).__name__ == kind


def test_failing_gradient_names_the_step_it_failed_in():
    calls = itertools.count()
    cfg = broken(lambda x: 1 / 0 if next(calls) >= 2 * 6 else x)  # 6 calls a step
    with pytest.raises(optimizer.ConfigError, match="outer step 2 failed") as err:
        quagd_run(cfg)
    assert err.value.outer_step == 2


def test_failing_registered_cost_exits_2_naming_the_outer_step(
    monkeypatch, tmp_path, capsys
):
    def broken_quadratic(beta, center):
        return replace(optimizer.quadratic_cost(beta, center), gradient=lambda x: 1 / 0)

    monkeypatch.setitem(optimizer._COST_TYPES, "broken", broken_quadratic)
    path = tmp_path / "broken.ini"
    path.write_text(SOFTPLUS_INI.replace("softplus", "broken"))
    assert run_cli(
        "run", "--config", str(path), "--max-iters", "3", "--output-dir", str(tmp_path / "o")
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the gradient step at outer step 0 failed")
    assert "Traceback" not in err
