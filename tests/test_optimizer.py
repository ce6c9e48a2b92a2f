import math
import re
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest

from quagd.graph import Digraph, generate_random_strongly_connected
from quagd.optimizer import (
    ConfigError,
    CostFunction,
    DivergenceError,
    OptRunConfig,
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
from quagd.quantizer import QuantizationLevel, quantize_floor


def complete(n):
    return Digraph(n, [(r, s) for r in range(n) for s in range(n) if r != s])


class TestCostFunctions:
    def test_quadratic_values(self):
        f = quadratic_cost(2.0, 1.0)
        assert f.evaluate(3.0) == 4.0
        assert f.gradient(3.0) == 4.0
        assert f.lipschitz == f.strong_convexity == 2.0

    @pytest.mark.parametrize("beta, center", [(True, 1.0), (1.0, False), ("1", 2.0), (1.0, "2")])
    def test_bool_quadratic_parameters_rejected(self, beta, center):
        with pytest.raises(ConfigError, match="quadratic needs a finite positive beta"):
            quadratic_cost(beta, center)

    def test_bool_smoothness_constants_rejected(self):
        for bad in (True, "1"):  # neither is a number, though True would read as 1
            with pytest.raises(ConfigError, match="need 0 < strong_convexity <= lipschitz"):
                CostFunction(abs, abs, lipschitz=bad, strong_convexity=bad)

    def test_gradient_matches_finite_differences(self):
        rnd = random.Random(13)
        for _ in range(100):
            f = quadratic_cost(rnd.uniform(0.1, 5.0), rnd.uniform(-10, 10))
            x = rnd.uniform(-20, 20)
            h = 1e-6 * max(1.0, abs(x))
            numeric = (f.evaluate(x + h) - f.evaluate(x - h)) / (2 * h)
            analytic = f.gradient(x)
            assert abs(numeric - analytic) <= 1e-6 * max(1.0, abs(analytic))

    def test_registry_round_trip(self):
        f = build_cost({"type": "quadratic", "beta": 1.5, "center": 2.0})
        assert f.gradient(0.0) == -3.0
        register_cost_type("shifted", lambda c: quadratic_cost(1.0, c))
        g = build_cost({"type": "shifted", "c": 4.0})
        assert g.center == 4.0

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError):
            build_cost({"type": "cubic"})
        with pytest.raises(ConfigError):
            build_cost({"beta": 1.0})

    def test_unexpected_parameters_rejected(self):
        with pytest.raises(ConfigError, match="foo"):
            build_cost({"type": "quadratic", "beta": 1.0, "center": 1.0, "foo": 2.0})
        with pytest.raises(ConfigError, match="center"):
            build_cost({"type": "quadratic", "beta": 1.0})

    def test_type_error_inside_builder_propagates(self):
        def broken(beta):
            raise TypeError("bug in builder")

        register_cost_type("broken", broken)
        with pytest.raises(TypeError, match="bug in builder"):
            build_cost({"type": "broken", "beta": 1.0})

    def test_strong_convexity_above_lipschitz_rejected(self):
        with pytest.raises(ConfigError):
            CostFunction(evaluate=abs, gradient=abs, lipschitz=1.0, strong_convexity=2.0)

    def test_quadratic_optimum_closed_form(self):
        costs = [quadratic_cost(1.0, 0.0), quadratic_cost(3.0, 4.0)]
        assert quadratic_optimum(costs) == pytest.approx(3.0)
        custom = build_cost({"type": "quadratic", "beta": 1.0, "center": 1.0})
        custom.beta = None
        assert quadratic_optimum([custom]) is None


class TestGradientStep:
    def test_basic(self):
        f = quadratic_cost(1.0, 3.0)
        assert gradient_step(5.0, 0.5, f) == 4.0

    def test_stationary_point(self):
        f = quadratic_cost(2.0, 7.0)
        assert gradient_step(7.0, 0.3, f) == 7.0

    def test_steeper_quadratic(self):
        f = quadratic_cost(2.0, 1.0)
        assert gradient_step(0.0, 0.25, f) == 0.5

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigError):
            gradient_step(1.0, 0.0, quadratic_cost(1.0, 0.0))


class TestStepSizeInterval:
    def test_reference_values(self):
        iv = step_size_interval(20, 20, 20)
        assert (iv.lower, iv.upper) == (Fraction(1, 2), Fraction(1))
        assert iv.nonempty and iv.sufficient_condition

    def test_equal_constants_always_nonempty(self):
        rnd = random.Random(3)
        for _ in range(50):
            L = rnd.uniform(0.5, 50)
            n = rnd.randint(1, 40)
            iv = step_size_interval(L, L, n)
            assert iv.lower == Fraction(n) / (2 * Fraction(L))
            assert iv.upper == Fraction(n) / Fraction(L)
            assert iv.nonempty

    def test_empty_interval_flagged(self):
        iv = step_size_interval(6, 1, 1)  # (L-mu)^2 = 25 > 24 = 4*mu*L
        assert iv.lower == Fraction(7, 24)
        assert iv.upper == Fraction(2, 7)
        assert not iv.nonempty
        assert not iv.sufficient_condition

    def test_sufficient_condition_over_random_draws(self):
        rnd = random.Random(8)
        for _ in range(300):
            mu = rnd.uniform(0.1, 10)
            L = mu * rnd.uniform(1.0, 2.999)  # L < 3*mu
            iv = step_size_interval(L, mu, rnd.randint(1, 30))
            assert iv.sufficient_condition
            assert iv.nonempty


    @pytest.mark.parametrize(
        "L, mu", [(1e-320, 1e-320), (1.0, 1e-320), (math.inf, 1.0), (1.0, math.nan)]
    )
    def test_bounds_beyond_floats_are_config_errors(self, L, mu):
        with pytest.raises(ConfigError):
            step_size_interval(L, mu, 2)

    @pytest.mark.parametrize("n", [-3, 0, 2.5, 20.0])
    def test_node_count_below_one_is_config_error(self, n):
        # a float node count would give a float alpha / n in compute_theta_and_floor
        with pytest.raises(ConfigError, match=f"need at least 1 node, got n={n}"):
            step_size_interval(10, 1, n)

    def test_bounds_at_the_edge_of_floats_are_kept(self):
        iv = step_size_interval(1e-300, 1e-300, 2)
        assert iv.default_alpha() == pytest.approx(1.5e300)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, None, [0.75]],
                             ids=["inf", "-inf", "nan", "none", "list"])
    def test_contains_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be finite"):
            step_size_interval(20, 20, 20).contains(alpha)


class TestDefaultAlpha:
    def test_float_of_the_midpoint(self):
        assert step_size_interval(20, 20, 20).default_alpha() == 0.75
        assert step_size_interval(3, 1, 2).default_alpha() == float(Fraction(5, 6))

    def test_empty_interval_is_config_error(self):
        with pytest.raises(ConfigError, match="empty"):
            step_size_interval(6, 1, 1).default_alpha()


class TestYoungDeltaInterval:
    def test_reference_value(self):
        lo, hi = young_delta_interval(Fraction(3, 4), 20, 20, 20)
        assert lo == 0
        assert hi == Fraction(80, 3)

    def test_non_finite_alpha_is_config_error(self):
        with pytest.raises(ConfigError, match="alpha must be finite"):
            young_delta_interval(math.inf, 20, 20, 20)

    def test_positive_upper_for_interior_alpha(self):
        rnd = random.Random(21)
        for _ in range(200):
            mu = rnd.uniform(0.5, 5)
            L = mu * rnd.uniform(1.0, 2.9)
            n = rnd.randint(2, 25)
            iv = step_size_interval(L, mu, n)
            t = rnd.uniform(0.05, 0.95)
            alpha = iv.lower + Fraction(t).limit_denominator(10**6) * (iv.upper - iv.lower)
            _, hi = young_delta_interval(alpha, L, mu, n)
            assert hi > 0


class TestThetaAndFloor:
    def test_reference_theta_exact(self):
        c = compute_theta_and_floor(Fraction(3, 4), 1, 20, 20, 20, 0)
        assert c.theta == Fraction(83, 160)

    def test_floor_vanishes_with_delta_zero(self):
        c = compute_theta_and_floor(Fraction(3, 4), 1, 20, 20, 20, 0)
        assert c.error_floor == 0
        assert c.asymptotic_bound == 0

    def test_floor_diverges_as_young_parameter_shrinks(self):
        small = compute_theta_and_floor(Fraction(3, 4), Fraction(1, 10**6), 20, 20, 20, 1)
        big = compute_theta_and_floor(Fraction(3, 4), 1, 20, 20, 20, 1)
        assert small.error_floor > 10**5 * big.error_floor

    @pytest.mark.parametrize(
        "alpha, young", [(math.inf, None), (math.nan, None), (0.75, math.inf)]
    )
    def test_non_finite_inputs_are_config_errors(self, alpha, young):
        with pytest.raises(ConfigError, match="must be finite"):
            compute_theta_and_floor(alpha, young, 20, 20, 20, "0.01")

    def test_default_young_parameter_is_half_its_bound(self):
        c = compute_theta_and_floor(Fraction(3, 4), None, 20, 20, 20, 0)
        assert c.young_upper == young_delta_interval(Fraction(3, 4), 20, 20, 20)[1]
        assert c.delta_young == c.young_upper / 2

    def test_theta_in_unit_interval_over_random_draws(self):
        rnd = random.Random(99)
        for _ in range(1000):
            n = rnd.randint(1, 30)
            mus = [rnd.uniform(0.1, 5) for _ in range(n)]
            Ls = [m * rnd.uniform(1.0, 2.9) for m in mus]
            mu, L = sum(mus), sum(Ls)
            iv = step_size_interval(L, mu, n)
            assert iv.nonempty
            t = Fraction(rnd.uniform(0.05, 0.95)).limit_denominator(10**6)
            alpha = iv.lower + t * (iv.upper - iv.lower)
            _, hi = young_delta_interval(alpha, L, mu, n)
            s = Fraction(rnd.uniform(0.05, 0.95)).limit_denominator(10**6)
            c = compute_theta_and_floor(alpha, s * hi, L, mu, n, 0)
            assert 0 < c.theta < 1


def small_config(**overrides):
    n = 4
    params = dict(
        graph=complete(n),
        costs=[quadratic_cost(1.0, c) for c in (1.0, 2.0, 3.0, 4.0)],
        delta="0.01",
        x0=[5.0, 6.0, 7.0, 8.0],
        max_outer=5,
        master_seed=1,
    )
    params.update(overrides)
    return OptRunConfig(**params)


# the reference constants, with an alpha inside (1/2, 1) and young's bound 80/3
_THEORY = dict(L=20, mu=20, n=20, alpha=Fraction(3, 4), young=None, Delta=1)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"mu": 0}, "need positive constants, got mu=0, L=20"),
        ({"mu": -2.5}, "need positive constants, got mu=-5/2, L=20"),
        ({"L": -1}, "need positive constants, got mu=20, L=-1"),
        ({"n": 0}, "need at least 1 node, got n=0"),
        ({"alpha": math.inf}, "alpha must be finite, got inf"),
        ({"alpha": math.nan}, "alpha must be finite, got nan"),
        ({"alpha": Fraction(1, 2)}, "alpha=0.5 outside the admissible interval (0.5, 1.0)"),
        ({"alpha": 1}, "alpha=1.0 outside the admissible interval (0.5, 1.0)"),
        ({"alpha": 2}, "alpha=2.0 outside the admissible interval (0.5, 1.0)"),
        ({"Delta": Fraction(-1, 100)}, "quantization level must be >= 0, got -1/100"),
        ({"young": 0}, "delta_young=0.0 outside (0, 26.666666666666668)"),
        ({"young": Fraction(80, 3)},
         "delta_young=26.666666666666668 outside (0, 26.666666666666668)"),
        ({"young": 100}, "delta_young=100.0 outside (0, 26.666666666666668)"),
        ({"L": True}, "L must be finite, got True"),
        ({"n": True}, "need at least 1 node, got n=True"),
        ({"alpha": True}, "alpha must be finite, got True"),
        ({"L": None}, "L must be finite, got None"),
        ({"L": [20]}, "L must be finite, got [20]"),
        ({"mu": [20]}, "mu must be finite, got [20]"),
        ({"alpha": None}, "alpha must be finite, got None"),
        ({"young": [1]}, "delta_young must be finite, got [1]"),
        ({"Delta": None}, "Delta must be finite, got None"),
    ],
    ids=["zero-mu", "negative-mu", "negative-L", "no-nodes", "infinite-alpha",
         "nan-alpha", "alpha-at-lower-end", "alpha-at-upper-end", "alpha-above",
         "negative-level", "zero-young", "young-at-its-bound", "young-above-its-bound",
         "bool-L", "bool-n", "bool-alpha", "none-L", "list-L", "list-mu", "none-alpha",
         "list-young", "none-level"],
)
def test_bad_theory_input_is_config_error(bad, message):
    """Every calculator that reads a bad theory input raises one error type,
    ConfigError, with the same message."""
    p = {**_THEORY, **bad}
    reads = {  # each calculator's inputs, in argument order
        compute_theta_and_floor: ("alpha", "young", "L", "mu", "n", "Delta"),
        young_delta_interval: ("alpha", "L", "mu", "n"),
        step_size_interval: ("L", "mu", "n"),
    }
    for calc, names in reads.items():
        if bad.keys() <= set(names):
            with pytest.raises(ConfigError) as info:
                calc(*(p[name] for name in names))
            assert type(info.value) is ConfigError and str(info.value) == message


class TestQuagdRun:
    def test_single_step_identical_inputs_and_costs(self):
        n = 3
        cfg = OptRunConfig(
            graph=complete(n),
            costs=[quadratic_cost(1.0, 2.0)] * n,
            delta="0.5",
            x0=[6.0] * n,
            max_outer=1,
            master_seed=7,
            alpha=0.6,
        )
        trace = quagd_run(cfg)
        stepped = 6.0 - 0.6 * (6.0 - 2.0)
        q = QuantizationLevel("0.5")
        expected = float(quantize_floor(stepped, q) * q.delta)
        assert trace.steps[1].estimates == [expected] * n

    def test_zero_iterations(self):
        cfg = small_config(max_outer=0)
        trace = quagd_run(cfg)
        assert len(trace.steps) == 1
        assert trace.steps[0].estimates == cfg.x0

    def test_residuals_filled_when_optimum_given(self):
        cfg = small_config()
        x_star = quadratic_optimum(cfg.costs)
        trace = quagd_run(cfg, x_star=x_star)
        assert trace.residuals[0] == pytest.approx(2.0)  # sqrt(4), each term 1
        assert all(r is not None for r in trace.residuals)

    def test_out_of_interval_alpha_warns_but_runs(self):
        cfg = small_config(alpha=1e-3, max_outer=1)
        with pytest.warns(UserWarning, match="admissible interval"):
            quagd_run(cfg)

    def test_step_size_interval_built_once(self, monkeypatch):
        import quagd.optimizer as optimizer

        built, real = [], optimizer.step_size_interval
        monkeypatch.setattr(optimizer, "step_size_interval",
                            lambda *args: built.append(args) or real(*args))
        trace = quagd_run(small_config())
        assert len(built) == 1
        alpha = real(4.0, 4.0, 4).default_alpha()
        assert trace.steps == quagd_run(small_config(alpha=alpha)).steps

    def test_a_z_leak_alone_fails_conservation(self, monkeypatch):
        import quagd.optimizer as optimizer
        from quagd.consensus import run_faqua
        from quagd.harness import reference_instance

        def add_z(lam, msgs):  # one extra mass unit in round 1's first message
            if lam == 1:
                msgs[0].c_z += 1
            return msgs

        results = []

        def tampered(*args, **kwargs):
            results.append(run_faqua(*args, tamper=add_z, **kwargs))
            return results[-1]

        monkeypatch.setattr(optimizer, "run_faqua", tampered)
        trace = quagd_run(reference_instance(n=6, max_outer=2))
        assert all(a.y_conserved for a in results[0].audits)  # only z leaks
        assert not trace.steps[1].conservation_ok

    def test_empty_interval_needs_an_explicit_alpha(self):
        flat = CostFunction(lambda x: 0.0, lambda x: 0.0, 3.0, 0.5)  # L=6, mu=1, n=2
        cfg = small_config(graph=complete(2), costs=[flat] * 2, x0=[1.0, 2.0])
        with pytest.raises(ConfigError, match="interval is empty"):
            quagd_run(cfg)
        cfg.alpha = 0.5  # no admissible interval to warn about
        assert quagd_run(cfg).steps[-1].k == cfg.max_outer

    def test_nontermination_carries_outer_step(self):
        from quagd.consensus import ConsensusNonterminationError

        cfg = small_config(max_rounds=1, x0=[0.0, 0.0, 0.0, 9.0], alpha=0.9)
        with pytest.raises(ConsensusNonterminationError) as err:
            quagd_run(cfg)
        assert err.value.outer_step == 0

    @pytest.mark.filterwarnings("ignore:alpha=50.0 outside")
    def test_divergence_carries_outer_step(self):
        from quagd.harness import reference_instance

        cfg = replace(reference_instance(n=10, max_outer=200), alpha=50.0)
        # with the optimum known the residual overflows first; without it
        # the stepped values themselves leave the floats
        for x_star, step in ((quadratic_optimum(cfg.costs), 91), (None, 182)):
            with pytest.raises(DivergenceError) as err:
                quagd_run(cfg, x_star=x_star)
            assert err.value.outer_step == step
            assert str(err.value).startswith(f"divergence at outer step {step}: ")

    @pytest.mark.filterwarnings("ignore:alpha=1e\\+159 outside")
    def test_non_finite_initial_residual_is_config_error(self):
        cfg = small_config(x0=[1e200, 6.0, 7.0, 8.0])
        with pytest.raises(ConfigError, match="initial estimates"):
            quagd_run(cfg, x_star=quadratic_optimum(cfg.costs))
        # a residual that overflows after the first step is still divergence
        cfg = small_config(alpha=1e159)
        with pytest.raises(DivergenceError) as err:
            quagd_run(cfg, x_star=quadratic_optimum(cfg.costs))
        assert err.value.outer_step == 0

    def test_validation_rejects_non_finite_alpha_and_initials(self):
        for bad in (math.inf, math.nan):
            for overrides in (dict(alpha=bad), dict(x0=[1.0, bad, 2.0, 3.0])):
                with pytest.raises(ConfigError):
                    small_config(**overrides).validate()

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_validation_rejects_a_step_size_that_is_not_positive(self, alpha):
        with pytest.raises(ConfigError, match="step size must be"):
            small_config(alpha=alpha, max_outer=0).validate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before the interval warning
            with pytest.raises(ConfigError, match="step size must be"):
                quagd_run(small_config(alpha=alpha))

    @pytest.mark.parametrize("max_rounds", [0, -5])
    def test_round_budget_below_one_is_config_error(self, max_rounds):
        with pytest.raises(ConfigError, match=f"max_rounds must be >= 1, got {max_rounds}") as err:
            quagd_run(small_config(max_rounds=max_rounds))
        assert not hasattr(err.value, "outer_step")  # refused before any step

    @pytest.mark.parametrize("field, value", [("master_seed", 1.5), ("max_outer", 2.5),
                                              ("d_bound", 10.5), ("max_rounds", 2.5),
                                              ("master_seed", None), ("max_outer", "3")])
    def test_non_integer_counts_are_config_errors(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            quagd_run(small_config(**{field: value}))

    @pytest.mark.parametrize("field", ["max_outer", "master_seed", "d_bound", "max_rounds"])
    def test_bool_counts_are_config_errors(self, field):
        # True would read as 1: one outer step, seed 1, a budget of one round
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got True"):
            quagd_run(small_config(**{field: True}))

    @pytest.mark.parametrize(
        "overrides, message",
        [({"alpha": True}, "step size must be finite, got True"),
         ({"x0": [5.0, True, 7.0, 8.0]},
          "initial estimates must be finite and nonnegative, node 1 has True"),
         ({"alpha": "0.5"}, "step size must be finite, got '0.5'"),
         ({"x0": ["1"] * 4},
          "initial estimates must be finite and nonnegative, node 0 has '1'")],
        ids=["bool-alpha", "bool-initial-estimate", "str-alpha", "str-initial-estimate"],
    )
    def test_bool_step_size_or_initial_estimate_is_config_error(self, overrides, message):
        # True would read as 1: a step size of 1, outside (0.5, 1), or an estimate of 1;
        # refused before the interval warning, which the test settings make an error
        with pytest.raises(ConfigError, match=re.escape(message)):
            quagd_run(small_config(**overrides))

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_seed_outside_64_bits_is_config_error(self, seed):
        # mix64 masks to 64 bits, so such a seed would alias one inside
        with pytest.raises(ConfigError, match=rf"master_seed must be in \[0, 2\*\*64\), got {seed}"):
            quagd_run(small_config(master_seed=seed))
        small_config(master_seed=2**64 - 1).validate()

    def test_validation_rejects_negative_initials(self):
        cfg = small_config(x0=[1.0, -0.5, 2.0, 3.0])
        with pytest.raises(ConfigError, match="node 1"):
            quagd_run(cfg)

    def test_validation_rejects_length_mismatch(self):
        cfg = small_config(x0=[1.0, 2.0])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_validation_rejects_cost_count_mismatch(self):
        cfg = small_config(costs=[quadratic_cost(1.0, 1.0)] * 3)
        with pytest.raises(ConfigError, match="expected 4 cost functions, got 3"):
            cfg.validate()

    def test_monotone_contraction_outside_error_floor(self):
        # once the squared centroid error exceeds twice the asymptotic bound,
        # the next squared centroid error must be smaller
        from quagd.harness import default_theory, reference_instance

        for seed in (0, 1, 2):
            cfg = reference_instance(seed=seed, delta="0.001")
            x_star = quadratic_optimum(cfg.costs)
            trace = quagd_run(cfg, x_star=x_star)
            bound = 2 * float(default_theory(cfg).asymptotic_bound)
            n = cfg.graph.n
            sq = [
                (sum(s.estimates) / n - x_star) ** 2 for s in trace.steps
            ]
            for prev, nxt in zip(sq, sq[1:]):
                if prev > bound:
                    assert nxt < prev


@pytest.mark.parametrize("delta", ["0.1", "0.01", "0.001"])
def test_quagd_run_follows_the_quantized_map(delta):
    """On the reference instance, seeds 0-9, every step of quagd_run is the
    quantized map's (optimizer._predict): the consensus outputs lo, the
    floor of the stepped values' count sum over n, and every node holds
    float(lo * delta); the graph and the draws set only the rounds."""
    from quagd.harness import reference_instance
    from quagd.optimizer import _predict

    for seed in range(10):
        cfg = reference_instance(seed=seed, delta=delta)
        steps = quagd_run(cfg).steps
        predicted = _predict(cfg, cfg.effective_alpha(), cfg.delta)
        assert len(predicted) == len(steps) - 1 == cfg.max_outer
        for step, (x_half, lo) in zip(steps[1:], predicted):
            assert step.estimates == [float(lo * cfg.delta.delta)] * cfg.graph.n
            assert step.stepped_size == max(map(abs, x_half))
