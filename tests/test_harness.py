import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from quagd.graph import Digraph
from quagd.harness import (
    audit_invariants,
    centralized_baseline,
    default_theory,
    delta_sweep,
    plateau_level,
    reference_instance,
    write_sweep_csv,
    write_trace_csv,
)
from quagd.optimizer import (
    ConfigError,
    CostFunction,
    DivergenceError,
    OptRunConfig,
    quadratic_cost,
    quadratic_optimum,
    quagd_run,
)
from quagd.quantizer import QuantizationLevel
from quagd.trace import RunTrace, StepRecord, residual_error


def complete(n):
    return Digraph(n, [(r, s) for r in range(n) for s in range(n) if r != s])


class TestResidualError:
    def test_initial_state_gives_sqrt_n(self):
        x0 = [float(i) for i in range(1, 21)]
        assert residual_error(x0, x0, 100.0) == pytest.approx(math.sqrt(20))

    def test_exact_convergence_gives_zero(self):
        assert residual_error([1.0, 1.0], [0.0, 2.0], 1.0) == 0.0

    def test_hand_case(self):
        r = residual_error([0.5, 1.5], [0.0, 2.0], 1.0)
        assert r == pytest.approx(math.sqrt(0.5))

    def test_permutation_invariant(self):
        x = [3.0, 1.0, 4.0]
        x0 = [9.0, 8.0, 7.0]
        a = residual_error(x, x0, 2.0)
        b = residual_error(list(reversed(x)), list(reversed(x0)), 2.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_denominator_names_node(self):
        with pytest.raises(ValueError, match="node 1"):
            residual_error([0.0, 0.0], [5.0, 2.0], 2.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            residual_error([1.0, 2.0], [5.0], 2.0)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("call", [
    lambda cfg: quagd_run(cfg, x_star=4.0),
    lambda cfg: _raise(delta_sweep(cfg, ["0.1"]).entries[0].exception),
    centralized_baseline,
], ids=["quagd_run", "delta_sweep", "centralized_baseline"])
def test_initial_estimate_at_the_optimum_is_config_error(call):
    # node 0 starts at x* = 4, where residual_error is undefined
    cfg = OptRunConfig(graph=complete(4), costs=[quadratic_cost(1.0, 4.0)] * 4,
                       delta="0.01", x0=[4.0, 5.0, 6.0, 7.0], max_outer=3, master_seed=0)
    with pytest.raises(ConfigError) as exc:
        call(cfg)
    assert str(exc.value) == "node 0: initial estimate equals the optimum, residual undefined"


class TestCentralizedBaseline:
    def test_identical_quadratics_linear_recursion(self):
        n, alpha, c = 4, 0.6, 3.0
        cfg = OptRunConfig(
            graph=complete(n),
            costs=[quadratic_cost(1.0, c)] * n,
            delta="0.01",
            x0=[8.0] * n,
            max_outer=10,
            master_seed=0,
            alpha=alpha,
        )
        trace = centralized_baseline(cfg)
        x = 8.0
        for step in trace.steps:
            assert step.estimates == pytest.approx([x] * n, rel=1e-12)
            x = x * (1 - alpha) + alpha * c
        assert abs(trace.steps[-1].estimates[0] - c) < 1e-2

    def test_zero_alpha_is_constant(self):
        cfg = OptRunConfig(
            graph=complete(2),
            costs=[quadratic_cost(1.0, 0.0)] * 2,
            delta="1",
            x0=[4.0, 4.0],
            max_outer=5,
            master_seed=0,
            alpha=1e-12,  # alpha must be positive; vanishingly small
        )
        trace = centralized_baseline(cfg)
        assert trace.steps[-1].estimates[0] == pytest.approx(4.0)

    def test_geometric_contraction_factor(self):
        # identical unit quadratics contract the distance to the optimum by
        # exactly |1 - alpha| per step
        alpha, c = 0.75, 2.0
        cfg = OptRunConfig(
            graph=complete(3),
            costs=[quadratic_cost(1.0, c)] * 3,
            delta="1",
            x0=[10.0] * 3,
            max_outer=8,
            master_seed=0,
            alpha=alpha,
        )
        trace = centralized_baseline(cfg)
        errs = [abs(s.estimates[0] - c) for s in trace.steps]
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt == pytest.approx(prev * abs(1 - alpha))

    @pytest.mark.filterwarnings("ignore:alpha=50.0 outside")
    def test_divergence_carries_the_outer_step_of_quagd_run(self):
        cfg = replace(reference_instance(n=10, max_outer=200), alpha=50.0)
        with pytest.raises(DivergenceError) as baseline:
            centralized_baseline(cfg)
        with pytest.raises(DivergenceError) as run:
            quagd_run(cfg, x_star=quadratic_optimum(cfg.costs))
        assert baseline.value.outer_step == run.value.outer_step == 91

    def test_non_finite_iterate_without_an_optimum_is_divergence(self):
        # a cost outside the quadratic family: no residual, so the iterate
        # itself must leave the floats
        linear = CostFunction(
            evaluate=lambda x: x * x / 2, gradient=lambda x: x,
            lipschitz=1.0, strong_convexity=1.0,
        )
        cfg = OptRunConfig(
            graph=complete(2), costs=[linear] * 2, delta="1", x0=[1.0, 2.0],
            max_outer=400, master_seed=0, alpha=1e100,
        )
        with pytest.raises(DivergenceError, match="not finite") as err:
            centralized_baseline(cfg)
        assert err.value.outer_step == 3


class TestDeltaSweep:
    def test_three_levels_strictly_ordered(self):
        cfg = reference_instance(seed=0)
        report = delta_sweep(cfg, ["0.1", "0.01", "0.001"])
        plateaus = [e.plateau for e in report.entries]
        assert plateaus[2] < plateaus[1] < plateaus[0]
        assert all(e.error is None for e in report.entries)
        assert all(e.theory_floor is not None for e in report.entries)

    def test_single_level(self):
        cfg = reference_instance(seed=1, max_outer=15)
        report = delta_sweep(cfg, ["0.05"])
        assert len(report.entries) == 1
        assert report.entries[0].plateau is not None

    def test_huge_delta_is_quantization_dominated(self):
        cfg = reference_instance(seed=2, max_outer=15)
        report = delta_sweep(cfg, ["100"])
        assert report.entries[0].iters_to_plateau == 0  # saturated at once

    def test_theory_floor_beyond_floats_is_infinite(self):
        cfg = reference_instance(n=3, max_outer=1)
        entry = delta_sweep(cfg, ["1e200"]).entries[0]  # the floor scales as delta^2
        assert entry.error is None and entry.theory_floor == math.inf

    def test_duplicate_levels_rejected(self):
        cfg = reference_instance(seed=0, max_outer=5)
        with pytest.raises(ConfigError):
            delta_sweep(cfg, ["0.1", "0.1"])

    @pytest.mark.parametrize(
        "levels",
        [[], ["0.1", "0.1000000000000000000001"]],
        ids=["none", "sharing-a-name"],
    )
    def test_no_levels_or_levels_sharing_a_name_rejected(self, levels):
        cfg = reference_instance(n=4, max_outer=3)
        with pytest.raises(ConfigError, match="distinct as floats"):
            delta_sweep(cfg, levels)

    @pytest.mark.filterwarnings("ignore:alpha=0.5 outside")
    def test_theory_floor_only_inside_the_open_interval(self):
        # the reference interval at n=10 is (0.5, 1.0)
        for alpha, inside in ((0.5, False), (0.6, True)):
            cfg = replace(reference_instance(n=10, max_outer=10), alpha=alpha)
            entry = delta_sweep(cfg, ["0.1"]).entries[0]
            assert entry.error is None and entry.plateau is not None
            if inside:
                theory = default_theory(replace(cfg, delta=QuantizationLevel("0.1")))
                assert entry.theory_floor == float(theory.asymptotic_bound)
            else:
                assert entry.theory_floor is None

    def test_per_level_failure_recorded_not_raised(self):
        cfg = reference_instance(seed=3, max_outer=5)
        cfg = replace(cfg, max_rounds=1)  # forces nontermination
        report = delta_sweep(cfg, ["0.1", "0.01"])
        assert all(e.error is not None for e in report.entries)
        assert report.all_failed

    @pytest.mark.filterwarnings("ignore:alpha=50.0 outside")
    def test_divergence_recorded_programming_error_raised(self, monkeypatch):
        cfg = replace(reference_instance(n=10, max_outer=200), alpha=50.0)
        entry = delta_sweep(cfg, ["0.1"]).entries[0]
        assert isinstance(entry.exception, DivergenceError)
        assert entry.error.startswith("DivergenceError: divergence at outer step")

        def broken(*args):
            raise TypeError("bug in a level")

        # two live levels share the lanes kernel; one alone runs run_faqua
        monkeypatch.setattr("quagd.optimizer._run_lanes", broken)
        with pytest.raises(TypeError, match="bug in a level") as info:
            delta_sweep(cfg, ["0.1", "0.01"])
        assert info.value.outer_step == 0

    def test_bit_reproducible(self, tmp_path):
        paths = []
        for i in range(2):
            cfg = reference_instance(seed=9, max_outer=20)
            report = delta_sweep(cfg, ["0.1", "0.01"])
            p = tmp_path / f"sweep{i}.csv"
            write_sweep_csv(report, str(p))
            t = tmp_path / f"trace{i}.csv"
            write_trace_csv(report.entries[0].trace, str(t))
            paths.append((p.read_bytes(), t.read_bytes()))
        assert paths[0] == paths[1]


class TestAuditInvariants:
    def test_clean_run(self):
        cfg = reference_instance(seed=4, max_outer=20, delta="0.01")
        trace = quagd_run(cfg, x_star=quadratic_optimum(cfg.costs))
        assert audit_invariants(trace).clean

    def test_manufactured_violations_reported(self):
        trace = RunTrace(delta=Fraction(1, 100))
        trace.steps.append(StepRecord(k=0, estimates=[1.0, 2.0]))
        trace.steps.append(
            StepRecord(
                k=1,
                estimates=[1.5, 1.5],
                conservation_ok=False,
                accuracy_ok=False,
                centroid_err=1.0,  # way above 2*delta
                max_node_dev=1.0,  # way above 4*delta
            )
        )
        # every kind, in the audit's order, with its detail
        assert [(v.kind, v.step, v.detail) for v in audit_invariants(trace).violations] == [
            ("conservation", 1, "mass total changed during consensus"),
            ("accuracy", 1, "output further than delta from quantized mean"),
            ("centroid_bound", 1,
             "|mean estimate - mean stepped value| = 1.0 > 2*delta = 0.02"),
            ("deviation_bound", 1, "max node deviation 1.0 > 4*delta = 0.04"),
        ]

    @pytest.mark.parametrize("field, kind, bound", [("centroid_err", "centroid_bound", 2),
                                                    ("max_node_dev", "deviation_bound", 4)])
    def test_observer_bound_is_exact(self, field, kind, bound):
        # at the bound passes; a millionth past it, far beyond the roundoff slack, fails
        trace = RunTrace(delta=Fraction(1, 100))
        trace.steps.append(StepRecord(k=0, estimates=[1.0, 2.0]))
        for k, value in enumerate((bound * 0.01, bound * 0.01 * (1 + 1e-6)), 1):
            trace.steps.append(StepRecord(k=k, estimates=[1.5, 1.5], **{field: value}))
        assert [(v.kind, v.step) for v in audit_invariants(trace).violations] == [(kind, 2)]

    def test_roundoff_slack_scales_with_the_values(self):
        # near the values' resolution the means' roundoff is a few ulps of
        # them, which an absolute slack of 1e-15 reported as bound violations
        cfg = reference_instance(seed=0, max_outer=12, delta="1e-15")
        assert audit_invariants(quagd_run(cfg)).clean

    def test_roundoff_slack_sees_the_stepped_values(self):
        # centers of size 1e8 around a mean of 5: the stepped values are about
        # 1e7 times the estimates, and so is the roundoff of their mean
        for seed in range(5):
            cfg = reference_instance(seed=seed, max_outer=10, delta="1e-9")
            rnd = random.Random(seed)
            centers = [rnd.uniform(-1e8, 1e8) for _ in range(cfg.graph.n)]
            mean = sum(centers) / len(centers)
            costs = [quadratic_cost(1.0, c - mean + 5) for c in centers]
            trace = quagd_run(replace(cfg, costs=costs))
            assert audit_invariants(trace).clean
            assert min(step.stepped_size for step in trace.steps[1:]) > 1e6

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_estimate_keeps_the_check(self, bad):
        # a slack taken from a non-finite estimate would switch the bound off
        trace = RunTrace(delta=Fraction(1, 100))
        trace.steps.append(StepRecord(k=0, estimates=[bad, 2.0]))
        trace.steps.append(StepRecord(k=1, estimates=[1.5, 1.5], centroid_err=1.0))
        assert [(v.kind, v.step) for v in audit_invariants(trace).violations] == [
            ("centroid_bound", 1)]

    def test_observed_bounds_shrink_with_delta(self):
        # halving delta should shrink the observed centroid error roughly
        # proportionally; allow generous slack for protocol randomness
        def worst_centroid(delta):
            cfg = reference_instance(seed=5, max_outer=25, delta=delta)
            trace = quagd_run(cfg)
            return max(s.centroid_err for s in trace.steps[1:])

        coarse = worst_centroid("0.1")
        fine = worst_centroid("0.0125")
        assert fine < coarse / 2


class TestCsvFormats:
    def test_trace_csv_shape(self, tmp_path):
        cfg = reference_instance(seed=6, max_outer=7)
        trace = quagd_run(cfg, x_star=quadratic_optimum(cfg.costs))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "k,residual,inner_rounds,centroid_err,max_node_dev"
        assert len(lines) == 1 + 7 + 1  # header + K steps + initial row
        assert lines[1].startswith("0,")
        assert lines[1].endswith(",0,,")  # no inner rounds / observer values at k=0

    def test_sweep_csv_shape(self, tmp_path):
        cfg = reference_instance(seed=7, max_outer=10)
        report = delta_sweep(cfg, ["0.1"])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "delta,plateau,iters_to_plateau,theory_floor"
        assert len(lines) == 2


class TestPlateau:
    def test_median_of_final_fifth(self):
        residuals = [100.0, 10.0, 1.0, 0.5, 0.4, 0.3, 0.2, 0.25, 0.22, 0.21]
        assert plateau_level(residuals) == pytest.approx(0.215)

    def test_single_point(self):
        assert plateau_level([3.0]) == 3.0
