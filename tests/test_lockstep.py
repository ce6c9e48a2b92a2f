"""A sweep's levels run in lockstep on shared draws (consensus._run_lanes
inside optimizer._run_levels); each level must still give exactly what its
own run gives: the same consensus results, the same StepRecords, and the
same failure, outer step and nontermination snapshot."""

import warnings
from dataclasses import replace

import pytest

from quagd.consensus import ConsensusNonterminationError, _run_lanes, run_faqua
from quagd.graph import Digraph, diameter
from quagd.harness import delta_sweep, reference_instance
from quagd.optimizer import DivergenceError, quadratic_optimum, quagd_run
from quagd.quantizer import QuantizationLevel
from quagd.rng import node_streams


def _check_property(check, **strategies):
    """Run check as a derandomized hypothesis property over strategies.  Only
    the properties need hypothesis; the directed tests run without it."""
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(derandomize=True, deadline=None, database=None,
                                   max_examples=60)
    settings(hypothesis.given(**strategies)(check))()


def _consensus_view(res):
    """A consensus result's numbers and audits, or an error's type, message
    and, for nontermination, full snapshot (M and m included)."""
    if isinstance(res, Exception):
        return type(res), str(res), getattr(res, "states", None)
    audits = [(a.round_index, a.y_conserved, a.z_conserved) for a in res.audits]
    return (res.value, res.value_count, res.rounds_used, res.per_node_values,
            res.quantized_sum, audits)


def test_each_lane_equals_its_solo_run():
    """On a ring most splits are z = 2 halves; on complete(n) units pile up
    and split into many pieces, so both split branches run."""
    st = pytest.importorskip("hypothesis.strategies")

    def check(n, complete, levels, data):
        if complete:
            g = Digraph(n, [(r, s) for r in range(n) for s in range(n) if r != s])
        else:
            g = Digraph(n, [((j + 1) % n, j) for j in range(n)])
        d_bound = diameter(g) + data.draw(st.integers(0, 2))
        qs = [QuantizationLevel(v) for v in levels]
        xs = [data.draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
              for _ in qs]
        seed = data.draw(st.integers(0, 2**32))
        max_rounds = data.draw(st.one_of(st.none(), st.integers(0, 30)))
        try:
            lanes = _run_lanes(xs, g, d_bound, qs, node_streams(seed, n, 0), max_rounds)
        except ValueError as err:  # a zero round budget, refused as in a solo run
            lanes = [err] * len(qs)
        for x, q, lane in zip(xs, qs, lanes):
            try:
                solo = run_faqua(x, g, d_bound, q, seed, max_rounds)
            except (ValueError, ConsensusNonterminationError) as err:
                solo = err
            assert _consensus_view(lane) == _consensus_view(solo)

    _check_property(
        check,
        n=st.integers(2, 8),
        complete=st.booleans(),
        levels=st.lists(st.sampled_from(["5", "1", "0.25", "0.01"]),
                        min_size=1, max_size=4),
        data=st.data(),
    )


def _assert_entries_equal_solo_runs(cfg, levels):
    x_star = quadratic_optimum(cfg.costs)
    report = delta_sweep(cfg, levels)
    for level, entry in zip(levels, report.entries):
        try:
            solo = quagd_run(replace(cfg, delta=QuantizationLevel(level)), x_star=x_star)
        except (ValueError, ConsensusNonterminationError, DivergenceError) as exc:
            err = entry.exception
            assert (type(err), str(err)) == (type(exc), str(exc))
            assert getattr(err, "outer_step", None) == getattr(exc, "outer_step", None)
            assert getattr(err, "states", None) == getattr(exc, "states", None)
        else:
            assert entry.exception is None
            assert entry.trace.steps == solo.steps
    return report


def test_sweep_entries_equal_solo_runs():
    st = pytest.importorskip("hypothesis.strategies")

    def check(seed, n, edge_prob, levels, extra_d, max_rounds):
        cfg = reference_instance(n=n, edge_prob=edge_prob, seed=seed, max_outer=6)
        if extra_d is not None:
            cfg.d_bound = diameter(cfg.graph) + extra_d
        cfg.max_rounds = max_rounds
        _assert_entries_equal_solo_runs(cfg, levels)

    _check_property(
        check,
        seed=st.integers(0, 11),
        n=st.integers(2, 8),
        edge_prob=st.floats(0.0, 0.6),
        levels=st.lists(
            st.sampled_from(["1", "0.25", "0.1", "0.01", "0.001"]),
            min_size=1, max_size=4, unique=True,
        ),
        extra_d=st.one_of(st.none(), st.integers(0, 2)),
        max_rounds=st.one_of(st.none(), st.integers(0, 60)),
    )


def test_failing_and_succeeding_levels_share_a_sweep():
    cfg = reference_instance(n=6, seed=0, max_outer=5)
    cfg.max_rounds = 40  # the coarsest level settles within it, the others do not
    report = _assert_entries_equal_solo_runs(cfg, ["1", "0.1", "0.001"])
    ok, *failed = report.entries
    assert ok.exception is None
    assert all(isinstance(e.exception, ConsensusNonterminationError) for e in failed)


def test_inline_split_passes_on_while_a_third_lane_replays(monkeypatch):
    """The coarsest level, lane 0, settles first in every outer step; lane 1
    then splits inline, updating its own y_s, while lane 2 replays its
    draws, and lane 2 finishes alone on the inline split."""
    rounds = []

    def spy(*args, **kwargs):
        lanes = _run_lanes(*args, **kwargs)
        rounds.append([lane.rounds_used for lane in lanes])
        return lanes

    monkeypatch.setattr("quagd.optimizer._run_lanes", spy)
    cfg = reference_instance(n=6, seed=0, max_outer=4)
    report = _assert_entries_equal_solo_runs(cfg, ["1", "0.01", "0.0001"])
    assert all(entry.exception is None for entry in report.entries)
    assert len(rounds) == 4
    assert all(first < second < third for first, second, third in rounds)


@pytest.mark.parametrize("hook", ["trace", "tamper"])
def test_trace_and_tamper_take_one_lane_only(hook):
    """The kernel's one observer acts on lane 0, which would go on being
    observed after it stopped while other lanes run, so several levels are
    refused.  On one lane it is called once a round, and so are run_faqua's
    trace writer and tamper hook, which it is built from."""
    g = Digraph(3, [((j + 1) % 3, j) for j in range(3)])
    qs = [QuantizationLevel("1"), QuantizationLevel("0.1")]
    calls = []

    def observer(lam, ys, zs, ys_s, zs_s, M, m, splits):
        calls.append(lam)

    with pytest.raises(ValueError, match="an observer acts on one lane, got 2 levels"):
        _run_lanes([[1.0, 2.0, 3.0]] * 2, g, 2, qs, 0, observer=observer)
    assert calls == []
    [one] = _run_lanes([[1.0, 2.0, 3.0]], g, 2, qs[:1], 0, observer=observer)
    solo = run_faqua([1.0, 2.0, 3.0], g, 2, qs[0], 0)
    assert _consensus_view(one) == _consensus_view(solo)
    assert calls == list(range(1, one.rounds_used + 1))

    writes, hooked = [], []

    def tamper(lam, msgs):
        hooked.append(lam)
        return msgs

    class Stream:
        write = writes.append

    kw = {"trace": Stream()} if hook == "trace" else {"tamper": tamper}
    res = run_faqua([1.0, 2.0, 3.0], g, 2, qs[0], 0, **kw)
    assert _consensus_view(res) == _consensus_view(solo)
    if hook == "trace":  # one write per round, then the RESULT line
        assert [w.split("\t", 1)[0] for w in writes] == [*map(str, calls), "RESULT"]
    else:
        assert hooked == calls


def test_too_small_d_bound_fails_every_level():
    cfg = reference_instance(n=6, seed=0, max_outer=3)
    cfg.d_bound = diameter(cfg.graph) - 1
    report = _assert_entries_equal_solo_runs(cfg, ["1", "0.1"])
    assert all(e.exception.outer_step == 0 for e in report.entries)


def test_divergence_and_warnings_match_solo_runs():
    cfg = reference_instance(n=10, alpha=50.0, max_outer=200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = _assert_entries_equal_solo_runs(cfg, ["0.1", "0.01"])
    assert all(isinstance(e.exception, DivergenceError) for e in report.entries)
    # one warning per level, in the sweep as in each level's own run
    assert len(caught) == 4
    assert len({(w.category, str(w.message)) for w in caught}) == 1
