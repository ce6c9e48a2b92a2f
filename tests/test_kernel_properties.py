"""Hypothesis properties of the integer kernels: the reference mass split
of the consensus protocol and floor quantization, on extreme, negative and
multi-thousand-digit values, and the agreement of the consensus kernel's
untraced, traced and tamper paths with the reference run."""

import io
import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consensus_reference import reference_run, split_mass  # noqa: E402
from quagd.consensus import ConsensusNonterminationError, run_faqua  # noqa: E402
from quagd.graph import diameter, generate_random_strongly_connected  # noqa: E402
from quagd.quantizer import QuantizationLevel, quantize_floor  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, database=None)
HUGE = 10**3000


@st.composite
def destinations(draw):
    """(self id, destination list): self plus 0-5 distinct other nodes."""
    self_id = draw(st.integers(0, 50))
    others = draw(
        st.lists(st.integers(0, 50).filter(lambda j: j != self_id),
                 max_size=5, unique=True)
    )
    return self_id, [self_id, *others]


@PROPERTY
@given(
    y=st.integers(-HUGE, HUGE),
    z=st.integers(2, 64),
    dests=destinations(),
    seed=st.integers(0, 2**32),
)
def test_split_mass_conserves_and_bounds_pieces(y, z, dests, seed):
    self_id, targets = dests
    out = split_mass(y, z, random.Random(seed), self_id, targets)
    assert sum(cy for cy, _ in out.values()) == y
    assert sum(cz for _, cz in out.values()) == z
    assert set(out) <= set(targets)
    base = y // z
    for cy, cz in out.values():
        assert cz >= 1
        assert base * cz <= cy <= (base + 1) * cz
    # self holds the kept minimum piece: at least one of its pieces is base
    kept_y, kept_z = out[self_id]
    assert kept_y <= base + (base + 1) * (kept_z - 1)


@PROPERTY
@given(y=st.integers(-HUGE, HUGE), z=st.integers(-5, 1))
def test_split_mass_rejects_fewer_than_two_units(y, z):
    with pytest.raises(ValueError):
        split_mass(y, z, random.Random(0), 0, [0, 1])


# decimal-string levels from 1e-30 to ~1e36, parsed exactly
LEVELS = st.builds(
    lambda m, e: QuantizationLevel(f"{m}e{e}"),
    st.integers(1, 10**6),
    st.integers(-30, 30),
)
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals included
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0]),
    st.integers(-HUGE, HUGE),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
)


@PROPERTY
@given(x=VALUES, q=LEVELS)
def test_quantize_floor_brackets_value_exactly(x, q):
    c = quantize_floor(x, q)
    exact = Fraction(x)
    assert c * q.delta <= exact < (c + 1) * q.delta


@PROPERTY
@given(x=st.sampled_from([math.nan, math.inf, -math.inf]), q=LEVELS)
def test_quantize_floor_rejects_non_finite(x, q):
    with pytest.raises(ValueError):
        quantize_floor(x, q)


def _outcome(run):
    """A run's result, or the round budget and (y, z, y_s, z_s, M, m)
    snapshot of its nontermination error."""
    try:
        res = run()
    except ConsensusNonterminationError as err:
        return err.rounds, [(st.y, st.z, st.y_s, st.z_s, st.M, st.m) for st in err.states]
    audits = [(a.round_index, a.y_conserved, a.z_conserved) for a in res.audits]
    return (res.value, res.value_count, res.rounds_used, res.per_node_values,
            res.quantized_sum, audits)


def _without_extrema(outcome, text):
    """A traced outcome with M and m left out of an error's snapshot:
    reference_run floods its states' M and m, while the kernel keeps them as
    reseeded at the last window start."""
    if len(outcome) == 2:  # a nontermination error's budget and snapshot
        outcome = outcome[0], [node[:4] for node in outcome[1]]
    return outcome, text


def _corrupt(lam, msgs):
    """Adds a unit of y to each round's first message and drops every third
    round's last one."""
    if msgs:
        msgs[0].c_y += 1
    return msgs[:-1] if lam % 3 == 0 else msgs


@PROPERTY
@given(
    n=st.integers(2, 9),
    edge_prob=st.floats(0.0, 0.6),
    graph_seed=st.integers(0, 2**32),
    extra_d=st.integers(0, 3),
    level=st.sampled_from(["1", "0.25", "0.01"]),
    data=st.data(),
)
def test_untraced_traced_and_tamper_paths_agree(
    n, edge_prob, graph_seed, extra_d, level, data
):
    """The untraced kernel reads the window extrema, the traced one's writer
    floods them and checks the flood, the tamper path splits on shared draws
    and rebuilds messages from them, and reference_run splits through
    split_mass: all four return the same result on the same draws, the
    kernel's three paths the same full snapshot when the round budget runs
    out (reference_run the same y, z, y_s and z_s), and the traced kernel
    writes reference_run's trace text byte for byte, also under a tamper
    hook."""
    g = generate_random_strongly_connected(n, edge_prob, graph_seed)
    d_bound = diameter(g) + extra_d
    x = data.draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2**32))
    max_rounds = data.draw(st.one_of(st.none(), st.integers(1, 30)))
    q = QuantizationLevel(level)

    def run(kernel=run_faqua, **kw):
        return _outcome(lambda: kernel(x, g, d_bound, q, seed, max_rounds, **kw))

    def traced(kernel=run_faqua, **kw):
        text = io.StringIO()
        return run(kernel, trace=text, **kw), text.getvalue()

    untraced, (outcome, text) = run(), traced()
    assert outcome == untraced
    assert run(tamper=lambda lam, msgs: msgs) == untraced
    assert _without_extrema(*traced(reference_run)) == _without_extrema(outcome, text)
    corrupt = traced(tamper=_corrupt)
    assert run(tamper=_corrupt) == corrupt[0]
    assert _without_extrema(*traced(reference_run, tamper=_corrupt)) == _without_extrema(*corrupt)
