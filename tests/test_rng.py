"""node_streams, NodeStreams and mix64 against their definitions, apart from
the goldens.

node_streams(m, n, k)[j] and NodeStreams(m, n).at(k)[j] must be a
random.Random in the state random.Random(mix64(m, j, k)) has, whatever
earlier steps drew from a reseeded stream, and mix64 the splitmix64 chain
written out below; the kernel, the outer loop and tests/consensus_reference.py
build on them.
"""

import copy
import pickle
import random

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

from quagd.rng import NodeStreams, mix64, node_streams

MASK = (1 << 64) - 1


def splitmix64_chain(*parts):
    """mix64 as first written: one splitmix64 finalizer per part."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = (h ^ (part & MASK)) & MASK
        h = (h + 0x9E3779B97F4A7C15) & MASK
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & MASK
        h = h ^ (h >> 31)
    return h


# Master seeds and outer steps, negative and >= 2**64 ones included.
CASES = [(0, 0), (1, 0), (7, 3), (-1, 0), (-5, 2), (2**64, 1), (2**64 + 7, -9),
         (2**70 + 3, 2**65), (123, -(2**64) - 1)]
MASTERS = sorted({master for master, _ in CASES})
# Outer steps in the order a run reseeds its streams: repeats, going back and
# beyond 64 bits.
STEPS = [0, 3, -9, 3, 2**65]


def consume(streams):
    """Draw from every stream, as a consensus step would and more."""
    for s in streams:
        s.getrandbits(37)
        s.random()
        s.choice(range(5))


@pytest.mark.parametrize("parts", [(), (0,), (0, 0, 0), (5, -3), (2**64 + 1, 2**80, -7)])
def test_mix64_is_the_splitmix64_chain(parts):
    assert mix64(*parts) == splitmix64_chain(*parts)
    assert 0 <= mix64(*parts) <= MASK


def test_mix64_pinned_values():
    assert mix64() == 11400714819323198485
    assert mix64(0) == 7960286522194355700
    assert mix64(0, 0, 0) == 9271759356047530030


@pytest.mark.parametrize("master, step", CASES)
def test_each_stream_is_random_seeded_with_mix64(master, step):
    streams = node_streams(master, 12, step)
    assert len(streams) == 12
    for j, s in enumerate(streams):
        assert isinstance(s, random.Random)
        assert s.getstate() == random.Random(splitmix64_chain(master, j, step)).getstate()


@pytest.mark.parametrize("master", MASTERS)
def test_reseeded_streams_match_fresh_ones(master):
    run = NodeStreams(master, 5)
    for k in STEPS:
        streams = run.at(k)
        assert [s.getstate() for s in streams] == [
            random.Random(splitmix64_chain(master, j, k)).getstate() for j in range(5)
        ]
        consume(streams)


def test_at_returns_the_same_list_every_step():
    run = NodeStreams(11, 4)
    first = run.at(0)
    objects = list(first)
    for k in STEPS:
        assert run.at(k) is first
        assert all(a is b for a, b in zip(run.at(k), objects))
    assert NodeStreams(11, 0).at(3) == []


@pytest.mark.parametrize("master, step", CASES)
def test_node_streams_is_a_fresh_stream_set_at_one_step(master, step):
    streams = node_streams(master, 6, step)
    assert [s.getstate() for s in streams] == [
        s.getstate() for s in NodeStreams(master, 6).at(step)
    ]
    assert node_streams(master, 6, step) is not streams


def test_draws_match_random():
    s, r = node_streams(42, 3, 5)[2], random.Random(mix64(42, 2, 5))
    seq = list(range(7))
    assert [s.choice(seq) for _ in range(50)] == [r.choice(seq) for _ in range(50)]
    assert [s.gauss(0.0, 1.0) for _ in range(5)] == [r.gauss(0.0, 1.0) for _ in range(5)]
    assert s.getstate() == r.getstate()  # gauss leaves the same cached value
    assert [s.getrandbits(100) for _ in range(3)] == [r.getrandbits(100) for _ in range(3)]
    assert s.random() == r.random()


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_continue_the_stream(clone):
    s = node_streams(9, 2, 1)[1]
    s.gauss(0.0, 1.0)  # leaves a cached second value in the state
    twin = clone(s)
    assert isinstance(twin, random.Random)
    assert twin.getstate() == s.getstate()
    assert [twin.random() for _ in range(5)] == [s.random() for _ in range(5)]
    assert twin.gauss(0.0, 1.0) == s.gauss(0.0, 1.0)


def test_reseeding_behaves_as_random():
    s, r = node_streams(3, 1, 0)[0], random.Random(0)
    s.seed("text")
    r.seed("text")
    assert s.getstate() == r.getstate()


if given is not None:  # the property needs hypothesis

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(master=st.integers(-(2**80), 2**80), step=st.integers(-(2**80), 2**80),
           n=st.integers(1, 5))
    def test_streams_match_their_definition(master, step, n):
        assert [s.getstate() for s in node_streams(master, n, step)] == [
            random.Random(splitmix64_chain(master, j, step)).getstate() for j in range(n)
        ]

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(master=st.integers(-(2**80), 2**80),
           steps=st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=5),
           n=st.integers(1, 4))
    def test_reseeded_streams_match_their_definition(master, steps, n):
        run = NodeStreams(master, n)
        for k in steps:
            streams = run.at(k)
            assert [s.getstate() for s in streams] == [
                random.Random(splitmix64_chain(master, j, k)).getstate() for j in range(n)
            ]
            consume(streams)
