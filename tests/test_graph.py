import io
import math
import os
import random
import tempfile
from decimal import Decimal
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

from quagd.consensus import run_faqua
from quagd.graph import (
    Digraph,
    GraphError,
    NotStronglyConnectedError,
    diameter,
    generate_random_strongly_connected,
    read_edge_list,
    write_edge_list,
)
from quagd.harness import reference_instance
from quagd.optimizer import quagd_run
from quagd.quantizer import QuantizationLevel


def cycle(n):
    # directed cycle 0 -> 1 -> ... -> n-1 -> 0, edges stored (receiver, sender)
    return Digraph(n, [((i + 1) % n, i) for i in range(n)])


def complete(n):
    return Digraph(n, [(r, s) for r in range(n) for s in range(n) if r != s])


def out_pairs(g):
    """Every (receiver, sender) pair, read from the out-lists."""
    return [(r, s) for s in range(g.n) for r in g.out_neighbors(s)]


def floyd_warshall_dists(g):
    """Independent all-pairs shortest-path oracle: dist[source][target]."""
    inf = float("inf")
    dist = [[inf] * g.n for _ in range(g.n)]
    for i in range(g.n):
        dist[i][i] = 0
    for send in range(g.n):
        for recv in g.out_neighbors(send):
            dist[send][recv] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def floyd_warshall_diameter(g):
    worst = max(max(row) for row in floyd_warshall_dists(g))
    assert worst < float("inf")
    return int(worst)


def floyd_warshall_pair(g):
    """The first source in index order that misses a node, and the first
    node it misses; None when every node reaches every node."""
    for source, row in enumerate(floyd_warshall_dists(g)):
        for target, d in enumerate(row):
            if d == float("inf"):
                return (source, target)
    return None


def unreachable_pair(g):
    """The witness pair that diameter raises, or None if it raises none."""
    try:
        diameter(g)
    except NotStronglyConnectedError as exc:
        return exc.pair
    return None


class TestStrongConnectivity:
    def test_three_cycle(self):
        assert unreachable_pair(cycle(3)) is None

    def test_directed_path_is_not(self):
        g = Digraph(3, [(1, 0), (2, 1)])
        assert unreachable_pair(g) is not None

    def test_complete_five(self):
        assert unreachable_pair(complete(5)) is None

    def test_unreachable_pair_is_a_witness(self):
        g = Digraph(4, [(1, 0), (2, 1), (3, 2)])
        i, j = unreachable_pair(g)
        # verify by brute-force BFS that j is indeed unreachable from i
        seen = {i}
        frontier = [i]
        while frontier:
            u = frontier.pop()
            for v in g.out_neighbors(u):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        assert j not in seen


class TestDiameter:
    def test_four_cycle(self):
        assert diameter(cycle(4)) == 3

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete_is_one(self, n):
        assert diameter(complete(n)) == 1

    def test_bidirectional_path_graph(self):
        edges = []
        for i in range(4):
            edges.append((i + 1, i))
            edges.append((i, i + 1))
        assert diameter(Digraph(5, edges)) == 4

    def test_rejects_disconnected(self):
        with pytest.raises(NotStronglyConnectedError):
            diameter(Digraph(3, [(1, 0), (2, 1)]))

    def test_matches_floyd_warshall_oracle(self):
        rnd = random.Random(7)
        for _ in range(60):
            n = rnd.randint(2, 12)
            g = generate_random_strongly_connected(n, rnd.random(), rnd.randrange(2**32))
            assert diameter(g) == floyd_warshall_diameter(g)

    def test_at_most_n_minus_one(self):
        rnd = random.Random(11)
        for _ in range(50):
            n = rnd.randint(2, 15)
            g = generate_random_strongly_connected(n, rnd.random() * 0.3, rnd.randrange(2**32))
            assert diameter(g) <= n - 1


    def test_witness_is_first_missing_source_and_target(self):
        # 0 sends to every node, 2 and 4 send to 0, 1 and 3 send to no one
        g = Digraph(5, [(1, 0), (2, 0), (3, 0), (4, 0), (0, 2), (0, 4)])
        assert unreachable_pair(g) == floyd_warshall_pair(g) == (1, 0)

    def test_long_ring(self):
        n = 300
        assert diameter(Digraph(n, [((i + 1) % n, i) for i in range(n)])) == n - 1


def _structure_outcome(g):
    try:
        return diameter(g)
    except NotStronglyConnectedError as exc:
        return "raised", exc.pair


if given is not None:  # the property needs hypothesis

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(
        n=st.integers(2, 12),
        density=st.floats(0.0, 1.0),
        rnd=st.randoms(use_true_random=False),
    )
    def test_structural_query_matches_floyd_warshall(n, density, rnd):
        edges = [
            (r, s) for r in range(n) for s in range(n)
            if r != s and rnd.random() < density
        ]
        g = Digraph(n, edges)
        first = _structure_outcome(g)
        pair = floyd_warshall_pair(g)
        if pair is None:
            assert first == floyd_warshall_diameter(g)
        else:
            assert first == ("raised", pair)
        assert _structure_outcome(g) == first  # the stored answer


class TestGenerator:
    def test_two_nodes_no_extras_is_the_two_cycle(self):
        g = generate_random_strongly_connected(2, 0.0, 123)
        assert g == Digraph(2, [(0, 1), (1, 0)])

    def test_always_strongly_connected(self):
        rnd = random.Random(5)
        for seed in range(100):
            n = rnd.randint(2, 30)
            g = generate_random_strongly_connected(n, rnd.random(), seed)
            assert unreachable_pair(g) is None

    def test_p_one_gives_complete(self):
        g = generate_random_strongly_connected(5, 1.0, 9)
        assert g == complete(5)
        assert diameter(g) == 1

    def test_deterministic_in_seed(self):
        a = generate_random_strongly_connected(20, 0.2, 42)
        b = generate_random_strongly_connected(20, 0.2, 42)
        assert a == b
        assert diameter(a) <= 19

    def test_rejects_bad_inputs(self):
        with pytest.raises(GraphError):
            generate_random_strongly_connected(1, 0.5, 0)
        with pytest.raises(GraphError):
            generate_random_strongly_connected(4, 1.5, 0)

    @pytest.mark.parametrize("n, seed", [(2.5, 0), (5, 1.5), (5, -3), (5, "3"), (5, None),
                                         (True, 0), (5, True)])
    def test_rejects_a_seed_or_node_count_that_would_alias(self, n, seed):
        # random.Random seeds from abs() and accepts floats, strings and bools
        with pytest.raises(GraphError, match="int node count and int seed >= 0"):
            generate_random_strongly_connected(n, 0.3, seed)

    def test_rejects_a_bool_edge_probability(self):
        # True would read as 1.0: the complete graph; text is no number either
        for p in (True, "0.5"):
            with pytest.raises(GraphError, match="extra_edge_prob must be in"):
                generate_random_strongly_connected(4, p, 0)

    @pytest.mark.parametrize("n, p, seed", [(2, 0.0, 1), (9, 0.3, 77), (40, 0.05, 3),
                                            (300, 37 / 256, 5), (60, 1.0, 2)])
    def test_tables_match_the_constructor(self, n, p, seed):
        g = generate_random_strongly_connected(n, p, seed)
        built = Digraph(n, out_pairs(g))
        assert (g.n, g._out, g._in, g._targets) == (
            built.n, built._out, built._in, built._targets)
        assert (diameter(g), repr(g)) == (diameter(built), repr(built))

    def test_does_not_go_through_the_constructor(self, monkeypatch):
        def refuse(self, n, edges):
            raise AssertionError("the generator went through Digraph.__init__")

        monkeypatch.setattr(Digraph, "__init__", refuse)
        g = generate_random_strongly_connected(50, 0.1, 4)
        assert unreachable_pair(g) is None and len(out_pairs(g)) >= 50


def reference_generator(n, extra_edge_prob, seed):
    """The per-pair loop that generate_random_strongly_connected reproduces:
    the shuffled cycle, then one rng.random() per remaining ordered pair,
    sender by sender, in receiver order."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for idx in range(n):
        sender = perm[idx]
        receiver = perm[(idx + 1) % n]
        edges.add((receiver, sender))
    for sender in range(n):
        for receiver in range(n):
            if receiver == sender or (receiver, sender) in edges:
                continue
            if rng.random() < extra_edge_prob:
                edges.add((receiver, sender))
    return Digraph(n, edges)


def assert_generator_matches_reference(n, p, seed):
    new = generate_random_strongly_connected(n, p, seed)
    old = reference_generator(n, p, seed)
    assert (new._out, new._in) == (old._out, old._in), (n, p, seed)


# k/256 puts the threshold's top byte at k with no lower bits, so every coin
# with that top byte is a miss; its float neighbours move the threshold by one.
TOP_BYTE_BOUNDARIES = [
    q for k in (1, 2, 37, 128, 255)
    for q in (math.nextafter(k / 256, 0), k / 256, math.nextafter(k / 256, 1))
]
EDGE_PROBS = [
    0, 1, 0.0, 1.0, 5e-324, 1 - 2**-53, *TOP_BYTE_BOUNDARIES,
    random.Random(3).random(), random.Random(4).random() * 0.05,
    Fraction(1, 3), Decimal("0.3"),
]


class TestGeneratorMatchesReferenceLoop:
    @pytest.mark.parametrize("p", EDGE_PROBS, ids=repr)
    def test_every_small_size(self, p):
        for n in range(2, 41):
            assert_generator_matches_reference(n, p, seed=1000 + n)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_600_nodes(self, seed):
        assert_generator_matches_reference(600, 0.006, seed)

    def test_coin_a_quarter_unit_below_an_exact_threshold(self):
        # p lies a quarter of 2**-53 above the first coin's random() >= 0.5,
        # where floats are 2**-53 apart: the coin is a hit, though float(p)
        # equals the coin's value and would make it a miss.
        checked = 0
        for seed in range(40):
            rng = random.Random(seed)
            rng.shuffle(list(range(6)))
            first = rng.random()
            if first < 0.5:
                continue
            p = Fraction(first) + Fraction(1, 2**55)
            assert float(p) == first
            assert_generator_matches_reference(6, p, seed)
            checked += 1
        assert checked >= 10


@pytest.mark.parametrize("p", [0.5, 1 - 2**-53, 37 / 256], ids=repr)
def test_300_nodes_dense_coins(p):
    # node ids above 255 and many marked coins per sender
    assert_generator_matches_reference(300, p, seed=300)


if given is not None:  # the property needs hypothesis

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(
        n=st.integers(2, 80),
        p=st.sampled_from(EDGE_PROBS) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_generator_matches_reference_property(n, p, seed):
        assert_generator_matches_reference(n, p, seed)


class TestDigraphBasics:
    def test_self_edges_are_implicit(self):
        g = Digraph(3, [(1, 0), (0, 0), (0, 1), (2, 0), (0, 2)])
        assert g.out_neighbors(0) == [1, 2]  # self excluded
        assert all(j not in g.out_neighbors(j) for j in range(3))

    def test_duplicate_edges_collapse(self):
        g = Digraph(2, [(1, 0), (1, 0), (0, 1)])
        assert (g.out_neighbors(0), g.out_neighbors(1)) == ([1], [0])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Digraph(3, [(0, 5)])

    @pytest.mark.parametrize("n, edges", [
        (3, [(1.0, 0), (2, 1), (0, 2)]),
        (2.5, [(1, 0), (0, 1)]),
        (3, [("1", 0)]),
        (3, [(True, 0), (2, 1), (0, 2)]),
        (True, [(0, 0)]),
    ], ids=["float-node-id", "float-node-count", "str-node-id", "bool-node-id",
            "bool-node-count"])
    def test_rejects_a_node_count_or_id_that_is_not_an_int(self, n, edges):
        with pytest.raises(GraphError, match="int"):
            Digraph(n, edges)

    def test_equal_when_node_count_and_out_lists_are(self):
        edges = [(1, 0), (2, 1), (0, 2), (2, 0)]
        g = Digraph(3, edges)
        assert g == Digraph(3, [(1, 1), *edges[::-1], *edges[:2], (0, 0)])
        generated = generate_random_strongly_connected(12, 0.3, 5)
        assert generated == Digraph(12, out_pairs(generated))
        assert g != Digraph(4, edges)
        assert g != Digraph(3, edges[:-1])
        assert g != Digraph(3, [*edges[:-1], (1, 2)])


class TestOutListsAreTheOnlyTable:
    def test_every_constructor_stores_the_out_lists_only(self, tmp_path):
        path = str(tmp_path / "g.txt")
        write_edge_list(cycle(4), path)
        for g in (
            Digraph(3, [(1, 0), (2, 1), (0, 2), (2, 0)]),
            generate_random_strongly_connected(30, 0.1, 2),
            read_edge_list(path),
        ):
            assert set(vars(g)) == {"n", "_out"}
            assert not hasattr(g, "edges")  # the out-lists are the one view

    def test_runs_derive_only_the_tables_they_read(self):
        g = generate_random_strongly_connected(8, 0.3, 1)
        x_half = [float(i) for i in range(8)]
        run_faqua(x_half, g, diameter(g), QuantizationLevel("0.1"), 3)
        assert "_in" not in vars(g)
        run_faqua(x_half, g, diameter(g), QuantizationLevel("0.1"), 3, trace=io.StringIO())
        assert "_in" in vars(g)  # the flood reads _in
        cfg = reference_instance()
        quagd_run(cfg)
        assert "_in" not in vars(cfg.graph)


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = generate_random_strongly_connected(9, 0.3, 77)
        path = str(tmp_path / "g.txt")
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_header_line(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(cycle(3), str(path))
        assert path.read_text().splitlines()[0] == "n 3"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0\n2 1\n")
        with pytest.raises(GraphError):
            read_edge_list(str(path))

    def test_header_with_extra_tokens_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n 3 junk trailing\n1 0\n2 1\n0 2\n")
        with pytest.raises(GraphError, match="bad header line 'n 3 junk trailing'"):
            read_edge_list(str(path))

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n 3\n1 0\noops\n")
        with pytest.raises(GraphError, match=":3"):
            read_edge_list(str(path))


def edge_list_oracle(g):
    """The edge-list file of g, from its out-lists: pairs ascending."""
    return "".join([f"n {g.n}\n", *(f"{r} {s}\n" for r, s in sorted(out_pairs(g)))])


if given is not None:  # the property needs hypothesis

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=3 * n * n))))
    def test_written_file_matches_the_oracle_and_reads_back(case):
        # pairs may repeat and include self-edges, which are dropped
        n, pairs = case
        g = Digraph(n, pairs)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            count = write_edge_list(g, path)
            with open(path) as fh:
                text = fh.read()
            assert text == edge_list_oracle(g)
            assert count == text.count("\n") - 1
            assert read_edge_list(path) == g
