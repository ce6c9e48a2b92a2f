"""Directed graph representation, random generation, and structural queries.

Edges are ordered pairs ``(receiver, sender)``: the pair (j, i) means node
i can transmit to node j.  A digraph stores only each node's out-list;
its in-lists and the consensus kernel's tables are derived from those when
first read.  Every node additionally holds an implicit self-edge, which is
never stored.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional


class GraphError(ValueError):
    """Malformed graph or a structural precondition failure."""


class NotStronglyConnectedError(GraphError):
    """Raised when an operation requires strong connectivity.

    Carries one witness ``pair = (source, target)`` with no directed path.
    """

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(
            f"graph is not strongly connected: no directed path "
            f"from node {pair[0]} to node {pair[1]}"
        )


class Digraph:
    """Immutable digraph on nodes 0..n-1 with implicit self-edges."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if type(n) is not int:  # True is no count
            raise GraphError(f"need an int node count, got {n!r}")
        if n < 2:
            raise GraphError(f"need at least 2 nodes, got {n}")
        out = [set() for _ in range(n)]
        for recv, send in edges:
            if not (type(recv) is int and type(send) is int):
                raise GraphError(f"edge ({recv!r}, {send!r}): node ids must be ints")
            if not (0 <= recv < n and 0 <= send < n):
                raise GraphError(f"edge ({recv}, {send}) out of range for n={n}")
            out[send].add(recv)
        # ascending receivers per sender; self-edges are implicit
        self.n, self._out = n, [sorted(rs - {j}) for j, rs in enumerate(out)]

    @cached_property
    def _in(self) -> list[list[int]]:
        """Per node, the nodes that can transmit to it, ascending."""
        in_ = [[] for _ in range(self.n)]
        for send, receivers in enumerate(self._out):
            for recv in receivers:
                in_[recv].append(send)
        return in_

    @cached_property
    def _structure(self) -> tuple[Optional[int], Optional[tuple[int, int]]]:
        """(diameter, None) if strongly connected, else (None, witness pair).

        A synchronous BFS from every node at once, one bit per node:
        reach[v] holds the nodes that v reaches within `sweeps` edges.  Each
        sweep ORs in the previous sweep's sets of v's out-neighbours, so the
        sweeps that change something number the diameter.  The witness is
        the first v that misses a node and the lowest node it misses.
        Computed on first use and kept, since the graph never changes.
        """
        reach = [1 << v for v in range(self.n)]
        sweeps = 0
        while True:
            new = []
            for v, receivers in enumerate(self._out):
                bits = reach[v]
                for u in receivers:
                    bits |= reach[u]
                new.append(bits)
            if new == reach:
                break
            reach = new
            sweeps += 1
        full = (1 << self.n) - 1
        for source, bits in enumerate(reach):
            if bits != full:
                missing = full ^ bits
                return None, (source, (missing & -missing).bit_length() - 1)
        return sweeps, None

    @cached_property
    def _targets(self) -> list[list[int]]:
        """Per node, where its pieces may go: itself first, then its
        out-neighbours (the consensus kernel's draw tables)."""
        return [[j, *out] for j, out in enumerate(self._out)]

    @cached_property
    def _closed_in(self) -> list[itemgetter]:
        """Per node, a getter of itself and its in-neighbours (itself twice
        if none), for the consensus max/min flood."""
        return [itemgetter(j, *(senders or [j])) for j, senders in enumerate(self._in)]

    def out_neighbors(self, j: int) -> list[int]:
        """Nodes that can receive from j (self excluded)."""
        return self._out[j]

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self._out == other._out
        )

    def __repr__(self):
        return f"Digraph(n={self.n}, m={sum(map(len, self._out))})"


def find_unreachable_pair(g: Digraph) -> Optional[tuple[int, int]]:
    """Return an ordered pair (i, j) with no directed path i -> j, or None.

    The pair is the first source in index order that misses some node, and
    the first node it misses."""
    return g._structure[1]


def diameter(g: Digraph) -> int:
    """Longest shortest directed path over all ordered node pairs.

    Self-edges do not shorten paths between distinct nodes.  Rejects
    non-strongly-connected input with find_unreachable_pair's witness.
    """
    worst, pair = g._structure
    if pair is not None:
        raise NotStronglyConnectedError(pair)
    return worst


def generate_random_strongly_connected(
    n: int, extra_edge_prob: float, seed: int
) -> Digraph:
    """Random strongly connected digraph, deterministic in seed.

    Plants a directed Hamiltonian cycle through a random node permutation,
    then adds each remaining ordered pair independently with probability
    extra_edge_prob: sender by sender, in receiver order, the pair is added
    when rng.random() < extra_edge_prob.

    Those draws are made in bulk, word for word.  random() is X / 2**53
    with X = (w0 >> 5) << 26 | (w1 >> 6) for its two words, and
    getrandbits(64 * m) puts the first-drawn word lowest, so its
    little-endian bytes are m coins of 8 bytes, X's top byte being each
    coin's byte 3.  A coin is a hit exactly when X < T, T the ceiling of
    extra_edge_prob * 2**53, so only a coin whose top byte is at most T's
    can hit: translate marks those, and find walks the marks in C.  A mark
    below T's top byte is a hit; one at it is decided by X.  Coin c goes to
    the c-th node that is neither the sender nor its cycle successor.  Each
    hit is appended to its sender's out-list, which so comes out ascending,
    and the out-lists are set directly, not through __init__.
    """
    if not (type(n) is int and type(seed) is int and seed >= 0):
        raise GraphError(f"need an int node count and int seed >= 0, got {n!r}, {seed!r}")
    if n < 2:
        raise GraphError(f"need at least 2 nodes, got {n}")
    try:  # True would read as 1.0
        in_range = type(extra_edge_prob) is not bool and 0.0 <= extra_edge_prob <= 1.0
    except TypeError:  # not a number: text, say
        in_range = False
    if not in_range:
        raise GraphError(f"extra_edge_prob must be in [0, 1], got {extra_edge_prob!r}")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    succ = [0] * n  # succ[s] receives from s on the cycle
    for idx in range(n):
        succ[perm[idx]] = perm[(idx + 1) % n]
    threshold = math.ceil(Fraction(extra_edge_prob) * 2**53)
    tie = threshold >> 45  # 256 when extra_edge_prob is 1: every coin hits
    mark = bytes(top <= tie for top in range(256))
    nodes = list(range(n))  # receivers are these shared ints
    out = [[] for _ in range(n)]
    m = n - 2
    for sender, on_cycle in enumerate(succ):
        lo, hi = min(sender, on_cycle), max(sender, on_cycle)
        coins = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
        tops = coins[3::8]
        find = tops.translate(mark).find
        add = out[sender].append
        c = find(1)
        while c >= 0:
            if tops[c] < tie or threshold > (
                int.from_bytes(coins[8 * c:8 * c + 4], "little") >> 5 << 26
                | int.from_bytes(coins[8 * c + 4:8 * c + 8], "little") >> 6
            ):
                r = c + (c >= lo)
                r += r >= hi
                add(nodes[r])
            c = find(1, c + 1)
        insort(out[sender], on_cycle)
    g = Digraph.__new__(Digraph)
    g.n, g._out = n, out
    return g


def write_edge_list(g: Digraph, path: str) -> int:
    """Write the plain-text edge-list format: `n <count>` header, then one
    `receiver sender` pair per line, ascending; return the pair count."""
    with open(path, "w") as fh:
        fh.write(f"n {g.n}\n")
        for recv, senders in enumerate(g._in):
            fh.write("".join([f"{recv} {send}\n" for send in senders]))
    return sum(map(len, g._in))


def read_edge_list(path: str) -> Digraph:
    """Parse the edge-list format written by write_edge_list."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise GraphError(f"{path}: missing `n <count>` header line")
    try:
        _, count = lines[0].split()  # exactly `n <count>`
        n = int(count)
    except ValueError:
        raise GraphError(f"{path}: bad header line {lines[0]!r}") from None
    edges = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"{path}:{lineno}: expected `receiver sender`, got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"{path}:{lineno}: non-integer node id in {ln!r}") from None
    try:
        return Digraph(n, edges)  # checks the node count and the edge ends
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None
