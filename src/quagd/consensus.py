"""Finite-time quantized average consensus via integer mass splitting.

Round-synchronous randomized protocol on a strongly connected digraph.
Each node holds an integer mass pair (y, z) whose network-wide ratio
encodes the average being computed.  Nodes with more than one mass unit
split y into z integer pieces (values floor(y/z) or floor(y/z)+1), keep
one minimum piece, and scatter the rest uniformly at random over self and
out-neighbors.  A diameter-windowed max/min flood over the node ratios
detects when all ratios agree to within one unit; every node then outputs
the common minimum times delta and stops.

A round floods, splits, delivers and audits.  All mass arithmetic is exact
integer arithmetic; rounds are a strict superstep barrier (messages sent in
round lam are summed into their receivers at the end of round lam, before
the conservation audit and the stopping check).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .graph import Digraph, diameter
from .quantizer import QuantizationLevel, quantize_floor


@dataclass(slots=True)
class ConsensusNodeState:
    """Per-node protocol state: mass, state snapshot, and stopping variables."""

    y: int  # transferable integer mass
    z: int  # nonnegative mass unit count
    y_s: int  # state variable: mass at last refresh
    z_s: int  # state variable: unit count at last refresh (>= 1)
    M: int = 0  # running max of ratios seen this window
    m: int = 0  # running min of ratios seen this window


@dataclass(slots=True)
class MassMessage:
    """One (c_y, c_z) integer payload sent along one edge in one round."""

    c_y: int
    c_z: int
    sender: int
    receiver: int


@dataclass(slots=True)
class RoundAudit:
    """Integer conservation check for one round, on the network totals after
    every message has been summed into its receiver."""

    round_index: int
    y_conserved: bool
    z_conserved: bool


@dataclass
class ConsensusResult:
    value: float  # the common output m * delta
    value_count: int  # the integer m
    delta: Fraction
    rounds_used: int
    per_node_values: list[float]
    quantized_sum: int  # sum of floor(x_half_i / delta) over nodes
    n: int
    audits: list[RoundAudit]

    @property
    def exact_value(self) -> Fraction:
        return self.value_count * self.delta

    def within_accuracy_contract(self) -> bool:
        """Exact check of |output - (delta/n) * quantized_sum| <= delta."""
        return abs(self.value_count * self.n - self.quantized_sum) <= self.n


class ConsensusNonterminationError(RuntimeError):
    """Round budget exhausted before the stopping condition held.

    The protocol terminates with probability 1 but has no deterministic
    round bound; the budget converts pathological seeds into a diagnosable
    error.  Carries the full state snapshot as .states; the message shows
    the first few nodes only, so it stays short on large graphs.
    """

    def __init__(self, rounds: int, states: list[ConsensusNodeState]):
        self.rounds = rounds
        self.states = states
        more = f" and {len(states) - 8} more nodes" if len(states) > 8 else ""
        super().__init__(
            f"consensus did not terminate within {rounds} rounds; "
            f"ratios at exit: {[(st.y, st.z) for st in states[:8]]}{more}"
        )


def init_consensus(
    x_half: Sequence[float], g: Digraph, q: QuantizationLevel
) -> list[ConsensusNodeState]:
    """Initialize per-node state: mass 2*floor(x/delta) over two units, with
    the state snapshot equal to the mass."""
    if len(x_half) != g.n:
        raise ValueError(f"expected {g.n} inputs, got {len(x_half)}")
    masses = [2 * quantize_floor(x, q) for x in x_half]
    return [ConsensusNodeState(y, 2, y, 2) for y in masses]


def split_mass(
    y: int,
    z: int,
    rng: random.Random,
    self_id: int,
    destinations: Sequence[int],
) -> dict[int, tuple[int, int]]:
    """Partition y into z unit pieces and assign them to destinations.

    r = y - z*floor(y/z) pieces carry floor(y/z)+1 and the rest carry
    floor(y/z).  One minimum-value piece is always kept by the sender;
    each of the remaining z-1 pieces goes independently uniformly at
    random to self or an out-neighbor.  Mass is conserved exactly.
    """
    if z < 2:
        raise ValueError(f"split requires at least 2 mass units, got z={z}")
    base = y // z  # floors toward -inf, also for negative mass
    r = y - base * z
    acc: dict[int, list[int]] = {self_id: [base, 1]}  # the kept minimum piece
    for value, count in ((base + 1, r), (base, z - 1 - r)):
        for _ in range(count):
            dest = rng.choice(destinations)
            bucket = acc.setdefault(dest, [0, 0])
            bucket[0] += value
            bucket[1] += 1
    return {dest: (cy, cz) for dest, (cy, cz) in acc.items()}


def minmax_window_round(
    states: list[ConsensusNodeState], g: Digraph, lam: int, d_bound: int
) -> None:
    """One synchronous max/min flooding round, reseeding at window starts.

    At lam = 1, D+1, 2D+1, ... each node reseeds M = ceil(y_s/z_s) and
    m = floor(y_s/z_s); every round each node broadcasts (M, m) to its
    out-neighbors and takes the max/min over in-neighbors and itself.
    """
    if lam < 1:
        raise ValueError(f"round index must be >= 1, got {lam}")
    if (lam - 1) % d_bound == 0:
        for st in states:
            st.M = -(-st.y_s // st.z_s)
            st.m = st.y_s // st.z_s
    new_M = []
    new_m = []
    for j, st in enumerate(states):
        candidates = [st, *(states[i] for i in g.in_neighbors(j))]
        new_M.append(max(c.M for c in candidates))
        new_m.append(min(c.m for c in candidates))
    for st, big, small in zip(states, new_M, new_m):
        st.M = big
        st.m = small


TamperHook = Callable[[int, list[MassMessage]], list[MassMessage]]


def _deliver(states: list[ConsensusNodeState], outbox: list[MassMessage]) -> None:
    """Sum every in-flight message into its receiver's mass."""
    for msg in outbox:
        st = states[msg.receiver]
        st.y += msg.c_y
        st.z += msg.c_z


def run_faqua(
    x_half: Sequence[float],
    g: Digraph,
    d_bound: int,
    q: QuantizationLevel,
    rng,
    max_rounds: Optional[int] = None,
    *,
    trace=None,
    tamper: Optional[TamperHook] = None,
) -> ConsensusResult:
    """Run the full protocol until the distributed stopping rule fires.

    rng is either an integer seed or a list of one random.Random per node.
    trace, if given, is a writable text stream receiving one tab-separated
    line `lambda node y z y_s z_s M m` per node per round and a final
    `RESULT value rounds` line.  tamper is a test hook invoked on each
    round's in-flight messages before delivery.
    """
    n = g.n
    d_actual = diameter(g)  # raises NotStronglyConnectedError on a witness pair
    if d_bound < d_actual:
        raise ValueError(
            f"d_bound={d_bound} is below the graph diameter {d_actual}"
        )
    if isinstance(rng, int):
        from .rng import node_streams

        streams = node_streams(rng, n, 0)
    else:
        streams = list(rng)
        if len(streams) != n:
            raise ValueError(f"expected {n} rng streams, got {len(streams)}")
    if max_rounds is None:
        max_rounds = 200 * d_bound * n

    states = init_consensus(x_half, g, q)
    quantized_sum = sum(st.y for st in states) // 2
    total_y = 2 * quantized_sum
    total_z = 2 * n
    targets = [[j, *g.out_neighbors(j)] for j in range(n)]

    # Init send: each node transmits its whole (y, z) to one random target.
    # Nothing runs between the send and round 1, so it is delivered at once.
    outbox = [
        MassMessage(st.y, st.z, j, streams[j].choice(targets[j]))
        for j, st in enumerate(states)
    ]
    for st in states:
        st.y = st.z = 0
    _deliver(states, outbox)

    audits: list[RoundAudit] = []
    for lam in range(1, max_rounds + 1):
        minmax_window_round(states, g, lam, d_bound)

        outbox = []
        for j, st in enumerate(states):
            if st.z > 1:
                st.y_s, st.z_s = st.y, st.z
                alloc = split_mass(st.y, st.z, streams[j], j, targets[j])
                st.y, st.z = alloc.pop(j)
                for dest, (cy, cz) in sorted(alloc.items()):
                    outbox.append(MassMessage(cy, cz, j, dest))
        if tamper is not None:
            outbox = tamper(lam, outbox)
        _deliver(states, outbox)

        merged_y = sum(st.y for st in states)
        merged_z = sum(st.z for st in states)
        audits.append(RoundAudit(lam, merged_y == total_y, merged_z == total_z))

        if trace is not None:
            for j, st in enumerate(states):
                trace.write(
                    f"{lam}\t{j}\t{st.y}\t{st.z}\t{st.y_s}\t{st.z_s}\t{st.M}\t{st.m}\n"
                )

        if lam % d_bound == 0 and states[0].M - states[0].m <= 1:
            # After d_bound flooding rounds every node holds the global
            # extrema of the window's reseeded ratios, so the stopping
            # decision is simultaneous and the outputs agree.
            counts = [st.m for st in states]
            per_node = [float(c * q.delta) for c in counts]
            if trace is not None:
                trace.write(f"RESULT\t{per_node[0]!r}\t{lam}\n")
            return ConsensusResult(
                value=per_node[0],
                value_count=counts[0],
                delta=q.delta,
                rounds_used=lam,
                per_node_values=per_node,
                quantized_sum=quantized_sum,
                n=n,
                audits=audits,
            )

    raise ConsensusNonterminationError(max_rounds, states)
