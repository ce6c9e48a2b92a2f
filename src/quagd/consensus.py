"""Finite-time quantized average consensus via integer mass splitting.

Round-synchronous randomized protocol on a strongly connected digraph.
Each node holds an integer mass pair (y, z) whose network-wide ratio
encodes the average being computed.  Nodes with more than one mass unit
split y into z integer pieces (values floor(y/z) or floor(y/z)+1), keep
one minimum piece, and scatter the rest uniformly at random over self and
out-neighbors.  A diameter-windowed max/min flood over the node ratios
detects when all ratios agree to within one unit; every node then outputs
the common minimum times delta and stops.

A round splits, delivers and audits.  All mass arithmetic is exact integer
arithmetic; rounds are a strict superstep barrier (messages sent in round
lam are summed into their receivers at the end of round lam, before the
conservation audit and the stopping check).  d_bound >= diameter flood
rounds bring every node the global extrema of the ratios reseeded at a
window's start, so the simulator reads those directly and runs the flood
only when a trace, which prints each round's M and m, is written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .graph import Digraph, diameter
from .quantizer import QuantizationLevel, quantize_floor
from .rng import node_streams


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
    error.  Carries the full state snapshot as .states (M and m as flooded
    when traced, else as reseeded at the last window start); the message
    shows the first few nodes only, so it stays short on large graphs.
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
    y: int, z: int, rng: random.Random, self_id: int, destinations: Sequence[int]
) -> dict[int, tuple[int, int]]:
    """Partition y into z unit pieces and assign them to destinations.

    r = y - z*floor(y/z) pieces carry floor(y/z)+1 and the rest carry
    floor(y/z).  One minimum-value piece is always kept by the sender;
    each of the remaining z-1 pieces goes independently uniformly at
    random to self or an out-neighbor.  Mass is conserved exactly.
    """
    if z < 2:
        raise ValueError(f"split requires at least 2 mass units, got z={z}")
    base, r = divmod(y, z)  # floors toward -inf, also for negative mass
    acc: dict[int, list[int]] = {self_id: [base, 1]}  # the kept minimum piece
    for k in range(1, z):  # the r pieces of base + 1 first, then base's
        bucket = acc.setdefault(rng.choice(destinations), [0, 0])
        bucket[0] += base + (k <= r)
        bucket[1] += 1
    return {dest: (cy, cz) for dest, (cy, cz) in acc.items()}


def _flood(M: list[int], m: list[int], closed_in: list[list[int]]):
    """One synchronous max/min flood round: node j takes the max of M and
    the min of m over closed_in[j], itself and its in-neighbors."""
    return (
        [max([M[i] for i in nb]) for nb in closed_in],
        [min([m[i] for i in nb]) for nb in closed_in],
    )


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
            st.M, st.m = -(-st.y_s // st.z_s), st.y_s // st.z_s
    closed_in = [[j, *g.in_neighbors(j)] for j in range(g.n)]
    new_M, new_m = _flood([st.M for st in states], [st.m for st in states], closed_in)
    for st, big, small in zip(states, new_M, new_m):
        st.M, st.m = big, small


TamperHook = Callable[[int, list[MassMessage]], list[MassMessage]]


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
        raise ValueError(f"d_bound={d_bound} is below the graph diameter {d_actual}")
    streams = node_streams(rng, n, 0) if isinstance(rng, int) else list(rng)
    if len(streams) != n:
        raise ValueError(f"expected {n} rng streams, got {len(streams)}")
    if max_rounds is None:
        max_rounds = 200 * d_bound * n

    states = init_consensus(x_half, g, q)
    ys_s, zs_s = [st.y_s for st in states], [st.z_s for st in states]
    quantized_sum = sum(ys_s) // 2
    total_y, total_z = 2 * quantized_sum, 2 * n
    targets = [[j, *g.out_neighbors(j)] for j in range(n)]
    closed_in = [[j, *g.in_neighbors(j)] for j in range(n)]
    choices = [stream.choice for stream in streams]

    # Init send: each node's whole (y, z) goes to one random target at once.
    ys, zs = [0] * n, [0] * n
    for j in range(n):
        dest = choices[j](targets[j])
        ys[dest] += ys_s[j]
        zs[dest] += zs_s[j]

    M = m = [0] * n
    audits: list[RoundAudit] = []
    for lam in range(1, max_rounds + 1):
        if (lam - 1) % d_bound == 0:
            # Window start: reseed; the window's flood delivers hi and lo.
            M = [-(-y // z) for y, z in zip(ys_s, zs_s)]
            m = [y // z for y, z in zip(ys_s, zs_s)]
            hi, lo = max(M), min(m)
        if trace is not None:
            M, m = _flood(M, m, closed_in)

        # Split as split_mass does, drawing from each stream in its order.
        ny, nz = [0] * n, [0] * n
        outbox: list[MassMessage] = []
        for j, z in enumerate(zs):
            y = ys[j]
            if z < 2:
                ny[j] += y
                nz[j] += z
                continue
            ys_s[j], zs_s[j] = y, z
            if tamper is not None:
                alloc = split_mass(y, z, streams[j], j, targets[j])
                ny[j], nz[j] = alloc.pop(j)  # nothing was delivered to j yet
                for dest, (cy, cz) in sorted(alloc.items()):
                    outbox.append(MassMessage(cy, cz, j, dest))
                continue
            base, r = divmod(y, z)
            ny[j] += base
            nz[j] += 1
            choice, tj = choices[j], targets[j]
            for k in range(1, z):
                dest = choice(tj)
                ny[dest] += base + (k <= r)
                nz[dest] += 1
        if tamper is not None:
            for msg in tamper(lam, outbox):
                ny[msg.receiver] += msg.c_y
                nz[msg.receiver] += msg.c_z
        ys, zs = ny, nz
        audits.append(RoundAudit(lam, sum(ys) == total_y, sum(zs) == total_z))

        if trace is not None:
            trace.write("".join(
                f"{lam}\t{j}\t{ys[j]}\t{zs[j]}\t{ys_s[j]}\t{zs_s[j]}\t{M[j]}\t{m[j]}\n"
                for j in range(n)
            ))

        if lam % d_bound == 0:
            if trace is not None and (M != [hi] * n or m != [lo] * n):
                raise RuntimeError(f"round {lam}: flood missed extrema {hi}, {lo}")
            if hi - lo <= 1:
                value = float(lo * q.delta)
                if trace is not None:
                    trace.write(f"RESULT\t{value!r}\t{lam}\n")
                return ConsensusResult(
                    value, lo, q.delta, lam, [value] * n, quantized_sum, n, audits
                )

    snapshot = [ConsensusNodeState(*row) for row in zip(ys, zs, ys_s, zs_s, M, m)]
    raise ConsensusNonterminationError(max_rounds, snapshot)
