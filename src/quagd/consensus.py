"""Finite-time quantized average consensus via integer mass splitting.

Round-synchronous randomized protocol on a strongly connected digraph.
Each node holds an integer mass pair (y, z) whose network-wide ratio
encodes the average being computed.  Nodes with more than one mass unit
split y into z integer pieces (values floor(y/z) or floor(y/z)+1), keep
one minimum piece, and scatter the rest uniformly at random over self and
out-neighbors.  A diameter-windowed max/min flood over the node ratios
detects when all ratios agree to within one unit; every node then outputs
the common minimum times delta and stops.

_run_lanes is the one seam between real values and the integer protocol: it
checks its arguments, encodes each input as counts floor(x/delta), and
decodes the common output count lo as lo*delta.  Its kernel, _mix, splits,
delivers and audits in exact integers: what is sent in round lam arrives
before round lam's audit and stopping check.  No unit count and no draw
depends on y, so _mix runs several count lists (lanes: a sweep's levels) on
one set of draws, each as it would run alone.  It reads each window's
extrema and never floods; only a traced call's writer (_Rows) floods, and
it ignores the draws, so they are recorded only for the other lanes and the
tamper hook.  run_faqua, the one-lane case, builds the only observers.
"""

from __future__ import annotations

import sys
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable

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
    """Integer conservation check of one round's network totals, after delivery."""

    round_index: int
    y_conserved: bool
    z_conserved: bool


@dataclass
class ConsensusResult:
    value: float  # the common output m * delta
    value_count: int  # the integer m
    rounds_used: int
    per_node_values: list[float]
    quantized_sum: int  # sum of floor(x_half_i / delta) over nodes
    n: int
    audits: list[RoundAudit]

    def within_accuracy_contract(self) -> bool:
        """Exact check of |output - (delta/n) * quantized_sum| <= delta."""
        return abs(self.value_count * self.n - self.quantized_sum) <= self.n


class ConsensusNonterminationError(RuntimeError):
    """Round budget exhausted before the stopping condition held.

    The protocol terminates with probability 1 but has no deterministic
    round bound; the budget converts pathological seeds into a diagnosable
    error.  Carries the full state snapshot as .states, with M and m as
    reseeded at the last window start (traced or not); the message shows the
    first few nodes only, so it stays short on large graphs.
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
    return [ConsensusNodeState(2 * c, 2, 2 * c, 2) for c in _counts(x_half, g, q)]


def _counts(x_half: Sequence[float], g: Digraph, q: QuantizationLevel) -> list[int]:
    """Each node's count floor(x/delta), the seam's encode.  The output is a
    float, so an exact estimate beyond its range is refused; a float never is."""
    if len(x_half) != g.n:
        raise ValueError(f"expected {g.n} inputs, got {len(x_half)}")
    counts = [quantize_floor(x, q) for x in x_half]
    for j, x in enumerate(x_half):
        if not isinstance(x, float) and abs(x) > sys.float_info.max:
            raise ValueError(f"node {j}'s estimate lies beyond the float range")
    return counts


def _flood(M: list[int], m: list[int], closed_in: list[Callable], pending):
    """One synchronous flood round: pending node j takes max/min over closed_in[j]."""
    big, small = M[:], m[:]
    for j in pending:
        big[j], small[j] = max(closed_in[j](M)), min(closed_in[j](m))
    return big, small


class _Digits(dict):  # int -> str, filled on first use
    def __missing__(self, k: int) -> str:
        return self.setdefault(k, str(k))


class _Rows:
    """A traced call's trace writer: an observer that ignores the draws.  It
    floods its own copy of the window-start M and m over the nodes that still
    lack the window's top or bottom, writes the round's rows from its stream's
    digit cache, and raises if a window ends with such a node."""

    streams = weakref.WeakKeyDictionary()  # out -> its _Digits, dropped with it

    def __init__(self, out, g: Digraph, d_bound: int):
        self.write, self.closed_in, self.d_bound = out.write, g._closed_in, d_bound
        try:
            self.digit = _Rows.streams.setdefault(out, _Digits()).__getitem__
        except TypeError:  # out cannot be weakly referenced: a cache of its own
            self.digit = _Digits().__getitem__

    def __call__(self, lam: int, ys, zs, ys_s, zs_s, M, m, splits) -> None:
        if (lam - 1) % self.d_bound == 0:  # what the window's flood delivers
            self.top, self.bottom, self.M, self.m = max(M), min(m), M, m
            self.pending = self.nodes = range(len(M))
        M, m = self.M, self.m = _flood(self.M, self.m, self.closed_in, self.pending)
        top, bottom = self.top, self.bottom
        self.pending = [j for j in self.pending if M[j] != top or m[j] != bottom]
        cols = [map(self.digit, c) for c in (self.nodes, ys, zs, ys_s, zs_s, M, m)]
        self.write("\n".join(map("\t".join, zip(repeat(str(lam)), *cols))) + "\n")
        if lam % self.d_bound == 0 and self.pending:
            raise RuntimeError(f"round {lam}: flood missed extrema {top}, {bottom}")


def minmax_window_round(
    states: list[ConsensusNodeState], g: Digraph, lam: int, d_bound: int
) -> None:
    """One synchronous max/min flooding round, reseeding at window starts.

    At lam = 1, D+1, 2D+1, ... each node reseeds M = ceil(y_s/z_s) and
    m = floor(y_s/z_s); every round each node broadcasts (M, m) to its
    out-neighbors and takes the max/min over in-neighbors and itself.
    """
    for name, value in (("round index", lam), ("d_bound", d_bound)):
        if type(value) is not int:  # a bool or a float is not a round count
            raise ValueError(f"{name} must be an int, got {value!r}")
    if lam < 1:
        raise ValueError(f"round index must be >= 1, got {lam}")
    if d_bound < 1:
        raise ValueError(f"d_bound must be >= 1, got {d_bound}")
    if (lam - 1) % d_bound == 0:
        for st in states:
            st.M, st.m = -(-st.y_s // st.z_s), st.y_s // st.z_s
    M, m = [st.M for st in states], [st.m for st in states]
    for st, big, small in zip(states, *_flood(M, m, g._closed_in, range(g.n))):
        st.M, st.m = big, small


def run_faqua(x_half: Sequence[float], g: Digraph, d_bound: int, q: QuantizationLevel,
              rng, max_rounds=None, *, trace=None, tamper=None) -> ConsensusResult:
    """Run the full protocol until the distributed stopping rule fires (the
    kernel with one lane; its nontermination error is raised).

    rng is either an integer seed or a list of one random.Random per node;
    draws reproduce Random.choice through getrandbits (no override is used).
    trace, if given, is a writable text stream receiving one tab-separated
    line `lambda node y z y_s z_s M m` per node per round, M and m as
    flooded so far in the window, and a final `RESULT value rounds` line.
    tamper is a test hook invoked on each round's in-flight messages before
    delivery (and before the round is traced).
    """
    observer = None if trace is None else _Rows(trace, g, d_bound)
    if tamper is not None:
        observer = partial(_tamper_observer, tamper, observer)
    [res] = _run_lanes([x_half], g, d_bound, [q], rng, max_rounds, observer)
    if isinstance(res, ConsensusNonterminationError):
        raise res
    if trace is not None:
        trace.write(f"RESULT\t{res.value!r}\t{res.rounds_used}\n")
    return res


def _tamper_observer(tamper, then, lam, ys, zs, ys_s, zs_s, M, m, splits) -> None:
    """A tamper hook as an observer: it rebuilds lane 0's messages from the
    draws (per sender and other destination, its pieces' sum, sorted), takes
    them back, delivers tamper's, and hands the round on to then, if set."""
    sums: dict[tuple[int, int], list[int]] = {}
    for j, z, dests in splits:
        base, r = divmod(ys_s[j], z)
        for piece, dest in enumerate(dests, 1):
            if dest != j:
                acc = sums.setdefault((j, dest), [0, 0])
                acc[0] += base + (piece <= r)
                acc[1] += 1
    outbox = [MassMessage(cy, cz, j, dest) for (j, dest), (cy, cz) in sorted(sums.items())]
    for msg in outbox:
        ys[msg.receiver] -= msg.c_y
        zs[msg.receiver] -= msg.c_z
    for msg in tamper(lam, outbox):
        ys[msg.receiver] += msg.c_y
        zs[msg.receiver] += msg.c_z
    if then is not None:
        then(lam, ys, zs, ys_s, zs_s, M, m, splits)


def _run_lanes(x_halves, g: Digraph, d_bound: int, levels, rng, max_rounds=None,
               observer=None) -> list:
    """The seam, for one x_half per level: every argument check, then each
    lane's counts, _mix on them and the decode.  A lane gets what run_faqua
    gives it alone: a ConsensusResult or the error it would raise."""
    if observer is not None and len(levels) > 1:
        raise ValueError(f"an observer acts on one lane, got {len(levels)} levels")
    if type(d_bound) is not int:  # type, not isinstance: a bool is refused
        raise ValueError(f"d_bound must be an int, got {d_bound!r}")
    if not (max_rounds is None or type(max_rounds) is int):
        raise ValueError(f"max_rounds must be an int or None, got {max_rounds!r}")
    seq = isinstance(rng, Sequence) and not isinstance(rng, (str, bytes))
    if not (type(rng) is int or seq and all(hasattr(s, "getrandbits") for s in rng)):
        raise ValueError(f"rng must be an int seed or a sequence of streams, got {rng!r}")
    if type(rng) is int and not 0 <= rng < 2**64:  # mix64 would alias it
        raise ValueError(f"rng seed must be in [0, 2**64), got {rng}")
    n = g.n
    d_actual = diameter(g)  # raises NotStronglyConnectedError on a witness pair
    if d_bound < d_actual:
        raise ValueError(f"d_bound={d_bound} is below the graph diameter {d_actual}")
    max_rounds = 200 * d_bound * n if max_rounds is None else max_rounds
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    streams = node_streams(rng, n, 0) if isinstance(rng, int) else list(rng)
    if len(streams) != n:
        raise ValueError(f"expected {n} rng streams, got {len(streams)}")
    lane_counts = [_counts(x, g, q) for x, q in zip(x_halves, levels)]
    out = _mix(lane_counts, g, d_bound, streams, max_rounds, observer)
    for lane, (counts, q) in enumerate(zip(lane_counts, levels)):
        if isinstance(out[lane], tuple):  # (lo, audits); lo decodes as lo*delta
            lo, audits = out[lane]
            value = float(lo * q.delta)
            out[lane] = ConsensusResult(value, lo, len(audits), [value] * n, sum(counts),
                                        n, audits)
    return out


def _mix(counts, g: Digraph, d_bound: int, streams, max_rounds: int, observer) -> list:
    """The integer kernel, for one count list per lane: each node starts at
    mass 2c over two units.  A lane stops at its first settled window with
    (lo, audits), lo the common output count and one audit a round, or gets
    the ConsensusNonterminationError it would raise alone.  observer, if set,
    gets lane 0's (ys, zs, ys_s, zs_s), the window-start M and m and the
    round's draws (none for _Rows) once a round, after delivery.  Random.choice(t)
    is t[i], i the first getrandbits(len(t).bit_length()) below len(t)."""
    n = g.n
    draws = [(s.getrandbits, len(t).bit_length(), len(t), t)
             for s, t in zip(streams, g._targets)]
    # Per lane: y, y_s, the y total, per-round audits, M, m.
    lane_ys_s = [[2 * c for c in lane] for lane in counts]
    lane_total = [sum(ys_s) for ys_s in lane_ys_s]
    lane_ys, lane_y_ok = [[0] * n for _ in counts], [[] for _ in counts]
    lane_M, lane_m = [[0] * n for _ in counts], [[0] * n for _ in counts]
    zs_s, zs = [2] * n, [0] * n
    for j, (bits, k, t, tj) in enumerate(draws):  # the init send: all of (y, z)
        i = bits(k)
        while i >= t:
            i = bits(k)
        zs[tj[i]] += 2
        for ys, ys_s in zip(lane_ys, lane_ys_s):
            ys[tj[i]] += ys_s[j]

    out: list = [None] * len(counts)
    draws_read = observer is not None and not isinstance(observer, _Rows)
    live, z_ok = list(range(len(counts))), []
    for lam in range(1, max_rounds + 1):
        if (lam - 1) % d_bound == 0:
            for lane in live:
                lane_M[lane] = [-(-y // z) for y, z in zip(lane_ys_s[lane], zs_s)]
                lane_m[lane] = [y // z for y, z in zip(lane_ys_s[lane], zs_s)]

        # live[0] splits, each piece drawn where it goes; replay and tamper read the records
        record, splits = draws_read or len(live) > 1, []
        ys, ys_s = lane_ys[live[0]], lane_ys_s[live[0]]
        ny, nz = ys[:], zs[:]
        for j, z in enumerate(zs):
            if z < 2:
                continue
            y = ys_s[j] = ys[j]
            zs_s[j] = z
            nz[j] -= z - 1  # it keeps 1 unit
            bits, k, t, tj = draws[j]
            if z == 2:  # one piece to send: the larger half
                i = bits(k)
                while i >= t:
                    i = bits(k)
                dest, half = tj[i], (y + 1) >> 1
                ny[j] -= half
                ny[dest] += half
                nz[dest] += 1
                if record:
                    splits.append((j, 2, [dest]))
                continue
            base, r = divmod(y, z)
            ny[j] += base - y
            if record:
                dests = []
                splits.append((j, z, dests))
            for piece in range(1, z):
                i = bits(k)
                while i >= t:
                    i = bits(k)
                dest = tj[i]
                ny[dest] += base + (piece <= r)
                nz[dest] += 1
                if record:
                    dests.append(dest)
        lane_ys[live[0]], zs = ny, nz

        for lane in live[1:]:  # the other lanes split their own y over those draws
            ys, ys_s = lane_ys[lane], lane_ys_s[lane]
            ny = ys[:]
            for j, z, dests in splits:
                y = ys_s[j] = ys[j]
                if z == 2:  # pays: without it three-level sweeps run 6-9% slower
                    half = (y + 1) >> 1  # y >> 1 stays
                    ny[j] -= half
                    ny[dests[0]] += half
                    continue
                base, r = divmod(y, z)
                ny[j] += base - y
                for piece, dest in enumerate(dests, 1):
                    ny[dest] += base + (piece <= r)
            lane_ys[lane] = ny

        if observer is not None:
            observer(lam, lane_ys[0], zs, lane_ys_s[0], zs_s, lane_M[0], lane_m[0], splits)
        z_ok.append(sum(zs) == 2 * n)
        for lane in live:
            lane_y_ok[lane].append(sum(lane_ys[lane]) == lane_total[lane])

        if lam % d_bound == 0:
            for lane in [l for l in live if max(lane_M[l]) - min(lane_m[l]) <= 1]:
                audits = list(map(RoundAudit, range(1, lam + 1), lane_y_ok[lane], z_ok))
                out[lane] = min(lane_m[lane]), audits
                live.remove(lane)
            if not live:
                return out
    for lane in live:
        rows = zip(lane_ys[lane], zs, lane_ys_s[lane], zs_s, lane_M[lane], lane_m[lane])
        snapshot = [ConsensusNodeState(*row) for row in rows]
        out[lane] = ConsensusNonterminationError(max_rounds, snapshot)
    return out
