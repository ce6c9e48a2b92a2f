"""The consensus protocol assembled from its parts, as the reference the
kernel in quagd.consensus must match draw for draw.

split_mass splits one node's mass with Random.choice; reference_run runs the
whole protocol with it, node by node and round by round, through the
library's init_consensus and minmax_window_round.
"""

import random
from typing import Sequence

from quagd.consensus import (
    ConsensusNonterminationError,
    ConsensusResult,
    MassMessage,
    RoundAudit,
    init_consensus,
    minmax_window_round,
)
from quagd.rng import node_streams


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


def reference_run(x_half, g, d_bound, q, rng, max_rounds=None, *, trace=None,
                  tamper=None):
    """run_faqua's protocol, step by step, with run_faqua's arguments.

    Init send: each node sends all of its (y, z) to one target (itself or an
    out-neighbor) drawn by Random.choice.  Then each round floods M and m
    with minmax_window_round and splits every node with z >= 2 through
    split_mass.  A node's own pieces stay; the rest leave as one MassMessage
    per sender and destination, in sender and then destination order, which
    tamper may alter before delivery.  After delivery, trace (if given)
    receives one row `lambda node y z y_s z_s M m` per node.  The run stops
    at the first window end where max M - min m <= 1, writes
    `RESULT value rounds` to trace and returns run_faqua's result, or raises
    its ConsensusNonterminationError (with M and m as flooded).
    """
    n = g.n
    streams = node_streams(rng, n, 0) if isinstance(rng, int) else list(rng)
    if max_rounds is None:
        max_rounds = 200 * d_bound * n
    targets = [[j, *g.out_neighbors(j)] for j in range(n)]
    states = init_consensus(x_half, g, q)
    total = sum(st.y for st in states)
    ys, zs = [0] * n, [0] * n
    for st, stream, t in zip(states, streams, targets):
        dest = stream.choice(t)
        ys[dest] += st.y
        zs[dest] += st.z
    audits = []
    for lam in range(1, max_rounds + 1):
        minmax_window_round(states, g, lam, d_bound)  # reads y_s, z_s, M and m
        ny, nz, outbox = [0] * n, [0] * n, []
        for j, (st, y, z) in enumerate(zip(states, ys, zs)):
            if z < 2:
                ny[j] += y
                nz[j] += z
                continue
            st.y_s, st.z_s = y, z
            alloc = split_mass(y, z, streams[j], j, targets[j])
            for dest, (cy, cz) in sorted(alloc.items()):
                if dest == j:
                    ny[j] += cy
                    nz[j] += cz
                else:
                    outbox.append(MassMessage(cy, cz, j, dest))
        for msg in outbox if tamper is None else tamper(lam, outbox):
            ny[msg.receiver] += msg.c_y
            nz[msg.receiver] += msg.c_z
        ys, zs = ny, nz
        if trace is not None:
            for j, (st, y, z) in enumerate(zip(states, ys, zs)):
                trace.write(f"{lam}\t{j}\t{y}\t{z}\t{st.y_s}\t{st.z_s}\t{st.M}\t{st.m}\n")
        audits.append(RoundAudit(lam, sum(ys) == total, sum(zs) == 2 * n))
        hi, lo = max(st.M for st in states), min(st.m for st in states)
        if lam % d_bound == 0 and hi - lo <= 1:
            value = float(lo * q.delta)
            if trace is not None:
                trace.write(f"RESULT\t{value!r}\t{lam}\n")
            return ConsensusResult(
                value, lo, lam, [value] * n, total // 2, n, audits
            )
    for st, y, z in zip(states, ys, zs):
        st.y, st.z = y, z
    raise ConsensusNonterminationError(max_rounds, states)
