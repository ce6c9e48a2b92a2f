"""Deterministic seeded randomness for reproducible simulations.

Every random choice in a run is drawn from a stream derived from the
master seed by a fixed 64-bit mixing function, so traces are independent
of node iteration order and stable across refactors.  A node's stream is a
random.Random seeded in C, in the state random.Random(mix64(...)) has.
"""

from __future__ import annotations

import _random
import random

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(h: int, part: int) -> int:
    """Fold one integer into the 64-bit state h (a splitmix64 finalizer)."""
    h = ((h ^ (part & _MASK)) + _GOLDEN) & _MASK
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
    return h ^ (h >> 31)


def mix64(*parts: int) -> int:
    """Mix integers into one 64-bit value (splitmix64 finalizer chain)."""
    h = _GOLDEN
    for part in parts:
        h = _mix(h, part)
    return h


class _Stream(random.Random):
    """A random.Random seeded by the C initializer alone, skipping the
    Python-level Random.__init__ and seed() frames; gauss_next, which
    Random.__init__ would set, is a class default.  It overrides neither
    random nor getrandbits, so draws take Random's getrandbits path."""

    __init__ = _random.Random.__init__
    gauss_next = None


def node_streams(master_seed: int, n: int, outer_step: int) -> list[random.Random]:
    """One independent stream per node for one outer optimization step:
    node j's is a random.Random in random.Random(mix64(master_seed, j,
    outer_step))'s state.  The master seed is mixed once for all nodes."""
    h = _mix(_GOLDEN, master_seed)
    return [_Stream(_mix(_mix(h, node), outer_step)) for node in range(n)]
