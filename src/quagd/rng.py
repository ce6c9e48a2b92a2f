"""Deterministic seeded randomness for reproducible simulations.

Every random choice in a run is drawn from a stream derived from the
master seed by a fixed 64-bit mixing function, so traces are independent
of node iteration order and stable across refactors.  A node's stream is a
random.Random seeded in C, in the state random.Random(mix64(...)) has; a
run builds its node streams once and reseeds them in C at every outer step.
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


_seed = _random.Random.seed  # the C seed: MT19937 state only, not gauss_next


class NodeStreams:
    """One run's node streams: at(k) gives node j a random.Random in
    random.Random(mix64(master_seed, j, k))'s state.  The master seed and
    each node's prefix are mixed once; the first at() builds the streams and
    later ones reseed the same objects in C, so a step's list is valid until
    the next at(), and a gauss() value cached in it would carry over."""

    def __init__(self, master_seed: int, n: int):
        h = _mix(_GOLDEN, master_seed)
        self._prefixes = [_mix(h, node) for node in range(n)]
        self._streams: list[random.Random] = []

    def at(self, outer_step: int) -> list[random.Random]:
        if not self._streams:
            self._streams = [_Stream(_mix(p, outer_step)) for p in self._prefixes]
        else:
            for s, p in zip(self._streams, self._prefixes):
                _seed(s, _mix(p, outer_step))
        return self._streams


def node_streams(master_seed: int, n: int, outer_step: int) -> list[random.Random]:
    """One independent stream per node for one outer optimization step:
    node j's is a new random.Random in random.Random(mix64(master_seed, j,
    outer_step))'s state."""
    return NodeStreams(master_seed, n).at(outer_step)
