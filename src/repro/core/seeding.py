"""Deterministic seed derivation.

Every simulated session is a pure function of one integer seed.  The
session builders fan that seed out to independent components (faces,
expression tracks, ambient light, network links) by spawning child
``SeedSequence``s — the one blessed use of ``numpy.random`` machinery
outside generator construction, which is why it lives in exactly one
place: reprolint's R001 can then treat generator construction as the
only sanctioned randomness API without pattern-matching call sites.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_seeds"]


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive ``count`` independent child seeds from one parent seed.

    Children are statistically independent of each other and of the
    parent (SeedSequence spawning), and the mapping is a pure function
    of ``(seed, count)`` — same inputs, same children, on every
    platform and process.  Child ``i`` depends only on ``(seed, i)``
    (its spawn key is ``(i,)``), so the prefix is stable across
    ``count``: ``spawn_seeds(s, 4)[:3] == spawn_seeds(s, 3)``.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]
