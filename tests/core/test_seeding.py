"""spawn_seeds: the one blessed SeedSequence site."""

import numpy as np
import pytest

from repro.core import spawn_seeds


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(7, 4) == spawn_seeds(7, 4)

    def test_distinct_children(self):
        seeds = spawn_seeds(7, 8)
        assert len(set(seeds)) == 8

    def test_different_parents_diverge(self):
        assert spawn_seeds(1, 4) != spawn_seeds(2, 4)

    def test_plain_ints(self):
        for seed in spawn_seeds(3, 3):
            assert type(seed) is int
            assert 0 <= seed < 2**32

    def test_zero_count(self):
        assert spawn_seeds(7, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(7, -1)

    def test_prefix_is_stable_across_counts(self):
        # Child i always gets spawn key (i,), so asking for more seeds
        # only appends; the session builder's flat (prover, verifier,
        # links, faults) layout relies on this.
        for seed in (0, 7, 123, 2**31):
            for count in (1, 2, 3, 5):
                longer = spawn_seeds(seed, count + 3)
                assert longer[:count] == spawn_seeds(seed, count)

    def test_bit_identical_to_legacy_inline_formula(self):
        # simulate.py used this exact expression before the hoist; the
        # helper must keep emitting the same streams or every recorded
        # experiment result shifts.
        for seed, count in [(0, 1), (7, 4), (123, 2), (2**31, 3)]:
            legacy = [
                int(s.generate_state(1)[0])
                for s in np.random.SeedSequence(seed).spawn(count)
            ]
            assert spawn_seeds(seed, count) == legacy
