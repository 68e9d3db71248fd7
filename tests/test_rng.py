import random

import numpy as np
import pytest

from quadcount.rng import Generator, spawned_seeds

# 200 small seeds plus the word boundaries of SeedSequence's entropy
SEEDS = list(range(200)) + [1729, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**100 + 7]


def test_spawned_seeds_match_numpy():
    for seed in SEEDS:
        expected = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(5)]
        assert spawned_seeds(seed, 5) == expected, seed


def test_interleaved_draws_match_numpy():
    # the mix of calls the detector makes: scalar and sized uniforms, small
    # integer ranges (a range of one draws nothing), and the parameter grid
    for seed in SEEDS:
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        calls = random.Random(seed)
        for _ in range(100):
            op = calls.randrange(4)
            if op == 0:
                low, high = -calls.uniform(0.5, 3.0), calls.uniform(0.5, 3.0)
                assert ours.uniform(low, high) == float(theirs.uniform(low, high)), seed
            elif op == 1:
                k = calls.randrange(1, 5)
                assert ours.uniform(-2.0, 2.0, size=k) == theirs.uniform(-2.0, 2.0, size=k).tolist()
            elif op == 2:
                k = calls.randrange(1, 6)
                assert ours.integers(k) == int(theirs.integers(k)), seed
            else:
                assert ours.integers(-16, 17) == int(theirs.integers(-16, 17)), seed


def test_wide_ranges_reject_like_numpy():
    # wide ranges make Lemire's rejection step fire often: at 2^32 // 3 + 1
    # a third of the draws fall below its threshold, 2^32 mod k
    for seed in range(20):
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        for k in (2**31 + 1, 2**32 // 3 + 1, 2**32 - 1):
            assert [ours.integers(k) for _ in range(50)] == theirs.integers(k, size=50).tolist()


def test_invalid_arguments():
    with pytest.raises(ValueError):
        Generator(-1)
    with pytest.raises(ValueError):
        spawned_seeds(-5, 2)
    with pytest.raises(ValueError):
        Generator(0).integers(0)
