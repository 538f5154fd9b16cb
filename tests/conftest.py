"""Shared fixtures: expensive exhaustive sweeps computed once per session."""

import random

import pytest

from revwiener.enumeration import gen_free_trees, rank_trees
from revwiener.tree import from_pruefer


@pytest.fixture(scope="session")
def rankings():
    """Three smallest reverse-Wiener values over all free trees, n = 2..18."""
    return {n: rank_trees(n, 3) for n in range(2, 19)}


@pytest.fixture(scope="session")
def diam4_minima():
    """Two smallest values over diameter-4 classes with their tie codes, n = 5..70.

    One partition walk per n serves both ranks.
    """
    return {n: rank_trees(n, 2, diameter=4) for n in range(5, 71)}


@pytest.fixture(scope="session")
def sample_trees():
    """Every free tree with n <= 12, then 200 random labeled trees with n <= 80 (n = 1 and 2 included)."""
    trees = [t for n in range(1, 13) for t in gen_free_trees(n)]
    rng = random.Random(2024)
    for n in [1, 2] + [rng.randint(1, 80) for _ in range(198)]:
        trees.append(from_pruefer(n, [rng.randrange(n) for _ in range(n - 2)]))
    return trees
