"""Wiener and reverse-Wiener invariants against textbook values and each other."""

import random
from dataclasses import replace

import pytest

from revwiener.enumeration import gen_free_trees
from revwiener.families import path, star
from revwiener.invariants import metrics, reverse_wiener, wiener_bfs, wiener_edge_cut
from revwiener.tree import diameter_and_centers, from_edge_list, from_pruefer, wiener_and_diameter


class TestWiener:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_path_formula(self, n):
        # W(P_n) = n(n^2 - 1)/6.
        assert wiener_edge_cut(path(n)) == n * (n * n - 1) // 6

    @pytest.mark.parametrize("n", range(2, 12))
    def test_star_formula(self, n):
        # W(S_n) = (n - 1)^2.
        assert wiener_edge_cut(star(n)) == (n - 1) ** 2

    def test_single_vertex(self):
        t = from_edge_list(1, [])
        assert wiener_edge_cut(t) == wiener_bfs(t) == 0
        assert reverse_wiener(t) == 0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_two_routes_agree_exhaustively(self, n):
        for t in gen_free_trees(n):
            assert wiener_edge_cut(t) == wiener_bfs(t)

    def test_two_routes_agree_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 60)
            seq = [rng.randrange(n) for _ in range(n - 2)]
            t = from_pruefer(n, seq)
            assert wiener_edge_cut(t) == wiener_bfs(t)


class TestReverseWiener:
    @pytest.mark.parametrize(
        "t, expected",
        [
            (path(2), 0),  # W = 1, d = 1
            (star(4), 3),  # W = 9, d = 2, Lambda = 12 - 9
            (path(4), 8),  # W = 10, d = 3
            (path(5), 20),  # W = 20, d = 4
        ],
    )
    def test_known_values(self, t, expected):
        assert reverse_wiener(t) == expected

    @pytest.mark.parametrize("n", range(3, 10))
    def test_star_is_n_minus_1(self, n):
        assert reverse_wiener(star(n)) == n - 1

    def test_metrics_consistency(self):
        m = metrics(path(6))
        assert m.n == 6
        assert m.wiener == 35
        assert m.diameter == 5
        assert m.centers == (2, 3)
        assert m.reverse_wiener == 6 * 5 * 5 // 2 - 35



class TestOnePass:
    """``wiener_and_diameter`` and the ``reverse_wiener`` built on it, against the independent routes."""

    def test_matches_bfs_routes(self, sample_trees):
        for t in sample_trees:
            assert wiener_and_diameter(t) == (wiener_bfs(t), diameter_and_centers(t)[0]), t.edges

    def test_edge_cut_matches_bfs(self, sample_trees):
        for t in sample_trees:
            assert wiener_edge_cut(t) == wiener_bfs(t), t.edges

    def test_reverse_wiener_matches_metrics(self, sample_trees):
        for t in sample_trees:
            assert reverse_wiener(t) == metrics(t).reverse_wiener, t.edges

    def test_only_the_one_pass_reads_the_stored_bfs(self):
        # A star's BFS stored on a path.  It still ends at vertex 5, a
        # farthest vertex from 0, so the first sweep of metrics' double
        # sweep lands where a fresh BFS would; every other search is its own.
        t = path(6)
        wrong = replace(t, bfs=(tuple(range(6)), (-1, 0, 0, 0, 0, 0)))
        assert reverse_wiener(t) == 40
        assert reverse_wiener(wrong) == 5
        assert wiener_edge_cut(wrong) == wiener_edge_cut(t) == 35
        assert wiener_bfs(wrong) == wiener_bfs(t) == 35
        assert metrics(wrong) == metrics(t)
