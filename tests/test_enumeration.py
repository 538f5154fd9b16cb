"""Generators and ranking oracles, cross-validated against independent routes."""

from functools import lru_cache

import pytest

from revwiener.enumeration import (
    _diam4_classes,
    _levels_metrics,
    _levels_to_tree,
    _min2_diam4_specs,
    free_tree_level_sequences,
    free_trees_by_extension,
    gen_diam4_specs,
    gen_free_trees,
    gen_labeled_trees,
    min_lambda_diam,
    rank_trees,
    second_min_lambda_diam,
)
from revwiener.errors import BoundExceeded, EmptyClass
from revwiener.families import Diam4Spec, diam4, lambda_diam4_closed, star
from revwiener.invariants import metrics, reverse_wiener
from revwiener.tree import canonical_code, diameter_and_centers

# Number of free (unlabeled) trees on n = 1..12 vertices.
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


class TestFreeTrees:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts(self, n):
        assert sum(1 for _ in gen_free_trees(n)) == FREE_TREE_COUNTS[n - 1]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_representative_per_class(self, n):
        codes = [canonical_code(t) for t in gen_free_trees(n)]
        assert len(codes) == len(set(codes))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_agrees_with_extension_dedup(self, n):
        fast = {canonical_code(t) for t in gen_free_trees(n)}
        slow = set(free_trees_by_extension(n))
        assert fast == slow

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            list(gen_free_trees(21))
        assert sum(1 for _ in gen_free_trees(16)) == 19320

    def test_nonpositive_n(self):
        with pytest.raises(BoundExceeded):
            list(gen_free_trees(0))


class TestLevelsMetrics:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_bfs_and_edge_cut(self, n):
        # invariants.metrics takes d from BFS and W from the edge-cut sum.
        for levels in free_tree_level_sequences(n):
            m = metrics(_levels_to_tree(levels))
            assert _levels_metrics(levels) == (m.wiener, m.diameter, m.reverse_wiener)


class TestLabeledTrees:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cayley_counts(self, n):
        expected = 1 if n <= 2 else n ** (n - 2)
        assert sum(1 for _ in gen_labeled_trees(n)) == expected

    @pytest.mark.parametrize("n", range(3, 7))
    def test_classes_match_free_trees(self, n):
        labeled = {canonical_code(t) for t in gen_labeled_trees(n)}
        free = {canonical_code(t) for t in gen_free_trees(n)}
        assert labeled == free


class TestDiam4Specs:
    @pytest.mark.parametrize("n", range(5, 13))
    def test_bijection_with_diameter_4_classes(self, n):
        from_specs = {canonical_code(diam4(s)) for s in gen_diam4_specs(n)}
        from_trees = {
            canonical_code(t)
            for t in gen_free_trees(n)
            if diameter_and_centers(t)[0] == 4
        }
        assert from_specs == from_trees

    @pytest.mark.parametrize("n", range(5, 13))
    def test_no_duplicate_specs(self, n):
        specs = list(gen_diam4_specs(n))
        assert len(specs) == len(set(specs))
        assert all(s.n == n for s in specs)

    def test_empty_below_5(self):
        assert list(gen_diam4_specs(4)) == []

    @pytest.mark.parametrize("n", range(5, 25))
    def test_same_order_as_part_by_part_walk(self, n):
        assert list(gen_diam4_specs(n)) == list(_part_by_part_specs(n))

    def test_count_matches_generating_function(self):
        # q[m] = partitions of m into parts >= 2, the coefficients of
        # prod_{j >= 2} 1 / (1 - x^j); one of them has a single part.
        q = [1] + [0] * 40
        for part in range(2, 41):
            for m in range(part, 41):
                q[m] += q[m - part]
        for n in range(1, 41):
            expected = sum(q[rest] - 1 for rest in range(4, n))
            assert sum(1 for _ in gen_diam4_specs(n)) == expected, n

    @pytest.mark.parametrize("n", range(5, 31))
    def test_carried_lambda_matches_closed_form(self, n):
        for lam, spec in _diam4_classes(n):
            assert lam == lambda_diam4_closed(spec)
            if n <= 14:
                assert lam == reverse_wiener(diam4(spec))

    @pytest.mark.parametrize("tie_cap", (1, 2, 64))
    def test_min2_matches_full_sort(self, tie_cap):
        for n in range(5, 31):
            by_value: dict[int, list] = {}
            for spec in gen_diam4_specs(n):
                by_value.setdefault(lambda_diam4_closed(spec), []).append(spec)
            smallest = sorted(by_value.items())[:2]
            expected = [(v, specs[:tie_cap], len(specs) > tie_cap) for v, specs in smallest]
            assert _min2_diam4_specs(n, tie_cap) == expected, n


def _part_by_part_specs(n):
    """The diameter-4 classes as the partition walk that picks one part per level."""

    def partitions(rest, cap, acc):
        if rest == 0:
            if len(acc) >= 2:
                yield acc
            return
        for part in range(min(cap, rest), 1, -1):
            if rest - part != 1:
                yield from partitions(rest - part, part, acc + [part])

    for n0 in range(n - 4):
        for blocks in partitions(n - 1 - n0, n - 1 - n0, []):
            counts: dict[int, int] = {}
            for block in blocks:
                counts[block - 1] = counts.get(block - 1, 0) + 1
            yield Diam4Spec(n0=n0, parts=tuple(sorted(counts.items())))


class TestRankTrees:
    def test_two_vertices(self):
        entries = rank_trees(2, 1)
        assert len(entries) == 1
        assert entries[0].value == 0
        assert entries[0].trees == (canonical_code(star(2)),)

    def test_matches_direct_sort(self):
        # Compare against the naive full sort; k = 50 is more values than exist.
        for n in range(6, 12):
            ranked = _full_sort(n)
            for k in (4, 50):
                entries = rank_trees(n, k)
                assert [(e.value, set(e.trees)) for e in entries] == [(v, set(c)) for v, c in ranked[:k]]
                assert not any(e.truncated for e in entries)

    def test_tie_cap_truncates(self):
        # A tie set keeps the first tie_cap trees in generator order and is
        # flagged truncated past the cap.
        for n in range(6, 12):
            ranked = _full_sort(n)
            for k in (3, 50):
                for tie_cap in (1, 2):
                    entries = rank_trees(n, k, tie_cap=tie_cap)
                    assert [e.value for e in entries] == [v for v, _ in ranked[:k]]
                    for entry, (_, codes) in zip(entries, ranked):
                        assert entry.trees == tuple(sorted(codes[:tie_cap]))
                        assert entry.truncated == (len(codes) > tie_cap)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            rank_trees(25, 2)


@lru_cache(maxsize=None)
def _full_sort(n):
    """Every distinct reverse-Wiener value on n vertices, with its codes in generator order."""
    by_value: dict[int, list[str]] = {}
    for t in gen_free_trees(n):
        by_value.setdefault(reverse_wiener(t), []).append(canonical_code(t))
    return sorted(by_value.items())


class TestClassExtrema:
    @pytest.mark.parametrize("n", range(5, 13))
    @pytest.mark.parametrize("d", (3, 4))
    def test_against_direct_minimum(self, n, d):
        values = sorted(
            {
                reverse_wiener(t)
                for t in gen_free_trees(n)
                if diameter_and_centers(t)[0] == d
            }
        )
        assert min_lambda_diam(n, d).value == values[0]
        if len(values) > 1:
            assert second_min_lambda_diam(n, d).value == values[1]

    def test_diam4_route_reports_specs(self):
        result = min_lambda_diam(30, 4)
        assert all(reverse_wiener(diam4(spec)) == result.value for spec in result.attaining)

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            min_lambda_diam(4, 4)  # no diameter-4 tree on 4 vertices
        with pytest.raises(EmptyClass):
            second_min_lambda_diam(5, 4)  # P_5 is the only one on 5

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            min_lambda_diam(100, 4, max_n_diam4=80)
        with pytest.raises(BoundExceeded):
            min_lambda_diam(25, 5)
