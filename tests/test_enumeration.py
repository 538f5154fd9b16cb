"""Generators and ranking oracles, cross-validated against independent routes."""

import random
from functools import lru_cache
from itertools import product

import pytest

from revwiener import enumeration
from revwiener.cli import EXIT_INTERNAL, main
from revwiener.closed_forms import f_n3
from revwiener.enumeration import (
    _Buckets,
    _diam3_classes,
    _diam4_classes,
    _free_tree_metrics,
    _height_floors,
    _levels_to_parents,
    _levels_to_tree,
    _max_wiener_by_height,
    _seeded_cutoff,
    free_tree_level_sequences,
    gen_diam4_specs,
    gen_free_trees,
    lambda_lower_bounds,
    rank_trees,
)
from revwiener.errors import BoundExceeded, DomainTooSmall, EmptyClass, InternalCheckFailed
from revwiener.families import Diam4Spec, DoubleStarSpec, diam4, double_star, lambda_diam4_closed, star
from revwiener.invariants import metrics, reverse_wiener
from revwiener.tree import canonical_code, diameter_and_centers, from_edge_list, from_pruefer, wiener_diameter_fold

# Number of free (unlabeled) trees on n = 1..14 vertices (Otter).
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]


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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_diameter_filter_matches_built_trees(self, n):
        trees = list(gen_free_trees(n))
        occurring = {diameter_and_centers(t)[0] for t in trees}
        for d in range(-1, n + 1):
            if d not in occurring:
                with pytest.raises(EmptyClass, match=rf"^no tree on {n} vertices has diameter {d}$"):
                    list(gen_free_trees(n, diameter=d))
                continue
            kept = [t.edges for t in gen_free_trees(n, diameter=d)]
            assert kept == [t.edges for t in trees if diameter_and_centers(t)[0] == d], d

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            list(gen_free_trees(23))
        with pytest.raises(BoundExceeded):
            list(gen_free_trees(23, diameter=5))
        assert sum(1 for _ in gen_free_trees(16)) == 19320

    def test_nonpositive_n(self):
        for diameter in (None, 3):
            with pytest.raises(DomainTooSmall, match=r"^n must be at least 1, got 0$"):
                list(gen_free_trees(0, diameter=diameter))
            # The lower end is checked before the bound, so a bound below n does not hide it.
            with pytest.raises(DomainTooSmall):
                list(gen_free_trees(-1, max_n=-5, diameter=diameter))


class TestLevelSequences:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_same_order_as_rooted_successor_and_skip(self, n):
        assert [list(levels) for levels, _ in free_tree_level_sequences(n)] == list(_reference_level_sequences(n))

    @pytest.mark.parametrize("n", range(1, 19))
    def test_prefix_before_pivot_unchanged(self, n):
        # The walk's height read relies on this: equal before the pivot, smaller at it.
        previous = None
        for levels, pivot in free_tree_level_sequences(n):
            if previous is None:
                assert pivot == 0
            else:
                assert 1 <= pivot < n
                assert levels[:pivot] == previous[:pivot]
                assert levels[pivot] < previous[pivot]
            previous = list(levels)


class TestLevelsMetrics:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_bfs_and_edge_cut(self, n):
        # invariants.metrics takes d from BFS and W from the edge-cut sum.
        for levels, d, lam in _free_tree_metrics(n):
            m = metrics(_levels_to_tree(levels))
            wiener = n * (n - 1) * d // 2 - lam
            assert (wiener, d, lam) == _levels_metrics(levels) == (m.wiener, m.diameter, m.reverse_wiener)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_fold_over_level_order_matches_reverse_pass(self, n):
        # A level sequence is a preorder, so range(n) lists each vertex after its parent.
        for levels, _, _ in _free_tree_metrics(n):
            w, d = wiener_diameter_fold(n, range(n), _levels_to_parents(levels))
            assert (w, d, n * (n - 1) * d // 2 - w) == _levels_metrics(levels), levels

    def test_sample_at_18(self):
        picked = set(random.Random(18).sample(range(123867), 300))
        seen = 0
        for index, (levels, d, lam) in enumerate(_free_tree_metrics(18)):
            if index in picked:
                seen += 1
                m = metrics(_levels_to_tree(levels))
                assert (d, lam) == _levels_metrics(levels)[1:] == (m.diameter, m.reverse_wiener), index
        assert seen == len(picked)


class TestDiam3Classes:
    @pytest.mark.parametrize("n", range(4, 121))
    def test_one_class_per_double_star(self, n):
        classes = list(_diam3_classes(n))
        assert len(classes) == n // 2 - 1
        for a, (lam, levels) in zip(range(2, n // 2 + 1), classes):
            t = double_star(DoubleStarSpec(n=n, a=a))
            assert lam == reverse_wiener(t), a
            assert canonical_code(_levels_to_tree(levels)) == canonical_code(t), a

    @pytest.mark.parametrize("n", range(1, 17))
    def test_same_classes_as_free_trees_of_diameter_3(self, n):
        from_free = {
            (lam, canonical_code(_levels_to_tree(levels)))
            for levels, d, lam in _free_tree_metrics(n)
            if d == 3
        }
        classes = [(lam, canonical_code(_levels_to_tree(levels))) for lam, levels in _diam3_classes(n)]
        assert len(classes) == len(set(classes))
        assert set(classes) == from_free

    @pytest.mark.parametrize("n", range(1, 13))
    def test_runs_fold_matches_vertex_fold_on_free_trees(self, n):
        # Each run of leaf siblings folded into its parent as a leaf count.
        for levels, _, _ in _free_tree_metrics(n):
            parent = _levels_to_parents(levels)
            kept = [i for i in range(n) if i == 0 or (i + 1 < n and levels[i + 1] > levels[i])]
            index = {v: j for j, v in enumerate(kept)}
            leaves = [0] * len(kept)
            for i in set(range(n)) - set(kept):
                leaves[index[parent[i]]] += 1
            folded = wiener_diameter_fold(n, range(len(kept)), [index.get(parent[v], -1) for v in kept], leaves)
            assert folded == wiener_diameter_fold(n, range(n), parent), levels

    def test_runs_fold_matches_vertex_fold_on_double_stars(self):
        for n in range(4, 201):
            for lam, levels in _diam3_classes(n):
                w, d = wiener_diameter_fold(n, range(n), _levels_to_parents(levels))
                assert lam == n * (n - 1) * 3 // 2 - w and d == 3, levels

    def test_wrong_diameter_raises(self, monkeypatch):
        # The check must survive `python -O`, so it raises rather than asserts.
        monkeypatch.setattr(enumeration, "wiener_diameter_fold", lambda *args: (0, 4))
        with pytest.raises(InternalCheckFailed):
            list(_diam3_classes(8))


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
        for n in range(1, 5):
            assert list(gen_diam4_specs(n)) == []

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n(self, n):
        with pytest.raises(DomainTooSmall) as exc:
            list(gen_diam4_specs(n))
        assert str(exc.value) == f"n must be at least 1, got {n}"

    @pytest.mark.parametrize("n", range(5, 25))
    def test_same_order_as_part_by_part_walk(self, n):
        assert list(gen_diam4_specs(n)) == list(_part_by_part_specs(n))

    def test_count_matches_generating_function(self):
        counts = _diam4_class_counts(40)
        for n in range(1, 41):
            assert sum(1 for _ in gen_diam4_specs(n)) == counts[n], n

    @pytest.mark.parametrize("n", range(5, 31))
    def test_walk_matches_run_by_run_recursion(self, n):
        expected = [(lam, spec.n0, spec.parts) for lam, spec in _run_by_run_classes(n)]
        assert list(_diam4_classes(n)) == expected

    def test_min2_builds_one_spec_per_class(self, monkeypatch):
        # The traced benchmark counts Diam4Spec calls made through the
        # enumeration module's global and requires one per class.
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return Diam4Spec(*args, **kwargs)

        monkeypatch.setattr(enumeration, "Diam4Spec", counting)
        counts = _diam4_class_counts(30)
        for n in range(5, 31):
            built.clear()
            rank_trees(n, 1, 4)
            assert len(built) == counts[n], n

    def test_ranking_all_trees_builds_no_spec(self, monkeypatch):
        # The cutoff reads the diameter-4 values alone, and the traced
        # benchmark requires no Diam4Spec call on the free-tree workloads.
        def refuse(*args, **kwargs):
            raise AssertionError("the all-trees ranking built a Diam4Spec")

        monkeypatch.setattr(enumeration, "Diam4Spec", refuse)
        for n in range(5, 19):
            rank_trees(n, 50)

    @pytest.mark.parametrize("n", range(5, 31))
    def test_carried_lambda_matches_closed_form(self, n):
        for lam, n0, parts in _diam4_classes(n):
            spec = Diam4Spec(n0, parts)
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
            expected = [(v, [specs[:tie_cap], len(specs) > tie_cap]) for v, specs in smallest]
            buckets = _Buckets(2, tie_cap).fill((lam, Diam4Spec(n0, parts)) for lam, n0, parts in _diam4_classes(n))
            assert sorted(buckets.data.items()) == expected, n


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


def _run_by_run_classes(n):
    """(index, spec) per diameter-4 class, one generator frame per run of equal blocks."""
    top = 2 * n * (n - 1) - (n - 1) * (2 * n - 3)
    m = n - 2

    def runs(rest, cap, n0, k, sq, parts):
        for c in range(min(cap + 1, rest), 2, -1):
            v = c - 1
            for b in range(rest // c, 0, -1):
                left = rest - b * c
                if left == 0:
                    yield top + m * (n0 + k + b) + sq + b * v * v, Diam4Spec(n0=n0, parts=((v, b),) + parts)
                elif left > 1:
                    yield from runs(left, v - 1, n0, k + b, sq + b * v * v, ((v, b),) + parts)
        if rest % 2 == 0:
            b = rest // 2
            yield top + m * (n0 + k + b) + sq + b, Diam4Spec(n0=n0, parts=((1, b),) + parts)

    for n0 in range(n - 4):
        rest = n - 1 - n0
        yield from runs(rest, rest - 3, n0, 0, 0, ())


def _diam4_class_counts(n_max):
    """Diameter-4 classes on n = 0..n_max vertices, from the generating function.

    q[m] counts the partitions of m into parts >= 2, the coefficients of
    prod_{j >= 2} 1 / (1 - x^j); one of them has a single part.
    """
    q = [1] + [0] * n_max
    for part in range(2, n_max + 1):
        for m in range(part, n_max + 1):
            q[m] += q[m - part]
    return [sum(q[rest] - 1 for rest in range(4, n)) for n in range(n_max + 1)]


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

    @pytest.mark.parametrize("n", range(1, 17))
    def test_first_ties_in_reference_order(self, n):
        # The buckets copy the generator's reused list only when they keep
        # it; a capped tie set holds the first trees in reference order.
        by_value: dict[int, list] = {}
        for levels in _reference_level_sequences(n):
            by_value.setdefault(_levels_metrics(levels)[2], []).append(levels)
        smallest = sorted(by_value.items())[:3]
        for tie_cap in (1, 2):
            expected = [
                (value, tuple(sorted(canonical_code(_levels_to_tree(lv)) for lv in seqs[:tie_cap])), len(seqs) > tie_cap)
                for value, seqs in smallest
            ]
            entries = rank_trees(n, 3, tie_cap=tie_cap)
            assert [(e.value, e.trees, e.truncated) for e in entries] == expected

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            rank_trees(25, 2)

    @pytest.mark.parametrize("n, k, message", [
        (5, 0, "k must be at least 1, got 0"),
        (5, -1, "k must be at least 1, got -1"),
        # k is checked before n, so a bound error does not hide it.
        (25, 0, "k must be at least 1, got 0"),
        (0, 3, "n must be at least 1, got 0"),
        (-2, 3, "n must be at least 1, got -2"),
    ])
    def test_nonpositive_n_or_k(self, n, k, message):
        with pytest.raises(DomainTooSmall) as exc:
            rank_trees(n, k)
        assert str(exc.value) == message

    @pytest.mark.parametrize("diameter", [None, 3])
    @pytest.mark.parametrize("tie_cap", [0, -2])
    def test_tie_cap_below_one(self, diameter, tie_cap):
        # A tie set capped at no trees would be a ranking that names none.
        with pytest.raises(DomainTooSmall) as exc:
            rank_trees(6, 3, diameter, tie_cap=tie_cap)
        assert str(exc.value) == f"tie_cap must be at least 1, got {tie_cap}"


class TestVisitCount:
    # perfbench counts trees_visited by wrapping the module-global generator
    # name, and its check_trace compares that count with Otter's.

    # The height-pruned walk still draws every tree, so the count is Otter's.
    @pytest.mark.parametrize("n", range(1, 15))
    def test_oracles_reach_the_generator_through_its_global_name(self, n, monkeypatch):
        generator = enumeration.free_tree_level_sequences
        visited = []

        def counted(m):
            for item in generator(m):
                visited.append(item)
                yield item

        monkeypatch.setattr(enumeration, "free_tree_level_sequences", counted)
        rank_trees(n, 3)
        assert len(visited) == FREE_TREE_COUNTS[n - 1]
        if n >= 6:
            visited.clear()
            rank_trees(n, 1, 5)
            assert len(visited) == FREE_TREE_COUNTS[n - 1]


class TestHeightBound:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_max_wiener_and_floors_match_exhaustive(self, n):
        # Per center height h = max(levels): the largest W and the smallest Λ.
        pairs = n * (n - 1) // 2
        max_w: dict[int, int] = {}
        min_lam: dict[int, int] = {}
        for levels, d, lam in _free_tree_metrics(n):
            h = max(levels)
            max_w[h] = max(max_w.get(h, 0), pairs * d - lam)
            min_lam[h] = min(min_lam.get(h, lam), lam)
        expected, best = [], None
        for h in range(n // 2 + 2):  # one height past the path's, where nothing changes
            if h in max_w:
                best = max_w[h] if best is None else max(best, max_w[h])
            expected.append(best)
        rows = _max_wiener_by_height(n, n // 2 + 1)
        assert [row[n] for row in rows] == expected
        floors = _height_floors(n)
        assert sorted(floors) == sorted(min_lam)
        for h, lam in min_lam.items():
            assert floors[h] == lam, h

    @pytest.mark.parametrize("n", range(1, 17))
    def test_lambda_lower_bounds_match_exhaustive(self, n):
        # The bound of each diameter is the smallest Λ over its trees.
        min_lam: dict[int, int] = {}
        for _, d, lam in _free_tree_metrics(n):
            min_lam[d] = min(min_lam.get(d, lam), lam)
        assert lambda_lower_bounds(n) == min_lam

    @pytest.mark.parametrize("n", range(1, 19))
    def test_pruned_ranking_matches_unpruned_fill(self, n):
        # The unpruned walk is stored once, so each (k, tie cap) refills it.
        walk = [(lam, tuple(levels)) for levels, _, lam in _free_tree_metrics(n)]
        for k in (1, 2, 3, 10, 50):
            for tie_cap in (1, 2, 64):
                expected = _Buckets(k, tie_cap, list).fill(walk).entries()
                assert rank_trees(n, k, tie_cap=tie_cap) == expected, (k, tie_cap)

    def test_small_k_prunes_every_height_past_two(self):
        for n in range(6, 19):
            cutoff = _seeded_cutoff(n, 3)
            assert [h for h, b in _height_floors(n).items() if b <= cutoff] == [1, 2], n
        # n = 17 seeds 57 distinct values: the star, the double stars and the diameter-4 classes.
        assert _seeded_cutoff(17, 57) is not None
        assert _seeded_cutoff(17, 58) is None

    def test_k50_keeps_heights_one_and_two(self):
        assert _seeded_cutoff(17, 50) == 230
        for n in (14, *range(16, 23)):
            cutoff = _seeded_cutoff(n, 50)
            assert [h for h, b in _height_floors(n).items() if b <= cutoff] == [1, 2], n
        # Fewer than 50 distinct seeds at n = 15: the walk stays unpruned.
        assert _seeded_cutoff(15, 50) is None
        # B(3) = L(17, 5) = 234 > 230: at n = 17 the walk keeps 223 of the 48,629 trees.
        kept = {h: b for h, b in _height_floors(17).items() if b <= 230}
        assert sum(1 for _ in _free_tree_metrics(17, floors=kept)) == 223

    def test_seeds_are_the_trees_of_center_height_at_most_two(self):
        # From n = 3 on, where the star K(1,n-1) has center height 1 and value n - 1.
        for n in range(3, 17):
            values = sorted({lam for levels, _, lam in _free_tree_metrics(n) if max(levels) <= 2})
            for k in range(1, len(values) + 2):
                assert _seeded_cutoff(n, k) == (values[k - 1] if k <= len(values) else None), (n, k)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_height_filter_walks_exactly_its_height(self, n):
        # The height is read off the pivot; a filter on one height must keep
        # exactly the unfiltered walk's trees of that height, in its order.
        by_height: dict[int, list] = {}
        for levels, d, lam in _free_tree_metrics(n):
            by_height.setdefault(max(levels), []).append((tuple(levels), d, lam))
        floors = _height_floors(n)
        assert sorted(floors) == sorted(by_height)
        for h, bound in floors.items():
            walked = [(tuple(levels), d, lam) for levels, d, lam in _free_tree_metrics(n, floors={h: bound})]
            assert walked == by_height[h], h

    def test_understated_max_wiener_raises(self, monkeypatch):
        # L(n, 3) raised to the third smallest value, so B(2) is too: height 2
        # is still walked, and its two double stars below that value break the bound.
        n = 12
        third = rank_trees(n, 3)[2].value
        real = enumeration.lambda_lower_bounds
        monkeypatch.setattr(
            enumeration, "lambda_lower_bounds", lambda m: {d: third if d == 3 else b for d, b in real(m).items()}
        )
        assert _height_floors(n)[2] == third
        with pytest.raises(InternalCheckFailed, match="below the height bound"):
            rank_trees(n, 3)

    def test_understated_max_wiener_raises_in_a_diameter_class(self, monkeypatch):
        # L(n, 5) and L(n, 6), so B(3), raised just past the smallest value of
        # diameter 5, a height-3 class.
        n = 12
        smallest = rank_trees(n, 1, 5)[0].value
        real = enumeration.lambda_lower_bounds
        monkeypatch.setattr(
            enumeration,
            "lambda_lower_bounds",
            lambda m: {d: smallest + 1 if d in (5, 6) else b for d, b in real(m).items()},
        )
        assert _height_floors(n, 5) == {3: smallest + 1}
        with pytest.raises(InternalCheckFailed, match="below the height bound"):
            rank_trees(n, 3, 5)
        with pytest.raises(InternalCheckFailed, match="below the height bound"):
            list(gen_free_trees(n, diameter=5))

    def test_cutoff_below_the_kept_values_raises(self, monkeypatch, capsys):
        # A seed value too small gives a cutoff below the true third value.
        real = enumeration._diam3_classes
        monkeypatch.setattr(enumeration, "_diam3_classes", lambda n: ((lam - n, lv) for lam, lv in real(n)))
        with pytest.raises(InternalCheckFailed, match="cutoff"):
            rank_trees(12, 3)
        assert main(["rank", "--n", "12", "--k", "3"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal check failed:") and "cutoff" in captured.err


@lru_cache(maxsize=None)
def _full_sort(n):
    """Every distinct reverse-Wiener value on n vertices, with its codes in generator order."""
    by_value: dict[int, list[str]] = {}
    for t in gen_free_trees(n):
        by_value.setdefault(reverse_wiener(t), []).append(canonical_code(t))
    return sorted(by_value.items())


@lru_cache(maxsize=None)
def _by_diameter(n):
    """diameter -> reverse-Wiener value -> canonical codes, over every free tree on n vertices."""
    table: dict[int, dict[int, list[str]]] = {}
    for t in gen_free_trees(n):
        by_value = table.setdefault(diameter_and_centers(t)[0], {})
        by_value.setdefault(reverse_wiener(t), []).append(canonical_code(t))
    return table


class TestClassExtrema:
    # Every route: the double stars at d = 3, the partition walk at d = 4,
    # and the filtered free-tree walk at d = 2 and d >= 5.
    @pytest.mark.parametrize("d, n", [(d, n) for n in range(5, 13) for d in range(2, n)])
    def test_against_direct_minimum(self, d, n):
        expected = [(value, tuple(sorted(codes)), False) for value, codes in sorted(_by_diameter(n)[d].items())[:3]]
        entries = rank_trees(n, 3, diameter=d)
        assert [(e.value, e.trees, e.truncated) for e in entries] == expected
        assert rank_trees(n, 1, d)[0] == entries[0]
        if len(entries) > 1:
            assert rank_trees(n, 2, d)[1] == entries[1]
        else:
            assert len(rank_trees(n, 2, d)) == 1

    def test_diam4_route_reports_specs(self):
        # The oracle's codes are those of every class that has its value.
        by_value: dict[int, set] = {}
        for spec in gen_diam4_specs(30):
            by_value.setdefault(reverse_wiener(diam4(spec)), set()).add(canonical_code(diam4(spec)))
        for k, (value, codes) in zip((1, 2), sorted(by_value.items())):
            entry = rank_trees(30, k, 4)[k - 1]
            assert (entry.value, entry.trees, entry.truncated) == (value, tuple(sorted(codes)), False)

    def test_diam3_route_serves_any_n(self):
        # Each value is attained by one double star, at any n.
        balanced = rank_trees(57, 1, 3)[0]
        assert (balanced.value, balanced.trees) == (896, (canonical_code(double_star(DoubleStarSpec(n=57, a=28))),))
        second = rank_trees(57, 2, 3)[1]
        assert (second.value, second.trees) == (898, (canonical_code(double_star(DoubleStarSpec(n=57, a=27))),))
        far = rank_trees(200, 1, 3)[0]
        assert (far.value, far.trees) == (f_n3(200), (canonical_code(double_star(DoubleStarSpec(n=200, a=100))),))
        # No free-tree bound applies to the double stars.
        assert [e.value for e in rank_trees(57, 2, diameter=3, max_n_free=5)] == [896, 898]

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            rank_trees(4, 1, 4)  # no diameter-4 tree on 4 vertices
        assert len(rank_trees(5, 2, 4)) == 1  # P_5 is the only one on 5
        for d in (1, 8):  # outside 2..n-1
            with pytest.raises(EmptyClass):
                rank_trees(8, 2, diameter=d)
            with pytest.raises(EmptyClass):
                rank_trees(8, 1, d)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_class_rule_is_the_diameters_that_occur(self, n):
        # K_1 has diameter 0 and K_2 diameter 1; from n = 3 on, 2..n-1 occur.
        occurring = {diameter_and_centers(t)[0] for t in gen_free_trees(n)}
        for d in range(-1, n + 2):
            if d in occurring:
                assert len(rank_trees(n, 1, d)) == 1, d
            else:
                with pytest.raises(EmptyClass, match=rf"^no tree on {n} vertices has diameter {d}$"):
                    rank_trees(n, 1, d)
        assert [e.value for e in rank_trees(2, 1, 1)] == [0]
        assert [e.value for e in rank_trees(1, 1, 0)] == [0]

    def test_class_rule_comes_between_n_and_the_bound(self):
        # n below 1 first, then the class rule, then the bound.
        with pytest.raises(DomainTooSmall):
            rank_trees(0, 1, 5)
        with pytest.raises(EmptyClass):
            rank_trees(30, 1, 40)
        with pytest.raises(EmptyClass):
            list(gen_free_trees(30, diameter=40))
        with pytest.raises(BoundExceeded):
            rank_trees(30, 1, 5)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            rank_trees(100, 1, 4, max_n_diam4=80)
        with pytest.raises(BoundExceeded):
            rank_trees(25, 1, 5)

    @pytest.mark.parametrize("diameter", [None, 2, 3, 4, 5])
    def test_class_bound_is_the_bound_rank_trees_enforces(self, diameter):
        guard = enumeration.class_bound(diameter, 8, 10)
        if guard is None:
            # No bound: well past both, the class still ranks.
            assert rank_trees(11, 1, diameter, max_n_free=8, max_n_diam4=10)
            return
        bound, oracle = guard
        with pytest.raises(BoundExceeded) as exc:
            rank_trees(bound + 1, 1, diameter, max_n_free=8, max_n_diam4=10)
        assert str(exc.value) == f"n={bound + 1} exceeds {oracle} bound {bound}"
        assert rank_trees(bound, 1, diameter, max_n_free=8, max_n_diam4=10)


# --- references: rooted successor plus skip, and a reverse metrics pass -------------


def _successor_rooted(levels, p=None):
    """Next rooted-tree level sequence in reverse lexicographic order, as a new list."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = list(levels)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_root(levels):
    """Left subtree of the root, and the tree with that subtree removed."""
    m = len(levels)
    seen_one = False
    for i, lvl in enumerate(levels):
        if lvl == 1:
            if seen_one:
                m = i
                break
            seen_one = True
    left = [levels[i] - 1 for i in range(1, m)]
    rest = [0] + levels[m:]
    return left, rest


def _skip_to_free(levels):
    """Return ``levels`` if it encodes a free tree, else the next one that does."""
    left, rest = _split_root(levels)
    lh, rh = max(left), max(rest)
    valid = rh >= lh
    if valid and rh == lh:
        if len(left) > len(rest) or (len(left) == len(rest) and left > rest):
            valid = False
    if valid:
        return levels
    p = len(left)
    nxt = _successor_rooted(levels, p)
    if levels[p] > 2 and nxt is not None:
        new_left, _ = _split_root(nxt)
        suffix = list(range(1, max(new_left) + 2))
        nxt[-len(suffix):] = suffix
    return nxt


def _reference_level_sequences(n):
    """Free-tree level sequences by rooted successor plus skip, each a fresh list."""
    if n == 1:
        yield [0]
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        levels = _skip_to_free(levels)
        if levels is None:
            return
        yield levels
        levels = _successor_rooted(levels)


def _levels_metrics(levels):
    """(wiener, diameter, reverse_wiener) in one reverse pass over a level sequence.

    Scanning right to left, the children of the vertex met at level l are
    the vertices at level l + 1 seen since the last vertex at level l.  So
    index l + 1 of ``size`` holds that vertex's subtree size less one, and
    of ``top1`` and ``top2`` the two largest heights + 1 among its children.
    """
    n = len(levels)
    size = [0] * (n + 1)
    top1 = [0] * (n + 1)
    top2 = [0] * (n + 1)
    w = d = 0
    for lvl in reversed(levels):
        below = lvl + 1
        s = size[below] + 1
        a = top1[below]
        b = top2[below]
        size[below] = top1[below] = top2[below] = 0
        if a + b > d:
            d = a + b
        w += s * (n - s)
        size[lvl] += s
        a += 1
        if a > top1[lvl]:
            top2[lvl] = top1[lvl]
            top1[lvl] = a
        elif a > top2[lvl]:
            top2[lvl] = a
    return w, d, n * (n - 1) * d // 2 - w


# --- references: labeled trees by Pruefer decoding, and classes by leaf attachment ---


def gen_labeled_trees(n):
    """All labeled trees on n vertices, decoded from Pruefer sequences."""
    for seq in product(range(n), repeat=max(n - 2, 0)):
        yield from_pruefer(n, seq)


def free_trees_by_extension(n):
    """One tree per class on n vertices: grow classes by leaf attachment, dedup by canonical code.

    Independent of the level-sequence generator; used for cross-validation.
    """
    classes = {canonical_code(from_edge_list(1, [])): from_edge_list(1, [])}
    for m in range(2, n + 1):
        grown = {}
        for t in classes.values():
            for v in range(t.n):
                bigger = from_edge_list(m, list(t.edges) + [(v, m - 1)])
                grown.setdefault(canonical_code(bigger), bigger)
        classes = grown
    return classes
