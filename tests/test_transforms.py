"""Each rewrite must strictly decrease the reverse Wiener index, exactly as claimed."""

import pytest

from revwiener.enumeration import gen_free_trees
from revwiener.errors import PreconditionFailed
from revwiener.families import Diam4Spec, diam4, path, star
from revwiener.invariants import reverse_wiener
from revwiener.transforms import (
    lemma1_pendant_shift,
    lemma2_collapse,
    lemma3_rebalance,
    lemma5_contract,
)
from revwiener.tree import diameter_and_centers, from_edge_list, has_center_pendant


class TestPendantShift:
    def test_diam4_with_hub_pendant(self):
        t = diam4(Diam4Spec(n0=1, parts=((2, 2),)))
        out, delta = lemma1_pendant_shift(t)
        assert delta < 0
        assert delta == reverse_wiener(out) - reverse_wiener(t)
        assert diameter_and_centers(out)[0] == diameter_and_centers(t)[0]

    def test_delta_formula(self):
        # Moving a pendant onto a subtree of size n1 changes Lambda by
        # n1(n - n1) - (n1 + 1)(n - n1 - 1).
        t = diam4(Diam4Spec(n0=2, parts=((1, 2), (3, 1))))
        n = t.n
        out, delta = lemma1_pendant_shift(t)
        n1 = 2  # smallest-label spoke subtree: one spoke plus one leaf
        assert delta == n1 * (n - n1) - (n1 + 1) * (n - n1 - 1)
        assert delta == reverse_wiener(out) - reverse_wiener(t)

    def test_requires_diameter_4(self):
        with pytest.raises(PreconditionFailed):
            lemma1_pendant_shift(star(6))

    def test_requires_center_pendant(self):
        with pytest.raises(PreconditionFailed):
            lemma1_pendant_shift(diam4(Diam4Spec(n0=0, parts=((2, 2),))))


class TestCollapse:
    def test_p5(self):
        t = path(5)
        out, delta = lemma2_collapse(t)
        assert delta == reverse_wiener(out) - reverse_wiener(t) < 0
        assert diameter_and_centers(out)[0] == 2

    def test_diameter_drops_by_two(self):
        t = diam4(Diam4Spec(n0=0, parts=((2, 3),)))
        out, delta = lemma2_collapse(t)
        assert diameter_and_centers(out)[0] == 2
        assert delta == reverse_wiener(out) - reverse_wiener(t) < 0

    def test_odd_diameter_prefers_the_full_drop(self):
        # Collapsing one center's grandchildren would reach diameter 5 here,
        # but at odd d the center-edge contraction drops d by exactly 1.
        edges = [
            (3, 12), (4, 5), (7, 12), (2, 8), (2, 4), (4, 10), (9, 11),
            (1, 9), (6, 12), (6, 10), (0, 10), (0, 1), (1, 13),
        ]
        t = from_edge_list(14, edges)
        assert diameter_and_centers(t)[0] == 7
        out, delta = lemma2_collapse(t)
        assert diameter_and_centers(out)[0] == 6
        assert delta == reverse_wiener(out) - reverse_wiener(t) == -59

    def test_odd_diameter_may_only_drop_by_one(self):
        # Both centers carry two deepest branches inside the co-center
        # subtree, so no collapse reaches diameter 5; the delta must still
        # be the true change.
        edges = [
            (0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7),
            (1, 8), (8, 9), (9, 10), (1, 11), (11, 12), (12, 13),
        ]
        t = from_edge_list(14, edges)
        assert diameter_and_centers(t) == (7, [0, 1])
        out, delta = lemma2_collapse(t)
        assert diameter_and_centers(out)[0] == 6
        assert delta == reverse_wiener(out) - reverse_wiener(t) < 0

    # Drawn by random_lemma_input(random.Random(1898), "lemma2"): diameter 7,
    # and collapsing either center's grandchildren only reaches diameter 6
    # with Λ up by 29, so it pins the center-edge contraction.
    COUNTEREXAMPLE = [
        (0, 20), (1, 20), (4, 13), (5, 10), (8, 23), (10, 21), (2, 11), (2, 3),
        (9, 12), (3, 13), (6, 15), (14, 16), (7, 14), (7, 22), (9, 19), (6, 9),
        (6, 22), (18, 20), (17, 18), (17, 21), (17, 22), (3, 17), (3, 23),
    ]

    def test_counterexample_delta_is_the_true_change(self):
        t = from_edge_list(24, self.COUNTEREXAMPLE)
        assert diameter_and_centers(t)[0] == 7
        out, delta = lemma2_collapse(t)
        assert diameter_and_centers(out)[0] == 6
        assert delta == reverse_wiener(out) - reverse_wiener(t) == -164

    def test_counterexample_decreases(self):
        _, delta = lemma2_collapse(from_edge_list(24, self.COUNTEREXAMPLE))
        assert delta < 0

    def test_requires_no_center_pendant(self):
        with pytest.raises(PreconditionFailed):
            lemma2_collapse(diam4(Diam4Spec(n0=1, parts=((2, 2),))))

    def test_requires_diameter_4(self):
        with pytest.raises(PreconditionFailed):
            lemma2_collapse(path(4))


class TestRebalance:
    def test_moves_one_leaf(self):
        spec = Diam4Spec(n0=0, parts=((1, 1), (4, 2)))
        out, delta = lemma3_rebalance(spec, 1, 0)
        assert out == Diam4Spec(n0=0, parts=((2, 1), (3, 1), (4, 1)))
        assert delta == -2 * (4 - 1 - 1)
        assert delta == reverse_wiener(diam4(out)) - reverse_wiener(diam4(spec))

    def test_preserves_n_k_n0(self):
        spec = Diam4Spec(n0=3, parts=((1, 2), (5, 1)))
        out, _ = lemma3_rebalance(spec, 1, 0)
        assert (out.n, out.k, out.n0) == (spec.n, spec.k, spec.n0)

    def test_requires_gap_at_least_two(self):
        spec = Diam4Spec(n0=0, parts=((2, 1), (3, 1)))
        with pytest.raises(PreconditionFailed):
            lemma3_rebalance(spec, 1, 0)

    def test_index_range(self):
        spec = Diam4Spec(n0=0, parts=((1, 1), (4, 1)))
        with pytest.raises(PreconditionFailed):
            lemma3_rebalance(spec, 5, 0)


class TestContract:
    def test_p6(self):
        t = path(6)
        out, delta = lemma5_contract(t)
        assert delta == reverse_wiener(out) - reverse_wiener(t) < 0
        d, centers = diameter_and_centers(out)
        assert d == 4
        assert any(out.degree(u) == 1 for c in centers for u in out.adj[c])

    def test_two_hub_tree(self):
        # Hubs 0 and 1, two leafed spokes each: diameter 5, no center pendant.
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8), (5, 9)]
        t = from_edge_list(10, edges)
        assert diameter_and_centers(t) == (5, [0, 1])
        out, delta = lemma5_contract(t)
        assert delta == reverse_wiener(out) - reverse_wiener(t) < 0
        assert out.n == t.n
        assert diameter_and_centers(out)[0] == 4

    def test_requires_diameter_5(self):
        with pytest.raises(PreconditionFailed):
            lemma5_contract(path(5))

    def test_requires_no_center_pendant(self):
        # P_6 with an extra pendant on a center still has diameter 5.
        t = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
        assert diameter_and_centers(t)[0] == 5
        with pytest.raises(PreconditionFailed):
            lemma5_contract(t)


class TestEveryFreeTree:
    def test_lemmas_1_2_5_on_every_qualifying_tree_to_16(self):
        # Each output's diameter is exact: lemma 1 keeps d, lemmas 2 and 5
        # give d - 2 at even d and d - 1 at odd d.
        inputs = {lemma1_pendant_shift: 0, lemma2_collapse: 0, lemma5_contract: 0}
        for n in range(5, 17):
            for t in gen_free_trees(n):
                d, centers = diameter_and_centers(t)
                if d < 4:
                    continue
                if has_center_pendant(t, centers):
                    cases = [(lemma1_pendant_shift, d)]
                else:
                    cases = [(lemma2_collapse, d - 2 + d % 2)] + ([(lemma5_contract, 4)] if d == 5 else [])
                lam = reverse_wiener(t)
                for transform, d_expected in cases:
                    out, delta = transform(t)
                    d_out, centers_out = diameter_and_centers(out)
                    assert delta < 0 and delta == reverse_wiener(out) - lam, (transform.__name__, t.edges)
                    assert d_out == d_expected, (transform.__name__, t.edges)
                    if transform is lemma5_contract:
                        assert has_center_pendant(out, centers_out)
                    inputs[transform] += 1
        assert list(inputs.values()) == [16887, 15556, 320]

    def test_lemma2_is_lemma5_at_diameter_5(self):
        checked = 0
        for n in range(6, 17):
            for t in gen_free_trees(n, diameter=5):
                if not has_center_pendant(t, diameter_and_centers(t)[1]):
                    assert lemma2_collapse(t) == lemma5_contract(t)
                    checked += 1
        assert checked == 320
