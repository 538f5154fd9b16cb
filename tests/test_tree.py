"""Tree construction, validation, distances, centers, subtree sizes, canonical codes."""

import pytest

from revwiener.errors import (
    Disconnected,
    DuplicateEdge,
    EdgeListParseError,
    LabelOutOfRange,
    SelfLoop,
    WrongEdgeCount,
)
from revwiener.families import path, star
from revwiener.tree import (
    bfs_distances,
    canonical_code,
    diameter_and_centers,
    format_edge_list,
    from_edge_list,
    parse_edge_list,
    rooted_subtree_sizes,
)


class TestFromEdgeList:
    def test_single_vertex(self):
        t = from_edge_list(1, [])
        assert t.n == 1 and t.edges == ()

    def test_edges_are_normalized(self):
        t = from_edge_list(3, [(2, 0), (1, 0)])
        assert t.edges == ((0, 2), (0, 1))
        assert sorted(t.adj[0]) == [1, 2]

    def test_wrong_edge_count(self):
        with pytest.raises(WrongEdgeCount):
            from_edge_list(3, [(0, 1)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            from_edge_list(3, [(0, 1), (2, 2)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            from_edge_list(3, [(0, 1), (1, 3)])
        with pytest.raises(LabelOutOfRange):
            from_edge_list(0, [])

    def test_disconnected(self):
        # Right edge count, no loops or duplicates, but a 4-cycle plus an
        # isolated vertex is not a tree.
        with pytest.raises(Disconnected):
            from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_degree(self):
        t = star(5)
        assert t.degree(0) == 4
        assert all(t.degree(v) == 1 for v in range(1, 5))


class TestDistancesAndCenters:
    def test_path_distances(self):
        t = path(6)
        assert bfs_distances(t, 0) == [0, 1, 2, 3, 4, 5]
        assert bfs_distances(t, 3) == [3, 2, 1, 0, 1, 2]

    def test_source_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            bfs_distances(path(3), 5)

    @pytest.mark.parametrize(
        "t, expected",
        [
            (from_edge_list(1, []), (0, [0])),
            (path(2), (1, [0, 1])),
            (star(7), (2, [0])),
            (path(5), (4, [2])),
            (path(6), (5, [2, 3])),
        ],
    )
    def test_diameter_and_centers(self, t, expected):
        assert diameter_and_centers(t) == expected

    def test_matches_eccentricity_reference(self, sample_trees):
        # d is the largest eccentricity; the centers are the vertices of smallest eccentricity.
        for t in sample_trees:
            ecc = [max(bfs_distances(t, v)) for v in range(t.n)]
            radius = min(ecc)
            centers = [v for v in range(t.n) if ecc[v] == radius]
            assert diameter_and_centers(t) == (max(ecc), centers), t.edges

    def test_subtree_sizes(self):
        t = star(5)
        parent, size = rooted_subtree_sizes(t, 0)
        assert parent == [-1, 0, 0, 0, 0]
        assert size == [5, 1, 1, 1, 1]
        parent, size = rooted_subtree_sizes(t, 2)
        assert parent[2] == -1 and parent[0] == 2
        assert size[2] == 5 and size[0] == 4


class TestCanonicalCode:
    def test_relabeling_invariance(self):
        a = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
        # Same shape under the relabeling i -> 5 - i.
        b = from_edge_list(6, [(5, 4), (4, 3), (3, 2), (3, 1), (1, 0)])
        assert canonical_code(a) == canonical_code(b)

    def test_distinguishes_shapes(self):
        # The two non-isomorphic trees on 4 vertices.
        assert canonical_code(path(4)) != canonical_code(star(4))

    def test_bicentral_tree(self):
        assert canonical_code(path(6)) == canonical_code(
            from_edge_list(6, [(3, 5), (5, 0), (0, 2), (2, 4), (4, 1)])
        )

    def test_star_code(self):
        assert canonical_code(star(4)) == "(()()())"


def _reference_code(t):
    """canonical_code as first written: each rooting rebuilds its order and children from the parent array."""

    def rooted(root):
        parent, _ = rooted_subtree_sizes(t, root)
        order = [root]
        for u in order:
            order.extend(w for w in t.adj[u] if parent[w] == u)
        code = [""] * t.n
        for u in reversed(order):
            code[u] = "(" + "".join(sorted(code[w] for w in t.adj[u] if parent[w] == u)) + ")"
        return code[root]

    return min(rooted(c) for c in diameter_and_centers(t)[1])


class TestCanonicalCodeReference:
    def test_matches_reference_code(self, sample_trees):
        for t in sample_trees:
            assert canonical_code(t) == _reference_code(t), t.edges


class TestEdgeListFormat:
    def test_round_trip(self):
        t = star(6)
        assert parse_edge_list(format_edge_list(t)) == t

    def test_blank_lines_ignored(self):
        t = parse_edge_list("3\n\n0 1\n\n1 2\n")
        assert t.n == 3

    @pytest.mark.parametrize(
        "text",
        ["", "not-a-number\n0 1\n", "3\n0 1 2\n1 2\n", "3\n0 x\n1 2\n"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(EdgeListParseError):
            parse_edge_list(text)
