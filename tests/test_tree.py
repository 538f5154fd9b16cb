"""Tree construction, validation, distances, centers, subtree sizes, canonical codes."""

import random
from collections import Counter
from itertools import product

import pytest

from revwiener.errors import (
    Disconnected,
    DuplicateEdge,
    EdgeListParseError,
    LabelOutOfRange,
    SelfLoop,
    TreeValidationError,
    WrongEdgeCount,
)
from revwiener.enumeration import gen_diam4_specs
from revwiener.families import DoubleStarSpec, diam4, double_star, path, star
from revwiener.tree import (
    _bfs_order,
    bfs_distances,
    canonical_code,
    diameter_and_centers,
    format_edge_list,
    from_edge_list,
    from_pruefer,
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

    def test_duplicate_before_later_out_of_range(self):
        with pytest.raises(DuplicateEdge):
            from_edge_list(4, [(0, 1), (1, 0), (2, 5)])

    def test_duplicate_before_later_self_loop(self):
        with pytest.raises(DuplicateEdge):
            from_edge_list(4, [(0, 1), (1, 0), (2, 2)])

    def test_out_of_range_before_duplicate(self):
        with pytest.raises(LabelOutOfRange):
            from_edge_list(4, [(0, 9), (0, 1), (1, 0)])


def _reference_from_edge_list(n, edges):
    """from_edge_list as it was before trees kept their BFS: (edges, adj), or the error it raises.

    Every edge passes a range check, a loop check and a duplicate check in
    turn, then the adjacency is built and a BFS from 0 checks connectivity.
    """
    if n < 1:
        raise LabelOutOfRange(f"vertex count must be positive, got {n}")
    edges = [(int(u), int(v)) for u, v in edges]
    if len(edges) != n - 1:
        raise WrongEdgeCount(f"expected {n - 1} edges for n={n}, got {len(edges)}")
    seen = set()
    normalized = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise LabelOutOfRange(f"edge ({u}, {v}) out of range [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"duplicate edge {e}")
        seen.add(e)
        normalized.append(e)
    adj = [[] for _ in range(n)]
    for u, v in normalized:
        adj[u].append(v)
        adj[v].append(u)
    visited = bytearray(n)
    visited[0] = 1
    reached = [0]
    for u in reached:
        for w in adj[u]:
            if not visited[w]:
                visited[w] = 1
                reached.append(w)
    if len(reached) != n:
        raise Disconnected(f"edge set reaches {len(reached)} of {n} vertices")
    return tuple(normalized), tuple(tuple(a) for a in adj)


def _random_edge_list(rng):
    """A small edge list: a shuffled tree with up to two faults put in, or random pairs."""
    n = rng.randint(0, 7)
    if n >= 2 and rng.random() < 0.6:
        tree = from_pruefer(n, [rng.randrange(n) for _ in range(n - 2)])
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in tree.edges]
        rng.shuffle(edges)
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            fault = rng.randrange(5)
            i = rng.randrange(len(edges))
            if fault == 0:
                u, v = edges[rng.randrange(len(edges))]
                edges[i] = (v, u) if rng.random() < 0.5 else (u, v)  # a duplicate
            elif fault == 1:
                v = rng.randrange(n)
                edges[i] = (v, v)
            elif fault == 2:
                edges[i] = (rng.choice((-1, n, n + 3)), rng.randrange(n))
            elif fault == 3:
                edges[i] = tuple(rng.sample(range(n), 2))  # another tree, or a cycle
            else:
                edges.insert(i, (rng.randrange(n), rng.randrange(n)))
        return n, edges
    m = max(n - 1 + rng.choice((-1, 0, 0, 0, 1)), 0)
    labels = [rng.randrange(n) if rng.random() < 0.97 else rng.choice((-1, n)) for _ in range(2 * m)]
    return n, list(zip(labels[::2], labels[1::2]))


def _built(n, edges):
    t = from_edge_list(n, edges)
    return t.edges, t.adj


def _outcome(build, n, edges):
    try:
        return build(n, edges)
    except TreeValidationError as exc:
        return type(exc), str(exc)


def test_validation_matches_reference():
    rng = random.Random(20261019)
    kinds = Counter()
    for _ in range(20000):
        n, edges = _random_edge_list(rng)
        expected = _outcome(_reference_from_edge_list, n, edges)
        assert _outcome(_built, n, edges) == expected, (n, edges)
        kinds[expected[0] if isinstance(expected[0], type) else "tree"] += 1
    # Valid lists and every kind of fault occur often.
    assert set(kinds) == {"tree", WrongEdgeCount, LabelOutOfRange, SelfLoop, DuplicateEdge, Disconnected}
    assert min(kinds.values()) >= 200, kinds


class TestStoredBfs:
    """A built tree keeps the BFS from vertex 0 that validated it."""

    @staticmethod
    def _assert_fresh(t):
        order, parent = _bfs_order(t, 0)
        assert t.bfs == (tuple(order), tuple(parent)), t.edges  # tuples: a list never equals one

    def test_family_trees(self):
        for n in range(1, 30):
            self._assert_fresh(star(n))
            self._assert_fresh(path(n))
            for a in range(2, n // 2 + 1):
                self._assert_fresh(double_star(DoubleStarSpec(n=n, a=a)))
        for n in range(5, 13):
            for spec in gen_diam4_specs(n):
                self._assert_fresh(diam4(spec))

    def test_pruefer_trees(self, sample_trees):
        for n in range(1, 8):
            for seq in product(range(n), repeat=max(n - 2, 0)):
                self._assert_fresh(from_pruefer(n, seq))
        for t in sample_trees:
            self._assert_fresh(t)


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
