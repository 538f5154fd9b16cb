"""Labeled tree representation, distances, centers, subtree sizes and canonical codes.

Vertices are dense integers in [0, n).  Trees are immutable after
construction, so every function here is pure and safe to share across
threads.

A built tree keeps the BFS from vertex 0 that validated it.  Only
``wiener_and_diameter`` and the first sweep of ``diameter_and_centers``
read it; the other functions run their own searches, so the routes that
``invariants`` cross-checks stay independent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import (
    Disconnected,
    DuplicateEdge,
    EdgeListParseError,
    LabelOutOfRange,
    SelfLoop,
    WrongEdgeCount,
)

Edge = tuple[int, int]


@dataclass(frozen=True)
class Tree:
    """An n-vertex labeled tree.  Build via :func:`from_edge_list`.

    ``bfs`` is the BFS order from vertex 0 and the parent array (-1 at the
    root) of the search that validated the edge list.
    """

    n: int
    edges: tuple[Edge, ...]
    adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    bfs: tuple[tuple[int, ...], tuple[int, ...]] = field(compare=False, repr=False)

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def from_edge_list(n: int, edges) -> Tree:
    """Validate ``(n, edges)`` and return a :class:`Tree`.

    Raises one of the tree-validation errors if the edge list has the
    wrong size, contains a self-loop or a duplicate, uses a label outside
    [0, n), or does not connect all vertices.  Of several faults, the one
    at the earliest edge is reported.

    One loop checks labels and loops and builds the adjacency; a BFS from
    vertex 0 then checks connectivity, and the tree keeps its order and
    parents.  Duplicates are looked for only on the way to an error: n - 1
    edges with a duplicate cannot reach all n vertices.
    """
    if n < 1:
        raise LabelOutOfRange(f"vertex count must be positive, got {n}")
    edges = [(int(u), int(v)) for u, v in edges]
    if len(edges) != n - 1:
        raise WrongEdgeCount(f"expected {n - 1} edges for n={n}, got {len(edges)}")
    normalized: list[Edge] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            _raise_first_duplicate(normalized)
            raise LabelOutOfRange(f"edge ({u}, {v}) out of range [0, {n})")
        if u == v:
            _raise_first_duplicate(normalized)
            raise SelfLoop(f"self-loop at vertex {u}")
        normalized.append((u, v) if u < v else (v, u))
        adj[u].append(v)
        adj[v].append(u)
    # n-1 edges + connected <=> tree; check connectivity by BFS from 0.
    parent = [-1] * n
    visited = bytearray(n)
    visited[0] = 1
    order = [0]
    for u in order:  # grows while iterating: BFS order
        for w in adj[u]:
            if not visited[w]:
                visited[w] = 1
                parent[w] = u
                order.append(w)
    if len(order) != n:
        _raise_first_duplicate(normalized)
        raise Disconnected(f"edge set reaches {len(order)} of {n} vertices")
    return Tree(
        n=n,
        edges=tuple(normalized),
        adj=tuple(tuple(a) for a in adj),
        bfs=(tuple(order), tuple(parent)),
    )


def _raise_first_duplicate(edges: list[Edge]) -> None:
    """Raise DuplicateEdge at the first normalized edge that repeats an earlier one."""
    seen: set[Edge] = set()
    for e in edges:
        if e in seen:
            raise DuplicateEdge(f"duplicate edge {e}")
        seen.add(e)


def from_pruefer(n: int, seq) -> Tree:
    """The labeled tree on n vertices whose Pruefer sequence is ``seq`` (length n - 2).

    Each step joins the smallest current leaf to the next entry of ``seq``;
    the last two leaves form the final edge.
    """
    if n < 2:
        return from_edge_list(n, [])
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(heap), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return from_edge_list(n, edges)


def bfs_distances(t: Tree, source: int) -> list[int]:
    """Distances from ``source`` to every vertex."""
    if not (0 <= source < t.n):
        raise LabelOutOfRange(f"source {source} out of range [0, {t.n})")
    dist = [-1] * t.n
    dist[source] = 0
    order = [source]
    adj = t.adj
    for u in order:  # grows while iterating: BFS order
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                order.append(w)
    return dist


def _bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """BFS order from ``root`` and the parent array (-1 at the root)."""
    parent = [-1] * t.n
    order = [root]
    adj = t.adj
    for u in order:  # grows while iterating: BFS order
        pu = parent[u]
        for w in adj[u]:
            if w != pu:  # a tree has no cycle: every other neighbor is a child
                parent[w] = u
                order.append(w)
    return order, parent


def diameter_and_centers(t: Tree) -> tuple[int, list[int]]:
    """Diameter and the 1 or 2 centers (middle of a longest path).

    Double sweep: the last vertex of a BFS order is a farthest vertex u,
    and the last vertex of a BFS from u ends a longest path.  The first
    sweep is the BFS from vertex 0 that the tree keeps from validation.
    Every longest path has the same middle, so the centers do not depend
    on which one is found.  A tree has one center iff its diameter is
    even; two (adjacent) centers otherwise.
    """
    u = t.bfs[0][-1]
    order, parent = _bfs_order(t, u)
    path = [order[-1]]
    while path[-1] != u:
        path.append(parent[path[-1]])
    d = len(path) - 1
    return d, sorted(path[d // 2 : (d + 3) // 2])


def has_center_pendant(t: Tree, centers: list[int]) -> bool:
    """Whether one of ``centers`` has a pendant (degree-1) neighbor."""
    return any(t.degree(u) == 1 for v in centers for u in t.adj[v])


def rooted_subtree_sizes(t: Tree, root: int = 0) -> tuple[list[int], list[int]]:
    """Parent array and subtree sizes for the tree rooted at ``root``."""
    order, parent = _bfs_order(t, root)
    size = [1] * t.n
    for u in order[:0:-1]:
        size[parent[u]] += size[u]
    return parent, size


def wiener_and_diameter(t: Tree) -> tuple[int, int]:
    """(W, d) in one reverse pass over the BFS order from vertex 0 that the tree keeps."""
    order, parent = t.bfs
    return wiener_diameter_fold(t.n, order, parent)


def wiener_diameter_fold(n: int, order, parent) -> tuple[int, int]:
    """(W, d) of the tree given by ``parent``, folded over ``order`` reversed.

    ``order`` lists all n vertices, from the root 0, each after its parent
    (a BFS order, or ``range(n)`` for a level sequence).  Each
    vertex folds its subtree size s into its parent and adds the edge-cut
    term s(n - s) to W; it also offers its height + 1 to the parent's two
    largest child heights ``top1``, ``top2``.  d is the largest
    top1 + top2 over all vertices.
    """
    size = [1] * n
    top1 = [0] * n
    top2 = [0] * n
    w = d = 0
    for u in order[:0:-1]:
        a = top1[u]
        if a + top2[u] > d:
            d = a + top2[u]
        s = size[u]
        w += s * (n - s)
        p = parent[u]
        size[p] += s
        a += 1
        if a > top1[p]:
            top2[p] = top1[p]
            top1[p] = a
        elif a > top2[p]:
            top2[p] = a
    return w, max(d, top1[0] + top2[0])


def _rooted_code(t: Tree, root: int) -> str:
    """AHU-style sorted parenthesis encoding of the tree rooted at root."""
    order, parent = _bfs_order(t, root)
    kids: list[list[str]] = [[] for _ in range(t.n)]
    for u in reversed(order):
        own = kids[u]
        own.sort()
        code = "(" + "".join(own) + ")"
        if u == root:
            return code
        kids[parent[u]].append(code)


def canonical_code(t: Tree) -> str:
    """Isomorphism-invariant code: equal codes iff isomorphic trees.

    Roots at the center; for bicentral trees takes the lexicographically
    smaller of the two rootings.
    """
    _, centers = diameter_and_centers(t)
    return min(_rooted_code(t, c) for c in centers)


def parse_edge_list(text: str) -> Tree:
    """Parse the edge-list text format: first line ``n``, then n-1 lines ``u v``."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise EdgeListParseError("empty input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise EdgeListParseError(f"first line must be the vertex count: {lines[0]!r}") from exc
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise EdgeListParseError(f"non-integer vertex label in {line!r}") from exc
    return from_edge_list(n, edges)


def format_edge_list(t: Tree) -> str:
    """Serialize a tree to the edge-list text format."""
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in t.edges)
    return "\n".join(lines) + "\n"
