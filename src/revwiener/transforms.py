"""Reverse-Wiener-decreasing tree rewrites, used as executable proofs.

Each transform returns the rewritten tree (or spec) together with the
exact change in the reverse Wiener index, computed from the rewrite's own
closed formula.  Tests recompute the change independently.  No transform
recomputes the diameter of its output: each rewrite's diameter change is
part of its claim.  Lemma 2 at odd diameter and lemma 5 share one
rewrite, the contraction of the center edge.

When several vertices or subtrees qualify, the smallest label wins, so
outputs are deterministic.
"""

from __future__ import annotations

from .errors import InternalCheckFailed, PreconditionFailed
from .families import Diam4Spec, normalize
from .tree import Tree, diameter_and_centers, from_edge_list, has_center_pendant, rooted_subtree_sizes


def _replace_edges(t: Tree, remove: set[tuple[int, int]], add: list[tuple[int, int]]) -> Tree:
    removed = {(min(u, v), max(u, v)) for u, v in remove}
    edges = [e for e in t.edges if e not in removed]
    edges.extend(add)
    return from_edge_list(t.n, edges)


def lemma1_pendant_shift(t: Tree) -> tuple[Tree, int]:
    """Move a pendant off a center onto a small neighboring subtree.

    Requires diameter >= 4 and a center with a pendant neighbor.  The
    pendant w is re-attached to the neighbor v1 of a subtree with at most
    n/2 - 1 vertices; the diameter is unchanged and the reverse Wiener
    index strictly drops by (n1+1)(n-n1-1) - n1(n-n1).
    """
    n = t.n
    d, centers = diameter_and_centers(t)
    if d < 4:
        raise PreconditionFailed(f"diameter {d} < 4")
    for v in centers:
        pendants = sorted(u for u in t.adj[v] if t.degree(u) == 1)
        if not pendants:
            continue
        w = pendants[0]
        # Rooted at v, the size of a neighbor is that of its subtree in T - v.
        _, size = rooted_subtree_sizes(t, v)
        for v1 in sorted(t.adj[v]):
            if v1 == w:
                continue
            n1 = size[v1]
            if 2 * n1 <= n - 2:
                out = _replace_edges(t, {(v, w)}, [(w, v1)])
                delta = n1 * (n - n1) - (n1 + 1) * (n - n1 - 1)
                return out, delta
        raise PreconditionFailed("no center subtree with at most n/2 - 1 vertices")
    raise PreconditionFailed("no center has a pendant neighbor")


def _contract_center_edge(t: Tree, u: int, v: int) -> tuple[Tree, int]:
    """Merge the center v into the center u and re-attach label v as a pendant of u.

    At odd diameter d the centers u and v are adjacent and every longest
    path crosses the edge uv, so the output has diameter exactly d - 1.
    With n1 and n2 the sides of uv, the Wiener index changes by
    (n - 1) - n1 n2, so the reverse Wiener index drops by
    n(n - 1)/2 - n1 n2 + (n - 1), which is always > 0.
    """
    n = t.n
    # Rooted at u, v's subtree is v's side of the center edge.
    _, size = rooted_subtree_sizes(t, u)
    n1, n2 = n - size[v], size[v]
    edges = [(u, v)]
    for a, b in t.edges:
        if (a, b) != (u, v):
            edges.append((u if a == v else a, u if b == v else b))
    return from_edge_list(n, edges), -(n * (n - 1) // 2 - n1 * n2 + (n - 1))


def lemma2_collapse(t: Tree) -> tuple[Tree, int]:
    """Shrink the diameter around the center(s).

    Requires diameter d >= 4 and no center with a pendant neighbor.  At
    even d, all grandchildren of the single center v are re-attached to
    it: the diameter drops by exactly 2 and the reverse Wiener index by
    n(n - 1) - sum n_i(n - n_i) + p(n - 1), where p is the degree of v and
    n_i the sizes of its subtrees.  At odd d, the center edge is
    contracted as in :func:`lemma5_contract`: the diameter drops by
    exactly 1.  The delta is negative in both cases.
    """
    n = t.n
    d, centers = diameter_and_centers(t)
    if d < 4:
        raise PreconditionFailed(f"diameter {d} < 4")
    if has_center_pendant(t, centers):
        raise PreconditionFailed("a center has a pendant neighbor")
    if d % 2:
        return _contract_center_edge(t, *centers)
    (v,) = centers
    parent, size = rooted_subtree_sizes(t, v)
    grandchildren = [(vi, w) for vi in t.adj[v] for w in t.adj[vi] if parent[w] == vi]
    out = _replace_edges(t, set(grandchildren), [(v, w) for _, w in grandchildren])
    delta = sum(size[vi] * (n - size[vi]) for vi in t.adj[v]) - t.degree(v) * (n - 1) - n * (n - 1)
    return out, delta


def lemma3_rebalance(spec: Diam4Spec, i: int, j: int) -> tuple[Diam4Spec, int]:
    """Move one leaf from an n_i-leaf spoke to an n_j-leaf spoke (gap >= 2).

    Operates symbolically on the diameter-4 family; n, k and n0 are
    preserved and the reverse Wiener index drops by 2(n_i - n_j - 1).
    """
    parts = list(spec.parts)
    if not (0 <= i < len(parts) and 0 <= j < len(parts)):
        raise PreconditionFailed(f"part indices ({i}, {j}) out of range")
    ni, bi = parts[i]
    nj, bj = parts[j]
    if ni - nj < 2:
        raise PreconditionFailed(f"need n_i - n_j >= 2, got {ni} - {nj}")
    raw = [(ni, bi - 1), (nj, bj - 1), (ni - 1, 1), (nj + 1, 1)]
    raw.extend(part for idx, part in enumerate(parts) if idx not in (i, j))
    out = normalize(spec.n0, raw)
    if (out.n, out.k, out.n0) != (spec.n, spec.k, spec.n0):
        raise InternalCheckFailed(f"rebalancing {spec} gave {out}, which changes n, k or n0")
    return out, -2 * (ni - nj - 1)


def lemma5_contract(t: Tree) -> tuple[Tree, int]:
    """Contract the center edge of a diameter-5 tree and re-add a pendant.

    Requires diameter exactly 5 and no center with a pendant neighbor.
    The output has diameter 4, a center pendant, and a strictly smaller
    reverse Wiener index.
    """
    d, centers = diameter_and_centers(t)
    if d != 5:
        raise PreconditionFailed(f"diameter {d} != 5")
    if has_center_pendant(t, centers):
        raise PreconditionFailed("a center has a pendant neighbor")
    return _contract_center_edge(t, *centers)
