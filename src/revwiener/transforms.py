"""Reverse-Wiener-decreasing tree rewrites, used as executable proofs.

Each transform returns the rewritten tree (or spec) together with the
exact change in the reverse Wiener index, computed from the rewrite's own
closed formula.  Tests recompute the change independently.

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


def lemma2_collapse(t: Tree) -> tuple[Tree, int]:
    """Re-attach all grandchildren of a center to it, shrinking the diameter.

    Requires diameter >= 4 and no center with a pendant neighbor.  The
    Wiener index drops by exactly sum n_i(n - n_i) - p(n - 1), where p is
    the center degree and n_i the center-subtree sizes.  The diameter
    drops by exactly 2 when it is even (single center); when it is odd,
    collapsing around one of the two centers can leave it at d - 1, so the
    center realizing the full drop is preferred.  On trees where both
    deepest branches sit inside a co-center subtree on each side, only
    d - 1 is achievable; the returned delta always accounts for the
    realized diameter, so it equals the true change in every case.
    """
    n = t.n
    d, centers = diameter_and_centers(t)
    if d < 4:
        raise PreconditionFailed(f"diameter {d} < 4")
    if has_center_pendant(t, centers):
        raise PreconditionFailed("a center has a pendant neighbor")
    candidates = []
    for v in centers:
        parent, size = rooted_subtree_sizes(t, v)
        p = t.degree(v)
        remove: set[tuple[int, int]] = set()
        add: list[tuple[int, int]] = []
        for vi in t.adj[v]:
            for w in t.adj[vi]:
                if parent[w] == vi:
                    remove.add((vi, w))
                    add.append((v, w))
        out = _replace_edges(t, remove, add)
        d_out, _ = diameter_and_centers(out)
        wiener_drop = sum(size[vi] * (n - size[vi]) for vi in t.adj[v]) - p * (n - 1)
        delta = n * (n - 1) * (d_out - d) // 2 + wiener_drop
        if d_out == d - 2:
            return out, delta
        candidates.append((out, delta))
    return candidates[0]


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
    n = t.n
    d, centers = diameter_and_centers(t)
    if d != 5:
        raise PreconditionFailed(f"diameter {d} != 5")
    if has_center_pendant(t, centers):
        raise PreconditionFailed("a center has a pendant neighbor")
    u, v = centers
    # Rooted at u, v's subtree is v's side of the center edge.
    _, size = rooted_subtree_sizes(t, u)
    n1, n2 = n - size[v], size[v]
    # Merge v into u, then reuse label v as the new pendant on u.
    edges = [(u, v)]
    for a, b in t.edges:
        if (a, b) == (u, v):
            continue
        a2 = u if a == v else a
        b2 = u if b == v else b
        edges.append((a2, b2))
    out = from_edge_list(n, edges)
    half = n * (n - 1)
    if half % 2:
        raise InternalCheckFailed(f"n(n-1) = {half} should be even")
    delta = -(half // 2 - n1 * n2 + (n - 1))
    return out, delta
