"""Exact Wiener and reverse-Wiener indices, by independent methods.

All arithmetic uses Python's arbitrary-precision integers, so results are
exact at any size.  ``reverse_wiener`` takes W and d from the one rooted
pass of ``tree.wiener_and_diameter``.  ``wiener_edge_cut`` (W = sum of
s(n - s) over the subtree sizes s of a rooting), ``wiener_bfs`` (all-pairs
BFS) and ``metrics`` (edge-cut W with the double-sweep diameter) are its
independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckFailed
from .tree import Tree, bfs_distances, diameter_and_centers, rooted_subtree_sizes, wiener_and_diameter


@dataclass(frozen=True)
class TreeMetrics:
    n: int
    wiener: int
    diameter: int
    reverse_wiener: int
    centers: tuple[int, ...]


def wiener_edge_cut(t: Tree) -> int:
    """W(T) as the edge-cut sum of s(n - s) over the subtree sizes s (the root's term is 0)."""
    return sum(s * (t.n - s) for s in rooted_subtree_sizes(t)[1])


def wiener_bfs(t: Tree) -> int:
    """W(T) as the halved sum of all single-source BFS distance vectors."""
    total = sum(sum(bfs_distances(t, s)) for s in range(t.n))
    if total % 2:
        raise InternalCheckFailed(f"distance sum {total} over ordered pairs should be even")
    return total // 2


def reverse_wiener(t: Tree) -> int:
    """Reverse Wiener index: n(n-1)d/2 - W, exact."""
    w, d = wiener_and_diameter(t)
    prod = t.n * (t.n - 1) * d
    if prod % 2:
        raise InternalCheckFailed(f"n(n-1)d = {prod} should be even")
    return prod // 2 - w


def metrics(t: Tree) -> TreeMetrics:
    """Bundle of n, W (edge-cut method), diameter, reverse Wiener and centers."""
    d, centers = diameter_and_centers(t)
    w = wiener_edge_cut(t)
    return TreeMetrics(
        n=t.n,
        wiener=w,
        diameter=d,
        reverse_wiener=t.n * (t.n - 1) * d // 2 - w,
        centers=tuple(centers),
    )
