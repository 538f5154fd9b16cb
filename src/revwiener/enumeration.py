"""Brute-force oracles: free-tree generation, diameter-4 enumeration, ranking.

The fast free-tree generator iterates level sequences with the
constant-amortized-time successor scheme for free trees (rooted at the
centroid, left subtree constrained).  A slow, independent fallback builds
each size class by attaching a leaf to every vertex of every smaller class
representative and deduplicating by canonical code; the two routes are
cross-validated in the test suite.

The diameter-4 oracle walks the classes as integer partitions, one run
of equal parts per recursion level, and carries k and the sum of b*v^2
down the walk, so each class gets its reverse Wiener index from a few
integer operations instead of a closed-form call.

Everything is streamed; nothing materializes a full class.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .closed_forms import ExtremalResult
from .errors import BoundExceeded, EmptyClass
from .families import Diam4Spec
from .tree import Tree, canonical_code, from_edge_list, from_pruefer

DEFAULT_MAX_N_FREE = 20
DEFAULT_MAX_N_DIAM4 = 80
DEFAULT_TIE_CAP = 64


# --- level-sequence machinery -------------------------------------------------


def _successor_rooted(levels: list[int], p: int | None = None) -> list[int] | None:
    """Next rooted-tree level sequence in reverse lexicographic order."""
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


def _split_root(levels: list[int]) -> tuple[list[int], list[int]]:
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


def _skip_to_free(levels: list[int]) -> list[int] | None:
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


def free_tree_level_sequences(n: int) -> Iterator[list[int]]:
    """Level sequences of all non-isomorphic free trees on n vertices."""
    if n == 1:
        yield [0]
        return
    levels: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        levels = _skip_to_free(levels)
        if levels is None:
            return
        yield levels
        levels = _successor_rooted(levels)


def _levels_to_parents(levels: list[int]) -> list[int]:
    parent = [-1] * len(levels)
    last_at = [0] * (max(levels) + 1)
    for i in range(1, len(levels)):
        lvl = levels[i]
        parent[i] = last_at[lvl - 1]
        last_at[lvl] = i
    return parent


def _levels_to_tree(levels: list[int]) -> Tree:
    parent = _levels_to_parents(levels)
    return from_edge_list(len(levels), [(parent[i], i) for i in range(1, len(levels))])


def _levels_metrics(levels: list[int]) -> tuple[int, int, int]:
    """(wiener, diameter, reverse_wiener) in one reverse pass over a level sequence.

    Scanning right to left, the children of the vertex met at level l are
    the vertices at level l + 1 seen since the last vertex at level l.  So
    index l + 1 of ``size`` holds that vertex's subtree size less one, and
    of ``top1`` and ``top2`` the two largest heights + 1 among its children.
    W is the edge-cut sum of s(n - s) over subtree sizes s, and d is the
    largest top1 + top2 over all vertices.
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


# --- generation ---------------------------------------------------------------


def gen_free_trees(n: int, max_n: int = DEFAULT_MAX_N_FREE) -> Iterator[Tree]:
    """Exactly one representative tree per isomorphism class on n vertices."""
    if n < 1:
        raise BoundExceeded(f"n must be positive, got {n}")
    if n > max_n:
        raise BoundExceeded(f"n={n} exceeds free-tree bound {max_n}")
    for levels in free_tree_level_sequences(n):
        yield _levels_to_tree(levels)


def gen_labeled_trees(n: int) -> Iterator[Tree]:
    """All labeled trees on n vertices, decoded from Pruefer sequences."""
    for seq in product(range(n), repeat=max(n - 2, 0)):
        yield from_pruefer(n, seq)


def free_trees_by_extension(n: int) -> dict[str, Tree]:
    """Slow fallback: grow classes by leaf attachment, dedup by canonical code.

    Independent of the level-sequence generator; used for cross-validation.
    """
    classes: dict[str, Tree] = {canonical_code(from_edge_list(1, [])): from_edge_list(1, [])}
    for m in range(2, n + 1):
        grown: dict[str, Tree] = {}
        for t in classes.values():
            for v in range(t.n):
                bigger = from_edge_list(m, list(t.edges) + [(v, m - 1)])
                grown.setdefault(canonical_code(bigger), bigger)
        classes = grown
    return classes


def _diam4_classes(n: int) -> Iterator[tuple[int, Diam4Spec]]:
    """(reverse Wiener index, spec) for every diameter-4 class on n vertices.

    For each hub pendant count n0, the other n - 1 - n0 vertices split into
    blocks of v + 1 (a spoke and its v leaves).  The walk picks one run of
    equal blocks per level, v and then its multiplicity b both descending,
    and carries k and the sum of b*v^2 down, so a class costs a few integer
    operations and the one spec it yields.
    """
    # The index is 2n(n-1) - W with W = (n-1)(2n-3) - (n-2)(n0 + k) - sum b*v^2,
    # the formula of families.wiener_diam4_closed.
    top = 2 * n * (n - 1) - (n - 1) * (2 * n - 3)
    m = n - 2

    def runs(rest, cap, n0, k, sq, parts):
        # Blocks of size c = v + 1 <= cap + 1 fill ``rest``; ``parts`` holds
        # the larger values already chosen, ascending.
        for c in range(min(cap + 1, rest), 2, -1):
            v = c - 1
            for b in range(rest // c, 0, -1):
                left = rest - b * c
                if left == 0:
                    spec = Diam4Spec(n0=n0, parts=((v, b),) + parts)
                    yield top + m * (n0 + k + b) + sq + b * v * v, spec
                elif left > 1:  # a leftover of 1 cannot be a block
                    yield from runs(left, v - 1, n0, k + b, sq + b * v * v, ((v, b),) + parts)
        if rest % 2 == 0:  # blocks of 2 are the last run: they must fill the rest
            b = rest // 2
            yield top + m * (n0 + k + b) + sq + b, Diam4Spec(n0=n0, parts=((1, b),) + parts)

    for n0 in range(n - 4):
        rest = n - 1 - n0
        # A first block of at most rest - 2 leaves room for a second one (k >= 2).
        yield from runs(rest, rest - 3, n0, 0, 0, ())


def gen_diam4_specs(n: int) -> Iterator[Diam4Spec]:
    """Every diameter-4 isomorphism class on n vertices, as a spec stream.

    A hub pendant count n0 plus a partition of the remaining n-1-n0
    vertices into k >= 2 blocks of size n_i+1 >= 2 is a bijection onto the
    classes.  The stream runs n0 ascending, then the partitions in reverse
    lexicographic order.  It walks them one run of equal blocks per level
    and carries the signature (k, sum of b*v^2) along; see _diam4_classes.
    """
    for _, spec in _diam4_classes(n):
        yield spec


# --- ranking and class minima ---------------------------------------------------


@dataclass(frozen=True)
class RankEntry:
    """One distinct reverse-Wiener value with its full tie set of codes."""

    value: int
    trees: tuple[str, ...]
    truncated: bool = False


class _Buckets:
    """Keeps the k smallest distinct values, each with its first tie_cap items.

    A tie set holds items in arrival order; past ``tie_cap`` it is only
    flagged truncated.  For :func:`rank_trees` the items are level
    sequences, and :meth:`entries` builds trees and canonical codes for the
    kept ones alone.
    """

    def __init__(self, k: int, tie_cap: int) -> None:
        self.k = k
        self.tie_cap = tie_cap
        self.data: dict[int, list] = {}  # value -> [items, truncated]
        self.threshold: int | None = None  # largest kept value, once k are kept

    def add(self, value: int, item) -> None:
        entry = self.data.get(value)
        if entry is not None:
            if len(entry[0]) < self.tie_cap:
                entry[0].append(item)
            else:
                entry[1] = True
            return
        if self.threshold is not None and value > self.threshold:
            return
        self.data[value] = [[item], False]
        if len(self.data) > self.k:
            del self.data[max(self.data)]
        if len(self.data) == self.k:
            self.threshold = max(self.data)

    def ties(self) -> list[tuple[int, list, bool]]:
        """(value, items in arrival order, truncated), by increasing value."""
        return [(v, items, truncated) for v, (items, truncated) in sorted(self.data.items())]

    def entries(self) -> list[RankEntry]:
        return [
            RankEntry(
                value=v,
                trees=tuple(sorted(canonical_code(_levels_to_tree(levels)) for levels in ties)),
                truncated=truncated,
            )
            for v, ties, truncated in self.ties()
        ]


def rank_trees(
    n: int,
    k: int,
    max_n: int = DEFAULT_MAX_N_FREE,
    tie_cap: int = DEFAULT_TIE_CAP,
) -> list[RankEntry]:
    """The k smallest distinct reverse-Wiener values over all free trees on n vertices."""
    if n < 1:
        raise BoundExceeded(f"n must be positive, got {n}")
    if n > max_n:
        raise BoundExceeded(f"n={n} exceeds free-tree bound {max_n}")
    buckets = _Buckets(k, tie_cap)
    # The generator yields a fresh list each time (_successor_rooted copies)
    # and never changes it afterwards, so the buckets may keep it as is.
    for levels in free_tree_level_sequences(n):
        buckets.add(_levels_metrics(levels)[2], levels)
    return buckets.entries()


def _min2_diam4_specs(n: int, tie_cap: int = DEFAULT_TIE_CAP) -> list[tuple[int, list[Diam4Spec], bool]]:
    """Two smallest reverse-Wiener values over diameter-4 classes, with spec ties."""
    buckets = _Buckets(2, tie_cap)
    for lam, spec in _diam4_classes(n):
        buckets.add(lam, spec)
    return buckets.ties()


def min_lambda_diam(
    n: int,
    d: int,
    max_n_free: int = DEFAULT_MAX_N_FREE,
    max_n_diam4: int = DEFAULT_MAX_N_DIAM4,
) -> ExtremalResult:
    """Exhaustive minimum of the reverse Wiener index over n-vertex trees of diameter d."""
    return _extremum_diam(n, d, 0, max_n_free, max_n_diam4)


def second_min_lambda_diam(
    n: int,
    d: int,
    max_n_free: int = DEFAULT_MAX_N_FREE,
    max_n_diam4: int = DEFAULT_MAX_N_DIAM4,
) -> ExtremalResult:
    """Exhaustive second-smallest value over n-vertex trees of diameter d."""
    return _extremum_diam(n, d, 1, max_n_free, max_n_diam4)


def _extremum_diam(n, d, index, max_n_free, max_n_diam4) -> ExtremalResult:
    if not 2 <= d <= n - 1:
        raise EmptyClass(f"no tree on {n} vertices has diameter {d}")
    rank = f"class-min({d})" if index == 0 else f"class-2nd-min({d})"
    if d == 4:
        if n > max_n_diam4:
            raise BoundExceeded(f"n={n} exceeds diameter-4 bound {max_n_diam4}")
        minima = _min2_diam4_specs(n)
        if len(minima) <= index:
            raise EmptyClass(f"fewer than {index + 1} distinct values at (n={n}, d=4)")
        value, specs, truncated = minima[index]
        notes = ("tie set truncated",) if truncated else ()
        return ExtremalResult(rank=rank, value=value, attaining=tuple(specs), notes=notes)
    if n > max_n_free:
        raise BoundExceeded(f"n={n} exceeds free-tree bound {max_n_free}")
    buckets = _Buckets(2, sys.maxsize)
    for levels in free_tree_level_sequences(n):
        _, diam, lam = _levels_metrics(levels)
        if diam == d:
            buckets.add(lam, levels)
    entries = buckets.entries()
    if len(entries) <= index:
        raise EmptyClass(f"fewer than {index + 1} distinct values at (n={n}, d={d})")
    # Attaining trees are carried as canonical codes on this route.
    return ExtremalResult(rank=rank, value=entries[index].value, attaining=entries[index].trees, notes=())
