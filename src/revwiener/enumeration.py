"""Brute-force oracles: free-tree generation, diameter-4 enumeration, ranking.

The fast free-tree generator iterates level sequences with the
constant-amortized-time successor scheme for free trees (rooted at the
centroid, left subtree constrained).  A slow, independent fallback builds
each size class by attaching a leaf to every vertex of every smaller class
representative and deduplicating by canonical code; the two routes are
cross-validated in the test suite.

Everything is streamed; nothing materializes a full class.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .closed_forms import ExtremalResult
from .errors import BoundExceeded, EmptyClass
from .families import Diam4Spec, lambda_diam4_closed
from .tree import Tree, canonical_code, from_edge_list

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
    if n == 1:
        yield from_edge_list(1, [])
        return
    if n == 2:
        yield from_edge_list(2, [(0, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        heap = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(heap)
        edges = []
        for v in seq:
            leaf = heapq.heappop(heap)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        edges.append((heapq.heappop(heap), heapq.heappop(heap)))
        yield from_edge_list(n, edges)


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


def _partitions_desc(total: int, max_part: int, min_parts: int) -> Iterator[list[int]]:
    """Partitions of ``total`` into parts >= 2, descending, at least min_parts parts."""
    def rec(rest: int, cap: int, acc: list[int]) -> Iterator[list[int]]:
        if rest == 0:
            if len(acc) >= min_parts:
                yield acc
            return
        for part in range(min(cap, rest), 1, -1):
            if rest - part == 1:  # a leftover of 1 can never be a part >= 2
                continue
            yield from rec(rest - part, part, acc + [part])

    yield from rec(total, max_part, [])


def gen_diam4_specs(n: int) -> Iterator[Diam4Spec]:
    """Every diameter-4 isomorphism class on n vertices, as a spec stream.

    A hub pendant count n0 plus a partition of the remaining n-1-n0
    vertices into k >= 2 blocks of size n_i+1 >= 2 is a bijection onto the
    classes.
    """
    if n < 5:
        return
    for n0 in range(0, n - 4):
        rest = n - 1 - n0
        for parts in _partitions_desc(rest, rest, 2):
            counts: dict[int, int] = {}
            for block in parts:
                counts[block - 1] = counts.get(block - 1, 0) + 1
            yield Diam4Spec(n0=n0, parts=tuple(sorted(counts.items())))


# --- ranking and class minima ---------------------------------------------------


@dataclass(frozen=True)
class RankEntry:
    """One distinct reverse-Wiener value with its full tie set of codes."""

    value: int
    trees: tuple[str, ...]
    truncated: bool = False


class _Buckets:
    """Keeps the k smallest distinct values, each with its first tie_cap level sequences.

    A tie set holds level sequences in arrival order; past ``tie_cap`` it is
    only flagged truncated.  Trees and canonical codes are built in
    :meth:`entries`, for the kept sequences alone.
    """

    def __init__(self, k: int, tie_cap: int) -> None:
        self.k = k
        self.tie_cap = tie_cap
        self.data: dict[int, list] = {}  # value -> [level sequences, truncated]
        self.threshold: int | None = None  # largest kept value, once k are kept

    def add(self, value: int, levels: list[int]) -> None:
        entry = self.data.get(value)
        if entry is not None:
            if len(entry[0]) < self.tie_cap:
                entry[0].append(levels)
            else:
                entry[1] = True
            return
        if self.threshold is not None and value > self.threshold:
            return
        self.data[value] = [[levels], False]
        if len(self.data) > self.k:
            del self.data[max(self.data)]
        if len(self.data) == self.k:
            self.threshold = max(self.data)

    def entries(self) -> list[RankEntry]:
        return [
            RankEntry(
                value=v,
                trees=tuple(sorted(canonical_code(_levels_to_tree(levels)) for levels in ties)),
                truncated=truncated,
            )
            for v, (ties, truncated) in sorted(self.data.items())
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


def _min2_diam4_specs(n: int, tie_cap: int = DEFAULT_TIE_CAP):
    """Two smallest reverse-Wiener values over diameter-4 classes, with spec ties."""
    best: list[list] = []  # [value, specs, truncated], at most 2, sorted by value
    for spec in gen_diam4_specs(n):
        lam = lambda_diam4_closed(spec)
        placed = False
        for entry in best:
            if entry[0] == lam:
                if len(entry[1]) < tie_cap:
                    entry[1].append(spec)
                else:
                    entry[2] = True
                placed = True
                break
        if not placed:
            best.append([lam, [spec], False])
            best.sort(key=lambda e: e[0])
            del best[2:]
    return best


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
        best = _min2_diam4_specs(n)
        if len(best) <= index:
            raise EmptyClass(f"fewer than {index + 1} distinct values at (n={n}, d=4)")
        value, specs, truncated = best[index]
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
