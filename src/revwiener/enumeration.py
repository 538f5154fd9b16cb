"""Brute-force oracles: free-tree generation, diameter-3 and diameter-4 classes, ranking.

The fast free-tree generator is the constant-amortized-time successor of
Wright, Richmond, Odlyzko and McKay (each tree rooted at a center, its
first subtree no higher than the rest).  It rewrites one level sequence
in place and reports the pivot, the first index it changed; over all
trees only O(1) indices per tree are rewritten.  The W, d and reverse
Wiener pass keeps its state at every index and resumes at the pivot, so
a tree costs amortized O(1) plus O(height) to close the pass.  The test
suite cross-validates it against slow, independent routes: Pruefer
decoding of every labeled tree, and leaf attachment deduplicated by
canonical code.

The pass can skip trees by center height h = max(levels), while still
drawing every tree from the generator: it reads h and its bound off the
pivot, so a skipped tree costs a pivot comparison, a bound test and a
lowering of the valid prefix, and resumes at the smaller of the pivot
and the lowest pivot of the trees it skipped.  Over all trees, an
exact max-Wiener dynamic programme by height (Jordan's center theorem
and the edge-cut sum, none of the paper's lemmas) bounds the reverse
Wiener index of each diameter, and so of each height, from below, and
rank_trees skips the heights whose bound exceeds a cutoff seeded from
every tree of center height at most 2: the star, the double stars and
the diameter-4 classes.
Every walked tree must meet its height's bound, over all trees or in a
diameter class, which walks only its own center height; a pruned ranking
must also keep k values, the k-th at or below the cutoff.

The diameter-3 oracle yields each double star as a level sequence with
its reverse Wiener index from the W/d fold of tree over its two hubs,
each hub's leaves folded in as a count, in O(1) per class; callers build
trees only for the values they keep.

The diameter-4 oracle walks the classes as integer partitions in one
generator frame: one run of equal parts per level of an explicit stack,
and the last two runs (blocks of 3, then of 2) as one closed loop.  The
reverse Wiener index is additive over the runs, so each class gets it
from a few integer operations instead of a closed-form call.  A class is
yielded as its value, n0 and parts; callers build the spec.

Everything is streamed; nothing materializes a full class.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

from .errors import BoundExceeded, DomainTooSmall, EmptyClass, InternalCheckFailed
from .families import Diam4Spec, diam4
from .tree import Tree, canonical_code, from_edge_list, wiener_diameter_fold

DEFAULT_MAX_N_FREE = 22
DEFAULT_MAX_N_DIAM4 = 80
DEFAULT_TIE_CAP = 64


def check_bound(n: int, bound: int, oracle: str) -> None:
    """Raise BoundExceeded if n is past an oracle's resource bound."""
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds {oracle} bound {bound}")


def class_bound(
    diameter: int | None, max_n_free: int = DEFAULT_MAX_N_FREE, max_n_diam4: int = DEFAULT_MAX_N_DIAM4
) -> tuple[int, str] | None:
    """The bound on n that guards rank_trees over a class, with its oracle's name.

    None at diameter 3, ``max_n_diam4`` at 4, ``max_n_free`` at any other diameter and over all trees.
    """
    if diameter == 3:
        return None
    if diameter == 4:
        return max_n_diam4, "diameter-4"
    return max_n_free, "free-tree"


def check_class(n: int, diameter: int | None, guard: tuple[int, str] | None = None) -> None:
    """The argument rule of an oracle over the trees on n vertices, or one diameter class of them.

    Raise DomainTooSmall for n below 1, then EmptyClass if no tree on n
    vertices has ``diameter`` (0 at n = 1, 1 at n = 2, 2..n-1 from n = 3;
    None stands for all trees), then BoundExceeded for n past ``guard``
    from class_bound.
    """
    if n < 1:
        raise DomainTooSmall(f"n must be at least 1, got {n}")
    if diameter is not None and not min(2, n - 1) <= diameter <= n - 1:
        raise EmptyClass(f"no tree on {n} vertices has diameter {diameter}")
    if guard is not None:
        check_bound(n, *guard)


# --- level-sequence machinery -------------------------------------------------


def free_tree_level_sequences(n: int) -> Iterator[tuple[list[int], int]]:
    """Level sequences of all non-isomorphic free trees on n vertices, with pivots.

    This is the successor of Wright, Richmond, Odlyzko and McKay (1986).
    Each tree is rooted at its center, and its level sequence is the
    preorder of vertex depths with the subtrees in decreasing order.  The
    sequences run in reverse lexicographic order.  One list is rewritten in
    place and yielded with its pivot: the first index that changed since
    the previous yield (0 for the first).  Only the positions from the
    pivot on are rewritten, O(1) of them amortised over all trees, so
    callers that resume their own work at the pivot spend constant
    amortised time per tree.  A caller that keeps a sequence must copy it.

    All positions are list indices.  The state between steps: p is the
    last vertex deeper than depth 1 and q its parent, so the rooted
    successor copies the pattern from q on into the positions from p on.
    r ends the root's first subtree.  h1 and h2 are the first deepest
    vertices of that subtree and of the rest of the tree.  When the two
    have equal height and equal tails past h1 and h2, c is the first index
    from h2 on where the rest stops copying the first subtree one level up
    (n if it never does); otherwise c is unbounded.  A step whose rooted
    successor would leave the rest lower than the first subtree, or as
    high but smaller, steps at r, the end of the first subtree, instead.

    Most steps take a short path.  When p lies past h2, c is not n, and
    the c test does not fire (its depth and tail test fails, where c is
    already unbounded, or p lies past c), the center condition holds
    and h1, r, h2 and c stay as they are, so only the copy runs.  When p
    is the last index, the copy moves that vertex up to its parent's
    level, without a loop.
    """
    inf = sys.maxsize
    k = n // 2 + 1
    levels = list(range(k)) + list(range(1, n - k + 1))
    parent = list(range(-1, n - 1))
    if k < n:
        parent[k] = 0
    p = 2 if n == 4 else n - 1
    q = n - 2 if n > 3 else -1
    h1, h2, r = k - 1, n - 1, k - 1
    c = n if n % 2 == 0 else inf
    yield levels, 0
    while q >= 0:
        if p > h2 and c != n and (p > c or levels[h2] != levels[h1] - 1 or n - 1 - h2 != r - h1):
            # The common step: only the rooted successor's copy runs.
            pivot = p
            if p == n - 1:
                lvl = levels[p] = levels[q]
                if lvl == 1:
                    parent[p] = 0
                    p = n - 2 if levels[n - 2] != 1 else n - 3
                    q = parent[p]
                else:
                    q = parent[p] = parent[q]
            else:
                delta = q - p
                lq, wq = levels[q], parent[q]
                p = -1
                for i in range(pivot, n):
                    lvl = levels[i] = levels[i + delta]
                    if lvl == 1:
                        parent[i] = 0
                    else:
                        p = i
                        q = parent[i] = wq if lvl == lq else parent[i + delta] - delta
                if p < 0:
                    p = pivot - 1 if levels[pivot - 1] != 1 else pivot - 2
                    q = parent[p]
            yield levels, pivot
            continue
        fixit = needr = needh2 = needc = False
        if c == n or (
            p == h2
            and (
                (levels[h1] == levels[h2] + 1 and n - 1 - h2 > r - h1)
                or (levels[h1] == levels[h2] and n - h2 < r - h1)
            )
        ):
            # The rooted successor would break the center condition: skip
            # ahead by rewriting the root's first subtree.
            if levels[r] > 2:
                p, q = r, parent[r]
                if h1 == r:
                    h1 -= 1
                fixit = True
            else:
                p, q = r, 1
                r -= 1
        if p <= h1:
            h1 = p - 1
        if p <= r:
            needr = True
        elif p <= h2:
            needh2 = True
        elif levels[h2] == levels[h1] - 1 and n - 1 - h2 == r - h1:
            needc = p <= c
        else:
            c = inf
        pivot = p
        delta = q - p
        lq, wq = levels[q], parent[q]
        p = -1
        for i in range(pivot, n):
            lvl = levels[i] = levels[i + delta]
            if lvl == 1:
                parent[i] = 0
            else:
                p = i
                q = parent[i] = wq if lvl == lq else parent[i + delta] - delta
            if needr and lvl == 1:
                needr, needh2 = False, True
                r = i - 1
            if needh2 and lvl <= levels[i - 1] and i > r + 1:
                needh2 = False
                h2 = i - 1
                if levels[h2] == levels[h1] - 1 and n - 1 - h2 == r - h1:
                    needc = True
                else:
                    c = inf
            if needc:
                if lvl != levels[h1 - h2 + i] - 1:
                    needc = False
                    c = i
                else:
                    c = i + 1
        if fixit:
            # The rest of the tree becomes a path as deep as the first subtree.
            r = n - h1 - 1
            for i in range(r + 1, n):
                levels[i] = i - r
                parent[i] = i - 1
            parent[r + 1] = 0
            h2, p, q, c = n - 1, n - 1, n - 2, inf
            pivot = min(pivot, r + 1)
        else:
            if p < 0:
                p = pivot - 1 if levels[pivot - 1] != 1 else pivot - 2
                q = parent[p]
            if needh2:
                h2 = n - 1
                c = n if levels[h2] == levels[h1] - 1 and h1 == r else inf
        yield levels, pivot


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


def _free_tree_metrics(
    n: int, max_n: int = DEFAULT_MAX_N_FREE, floors: dict[int, int] | None = None
) -> Iterator[tuple[list[int], int, int]]:
    """(levels, diameter, reverse_wiener) for every free tree on n vertices, 1 <= n <= max_n.

    One forward pass per tree, resumed at the generator's pivot.  Before
    index i the vertices not yet closed are the one at index i - 1 and its
    ancestors, one per level, kept as an immutable stack of nodes (size,
    top1, top2, node below): the subtree size so far and the two largest
    heights + 1 among the closed children.  A vertex closes when a vertex at its level
    or above arrives; it then adds s(n - s) to W (the edge-cut sum), its
    top1 + top2 to the diameter candidates, and folds into its parent.
    The stack, W and d of the closed vertices are kept for every index, so
    a tree costs the indices from its pivot on plus closing the stack,
    which is O(height).

    ``floors`` maps each center height h = max(levels) to walk to its
    bound B(h) from _height_floors, the smaller of the exact bounds of its
    diameters 2h - 1 and 2h, by default every height.  Only the trees
    of those heights are walked and yielded; every other tree is still
    drawn from the generator but runs no pass.  The height is read off the
    pivot: a level sequence starts 0, 1, ..., h, and its successor keeps
    every index before the pivot and is smaller at the pivot, so h can
    change only when the pivot is at most h.  Only then are max(levels)
    and its bound looked up, so a skipped tree otherwise costs the pivot
    comparison, a test that its bound is None and lowering ``valid``.  A walked
    tree whose reverse Wiener index falls below B(h) raises
    InternalCheckFailed.  The kept state stays correct through a valid
    prefix: the state at index i matches the current sequence for every i
    up to ``valid``.  A skipped tree lowers ``valid`` to its pivot, and the
    next walked tree starts at the smaller of its own pivot and ``valid``.
    """
    check_class(n, None, class_bound(None, max_n))
    if floors is None:
        floors = _height_floors(n)
    stack: list = [None] * (n + 1)
    ws = [0] * (n + 1)
    ds = [0] * (n + 1)
    stack[1] = (1, 0, 0, None)
    pairs = n * (n - 1) // 2
    valid = n
    height = 0
    # Read through the module global, so a wrapper installed there sees every tree.
    for levels, pivot in free_tree_level_sequences(n):
        if pivot <= height:
            height = max(levels)
            floor = floors.get(height)
        if floor is None:
            if pivot < valid:
                valid = pivot
            continue
        start = (pivot if pivot < valid else valid) or 1
        valid = n
        node, w, d = stack[start], ws[start], ds[start]
        top = levels[start - 1]
        for i in range(start, n):
            lvl = levels[i]
            while top >= lvl:
                s, a, b, (ps, pa, pb, below) = node
                if a + b > d:
                    d = a + b
                w += s * (n - s)
                a += 1
                if a > pa:
                    node = (ps + s, a, pa, below)
                elif a > pb:
                    node = (ps + s, pa, a, below)
                else:
                    node = (ps + s, pa, pb, below)
                top -= 1
            node = (1, 0, 0, node)
            top = lvl
            stack[i + 1], ws[i + 1], ds[i + 1] = node, w, d
        s, a, b, below = node
        while below is not None:
            if a + b > d:
                d = a + b
            w += s * (n - s)
            ps, pa, pb, below = below
            s += ps
            a += 1
            if a > pa:
                b = pa
            elif a > pb:
                a, b = pa, a
            else:
                a, b = pa, pb
        if a + b > d:
            d = a + b
        lam = pairs * d - w
        if lam < floor:
            raise InternalCheckFailed(
                f"a tree of center height {height} on {n} vertices has reverse Wiener index {lam},"
                f" below the height bound {floor}"
            )
        yield levels, d, lam


def _max_wiener_by_height(n: int, height: int) -> list[list[int | None]]:
    """Rows best_h[m], m = 0..n, of the largest edge-cut sums by rooted height h = 0..height.

    best_h[m] is the largest sum of s(n - s) over the subtree sizes s of
    the non-root vertices of an m-vertex rooted tree of height <= h, None
    where no such tree exists (m = 0, or m > 1 at h = 0).  Rooted at its
    center, a tree of center height <= h is a rooted tree of height <= h,
    and rooted anywhere its W is the edge-cut sum, so best_h[n] is the
    largest W over the n-vertex trees of center height <= h.  Each row is
    an unbounded knapsack whose items are the child subtrees, size i with
    value best_{h-1}[i] plus i(n - i).  Each height costs O(n^2).
    """
    best = [None] * (n + 1)
    best[1] = 0  # height 0: the one-vertex tree
    rows = [best]
    for _ in range(height):
        items = [(i, b + i * (n - i)) for i, b in enumerate(best[:n]) if b is not None]
        forest = [0] * n  # forest[t]: the best children of t vertices in all
        for t in range(1, n):
            forest[t] = max(forest[t - i] + v for i, v in items if i <= t)
        best = [None] + forest
        rows.append(best)
    return rows


def lambda_lower_bounds(n: int) -> dict[int, int]:
    """L(n, d) = n(n-1)d/2 - maxW(diameter <= d) for every diameter d that occurs on n vertices.

    Every tree of diameter d has reverse Wiener index n(n-1)d/2 - W at
    least L(n, d).  By Jordan's center theorem a tree of diameter <= 2h is
    a rooted tree of height <= h, so maxW(<= 2h) = best_h[n] from
    _max_wiener_by_height; one of diameter <= 2h + 1 is two such trees on
    m and n - m vertices joined by an edge, which adds m(n - m) to W, so
    maxW(<= 2h + 1) is the larger of best_h[n] and the largest
    best_h[m] + best_h[n - m] + m(n - m).  One knapsack serves every d.
    """
    pairs = n * (n - 1) // 2
    bounds = {}
    for h, row in enumerate(_max_wiener_by_height(n, (n - 1) // 2)):
        joined = [row[m] + row[n - m] + m * (n - m) for m in range(1, n) if None not in (row[m], row[n - m])]
        # Every W is at least 0, so 0 stands in for a best_h[n] that does not exist.
        for d, w in ((2 * h, row[n]), (2 * h + 1, max(joined + [row[n] or 0]))):
            if min(2, n - 1) <= d <= n - 1:
                bounds[d] = pairs * d - w
    return bounds


def _height_floors(n: int, diameter: int | None = None) -> dict[int, int]:
    """B(h) = min(L(n, 2h - 1), L(n, 2h)) per center height h of an n-vertex tree.

    A tree of center height h has diameter 2h - 1 or 2h, so its reverse
    Wiener index is at least B(h), taking only the diameters that occur on
    n vertices (h = 0 has B = 0 at n = 1).  Given ``diameter``, only the
    height (diameter + 1) // 2 that its trees have, still with both of that
    height's diameters: a class walk checks every tree it walks.
    """
    floors: dict[int, int] = {}
    for d, bound in lambda_lower_bounds(n).items():
        h = (d + 1) // 2
        floors[h] = min(bound, floors.get(h, bound))
    if diameter is None:
        return floors
    h = (diameter + 1) // 2
    return {h: floors[h]}


def _seeded_cutoff(n: int, k: int) -> int | None:
    """The k-th smallest distinct reverse Wiener index over the trees of center height <= 2.

    These are the star K(1,n-1), with n - 1 (for n >= 3), the double stars
    from _diam3_classes and the diameter-4 classes from _diam4_classes,
    whose values are read without building a spec.  None when they give
    fewer than k distinct values.
    """
    values = {lam for lam, _ in _diam3_classes(n)}
    values.update(lam for lam, _, _ in _diam4_classes(n))
    if n >= 3:
        values.add(n - 1)
    return sorted(values)[k - 1] if len(values) >= k else None


# --- generation ---------------------------------------------------------------


def gen_free_trees(n: int, max_n: int = DEFAULT_MAX_N_FREE, diameter: int | None = None) -> Iterator[Tree]:
    """Exactly one representative tree per isomorphism class on n vertices.

    Given ``diameter``, only the classes of that diameter, which must occur
    on n vertices (else EmptyClass, see check_class): the metrics pass walks
    only the trees of center height h = (diameter + 1) // 2, with its bound
    B(h), reads d off each, and only the kept trees are built.
    """
    check_class(n, diameter, class_bound(None, max_n))
    for levels, d, _ in _free_tree_metrics(n, max_n, _height_floors(n, diameter)):
        if diameter is None or d == diameter:
            yield _levels_to_tree(levels)


def _diam3_classes(n: int) -> Iterator[tuple[int, list[int]]]:
    """(reverse Wiener index, level sequence) for every diameter-3 class on n vertices.

    The classes are the double stars D(n,a), 2 <= a <= n/2, each rooted at
    the hub of its larger star: the root, the other hub with its a - 1
    leaves, then the root's n - a - 1 leaves.  W and d come from
    tree.wiener_diameter_fold over the two hubs with their leaves folded
    in, in O(1) per class.
    """
    pairs = n * (n - 1) // 2
    for a in range(2, n // 2 + 1):
        w, d = wiener_diameter_fold(n, (0, 1), (-1, 0), (n - a - 1, a - 1))
        if d != 3:
            raise InternalCheckFailed(f"D({n},{a}) as a level sequence has diameter {d}, not 3")
        yield pairs * 3 - w, [0, 1] + [2] * (a - 1) + [1] * (n - a - 1)


def _diam4_classes(n: int) -> Iterator[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """(reverse Wiener index, n0, parts) for every diameter-4 class on n vertices.

    ``Diam4Spec(n0, parts)`` is the class; the walk builds no spec itself,
    so a caller that needs only the values pays for none.

    For each hub pendant count n0, the other n - 1 - n0 vertices split into
    at least two blocks of c = v + 1 vertices (a spoke and its v leaves).
    The walk takes these partitions in reverse lexicographic order, one run
    of b equal blocks at a time, c and then b descending.  A run of blocks
    of 4 or more that leaves vertices over descends a level: the level's
    state goes on an explicit stack and the leftover is split into smaller
    blocks.  The last two runs, blocks of 3 and then blocks of 2, are one
    closed loop, since the blocks of 2 must fill what the blocks of 3
    leave.  So the whole walk runs in one generator frame, and a class
    costs a few integer operations and the parts tuple it yields.

    The index is additive over blocks.  Counting a hub pendant as a block
    with v = 0, it is 3(n - 1) plus (n - 2) + v^2 per block, which is
    2n(n - 1) - W for the W of families.wiener_diam4_closed; ``base`` holds
    that sum over the hub pendants and the runs chosen so far.
    """
    m = n - 2
    for n0 in range(n - 4):
        rest = n - 1 - n0
        base = 3 * (n - 1) + m * n0
        parts = ()  # the runs chosen so far, values ascending
        stack = []  # (rest, c, b, base, parts) at which to resume each level above
        # A first block of at most rest - 2 leaves room for a second one (k >= 2).
        c = rest - 2
        b = rest // c
        while True:
            while c >= 4:
                if b == 0:
                    c -= 1
                    b = rest // c
                    continue
                v = c - 1
                left = rest - b * c
                lam = base + b * (m + v * v)
                if left == 0:
                    yield lam, n0, ((v, b),) + parts
                elif left > 1:  # a leftover of 1 cannot be a block
                    stack.append((rest, c, b - 1, base, parts))
                    rest, base, parts = left, lam, ((v, b),) + parts
                    c = min(v, rest)
                    b = rest // c
                    continue
                b -= 1
            if c == 3:
                for b in range(rest // 3, 0, -1):
                    left = rest - 3 * b
                    lam = base + b * (m + 4)
                    if left == 0:
                        yield lam, n0, ((2, b),) + parts
                    elif left % 2 == 0:
                        yield lam + left // 2 * (m + 1), n0, ((1, left // 2), (2, b)) + parts
            if rest % 2 == 0:
                yield base + rest // 2 * (m + 1), n0, ((1, rest // 2),) + parts
            if not stack:
                break
            rest, c, b, base, parts = stack.pop()


def gen_diam4_specs(n: int) -> Iterator[Diam4Spec]:
    """Every diameter-4 isomorphism class on n vertices, as a spec stream.

    A hub pendant count n0 plus a partition of the remaining n-1-n0
    vertices into k >= 2 blocks of size n_i+1 >= 2 is a bijection onto the
    classes.  The stream runs n0 ascending, then the partitions in reverse
    lexicographic order, as _diam4_classes walks them.
    """
    check_class(n, None)
    for _, n0, parts in _diam4_classes(n):
        yield Diam4Spec(n0, parts)


# --- ranking --------------------------------------------------------------------


@dataclass(frozen=True)
class RankEntry:
    """One distinct reverse-Wiener value with its full tie set of codes."""

    value: int
    trees: tuple[str, ...]
    truncated: bool = False


class _Buckets:
    """Keeps the k smallest distinct values, each with its first tie_cap items.

    A tie set holds items in arrival order; past ``tie_cap`` it is only
    flagged truncated.  Given ``copy``, the buckets store ``copy(item)``,
    and only for the items they keep: the level-sequence generator reuses
    its list.
    """

    def __init__(self, k: int, tie_cap: int, copy=None) -> None:
        self.k = k
        self.tie_cap = tie_cap
        self.copy = copy
        self.data: dict[int, list] = {}  # value -> [items, truncated]

    def fill(self, pairs) -> _Buckets:
        """Add every (value, item) pair; a value above the largest of k kept ones is skipped at once."""
        data, k, tie_cap, copy = self.data, self.k, self.tie_cap, self.copy
        threshold = max(data) if len(data) == k else None
        for value, item in pairs:
            if threshold is not None and value > threshold:
                continue
            entry = data.get(value)
            if entry is None:
                entry = data[value] = [[], False]
                if len(data) > k:
                    del data[max(data)]
                if len(data) == k:
                    threshold = max(data)
            if len(entry[0]) < tie_cap:
                entry[0].append(item if copy is None else copy(item))
            else:
                entry[1] = True
        return self

    def entries(self, tree_of=None) -> list[RankEntry]:
        """One RankEntry per kept value, by increasing value.

        ``tree_of`` builds each kept item's tree for its canonical code;
        the default reads items as level sequences.
        """
        tree_of = tree_of or _levels_to_tree
        return [
            RankEntry(value, tuple(sorted(canonical_code(tree_of(item)) for item in items)), truncated)
            for value, (items, truncated) in sorted(self.data.items())
        ]


def rank_trees(
    n: int,
    k: int,
    diameter: int | None = None,
    max_n_free: int = DEFAULT_MAX_N_FREE,
    max_n_diam4: int = DEFAULT_MAX_N_DIAM4,
    tie_cap: int = DEFAULT_TIE_CAP,
) -> list[RankEntry]:
    """The k smallest distinct reverse-Wiener values over the free trees on n vertices.

    Given ``diameter``, over the trees of that diameter alone, which must
    occur on n vertices (else ``EmptyClass``, see check_class): the double
    stars serve d = 3 at any n, the partition walk d = 4 up to
    ``max_n_diam4``, with one Diam4Spec built per class, and the free-tree
    walk filtered on d the rest, which walks only the trees of center
    height (d + 1) // 2.  A class with fewer than k distinct values
    gives fewer entries.  ``k`` or ``tie_cap`` below 1 raises DomainTooSmall.

    Over all trees, when the trees of center height <= 2 (the star, the
    double stars and the diameter-4 classes) give at least k distinct
    values, the k-th smallest of them is a cutoff V (_seeded_cutoff): the
    walk skips every center height h whose bound B(h) from _height_floors,
    the smaller of lambda_lower_bounds at diameters 2h - 1 and 2h, exceeds
    V, since no tree there can reach the k smallest values or tie with
    them.  It raises InternalCheckFailed if a walked tree falls below its
    B(h), or if the kept values are fewer than k or the k-th exceeds V;
    with fewer seeds than k the walk is unpruned.
    """
    if k < 1:
        raise DomainTooSmall(f"k must be at least 1, got {k}")
    if tie_cap < 1:
        raise DomainTooSmall(f"tie_cap must be at least 1, got {tie_cap}")
    check_class(n, diameter, class_bound(diameter, max_n_free, max_n_diam4))
    tree_of, copy, cutoff = None, list, None
    if diameter is None:
        cutoff = _seeded_cutoff(n, k)
        floors = {h: b for h, b in _height_floors(n).items() if cutoff is None or b <= cutoff}
        pairs = ((lam, levels) for levels, _, lam in _free_tree_metrics(n, max_n_free, floors))
    elif diameter == 3:
        pairs, copy = _diam3_classes(n), None
    elif diameter == 4:
        pairs = ((lam, Diam4Spec(n0, parts)) for lam, n0, parts in _diam4_classes(n))
        tree_of, copy = diam4, None
    else:
        walk = _free_tree_metrics(n, max_n_free, _height_floors(n, diameter))
        pairs = ((lam, levels) for levels, d, lam in walk if d == diameter)
    buckets = _Buckets(k, tie_cap, copy).fill(pairs)
    if cutoff is not None and (len(buckets.data) < k or max(buckets.data) > cutoff):
        raise InternalCheckFailed(
            f"the height-pruned ranking at n={n}, k={k} kept {len(buckets.data)} values"
            f" up to {max(buckets.data, default=None)}, not k up to the cutoff {cutoff}"
        )
    return buckets.entries(tree_of)

