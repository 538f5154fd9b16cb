"""Independent checks of revwiener's CLI output.

Nothing here imports revwiener.  Trees are rebuilt from the AHU
parenthesis codes the CLI prints, and every number is recomputed with
this file's own BFS, edge-cut sum, floor forms, Otter recurrence and
partition counts.  One call of a ``check_*`` function checks one report
record or one rank entry and returns a list of problems (empty when the
record is correct).
"""

from __future__ import annotations

from collections import deque
from itertools import product


class CodeError(ValueError):
    """A string is not a well-formed rooted-tree parenthesis code."""


# --- trees rebuilt from codes -------------------------------------------------


def decode(code: str) -> list[list[int]]:
    """Adjacency lists of the tree written as a parenthesis code, e.g. ``(()())``."""
    adj: list[list[int]] = []
    stack: list[int] = []
    roots = 0
    for ch in code:
        if ch == "(":
            v = len(adj)
            adj.append([])
            if stack:
                adj[stack[-1]].append(v)
                adj[v].append(stack[-1])
            else:
                roots += 1
            stack.append(v)
        elif ch == ")":
            if not stack:
                raise CodeError(f"unbalanced code {code!r}")
            stack.pop()
        else:
            raise CodeError(f"unexpected character {ch!r} in code")
    if stack or roots != 1:
        raise CodeError(f"code {code!r} is not a single rooted tree")
    return adj


def bfs(adj: list[list[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def diameter(adj: list[list[int]]) -> int:
    dist = bfs(adj, 0)
    far = dist.index(max(dist))
    return max(bfs(adj, far))


def wiener(adj: list[list[int]]) -> int:
    """Sum over edges of the product of the two component sizes."""
    n = len(adj)
    parent = [-1] * n
    order = [0]
    parent[0] = 0
    for u in order:
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return sum(size[u] * (n - size[u]) for u in order[1:])


def reverse_wiener(adj: list[list[int]]) -> int:
    n = len(adj)
    return n * (n - 1) * diameter(adj) // 2 - wiener(adj)


def double_star_side(adj: list[list[int]]) -> int | None:
    """The smaller side a of a double star D(n, a), or None if not a double star."""
    hubs = [v for v in range(len(adj)) if len(adj[v]) > 1]
    if len(hubs) != 2 or hubs[1] not in adj[hubs[0]]:
        return None
    return min(len(adj[hubs[0]]), len(adj[hubs[1]]))


def is_star(adj: list[list[int]]) -> bool:
    return any(len(a) == len(adj) - 1 for a in adj)


def canonical_form(adj: list[list[int]]) -> tuple:
    """Isomorphism class as nested sorted tuples rooted at the center(s)."""
    dist = bfs(adj, 0)
    u = dist.index(max(dist))
    du = bfs(adj, u)
    v = du.index(max(du))
    dv = bfs(adj, v)
    d = du[v]
    centers = [w for w in range(len(adj)) if max(du[w], dv[w]) == (d + 1) // 2]

    def rooted(root: int, parent: int) -> tuple:
        return tuple(sorted(rooted(w, root) for w in adj[root] if w != parent))

    return min(rooted(c, -1) for c in centers)


# --- reference values -----------------------------------------------------------


def f3(n: int) -> int:
    """Floor form of the smallest Λ over diameter-3 trees, n >= 4."""
    return (n * n + 3 * n) // 2 - 2 - (n // 2) * ((n + 1) // 2)


def g3(n: int) -> int:
    """Floor form of the second-smallest Λ over diameter-3 trees, n >= 6."""
    return (n * n + 3 * n) // 2 - 2 - (n // 2 - 1) * ((n + 1) // 2 + 1)


def smallest_three(n: int) -> tuple[int, int, int]:
    """The three smallest Λ over all n-vertex trees for 5 <= n <= 56."""
    if not 5 <= n <= 56:
        raise ValueError(f"smallest_three covers 5 <= n <= 56, got {n}")
    return n - 1, f3(n), 20 if n == 5 else g3(n)


def otter_free_trees(n_max: int) -> list[int]:
    """Free (unlabeled) tree counts t(0..n_max) by Otter's formula."""
    r = [0, 1] + [0] * max(0, n_max - 1)  # rooted tree counts
    for m in range(1, n_max):
        total = 0
        for k in range(1, m + 1):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[m - k + 1]
        r[m + 1] = total // m
    t = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        pairs = sum(r[i] * r[n - i] for i in range(1, n))
        if n % 2 == 0:
            pairs -= r[n // 2]
        t[n] = r[n] - pairs // 2
    return t


def diam4_class_counts(n_max: int) -> list[int]:
    """Number of diameter-4 trees on n vertices, n = 0..n_max.

    A diameter-4 tree is a hub with n0 pendants plus at least two spokes
    that carry leaves, so the count is the number of partitions of
    n - 1 - n0 into at least two parts >= 2, summed over n0.  The partition
    numbers come from the generating function prod_{j>=2} 1/(1 - x^j).
    """
    p2 = [1] + [0] * n_max  # partitions into parts >= 2
    for part in range(2, n_max + 1):
        for m in range(part, n_max + 1):
            p2[m] += p2[m - part]
    counts = [0] * (n_max + 1)
    for n in range(5, n_max + 1):
        counts[n] = sum(p2[m] - 1 for m in range(4, n))
    return counts


def labeled_trees(n: int):
    """Every labeled tree on n >= 2 vertices, decoded from its Prüfer sequence."""
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        adj: list[list[int]] = [[] for _ in range(n)]
        for v in seq:
            leaf = degree.index(1)
            adj[leaf].append(v)
            adj[v].append(leaf)
            degree[leaf] = 0
            degree[v] -= 1
        u, w = (x for x in range(n) if degree[x] == 1)
        adj[u].append(w)
        adj[w].append(u)
        yield adj


# --- record checks -------------------------------------------------------------
#
# ``reported_failure`` reads what a record says about itself: a mismatch or
# failing trials that the program reports is a failed operation.  The
# ``check_*`` functions recompute what the record claims; a problem there
# means the program's output is wrong.


def reported_failure(theorem: str, rec: dict) -> str | None:
    """Why the record itself reports a failure, or None if it reports success."""
    if theorem == "lemmas":
        return f"{rec['oracle_value']} failing trials" if rec["oracle_value"] or not rec["match"] else None
    if theorem in ("prop-f4", "prop-g4"):
        # A tree that the published table omits gives match = false with equal
        # values and claimed set < oracle set; the oracle is authoritative.
        if rec["claimed_value"] != rec["oracle_value"]:
            return f"claimed {rec['claimed_value']} != oracle {rec['oracle_value']}"
        if not set(rec["claimed_set"]) <= set(rec["oracle_set"]):
            return "claimed set is not a subset of the oracle set"
        return None
    return None if rec["match"] else f"mismatch: {rec['note']}"


def _codes_attain(n: int, value: int, codes, diam: int | None = None) -> list[str]:
    problems = []
    for code in codes:
        try:
            adj = decode(code)
        except CodeError as exc:
            problems.append(str(exc))
            continue
        if len(adj) != n:
            problems.append(f"code has {len(adj)} vertices, expected {n}")
            continue
        if diam is not None and diameter(adj) != diam:
            problems.append(f"code has diameter {diameter(adj)}, expected {diam}")
        lam = reverse_wiener(adj)
        if lam != value:
            problems.append(f"code has Λ = {lam}, reported {value}")
    return problems


def _consistent(rec: dict) -> list[str]:
    """The record's match flag agrees with its values and sets."""
    same = rec["claimed_value"] == rec["oracle_value"] and sorted(rec["claimed_set"]) == sorted(rec["oracle_set"])
    return [] if rec["match"] == same else [f"match flag {rec['match']} contradicts the record's values and sets"]


def _one_tree(rec: dict, shape: str, is_shape) -> list[str]:
    codes = rec["oracle_set"]
    if len(codes) != 1:
        return [f"expected {shape} alone, got {len(codes)} trees"]
    return [] if is_shape(decode(codes[0])) else [f"attaining tree is not {shape}"]


def check_third_smallest(rec: dict) -> list[str]:
    n = rec["n"]
    expected = smallest_three(n)[2]
    problems = _consistent(rec) + _codes_attain(n, rec["oracle_value"], rec["oracle_set"])
    if rec["oracle_value"] != expected:
        problems.append(f"oracle value {rec['oracle_value']} != {expected}")
    if not problems:
        if n == 5:
            problems += _one_tree(rec, "P5", lambda adj: diameter(adj) == 4)
        else:
            problems += _one_tree(rec, f"D({n},{n // 2 - 1})", lambda adj: double_star_side(adj) == n // 2 - 1)
    return problems


def check_prop_d3(rec: dict) -> list[str]:
    n = rec["n"]
    second = rec["note"] == "g(n,3)"
    expected = g3(n) if second else f3(n)
    problems = _consistent(rec) + _codes_attain(n, rec["oracle_value"], rec["oracle_set"], diam=3)
    if rec["oracle_value"] != expected:
        problems.append(f"oracle value {rec['oracle_value']} != {expected}")
    if not problems:
        a = n // 2 - 1 if second else n // 2
        problems += _one_tree(rec, f"D({n},{a})", lambda adj: double_star_side(adj) == a)
    return problems


def check_diam4(rec: dict) -> list[str]:
    problems = _consistent(rec) + _codes_attain(rec["n"], rec["oracle_value"], rec["oracle_set"], diam=4)
    if not rec["oracle_set"]:
        problems.append("empty oracle set")
    return problems


LEMMAS = ("lemma1", "lemma2", "lemma3", "lemma5")


def check_lemma(rec: dict, lemma: str, trials: int) -> list[str]:
    problems = []
    if not rec["note"].startswith(f"{lemma}:"):
        problems.append(f"record is for {rec['note'].split(':')[0]!r}, expected {lemma}")
    if rec["n"] != trials:
        problems.append(f"{rec['n']} trials reported, expected {trials}")
    if rec["match"] != (rec["oracle_value"] == 0):
        problems.append(f"match flag {rec['match']} with {rec['oracle_value']} failing trials")
    return problems


def check_rank_entries(n: int, k: int, entries: list[dict]) -> list[list[str]]:
    """Problems per rank entry (one list per entry, k lists in all)."""
    out: list[list[str]] = [[] for _ in range(k)]
    if len(entries) != k:
        out[-1].append(f"expected {k} entries, got {len(entries)}")
    seen: set[str] = set()
    for i, e in enumerate(entries[:k]):
        problems = out[i]
        if i and e["value"] <= entries[i - 1]["value"]:
            problems.append("values do not strictly increase")
        if not e["trees"]:
            problems.append("empty tie set")
        if seen.intersection(e["trees"]) or len(set(e["trees"])) != len(e["trees"]):
            problems.append("a code appears twice")
        seen.update(e["trees"])
        problems += _codes_attain(n, e["value"], e["trees"])
    if 5 <= n <= 56 and len(entries) >= 3:
        shapes = (
            ("the star", is_star),
            (f"D({n},{n // 2})", lambda adj: double_star_side(adj) == n // 2),
            ("P5", lambda adj: diameter(adj) == 4)
            if n == 5
            else (f"D({n},{n // 2 - 1})", lambda adj: double_star_side(adj) == n // 2 - 1),
        )
        for i, (value, (shape, is_shape)) in enumerate(zip(smallest_three(n), shapes)):
            e = entries[i]
            if e["value"] != value:
                out[i].append(f"entry {i + 1} has value {e['value']}, expected {value}")
            elif not out[i]:
                out[i] += _one_tree({"oracle_set": e["trees"]}, shape, is_shape)
    return out
