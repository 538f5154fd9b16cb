"""Named tree families: stars, paths, double stars and the diameter-4 family.

The diameter-4 family T_{n,k}(n0; n1^[b1], ..., ns^[bs]) is a hub carrying
n0 pendants and k spokes, where b_i of the spokes carry n_i leaves each.
Constructions use a fixed labeling (hub 0, spokes next, then hub pendants,
then leaves grouped by spoke) so output is reproducible byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainTooSmall, InternalCheckFailed, InvalidSpec, SpecParseError
from .tree import Tree, from_edge_list


@dataclass(frozen=True)
class DoubleStarSpec:
    """D_{n,a}: centers of S_a and S_{n-a} joined by an edge, 2 <= a <= n/2."""

    n: int
    a: int

    def __post_init__(self) -> None:
        if not 2 <= self.a <= self.n // 2:
            raise InvalidSpec(f"need 2 <= a <= n/2, got a={self.a}, n={self.n}")

    def __str__(self) -> str:
        return f"D({self.n},{self.a})"


@dataclass(frozen=True)
class Diam4Spec:
    """T_{n,k}(n0; n1^[b1], ..., ns^[bs]) with strictly increasing values n_i >= 1.

    parts is a tuple of (value, multiplicity) pairs; k = sum of
    multiplicities, n = n0 + k + 1 + sum of value*multiplicity.
    """

    n0: int
    parts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # One pass sums k and finds the first faulty part; the checks then
        # raise in order: n0, then k, then that part.
        k = prev = 0
        bad = None
        for value, mult in self.parts:
            k += mult
            if (value < 1 or mult < 1 or value <= prev) and bad is None:
                bad = value, mult
            prev = value
        if self.n0 < 0:
            raise InvalidSpec(f"n0 must be nonnegative, got {self.n0}")
        if k < 2:
            raise InvalidSpec(f"need k >= 2 spokes, got k={k}")
        if bad is not None:
            value, mult = bad
            if value < 1:
                raise InvalidSpec(f"part value must be >= 1, got {value}")
            if mult < 1:
                raise InvalidSpec(f"part multiplicity must be >= 1, got {mult}")
            raise InvalidSpec(f"part values must be strictly increasing: {self.parts}")

    @property
    def k(self) -> int:
        return sum(b for _, b in self.parts)

    @property
    def s(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return self.n0 + self.k + 1 + sum(v * b for v, b in self.parts)

    def spoke_values(self) -> list[int]:
        """Leaf counts per spoke, nondecreasing."""
        out: list[int] = []
        for value, mult in self.parts:
            out.extend([value] * mult)
        return out

    def __str__(self) -> str:
        terms = ", ".join(f"{v}^{b}" if b != 1 else str(v) for v, b in self.parts)
        if self.n0:
            return f"T(n0={self.n0}; {terms})"
        return f"T({terms})"


def normalize(n0: int, raw_parts) -> Diam4Spec:
    """Build a valid Diam4Spec from raw parts that may contain zero values.

    A spoke with zero leaves is a hub pendant, so zero-value parts fold
    into n0.  Zero-multiplicity parts are dropped, equal values merged.
    Raises InvalidSpec if any count is negative or k < 2 afterwards.
    """
    n0 = int(n0)
    counts: dict[int, int] = {}
    for value, mult in raw_parts:
        if mult < 0 or value < 0:
            raise InvalidSpec(f"negative entry in raw parts: ({value}, {mult})")
        if mult == 0:
            continue
        counts[value] = counts.get(value, 0) + mult
    n0 += counts.pop(0, 0)
    parts = tuple(sorted(counts.items()))
    return Diam4Spec(n0=n0, parts=parts)


def star(n: int) -> Tree:
    """S_n with hub 0."""
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def path(n: int) -> Tree:
    """P_n labeled in order."""
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def double_star(spec: DoubleStarSpec) -> Tree:
    """D_{n,a}: vertex 0 centers S_{n-a}, vertex 1 centers S_a."""
    n, a = spec.n, spec.a
    edges = [(0, 1)]
    edges.extend((0, i) for i in range(2, n - a + 1))
    edges.extend((1, i) for i in range(n - a + 1, n))
    return from_edge_list(n, edges)


def diam4(spec: Diam4Spec) -> Tree:
    """Materialize a Diam4Spec: hub 0, spokes 1..k, pendants, then leaves."""
    values = spec.spoke_values()
    k = len(values)
    n = spec.n
    edges = [(0, i) for i in range(1, k + 1)]
    nxt = k + 1
    for _ in range(spec.n0):
        edges.append((0, nxt))
        nxt += 1
    for i, value in enumerate(values, start=1):
        for _ in range(value):
            edges.append((i, nxt))
            nxt += 1
    return from_edge_list(n, edges)


def lambda_double_star_closed(spec: DoubleStarSpec) -> int:
    """Closed form for the reverse Wiener index of D_{n,a}."""
    n, a = spec.n, spec.a
    num = n * n + 3 * n
    if num % 2:
        raise InternalCheckFailed(f"n^2 + 3n = {num} should be even")
    return num // 2 - 2 - a * (n - a)


def wiener_diam4_closed(spec: Diam4Spec) -> int:
    """Closed form for W of the diameter-4 family."""
    n, k, n0 = spec.n, spec.k, spec.n0
    sumsq = sum(b * v * v for v, b in spec.parts)
    return (n - 1) * (2 * n - 3) - (n - 2) * k - (n - 2) * n0 - sumsq


def lambda_diam4_closed(spec: Diam4Spec) -> int:
    """Closed form for the reverse Wiener index of the diameter-4 family."""
    n = spec.n
    return 2 * n * (n - 1) - wiener_diam4_closed(spec)


_D_RE = re.compile(r"^D\(\s*(\d+)\s*,\s*(\d+)\s*\)$")
_T_RE = re.compile(r"^T\((.*)\)$")
_TERM_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_family_spec(text: str) -> DoubleStarSpec | Diam4Spec:
    """Parse spec strings such as ``D(6,3)``, ``T(2^3)`` or ``T(n0=1; 1^2)``.

    Grammar for T: optional ``n0=<int>;`` then comma-separated
    ``<value>^<mult>`` terms (``^<mult>`` defaults to 1).
    """
    text = text.strip()
    m = _D_RE.match(text)
    if m:
        return DoubleStarSpec(n=int(m.group(1)), a=int(m.group(2)))
    m = _T_RE.match(text)
    if m:
        body = m.group(1).strip()
        n0 = 0
        if ";" in body:
            head, body = body.split(";", 1)
            head = head.strip()
            if not head.startswith("n0="):
                raise SpecParseError(f"expected 'n0=<int>;', got {head!r}")
            try:
                n0 = int(head[3:])
            except ValueError as exc:
                raise SpecParseError(f"bad n0 value in {head!r}") from exc
        parts = []
        for term in body.split(","):
            term = term.strip()
            tm = _TERM_RE.match(term)
            if not tm:
                raise SpecParseError(f"bad part term {term!r}")
            value = int(tm.group(1))
            mult = int(tm.group(2)) if tm.group(2) else 1
            parts.append((value, mult))
        if not parts:
            raise SpecParseError(f"no parts in {text!r}")
        return normalize(n0, parts)
    raise SpecParseError(f"unrecognized family spec {text!r}")


# A spec's n is read from its counts alone, so a short string can name a
# tree far larger than memory.
MAX_BUILD_N = 10**6


def build(spec: DoubleStarSpec | Diam4Spec) -> Tree:
    """Materialize either family spec to a tree.

    Raises DomainTooSmall, before any edge is made, for a spec above
    MAX_BUILD_N vertices.
    """
    if spec.n > MAX_BUILD_N:
        raise DomainTooSmall(f"n={spec.n} exceeds the construction limit {MAX_BUILD_N}")
    if isinstance(spec, DoubleStarSpec):
        return double_star(spec)
    return diam4(spec)
