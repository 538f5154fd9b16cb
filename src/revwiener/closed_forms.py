"""Closed-form minima over diameter classes and the overall 2nd/3rd smallest.

Values here come from branch formulas only; the exhaustive oracles live in
the enumeration module so the two routes can disagree loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainTooSmall, InternalCheckFailed, InvalidSpec
from .families import Diam4Spec, DoubleStarSpec, normalize


@dataclass(frozen=True)
class QR:
    """The unique writing n = q^2 + r with q^2 < n <= (q+1)^2, 1 <= r <= 2q+1."""

    n: int
    q: int
    r: int


def qr_decompose(n: int) -> QR:
    if n < 2:
        raise DomainTooSmall(f"q,r decomposition needs n >= 2, got {n}")
    q = math.isqrt(n - 1)
    r = n - q * q
    if not 1 <= r <= 2 * q + 1:
        raise InternalCheckFailed(f"q,r decomposition of {n} gave q={q}, r={r}")
    return QR(n=n, q=q, r=r)


@dataclass(frozen=True)
class ExtremalResult:
    """A ranked exact value together with the set of attaining trees.

    ``attaining`` holds family specs and/or canonical codes; distinct
    entries describe non-isomorphic trees.  ``notes`` records any claimed
    spec that failed validation instead of dropping it silently.
    """

    value: int
    attaining: tuple[DoubleStarSpec | Diam4Spec | str, ...]
    notes: tuple[str, ...] = field(default=())


def f_n2(n: int) -> int:
    """Minimum reverse Wiener index over diameter-2 trees: the star's n-1."""
    if n < 2:
        raise DomainTooSmall(f"f(n,2) needs n >= 2, got {n}")
    return n - 1


def _half(num: int) -> int:
    if num % 2:
        raise InternalCheckFailed(f"{num} should be even")
    return num // 2


def f_n3(n: int) -> int:
    """Minimum reverse Wiener index over diameter-3 trees (double stars).

    Two equivalent expressions (floor form and q,r form) are evaluated and
    cross-checked to catch transcription slips.
    """
    if n < 4:
        raise DomainTooSmall(f"f(n,3) needs n >= 4, got {n}")
    floor_form = _half(n * n + 3 * n) - 2 - (n // 2) * ((n + 1) // 2)
    qr = qr_decompose(n)
    q, r = qr.q, qr.r
    num = q**4 + 2 * r * q * q + 6 * q * q + r * r + 6 * r
    num -= 7 if n % 2 == 1 else 8
    if num % 4 or num // 4 != floor_form:
        raise InternalCheckFailed(f"f({n},3): floor form {floor_form}, q,r form {num}/4")
    return floor_form


def g_n3(n: int) -> int:
    """Second-smallest reverse Wiener index over diameter-3 trees."""
    if n < 6:
        raise DomainTooSmall(f"g(n,3) needs n >= 6, got {n}")
    return _half(n * n + 3 * n) - 2 - (n // 2 - 1) * ((n + 1) // 2 + 1)


def f_n4_value(n: int) -> int:
    """Branch formula for the minimum over diameter-4 trees."""
    if n < 5:
        raise DomainTooSmall(f"f(n,4) needs n >= 5, got {n}")
    qr = qr_decompose(n)
    q, r = qr.q, qr.r
    if r <= q:
        return 2 * q**3 + q * q + 3 * r * q - 3 * q + 2 * r - 2
    return 2 * q**3 + q * q + 3 * r * q - 4 * q + 3 * r - 3


def f_n4(n: int) -> ExtremalResult:
    """Minimum over diameter-4 trees with its attaining set by r-case."""
    value = f_n4_value(n)
    qr = qr_decompose(n)
    q, r = qr.q, qr.r
    if r == 1:
        raw = [(0, [(q - 1, q)])]
    elif r <= q:
        raw = [(0, [(q - 1, q - r + 1), (q, r - 1)])]
    elif r == q + 1:
        raw = [(0, [(q, q)]), (0, [(q - 1, q + 1)])]
    else:  # r = q+2 .. 2q+1
        raw = [(0, [(q - 1, 2 * (q + 1) - r), (q, r - q - 1)])]
    attaining, notes = _normalize_all(n, raw)
    return ExtremalResult(value=value, attaining=attaining, notes=notes)


def g_n4_value(n: int) -> int:
    """Branch formula for the second-smallest over diameter-4 trees."""
    if n < 6:
        raise DomainTooSmall(f"g(n,4) needs n >= 6, got {n}")
    qr = qr_decompose(n)
    q, r = qr.q, qr.r
    if r <= q - 1:
        return 2 * q**3 + q * q + 3 * r * q - 3 * q + 2 * r
    if r == q + 2:
        return 2 * q**3 + 4 * q * q + 5 * q + 4
    return 2 * q**3 + q * q + 3 * r * q - 4 * q + 3 * r - 1


def _normalize_all(n, raw_specs):
    """Normalize raw (n0, parts) pairs; flag invalid ones instead of dropping."""
    attaining: list[Diam4Spec] = []
    notes: list[str] = []
    for n0, parts in raw_specs:
        try:
            spec = normalize(n0, parts)
        except InvalidSpec as exc:
            notes.append(f"claimed spec (n0={n0}, parts={parts}) invalid: {exc}")
            continue
        if spec.n != n:
            notes.append(f"claimed spec {spec} has {spec.n} vertices, expected {n}")
            continue
        if spec not in attaining:
            attaining.append(spec)
    return tuple(attaining), tuple(notes)


def _g_n4_raw_specs(q: int, r: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Branch entries of the second-minimum attaining table for (q, r).

    For q <= 3 some r-ranges coincide; the first matching branch wins,
    mirroring the precedence used by the value formula in g_n4_value.
    """
    if 1 <= r <= q - 2:
        return [(0, [(q - 2, 1), (q - 1, q - r - 1), (q, r)])]
    if r == q - 1:
        return [
            (0, [(q - 2, 1), (q, q - 1)]),
            (0, [(q - 2, 2), (q - 1, q - 1)]),
        ]
    if r == q:
        return [(0, [(q - 2, 1), (q - 1, q)])]
    if r == q + 1:
        return [
            (0, [(q - 1, 1), (q, q - 2), (q + 1, 1)]),
            (0, [(q - 2, 1), (q - 1, q - 1), (q, 1)]),
        ]
    if r == q + 2:
        return [(0, [(q, q - 1), (q + 1, 1)])]
    if r == q + 3:
        return [
            (0, [(q, q - 2), (q + 1, 2)]),
            (0, [(q - 2, 1), (q - 1, q - 3), (q, 3)]),
            (0, [(q - 1, q), (q + 1, 1)]),
        ]
    if q + 4 <= r <= 2 * q - 1:
        return [
            (0, [(q - 2, 1), (q - 1, 2 * q - r), (q, r - q)]),
            (0, [(q - 1, 2 * q + 3 - r), (q, r - q - 3), (q + 1, 1)]),
        ]
    if r == 2 * q:
        return [
            (0, [(q - 2, 1), (q, q)]),
            (0, [(q - 1, 2 * q + 3 - r), (q, r - q - 3), (q + 1, 1)]),
        ]
    if r == 2 * q + 1:
        return [(0, [(q - 1, 2), (q, q - 2), (q + 1, 1)])]
    return []


def g_n4(n: int) -> ExtremalResult:
    """Second-smallest over diameter-4 trees with its claimed attaining set."""
    value = g_n4_value(n)
    qr = qr_decompose(n)
    attaining, notes = _normalize_all(n, _g_n4_raw_specs(qr.q, qr.r))
    return ExtremalResult(value=value, attaining=attaining, notes=notes)


def _overall(n: int, rank: str, d3_value, a: int, d4_form, tie: int) -> ExtremalResult:
    """The overall second or third smallest for n >= 4: diameter 3 to n = 56, diameter 4 from 58.

    At n = 57 the diameter-3 value ``d3_value(57)`` and the diameter-4
    value of ``d4_form(57)`` coincide at ``tie``, so the tie set spans both
    classes: D(57, a) and the diameter-4 trees.
    """
    if n <= 56:
        return ExtremalResult(value=d3_value(n), attaining=(DoubleStarSpec(n=n, a=a),))
    d4 = d4_form(n)
    if n == 57:
        if not d4.value == d3_value(57) == tie:
            raise InternalCheckFailed(
                f"{rank} at n = 57: diameter 4 gives {d4.value}, diameter 3 {d3_value(57)}; both should be {tie}"
            )
        attaining = (DoubleStarSpec(n=57, a=a),) + d4.attaining
        return ExtremalResult(value=tie, attaining=attaining, notes=d4.notes)
    return ExtremalResult(value=d4.value, attaining=d4.attaining, notes=d4.notes)


def second_smallest(n: int) -> ExtremalResult:
    """Second-smallest reverse Wiener index over all n-vertex trees."""
    if n < 4:
        raise DomainTooSmall(f"second smallest needs n >= 4, got {n}")
    return _overall(n, "overall-2nd", f_n3, n // 2, f_n4, 896)


def third_smallest(n: int) -> ExtremalResult:
    """Third-smallest reverse Wiener index over all n-vertex trees."""
    if n < 5:
        raise DomainTooSmall(f"third smallest needs n >= 5, got {n}")
    if n == 5:
        # P_5 is the only diameter-4 tree on 5 vertices.
        return ExtremalResult(value=20, attaining=(normalize(0, [(1, 2)]),))
    return _overall(n, "overall-3rd", g_n3, n // 2 - 1, g_n4, 898)
