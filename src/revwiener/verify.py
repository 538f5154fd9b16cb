"""Verification campaigns: closed-form claims checked against brute-force oracles.

Each campaign produces a :class:`VerificationReport` whose records compare
a claimed value/attaining set against an independently enumerated one.
Attaining sets are compared as canonical-code sets, so two descriptions of
the same tree never cause a spurious mismatch.

Reports are deterministic: per-n work may fan out across processes, but
records are merged back in n order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import closed_forms, enumeration, transforms
from .errors import DomainTooSmall, InternalCheckFailed, UnknownTheorem
from .families import Diam4Spec, DoubleStarSpec, build, diam4, star
from .invariants import reverse_wiener
from .tree import Tree, canonical_code, diameter_and_centers, from_edge_list, from_pruefer, has_center_pendant

SCHEMA_VERSION = "revwiener-report/1"

THEOREM_IDS = (
    "smallest",
    "second-smallest",
    "third-smallest",
    "prop-d3",
    "prop-f4",
    "prop-g4",
    "lemmas",
)


@dataclass(frozen=True)
class Record:
    n: int
    claimed_value: int
    oracle_value: int
    claimed_set: tuple[str, ...]
    oracle_set: tuple[str, ...]
    match: bool
    note: str = ""


@dataclass
class VerificationReport:
    theorem: str
    records: list[Record] = field(default_factory=list)
    wall_time: float = 0.0
    schema_version: str = SCHEMA_VERSION

    @property
    def checked(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.match)

    @property
    def failed(self) -> int:
        return self.checked - self.passed

    @property
    def all_match(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "theorem": self.theorem,
            "records": [
                {
                    "n": r.n,
                    "claimed_value": r.claimed_value,
                    "oracle_value": r.oracle_value,
                    "claimed_set": list(r.claimed_set),
                    "oracle_set": list(r.oracle_set),
                    "match": r.match,
                    "note": r.note,
                }
                for r in self.records
            ],
            "summary": {
                "checked": self.checked,
                "passed": self.passed,
                "failed": self.failed,
            },
            "wall_time": self.wall_time,
        }


def attaining_codes(result: closed_forms.ExtremalResult) -> tuple[str, ...]:
    """Canonical-code set for an extremal result, materializing specs on demand."""
    codes = set()
    for item in result.attaining:
        if isinstance(item, str):
            codes.add(item)
        else:
            codes.add(canonical_code(build(item)))
    return tuple(sorted(codes))


def _record(n: int, claim, entry, note: str = "", mismatch_note: str = "") -> Record:
    """A claim's value and attaining set (an ExtremalResult) against the oracle's RankEntry.

    When the values agree but the sets differ, ``note`` (by default a
    plain statement of that) is followed by ``mismatch_note``.
    """
    claimed = attaining_codes(claim)
    match = claim.value == entry.value and claimed == entry.trees
    if not match and claim.value == entry.value:
        note = note or "value matches; attaining sets differ"
        if mismatch_note:
            note = f"{note}; {mismatch_note}"
    return Record(
        n=n,
        claimed_value=claim.value,
        oracle_value=entry.value,
        claimed_set=claimed,
        oracle_set=entry.trees,
        match=match,
        note=note,
    )


# --- per-theorem claims -----------------------------------------------------------


def _star_claim(n: int) -> closed_forms.ExtremalResult:
    """The smallest value: the star's, computed on the built tree."""
    s = star(n)
    return closed_forms.ExtremalResult(value=reverse_wiener(s), attaining=(canonical_code(s),))


def _prop_d3_claims(n: int) -> list:
    """f(n,3) and g(n,3) as the two smallest values over the double stars."""
    claims = [(1, closed_forms.f_n3(n), n // 2, "f(n,3)")]
    if n >= 6:
        claims.append((2, closed_forms.g_n3(n), n // 2 - 1, "g(n,3)"))
    return [
        (rank, closed_forms.ExtremalResult(value=value, attaining=(DoubleStarSpec(n=n, a=a),)), note)
        for rank, value, a, note in claims
    ]


# --- transform battery ----------------------------------------------------------


def _random_labeled_tree(rng: random.Random, n: int) -> Tree:
    return from_pruefer(n, [rng.randrange(n) for _ in range(n - 2)])


def random_diam4_spec(rng: random.Random, max_n: int = 40, min_pendants: int = 0) -> Diam4Spec:
    """Random valid diameter-4 spec with n <= max_n."""
    while True:
        k = rng.randint(2, 6)
        n0 = rng.randint(min_pendants, 3) if min_pendants or rng.random() < 0.5 else 0
        values = [rng.randint(1, 5) for _ in range(k)]
        counts: dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        spec = Diam4Spec(n0=n0, parts=tuple(sorted(counts.items())))
        if spec.n <= max_n:
            return spec


def random_lemma_input(rng: random.Random, lemma: str, max_n: int = 40):
    """A random input satisfying the given transform's precondition.

    lemma1, lemma2 and lemma5 give (tree, diameter), lemma3
    (spec, (i, j)).
    """
    if lemma == "lemma1":
        # Rejection-sample general trees for diameter variety; fall back to
        # a diameter-4 tree with hub pendants, which always qualifies.
        for _ in range(20):
            t = _random_labeled_tree(rng, rng.randint(5, max_n))
            d, centers = diameter_and_centers(t)
            if d >= 4 and has_center_pendant(t, centers):
                return t, d
        t = diam4(random_diam4_spec(rng, max_n=max_n, min_pendants=1))
        return t, diameter_and_centers(t)[0]
    if lemma == "lemma2":
        while True:
            t = _random_labeled_tree(rng, rng.randint(5, max_n))
            d, centers = diameter_and_centers(t)
            if d >= 4 and not has_center_pendant(t, centers):
                return t, d
    if lemma == "lemma3":
        while True:
            spec = random_diam4_spec(rng, max_n=max_n)
            pairs = [
                (i, j)
                for i in range(spec.s)
                for j in range(spec.s)
                if spec.parts[i][0] - spec.parts[j][0] >= 2
            ]
            if pairs:
                return spec, rng.choice(pairs)
    if lemma == "lemma5":
        # Two hubs joined by an edge, each hub's spokes all carrying leaves:
        # diameter exactly 5 with no center pendant.
        while True:
            halves = []
            for _ in range(2):
                k = rng.randint(1, 4)
                halves.append([rng.randint(1, 4) for _ in range(k)])
            n = 2 + sum(len(h) + sum(h) for h in halves)
            if n > max_n:
                continue
            edges = [(0, 1)]
            nxt = 2
            for hub, half in zip((0, 1), halves):
                for leaves in half:
                    spoke = nxt
                    nxt += 1
                    edges.append((hub, spoke))
                    for _ in range(leaves):
                        edges.append((spoke, nxt))
                        nxt += 1
            t = from_edge_list(n, edges)
            d, _ = diameter_and_centers(t)
            if d != 5:
                raise InternalCheckFailed(f"two joined hubs gave diameter {d}, not 5")
            return t, d
    raise UnknownTheorem(f"unknown lemma {lemma!r}")


_TREE_LEMMAS = {
    "lemma1": transforms.lemma1_pendant_shift,
    "lemma2": transforms.lemma2_collapse,
    "lemma5": transforms.lemma5_contract,
}


def run_lemma_battery(trials: int = 1000, max_n: int = 40, seed: int = 0) -> VerificationReport:
    """Apply each transform to random valid inputs and check its delta claim.

    For every trial, the formula delta must be strictly negative and equal
    the independently recomputed reverse-Wiener difference.  The output
    diameter is checked exactly: lemma 1 keeps d, lemmas 2 and 5 give
    d - 2 at even d and d - 1 at odd d, and lemma 5's output also has a
    center pendant.  A lemma-3 input needs two spokes whose leaf counts
    differ by 2, so max_n >= 7.
    """
    if trials < 1:
        raise DomainTooSmall(f"the lemma battery needs at least 1 trial, got {trials}")
    if max_n < 7:
        raise DomainTooSmall(f"the lemma battery draws n up to at least 7, got an upper end of {max_n}")
    start = time.monotonic()
    report = VerificationReport(theorem="lemmas")
    rng = random.Random(seed)
    for lemma in ("lemma1", "lemma2", "lemma3", "lemma5"):
        failures = 0
        for _ in range(trials):
            if lemma == "lemma3":
                spec, (i, j) = random_lemma_input(rng, lemma, max_n)
                out_spec, delta = transforms.lemma3_rebalance(spec, i, j)
                gap = spec.parts[i][0] - spec.parts[j][0]
                recomputed = reverse_wiener(diam4(out_spec)) - reverse_wiener(diam4(spec))
                ok = delta < 0 and delta == recomputed and delta == -2 * (gap - 1)
            else:
                t, d_in = random_lemma_input(rng, lemma, max_n)
                out, delta = _TREE_LEMMAS[lemma](t)
                d_out, centers_out = diameter_and_centers(out)
                ok = delta < 0 and delta == reverse_wiener(out) - reverse_wiener(t)
                ok = ok and d_out == (d_in if lemma == "lemma1" else d_in - 2 + d_in % 2)
                if lemma == "lemma5":
                    ok = ok and has_center_pendant(out, centers_out)
            if not ok:
                failures += 1
        report.records.append(
            Record(
                n=trials,
                claimed_value=0,
                oracle_value=failures,
                claimed_set=(),
                oracle_set=(),
                match=failures == 0,
                note=f"{lemma}: {trials} random valid inputs, n <= {max_n}",
            )
        )
    report.wall_time = time.monotonic() - start
    return report


# --- campaign driver --------------------------------------------------------------


# theorem -> (diameter or None for all trees, claims(n) -> [(rank, claim, note)],
# the note added when a claim's value matches but its attaining set does not).
_CAMPAIGNS = {
    "smallest": (None, lambda n: [(1, _star_claim(n), "")], ""),
    "second-smallest": (None, lambda n: [(2, closed_forms.second_smallest(n), "")], ""),
    "third-smallest": (None, lambda n: [(3, closed_forms.third_smallest(n), "")], ""),
    "prop-d3": (3, _prop_d3_claims, ""),
    "prop-f4": (4, lambda n: [(1, closed_forms.f_n4(n), "")], ""),
    "prop-g4": (
        4,
        lambda n: [(2, closed_forms.g_n4(n), "")],
        "suspected erratum in the published attaining table; oracle is authoritative",
    ),
}


def _worker(args) -> list[Record]:
    """One n of a campaign; its claims go first, so a closed form's DomainTooSmall precedes any oracle error."""
    theorem, n, max_n_free, max_n_diam4 = args
    diameter, claims_of, mismatch_note = _CAMPAIGNS[theorem]
    claims = claims_of(n)
    entries = enumeration.rank_trees(
        n, max(rank for rank, _, _ in claims), diameter, max_n_free=max_n_free, max_n_diam4=max_n_diam4
    )
    return [
        _record(n, claim, entries[rank - 1], note or "; ".join(claim.notes), mismatch_note)
        for rank, claim, note in claims
    ]


def run_verification(
    theorem: str,
    n_from: int,
    n_to: int,
    jobs: int = 1,
    max_n_free: int = enumeration.DEFAULT_MAX_N_FREE,
    max_n_diam4: int = enumeration.DEFAULT_MAX_N_DIAM4,
    trials: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Run one theorem-verification campaign over an n range.

    The argument rules are checked before any work starts, so a campaign
    that checks nothing never passes: ``DomainTooSmall`` for ``jobs`` below
    1, for ``lemmas`` a range the battery cannot draw (and, from the
    battery, ``trials`` below 1 or ``n_to`` below 7), and for every other
    theorem ``n_from`` below 1 or an empty range.  A range that reaches
    past its oracle's resource bound raises ``BoundExceeded`` up front too,
    naming the first n past the bound.
    """
    if theorem not in THEOREM_IDS:
        raise UnknownTheorem(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    if jobs < 1:
        raise DomainTooSmall(f"jobs must be at least 1, got {jobs}")
    if theorem == "lemmas":
        # The battery draws n from 5 up to n_to, and its diameter-4 inputs stop at 40.
        if n_from > 5 or n_to > 40:
            raise DomainTooSmall(f"lemmas draws n from 5 up to at most 40 and cannot cover {n_from}..{n_to}")
        return run_lemma_battery(trials=trials, max_n=n_to, seed=seed)
    if n_from < 1:
        raise DomainTooSmall(f"n must be at least 1, got {n_from}")
    if n_from > n_to:
        raise DomainTooSmall(f"empty n range {n_from}..{n_to}: nothing to verify")
    guard = enumeration.class_bound(_CAMPAIGNS[theorem][0], max_n_free, max_n_diam4)
    if guard is not None and n_to > guard[0]:
        enumeration.check_bound(max(n_from, guard[0] + 1), *guard)
    start = time.monotonic()
    tasks = [(theorem, n, max_n_free, max_n_diam4) for n in range(n_from, n_to + 1)]
    report = VerificationReport(theorem=theorem)
    if jobs > 1 and len(tasks) > 1:
        # Imported here, so a serial run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for recs in pool.map(_worker, tasks):
                report.records.extend(recs)
    else:
        for task in tasks:
            report.records.extend(_worker(task))
    report.wall_time = time.monotonic() - start
    return report
