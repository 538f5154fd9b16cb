"""Command-line surface: stats, construct, enumerate, rank, closed-form, verify.

The CLI parses arguments, maps the library's exceptions to exit codes and
owns every rendering.  Each subcommand states its result once per format
(a JSON payload, TSV rows, text lines) and ``_render`` builds and writes
only the one ``--format`` names; ``construct`` always writes an edge list.

Exit codes: 0 all good / all records match, 1 verification mismatch,
2 usage or parse error, 3 resource bound exceeded, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import closed_forms, enumeration, verify
from .errors import BoundExceeded, InternalCheckFailed, RevWienerError, SpecParseError, UnusablePath
from .families import build, diam4, parse_family_spec
from .invariants import metrics
from .tree import format_edge_list, parse_edge_list

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4

MAX_MEM_ENV = "REVWIENER_MAX_MEM"


def _tie_cap_from_env(k: int) -> int:
    """Approximate per-bucket tie cap from a byte budget in REVWIENER_MAX_MEM."""
    raw = os.environ.get(MAX_MEM_ENV)
    if not raw:
        return enumeration.DEFAULT_TIE_CAP
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise SpecParseError(f"{MAX_MEM_ENV} must be a nonnegative integer byte count, got {raw!r}")
    # A kept tree costs on the order of 256 bytes: one level sequence while
    # the walk runs, one canonical code once it ends, for the kept trees
    # only.  Split the budget evenly across the k value buckets.
    return max(1, budget // (max(1, k) * 256))


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UnusablePath(f"cannot write {out}: {exc}") from exc


def _read_tree(path: str):
    # A directory, a missing file or bytes that are not UTF-8 are usage errors.
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UnusablePath(f"cannot read {path}: {exc}") from exc
    return parse_edge_list(text)


def _render(args, structured, tabular, human) -> None:
    """Build the one representation ``--format`` names and write it.

    Each argument builds a representation when called, so the formats not
    asked for cost nothing: ``structured`` returns a JSON payload,
    ``tabular`` TSV rows (sequences of cells), ``human`` text lines.
    """
    if args.format == "structured":
        text = json.dumps(structured(), indent=2) + "\n"
    elif args.format == "tabular":
        text = "\n".join("\t".join(map(str, row)) for row in tabular()) + "\n"
    else:
        text = "\n".join(human()) + "\n"
    _emit(text, args.out)


def cmd_stats(args) -> int:
    m = metrics(_read_tree(args.input))
    fields = {"n": m.n, "wiener": m.wiener, "diameter": m.diameter, "reverse_wiener": m.reverse_wiener}
    _render(
        args,
        # The JSON keys stay in sorted order, the other formats in field order.
        lambda: dict(sorted({**fields, "centers": list(m.centers)}.items())),
        lambda: [(*fields, "centers"), (*fields.values(), ",".join(map(str, m.centers)))],
        lambda: [*(f"{k} = {v}" for k, v in fields.items()), "centers = " + ", ".join(map(str, m.centers))],
    )
    return EXIT_OK


def cmd_construct(args) -> int:
    spec = parse_family_spec(args.spec)
    _emit(format_edge_list(build(spec)), args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    n = args.n
    if args.diameter == 4 and n > args.max_n_free:
        enumeration.check_class(n, 4, enumeration.class_bound(4))
        trees = (diam4(s) for s in enumeration.gen_diam4_specs(n))
    else:
        trees = enumeration.gen_free_trees(n, max_n=args.max_n_free, diameter=args.diameter)
    lines = (" ".join(f"{u}-{v}" for u, v in t.edges) for t in trees)

    def structured():
        listed = [{"n": t.n, "edges": [list(e) for e in t.edges]} for t in trees]
        return {"count": len(listed), "trees": listed}

    def human():
        listed = list(lines)
        return [*listed, f"total: {len(listed)}"]

    _render(args, structured, lambda: ((line,) for line in lines), human)
    return EXIT_OK


def cmd_rank(args) -> int:
    entries = enumeration.rank_trees(
        args.n, args.k, max_n_free=args.max_n_free, tie_cap=_tie_cap_from_env(args.k)
    )
    ranked = list(enumerate(entries, start=1))
    _render(
        args,
        lambda: {
            "n": args.n,
            "k": args.k,
            "entries": [{"value": e.value, "trees": list(e.trees), "truncated": e.truncated} for e in entries],
        },
        lambda: [
            ("rank", "value", "ties", "truncated"),
            *((i, e.value, len(e.trees), int(e.truncated)) for i, e in ranked),
        ],
        lambda: [
            f"#{i}: value {e.value}, {len(e.trees)} tree(s)" + (" (tie set truncated)" if e.truncated else "")
            for i, e in ranked
        ],
    )
    return EXIT_OK


_CLOSED_FORMS = {
    "f2": lambda n: closed_forms.ExtremalResult(closed_forms.f_n2(n), ()),
    "f3": lambda n: closed_forms.ExtremalResult(closed_forms.f_n3(n), ()),
    "g3": lambda n: closed_forms.ExtremalResult(closed_forms.g_n3(n), ()),
    "f4": lambda n: closed_forms.f_n4(n),
    "g4": lambda n: closed_forms.g_n4(n),
    "second": lambda n: closed_forms.second_smallest(n),
    "third": lambda n: closed_forms.third_smallest(n),
}


def cmd_closed_form(args) -> int:
    result = _CLOSED_FORMS[args.which](args.n)
    # The attaining trees as their family specs, in a fixed order.
    attaining = sorted(str(item) for item in result.attaining)
    _render(
        args,
        lambda: {
            "which": args.which,
            "n": args.n,
            "value": result.value,
            "attaining": attaining,
            "notes": list(result.notes),
        },
        lambda: [
            ("which", "n", "value", "attaining", "notes"),
            (args.which, args.n, result.value, "|".join(attaining), "|".join(result.notes)),
        ],
        lambda: [
            f"{args.which}({args.n}) = {result.value}",
            *(["attaining: " + ", ".join(attaining)] if attaining else []),
            *(f"note: {note}" for note in result.notes),
        ],
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n is not None:
        if args.n_from is not None or args.n_to is not None:
            raise SpecParseError("verify takes --n or --n-from/--n-to, not both")
        n_from = n_to = args.n
    elif args.n_from is not None and args.n_to is not None:
        n_from, n_to = args.n_from, args.n_to
    elif args.theorem == "lemmas":
        # A missing end is the battery's own: n from 5 up to 40.
        n_from = 5 if args.n_from is None else args.n_from
        n_to = 40 if args.n_to is None else args.n_to
    else:
        raise SpecParseError("verify needs --n or both --n-from and --n-to")
    report = verify.run_verification(
        args.theorem,
        n_from,
        n_to,
        jobs=args.jobs,
        max_n_free=args.max_n_free,
        max_n_diam4=args.max_n_diam4,
        trials=args.trials,
        seed=args.seed,
    )
    _render(
        args,
        lambda: {**report.to_dict(), "wall_time": round(report.wall_time, 6)},
        lambda: [
            ("theorem", "n", "claimed_value", "oracle_value", "claimed_set", "oracle_set", "match", "note"),
            *(
                (report.theorem, r.n, r.claimed_value, r.oracle_value,
                 "|".join(r.claimed_set), "|".join(r.oracle_set), int(r.match), r.note)
                for r in report.records
            ),
        ],
        lambda: [
            f"theorem: {report.theorem}",
            *(
                f"  n={r.n}: {'PASS' if r.match else 'FAIL'} claimed={r.claimed_value} oracle={r.oracle_value}"
                + (f"  [{r.note}]" if r.note else "")
                for r in report.records
            ),
            f"summary: checked={report.checked} passed={report.passed} "
            f"failed={report.failed} wall_time={report.wall_time:.2f}s",
        ],
    )
    return EXIT_OK if report.all_match else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revwiener",
        description="Exact reverse-Wiener indices of trees, extremal families and "
        "brute-force verification of their characterizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("human", "structured", "tabular"), default="human")
        p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("stats", help="metrics of a tree given as an edge-list file ('-' = stdin)")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("construct", help="materialize a family spec, e.g. D(6,3) or T(2^3)")
    p.add_argument("spec")
    add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="stream all trees on n vertices, one per class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diameter", type=int, default=None)
    p.add_argument("--max-n-free", type=int, default=enumeration.DEFAULT_MAX_N_FREE)
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("rank", help="k smallest reverse-Wiener values with tie sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-n-free", type=int, default=enumeration.DEFAULT_MAX_N_FREE)
    add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("closed-form", help="evaluate a closed form at n")
    p.add_argument("which", choices=sorted(_CLOSED_FORMS))
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("verify", help="run a theorem-verification campaign")
    p.add_argument("theorem", choices=verify.THEOREM_IDS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-from", type=int, default=None)
    p.add_argument("--n-to", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--trials", type=int, default=1000, help="lemma battery trial count")
    p.add_argument("--seed", type=int, default=0, help="lemma battery RNG seed")
    p.add_argument("--max-n-free", type=int, default=enumeration.DEFAULT_MAX_N_FREE)
    p.add_argument("--max-n-diam4", type=int, default=enumeration.DEFAULT_MAX_N_DIAM4)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InternalCheckFailed as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RevWienerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
