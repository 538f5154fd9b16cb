"""Property tests: spec strings, edge lists, codes, invariants and the CLI under generated inputs."""

import contextlib
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revwiener import cli
from revwiener.errors import InvalidSpec
from revwiener.families import normalize, parse_family_spec
from revwiener.invariants import metrics, reverse_wiener, wiener_bfs, wiener_edge_cut
from revwiener.tree import canonical_code, format_edge_list, from_edge_list, from_pruefer, parse_edge_list

raw_parts = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 4)), min_size=1, max_size=6)


@given(st.integers(0, 6), raw_parts)
def test_spec_string_round_trip(n0, parts):
    try:
        spec = normalize(n0, parts)
    except InvalidSpec:
        assume(False)
    assert parse_family_spec(str(spec)) == spec


@st.composite
def labeled_tree_and_permutation(draw):
    n = draw(st.integers(1, 30))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    return from_pruefer(n, seq), draw(st.permutations(range(n)))


@settings(max_examples=200)
@given(labeled_tree_and_permutation())
def test_canonical_code_ignores_labels(case):
    t, perm = case
    relabeled = from_edge_list(t.n, [(perm[u], perm[v]) for u, v in t.edges])
    assert canonical_code(relabeled) == canonical_code(t)


@settings(max_examples=200)
@given(labeled_tree_and_permutation())
def test_edge_list_round_trip(case):
    t, perm = case
    relabeled = from_edge_list(t.n, [(perm[u], perm[v]) for u, v in t.edges])
    assert parse_edge_list(format_edge_list(t)) == t
    assert parse_edge_list(format_edge_list(relabeled)) == relabeled


@settings(max_examples=200)
@given(labeled_tree_and_permutation())
def test_wiener_routes_and_one_pass_agree(case):
    t, _ = case
    assert wiener_edge_cut(t) == wiener_bfs(t)
    assert reverse_wiener(t) == metrics(t).reverse_wiener


# Generated argv stays small (n <= 12, at most 5 trials) so that no call runs
# long; --jobs stays at 1 or below and stdin is left out, and --out only names
# a directory, so that a call spawns and writes nothing.  The tokens "<dir>"
# and "<non-utf8>" stand for a temporary directory and a temporary file that
# is not UTF-8.
small = st.integers(-1, 12).map(str)
fmt = st.one_of(st.just([]), st.sampled_from(["human", "structured", "tabular"]).map(lambda f: ["--format", f]))


def _argv(*parts):
    """argv from fixed tokens and strategies, then an optional --format."""
    parts = [p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts]
    return st.tuples(*parts, fmt).map(lambda drawn: [*drawn[:-1], *drawn[-1]])


n_range = st.one_of(
    st.tuples(st.just("--n"), small),
    st.tuples(st.just("--n-from"), small, st.just("--n-to"), small),
).map(list)
specs = st.sampled_from(["D(6,3)", "D(9,1)", "D(12,6)", "T(2^3)", "T(n0=1; 1^2, 3)", "T(", "X(2)", ""])
theorems = st.sampled_from(["smallest", "second-smallest", "third-smallest", "prop-d3", "prop-f4", "prop-g4", "lemmas"])

argv_strategy = st.one_of(
    _argv("rank", "--n", small, "--k", st.integers(-1, 5).map(str)),
    _argv("enumerate", "--n", small, st.sampled_from(["--diameter", "--max-n-free"]), small),
    _argv("closed-form", st.sampled_from(["f2", "f3", "g3", "f4", "g4", "second", "third", "f9"]), "--n", small),
    _argv("construct", specs),
    _argv("construct", specs, "--out", "<dir>"),
    _argv("stats", st.sampled_from(["no-such-file.txt", "<dir>", "<non-utf8>"])),
    _argv(
        "verify", theorems, n_range, "--trials", st.integers(-1, 5).map(str), "--seed", st.integers(0, 3).map(str),
        "--jobs", st.sampled_from(["-1", "0", "1"]),
    ).map(lambda argv: [*argv[:2], *argv[2], *argv[3:]]),
    st.lists(st.sampled_from(["verify", "rank", "lemmas", "--n", "--k", "3", "-1", "x", "--help"]), max_size=5),
)


@pytest.fixture(scope="module")
def unusable_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("unusable")
    binary = root / "tree.bin"
    binary.write_bytes(b"\xff\xfe5\n0 1\n")
    return {"<dir>": str(root), "<non-utf8>": str(binary)}


@settings(max_examples=150, deadline=None)
@given(argv_strategy)
def test_cli_returns_a_documented_exit_code(unusable_paths, argv):
    # Exit 4 marks an internal error, which is a bug, so only 0..3 may occur.
    argv = [unusable_paths.get(token, token) for token in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    # n <= 12 is within every default bound, so exit 3 needs a lowered --max-n-free;
    # an argument fault must end in exit 2, not pass for a bound.
    assert code != 3 or "--max-n-free" in argv
