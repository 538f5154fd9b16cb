"""Property tests: spec strings and canonical codes under generated inputs."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revwiener.errors import InvalidSpec
from revwiener.families import normalize, parse_family_spec
from revwiener.tree import canonical_code, from_edge_list, from_pruefer

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
