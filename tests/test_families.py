"""Family constructions, their closed forms, normalization and the spec grammar."""

import pytest

from revwiener.errors import DomainTooSmall, InvalidSpec, SpecParseError
from revwiener.families import (
    MAX_BUILD_N,
    Diam4Spec,
    DoubleStarSpec,
    build,
    diam4,
    double_star,
    lambda_diam4_closed,
    lambda_double_star_closed,
    normalize,
    parse_family_spec,
    path,
    star,
    wiener_diam4_closed,
)
from revwiener.invariants import reverse_wiener, wiener_edge_cut
from revwiener.tree import canonical_code, diameter_and_centers


class TestBasicFamilies:
    def test_star_shape(self):
        t = star(6)
        assert t.degree(0) == 5 and diameter_and_centers(t) == (2, [0])

    def test_path_shape(self):
        t = path(6)
        assert diameter_and_centers(t)[0] == 5


class TestDoubleStar:
    def test_spec_validation(self):
        DoubleStarSpec(n=6, a=3)
        with pytest.raises(InvalidSpec):
            DoubleStarSpec(n=6, a=1)
        with pytest.raises(InvalidSpec):
            DoubleStarSpec(n=6, a=4)  # a > n/2

    def test_shape(self):
        spec = DoubleStarSpec(n=7, a=3)
        t = double_star(spec)
        assert t.n == 7
        assert diameter_and_centers(t) == (3, [0, 1])
        assert t.degree(0) == 4 and t.degree(1) == 3

    @pytest.mark.parametrize("n", range(4, 16))
    def test_closed_form_matches_tree(self, n):
        for a in range(2, n // 2 + 1):
            spec = DoubleStarSpec(n=n, a=a)
            assert lambda_double_star_closed(spec) == reverse_wiener(double_star(spec))


class TestDiam4Spec:
    def test_counts(self):
        spec = Diam4Spec(n0=1, parts=((1, 2), (3, 1)))
        assert spec.k == 3 and spec.s == 2
        assert spec.n == 1 + 3 + 1 + (1 * 2 + 3 * 1)
        assert spec.spoke_values() == [1, 1, 3]

    @pytest.mark.parametrize(
        "n0, parts",
        [
            (-1, ((1, 2),)),  # negative pendants
            (0, ((1, 1),)),  # k < 2
            (0, ((0, 2),)),  # zero-leaf spoke must be folded first
            (0, ((2, 1), (1, 1))),  # values not increasing
            (0, ((1, 0), (2, 2))),  # zero multiplicity
        ],
    )
    def test_validation(self, n0, parts):
        with pytest.raises(InvalidSpec):
            Diam4Spec(n0=n0, parts=parts)

    @pytest.mark.parametrize(
        "n0, parts, message",
        [
            (-1, ((1, 2),), "n0 must be nonnegative, got -1"),
            (0, ((1, 1),), "need k >= 2 spokes, got k=1"),
            (0, (), "need k >= 2 spokes, got k=0"),
            (0, ((0, 2),), "part value must be >= 1, got 0"),
            (0, ((-1, 3),), "part value must be >= 1, got -1"),
            (0, ((1, 0), (2, 2)), "part multiplicity must be >= 1, got 0"),
            (0, ((2, 1), (1, 1)), "part values must be strictly increasing: ((2, 1), (1, 1))"),
            (0, ((2, 1), (2, 1)), "part values must be strictly increasing: ((2, 1), (2, 1))"),
            # Several faults at once: n0 first, then k, then part by part.
            (-2, ((1, 1),), "n0 must be nonnegative, got -2"),
            (-1, ((0, 0),), "n0 must be nonnegative, got -1"),
            (0, ((0, 1), (2, -1)), "need k >= 2 spokes, got k=0"),
            (0, ((1, 2), (1, -1)), "need k >= 2 spokes, got k=1"),
            (0, ((0, 0), (1, 3)), "part value must be >= 1, got 0"),
            (0, ((2, 1), (0, 1)), "part value must be >= 1, got 0"),
            (0, ((2, 0), (1, 3)), "part multiplicity must be >= 1, got 0"),
            (0, ((1, 0), (0, 3)), "part multiplicity must be >= 1, got 0"),
            (0, ((3, 1), (2, 1), (0, 1)), "part values must be strictly increasing: ((3, 1), (2, 1), (0, 1))"),
            (0, ((1, 1), (3, 2), (2, 0)), "part multiplicity must be >= 1, got 0"),
        ],
    )
    def test_validation_message(self, n0, parts, message):
        with pytest.raises(InvalidSpec) as exc:
            Diam4Spec(n0=n0, parts=parts)
        assert str(exc.value) == message

    def test_str(self):
        assert str(Diam4Spec(n0=0, parts=((2, 3),))) == "T(2^3)"
        assert str(Diam4Spec(n0=1, parts=((1, 2), (3, 1)))) == "T(n0=1; 1^2, 3)"

    def test_tree_shape(self):
        spec = Diam4Spec(n0=2, parts=((1, 2), (2, 1)))
        t = diam4(spec)
        assert t.n == spec.n
        assert diameter_and_centers(t) == (4, [0])
        assert t.degree(0) == spec.k + spec.n0

    @pytest.mark.parametrize(
        "spec",
        [
            Diam4Spec(n0=0, parts=((1, 2),)),
            Diam4Spec(n0=0, parts=((2, 3),)),
            Diam4Spec(n0=3, parts=((1, 1), (4, 2))),
            Diam4Spec(n0=0, parts=((6, 8),)),
            Diam4Spec(n0=0, parts=((7, 7),)),
        ],
    )
    def test_closed_forms_match_tree(self, spec):
        t = diam4(spec)
        assert wiener_diam4_closed(spec) == wiener_edge_cut(t)
        assert lambda_diam4_closed(spec) == reverse_wiener(t)


class TestNormalize:
    def test_zero_values_fold_into_pendants(self):
        spec = normalize(1, [(0, 2), (2, 1), (1, 1), (2, 1)])
        assert spec == Diam4Spec(n0=3, parts=((1, 1), (2, 2)))

    def test_zero_multiplicity_dropped(self):
        assert normalize(0, [(3, 0), (1, 2)]) == Diam4Spec(n0=0, parts=((1, 2),))

    def test_negative_entries_flagged(self):
        with pytest.raises(InvalidSpec):
            normalize(0, [(1, -1), (2, 3)])
        with pytest.raises(InvalidSpec):
            normalize(0, [(-1, 1), (2, 3)])


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("D(6,3)", DoubleStarSpec(n=6, a=3)),
            ("D( 10 , 4 )", DoubleStarSpec(n=10, a=4)),
            ("T(2^3)", Diam4Spec(n0=0, parts=((2, 3),))),
            ("T(n0=1; 1^2)", Diam4Spec(n0=1, parts=((1, 2),))),
            ("T(1, 3^2)", Diam4Spec(n0=0, parts=((1, 1), (3, 2)))),
            ("T(0^2, 1^2)", Diam4Spec(n0=2, parts=((1, 2),))),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_family_spec(text) == expected

    def test_round_trip_through_str(self):
        for text in ("D(9,4)", "T(2^3)", "T(n0=2; 1, 4^2)"):
            spec = parse_family_spec(text)
            assert parse_family_spec(str(spec)) == spec

    @pytest.mark.parametrize(
        "text",
        ["", "X(1,2)", "T()", "T(a^2)", "T(n=1; 2^2)", "T(2^)", "D(6)", "T(n0=x; 1^2)"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(SpecParseError):
            parse_family_spec(text)

    def test_parse_invalid_spec_values(self):
        with pytest.raises(InvalidSpec):
            parse_family_spec("D(6,1)")
        with pytest.raises(InvalidSpec):
            parse_family_spec("T(3)")  # only one spoke


class TestBuild:
    def test_dispatch(self):
        assert build(DoubleStarSpec(n=6, a=3)).n == 6
        assert build(Diam4Spec(n0=0, parts=((1, 2),))).n == 5

    def test_deterministic_output(self):
        spec = parse_family_spec("T(n0=1; 2^2)")
        assert build(spec).edges == build(spec).edges

    def test_size_limit(self, monkeypatch):
        # The limit itself builds; one vertex more is refused before any edge is made.
        monkeypatch.setattr("revwiener.families.double_star", lambda spec: spec.n)
        assert build(DoubleStarSpec(n=MAX_BUILD_N, a=2)) == MAX_BUILD_N
        with pytest.raises(DomainTooSmall, match=f"n={MAX_BUILD_N + 1} exceeds"):
            build(DoubleStarSpec(n=MAX_BUILD_N + 1, a=2))

    def test_p4_is_both_a_double_star_and_a_path(self):
        assert canonical_code(build(DoubleStarSpec(n=4, a=2))) == canonical_code(path(4))
