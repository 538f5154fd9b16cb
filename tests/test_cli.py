"""The command-line surface: subcommands, formats, files and exit codes."""

import io
import json
import re

import pytest

from revwiener.cli import EXIT_BOUND, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from revwiener.enumeration import gen_diam4_specs, gen_free_trees, rank_trees
from revwiener.errors import DomainTooSmall
from revwiener.verify import run_verification


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_human(self, capsys, tmp_path):
        tree_file = tmp_path / "p5.txt"
        tree_file.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
        code, out, _ = run(capsys, "stats", str(tree_file))
        assert code == EXIT_OK
        assert "reverse_wiener = 20" in out
        assert "diameter = 4" in out

    def test_structured(self, capsys, tmp_path):
        tree_file = tmp_path / "s4.txt"
        tree_file.write_text("4\n0 1\n0 2\n0 3\n")
        code, out, _ = run(capsys, "stats", str(tree_file), "--format", "structured")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {
            "n": 4,
            "wiener": 9,
            "diameter": 2,
            "reverse_wiener": 3,
            "centers": [0],
        }

    def test_tabular(self, capsys, tmp_path):
        tree_file = tmp_path / "p4.txt"
        tree_file.write_text("4\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "stats", str(tree_file), "--format", "tabular")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header.split("\t") == ["n", "wiener", "diameter", "reverse_wiener", "centers"]
        assert row.split("\t") == ["4", "10", "3", "8", "1,2"]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n0 1\n"))
        code, out, _ = run(capsys, "stats", "-")
        assert code == EXIT_OK and "n = 2" in out

    def test_parse_error_is_usage(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a tree\n")
        code, _, err = run(capsys, "stats", str(bad))
        assert code == EXIT_USAGE and "error:" in err

    def test_missing_file_is_usage(self, capsys):
        code, _, err = run(capsys, "stats", "/no/such/file")
        assert code == EXIT_USAGE and "error:" in err

    def test_directory_is_usage(self, capsys, tmp_path):
        code, out, err = run(capsys, "stats", str(tmp_path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: cannot read {tmp_path}:") and err.count("\n") == 1

    def test_non_utf8_file_is_usage(self, capsys, tmp_path):
        binary = tmp_path / "tree.bin"
        binary.write_bytes(b"\xff\xfe5\n0 1\n")
        code, out, err = run(capsys, "stats", str(binary))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: cannot read {binary}:") and err.count("\n") == 1


class TestConstruct:
    def test_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "tree.txt"
        code, _, _ = run(capsys, "construct", "D(6,3)", "--out", str(out_file))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "stats", str(out_file))
        assert code == EXIT_OK and "n = 6" in out and "diameter = 3" in out

    def test_diam4_spec(self, capsys):
        code, out, _ = run(capsys, "construct", "T(n0=1; 2^2)")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "8"

    def test_bad_spec_is_usage(self, capsys):
        for spec in ("X(1)", "D(6,1)", "T(3)"):
            code, _, err = run(capsys, "construct", spec)
            assert code == EXIT_USAGE and "error:" in err

    @pytest.mark.parametrize("spec, n", [("T(99999999999999^2)", 200000000000001), ("D(1000001,2)", 1000001)])
    def test_spec_past_the_size_limit_is_usage(self, capsys, monkeypatch, spec, n):
        def builder(spec):
            raise AssertionError("a tree past the size limit was built")

        monkeypatch.setattr("revwiener.families.diam4", builder)
        monkeypatch.setattr("revwiener.families.double_star", builder)
        code, out, err = run(capsys, "construct", spec)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: n={n} exceeds the construction limit 1000000\n"

    def test_out_directory_is_usage(self, capsys, tmp_path):
        code, out, err = run(capsys, "construct", "D(6,3)", "--out", str(tmp_path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: cannot write {tmp_path}:") and err.count("\n") == 1


class TestEnumerate:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "7")
        assert code == EXIT_OK
        assert out.strip().splitlines()[-1] == "total: 11"

    def test_diameter_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6", "--diameter", "3", "--format", "structured")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["count"] == 2  # D(6,2) and D(6,3)

    def test_diam4_spec_route_beyond_free_bound(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "25", "--diameter", "4", "--format", "structured"
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["count"] > 0
        assert all(len(t["edges"]) == 24 for t in payload["trees"])

    def test_bound_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "25")
        assert code == EXIT_BOUND and "error:" in err

    def test_diam4_spec_route_has_the_diameter_4_bound(self, capsys, monkeypatch):
        def walk(n):
            raise AssertionError("the diameter-4 walk ran past its bound")

        monkeypatch.setattr("revwiener.enumeration._diam4_classes", walk)
        code, out, err = run(capsys, "enumerate", "--n", "81", "--diameter", "4")
        assert code == EXIT_BOUND and out == ""
        assert err == "error: n=81 exceeds diameter-4 bound 80\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_is_usage(self, capsys, n):
        code, out, err = run(capsys, "enumerate", "--n", n)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--n", "5", "--diameter", "9"],
        ["--n", "6", "--diameter", "1"],
        ["--n", "5", "--diameter", "-1"],
        # The diameter-4 spec route past the free-tree bound keeps the same rule.
        ["--n", "3", "--diameter", "4", "--max-n-free", "2"],
        # The class rule comes before the bound.
        ["--n", "30", "--diameter", "40"],
    ])
    def test_diameter_that_no_tree_has_is_usage(self, capsys, argv):
        n, d = int(argv[1]), int(argv[3])
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: no tree on {n} vertices has diameter {d}\n"

    def test_structured_text_in_several_batches(self, capsys, tmp_path):
        # At n = 13 the JSON encoder yields about 95,000 chunks, more than one batch.
        code, out, _ = run(capsys, "enumerate", "--n", "13", "--format", "structured")
        assert code == EXIT_OK and out == json.dumps(json.loads(out), indent=2) + "\n"
        out_file = tmp_path / "trees.json"
        assert run(capsys, "enumerate", "--n", "13", "--format", "structured", "--out", str(out_file))[0] == EXIT_OK
        assert out_file.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("n, d", [(1, 0), (2, 1)])
    def test_diameter_of_the_smallest_trees(self, capsys, n, d):
        code, out, _ = run(capsys, "enumerate", "--n", str(n), "--diameter", str(d), "--format", "structured")
        assert code == EXIT_OK and json.loads(out)["count"] == 1


class TestRank:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "8", "--k", "2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("#1: value 7, 1 tree(s)")

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "8", "--k", "2", "--format", "structured")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert [e["value"] for e in payload["entries"]] == [7, 26]

    def test_tabular(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "8", "--k", "1", "--format", "tabular")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "rank\tvalue\tties\ttruncated"

    def test_mem_budget_caps_tie_sets(self, capsys, monkeypatch):
        monkeypatch.setenv("REVWIENER_MAX_MEM", "600")
        code, out, _ = run(capsys, "rank", "--n", "10", "--k", "2", "--format", "structured")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(len(e["trees"]) <= 1 for e in payload["entries"])

    def test_bad_mem_budget_is_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("REVWIENER_MAX_MEM", "lots")
        code, _, err = run(capsys, "rank", "--n", "8", "--k", "1")
        assert code == EXIT_USAGE and "error:" in err

    @pytest.mark.parametrize("budget", ["-1", "-4096"])
    def test_negative_mem_budget_is_usage(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("REVWIENER_MAX_MEM", budget)
        code, out, err = run(capsys, "rank", "--n", "8", "--k", "1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and "must be a nonnegative integer byte count" in err

    def test_zero_mem_budget_keeps_one_tree_per_value(self, capsys, monkeypatch):
        monkeypatch.setenv("REVWIENER_MAX_MEM", "0")
        code, out, _ = run(capsys, "rank", "--n", "10", "--k", "2", "--format", "structured")
        assert code == EXIT_OK
        assert all(len(e["trees"]) == 1 for e in json.loads(out)["entries"])

    def test_bound_exceeded(self, capsys):
        code, _, _ = run(capsys, "rank", "--n", "30", "--k", "1")
        assert code == EXIT_BOUND

    @pytest.mark.parametrize("n, k", [("5", "0"), ("5", "-1"), ("0", "3"), ("-2", "3")])
    def test_nonpositive_n_or_k_is_usage(self, capsys, n, k):
        code, out, err = run(capsys, "rank", "--n", n, "--k", k)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestClosedForm:
    def test_plain_value(self, capsys):
        code, out, _ = run(capsys, "closed-form", "f3", "--n", "57")
        assert code == EXIT_OK and "f3(57) = 896" in out

    def test_structured_with_attaining(self, capsys):
        code, out, _ = run(capsys, "closed-form", "second", "--n", "57", "--format", "structured")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["value"] == 896
        assert sorted(payload["attaining"]) == ["D(57,28)", "T(6^8)", "T(7^7)"]

    def test_domain_error_is_usage(self, capsys):
        code, _, err = run(capsys, "closed-form", "g4", "--n", "4")
        assert code == EXIT_USAGE and "error:" in err


class TestVerify:
    def test_pass_is_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "prop-d3", "--n-from", "4", "--n-to", "10")
        assert code == EXIT_OK
        assert "failed=0" in out

    def test_set_mismatch_is_exit_one(self, capsys):
        # The published second-minimum table misses one attaining tree at n=9.
        code, out, _ = run(capsys, "verify", "prop-g4", "--n", "9")
        assert code == EXIT_MISMATCH
        assert "FAIL" in out

    def test_structured_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "smallest", "--n-from", "4", "--n-to", "8",
            "--format", "structured",
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["schema_version"] == "revwiener-report/1"
        assert payload["summary"]["failed"] == 0

    def test_tabular_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "prop-f4", "--n", "10", "--format", "tabular"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("theorem\tn\t")

    def test_lemmas_default_range(self, capsys):
        code, out, _ = run(capsys, "verify", "lemmas", "--trials", "5")
        assert code == EXIT_OK

    def test_missing_range_is_usage(self, capsys):
        code, _, err = run(capsys, "verify", "prop-f4")
        assert code == EXIT_USAGE and "error:" in err

    @pytest.mark.parametrize("span", [["--n-from", "1", "--n-to", "3"], ["--n-from", "1"], ["--n-to", "3"]])
    def test_n_with_a_range_flag_is_usage(self, capsys, span):
        # --n alone names the range; a range flag beside it would be ignored.
        code, out, err = run(capsys, "verify", "smallest", "--n", "5", *span)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: verify takes --n or --n-from/--n-to, not both\n"

    @pytest.mark.parametrize("theorem", ["smallest", "prop-d3", "prop-f4"])
    def test_empty_range_is_usage(self, capsys, theorem):
        # A campaign that checks nothing must not pass.
        code, out, err = run(capsys, "verify", theorem, "--n-from", "10", "--n-to", "5")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "theorem, span",
        [
            ("smallest", ["--n", "0"]),
            ("smallest", ["--n", "-1"]),
            ("second-smallest", ["--n", "0"]),
            ("third-smallest", ["--n", "-1"]),
            ("smallest", ["--n-from", "0", "--n-to", "5"]),
            ("third-smallest", ["--n-from", "-2", "--n-to", "5"]),
        ],
    )
    def test_nonpositive_n_is_usage(self, capsys, theorem, span):
        # A usage error, as for rank --n 0; not the bound error of the free-tree oracle.
        code, out, err = run(capsys, "verify", theorem, *span)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: n must be at least 1, got {span[1]}\n"

    @pytest.mark.parametrize(
        "span",
        [["--n", "6"], ["--n", "5"], ["--n", "4"], ["--n", "0"], ["--n-from", "10", "--n-to", "5"]],
    )
    def test_lemmas_below_seven_is_usage(self, capsys, span):
        # A lemma-3 input needs n >= 7; below that the sampler never returns.
        code, out, err = run(capsys, "verify", "lemmas", *span, "--trials", "5")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "span",
        [
            ["--n-from", "6", "--n-to", "40"],
            ["--n-from", "30", "--n-to", "40"],
            ["--n-from", "5", "--n-to", "41"],
            ["--n", "7"],
            ["--n", "60"],
        ],
    )
    def test_lemmas_range_it_cannot_draw_is_usage(self, capsys, span):
        # The battery draws n from 5 up, and its diameter-4 inputs stop at n = 40.
        code, out, err = run(capsys, "verify", "lemmas", *span, "--trials", "5")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("span", [["--n-to", "6"], ["--n-to", "99"], ["--n-from", "30"]])
    def test_lemmas_lone_end_it_cannot_draw_is_usage(self, capsys, span):
        # The missing end is filled in from 5..40, so the range checks still apply.
        code, out, err = run(capsys, "verify", "lemmas", *span, "--trials", "5")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_lemmas_lone_upper_end_sets_the_largest_n(self, capsys):
        code, out, err = run(capsys, "verify", "lemmas", "--n-to", "20", "--trials", "5", "--format", "structured")
        assert code == EXIT_OK and err == ""
        notes = [r["note"] for r in json.loads(out)["records"]]
        assert notes == [f"{lemma}: 5 random valid inputs, n <= 20" for lemma in ("lemma1", "lemma2", "lemma3", "lemma5")]

    @pytest.mark.parametrize("span", [["--n-from", "5", "--n-to", "40"], ["--n-from", "1", "--n-to", "12"]])
    def test_lemmas_range_it_can_draw(self, capsys, span):
        code, _, err = run(capsys, "verify", "lemmas", *span, "--trials", "5")
        assert code == EXIT_OK and err == ""

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_lemmas_without_trials_is_usage(self, capsys, trials):
        # A campaign that checks nothing must not pass.
        code, out, err = run(capsys, "verify", "lemmas", "--trials", trials)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [["prop-d3", "--n", "8"], ["lemmas", "--n-to", "20", "--trials", "5"]])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage(self, capsys, args, jobs):
        code, out, err = run(capsys, "verify", *args, "--jobs", jobs)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: jobs must be at least 1, got {jobs}\n"

    def test_jobs_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "second-smallest", "--n-from", "4", "--n-to", "10",
            "--jobs", "2",
        )
        assert code == EXIT_OK


# Bad argv and the library call it comes down to.  Each rule lives in the
# library alone, so the CLI's message must be the library's word for word.
ARGUMENT_RULES = [
    (["enumerate", "--n", "0"], lambda: list(gen_free_trees(0))),
    (["enumerate", "--n", "0", "--diameter", "4", "--max-n-free", "-1"], lambda: list(gen_diam4_specs(0))),
    (["rank", "--n", "0", "--k", "3"], lambda: rank_trees(0, 3)),
    (["rank", "--n", "5", "--k", "0"], lambda: rank_trees(5, 0)),
    (["verify", "prop-d3", "--n", "8", "--jobs", "0"], lambda: run_verification("prop-d3", 8, 8, jobs=0)),
    (["verify", "smallest", "--n", "0"], lambda: run_verification("smallest", 0, 0)),
    (["verify", "prop-f4", "--n-from", "10", "--n-to", "5"], lambda: run_verification("prop-f4", 10, 5)),
    (["verify", "lemmas", "--trials", "0"], lambda: run_verification("lemmas", 5, 40, trials=0)),
    (["verify", "lemmas", "--n", "6"], lambda: run_verification("lemmas", 6, 6)),
    (["verify", "lemmas", "--n-to", "41"], lambda: run_verification("lemmas", 5, 41)),
    (["verify", "lemmas", "--n-to", "6"], lambda: run_verification("lemmas", 5, 6)),
]


@pytest.mark.parametrize("argv, call", ARGUMENT_RULES, ids=[" ".join(argv) for argv, _ in ARGUMENT_RULES])
def test_argument_rules_come_from_the_library(capsys, argv, call):
    with pytest.raises(DomainTooSmall) as exc:
        call()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {exc.value}\n"


# The exact bytes of every (subcommand, format) pair on one small input each.
# "P4" in an argv stands for a file holding the path on four vertices.
FORMATS = ("human", "structured", "tabular")
D_6_3 = "6\n0 1\n0 2\n0 3\n1 4\n1 5\n"
ENUM_5 = ["0-1 1-2 0-3 3-4", "0-1 1-2 0-3 0-4", "0-1 0-2 0-3 0-4"]
ENUM_6_D3 = ["0-1 1-2 1-3 0-4 0-5", "0-1 1-2 0-3 0-4 0-5"]
G4_9_NOTE = "claimed spec (n0=0, parts=[(0, 1), (1, -1), (2, 3)]) invalid: negative entry in raw parts: (1, -1)"
F4_10 = "((()())(()())(()()))"
WALL_TIME = re.compile(r'(wall_time"?[=:] ?)[0-9.e+-]+s?')


def _json(payload):
    return json.dumps(payload, indent=2) + "\n"


def _listing(argv, n, lines):
    """Every format of an enumerate run whose trees print as ``lines``."""
    trees = [{"n": n, "edges": [[int(v) for v in e.split("-")] for e in line.split()]} for line in lines]
    text = "\n".join(lines) + "\n"
    return [
        (argv, "human", f"{text}total: {len(lines)}\n"),
        (argv, "structured", _json({"count": len(trees), "trees": trees})),
        (argv, "tabular", text),
    ]


EXACT_OUTPUT = [
    (["stats", "P4"], "human", "n = 4\nwiener = 10\ndiameter = 3\nreverse_wiener = 8\ncenters = 1, 2\n"),
    (["stats", "P4"], "structured", _json({"centers": [1, 2], "diameter": 3, "n": 4, "reverse_wiener": 8, "wiener": 10})),
    (["stats", "P4"], "tabular", "n\twiener\tdiameter\treverse_wiener\tcenters\n4\t10\t3\t8\t1,2\n"),
    # construct writes the edge-list format whatever --format says.
    *((["construct", "D(6,3)"], fmt, D_6_3) for fmt in FORMATS),
    *_listing(["enumerate", "--n", "5"], 5, ENUM_5),
    *_listing(["enumerate", "--n", "6", "--diameter", "3"], 6, ENUM_6_D3),
    (["rank", "--n", "8", "--k", "2"], "human", "#1: value 7, 1 tree(s)\n#2: value 26, 1 tree(s)\n"),
    (["rank", "--n", "8", "--k", "2"], "structured", _json({"n": 8, "k": 2, "entries": [
        {"value": 7, "trees": ["(()()()()()()())"], "truncated": False},
        {"value": 26, "trees": ["((()()())()()())"], "truncated": False},
    ]})),
    (["rank", "--n", "8", "--k", "2"], "tabular", "rank\tvalue\tties\ttruncated\n1\t7\t1\t0\n2\t26\t1\t0\n"),
    (["closed-form", "g4", "--n", "9"], "human", f"g4(9) = 56\nattaining: T(1^2, 3), T(3^2)\nnote: {G4_9_NOTE}\n"),
    (["closed-form", "g4", "--n", "9"], "structured", _json({
        "which": "g4", "n": 9, "value": 56, "attaining": ["T(1^2, 3)", "T(3^2)"], "notes": [G4_9_NOTE],
    })),
    (["closed-form", "g4", "--n", "9"], "tabular", f"which\tn\tvalue\tattaining\tnotes\ng4\t9\t56\tT(1^2, 3)|T(3^2)\t{G4_9_NOTE}\n"),
    (["verify", "prop-f4", "--n", "10"], "human",
     "theorem: prop-f4\n  n=10: PASS claimed=63 oracle=63\nsummary: checked=1 passed=1 failed=0 wall_time=0\n"),
    (["verify", "prop-f4", "--n", "10"], "structured", _json({
        "schema_version": "revwiener-report/1",
        "theorem": "prop-f4",
        "records": [{
            "n": 10, "claimed_value": 63, "oracle_value": 63, "claimed_set": [F4_10],
            "oracle_set": [F4_10], "match": True, "note": "",
        }],
        "summary": {"checked": 1, "passed": 1, "failed": 0},
        "wall_time": 0,
    })),
    (["verify", "prop-f4", "--n", "10"], "tabular",
     "theorem\tn\tclaimed_value\toracle_value\tclaimed_set\toracle_set\tmatch\tnote\n"
     f"prop-f4\t10\t63\t63\t{F4_10}\t{F4_10}\t1\t\n"),
]


@pytest.mark.parametrize("argv, fmt, expected", EXACT_OUTPUT, ids=[f"{' '.join(a)} {f}" for a, f, _ in EXACT_OUTPUT])
def test_exact_output(capsys, tmp_path, argv, fmt, expected):
    p4 = tmp_path / "p4.txt"
    p4.write_text("4\n0 1\n1 2\n2 3\n")
    argv = [str(p4) if arg == "P4" else arg for arg in argv]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert WALL_TIME.sub(r"\g<1>0", out) == expected


class TestInternalError:
    def test_failed_internal_check_is_exit_four(self, capsys, monkeypatch):
        # An isqrt that overshoots breaks the q,r decomposition's own check.
        monkeypatch.setattr("revwiener.closed_forms.math.isqrt", lambda m: int(m**0.5) + 1)
        code, out, err = run(capsys, "closed-form", "f4", "--n", "10")
        assert code == EXIT_INTERNAL and out == ""
        assert err.startswith("error: internal check failed:") and err.count("\n") == 1

    def test_uncaught_exception_is_exit_four(self, capsys, monkeypatch):
        def broken(t):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("revwiener.cli.metrics", broken)
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n0 1\n"))
        code, out, err = run(capsys, "stats", "-")
        assert code == EXIT_INTERNAL and out == ""
        assert err == "error: internal error: ZeroDivisionError: division by zero\n"


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_is_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
