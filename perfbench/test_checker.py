"""Tests of the benchmark's independent checker and tracer.

Run from the repository root: python3 -m pytest perfbench
"""

import contextlib
import io
import json
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from revwiener import cli  # noqa: E402


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "structured"])
    return code, json.loads(out.getvalue())


def double_star(n, a):
    adj = [[] for _ in range(n)]
    edges = [(0, 1)] + [(0, i) for i in range(2, n - a + 1)] + [(1, i) for i in range(n - a + 1, n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


# --- the checker's own arithmetic ------------------------------------------------


def test_decode_star_and_path():
    star = checker.decode("(()()())")
    assert [len(a) for a in star] == [3, 1, 1, 1]
    assert checker.reverse_wiener(star) == 3
    path = checker.decode("((())(()))")  # P5 rooted at its middle
    assert checker.diameter(path) == 4 and checker.wiener(path) == 20
    assert checker.reverse_wiener(path) == 20


@pytest.mark.parametrize("code", ["", "(", "())", "()()", "(x)"])
def test_decode_rejects_malformed(code):
    with pytest.raises(checker.CodeError):
        checker.decode(code)


def test_edge_cut_wiener_equals_all_pairs_distance_sum():
    rng = random.Random(1)
    trees = list(checker.labeled_trees(7))
    for adj in rng.sample(trees, 300):
        all_pairs = sum(sum(checker.bfs(adj, s)) for s in range(len(adj))) // 2
        assert checker.wiener(adj) == all_pairs


def test_otter_counts():
    # OEIS A000055, n = 1..20
    known = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629, 123867, 317955, 823065]
    assert checker.otter_free_trees(20)[1:] == known


def test_diam4_class_counts_match_labeled_enumeration():
    counts = checker.diam4_class_counts(8)
    for n in range(5, 9):
        classes = {checker.canonical_form(adj) for adj in checker.labeled_trees(n) if checker.diameter(adj) == 4}
        assert len(classes) == counts[n]


def test_floor_forms_match_a_double_star_sweep():
    for n in range(6, 61):
        values = sorted({checker.reverse_wiener(double_star(n, a)) for a in range(2, n // 2 + 1)})
        assert values[:2] == [checker.f3(n), checker.g3(n)]


def test_rank_misses_no_smaller_value():
    """For n <= 8, rank's values and tie sets equal those of every labeled tree."""
    for n in range(2, 9):
        classes = defaultdict(set)
        for adj in checker.labeled_trees(n):
            classes[checker.reverse_wiener(adj)].add(checker.canonical_form(adj))
        code, body = cli_json("rank", "--n", str(n), "--k", str(len(classes) + 1))
        assert code == 0
        got = {e["value"]: {checker.canonical_form(checker.decode(c)) for c in e["trees"]} for e in body["entries"]}
        assert got == classes
        if n >= 5:
            assert checker.check_rank_entries(n, len(classes), body["entries"]) == [[]] * len(classes)


# --- record checks on real output, and on output made wrong ----------------------


def test_third_smallest_and_rank_records_pass():
    for n in (5, 6, 11):
        code, body = cli_json("verify", "third-smallest", "--n", str(n))
        rec = body["records"][0]
        assert code == 0 and checker.reported_failure("third-smallest", rec) is None
        assert checker.check_third_smallest(rec) == []


def test_wrong_values_and_codes_are_caught():
    _, body = cli_json("verify", "third-smallest", "--n", "9")
    rec = body["records"][0]
    assert checker.check_third_smallest({**rec, "oracle_value": rec["oracle_value"] + 1, "claimed_value": rec["oracle_value"] + 1})
    star = "(" + "()" * 8 + ")"
    assert checker.check_third_smallest({**rec, "oracle_set": [star], "claimed_set": [star]})
    assert checker.check_third_smallest({**rec, "match": False})

    _, body = cli_json("rank", "--n", "9", "--k", "6")
    entries = body["entries"]
    assert checker.check_rank_entries(9, 6, entries) == [[]] * 6
    swapped = [entries[1], entries[0]] + entries[2:]
    assert any(checker.check_rank_entries(9, 6, swapped))
    assert checker.check_rank_entries(9, 6, entries[:5])[-1]


def test_diam4_table_omission_is_not_a_failure():
    code, body = cli_json("verify", "prop-g4", "--n", "9")
    rec = body["records"][0]
    assert code == 1 and not rec["match"]
    assert checker.reported_failure("prop-g4", rec) is None
    assert checker.check_diam4(rec) == []
    worse = {**rec, "claimed_value": rec["claimed_value"] - 1}
    assert checker.reported_failure("prop-g4", worse) is not None
    assert checker.check_diam4({**rec, "oracle_set": ["(" + "()" * 8 + ")"]})


def test_prop_d3_and_lemma_records():
    code, body = cli_json("verify", "prop-d3", "--n", "8")
    assert code == 0 and [r["note"] for r in body["records"]] == ["f(n,3)", "g(n,3)"]
    for rec in body["records"]:
        assert checker.check_prop_d3(rec) == []
    assert checker.check_prop_d3({**body["records"][0], "note": "g(n,3)"})

    code, body = cli_json("verify", "lemmas", "--trials", "20")
    assert code == 0
    for rec, lemma in zip(body["records"], checker.LEMMAS):
        assert checker.check_lemma(rec, lemma, 20) == []
        assert checker.reported_failure("lemmas", rec) is None
    failing = {**body["records"][1], "oracle_value": 1, "match": False}
    assert checker.reported_failure("lemmas", failing) == "1 failing trials"
    assert checker.check_lemma(failing, "lemma2", 20) == []


def test_plan_depends_only_on_seed():
    for workload in run.WORKLOADS:
        assert run.plan(workload, 7) == run.plan(workload, 7)
        assert {tuple(c["argv"]) for c in run.plan(workload, 7)} == {tuple(c["argv"]) for c in run.plan(workload, 8)}


# --- tracer ------------------------------------------------------------------------


def test_self_time_subtracts_direct_children(tmp_path):
    tr = tracer.Tracer()
    inner = tr.wrap("tree.canonical_code", lambda: sum(range(20000)))
    outer = tr.wrap("enumeration.rank_trees", lambda: [inner() for _ in range(3)] and [])
    outer()
    metrics = tracer.layer_metrics(tr)
    total = [e - s for s, e in zip(tr.start, tr.end)]
    assert metrics["enumeration.codes_computed"] == 3
    assert metrics["tree.canonical_code_s"] == pytest.approx(sum(total[1:]))
    assert metrics["enumeration.rank_self_s"] == pytest.approx(total[0] - sum(total[1:]))
    tracer.write_spans(tr, tmp_path / "spans.bin")
    back = tracer.read_spans(tmp_path / "spans.bin")
    assert back.names == tr.names and list(back.parent) == [-1, 0, 0, 0] and back.end == tr.end


def test_traced_worker_counts_match_otter_and_partitions(tmp_path):
    calls = [run._verify("third-smallest", 7, 8), run._verify("prop-f4", 9, 9)]
    payload = {"calls": [c["argv"] for c in calls], "setup_only": False, "trace": True,
               "free_tree_n": [7, 8], "spans_out": str(tmp_path / "spans.bin")}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "0", json.dumps(payload)],
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert run.check_trace(calls, result["layers"], result["replayed_trees"]) == []
    assert result["layers"]["enumeration.trees_visited"] == 11 + 23
    assert result["layers"]["enumeration.diam4_classes"] == checker.diam4_class_counts(9)[9]
    assert result["layers"]["verify.records"] == 3
    for call, res in zip(calls, result["calls"]):
        assert run.check_call(call, res) == [(None, [])] * len(call["ns"])


def test_benchmark_file_names_every_workload_and_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "top_n_s", "peak_rss_mib"}
