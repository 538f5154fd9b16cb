"""Benchmark for revwiener's oracles, run through the CLI.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs the workload's CLI calls in a fresh process (worker.py)
through ``revwiener.cli.main`` with ``--jobs 1`` and ``--format
structured``.  Rounds repeat until the next one would end after S
seconds.  Every report record and rank entry of every round is then
checked by checker.py, which does not import revwiener.  The last line
of stdout is one JSON object: the end-to-end metrics (medians over the
rounds) with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SPAWNS = 5  # set-up-only processes per run, on top of one per round
ROUND_TIMEOUT_S = 150

VERIFY = ["--jobs", "1", "--format", "structured"]
FREE_K3_TOP = 18
RANK_N, RANK_K = 17, 50
DIAM4_TOP = 44
D3_TO = 200
LEMMA_TRIALS = 2000


def _verify(theorem: str, lo: int, hi: int, top: bool = False) -> dict:
    span = ["--n", str(hi)] if lo == hi else ["--n-from", str(lo), "--n-to", str(hi)]
    return {"argv": ["verify", theorem, *span, *VERIFY], "theorem": theorem, "ns": list(range(lo, hi + 1)),
            "top": top}


def plan(workload: str, seed: int) -> list[dict]:
    """The workload's CLI calls, in an order drawn from ``seed``."""
    if workload == "free-k3":
        calls = [_verify("third-smallest", 5, FREE_K3_TOP - 1), _verify("third-smallest", FREE_K3_TOP, FREE_K3_TOP, True)]
    elif workload == "free-k50":
        argv = ["rank", "--n", str(RANK_N), "--k", str(RANK_K), "--format", "structured"]
        calls = [{"argv": argv, "theorem": "rank", "ns": [RANK_N], "top": True}]
    elif workload == "diam4":
        calls = [
            _verify("prop-f4", 5, DIAM4_TOP - 1),
            _verify("prop-f4", DIAM4_TOP, DIAM4_TOP, True),
            _verify("prop-g4", 6, DIAM4_TOP - 1),
            _verify("prop-g4", DIAM4_TOP, DIAM4_TOP, True),
        ]
    elif workload == "symbolic":
        # The battery keeps the CLI's default seed 0 whatever --seed is: see README.
        lemmas = ["verify", "lemmas", "--trials", str(LEMMA_TRIALS), *VERIFY]
        calls = [{"argv": lemmas, "theorem": "lemmas", "ns": [], "top": True}, _verify("prop-d3", 4, D3_TO)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(calls)
    return calls


WORKLOADS = ("free-k3", "free-k50", "diam4", "symbolic")


# --- checking -------------------------------------------------------------------


def _expected_ops(call: dict) -> list[tuple]:
    """What each operation of a call should report on: one entry per record or rank entry."""
    theorem = call["theorem"]
    if theorem == "rank":
        return [("entry", i) for i in range(RANK_K)]
    if theorem == "lemmas":
        return [("lemma", lemma) for lemma in checker.LEMMAS]
    if theorem == "prop-d3":
        return [(n, note) for n in call["ns"] for note in ("f(n,3)", "g(n,3)")[: 1 if n < 6 else 2]]
    return [(n, None) for n in call["ns"]]


def check_call(call: dict, result: dict) -> list[tuple[str | None, list[str]]]:
    """Per operation of one call: why it failed (or None), and what is wrong in its output."""
    expected = _expected_ops(call)
    theorem = call["theorem"]
    try:
        if result["error"] is not None:
            raise ValueError(f"raised {result['error']}")
        body = json.loads(result["stdout"])
        if theorem == "rank" and result["exit"] != 0:
            raise ValueError(f"exit {result['exit']}")
    except ValueError as exc:
        failure = f"{exc}; stderr: {result['stderr'].strip()[:200]}"
        return [(failure, []) for _ in expected]
    if theorem == "rank":
        return [(None, problems) for problems in checker.check_rank_entries(RANK_N, RANK_K, body["entries"])]
    records = body["records"]
    want_exit = 0 if all(r["match"] for r in records) else 1
    exit_problem = [] if result["exit"] == want_exit else [f"exit {result['exit']}, expected {want_exit}"]
    out = []
    for i, want in enumerate(expected):
        if i >= len(records):
            out.append(("record missing", []))
            continue
        rec = records[i]
        problems = list(exit_problem)
        if theorem == "lemmas":
            problems += checker.check_lemma(rec, want[1], LEMMA_TRIALS)
        else:
            if rec["n"] != want[0]:
                problems.append(f"record for n={rec['n']}, expected n={want[0]}")
            if theorem == "third-smallest":
                problems += checker.check_third_smallest(rec)
            elif theorem == "prop-d3":
                if rec["note"] != want[1]:
                    problems.append(f"record note {rec['note']!r}, expected {want[1]!r}")
                problems += checker.check_prop_d3(rec)
            else:
                problems += checker.check_diam4(rec)
        out.append((checker.reported_failure(theorem, rec), problems))
    if len(records) > len(expected):
        out[-1][1].append(f"{len(records) - len(expected)} records more than planned")
    return out


def _ns(calls: list[dict], *theorems: str) -> list[int]:
    """Every n that the given theorems' calls walk, once per call."""
    return [n for c in calls if c["theorem"] in theorems for n in c["ns"]]


def check_trace(calls: list[dict], layers: dict, replayed: int) -> list[str]:
    """The traced counters that the input alone fixes."""
    free_n = _ns(calls, "third-smallest", "rank")
    diam4_n = _ns(calls, "prop-f4", "prop-g4")
    otter = checker.otter_free_trees(max(free_n, default=1))
    classes = checker.diam4_class_counts(max(diam4_n, default=1))
    want_trees = sum(otter[n] for n in free_n)
    problems = []
    if layers["enumeration.trees_visited"] != want_trees or replayed != want_trees:
        problems.append(f"trees visited {layers['enumeration.trees_visited']} "
                        f"(replay {replayed}), Otter count {want_trees}")
    if layers["enumeration.diam4_classes"] != sum(classes[n] for n in diam4_n):
        problems.append(f"diameter-4 classes {layers['enumeration.diam4_classes']}, "
                        f"partition count {sum(classes[n] for n in diam4_n)}")
    return problems


# --- running --------------------------------------------------------------------


def spawn(payload: dict) -> dict:
    """Run worker.py once and return its JSON result."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), repr(spawned), json.dumps(payload)],
        capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "revwiener" / "cli.py").is_file():
        print(f"error: no revwiener sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    calls = plan(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    payload = {
        "calls": [c["argv"] for c in calls],
        "setup_only": False,
        "trace": bool(args.trace),
        "free_tree_n": _ns(calls, "third-smallest", "rank"),
        "spans_out": str(OUT / f"spans-{args.workload}.bin"),
    }
    started = time.monotonic()
    setups = [spawn({**payload, "setup_only": True})["setup_s"] for _ in range(SETUP_SPAWNS)]
    rounds, durations = [], []
    while True:
        t = time.monotonic()
        rounds.append(spawn(payload))
        durations.append(time.monotonic() - t)
        if time.monotonic() - started + statistics.mean(durations) > args.seconds:
            break

    attempted = failed = wrong = 0
    for r in rounds:
        for call, result in zip(calls, r["calls"]):
            for failure, problems in check_call(call, result):
                attempted += 1
                if failure:
                    failed += 1
                    print(f"FAILED {' '.join(call['argv'])}: {failure}", file=sys.stderr)
                elif problems:
                    wrong += 1
                    print(f"WRONG {' '.join(call['argv'])}: {'; '.join(problems)}", file=sys.stderr)
        if args.trace:
            for problem in check_trace(calls, r["layers"], r["replayed_trees"]):
                wrong += 1
                print(f"WRONG trace: {problem}", file=sys.stderr)

    walls = [sum(c["seconds"] for c in r["calls"]) for r in rounds]
    tops = [sum(c["seconds"] for c, call in zip(r["calls"], calls) if call["top"]) for r in rounds]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"wall_s per round {[round(w, 3) for w in walls]}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in tracer.METRICS.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [r["setup_s"] for r in rounds]), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "top_n_s": {"value": statistics.median(tops), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in rounds), "unit": "MiB"},
        }
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
