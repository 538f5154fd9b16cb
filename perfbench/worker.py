"""One round of a workload, in a fresh process: the plan's CLI calls, timed.

Usage (run.py starts it): ``python3 worker.py SPAWN_TIME PLAN_JSON``.
SPAWN_TIME is the parent's ``time.monotonic()`` just before the spawn, so
set-up time covers interpreter start, ``import revwiener`` and reading the
plan.  The result is one JSON object on stdout.
"""

import sys
import time


def main() -> int:
    spawned = float(sys.argv[1])
    import json
    from pathlib import Path

    plan = json.loads(sys.argv[2])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from revwiener import cli

    setup_s = time.monotonic() - spawned
    if plan["setup_only"]:
        json.dump({"setup_s": setup_s}, sys.stdout)
        return 0

    import contextlib
    import io
    import resource

    entry = cli.main
    if plan["trace"]:
        import importlib

        import tracer as tr

        tracer = tr.Tracer()
        modules = {layer: importlib.import_module(f"revwiener.{layer}") for layer in tr.LAYERS}
        level_sequences = modules["enumeration"].free_tree_level_sequences
        tr.install(tracer, modules)
        entry = tracer.wrap("cli.main", cli.main)

    calls = []
    for argv in plan["calls"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry(argv)
            except Exception as exc:  # a traceback is a program fault; the checker counts it
                code, error = None, repr(exc)
        seconds = time.perf_counter() - start
        calls.append({"exit": code, "error": error, "seconds": seconds,
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "peak_rss_mib": peak_rss_mib, "calls": calls}
    if plan["trace"]:
        layers = tr.layer_metrics(tracer)
        start = time.perf_counter()
        replayed = sum(1 for n in plan["free_tree_n"] for _ in level_sequences(n))
        layers["enumeration.seq_gen_s"] = time.perf_counter() - start
        tr.write_spans(tracer, plan["spans_out"])
        result["layers"] = layers
        result["replayed_trees"] = replayed
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
