"""Spans at the boundaries between revwiener's modules, for the traced run.

``install`` replaces every name that one layer module imports from another
(a function, a spec class, or a whole module such as ``verify.enumeration``)
with a wrapper that records a span: name, parent span, start and end.
Calls inside one module are not wrapped, so a span always marks work handed
from one layer to the next.  Spans live in flat arrays until the round ends;
``write_spans`` stores them and ``layer_metrics`` reduces them to the
per-layer figures.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from array import array
from collections import Counter

LAYERS = ("cli", "verify", "enumeration", "families", "closed_forms", "transforms", "invariants", "tree")
SPEC_CLASSES = ("Diam4Spec", "DoubleStarSpec")

SPEC = ("families.Diam4Spec", "families.DoubleStarSpec", "families.normalize", "families.parse_family_spec")
LAMBDA = ("families.lambda_diam4_closed", "families.lambda_double_star_closed", "families.wiener_diam4_closed")
BUILD = ("families.build", "families.diam4", "families.double_star", "families.star", "families.path")
DIAM4_ORACLES = ("enumeration.min_lambda_diam", "enumeration.second_min_lambda_diam")

# name -> unit; every name is printed by a traced run.
METRICS = {
    "enumeration.rank_self_s": "s",
    "enumeration.seq_gen_s": "s",
    "enumeration.trees_visited": "count",
    "enumeration.codes_computed": "count",
    "enumeration.codes_kept": "count",
    "enumeration.code_yield": "ratio",
    "enumeration.diam4_self_s": "s",
    "enumeration.diam4_classes": "count",
    "tree.canonical_code_s": "s",
    "tree.from_edge_list_s": "s",
    "tree.diameter_and_centers_s": "s",
    "tree.diameter_and_centers_calls": "count",
    "families.spec_s": "s",
    "families.spec_calls": "count",
    "families.lambda_closed_s": "s",
    "families.lambda_closed_calls": "count",
    "families.build_s": "s",
    "invariants.reverse_wiener_s": "s",
    "transforms.self_s": "s",
    "verify.self_s": "s",
    "verify.records": "count",
    "cli.self_s": "s",
    "closed_forms.s": "s",
    "closed_forms.calls": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span named ``name`` around every call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, key: str, amount: int) -> None:
        self.counts[key] += amount


def _callee(value, modules: dict) -> str | None:
    """Layer that defines ``value`` if it is a traced boundary, else None."""
    if isinstance(value, types.FunctionType) and not inspect.isgeneratorfunction(value):
        layer = value.__module__.rpartition(".")[2]
        return layer if modules.get(layer) is not None and value.__module__ == modules[layer].__name__ else None
    if isinstance(value, type) and value.__name__ in SPEC_CLASSES:
        return "families"
    return None


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every cross-layer name in the layer modules given by name."""
    hooks = {
        "enumeration.rank_trees": lambda entries: tracer.count(
            "enumeration.codes_kept", sum(len(e.trees) for e in entries)
        ),
        "verify.run_verification": lambda report: tracer.count("verify.records", len(report.records)),
    }
    originals = {layer: dict(vars(mod)) for layer, mod in modules.items()}
    for layer, mod in modules.items():
        for attr, value in originals[layer].items():
            if isinstance(value, types.ModuleType) and value.__name__.rpartition(".")[2] in modules:
                callee = value.__name__.rpartition(".")[2]
                proxy = types.ModuleType(value.__name__)
                for name, inner in originals[callee].items():
                    if _callee(inner, modules) == callee:
                        span = f"{callee}.{name}"
                        inner = tracer.wrap(span, inner, hooks.get(span))
                    setattr(proxy, name, inner)
                setattr(mod, attr, proxy)
            else:
                callee = _callee(value, modules)
                if callee is not None and callee != layer:
                    span = f"{callee}.{attr}"
                    setattr(mod, attr, tracer.wrap(span, value, hooks.get(span)))

    enumeration = modules["enumeration"]
    levels = enumeration.free_tree_level_sequences

    def counted_level_sequences(n):
        visited = 0
        try:
            for seq in levels(n):
                visited += 1
                yield seq
        finally:
            tracer.count("enumeration.trees_visited", visited)

    enumeration.free_tree_level_sequences = counted_level_sequences


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans and counts.

    ``*self_s`` is the time of a layer's spans minus the time of their
    direct child spans; every other ``*_s`` is the full time of the named
    boundary's spans.
    """
    names = tracer.names
    n_spans = len(tracer.start)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * n_spans
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    from_enumeration: Counter = Counter()
    for i in range(n_spans):
        name = names[tracer.name_id[i]]
        total[name] += dur[i]
        own[name] += dur[i] - child[i]
        calls[name] += 1
        p = tracer.parent[i]
        if p >= 0 and names[tracer.name_id[p]].startswith("enumeration."):
            from_enumeration[name] += 1

    def by_prefix(table: Counter, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    codes_computed = from_enumeration["tree.canonical_code"]
    codes_kept = tracer.counts["enumeration.codes_kept"]
    return {
        "enumeration.rank_self_s": own["enumeration.rank_trees"],
        "enumeration.trees_visited": tracer.counts["enumeration.trees_visited"],
        "enumeration.codes_computed": codes_computed,
        "enumeration.codes_kept": codes_kept,
        "enumeration.code_yield": codes_kept / codes_computed if codes_computed else 0.0,
        "enumeration.diam4_self_s": sum(own[k] for k in DIAM4_ORACLES),
        "enumeration.diam4_classes": from_enumeration["families.Diam4Spec"],
        "tree.canonical_code_s": total["tree.canonical_code"],
        "tree.from_edge_list_s": total["tree.from_edge_list"],
        "tree.diameter_and_centers_s": total["tree.diameter_and_centers"],
        "tree.diameter_and_centers_calls": calls["tree.diameter_and_centers"],
        "families.spec_s": sum(total[k] for k in SPEC),
        "families.spec_calls": sum(calls[k] for k in SPEC),
        "families.lambda_closed_s": sum(total[k] for k in LAMBDA),
        "families.lambda_closed_calls": sum(calls[k] for k in LAMBDA),
        "families.build_s": sum(total[k] for k in BUILD),
        "invariants.reverse_wiener_s": total["invariants.reverse_wiener"],
        "transforms.self_s": by_prefix(own, "transforms."),
        "verify.self_s": by_prefix(own, "verify."),
        "verify.records": tracer.counts["verify.records"],
        "cli.self_s": by_prefix(own, "cli."),
        "closed_forms.s": by_prefix(total, "closed_forms."),
        "closed_forms.calls": by_prefix(calls, "closed_forms."),
    }


def write_spans(tracer: Tracer, path) -> None:
    """One JSON header line, then the name, parent, start and end arrays."""
    with open(path, "wb") as fh:
        header = {"names": tracer.names, "spans": len(tracer.start),
                  "arrays": [["name_id", "H"], ["parent", "l"], ["start", "d"], ["end", "d"]]}
        fh.write(json.dumps(header).encode() + b"\n")
        for arr in (tracer.name_id, tracer.parent, tracer.start, tracer.end):
            arr.tofile(fh)


def read_spans(path) -> Tracer:
    """The spans stored by :func:`write_spans`, as a tracer with no live wrappers."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        tracer.names = header["names"]
        for key, _ in header["arrays"]:
            getattr(tracer, key).fromfile(fh, header["spans"])
    return tracer
