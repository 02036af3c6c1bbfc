"""Traced runs of the ``hurwitz`` CLI: spans around the public calls of each
layer, recorded from outside the program.

Run as a child (``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py <label> '<JSON list of CLI argument lists>'

The child wraps the public functions of ``permutation``, ``ribbon``,
``traffic``, ``tropical`` and ``chambers`` where the CLI and the pipelines look
them up, runs ``hurwitz.cli.main`` on each argument list in one process, and
prints one JSON document: the CLI outputs and the spans.  A span is
(name, start, end, parent, case id), kept in memory until the end.

Calls a plain CLI run does not make are marked ``extra`` and left out of the
traced wall time:
- the first ``count_hurwitz_ribbon`` call at each r in a process is cold (it
  builds the per-r map tables) and is repeated once, warm;
- each ribbon-counted (m, n, r) with r <= 4 also gets ``enumerate_skeletons``
  (r = 5 would build 247,680 skeleton objects, about 16 s);
- each ribbon-counted parameter set also gets ``hurwitz_ribbon_classes``
  unless the CLI already called it.

``run.py`` starts the child; ``layer_metrics`` and ``share_report`` below
turn its spans into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

PER_LAYER_UNITS = {
    "permutation.count_s": "s",
    "permutation.leaves": "count",
    "permutation.leaves_per_s": "1/s",
    "permutation.classes_s": "s",
    "permutation.class_key_s": "s",
    "permutation.self_s": "s",
    "ribbon.count_cold_s": "s",
    "ribbon.count_warm_s": "s",
    "ribbon.tables_s": "s",
    "ribbon.skeletons": "count",
    "ribbon.weighted_classes": "count",
    "ribbon.classes_s": "s",
    "ribbon.canonical_key_s": "s",
    "ribbon.canonical_keys": "count",
    "ribbon.self_s": "s",
    "traffic.roundtrip_s": "s",
    "traffic.to_chain_s": "s",
    "traffic.to_ribbon_s": "s",
    "traffic.classes": "count",
    "traffic.self_s": "s",
    "tropical.count_s": "s",
    "tropical.graphs_s": "s",
    "tropical.graphs": "count",
    "tropical.flows_s": "s",
    "tropical.flows": "count",
    "tropical.self_s": "s",
    "chambers.fit_s": "s",
    "chambers.oracle_s": "s",
    "chambers.oracle_calls": "count",
    "chambers.self_s": "s",
    "chambers.fitted": "count",
    "chambers.attempted": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Which layer metric should dominate each workload's traced wall.
PREDICTIONS = {
    "perm": "permutation.count_s",
    "ribbon": "ribbon.tables_s",
    "verify": "ribbon.canonical_key_s",
    "chambers": "permutation.count_s",
}


# ---------------------------------------------------------------------------
# child side


def _label_multiplicity(parts) -> int:
    out = 1
    for part in set(parts):
        out *= factorial(parts.count(part))
    return out


def _centralizer_order(parts) -> int:
    out = _label_multiplicity(parts)
    for part in parts:
        out *= part
    return out


def completions(value, params) -> int:
    """DFS leaves behind a permutation count: the number of monodromy sets
    (value * d!) over the class size of sigma_0 and the labelings."""
    mu, nu = list(params.mu), list(params.nu)
    leaves = Fraction(value) * _centralizer_order(mu) / (
        _label_multiplicity(mu) * _label_multiplicity(nu)
    )
    if leaves.denominator != 1:
        raise ValueError(f"non-integer completion count {leaves}")
    return int(leaves)


class Tracer:
    def __init__(self, label: str):
        self.label = label
        self.spans = []
        self._stack = []
        self._extra = False
        self._cold_r = set()
        self._graph_keys = set()
        self.ribbon_params = []
        self.classes_params = set()

    @contextmanager
    def span(self, name: str, extra: bool = False):
        rec = {
            "name": name,
            "case": self.label,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "extra": extra or self._extra,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, items=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if items is not None:
                rec["items"] = items(out, *args)
            return out

        return traced

    def install(self):
        from hurwitz import chambers, cli, ribbon, traffic, tropical
        from hurwitz.core import Partition, hurwitz_params

        perm_count = self.wrap(cli.METHODS["permutation"], "permutation.count", completions)
        cli.METHODS["permutation"] = perm_count
        cli.METHODS["ribbon"] = self._ribbon_count(cli.METHODS["ribbon"])
        cli.METHODS["tropical"] = self.wrap(cli.METHODS["tropical"], "tropical.count")
        cli.roundtrip_check = self.wrap(
            cli.roundtrip_check, "traffic.roundtrip", lambda rep, _: rep.classes_ribbon
        )
        traffic.monodromy_classes = self.wrap(traffic.monodromy_classes, "permutation.classes")
        traffic.monodromy_class_key = self.wrap(traffic.monodromy_class_key, "permutation.class_key")
        traffic.canonical_ticks = self.wrap(traffic.canonical_ticks, "traffic.to_chain")
        traffic.ribbon_to_monodromy = self.wrap(traffic.ribbon_to_monodromy, "traffic.to_chain")
        traffic.chain_to_ribbon = self.wrap(traffic.chain_to_ribbon, "traffic.to_ribbon")

        def classes_items(out, params):
            self.classes_params.add(params)
            return len(out)

        ribbon.hurwitz_ribbon_classes = self.wrap(
            ribbon.hurwitz_ribbon_classes, "ribbon.classes", classes_items
        )
        ribbon.HurwitzRibbonGraph.canonical_key = self.wrap(
            ribbon.HurwitzRibbonGraph.canonical_key, "ribbon.canonical_key"
        )
        enum_graphs = tropical.enumerate_tropical_graphs

        def graphs(m, n, r):
            first = (m, n, r) not in self._graph_keys
            with self.span("tropical.graphs") as rec:
                out = enum_graphs(m, n, r)
            self._graph_keys.add((m, n, r))
            rec["items"] = len(out) if first else 0
            return out

        tropical.enumerate_tropical_graphs = graphs
        tropical.flow_lattice_points = self.wrap(
            tropical.flow_lattice_points, "tropical.flows", lambda out, *_: len(out)
        )
        fit = chambers.fit_chamber_polynomial

        def fit_traced(g, m, n, signs, *args, **kwargs):
            def oracle(mu, nu):
                with self.span("chambers.oracle"):
                    return perm_count(hurwitz_params(g, Partition(mu), Partition(nu)))

            with self.span("chambers.fit") as rec:
                out = fit(g, m, n, signs, *args, oracle=oracle, **kwargs)
            rec["items"] = 1
            return out

        chambers.fit_chamber_polynomial = fit_traced

    def _ribbon_count(self, count):
        def traced(params):
            self.ribbon_params.append(params)
            if params.r in self._cold_r:
                with self.span("ribbon.count"):
                    return count(params)
            self._cold_r.add(params.r)
            with self.span("ribbon.count_cold"):
                out = count(params)
            with self.span("ribbon.count_warm", extra=True):
                again = count(params)
            if again != out:
                raise RuntimeError(f"warm ribbon count {again} differs from cold {out}")
            return out

        return traced

    def run_extras(self):
        from hurwitz import ribbon

        self._extra = True
        for m, n, r in sorted({(p.m, p.n, p.r) for p in self.ribbon_params if p.r <= 4}):
            with self.span("ribbon.skeletons") as rec:
                out = ribbon.enumerate_skeletons(m, n, r)
            rec["items"] = len(out)
        for params in dict.fromkeys(self.ribbon_params):
            if params not in self.classes_params:
                ribbon.hurwitz_ribbon_classes(params)
        self._extra = False


def child_main(label: str, commands: list) -> int:
    import contextlib
    import io

    from hurwitz import cli

    tracer = Tracer(label)
    tracer.install()
    outputs = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tracer.span("cli.main"):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        outputs.append({"exit": code, "stdout": buf.getvalue()})
    tracer.run_extras()
    json.dump({"outputs": outputs, "spans": tracer.spans}, sys.stdout)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# parent side: spans to metrics


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over the spans.  A span's self time is its duration
    minus its direct children's; a layer's self time sums its spans'."""
    total = defaultdict(float)
    calls = defaultdict(int)
    items = defaultdict(int)
    self_time = defaultdict(float)
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[(s["case"], s["parent"])] += s["end"] - s["start"]
    for s in spans:
        dur = s["end"] - s["start"]
        total[s["name"]] += dur
        calls[s["name"]] += 1
        items[s["name"]] += s.get("items", 0)
        self_time[s["name"].split(".")[0]] += dur - child_time[(s["case"], s["id"])]
    count_s = total["permutation.count"]
    return {
        "permutation.count_s": count_s,
        "permutation.leaves": items["permutation.count"],
        "permutation.leaves_per_s": items["permutation.count"] / count_s if count_s else 0.0,
        "permutation.classes_s": total["permutation.classes"],
        "permutation.class_key_s": total["permutation.class_key"],
        "permutation.self_s": self_time["permutation"],
        "ribbon.count_cold_s": total["ribbon.count_cold"],
        "ribbon.count_warm_s": total["ribbon.count_warm"],
        "ribbon.tables_s": total["ribbon.count_cold"] - total["ribbon.count_warm"],
        "ribbon.skeletons": items["ribbon.skeletons"],
        "ribbon.weighted_classes": items["ribbon.classes"],
        "ribbon.classes_s": total["ribbon.classes"],
        "ribbon.canonical_key_s": total["ribbon.canonical_key"],
        "ribbon.canonical_keys": calls["ribbon.canonical_key"],
        "ribbon.self_s": self_time["ribbon"],
        "traffic.roundtrip_s": total["traffic.roundtrip"],
        "traffic.to_chain_s": total["traffic.to_chain"],
        "traffic.to_ribbon_s": total["traffic.to_ribbon"],
        "traffic.classes": items["traffic.roundtrip"],
        "traffic.self_s": self_time["traffic"],
        "tropical.count_s": total["tropical.count"],
        "tropical.graphs_s": total["tropical.graphs"],
        "tropical.graphs": items["tropical.graphs"],
        "tropical.flows_s": total["tropical.flows"],
        "tropical.flows": items["tropical.flows"],
        "tropical.self_s": self_time["tropical"],
        "chambers.fit_s": total["chambers.fit"],
        "chambers.oracle_s": total["chambers.oracle"],
        "chambers.oracle_calls": calls["chambers.oracle"],
        "chambers.self_s": self_time["chambers"],
        "chambers.fitted": items["chambers.fit"],
        "chambers.attempted": calls["chambers.fit"],
        "cli.self_s": self_time["cli"],
    }


def share_report(workload: str, case_metrics: dict, traced_wall: float) -> str:
    """The predicted dominant layer metric as a share of the traced wall
    (workload cases only, extra calls and probe excluded)."""
    name = PREDICTIONS[workload]
    share = case_metrics[name] / traced_wall
    verdict = "holds" if share > 0.5 else "does not hold"
    return (
        f"  prediction: {name} is most of {workload}; measured {share:.3f} of the "
        f"{traced_wall:.3f} s traced wall ({verdict})"
    )


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1], json.loads(sys.argv[2])))
