"""Tropical monodromy graphs and the third count of H_g(mu, nu).

An (m, n, r)-tropical graph is a directed graph with m labeled univalent
sources, n labeled univalent sinks and r labeled trivalent internal vertices,
edges between internal vertices running from the smaller to the larger label.
It records which cycles of the chain sigma_0..sigma_r split and merge: edges
are cycles-over-time, internal vertex i is the cut or join at step i.

A monodromy graph adds a positive integer flow: mu_i enters at source i, nu_j
leaves at sink j, and flow is conserved at internal vertices.  Its
multiplicity is the product of the flows on interior edges (edges touching no
univalent vertex), and

    H_g(mu, nu) = sum over monodromy graphs of multiplicity / |Aut|,

where Aut permutes parallel edges only (all vertices are labeled).

Vertices are encoded as ('s', k), ('v', i), ('t', j) for source k, internal i,
sink j.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .core import HurwitzParams, Partition, check_method_r


def _node_key(node) -> str:
    kind, idx = node
    return f"{kind}{idx}"


def _aut_order(entries) -> int:
    """Label-fixing automorphisms permute equal entries among themselves:
    the product of c! over the entries that occur c times."""
    return prod(map(factorial, Counter(entries).values()))


def _flow_form(edges, flows) -> tuple:
    return tuple(sorted((t, h, f) for (t, h), f in zip(edges, flows)))


@dataclass(frozen=True)
class TropicalGraph:
    """Directed multigraph on labeled sources, sinks and internal vertices;
    edges is a tuple of (tail, head) pairs."""

    m: int
    n: int
    r: int
    edges: tuple

    def __post_init__(self):
        out_deg = {}
        in_deg = {}
        for tail, head in self.edges:
            out_deg[tail] = out_deg.get(tail, 0) + 1
            in_deg[head] = in_deg.get(head, 0) + 1
        for k in range(1, self.m + 1):
            if out_deg.get(("s", k), 0) != 1 or in_deg.get(("s", k), 0) != 0:
                raise ValueError(f"source {k} must have out-degree 1, in-degree 0")
        for j in range(1, self.n + 1):
            if in_deg.get(("t", j), 0) != 1 or out_deg.get(("t", j), 0) != 0:
                raise ValueError(f"sink {j} must have in-degree 1, out-degree 0")
        for i in range(1, self.r + 1):
            deg = in_deg.get(("v", i), 0) + out_deg.get(("v", i), 0)
            if deg != 3:
                raise ValueError(f"internal vertex {i} must be trivalent")
        for tail, head in self.edges:
            if tail[0] == "v" and head[0] == "v" and tail[1] >= head[1]:
                raise ValueError("internal edges must increase the vertex order")
            if head[0] == "s" or tail[0] == "t":
                raise ValueError("edge direction violates source/sink roles")
        if not self.is_connected():
            raise ValueError("tropical graphs must be connected")

    def num_vertices(self) -> int:
        return self.m + self.n + self.r

    def is_connected(self) -> bool:
        # union-find over the edge endpoints, with path halving; parts counts
        # the components of the endpoints seen so far
        parent = {}
        parts = 0
        for tail, head in self.edges:
            if tail not in parent:
                parent[tail] = tail
                parts += 1
            if head not in parent:
                parent[head] = head
                parts += 1
            while parent[tail] != tail:
                parent[tail] = tail = parent[parent[tail]]
            while parent[head] != head:
                parent[head] = head = parent[parent[head]]
            if tail != head:
                parent[tail] = head
                parts -= 1
        return parts == 1 and len(parent) == self.num_vertices()

    def first_betti(self) -> int:
        return len(self.edges) - self.num_vertices() + 1

    def interior_edge_indices(self) -> list:
        return [
            k
            for k, (tail, head) in enumerate(self.edges)
            if tail[0] == "v" and head[0] == "v"
        ]

    def aut_order(self) -> int:
        """Label-fixing automorphisms permute parallel edges freely."""
        return _aut_order(self.edges)

    def canonical_form(self) -> tuple:
        return tuple(sorted(self.edges))

    def serialize(self, flows=None) -> dict:
        doc = {
            "sources": self.m,
            "sinks": self.n,
            "internal": self.r,
            "edges": [
                {"tail": _node_key(t), "head": _node_key(h)}
                for t, h in self.edges
            ],
        }
        if flows is not None:
            for e, f in zip(doc["edges"], flows):
                e["flow"] = f
        return doc

    def to_dot(self, flows=None) -> str:
        lines = ["digraph tropical {", "  rankdir=LR;"]
        order = [("s", k) for k in range(1, self.m + 1)]
        order += [("v", i) for i in range(1, self.r + 1)]
        order += [("t", j) for j in range(1, self.n + 1)]
        for node in order:
            shape = "circle" if node[0] == "v" else "point"
            lines.append(f'  {_node_key(node)} [shape={shape}, label="{node[1]}"];')
        for k, (t, h) in enumerate(self.edges):
            label = "" if flows is None else f' [label="{flows[k]}"]'
            lines.append(f"  {_node_key(t)} -> {_node_key(h)}{label};")
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MonodromyGraph:
    graph: TropicalGraph
    flows: tuple
    params: HurwitzParams

    def __post_init__(self):
        g, p = self.graph, self.params
        if (g.m, g.n, g.r) != (p.m, p.n, p.r):
            raise ValueError("graph shape does not match the parameters")
        if len(self.flows) != len(g.edges):
            raise ValueError("one flow value per edge required")
        if any(f < 1 for f in self.flows):
            raise ValueError("flows must be positive")
        balance = {}
        for (tail, head), f in zip(g.edges, self.flows):
            if tail[0] == "s" and f != p.mu[tail[1] - 1]:
                raise ValueError("source edge must carry mu_i")
            if head[0] == "t" and f != p.nu[head[1] - 1]:
                raise ValueError("sink edge must carry nu_j")
            if tail[0] == "v":
                balance[tail[1]] = balance.get(tail[1], 0) - f
            if head[0] == "v":
                balance[head[1]] = balance.get(head[1], 0) + f
        if any(v != 0 for v in balance.values()):
            raise ValueError("flow is not conserved at an internal vertex")

    def canonical_form(self) -> tuple:
        """Sorted (tail, head, flow) triples; equal forms, isomorphic graphs."""
        return _flow_form(self.graph.edges, self.flows)

    def aut_order(self) -> int:
        """Flow-keeping automorphisms permute parallel edges of equal flow."""
        return _aut_order(self.canonical_form())

    def multiplicity(self) -> int:
        """The product of the flows on interior edges."""
        return prod(self.flows[k] for k in self.graph.interior_edge_indices())

    def serialize(self) -> dict:
        return self.graph.serialize(self.flows)

    def to_dot(self) -> str:
        return self.graph.to_dot(self.flows)


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def enumerate_tropical_graphs(m: int, n: int, r: int) -> tuple:
    """One representative per isomorphism class, with |Aut|, sorted by
    canonical form.

    Sequential cut-join construction: a pool of open edges starts at the
    sources; internal vertex i either joins two open edges or cuts one; the
    final open edges attach to the labeled sinks.  Each open edge carries its
    origin and a component label (a join relabels one component into the
    other), and every component keeps an open edge.  With `left` steps to go
    a branch survives only if parts - 1 <= left (a join merges at most two
    parts) and |opens - n| <= left with left - |opens - n| even (each step
    moves the open count by one), so every leaf is connected.

    The walk is orderly, so nothing is deduplicated.  All vertices are
    labeled, so a class is its edge multiset.  Step i fixes the multiset of
    origins feeding vertex i, and the choices at one step, like the sink
    assignments at a leaf, are distinct by origin.  So two different walks
    first differ in the in-edges of some internal vertex or sink.
    """
    check_method_r("tropical", r)
    graphs = []

    def step(i, edges, opens, parts):
        # opens: an (origin, component) pair per open edge
        left = r + 1 - i
        gap = abs(len(opens) - n)
        if parts - 1 > left or gap > left or (left - gap) % 2:
            return
        if left == 0:
            origins = [origin for origin, _ in opens]
            for assignment in sorted(set(itertools.permutations(origins))):
                sinks = [(o, ("t", j)) for j, o in enumerate(assignment, 1)]
                graphs.append(TropicalGraph(m, n, r, tuple(edges + sinks)))
            return
        v = ("v", i)
        seen = set()
        for a, (x, cx) in enumerate(opens):
            for b in range(a + 1, len(opens)):
                y, cy = opens[b]
                key = tuple(sorted((x, y)))
                if key not in seen:
                    seen.add(key)
                    rest = [(o, cx if c == cy else c) for o, c in opens]
                    del rest[b], rest[a]
                    joined = edges + [(x, v), (y, v)]
                    step(i + 1, joined, rest + [(v, cx)], parts - (cx != cy))
        seen = set()
        for a, (x, cx) in enumerate(opens):
            if x not in seen:
                seen.add(x)
                rest = opens[:a] + opens[a + 1 :] + [(v, cx), (v, cx)]
                step(i + 1, edges + [(x, v)], rest, parts)

    step(1, [], [(("s", k), k) for k in range(1, m + 1)], m)
    graphs.sort(key=TropicalGraph.canonical_form)
    return tuple((g, g.aut_order()) for g in graphs)


def flow_lattice_points(t: TropicalGraph, mu: Partition, nu: Partition) -> list:
    """All positive conservative integer flows with the prescribed boundary
    values, processed in vertex-label order (cuts branch, joins are forced)."""
    if len(mu) != t.m or len(nu) != t.n:
        raise ValueError("partition lengths must match source/sink counts")
    flows = [None] * len(t.edges)
    out_of = {}
    in_of = {}
    for k, (tail, head) in enumerate(t.edges):
        out_of.setdefault(tail, []).append(k)
        in_of.setdefault(head, []).append(k)
    for k, (tail, head) in enumerate(t.edges):
        if tail[0] == "s":
            flows[k] = mu[tail[1] - 1]
    results = []

    def rec(i):
        if i > t.r:
            for j in range(1, t.n + 1):
                k = in_of[("t", j)][0]
                if flows[k] != nu[j - 1]:
                    return
            results.append(tuple(flows))
            return
        v = ("v", i)
        total = sum(flows[k] for k in in_of.get(v, []))
        outs = out_of.get(v, [])
        if len(outs) == 1:
            flows[outs[0]] = total
            rec(i + 1)
            flows[outs[0]] = None
        else:
            a, b = outs
            for w in range(1, total):
                flows[a] = w
                flows[b] = total - w
                rec(i + 1)
            flows[a] = flows[b] = None

    rec(1)
    return results


def count_hurwitz_tropical(params: HurwitzParams) -> Fraction:
    """Sum of multiplicity/|Aut| over the monodromy graph classes; by
    orbit-stabilizer, the sum over every graph and each of its flows of
    multiplicity/|Aut(graph)|."""
    classes = monodromy_graph_classes(params)
    return Fraction(sum(Fraction(mg.multiplicity(), aut) for mg, aut in classes))


def monodromy_graph_classes(params: HurwitzParams):
    """Isomorphism classes of monodromy graphs as (MonodromyGraph, aut_order):
    per listed graph, the first flow vector of each canonical form, in
    sorted-form order."""
    check_method_r("tropical", params.r)
    out = []
    for graph, _ in enumerate_tropical_graphs(params.m, params.n, params.r):
        first = {}
        for flows in flow_lattice_points(graph, params.mu, params.nu):
            first.setdefault(_flow_form(graph.edges, flows), flows)
        for form in sorted(first):
            mg = MonodromyGraph(graph, first[form], params)
            out.append((mg, mg.aut_order()))
    return out
