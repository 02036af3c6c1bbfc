import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_params
from hurwitz.core import Partition, RZero, descending_partitions, hurwitz_params
from hurwitz import permutation as P
from hurwitz import ribbon as R
from hurwitz import traffic as T
from hurwitz import tropical as TR
from reference import chain_events, tropical_multiplicity, tropicalize


def test_enumeration_small_counts():
    assert len(TR.enumerate_tropical_graphs(2, 1, 1)) == 1
    assert len(TR.enumerate_tropical_graphs(1, 1, 2)) == 1
    graphs22 = TR.enumerate_tropical_graphs(2, 2, 2)
    assert all(g.first_betti() == 0 for g, _ in graphs22)


def test_genus_one_double_edge():
    ((graph, aut),) = TR.enumerate_tropical_graphs(1, 1, 2)
    assert aut == 2
    assert graph.first_betti() == 1
    interior = graph.interior_edge_indices()
    assert len(interior) == 2
    assert graph.edges[interior[0]] == graph.edges[interior[1]]


def test_betti_matches_forced_genus():
    for m, n, r in [(2, 1, 1), (1, 1, 2), (2, 2, 2), (1, 3, 2), (1, 1, 4)]:
        g = (r - m - n + 2) // 2 if (r - m - n + 2) % 2 == 0 else None
        for graph, _ in TR.enumerate_tropical_graphs(m, n, r):
            assert graph.first_betti() == g


def test_vertex_order_respected():
    for graph, _ in TR.enumerate_tropical_graphs(2, 2, 2):
        for tail, head in graph.edges:
            if tail[0] == "v" and head[0] == "v":
                assert tail[1] < head[1]


def test_no_duplicate_classes():
    for m, n, r in [(2, 2, 2), (1, 3, 2), (2, 1, 3), (1, 1, 4), (3, 3, 4), (2, 3, 5)]:
        graphs = TR.enumerate_tropical_graphs(m, n, r)
        forms = [g.canonical_form() for g, _ in graphs]
        assert len(forms) == len(set(forms))


def test_connectedness_is_enforced():
    # a source wired straight to a sink would be its own component
    for m, n, r in [(2, 2, 2), (3, 1, 2)]:
        graphs = TR.enumerate_tropical_graphs(m, n, r)
        assert graphs
        for graph, _ in graphs:
            assert graph.is_connected()
            for tail, head in graph.edges:
                assert not (tail[0] == "s" and head[0] == "t")


# graphs per (m, n, r), every shape with r <= 5 and integer genus >= 0
_LISTING_SIZES = {
    (1, 2, 1): 1, (2, 1, 1): 1,
    (1, 1, 2): 1, (1, 3, 2): 3, (2, 2, 2): 5, (3, 1, 2): 3,
    (1, 2, 3): 5, (1, 4, 3): 18, (2, 1, 3): 5, (2, 3, 3): 45, (3, 2, 3): 45,
    (4, 1, 3): 18,
    (1, 1, 4): 3, (1, 3, 4): 48, (1, 5, 4): 180, (2, 2, 4): 89, (2, 4, 4): 630,
    (3, 1, 4): 48, (3, 3, 4): 891, (4, 2, 4): 630, (5, 1, 4): 180,
    (1, 2, 5): 59, (1, 4, 5): 708, (1, 6, 5): 2700, (2, 1, 5): 59,
    (2, 3, 5): 1968, (2, 5, 5): 12600, (3, 2, 5): 1968, (3, 4, 5): 23490,
    (4, 1, 5): 708, (4, 3, 5): 23490, (5, 2, 5): 12600, (6, 1, 5): 2700,
}

# sha256 of the `enumerate --kind tropical-graphs` JSON lines; graphs with
# aut > 1: 2 of 3, 41 of 89, none of 891 and 741 of 1,968
_LISTING_DIGESTS = {
    (1, 1, 4): "a9b6c15d878da8373a0027f47f2efe64e8505fff176d9c978d6e11880a94f44c",
    (2, 2, 4): "bf16fa0545515d20e56090cdcf6f199456bc04b68478f5732be891b2e02a5805",
    (3, 3, 4): "dd08fa12a172305403b2381b737526dbf89af0dbe44a70b31724f282ae963e23",
    (2, 3, 5): "ad862b6d2bb2a338dcd3bc8d0da05d33116cdbbd9d645028407e2613537854a4",
}


def test_tropical_listing_pinned():
    """Sizes of every listing with r <= 5, and the representatives, their
    edge order, the listing order and |Aut| of four, taken while the walk
    still deduplicated by canonical form."""
    for (m, n, r), size in _LISTING_SIZES.items():
        assert len(TR.enumerate_tropical_graphs(m, n, r)) == size, (m, n, r)
    for shape, digest in _LISTING_DIGESTS.items():
        lines = "".join(
            json.dumps({"graph": graph.serialize(), "aut": aut}) + "\n"
            for graph, aut in TR.enumerate_tropical_graphs(*shape)
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == digest, shape


def test_impossible_shapes_return_at_once():
    """No graph has negative (9, 1, 6), (1, 9, 6) or half-integer (2, 2, 3)
    genus; the pruned walk says so without walking every branch."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "from hurwitz.tropical import enumerate_tropical_graphs as e\n"
        "for shape in [(9, 1, 6), (1, 9, 6), (2, 2, 3)]:\n"
        "    assert e(*shape) == (), shape\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=30, check=True
    )


@pytest.mark.parametrize("order", [1, -1])
def test_disconnected_graph_is_rejected(order):
    """A join and a cut side by side pass every degree check but form two
    components; the edge order does not matter."""
    edges = (
        (("s", 1), ("v", 1)), (("s", 2), ("v", 1)), (("v", 1), ("t", 1)),
        (("s", 3), ("v", 2)), (("v", 2), ("t", 2)), (("v", 2), ("t", 3)),
    )[::order]
    with pytest.raises(ValueError, match="tropical graphs must be connected"):
        TR.TropicalGraph(3, 3, 2, edges)


def test_flows_join_then_cut():
    params = hurwitz_params(0, (2, 1), (2, 1))
    graphs = TR.enumerate_tropical_graphs(2, 2, 2)
    join_first = next(
        g for g, _ in graphs if (("s", 1), ("v", 1)) in g.edges and (("s", 2), ("v", 1)) in g.edges
    )
    flows = TR.flow_lattice_points(join_first, params.mu, params.nu)
    assert len(flows) == 1
    mg = TR.MonodromyGraph(join_first, flows[0], params)
    assert tropical_multiplicity(mg) == 3


def test_flows_genus_one():
    params = hurwitz_params(1, (2,), (2,))
    ((graph, _),) = TR.enumerate_tropical_graphs(1, 1, 2)
    flows = TR.flow_lattice_points(graph, params.mu, params.nu)
    assert len(flows) == 1
    mg = TR.MonodromyGraph(graph, flows[0], params)
    assert tropical_multiplicity(mg) == 1
    interior = graph.interior_edge_indices()
    assert sorted(flows[0][k] for k in interior) == [1, 1]


def test_tree_flows_are_forced():
    for graph, _ in TR.enumerate_tropical_graphs(2, 2, 2):
        if graph.first_betti() == 0:
            for mu, nu in [((2, 1), (2, 1)), ((3, 1), (2, 2)), ((4, 2), (3, 3))]:
                flows = TR.flow_lattice_points(graph, Partition(mu), Partition(nu))
                assert len(flows) <= 1


def test_flows_satisfy_polytope():
    params = hurwitz_params(0, (3, 2), (4, 1))
    for graph, _ in TR.enumerate_tropical_graphs(2, 2, 2):
        flows = TR.flow_lattice_points(graph, params.mu, params.nu)
        for f in flows:
            TR.MonodromyGraph(graph, f, params)  # raises unless conserved
        # brute force over interior values: keep every candidate that
        # constructs as a monodromy graph
        interior = graph.interior_edge_indices()
        brute = []
        for vals in itertools.product(range(1, params.d + 1), repeat=len(interior)):
            cand = [None] * len(graph.edges)
            for k, (tail, head) in enumerate(graph.edges):
                if tail[0] == "s":
                    cand[k] = params.mu[tail[1] - 1]
                elif head[0] == "t":
                    cand[k] = params.nu[head[1] - 1]
            for k, v in zip(interior, vals):
                cand[k] = v
            try:
                TR.MonodromyGraph(graph, tuple(cand), params)
            except ValueError:
                continue
            brute.append(tuple(cand))
        assert sorted(brute) == sorted(flows)


def test_multiplicity_no_interior_edges():
    params = hurwitz_params(0, (1, 1), (2,))
    ((graph, _),) = TR.enumerate_tropical_graphs(2, 1, 1)
    flows = TR.flow_lattice_points(graph, params.mu, params.nu)
    mg = TR.MonodromyGraph(graph, flows[0], params)
    assert tropical_multiplicity(mg) == 1


@pytest.mark.parametrize(
    "g,mu,nu,value",
    [
        (0, (2, 1), (2, 1), Fraction(4)),
        (1, (2,), (2,), Fraction(1, 2)),
        (0, (1, 1), (2,), Fraction(1)),
    ],
)
def test_count_examples(g, mu, nu, value):
    assert TR.count_hurwitz_tropical(hurwitz_params(g, mu, nu)) == value


def test_count_rejects_r_zero():
    with pytest.raises(RZero):
        TR.count_hurwitz_tropical(hurwitz_params(0, (4,), (4,)))


def test_count_agrees_with_permutations(small_params):
    for params in small_params:
        assert TR.count_hurwitz_tropical(params) == P.count_hurwitz_permutation(
            params
        ), params


def test_count_is_the_sum_over_graphs_and_lattice_points():
    """The class sum equals the sum over every listed graph and each of its
    flow vectors of multiplicity / |Aut(graph)|, and each class's
    multiplicity is the reference product of interior flows."""
    for params in all_params(4, 4):
        direct = Fraction(0)
        for graph, aut in TR.enumerate_tropical_graphs(params.m, params.n, params.r):
            for flows in TR.flow_lattice_points(graph, params.mu, params.nu):
                mg = TR.MonodromyGraph(graph, flows, params)
                direct += Fraction(tropical_multiplicity(mg), aut)
        assert TR.count_hurwitz_tropical(params) == direct, params
        for mg, _ in TR.monodromy_graph_classes(params):
            assert mg.multiplicity() == tropical_multiplicity(mg)


@st.composite
def tropical_hurwitz_data(draw):
    """(g, mu, nu) with d <= 6 and 1 <= r <= 5, parts in arbitrary order."""
    d = draw(st.integers(1, 6))
    mu = draw(st.sampled_from(descending_partitions(d)))
    nu = draw(
        st.sampled_from(
            [p for p in descending_partitions(d) if len(p) <= 7 - len(mu)]
        )
    )
    base = len(mu) + len(nu) - 2
    g = draw(st.sampled_from([g for g in range(3) if 1 <= 2 * g + base <= 5]))
    return g, tuple(draw(st.permutations(mu))), tuple(draw(st.permutations(nu)))


@settings(max_examples=40, deadline=None)
@given(tropical_hurwitz_data())
@example((0, (1,) * 6, (6,)))
@example((0, (6,), (1,) * 6))
@example((0, (1, 2, 1, 1), (2, 1, 2)))
def test_count_matches_permutations_on_shuffled_parts(data):
    """Sources and sinks are labeled, so any order of the parts, repeated
    parts included, gives the permutation count."""
    g, mu, nu = data
    params = hurwitz_params(g, mu, nu)
    assert TR.count_hurwitz_tropical(params) == P.count_hurwitz_permutation(params)


def test_monodromy_graph_classes_two_two():
    params = hurwitz_params(0, (2, 1), (2, 1))
    classes = TR.monodromy_graph_classes(params)
    assert len(classes) == 2
    total = sum(
        Fraction(tropical_multiplicity(mg), aut) for mg, aut in classes
    )
    assert total == Fraction(4)


def test_conservation_across_prefix_cuts():
    for g, mu, nu in [(0, (2, 1), (2, 1)), (1, (2, 1), (3,)), (1, (2,), (2,))]:
        params = hurwitz_params(g, mu, nu)
        for mg, _ in TR.monodromy_graph_classes(params):
            for k in range(params.r + 1):
                crossing = 0
                group_a = {("s", i) for i in range(1, params.m + 1)}
                group_a |= {("v", i) for i in range(1, k + 1)}
                for (tail, head), f in zip(mg.graph.edges, mg.flows):
                    if tail in group_a and head not in group_a:
                        crossing += f
                    if head in group_a and tail not in group_a:
                        crossing -= f
                assert crossing == params.d


def test_tropicalize_genus_one():
    params = hurwitz_params(1, (2,), (2,))
    hrg, _ = R.hurwitz_ribbon_classes(params)[0]
    mg = tropicalize(hrg)
    assert mg.graph.first_betti() == 1
    interior = mg.graph.interior_edge_indices()
    assert sorted(mg.flows[k] for k in interior) == [1, 1]


def test_tropicalize_single_join():
    params = hurwitz_params(0, (1, 1), (2,))
    hrg, _ = R.hurwitz_ribbon_classes(params)[0]
    mg = tropicalize(hrg)
    assert mg.graph.interior_edge_indices() == []
    assert sorted(mg.flows) == [1, 1, 2]


def test_tropicalize_betti_equals_genus(small_params):
    for params in small_params[:25]:
        for hrg, _ in R.hurwitz_ribbon_classes(params):
            mg = tropicalize(hrg)
            assert mg.graph.first_betti() == params.g
            assert hrg.skeleton.genus() == params.g


def test_tropicalize_cut_join_sequence_matches_chain():
    params = hurwitz_params(0, (2, 2), (3, 1))
    for hrg, _ in R.hurwitz_ribbon_classes(params):
        ms = T.ribbon_to_monodromy(hrg, T.canonical_ticks(hrg))
        events = chain_events(ms)
        mg = tropicalize(hrg)
        for i, ev in enumerate(events, start=1):
            out_deg = sum(1 for t, h in mg.graph.edges if t == ("v", i))
            assert out_deg == (2 if ev.kind == "cut" else 1)


def test_tropicalization_matrix_genus_one():
    params = hurwitz_params(1, (2,), (2,))
    skel = R.hurwitz_ribbon_classes(params)[0][0].skeleton
    graph, rows = T.tropicalization_matrix(T.step_circles(skel))
    interior = graph.interior_edge_indices()
    supports = [tuple(k for k, c in enumerate(rows[e]) if c) for e in interior]
    assert len(supports) == 2
    assert not (set(supports[0]) & set(supports[1]))
    assert all(len(s) == 2 for s in supports)


def test_tropicalization_matrix_boundary_rows_are_balancing_sums():
    params = hurwitz_params(0, (2, 1), (2, 1))
    for hrg, _ in R.hurwitz_ribbon_classes(params):
        skel = hrg.skeleton
        graph, rows = T.tropicalization_matrix(T.step_circles(skel))
        white_rows = {}
        for (tail, head), row in zip(graph.edges, rows):
            if tail[0] == "s":
                white_rows[tail[1]] = row
        for orbit, color, lab in zip(
            skel.map.face_orbits, skel.face_color, skel.face_label
        ):
            if color != "white":
                continue
            edge_index = {e: k for k, e in enumerate(skel.edges())}
            counts = [0] * len(skel.edges())
            inv = skel.map.edge_involution
            for x in orbit:
                e = (x, inv[x]) if x < inv[x] else (inv[x], x)
                counts[edge_index[e]] += 1
            assert tuple(counts) == white_rows[lab]


def test_matrix_maps_weights_to_flows(small_params):
    for params in small_params[:20]:
        T.fiber_check(params)  # raises InconsistentFiber on failure


def test_aggregate_fiber_identity():
    for g, mu, nu in [(0, (2, 1), (2, 1)), (1, (2,), (2,)), (0, (2, 2), (3, 1)), (1, (2, 1), (2, 1))]:
        params = hurwitz_params(g, mu, nu)
        groups = T.fiber_check(params)
        tropical_by_form = {}
        for graph, aut in TR.enumerate_tropical_graphs(params.m, params.n, params.r):
            total = Fraction(0)
            for flows in TR.flow_lattice_points(graph, params.mu, params.nu):
                mult = 1
                for k in graph.interior_edge_indices():
                    mult *= flows[k]
                total += Fraction(mult, aut)
            if total:
                tropical_by_form[graph.canonical_form()] = total
        ribbon_by_form = {
            form: sum(Fraction(1, aut) for _, aut, _ in members)
            for form, members in groups.items()
        }
        assert ribbon_by_form == tropical_by_form, (g, mu, nu)


@pytest.mark.parametrize(
    "cases,flow_classes",
    [
        (lambda: all_params(4, 4), 655),
        # r = 6, beyond the ribbon method's range
        (lambda: [hurwitz_params(2, (3, 1), (2, 2))], 200),
        (lambda: [hurwitz_params(2, (2, 1), (2, 1)), hurwitz_params(2, (4,), (2, 1, 1))], 242),
    ],
    ids=["d4-r4", "r6", "r6-two-more"],
)
def test_per_flow_identity_on_the_chain_side(cases, flow_classes):
    """The monodromy classes whose chains collapse to one monodromy graph
    (T, f) weigh prod(interior flows of f) / |Stab f| in total."""
    checked = 0
    for params in cases():
        chain_side = {}
        for ms, aut in P.monodromy_classes(params):
            key = T.monodromy_graph_of_chain(ms).canonical_form()
            chain_side[key] = chain_side.get(key, 0) + Fraction(1, aut)
        graph_side = {
            mg.canonical_form(): Fraction(tropical_multiplicity(mg), mg.aut_order())
            for mg, _ in TR.monodromy_graph_classes(params)
        }
        assert chain_side == graph_side, params
        checked += len(graph_side)
    assert checked == flow_classes


def test_flow_stabilizer_by_orbit_stabilizer(small_params):
    """Aut(T) permutes the flow vectors of T, and an orbit is the set of
    vectors of one canonical form, so each class's aut_order is |Aut T| over
    the number of vectors of its form."""
    checked = nontrivial = 0
    for params in small_params:
        orbits = {}  # canonical form -> [|Aut T|, number of flow vectors]
        for graph, graph_aut in TR.enumerate_tropical_graphs(params.m, params.n, params.r):
            for flows in TR.flow_lattice_points(graph, params.mu, params.nu):
                form = TR.MonodromyGraph(graph, flows, params).canonical_form()
                orbits.setdefault(form, [graph_aut, 0])[1] += 1
        for mg, aut in TR.monodromy_graph_classes(params):
            graph_aut, size = orbits.pop(mg.canonical_form())
            assert aut == mg.aut_order() and aut * size == graph_aut, params
            checked += 1
            nontrivial += aut > 1
        assert not orbits, params
    assert checked and nontrivial


@functools.lru_cache(maxsize=None)
def _classes_d4_r4():
    return [mg for params in all_params(4, 4) for mg, _ in TR.monodromy_graph_classes(params)]


@st.composite
def reordered_class(draw):
    """A monodromy graph class with d <= 4 and r <= 4, and the same graph
    with its edges, flows alongside, listed in another order."""
    mg = draw(st.sampled_from(_classes_d4_r4()))
    order = draw(st.permutations(range(len(mg.flows))))
    g = mg.graph
    graph = TR.TropicalGraph(g.m, g.n, g.r, tuple(g.edges[k] for k in order))
    return mg, TR.MonodromyGraph(graph, tuple(mg.flows[k] for k in order), mg.params)


@settings(max_examples=100, deadline=None)
@given(reordered_class())
def test_canonical_form_and_aut_ignore_edge_order(data):
    mg, moved = data
    assert moved.canonical_form() == mg.canonical_form()
    assert moved.aut_order() == mg.aut_order()
    assert moved.graph.canonical_form() == mg.graph.canonical_form()
    assert moved.graph.aut_order() == mg.graph.aut_order()


def test_serialization():
    params = hurwitz_params(0, (2, 1), (2, 1))
    mg, _ = TR.monodromy_graph_classes(params)[0]
    doc = mg.serialize()
    assert doc["sources"] == 2 and doc["sinks"] == 2 and doc["internal"] == 2
    assert all({"tail", "head", "flow"} <= set(e) for e in doc["edges"])
    dot = mg.to_dot()
    assert "digraph" in dot and "->" in dot
