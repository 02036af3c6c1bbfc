"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION line on success; tolerances are exact
(all arithmetic is over Fraction), and the sweeps below run at the stated
desk-scale bounds.
"""

import itertools
import time
from fractions import Fraction

import pytest

from hurwitz.core import Partition, hurwitz_params
from hurwitz import chambers as C
from hurwitz import permutation as P
from hurwitz import ribbon as R
from hurwitz import traffic as T
from hurwitz import tropical as TR

from conftest import all_params
from reference import apply_transposition, tropical_multiplicity, tropicalize


def _announce(k, detail):
    print(f"\nCRITERION {k}: PASS — {detail}")


def test_criterion_1_oracle_values():
    cases = [
        (0, (1, 1), (2,), Fraction(1)),
        (1, (2,), (2,), Fraction(1, 2)),
        (0, (2, 1), (2, 1), Fraction(4)),
        (0, (3,), (1, 1, 1), Fraction(6)),
    ]
    for d in range(1, 7):
        cases.append((0, (d,), (d,), Fraction(1, d)))
    for g, mu, nu, want in cases:
        t0 = time.perf_counter()
        got = P.count_hurwitz_permutation(hurwitz_params(g, mu, nu))
        elapsed = time.perf_counter() - t0
        assert got == want, (g, mu, nu, got, want)
        assert elapsed < 1.0, f"{(g, mu, nu)} took {elapsed:.2f}s"
    _announce(1, f"{len(cases)} oracle values exact, each under 1s")


def test_criterion_2_triple_agreement_sweep():
    t0 = time.perf_counter()
    params_list = all_params(5, 5)
    for params in params_list:
        a = P.count_hurwitz_permutation(params)
        b = R.count_hurwitz_ribbon(params)
        c = TR.count_hurwitz_tropical(params)
        assert a == b == c, (params, a, b, c)
    elapsed = time.perf_counter() - t0
    _announce(
        2,
        f"permutation = ribbon = tropical on {len(params_list)} parameter sets "
        f"(d <= 5, r <= 5) in {elapsed:.0f}s",
    )


def test_criterion_3_roundtrip_bijectivity():
    params_list = all_params(4, 5)
    total_classes = 0
    for params in params_list:
        rep = T.roundtrip_check(params)
        assert rep.matched, rep.serialize()
        total_classes += rep.classes_ribbon
    _announce(
        3,
        f"chain/ribbon translation bijective with matching |Aut| on "
        f"{len(params_list)} parameter sets, {total_classes} classes (d <= 4, r <= 5)",
    )


def test_criterion_4_cut_join_counting():
    checked = 0
    for d in range(2, 9):
        for k in range(1, d):
            l = d - k
            if k > l:
                continue
            base = P.canonical_perm_of_type(Partition((k, l)))
            joins = 0
            for i, j in itertools.combinations(range(d), 2):
                _, ev = apply_transposition(base, P.transposition(d, i, j))
                if ev.kind == "join" and ev.lengths == tuple(
                    sorted((k, l), reverse=True)
                ):
                    joins += 1
            assert joins == P.cut_join_count(k, l, "join"), (k, l)
            cyc = P.canonical_perm_of_type(Partition((d,)))
            cuts = 0
            for i, j in itertools.combinations(range(d), 2):
                _, ev = apply_transposition(cyc, P.transposition(d, i, j))
                if ev.kind == "cut" and ev.lengths == tuple(
                    sorted((k, l), reverse=True)
                ):
                    cuts += 1
            assert cuts == P.cut_join_count(k, l, "cut"), (k, l)
            checked += 1
    _announce(4, f"join/cut transposition counts match brute force for {checked} (k, l) shapes, d <= 8")


def test_criterion_5_genus_coherence():
    count = 0
    for params in all_params(4, 5):
        for hrg, _ in R.hurwitz_ribbon_classes(params):
            assert hrg.skeleton.genus() == params.g
            mg = tropicalize(hrg)
            assert mg.graph.first_betti() == params.g
            count += 1
    _announce(
        5,
        f"map genus = g = tropical Betti number on {count} weighted ribbon classes (d <= 4)",
    )


def test_criterion_6_piecewise_polynomiality():
    t0 = time.perf_counter()
    fits = C.fit_all_chambers(0, 2, 2, dmax=10)
    assert len(fits) == 4
    for cp in fits:
        assert cp.holdout_passed
        assert cp.degree() <= 1
    assert len({tuple(cp.coefficients) for cp in fits}) > 1
    (cubic,) = C.fit_all_chambers(1, 1, 1, dmax=8)
    assert cubic.holdout_passed and cubic.degree() <= 3
    elapsed = time.perf_counter() - t0
    _announce(
        6,
        f"exact degree<=1 fits in all 4 chambers of (g=0, m=n=2) with distinct "
        f"polynomials, and a degree<=3 fit for (g=1, m=n=1), in {elapsed:.0f}s",
    )


def test_criterion_7_wall_detection():
    walls = C.walls(2, 2)
    assert {w.describe() for w in walls} == {"mu1=nu1", "mu1=nu2"}
    for nu1 in range(1, 8):
        nu = (nu1, 8 - nu1)
        values = {}
        for mu1 in range(1, 8):
            values[mu1] = P.count_hurwitz_permutation(
                hurwitz_params(0, (mu1, 8 - mu1), nu)
            )
        observed = {
            t
            for t in range(2, 7)
            if values[t + 1] - 2 * values[t] + values[t - 1] != 0
        }
        expected = set()
        for w in walls:
            # solve w's functional = 0 on the line mu = (t, 8-t)
            for t in range(2, 7):
                if w.functional(Partition((t, 8 - t)), Partition(nu)) == 0:
                    expected.add(t)
        assert observed == expected, (nu, values)
    _announce(
        7,
        "empirical breakpoints of H_0 on the d = 8 line coincide exactly with "
        "the computed walls, and nowhere else",
    )


def test_criterion_8_aggregate_tropicalization_identity():
    checked = flow_classes = 0
    for params in all_params(5, 5):
        groups = T.fiber_check(params)  # InconsistentFiber would fail here
        tropical_sums = {}
        for graph, aut in TR.enumerate_tropical_graphs(params.m, params.n, params.r):
            total = Fraction(0)
            for flows in TR.flow_lattice_points(graph, params.mu, params.nu):
                mult = 1
                for k in graph.interior_edge_indices():
                    mult *= flows[k]
                total += Fraction(mult, aut)
            if total:
                tropical_sums[graph.canonical_form()] = total
        ribbon_sums = {
            form: sum(Fraction(1, aut) for _, aut, _ in members)
            for form, members in groups.items()
        }
        assert ribbon_sums == tropical_sums, params
        checked += len(ribbon_sums)
        # per flow class (T, f): the ribbon classes whose chains tropicalize
        # to it weigh prod(interior flows of f) / |Aut(T, f)|
        ribbon_flow_sums = {}
        for members in groups.values():
            for _, aut, mg in members:
                form = mg.canonical_form()
                ribbon_flow_sums[form] = ribbon_flow_sums.get(form, 0) + Fraction(1, aut)
        tropical_flow_sums = {
            mg.canonical_form(): Fraction(tropical_multiplicity(mg), mg.aut_order())
            for mg, _ in TR.monodromy_graph_classes(params)
        }
        assert ribbon_flow_sums == tropical_flow_sums, params
        flow_classes += len(tropical_flow_sums)
    _announce(
        8,
        f"per-tropical-skeleton 1/|Aut| sums equal multiplicity/|Aut| sums "
        f"({checked} skeleton fibers), and so do the per-flow-class sums "
        f"({flow_classes} flow classes), d <= 5",
    )
