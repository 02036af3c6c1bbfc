"""Brute-force references the library is checked against.

Isomorphism of monodromy sets: the library decides it through one canonical
form, the rotation orbit of the aligned set
(``permutation.monodromy_class_key``, ``monodromy_classes``); the tests check
keys and automorphism orders against the direct conjugation search kept
here.  The ribbon-graph reference, a scan over every vertex phase, is
``brute_force_skeletons`` in test_ribbon.py.

Rank: ``rank`` re-eliminates a whole matrix from scratch, the reference for
the incremental elimination in ``chambers.eliminate``.

Cut-join events (``apply_transposition``, ``chain_events``) and edge
lengths are worked out here directly, for tests that check the library's
counts against them.

Weight polytopes: the library checks a weighting against a skeleton's face
sums and positivity bounds in one pass over the edges
(``HurwitzRibbonGraph``); ``weight_polytope`` states the same conditions as
explicit rows (face-edge incidences with right-hand sides mu and nu) plus
per-edge lower bounds, built from the skeleton's public data only.

Weightings: the library lists a table record's weightings per (white face,
gray face) cell (``ribbon._cell_weightings``); ``solve_rows`` lists them by a
depth-first search over single darts, and ``lattice_points`` by a box scan.

Chain completions: the library lists the transposition chains from one
sigma_0 by a pruned walk (``permutation._completions``);
``brute_force_completions`` scans every r-tuple of transpositions.

Translation helpers for tests: ``ribbon_to_chain`` (the sigma chain of a
weighted ribbon graph), ``relabeled`` (a tick assignment under a bijection),
``tropicalize`` (the monodromy graph of a weighted ribbon graph's chain;
``traffic.fiber_check`` builds the same graphs from shared step circles)
and ``tropical_multiplicity`` (product of interior flows).

Medial construction: ``medial_graph`` builds the 4-valent map of a map with
labeled vertices, faces and edges (``LabeledMap``) through the public
``ribbon.medial_map`` and ``ribbon.medial_skeleton``, the one builder behind
every table skeleton and every graph ``traffic.chain_to_ribbon`` rebuilds.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from hurwitz import permutation as P
from hurwitz import ribbon as R
from hurwitz import traffic as T


def conjugate(p, g):
    """g^-1 . p . g."""
    return P.compose(P.inverse(g), P.compose(p, g))


def conjugation_candidates(a, b):
    """Permutations g that could satisfy g^-1 . a . g = b entrywise.

    Conjugation by g sends the cycle (c_0 c_1 ...) to (g^-1(c_0) g^-1(c_1) ...),
    so g must map b.sigma0's cycle labeled i onto a.sigma0's, preserving cyclic
    order; one rotation choice per labeled cycle.
    """
    d = a.params.d
    a_cycles = a.sigma0.cycles_by_label
    b_cycles = b.sigma0.cycles_by_label
    if tuple(len(c) for c in a_cycles) != tuple(len(c) for c in b_cycles):
        return
    for shifts in itertools.product(*(range(len(c)) for c in a_cycles)):
        g = [None] * d
        for ca, cb, s in zip(a_cycles, b_cycles, shifts):
            k = len(ca)
            for t in range(k):
                g[cb[t]] = ca[(t + s) % k]
        yield tuple(g)


def _conjugates_onto(a, b, g) -> bool:
    if conjugate(a.sigma0.perm, g) != b.sigma0.perm:
        return False
    if any(conjugate(ta, g) != tb for ta, tb in zip(a.taus, b.taus)):
        return False
    if conjugate(a.sigma_inf.perm, g) != b.sigma_inf.perm:
        return False
    ginv = P.inverse(g)
    return all(
        tuple(sorted(ginv[x] for x in ca)) == tuple(sorted(cb))
        for ca, cb in zip(a.sigma_inf.cycles_by_label, b.sigma_inf.cycles_by_label)
    )


def are_isomorphic(a, b) -> bool:
    """True iff some g in S_d conjugates every entry of a onto the
    corresponding entry of b, preserving cycle labels on both ends."""
    if a.params != b.params:
        raise ValueError("isomorphism is only defined at equal parameters")
    return any(_conjugates_onto(a, b, g) for g in conjugation_candidates(a, b))


def automorphism_order(ms) -> int:
    """Order of the group of label-preserving self-conjugations."""
    return sum(1 for g in conjugation_candidates(ms, ms) if _conjugates_onto(ms, ms, g))


def rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination of the whole matrix."""
    mat = [list(map(Fraction, row)) for row in rows]
    rk = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rk, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        pv = mat[rk][c]
        mat[rk] = [x / pv for x in mat[rk]]
        for i in range(len(mat)):
            if i != rk and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rk])]
        rk += 1
    return rk


def all_transpositions(d: int) -> list:
    """All d(d-1)/2 transpositions, ordered by (i, j)."""
    return [P.transposition(d, i, j) for i, j in itertools.combinations(range(d), 2)]


def brute_force_completions(sigma0, params) -> list:
    """Every (pairs, sigma_r) completing sigma0 to a transitive chain ending
    in type nu, tau_k given as its moved points (i, j), i < j, by a scan of
    all r-tuples of transpositions in lexicographic order of their pairs."""
    d, want = params.d, params.nu.sorted_desc()
    moves = list(itertools.combinations(range(d), 2))
    out = []
    for pairs in itertools.product(moves, repeat=params.r):
        taus = [P.transposition(d, i, j) for i, j in pairs]
        sigma = sigma0
        for t in taus:
            sigma = P.compose(t, sigma)
        if P.cycle_type(sigma).sorted_desc() != want:
            continue
        if P.is_transitive([sigma0, *taus], d):
            out.append((pairs, sigma))
    return out


@dataclass(frozen=True)
class CutJoinEvent:
    """Effect of one transposition: 'join' merges a k- and an l-cycle, 'cut'
    splits a (k+l)-cycle into a k- and an l-cycle."""

    kind: str  # 'cut' | 'join'
    lengths: tuple  # (k, l), descending


def apply_transposition(sigma, tau):
    """Return (tau . sigma, event): join if the two moved points lie in
    distinct cycles of sigma, cut if in the same one."""
    moved = [x for x, y in enumerate(tau) if x != y]
    if len(moved) != 2:
        raise ValueError("tau must be a transposition")
    i, j = moved
    cs = P.cycles(sigma)
    ci = next(c for c in cs if i in c)
    cj = next(c for c in cs if j in c)
    product = P.compose(tau, sigma)
    if ci is cj:
        parts = sorted(
            (len(c) for c in P.cycles(product) if set(c) <= set(ci)), reverse=True
        )
        return product, CutJoinEvent("cut", tuple(parts))
    return product, CutJoinEvent("join", tuple(sorted((len(ci), len(cj)), reverse=True)))


def chain_events(ms) -> list:
    """The cut/join event of each step of the sigma chain."""
    out = []
    sigma = ms.sigma0.perm
    for t in ms.taus:
        sigma, event = apply_transposition(sigma, t)
        out.append(event)
    return out


def ribbon_to_chain(hrg, ticks) -> list:
    """The permutations sigma_0..sigma_r on the tick set."""
    return P.sigma_chain(T.ribbon_to_monodromy(hrg, ticks))


def relabeled(ticks, pi):
    """The tick assignment with a bijection pi applied to every identifier."""
    return T.TickAssignment(
        tuple(tuple(pi[t] for t in ts) for ts in ticks.per_edge)
    )


def tropicalize(hrg):
    """The monodromy graph of a weighted ribbon graph's chain from its
    canonical ticks: each circle of the step walks becomes a tropical edge
    whose flow is the circle's total weight (its number of tick marks)."""
    ms = T.ribbon_to_monodromy(hrg, T.canonical_ticks(hrg))
    return T.monodromy_graph_of_chain(ms)


def tropical_multiplicity(mg) -> int:
    """Product of the flows over interior edges; 1 if there are none."""
    out = 1
    for k in mg.graph.interior_edge_indices():
        out *= mg.flows[k]
    return out


def edge_length(w: int, i: int, j: int, r: int) -> Fraction:
    """Length of an edge of weight w from vertex i to vertex j, in units of
    2*pi: w + (j - i)/r.  Positivity of a weighting is equivalent to every
    edge having positive length."""
    if not (1 <= i <= r and 1 <= j <= r):
        raise ValueError("vertex labels must lie in 1..r")
    return Fraction(w) + Fraction(j - i, r)


def edge_lengths(hrg) -> list:
    """edge_length of every edge of a weighted ribbon graph, in edge order."""
    skel = hrg.skeleton
    return [
        edge_length(w, *skel.natural_orientation(e), skel.r)
        for w, e in zip(hrg.weights, skel.edges())
    ]


@dataclass(frozen=True)
class WeightPolytope:
    """Balancing equalities plus per-edge lower bounds for one skeleton.

    rows: (coefficients over the edge index set, right-hand side); an edge
    incident to the same face twice would contribute coefficient 2 (cannot
    happen on a bicolored map, but the construction counts incidences).
    lower: 1 for edges whose natural orientation runs i -> j with i >= j,
    else 0.
    """

    num_edges: int
    rows: tuple  # ((coeffs...), rhs)
    lower: tuple

    def contains(self, w) -> bool:
        if len(w) != self.num_edges:
            return False
        if any(x < lo for x, lo in zip(w, self.lower)):
            return False
        return all(
            sum(c * x for c, x in zip(coeffs, w)) == rhs for coeffs, rhs in self.rows
        )


def weight_polytope(skel, mu, nu) -> WeightPolytope:
    """The weight polytope of a skeleton: one row per white face k (right-hand
    side mu_k), then one per gray face k (nu_k); edges indexed like
    skel.edges()."""
    edges = skel.edges()
    counts = [[0] * len(edges) for _ in skel.face_color]
    for k, e in enumerate(edges):
        for x in e:
            counts[skel.face_of_dart[x]][k] += 1
    faces = sorted(zip(skel.face_color, skel.face_label, map(tuple, counts)))
    whites = [row for col, _, row in faces if col == "white"]
    grays = [row for col, _, row in faces if col == "gray"]
    if len(mu) != len(whites) or len(nu) != len(grays):
        raise ValueError("partition lengths must match face counts")
    lower = tuple(int(i >= j) for i, j in map(skel.natural_orientation, edges))
    rows = tuple(zip(whites, mu)) + tuple(zip(grays, nu))
    return WeightPolytope(len(edges), rows, lower)


def lattice_points(poly) -> list:
    """Every integer point of a weight polytope, in lexicographic order, by a
    scan of the box from the lower bounds up to the largest right-hand side."""
    top = max(rhs for _, rhs in poly.rows)
    box = [range(lo, top + 1) for lo in poly.lower]
    return [w for w in itertools.product(*box) if poly.contains(w)]


def solve_rows(num_edges: int, rows, lower) -> list:
    """Every integer w >= lower with the given row sums, in lexicographic
    order: a bounded DFS over edge values in index order with per-row
    budgets."""
    row_of_edge = [[] for _ in range(num_edges)]
    for ri, (coeffs, rhs) in enumerate(rows):
        for k, c in enumerate(coeffs):
            if c:
                row_of_edge[k].append((ri, c))
    remaining = [rhs for _, rhs in rows]
    # future demand per row: sum of lower bounds of unassigned edges
    future_lb = [0] * len(rows)
    future_cnt = [0] * len(rows)
    for k in range(num_edges):
        for ri, c in row_of_edge[k]:
            future_lb[ri] += c * lower[k]
            future_cnt[ri] += 1
    out = []
    w = [0] * num_edges

    def rec(k: int):
        if k == num_edges:
            if all(v == 0 for v in remaining):
                out.append(tuple(w))
            return
        hi = None
        for ri, c in row_of_edge[k]:
            cap = (remaining[ri] - (future_lb[ri] - c * lower[k])) // c
            hi = cap if hi is None else min(hi, cap)
        if hi is None:
            hi = 0  # edge on no row: impossible for valid skeletons
        for ri, c in row_of_edge[k]:
            future_lb[ri] -= c * lower[k]
            future_cnt[ri] -= 1
        for val in range(lower[k], hi + 1):
            ok = True
            for ri, c in row_of_edge[k]:
                remaining[ri] -= c * val
                if remaining[ri] < 0 or (future_cnt[ri] == 0 and remaining[ri] != 0):
                    ok = False
            if ok:
                w[k] = val
                rec(k + 1)
            for ri, c in row_of_edge[k]:
                remaining[ri] += c * val
        for ri, c in row_of_edge[k]:
            future_lb[ri] += c * lower[k]
            future_cnt[ri] += 1
        w[k] = 0

    rec(0)
    return out


@dataclass(frozen=True)
class LabeledMap:
    """A connected map with labeled vertices (1..m), faces (1..n) and edges
    (1..r); the input of the medial construction."""

    map: R.CombinatorialMap
    vertex_label: tuple  # per dart
    face_label: tuple  # aligned with map.face_orbits
    edge_label: tuple  # aligned with map.edges()

    def __post_init__(self):
        m = self.map
        if not m.connected:
            raise ValueError("the map must be connected")
        for v in m.vertex_orbits:
            if len({self.vertex_label[x] for x in v}) != 1:
                raise ValueError("vertex labels must be constant on vertices")
        nv = len(m.vertex_orbits)
        if sorted(set(self.vertex_label)) != list(range(1, nv + 1)):
            raise ValueError("vertex labels must be a bijection onto 1..m")
        if sorted(self.face_label) != list(range(1, len(m.face_orbits) + 1)):
            raise ValueError("face labels must be a bijection onto 1..n")
        if sorted(self.edge_label) != list(range(1, len(m.edges()) + 1)):
            raise ValueError("edge labels must be a bijection onto 1..r")


def medial_graph(gm: LabeledMap) -> R.MNRRibbonGraph:
    """The medial map: one 4-valent vertex per edge of the input, one edge per
    corner, white faces from input vertices, gray faces from input faces.

    Corner c_a sits between dart a and rotation(a) at their common vertex; its
    medial edge joins the midpoints of edge(a) and edge(rotation(a)).
    """
    base = gm.map
    edges = base.edges()
    # renumber input darts so edge labeled k+1 owns darts 2k, 2k+1
    old = []  # the input dart behind each new dart
    for i in sorted(range(len(edges)), key=lambda i: gm.edge_label[i]):
        old.extend(edges[i])
    new = {x: a for a, x in enumerate(old)}
    # the white face through in-dart 2a+1 is the boundary of the input vertex
    # carrying a; the gray face through out-dart 2a is the input face whose
    # orbit contains the partner dart of a
    inv = base.edge_involution
    return R.medial_skeleton(
        R.medial_map(tuple(new[base.rotation[x]] for x in old)),
        [gm.vertex_label[x] for x in old],
        [gm.face_label[base.face_of_dart[inv[x]]] for x in old],
    )
