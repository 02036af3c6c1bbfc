"""Brute-force references the library is checked against.

Isomorphism of monodromy sets: the library decides it through one canonical
form, the rotation orbit of the aligned set
(``permutation.monodromy_class_key``, ``monodromy_classes``); the tests check
keys and automorphism orders against the direct conjugation search kept
here.  The ribbon-graph reference, a scan over every vertex phase, is
``brute_force_skeletons`` in test_ribbon.py.

Rank: ``rank`` re-eliminates a whole matrix from scratch, the reference for
the incremental elimination in ``chambers.eliminate``.

Cut-join events (``apply_transposition``, ``chain_events``), edge lengths
and the lattice points of a weight polytope are worked out here directly,
for tests that check the library's counts and polytopes against them.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from hurwitz import permutation as P


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


def lattice_points(poly) -> list:
    """Every integer point of a weight polytope, in lexicographic order, by a
    scan of the box from the lower bounds up to the largest right-hand side."""
    top = max(rhs for _, rhs in poly.rows)
    box = [range(lo, top + 1) for lo in poly.lower]
    return [w for w in itertools.product(*box) if poly.contains(w)]
