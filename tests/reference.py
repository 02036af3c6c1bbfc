"""Brute-force references the library is checked against.

Isomorphism of monodromy sets: the library decides it through one canonical
form, the rotation orbit of the aligned set
(``permutation.monodromy_class_key``, ``monodromy_classes``); the tests check
keys and automorphism orders against the direct conjugation search kept
here.  The ribbon-graph reference, a scan over every vertex phase, is
``brute_force_skeletons`` in test_ribbon.py.

Rank: ``rank`` re-eliminates a whole matrix from scratch, the reference for
the incremental elimination in ``chambers.eliminate``.
"""

import itertools
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
