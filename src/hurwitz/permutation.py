"""Symmetric-group engine: monodromy sets and the permutation count.

A (mu, nu, g)-monodromy set is a tuple (sigma_0, tau_1, ..., tau_r, sigma_inf)
in S_d with labeled cycles on the ends, satisfying
  1. sigma_0 and sigma_inf have cycle types mu and nu, and the cycle labeled i
     has length mu_i (resp. nu_j),
  2. every tau_i is a transposition,
  3. sigma_inf . tau_r ... tau_1 . sigma_0 = identity,
  4. the entries generate a transitive subgroup of S_d.
H_g(mu, nu) is 1/d! times the number of such sets.

Permutations are tuples of images on 0..d-1 and act on the left: compose(a, b)
means "apply b, then a".  The product convention in clause 3 is one of the two
self-consistent readings; the count is independent of the choice (tested), and
this one makes sigma_i = tau_i ... tau_1 sigma_0 a chain whose successive
quotients are single transpositions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .core import HurwitzParams, Partition

Perm = tuple  # images of 0..d-1


def identity(d: int) -> Perm:
    return tuple(range(d))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: x -> a[b[x]]."""
    return tuple(a[v] for v in b)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def conjugate(p: Perm, g: Perm) -> Perm:
    """g^-1 . p . g."""
    return compose(inverse(g), compose(p, g))


def transposition(d: int, i: int, j: int) -> Perm:
    """The transposition (i j) on 0..d-1."""
    if i == j:
        raise ValueError("a transposition needs two distinct points")
    images = list(range(d))
    images[i], images[j] = j, i
    return tuple(images)


def is_transposition(p: Perm) -> bool:
    moved = [x for x, y in enumerate(p) if x != y]
    return len(moved) == 2


def cycles(p: Perm) -> list:
    """Disjoint cycles (fixed points included), each starting at its minimum,
    listed by increasing minimum."""
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s]:
            continue
        c = [s]
        seen[s] = True
        x = p[s]
        while x != s:
            c.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(c))
    return out


def cycle_type(p: Perm) -> Partition:
    """The multiset of cycle lengths, as a descending partition."""
    return Partition(sorted((len(c) for c in cycles(p)), reverse=True))


def num_cycles(p: Perm) -> int:
    seen = [False] * len(p)
    k = 0
    for s in range(len(p)):
        if not seen[s]:
            k += 1
            x = s
            while not seen[x]:
                seen[x] = True
                x = p[x]
    return k


def perm_to_cycle_string(p: Perm) -> str:
    """1-based disjoint-cycle notation, fixed points omitted, "e" for identity."""
    cs = [c for c in cycles(p) if len(c) > 1]
    if not cs:
        return "e"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cs)


def all_transpositions(d: int) -> list:
    """All d(d-1)/2 transpositions, ordered by (i, j)."""
    return [transposition(d, i, j) for i, j in itertools.combinations(range(d), 2)]


def perms_of_type(d: int, target: Partition) -> list:
    """Every permutation of the given cycle type, in lexicographic order.

    Exhaustive over S_d; meant for desk-scale d only.
    """
    want = target.sorted_desc()
    return [
        p
        for p in itertools.permutations(range(d))
        if cycle_type(p).sorted_desc() == want
    ]


def canonical_perm_of_type(mu: Partition) -> Perm:
    """One permutation of type mu whose i-th cycle is the i-th consecutive
    block of 0..d-1 (so the identity labeling is admissible)."""
    images = []
    start = 0
    for part in mu:
        block = list(range(start, start + part))
        images.extend(block[1:] + block[:1])
        start += part
    return tuple(images)


# ---------------------------------------------------------------------------
# cut-join


@dataclass(frozen=True)
class CutJoinEvent:
    """Effect of one transposition: 'join' merges a k- and an l-cycle, 'cut'
    splits a (k+l)-cycle into a k- and an l-cycle."""

    kind: str  # 'cut' | 'join'
    lengths: tuple  # (k, l), descending

    def __post_init__(self):
        if self.kind not in ("cut", "join"):
            raise ValueError(f"bad cut-join kind {self.kind!r}")
        if any(x < 1 for x in self.lengths):
            raise ValueError("cycle lengths must be >= 1")


def apply_transposition(sigma: Perm, tau: Perm):
    """Return (tau . sigma, event): join if the two moved points lie in
    distinct cycles of sigma, cut if in the same one."""
    moved = [x for x, y in enumerate(tau) if x != y]
    if len(moved) != 2:
        raise ValueError("tau must be a transposition")
    i, j = moved
    cs = cycles(sigma)
    ci = next(c for c in cs if i in c)
    cj = next(c for c in cs if j in c)
    product = compose(tau, sigma)
    if ci is cj:
        new_cycles = cycles(product)
        parts = sorted(
            (len(c) for c in new_cycles if set(c) <= set(ci)), reverse=True
        )
        event = CutJoinEvent("cut", tuple(parts))
    else:
        event = CutJoinEvent("join", tuple(sorted((len(ci), len(cj)), reverse=True)))
    return product, event


def cut_join_count(k: int, l: int, kind: str) -> int:
    """How many transpositions realize the event.

    join: k*l merge a k-cycle with an l-cycle; cut: k+l split a (k+l)-cycle
    into k and l when k != l, and k when k == l.
    """
    if k < 1 or l < 1:
        raise ValueError("cycle lengths must be >= 1")
    if kind == "join":
        return k * l
    if kind == "cut":
        return k + l if k != l else k
    raise ValueError(f"bad cut-join kind {kind!r}")


def transpositions_realizing(sigma: Perm, target: Partition) -> list:
    """All transpositions tau with cycle_type(tau . sigma) == target (as a
    multiset), found by cut-join analysis rather than scanning all of S_d.

    Returned as (i, j) pairs with i < j, sorted.
    """
    cs = cycles(sigma)
    lam = Counter(len(c) for c in cs)
    want = Counter(target.sorted_desc())
    out = set()
    if sum(want.values()) == len(cs) - 1:
        for ca, cb in itertools.combinations(cs, 2):
            t = lam.copy()
            t[len(ca)] -= 1
            t[len(cb)] -= 1
            t[len(ca) + len(cb)] += 1
            if t == want:
                out.update(
                    (i, j) if i < j else (j, i) for i in ca for j in cb
                )
    elif sum(want.values()) == len(cs) + 1:
        for c in cs:
            length = len(c)
            for k in range(1, length // 2 + 1):
                t = lam.copy()
                t[length] -= 1
                t[k] += 1
                t[length - k] += 1
                if t == want:
                    span = length // 2 if 2 * k == length else length
                    for s in range(span):
                        i, j = c[s], c[(s + k) % length]
                        out.add((i, j) if i < j else (j, i))
    return sorted(out)


# ---------------------------------------------------------------------------
# labeled permutations and monodromy sets


@dataclass(frozen=True)
class LabeledPermutation:
    """A permutation plus a bijection from its cycles to 1..k.

    cycles_by_label[i] is the cycle labeled i+1, in canonical rotation
    (minimum element first).
    """

    perm: Perm
    cycles_by_label: tuple

    def __post_init__(self):
        actual = set(cycles(self.perm))
        given = set(self.cycles_by_label)
        if actual != given or len(given) != len(self.cycles_by_label):
            raise ValueError("labels must enumerate the cycles exactly once")

    def label_lengths(self) -> tuple:
        return tuple(len(c) for c in self.cycles_by_label)

    def label_of_cycle_containing(self, x: int) -> int:
        for i, c in enumerate(self.cycles_by_label):
            if x in c:
                return i + 1
        raise ValueError(f"{x} not in any cycle")

    def serialize(self) -> str:
        """All cycles shown (length-1 included), each suffixed with [label]."""
        return "".join(
            "(" + " ".join(str(x + 1) for x in c) + ")" + f"[{i + 1}]"
            for i, c in enumerate(self.cycles_by_label)
        )


def admissible_labelings(p: Perm, target: Partition):
    """Yield every labeling of p's cycles with label i on a cycle of length
    target_i.  Empty if cycle_type(p) != target as multisets."""
    cs = cycles(p)
    by_len = {}
    for c in cs:
        by_len.setdefault(len(c), []).append(c)
    labels_by_len = {}
    for i, part in enumerate(target):
        labels_by_len.setdefault(part, []).append(i)
    if {k: len(v) for k, v in by_len.items()} != {
        k: len(v) for k, v in labels_by_len.items()
    }:
        return
    lengths = sorted(by_len)
    pools = [itertools.permutations(by_len[ln]) for ln in lengths]
    for assignment in itertools.product(*pools):
        by_label = [None] * len(target)
        for ln, cycs in zip(lengths, assignment):
            for lab, c in zip(labels_by_len[ln], cycs):
                by_label[lab] = c
        yield LabeledPermutation(p, tuple(by_label))


@dataclass(frozen=True)
class MonodromySet:
    sigma0: LabeledPermutation
    taus: tuple
    sigma_inf: LabeledPermutation
    params: HurwitzParams

    def validate(self):
        p = self.params
        if self.sigma0.label_lengths() != p.mu.parts:
            raise ValueError("sigma0 labels do not realize mu")
        if self.sigma_inf.label_lengths() != p.nu.parts:
            raise ValueError("sigma_inf labels do not realize nu")
        if len(self.taus) != p.r:
            raise ValueError(f"expected {p.r} transpositions")
        for t in self.taus:
            if not is_transposition(t):
                raise ValueError("every tau must be a transposition")
        total = self.sigma0.perm
        for t in self.taus:
            total = compose(t, total)
        total = compose(self.sigma_inf.perm, total)
        if total != identity(p.d):
            raise ValueError("product condition fails")
        gens = [self.sigma0.perm, self.sigma_inf.perm, *self.taus]
        if not is_transitive(gens, p.d):
            raise ValueError("entries do not act transitively")

    def serialize(self) -> dict:
        return {
            "sigma0": self.sigma0.serialize(),
            "taus": [perm_to_cycle_string(t) for t in self.taus],
            "sigmaInf": self.sigma_inf.serialize(),
        }


def sigma_chain(ms: MonodromySet) -> list:
    """[sigma_0, sigma_1, ..., sigma_r] with sigma_i = tau_i . sigma_{i-1}."""
    chain = [ms.sigma0.perm]
    for t in ms.taus:
        chain.append(compose(t, chain[-1]))
    return chain


def chain_events(ms: MonodromySet) -> list:
    """The cut/join event of each step of the sigma chain."""
    out = []
    sigma = ms.sigma0.perm
    for t in ms.taus:
        sigma, event = apply_transposition(sigma, t)
        out.append(event)
    return out


def is_transitive(perms, d: int) -> bool:
    """Orbit closure over the generators via union-find; no group enumeration."""
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for x in range(d):
            rx, ry = find(x), find(p[x])
            if rx != ry:
                parent[rx] = ry
    return len({find(x) for x in range(d)}) == 1


# ---------------------------------------------------------------------------
# enumeration and counting


def _tau_candidates(d: int):
    return list(itertools.combinations(range(d), 2))


def _completions(sigma0: Perm, params: HurwitzParams):
    """All (tau_1..tau_r, sigma_r) completing a fixed sigma0, transitivity
    included.  DFS over tau_1..tau_{r-1}; the last step is found by targeted
    cut-join instead of scanning all transpositions.
    """
    d, r, n = params.d, params.r, params.n
    nu = params.nu
    pairs = _tau_candidates(d)

    def feasible(c: int, steps: int) -> bool:
        gap = abs(c - n)
        return gap <= steps and (gap - steps) % 2 == 0

    def transitive_with(taus) -> bool:
        gens = [sigma0] + [transposition(d, i, j) for i, j in taus]
        return is_transitive(gens, d)

    results = []

    def dfs(sigma: Perm, chosen: list, depth: int):
        if depth == r - 1:
            for i, j in transpositions_realizing(sigma, nu):
                tau = transposition(d, i, j)
                taus = chosen + [(i, j)]
                if transitive_with(taus):
                    results.append(
                        (
                            tuple(transposition(d, a, b) for a, b in taus),
                            compose(tau, sigma),
                        )
                    )
            return
        for i, j in pairs:
            tau = transposition(d, i, j)
            nxt = compose(tau, sigma)
            if feasible(num_cycles(nxt), r - depth - 1):
                dfs(nxt, chosen + [(i, j)], depth + 1)

    if r == 0:
        raise ValueError("completions need r >= 1")
    if feasible(num_cycles(sigma0), r):
        dfs(sigma0, [], 0)
    return results


def enumerate_monodromy_sets(params: HurwitzParams):
    """Yield every (mu, nu, g)-monodromy set exactly once, labelings included,
    in a deterministic order."""
    d, r = params.d, params.r
    mu, nu = params.mu, params.nu
    if r == 0:
        for p in perms_of_type(d, mu):
            q = inverse(p)
            if cycle_type(q).sorted_desc() != nu.sorted_desc():
                continue
            if not is_transitive([p], d):
                continue
            for lab0 in admissible_labelings(p, mu):
                for labinf in admissible_labelings(q, nu):
                    yield MonodromySet(lab0, (), labinf, params)
        return
    for p in perms_of_type(d, mu):
        comps = _completions(p, params)
        for lab0 in admissible_labelings(p, mu):
            for taus, sigma_r in comps:
                q = inverse(sigma_r)
                for labinf in admissible_labelings(q, nu):
                    yield MonodromySet(lab0, taus, labinf, params)


def _label_multiplicity(part: Partition) -> int:
    """Number of admissible labelings of any permutation of this type."""
    mult = 1
    for k in Counter(part.parts).values():
        mult *= factorial(k)
    return mult


def _centralizer_order(part: Partition) -> int:
    z = 1
    for length, k in Counter(part.parts).items():
        z *= length**k * factorial(k)
    return z


def _orbit_state(orbits) -> tuple:
    """Canonical form of a list of orbits, each a list of cycle lengths."""
    return tuple(sorted(tuple(sorted(o, reverse=True)) for o in orbits))


def _orbit_state_moves(state: tuple):
    """Yield (next state, weight) for every cut-join move of one
    transposition; the weights add up to C(d, 2)."""
    for oi, orbit in enumerate(state):
        rest = state[:oi] + state[oi + 1 :]
        for ci, length in enumerate(orbit):
            others = orbit[:ci] + orbit[ci + 1 :]
            for k in range(1, length // 2 + 1):
                yield (
                    _orbit_state(rest + (others + (k, length - k),)),
                    cut_join_count(k, length - k, "cut"),
                )
            for cj in range(ci + 1, len(orbit)):
                b = orbit[cj]
                joined = others[: cj - 1] + others[cj:] + (length + b,)
                yield _orbit_state(rest + (joined,)), length * b
        for oj in range(oi + 1, len(state)):
            other = state[oj]
            kept = rest[: oj - 1] + rest[oj:]
            for ci, a in enumerate(orbit):
                for cj, b in enumerate(other):
                    merged = (
                        orbit[:ci] + orbit[ci + 1 :] + other[:cj] + other[cj + 1 :]
                    )
                    yield _orbit_state(kept + (merged + (a + b,),)), a * b


def _count_chains(mu: Partition, nu: Partition, r: int) -> int:
    """Number of (tau_1..tau_r) completing one fixed sigma_0 of type mu to a
    transitive chain ending in type nu.

    Forward recursion over orbit states: the orbits of <sigma_0, tau_1..tau_k>,
    each recorded as the multiset of lengths of the sigma_k cycles inside it.
    The number of ways to finish a chain depends only on the S_d-class of
    (sigma_k, orbit partition), which the state determines, so summing chain
    counts per state is exact.  A cut splits a cycle inside its orbit, a join
    inside one orbit keeps the orbits, a join across two orbits merges them.
    """
    n = len(nu)

    def feasible(state: tuple, steps: int) -> bool:
        gap = abs(sum(map(len, state)) - n)
        return (
            len(state) - 1 <= steps and gap <= steps and (gap - steps) % 2 == 0
        )

    states = {_orbit_state([part] for part in mu): 1}
    for step in range(r):
        nxt = {}
        for state, ways in states.items():
            for after, weight in _orbit_state_moves(state):
                nxt[after] = nxt.get(after, 0) + ways * weight
        states = {s: w for s, w in nxt.items() if feasible(s, r - step - 1)}
    return states.get(_orbit_state([nu]), 0)


def count_monodromy_sets(params: HurwitzParams) -> int:
    """Exact number of labeled monodromy sets.

    Tuples with different sigma_0 of the same type are in bijection by
    conjugation, so the chains from one representative sigma_0 are counted
    (by the orbit-state recursion of _count_chains) and the result is scaled
    by the class size and by the labeling multiplicities.  Agreement with the
    plain enumeration is part of the test suite.
    """
    mu, nu = params.mu, params.nu
    class_size = factorial(params.d) // _centralizer_order(mu)
    return (
        _count_chains(mu, nu, params.r)
        * class_size
        * _label_multiplicity(mu)
        * _label_multiplicity(nu)
    )


def count_hurwitz_permutation(params: HurwitzParams) -> Fraction:
    """H_g(mu, nu) = (number of monodromy sets) / d!."""
    return Fraction(count_monodromy_sets(params), factorial(params.d))


# ---------------------------------------------------------------------------
# isomorphism


def _conjugation_candidates(a: MonodromySet, b: MonodromySet):
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


def are_isomorphic(a: MonodromySet, b: MonodromySet) -> bool:
    """True iff some g in S_d conjugates every entry of a onto the
    corresponding entry of b, preserving cycle labels on both ends."""
    if a.params != b.params:
        raise ValueError("isomorphism is only defined at equal parameters")
    for g in _conjugation_candidates(a, b):
        if conjugate(a.sigma0.perm, g) != b.sigma0.perm:
            continue
        if any(
            conjugate(ta, g) != tb for ta, tb in zip(a.taus, b.taus)
        ):
            continue
        if conjugate(a.sigma_inf.perm, g) != b.sigma_inf.perm:
            continue
        ginv = inverse(g)
        if all(
            tuple(sorted(ginv[x] for x in ca)) == tuple(sorted(cb))
            for ca, cb in zip(
                a.sigma_inf.cycles_by_label, b.sigma_inf.cycles_by_label
            )
        ):
            return True
    return False


def automorphism_order(ms: MonodromySet) -> int:
    """Order of the group of label-preserving self-conjugations."""
    count = 0
    for g in _conjugation_candidates(ms, ms):
        if conjugate(ms.sigma0.perm, g) != ms.sigma0.perm:
            continue
        if any(conjugate(t, g) != t for t in ms.taus):
            continue
        if conjugate(ms.sigma_inf.perm, g) != ms.sigma_inf.perm:
            continue
        ginv = inverse(g)
        if all(
            tuple(sorted(ginv[x] for x in c)) == tuple(sorted(c))
            for c in ms.sigma_inf.cycles_by_label
        ):
            count += 1
    return count


def _block_rotation_group(mu: Partition):
    """The label-preserving centralizer of canonical_perm_of_type(mu):
    independent rotations inside each consecutive block."""
    blocks = []
    start = 0
    for part in mu:
        blocks.append(list(range(start, start + part)))
        start += part
    d = mu.size
    elements = []
    for shifts in itertools.product(*(range(len(b)) for b in blocks)):
        g = [None] * d
        for block, s in zip(blocks, shifts):
            k = len(block)
            for t in range(k):
                # block cycle is (b0 b1 ... b_{k-1}); rotate by the cycle's own power
                g[block[t]] = block[(t + s) % k]
        elements.append(tuple(g))
    return elements


def monodromy_class_key(ms: MonodromySet):
    """A value equal for two monodromy sets iff they are isomorphic.

    Conjugate so sigma_0 becomes the canonical representative with identity
    labels, then minimize over the residual label-preserving centralizer
    (independent rotations of the canonical cycles).
    """
    params = ms.params
    rep = canonical_perm_of_type(params.mu)
    blocks = cycles(rep)
    g = [None] * params.d
    for block, cyc in zip(blocks, ms.sigma0.cycles_by_label):
        for t in range(len(block)):
            g[block[t]] = cyc[t]
    g = tuple(g)
    if conjugate(ms.sigma0.perm, g) != rep:
        raise ValueError("sigma0 alignment failed")
    taus = tuple(conjugate(t, g) for t in ms.taus)
    sinf = conjugate(ms.sigma_inf.perm, g)
    gi = inverse(g)
    labels = tuple(
        tuple(sorted(gi[x] for x in c)) for c in ms.sigma_inf.cycles_by_label
    )
    best = None
    for z in _block_rotation_group(params.mu):
        zi = inverse(z)
        cand = (
            tuple(conjugate(t, z) for t in taus),
            conjugate(sinf, z),
            tuple(tuple(sorted(zi[x] for x in c)) for c in labels),
        )
        if best is None or cand < best:
            best = cand
    return best


def monodromy_classes(params: HurwitzParams):
    """Isomorphism classes of monodromy sets as (representative, aut_order).

    Every class has a member whose sigma_0 is the canonical representative
    with the identity labeling; the residual symmetry is the labeled
    centralizer (block rotations), so classes are its orbits on completions
    crossed with sigma_inf labelings.
    """
    d, r = params.d, params.r
    mu, nu = params.mu, params.nu
    rep = canonical_perm_of_type(mu)
    lab0 = LabeledPermutation(rep, tuple(cycles(rep)))
    items = []
    if r == 0:
        if count_monodromy_sets(params):  # only mu = nu = (d) survives
            q = inverse(rep)
            for labinf in admissible_labelings(q, nu):
                ms = MonodromySet(lab0, (), labinf, params)
                items.append((rep, (), q, labinf.cycles_by_label, ms))
    else:
        for taus, sigma_r in _completions(rep, params):
            q = inverse(sigma_r)
            for labinf in admissible_labelings(q, nu):
                ms = MonodromySet(lab0, taus, labinf, params)
                items.append((rep, taus, q, labinf.cycles_by_label, ms))

    group = _block_rotation_group(mu)

    def encode(s0, taus, sinf, labels):
        return (s0, taus, sinf, tuple(tuple(sorted(c)) for c in labels))

    def act(g, item):
        s0, taus, sinf, labels, ms = item
        gi = inverse(g)
        return encode(
            conjugate(s0, g),
            tuple(conjugate(t, g) for t in taus),
            conjugate(sinf, g),
            tuple(tuple(gi[x] for x in c) for c in labels),
        )

    seen = {}
    classes = []
    for item in items:
        canon = min(act(g, item) for g in group)
        if canon in seen:
            continue
        stab = sum(1 for g in group if act(g, item) == encode(*item[:4]))
        seen[canon] = True
        classes.append((item[4], stab))
    return classes
