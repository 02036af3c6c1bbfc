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

The count and the listing both fix one sigma_0 and grow the chain one
transposition at a time; the count sums over orbit states, the listing walks
the transpositions and conjugates the chains to every other sigma_0.  Both
drop a partial chain by one rule, _feasible.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType

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

    def serialize(self) -> str:
        """All cycles shown (length-1 included), each suffixed with [label]."""
        return "".join(
            "(" + " ".join(str(x + 1) for x in c) + ")" + f"[{i + 1}]"
            for i, c in enumerate(self.cycles_by_label)
        )


def _labeled_cycles(p: Perm, target: Partition):
    """Yield the cycles of p by label, one tuple per labeling with label i on
    a cycle of length target_i.  Empty if cycle_type(p) != target as
    multisets."""
    by_len = {}
    for c in cycles(p):
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
        yield tuple(by_label)


def admissible_labelings(p: Perm, target: Partition):
    """Yield every labeling of p's cycles with label i on a cycle of length
    target_i.  Empty if cycle_type(p) != target as multisets."""
    for by_label in _labeled_cycles(p, target):
        yield LabeledPermutation(p, by_label)


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


def _feasible(orbits: int, cycles: int, n: int, steps: int) -> bool:
    """Whether a chain state can still end, after `steps` transpositions, in
    one orbit and n cycles: each step merges at most two orbits and moves the
    cycle count by exactly one."""
    gap = abs(cycles - n)
    return orbits - 1 <= steps and gap <= steps and (gap - steps) % 2 == 0


def _completions(sigma0: Perm, params: HurwitzParams):
    """All (tau_1..tau_r, sigma_r) completing a fixed sigma0 to a transitive
    chain ending in type nu, in lexicographic order of the transposition pairs.

    The DFS carries each point's orbit label under <sigma_0, tau_1..tau_k>
    and the orbit count, and prunes every node by _feasible, so a leaf (the
    root when r = 0) is one orbit with n cycles.  It keeps sigma_k and its
    inverse as lists: tau = (i j) after sigma_k swaps the images of the two
    points that sigma_k sends to i and j, and the swap is undone on return.
    """
    d, r, n = params.d, params.r, params.n
    want = sorted(params.nu.parts, reverse=True)
    pairs = [
        (i, j, transposition(d, i, j)) for i, j in itertools.combinations(range(d), 2)
    ]
    results = []

    def dfs(sigma: list, inv: list, orbit: tuple, k: int, taus: tuple):
        steps = r - len(taus)
        if not _feasible(k, num_cycles(sigma), n, steps):
            return
        if steps == 0:
            if sorted(map(len, cycles(sigma)), reverse=True) == want:
                results.append((taus, tuple(sigma)))
            return
        for i, j, tau in pairs:
            a, b = orbit[i], orbit[j]
            joined = orbit if a == b else tuple(a if o == b else o for o in orbit)
            x, y = inv[i], inv[j]
            sigma[x], sigma[y], inv[i], inv[j] = j, i, y, x
            dfs(sigma, inv, joined, k - (a != b), taus + (tau,))
            sigma[x], sigma[y], inv[i], inv[j] = i, j, x, y

    cs = cycles(sigma0)
    label = {x: c[0] for c in cs for x in c}
    dfs(
        list(sigma0), list(inverse(sigma0)), tuple(label[x] for x in range(d)), len(cs), ()
    )
    return results


def _conjugator(rep: Perm, p: Perm) -> Perm:
    """A pi with p = pi . rep . pi^-1, for p of the same cycle type as rep:
    it maps each cycle of rep onto a cycle of p of the same length."""
    pool = {}
    for c in cycles(p):
        pool.setdefault(len(c), []).append(c)
    pi = [0] * len(p)
    for c in cycles(rep):
        for x, y in zip(c, pool[len(c)].pop()):
            pi[x] = y
    return tuple(pi)


def _conjugate_completions(comps: list, pi: Perm, tau: dict) -> list:
    """pi . comps . pi^-1 for comps given as (transposition pairs, sigma_r),
    sorted back into the lexicographic order of the pairs that _completions
    lists them in; tau maps each pair to its transposition."""
    image = {q: tuple(sorted(pi[x] for x in q)) for q in tau}
    pinv = inverse(pi)
    moved = sorted(
        (tuple(image[q] for q in qs), tuple(pi[sigma[x]] for x in pinv))
        for qs, sigma in comps
    )
    return [(tuple(tau[q] for q in qs), sigma) for qs, sigma in moved]


def enumerate_monodromy_sets(params: HurwitzParams):
    """Yield every (mu, nu, g)-monodromy set exactly once, labelings included,
    in a deterministic order.

    The chains are walked once, from canonical_perm_of_type(mu); every other
    sigma_0 of type mu = pi . rep . pi^-1 takes them conjugated by pi.  The
    sigma_inf labelings of a conjugated chain do not depend on the labeling
    of sigma_0, so they are built once per sigma_0."""
    mu, nu, d = params.mu, params.nu, params.d
    rep = canonical_perm_of_type(mu)
    tau = {q: transposition(d, *q) for q in itertools.combinations(range(d), 2)}
    pair = {t: q for q, t in tau.items()}
    base = [
        (tuple(pair[t] for t in taus), sigma)
        for taus, sigma in _completions(rep, params)
    ]
    for p in perms_of_type(d, mu):
        comps = [
            (taus, list(admissible_labelings(inverse(sigma_r), nu)))
            for taus, sigma_r in _conjugate_completions(base, _conjugator(rep, p), tau)
        ]
        for lab0 in admissible_labelings(p, mu):
            for taus, labinfs in comps:
                for labinf in labinfs:
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


@lru_cache(maxsize=None)
def _final_orbit_states(mu: tuple, n: int, r: int) -> MappingProxyType:
    """Chain counts per orbit state after r transpositions from one fixed
    sigma_0 of type mu (a descending tuple), keeping only the states that can
    still end in one orbit with n cycles.  Read-only, since it is cached.

    Forward recursion over orbit states: the orbits of <sigma_0, tau_1..tau_k>,
    each recorded as the multiset of lengths of the sigma_k cycles inside it.
    The number of ways to finish a chain depends only on the S_d-class of
    (sigma_k, orbit partition), which the state determines, so summing chain
    counts per state is exact.  A cut splits a cycle inside its orbit, a join
    inside one orbit keeps the orbits, a join across two orbits merges them.
    """
    states = {_orbit_state([part] for part in mu): 1}
    for step in range(r):
        nxt = {}
        for state, ways in states.items():
            for after, weight in _orbit_state_moves(state):
                nxt[after] = nxt.get(after, 0) + ways * weight
        states = {
            s: w
            for s, w in nxt.items()
            if _feasible(len(s), sum(map(len, s)), n, r - step - 1)
        }
    return MappingProxyType(states)


def _count_chains(mu: Partition, nu: Partition, r: int) -> int:
    """Number of (tau_1..tau_r) completing one fixed sigma_0 of type mu to a
    transitive chain ending in type nu.

    One forward pass of _final_orbit_states per (sorted mu, n, r) is shared
    by every nu with n parts, whatever the order of the parts: a transitive
    chain ends in the single orbit whose cycle lengths are nu.
    """
    states = _final_orbit_states(mu.sorted_desc(), len(nu), r)
    return states.get(_orbit_state([nu]), 0)


def count_monodromy_sets(params: HurwitzParams) -> int:
    """Exact number of labeled monodromy sets.

    Tuples with different sigma_0 of the same type are in bijection by
    conjugation, so the chains from one representative sigma_0 are counted
    (by the orbit-state recursion of _count_chains) and the result is scaled
    by the class size and by the labeling multiplicities.  The recursion runs
    once per (sorted mu, len(nu), r) in a process, and every nu of that
    length reads its count from the same cached final states.  Agreement
    with the plain enumeration is part of the test suite.
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


@lru_cache(maxsize=None)
def _block_rotation_group(mu: Partition) -> tuple:
    """The label-preserving centralizer of canonical_perm_of_type(mu):
    independent rotations inside each consecutive block, identity first."""
    blocks = []
    start = 0
    for part in mu:
        blocks.append(range(start, start + part))
        start += part
    return tuple(
        tuple(b[(t + s) % len(b)] for b, s in zip(blocks, shifts) for t in range(len(b)))
        for shifts in itertools.product(*(range(len(b)) for b in blocks))
    )


def _aligned(ms: MonodromySet):
    """ms relabeled so that sigma_0 is canonical_perm_of_type(mu) with the
    identity labeling: (transposition pairs, sorted sigma_inf label sets).

    Once sigma_0 is fixed, these determine the set, since sigma_inf is the
    inverse of tau_r ... tau_1 sigma_0.
    """
    mu = ms.params.mu
    if ms.sigma0.label_lengths() != mu.parts:
        raise ValueError("sigma0 labels do not realize mu")
    g = [0] * ms.params.d
    start = 0
    for cyc in ms.sigma0.cycles_by_label:
        for t, x in enumerate(cyc):
            g[x] = start + t
        start += len(cyc)
    pairs = tuple(
        tuple(sorted(g[x] for x, y in enumerate(t) if x != y)) for t in ms.taus
    )
    labels = tuple(
        tuple(sorted(g[x] for x in c)) for c in ms.sigma_inf.cycles_by_label
    )
    return pairs, labels


def _rotation_orbit(mu: Partition, aligned) -> list:
    """Images of an aligned set under every block rotation, its own first.

    The block rotations are exactly the label-preserving centralizer of the
    canonical sigma_0, so two aligned sets are isomorphic iff their orbits
    meet, and the set's stabilizer order is how often it recurs here.
    """
    pairs, labels = aligned
    return [
        (
            tuple((z[i], z[j]) if z[i] < z[j] else (z[j], z[i]) for i, j in pairs),
            tuple(tuple(sorted(z[x] for x in c)) for c in labels),
        )
        for z in _block_rotation_group(mu)
    ]


def monodromy_class_key(ms: MonodromySet):
    """A value equal for two monodromy sets iff they are isomorphic: the
    minimum of the rotation orbit of the aligned set."""
    return min(_rotation_orbit(ms.params.mu, _aligned(ms)))


class MonodromyClasses(list):
    """The isomorphism classes of one parameter set as a list of
    (representative, aut_order), plus the lookup find(ms) of any monodromy
    set's class.

    The listing records every member of each class's rotation orbit, so a
    lookup aligns the set once and reads its class off, where comparing
    monodromy_class_key values takes the minimum over a whole orbit per set.
    """

    def __init__(self, params: HurwitzParams):
        super().__init__()
        self.params = params
        self._class_of = {}  # orbit member -> (position, aut_order)

    def find(self, ms: MonodromySet):
        """(position, aut_order) of the class of ms, or None if no listed
        class contains it."""
        if ms.params != self.params:
            raise ValueError("the monodromy set belongs to other parameters")
        return self._class_of.get(_aligned(ms))


def monodromy_classes(params: HurwitzParams) -> MonodromyClasses:
    """Isomorphism classes of monodromy sets as (representative, aut_order),
    in order of first appearance.

    Every class has a member whose sigma_0 is the canonical representative
    with the identity labeling, so classes are the rotation orbits of those
    members.  Such a member's aligned form is its transposition pairs and
    its sorted sigma_inf label cycles as they stand, so it is read off the
    chain walk directly; each new class adds its whole orbit to the lookup,
    and only representatives become MonodromySet objects.
    """
    mu, nu, d = params.mu, params.nu, params.d
    rep = canonical_perm_of_type(mu)
    lab0 = LabeledPermutation(rep, tuple(cycles(rep)))
    pair = {transposition(d, *q): q for q in itertools.combinations(range(d), 2)}
    classes = MonodromyClasses(params)
    class_of = classes._class_of
    for taus, sigma_r in _completions(rep, params):
        pairs = tuple(pair[t] for t in taus)
        q = inverse(sigma_r)
        for by_label in _labeled_cycles(q, nu):
            aligned = pairs, tuple(tuple(sorted(c)) for c in by_label)
            if aligned in class_of:
                continue
            orbit = _rotation_orbit(mu, aligned)
            entry = len(classes), orbit.count(aligned)
            class_of.update(dict.fromkeys(orbit, entry))
            labinf = LabeledPermutation(q, by_label)
            classes.append((MonodromySet(lab0, taus, labinf, params), entry[1]))
    return classes
