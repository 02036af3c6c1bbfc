"""Dart-based combinatorial maps and the ribbon-graph count of H_g(mu, nu).

Conventions (fixed once, everything downstream depends on them):

* A map is a pair of permutations on darts 0..N-1: ``rotation`` is the
  counterclockwise successor around each vertex, ``edge_involution`` is a
  fixed-point-free pairing of darts into edges.
* Faces are the orbits of rotation . edge_involution.  With a counterclockwise
  rotation this walk traverses each face clockwise, i.e. the face containing
  dart x lies to the RIGHT of x when x is traveled tail-to-head.
* In a bicolored map each edge therefore has one dart whose face (right side)
  is gray; traveling along that dart keeps gray on the right and white on the
  left, which is the natural orientation of the edge.

An (m, n, r)-ribbon graph is a connected 4-valent bicolored map with r labeled
vertices, m labeled white and n labeled gray faces.  A Hurwitz ribbon graph
adds nonnegative integer edge weights that are (mu, nu)-balanced (white face i
sums to mu_i, gray face j to nu_j) and positive (an edge whose natural
orientation runs from vertex i to vertex j with i >= j has weight > 0).

Skeleton enumeration runs through the medial correspondence: 4-valent
bicolored maps with (m white, n gray, r vertices) are exactly the medial
graphs of ordinary maps with m labeled vertices, n labeled faces and r labeled
edges, which are far cheaper to generate (one permutation on 2r darts).  The
test suite cross-checks this against a direct brute force over involutions.

The weighted ribbon graphs of one table record are the orbits of its (face
labeling, weighting) pairs under its swap stabilizer.  Counting and listing
both split the weightings per (white face, gray face) cell (_cell_totals):
the count sums their numbers over orbit-stabilizer, and the listing spreads
them over the darts (_cell_weightings) and keeps the first member of each
orbit of one walk (_record_classes), which also lists the skeletons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial
from operator import ge
from typing import NamedTuple

from .core import (
    MAX_RIBBON_R,  # this method's bound, also read as ribbon.MAX_RIBBON_R
    HurwitzParams,
    NonIntegerGenus,
    check_method_r,
)


def _orbits(perm) -> tuple:
    """(cycles, index) of a permutation given as a sequence: its cycles sorted
    by minimum, each a list in traversal order from its minimum element, and
    index[x], the position in cycles of the cycle through x."""
    index = [-1] * len(perm)
    cycles = []
    for s in range(len(perm)):
        if index[s] >= 0:
            continue
        cycle = []
        x = s
        while index[x] < 0:
            index[x] = len(cycles)
            cycle.append(x)
            x = perm[x]
        cycles.append(cycle)
    return cycles, index


@dataclass(frozen=True)
class CombinatorialMap:
    """Rotation system: vertices are rotation orbits, edges involution pairs,
    faces orbits of rotation . involution."""

    rotation: tuple
    edge_involution: tuple

    def __post_init__(self):
        n = len(self.rotation)
        if len(self.edge_involution) != n:
            raise ValueError("rotation and involution must have equal length")
        if sorted(self.rotation) != list(range(n)):
            raise ValueError("rotation is not a permutation of the darts")
        inv = self.edge_involution
        for x in range(n):
            if inv[x] == x or inv[inv[x]] != x:
                raise ValueError("edge involution must be fixed-point-free")

    @property
    def num_darts(self) -> int:
        return len(self.rotation)

    # The map is immutable, so its orbits and connectivity are worked out
    # once.  The cached values live outside the dataclass fields, so equality
    # and hashing are unchanged.
    @cached_property
    def vertex_orbits(self) -> tuple:
        """Orbits of rotation, sorted by minimum dart."""
        return tuple(map(tuple, _orbits(self.rotation)[0]))

    @cached_property
    def _face_walk(self) -> tuple:
        rot = self.rotation
        return _orbits([rot[y] for y in self.edge_involution])

    @cached_property
    def face_orbits(self) -> tuple:
        """Orbits of rotation . involution, sorted by minimum dart."""
        return tuple(map(tuple, self._face_walk[0]))

    @cached_property
    def face_of_dart(self) -> tuple:
        """face_of_dart[x] indexes the face through x in face_orbits."""
        return tuple(self._face_walk[1])

    @cached_property
    def _edges(self) -> tuple:
        inv = self.edge_involution
        return tuple((x, inv[x]) for x in range(self.num_darts) if x < inv[x])

    def edges(self) -> tuple:
        """Edges as sorted dart pairs, in increasing order."""
        return self._edges

    @cached_property
    def connected(self) -> bool:
        if self.num_darts == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in (self.rotation[x], self.edge_involution[x]):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.num_darts

    def genus(self) -> int:
        v = len(self.vertex_orbits)
        e = self.num_darts // 2
        f = len(self.face_orbits)
        chi = v - e + f
        if chi % 2 != 0:
            raise NonIntegerGenus(f"V-E+F = {chi} is odd")
        g = (2 - chi) // 2
        if g < 0:
            raise NonIntegerGenus(f"V-E+F = {chi} exceeds 2")
        return g


# ---------------------------------------------------------------------------
# labeled 4-valent bicolored maps


@dataclass(frozen=True)
class MNRRibbonGraph:
    """A connected 4-valent bicolored map with labeled vertices and faces.

    vertex_label assigns 1..r per dart (constant on rotation orbits);
    face_color/face_label are aligned with map.face_orbits (orbits by minimum
    dart), colors 'white'/'gray', white labels 1..m, gray labels 1..n.
    """

    map: CombinatorialMap
    vertex_label: tuple
    face_color: tuple
    face_label: tuple

    def __post_init__(self):
        m = self.map
        if not m.connected:
            raise ValueError("the map must be connected")
        for v in m.vertex_orbits:
            if len(v) != 4:
                raise ValueError("every vertex must be 4-valent")
            if len({self.vertex_label[x] for x in v}) != 1:
                raise ValueError("vertex labels must be constant on vertices")
        r = m.num_darts // 4
        if sorted({self.vertex_label[x] for x in range(m.num_darts)}) != list(
            range(1, r + 1)
        ):
            raise ValueError("vertex labels must be a bijection onto 1..r")
        fs = m.face_orbits
        if len(fs) != len(self.face_color) or len(fs) != len(self.face_label):
            raise ValueError("face annotations must align with face_orbits")
        whites = [
            lab
            for col, lab in zip(self.face_color, self.face_label)
            if col == "white"
        ]
        grays = [
            lab
            for col, lab in zip(self.face_color, self.face_label)
            if col == "gray"
        ]
        if sorted(whites) != list(range(1, len(whites) + 1)):
            raise ValueError("white labels must be a bijection onto 1..m")
        if sorted(grays) != list(range(1, len(grays) + 1)):
            raise ValueError("gray labels must be a bijection onto 1..n")
        # bicolored: the two sides of every edge carry different colors
        face_of = self.face_of_dart
        for x, y in m.edges():
            if self.face_color[face_of[x]] == self.face_color[face_of[y]]:
                raise ValueError("map is not bicolored")

    @property
    def face_of_dart(self) -> tuple:
        """face_of_dart[x] indexes the face through x in map.face_orbits."""
        return self.map.face_of_dart

    @property
    def r(self) -> int:
        return self.map.num_darts // 4

    def genus(self) -> int:
        return self.map.genus()

    def edges(self) -> tuple:
        return self.map.edges()

    def natural_dart(self, edge) -> int:
        """The dart of the edge whose face (right side) is gray; traveling it
        keeps white on the left."""
        face_of = self.face_of_dart
        x, y = edge
        if self.face_color[face_of[x]] == "gray":
            return x
        return y

    def natural_orientation(self, edge):
        """(tail vertex label, head vertex label) along the natural direction."""
        x = self.natural_dart(edge)
        y = self.map.edge_involution[x]
        return self.vertex_label[x], self.vertex_label[y]

    def serialize(self, weights=None) -> dict:
        """JSON-ready description; darts are 1-based in the output."""
        n = self.map.num_darts
        face_of = self.face_of_dart
        doc = {
            "darts": n,
            "rotation": [self.map.rotation[x] + 1 for x in range(n)],
            "involution": [self.map.edge_involution[x] + 1 for x in range(n)],
            "vertex_labels": list(self.vertex_label),
            "face_colors": [self.face_color[face_of[x]] for x in range(n)],
            "face_labels": [self.face_label[face_of[x]] for x in range(n)],
        }
        if weights is not None:
            doc["weights"] = [
                [x + 1, y + 1, w] for (x, y), w in zip(self.edges(), weights)
            ]
        return doc

    def to_dot(self, weights=None) -> str:
        """DOT export; edges annotated with natural orientation and weight."""
        lines = ["graph skeleton {"]
        for v in range(1, self.r + 1):
            lines.append(f'  v{v} [label="{v}"];')
        for k, e in enumerate(self.edges()):
            i, j = self.natural_orientation(e)
            note = f"{i}->{j}" if weights is None else f"w={weights[k]}; {i}->{j}"
            lines.append(f'  v{i} -- v{j} [label="{note}"];')
        lines.append("}")
        return "\n".join(lines)

    def canonical_key(self, weights=None, root=None):
        """Canonical encoding: two labeled skeletons (with weights, if given)
        are isomorphic iff their keys agree.  With a root dart, the encoding
        from that root: equal rooted keys mean an isomorphism that sends one
        root to the other."""
        return _canonical_key(self, weights, root)


def _canonical_key(g: MNRRibbonGraph, weights=None, root=None):
    """Minimum over the 4 darts at vertex 1 of the map encoded from that root,
    or the encoding from the given root.

    An isomorphism fixes vertex labels, so it sends the darts of vertex v to
    the block 4(v-1)..4(v-1)+3 in rotation order; only the phase of each block
    is free.  Rooting fixes the phase at the root's vertex, and a breadth-
    first walk fixes every other vertex's phase by the dart through which it
    is first reached; the map is connected, so the root fixes the whole
    relabeling.  An isomorphism sending root x to root y carries the walk from
    x onto the walk from y, so their encodings agree; conversely the encoding
    determines the map, so equal encodings give such an isomorphism.
    Isomorphic maps give the same 4 encodings at vertex 1, so their minimum
    is canonical.
    """
    rot, inv = g.map.rotation, g.map.edge_involution
    n = len(rot)
    vl = g.vertex_label
    face_of = g.face_of_dart
    col = [g.face_color[f] for f in face_of]
    lab = [g.face_label[f] for f in face_of]
    if weights is not None:
        w = [0] * n
        for (x, y), wt in zip(g.edges(), weights):
            w[x] = w[y] = wt

    def place(x):
        # x takes the first position of its vertex's block
        for pos in range(4 * vl[x] - 4, 4 * vl[x]):
            relab[x] = pos
            x = rot[x]

    best = None
    starts = [x for x in range(n) if vl[x] == 1] if root is None else [root]
    for start in starts:
        relab = [None] * n
        place(start)
        anchors = [start]
        for anchor in anchors:  # grows while it is walked
            x = anchor
            for _ in range(4):
                y = inv[x]
                if relab[y] is None:
                    place(y)
                    anchors.append(y)
                x = rot[x]
        order = [0] * n
        for x, pos in enumerate(relab):
            order[pos] = x
        key = (
            tuple(relab[inv[x]] for x in order),
            tuple(col[x] for x in order),
            tuple(lab[x] for x in order),
        )
        if weights is not None:
            key += (tuple(w[x] for x in order),)
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# the medial construction


def medial_map(sigma) -> CombinatorialMap:
    """The 4-valent medial map of the map given as a rotation sigma on darts
    0..2r-1, edge k = {2k, 2k+1}; medial_skeleton states its layout."""
    n = 2 * len(sigma)
    inv = [0] * n
    for a, b in enumerate(sigma):
        inv[2 * a] = 2 * b + 1
        inv[2 * b + 1] = 2 * a
    rotation = tuple(x - x % 4 + (x + 1) % 4 for x in range(n))
    return CombinatorialMap(rotation, tuple(inv))


def medial_skeleton(cmap: CombinatorialMap, white_label, gray_label) -> MNRRibbonGraph:
    """The labeled skeleton on cmap = medial_map(sigma).

    Sigma dart a has the out-dart 2a and the in-dart 2a+1.  Vertex k+1 owns
    darts 4k..4k+3 in counterclockwise order (out, in, out, in of the sigma
    darts 2k and 2k+1), and the edge of out-dart 2a arrives at in-dart
    2 sigma(a)+1.  The face through in-dart 2a+1 is white, a's sigma cycle,
    labeled white_label[a]; the face through out-dart 2a is gray, a's cycle
    of x -> sigma(x)^1, labeled gray_label[a].  So out-dart 2a is the natural
    dart of its edge, and skeleton edge k carries the sigma dart
    natural_dart(edge k) // 2.
    """
    colors = []
    labels = []
    for f in cmap.face_orbits:
        if f[0] % 2:
            colors.append("white")
            labels.append(white_label[f[0] // 2])
        else:
            colors.append("gray")
            labels.append(gray_label[f[0] // 2])
    vertex_label = tuple(x // 4 + 1 for x in range(cmap.num_darts))
    return MNRRibbonGraph(cmap, vertex_label, tuple(colors), tuple(labels))


# ---------------------------------------------------------------------------
# weighted ribbon graphs


@dataclass(frozen=True)
class HurwitzRibbonGraph:
    """A skeleton plus a positive (mu, nu)-balanced weighting; weights are
    indexed like skeleton.edges()."""

    skeleton: MNRRibbonGraph
    weights: tuple
    params: HurwitzParams

    def __post_init__(self):
        # one pass over the edges: each weight meets its positivity bound and
        # adds to the faces on both sides; then white face k must total mu_k
        # and gray face k nu_k
        skel = self.skeleton
        edges = skel.edges()
        face_of, colors, vl = skel.face_of_dart, skel.face_color, skel.vertex_label
        totals = [0] * len(colors)
        ok = len(self.weights) == len(edges)
        for (x, y), w in zip(edges, self.weights):
            # (tail, head) labels along the natural orientation
            i, j = (vl[x], vl[y]) if colors[face_of[x]] == "gray" else (vl[y], vl[x])
            ok = ok and w >= (i >= j)
            totals[face_of[x]] += w
            totals[face_of[y]] += w
        faces = sorted(zip(colors, skel.face_label, totals))
        for color, parts in (("white", self.params.mu), ("gray", self.params.nu)):
            ok = ok and tuple(t for c, _, t in faces if c == color) == parts.parts
        if not ok:
            raise ValueError("weights are not positive and (mu, nu)-balanced")

    def canonical_key(self, root=None):
        return self.skeleton.canonical_key(self.weights, root)

    def serialize(self) -> dict:
        return self.skeleton.serialize(self.weights)

    def to_dot(self) -> str:
        return self.skeleton.to_dot(self.weights)


# ---------------------------------------------------------------------------
# skeleton enumeration (via the medial correspondence)


def _swap_tables(r: int) -> list:
    """Dart relabelings generated by swapping the two darts of each edge."""
    n = 2 * r
    tables = []
    for mask in range(1 << r):
        t = list(range(n))
        for i in range(r):
            if mask >> i & 1:
                t[2 * i], t[2 * i + 1] = t[2 * i + 1], t[2 * i]
        tables.append(tuple(t))
    return tables


class _MapRecord(NamedTuple):
    """One class of _base_map_classes; each bytes field holds one value per
    dart 0..2r-1."""

    sigma: bytes
    stab: tuple  # the swap tables t with t sigma t = sigma, identity first
    white: bytes  # white face: index of the sigma cycle through the dart
    gray: bytes  # gray face: index of its cycle of x -> sigma(x)^1
    lower: bytes  # lower bound of the weight on the dart's medial edge


def _base_map_classes(r: int, m: int, n: int, caps=None) -> list:
    """Isomorphism classes of connected maps with r labeled edges, m vertices
    and n faces, restricted by caps = (total, white, gray) to the classes
    whose lower bounds sum to at most total and whose every white face and
    gray face needs at most white and gray; no caps means all classes.
    Each cap is clamped at 2r, the largest sum there is, so caps that cannot
    bind share the one table of all classes.  Each table is built once per
    process; cache_info and cache_clear are those of the cache.

    A map is a rotation sigma on darts 0..2r-1 with edge k = {2k, 2k+1}; two
    rotations are isomorphic iff conjugate under the per-edge dart swaps t,
    and each class is represented by its lexicographically smallest rotation.
    Each class is one flat _MapRecord: sigma; its swap stabilizer, with one
    tuple shared by every class whose stabilizer is trivial; per dart, the
    index of its white face (its sigma cycle, a vertex of the map) and of its
    gray face (its cycle of the medial gray walk x -> sigma(x)^1), the faces
    of each color numbered by minimum dart; and per dart the positivity lower
    bound of the medial edge {2x, 2 sigma(x)+1}, 1 when x's edge >= sigma(x)'s
    edge.  Consumers read a face as the darts carrying its index, and its need
    as the sum of their lower bounds.  The 20,640 records of the r = 5 (2, 3)
    bucket take 5.5 MB (tracemalloc).

    The representatives come from orderly generation: a depth-first search
    assigns sigma one dart at a time, trying values in increasing order, so
    classes appear in lexicographic order of sigma.  Once the darts 2j and
    2j+1 of edge j have values, the conjugate value (t sigma t)[x] =
    t[sigma[t[x]]] is fixed for x < 2j + 2, because t keeps every edge's
    darts together.  The search carries the nontrivial tables whose
    conjugate still ties sigma on the assigned edges and compares them at
    each edge's second dart: one that compares smaller proves no completion
    minimal and prunes the branch, one that compares larger is dropped, and
    one that ties again is passed down.  At a leaf the tables still tied
    satisfy t sigma t = sigma, so together with the identity they are
    exactly the swap stabilizer.

    The search also follows the partial sigma and the partial gray walk
    phi(x) = sigma(x)^1 as open paths plus closed cycles.  With k darts left
    unassigned there are k open paths, and a completion closes between 1 and
    k more cycles (none once k = 0).  A branch whose closed vertex or face
    count can no longer end at exactly m or n is pruned, so only this
    bucket's leaves are reached, in the same order as in a search over all
    buckets.

    Each open path also carries its need, the sum of the lower bounds of its
    darts with a value, and the search the sum over all of them.  Needs only
    grow, so a branch is pruned once the sum passes total or a path's need
    passes its color's cap, and the table holds exactly the classes of the
    bucket that meet the caps, still in lexicographic order.

    The total also has a floor on the need still to come.  Before edge j is
    assigned, the darts of edges j..r-1 are unassigned, and a dart's lower
    bound is 0 only if its value lies on a later edge.  The later edges of
    edge j include those of every edge after it, so matching each edge's
    two darts to unused values of later edges not yet matched, from edge
    r-1 down to edge j, matches as many darts as any completion can; the
    floor is 2(r - j) minus the matches.  A branch whose total plus floor
    passes total has no leaf under the caps and is pruned.  The floor is
    skipped where even 2(r - j) more would not pass total, as always when
    total is 2r.
    """
    most = 2 * r
    caps = tuple(min(c, most) for c in caps or (most,) * 3)
    return _map_table(r, m, n, caps)


@lru_cache(maxsize=None)
def _map_table(r: int, m: int, n: int, caps: tuple) -> list:
    """_base_map_classes(r, m, n, caps) with caps clamped."""
    nd = 2 * r
    tables = _swap_tables(r)
    trivial = (tables[0],)
    out = []
    sigma = [0] * nd
    used = [False] * nd
    # lows[x][u]: the lower bound of dart x when sigma(x) = u
    lows = [[int(x // 2 >= u // 2) for u in range(nd)] for x in range(nd)]
    # Open paths of a partial permutation p: start[x] is the first dart of the
    # path ending at a dart x with p(x) unassigned, end[y] the last dart of the
    # path starting at a dart y outside the image, need[y] the need of that
    # path, or of the cycle closed at y.  The 0 arrays follow sigma, the 1
    # arrays phi.
    start0, end0, need0 = list(range(nd)), list(range(nd)), [0] * nd
    start1, end1, need1 = list(range(nd)), list(range(nd)), [0] * nd
    total_cap, white_cap, gray_cap = caps

    def still_tied(tied, a, b):
        """The tables of tied whose conjugate ties sigma on the darts of the
        edge {a, b}, or None if one compares smaller."""
        u, v = sigma[a], sigma[b]
        still = []
        for t in tied:
            c = t[sigma[t[a]]]
            if c != u:
                if c < u:
                    return None
                continue
            c = t[sigma[t[b]]]
            if c == v:
                still.append(t)
            elif c < v:
                return None
        return still

    def extend(x, tied, total, c0, c1):
        """Try every value of sigma(x), the darts before x assigned: total
        sums their bounds, and c0 and c1 count the closed sigma and phi
        cycles."""
        if x == nd:
            # connectivity under <sigma, xor 1>
            comp = 1
            frontier = [0]
            while frontier:
                y = frontier.pop()
                for z in (sigma[y], y ^ 1):
                    if not (comp >> z) & 1:
                        comp |= 1 << z
                        frontier.append(z)
            if comp != (1 << nd) - 1:
                return
            # face indices by one walk, each color's faces by minimum dart
            white, gray = [-1] * nd, [-1] * nd
            i = k = 0
            for y in range(nd):
                z = y
                while white[z] < 0:
                    white[z] = i
                    z = sigma[z]
                i += white[y] == i
                z = y
                while gray[z] < 0:
                    gray[z] = k
                    z = sigma[z] ^ 1
                k += gray[y] == k
            stab = (*trivial, *tied) if tied else trivial
            lower = bytes([lows[y][u] for y, u in enumerate(sigma)])
            out.append(_MapRecord(bytes(sigma), stab, bytes(white), bytes(gray), lower))
            return
        odd = x & 1
        if not odd and total + nd - x > total_cap:
            # floor: the darts x..nd-1 still to come each add 0 only on an
            # unused value of a later edge, and each value serves one dart
            pool = zeros = 0
            for e in range(nd - 2, x - 2, -2):
                take = 2 if pool > 2 else pool
                zeros += take
                pool += (not used[e]) + (not used[e + 1]) - take
            if total + nd - x - zeros > total_cap:
                return
        low_x = lows[x]
        left = nd - 1 - x
        more = left > 0
        for u in range(nd):
            if used[u]:
                continue
            sigma[x] = u
            still = tied
            if odd and tied:
                # None means some conjugate is smaller: prune the branch
                still = still_tied(tied, x - 1, x)
                if still is None:
                    continue
            # join x's open paths to those of u (sigma) and u ^ 1 (phi)
            low = low_x[u]
            v = u ^ 1
            s0, s1 = start0[x], start1[x]
            if s0 != u:
                e = end0[u]
                start0[e], end0[s0] = s0, e
                need0[s0] += need0[u]
            if s1 != v:
                e = end1[v]
                start1[e], end1[s1] = s1, e
                need1[s1] += need1[v]
            need0[s0] += low
            need1[s1] += low
            d0, d1 = c0 + (s0 == u), c1 + (s1 == v)
            if (
                total + low <= total_cap
                and need0[s0] <= white_cap and need1[s1] <= gray_cap
                and d0 + more <= m <= d0 + left and d1 + more <= n <= d1 + left
            ):
                used[u] = True
                extend(x + 1, still, total + low, d0, d1)
                used[u] = False
            need0[s0] -= low
            need1[s1] -= low
            if s0 != u:
                start0[end0[u]], end0[s0] = u, x
                need0[s0] -= need0[u]
            if s1 != v:
                start1[end1[v]], end1[s1] = v, x
                need1[s1] -= need1[v]

    extend(0, tables[1:], 0, 0, 0)
    return out


_base_map_classes.cache_info = _map_table.cache_info
_base_map_classes.cache_clear = _map_table.cache_clear


def _record_classes(record, m: int, n: int, weightings):
    """Yield (skeleton, weighting, aut) for each orbit of one table record's
    (white labeling, gray labeling, weighting) triples under its swap
    stabilizer.

    A labeling is a tuple: entry i is the label of the i-th face in minimum-
    dart order.  weightings(vlab, glab) lists the labeling's weightings, as
    tuples over sigma darts in lexicographic order; the skeleton listing
    passes one empty weighting.  A stabilizer element t sends face i to face
    t(i) and dart x to t(x); every t is an involution, so pulling labels and
    weights back along t is its action.  The walk runs over labelings in
    lexicographic order, then over their weightings, so a triple is its
    orbit's first member iff no image compares smaller, and aut counts the
    elements that fix it.  Classes of one labeling share one skeleton.
    """
    sigma, wi, gi = record.sigma, record.white, record.gray
    # face i's representative dart is its minimum, the first with index i
    wfirst = [wi.index(i) for i in range(m)]
    gfirst = [gi.index(j) for j in range(n)]
    actions = [
        (tuple(wi[t[x]] for x in wfirst), tuple(gi[t[x]] for x in gfirst), t)
        for t in record.stab
    ]
    cmap = None
    for vlab in itertools.permutations(range(1, m + 1)):
        for glab in itertools.permutations(range(1, n + 1)):
            skeleton = None
            for w in weightings(vlab, glab):
                item = (vlab, glab, w)
                images = [
                    (
                        tuple(vlab[i] for i in wperm),
                        tuple(glab[j] for j in gperm),
                        tuple(w[x] for x in t) if w else w,
                    )
                    for wperm, gperm, t in actions
                ]
                if min(images) < item:
                    continue
                if skeleton is None:
                    cmap = cmap or medial_map(sigma)
                    skeleton = medial_skeleton(
                        cmap, [vlab[i] for i in wi], [glab[j] for j in gi]
                    )
                yield skeleton, w, images.count(item)


def skeletons_valid(m: int, n: int, r: int) -> bool:
    """(m, n, r) admits skeletons only if the forced genus (r-m-n+2)/2 is a
    nonnegative integer."""
    if r < 1 or m < 1 or n < 1:
        return False
    val = r - m - n + 2
    return val >= 0 and val % 2 == 0


def enumerate_skeletons(m: int, n: int, r: int):
    """One representative per isomorphism class of (m, n, r)-ribbon graphs,
    with automorphism group orders; deterministic order."""
    check_method_r("ribbon", r)
    out = []
    if not skeletons_valid(m, n, r):
        return out
    for record in _base_map_classes(r, m, n):
        classes = _record_classes(record, m, n, lambda vlab, glab: ((),))
        out.extend((skeleton, aut) for skeleton, _, aut in classes)
    return out


def _record_cells(record) -> list:
    """The darts of one table record grouped by (white face i, gray face j),
    as (i, j, number of darts, sum of their lower bounds, darts) in (i, j)
    order."""
    lower = record.lower
    darts = {}
    for x, cell in enumerate(zip(record.white, record.gray)):
        darts.setdefault(cell, []).append(x)
    return [
        (i, j, len(xs), sum(lower[x] for x in xs), tuple(xs))
        for (i, j), xs in sorted(darts.items())
    ]


def _cell_totals(cells, a, b) -> list:
    """The integer weightings w >= lower of one record's darts whose white
    face i sums to a[i] and gray face j to b[j], grouped by cell totals: one
    (per-cell excess over the lower bounds, number of weightings) per group.

    cells lists (i, j, k, l, darts) for each nonempty cell: the k darts on
    white face i and gray face j, whose lower bounds sum to l.  A cell with
    excess y splits it among its darts in C(y + k - 1, k - 1) ways, so a
    group holds the product of these binomials.  Cells come in (i, j) order,
    and the last cell of a row or of a column takes whatever its row or
    column has left.
    """
    row = list(a)
    col = list(b)
    for i, j, _, l, _ in cells:
        row[i] -= l
        col[j] -= l
    if min(row) < 0 or min(col) < 0:
        return []
    row_end = {i: c for c, (i, *_) in enumerate(cells)}
    col_end = {j: c for c, (_, j, *_) in enumerate(cells)}
    excess = [0] * len(cells)
    out = []

    def rec(c, number):
        if c == len(cells):
            out.append((tuple(excess), number))
            return
        i, j, k, _, _ = cells[c]
        ends_row, ends_col = c == row_end[i], c == col_end[j]
        if ends_row or ends_col:
            y = row[i] if ends_row else col[j]
            if y > min(row[i], col[j]) or (ends_row and ends_col and row[i] != col[j]):
                return
            values = (y,)
        else:
            values = range(min(row[i], col[j]) + 1)
        for y in values:
            row[i] -= y
            col[j] -= y
            excess[c] = y
            rec(c + 1, number * comb(y + k - 1, k - 1))
            row[i] += y
            col[j] += y

    rec(0, 1)
    return out


def _cell_weightings(cells, lower, a, b) -> list:
    """The weightings that _cell_totals counts, as tuples over the darts in
    lexicographic order: each group spreads every cell's excess over the
    cell's darts by stars and bars."""
    out = []
    for excess, _ in _cell_totals(cells, a, b):
        spreads = []
        for y, (_, _, k, _, _) in zip(excess, cells):
            # k - 1 bars among y + k - 1 slots cut y into k parts
            spreads.append([])
            for bars in itertools.combinations(range(y + k - 1), k - 1):
                ends = (-1,) + bars + (y + k - 1,)
                spreads[-1].append([e - s - 1 for s, e in zip(ends, ends[1:])])
        for parts in itertools.product(*spreads):
            w = list(lower)
            for (_, _, _, _, darts), extra in zip(cells, parts):
                for x, p in zip(darts, extra):
                    w[x] += p
            out.append(tuple(w))
    return sorted(out)


def _distinct_orderings(parts) -> list:
    """Every distinct ordering of a multiset of parts."""
    return sorted(set(itertools.permutations(parts)))


def _weighted_table(params: HurwitzParams):
    """(table, fit) for the records that some ordering of mu on their white
    faces and of nu on their gray faces may weight: every part must cover
    its face's need, the sum of the lower bounds on the face.  The table
    holds only the records whose needs sum to at most d and whose every
    need is at most the largest part of its color; fit(cells) gives the
    white and gray orderings that cover a record's needs."""
    mu, nu = params.mu.parts, params.nu.parts
    mu_orders = _distinct_orderings(mu)
    nu_orders = _distinct_orderings(nu)

    def fit(cells):
        w_need = [0] * params.m
        g_need = [0] * params.n
        for i, j, _, low, _ in cells:
            w_need[i] += low
            g_need[j] += low
        return (
            [a for a in mu_orders if all(map(ge, a, w_need))],
            [b for b in nu_orders if all(map(ge, b, g_need))],
        )

    caps = (params.d, max(mu), max(nu))
    return _base_map_classes(params.r, params.m, params.n, caps), fit


def count_hurwitz_ribbon(params: HurwitzParams) -> Fraction:
    """Sum over isomorphism classes of weighted ribbon graphs of 1/|Aut|.

    The swap stabilizer S of a table record acts on its (face labeling,
    weighting) pairs, and the classes of the record are the orbits.  An
    orbit O contributes 1/|stabilizer of a member| = |O|/|S|, so the record
    contributes #pairs / |S|, and no orbit is listed.  A weighting depends on
    a labeling only through the part values it puts on each face, and
    prod(multiplicity of each value)! labelings of each side put the same
    values there; so the count runs over the distinct orderings of mu on the
    white faces and of nu on the gray faces, counting weightings per cell
    (_cell_totals).  The orderings that fit a record and its pair count
    follow from its cell shape, the (i, j, k, l) of every cell, so each
    distinct shape is counted once per call: 660 shapes among the 2,100
    records of the r = 5 count.  The key is the bytes of every dart's code
    (i n + j) 2 + lower bound, sorted, which fixes each cell's k and l;
    codes stay under 2mn <= (r + 2)^2 / 2, a byte while r <= 20.  Every |S|
    divides 2^r, so the sum stays an integer over the common denominator
    2^r.
    """
    check_method_r("ribbon", params.r)
    r = params.r
    labelings = 1
    for parts in (params.mu.parts, params.nu.parts):
        for value in set(parts):
            labelings *= factorial(parts.count(value))
    n = params.n
    table, fit = _weighted_table(params)
    total = 0
    memo = {}  # pairs per cell shape
    for record in table:
        codes = zip(record.white, record.gray, record.lower)
        shape = bytes(sorted([(i * n + j) * 2 + low for i, j, low in codes]))
        if shape not in memo:
            cells = _record_cells(record)
            white_orders, gray_orders = fit(cells)
            memo[shape] = sum(
                number
                for a in white_orders
                for b in gray_orders
                for _, number in _cell_totals(cells, a, b)
            )
        total += memo[shape] * ((1 << r) // len(record.stab))
    return Fraction(total * labelings, 1 << r)


def hurwitz_ribbon_classes(params: HurwitzParams):
    """All weighted ribbon graph classes as (HurwitzRibbonGraph, aut_order).

    The weight tuple of the built object is re-indexed from sigma darts to
    skeleton edge order: edge k carries sigma dart natural_dart(edge k) // 2.
    """
    check_method_r("ribbon", params.r)
    mu, nu = params.mu, params.nu
    out = []
    table, fit = _weighted_table(params)
    for record in table:
        cells = _record_cells(record)
        white_ok, gray_ok = map(set, fit(cells))
        if not (white_ok and gray_ok):
            continue
        cache = {}

        def weightings(vlab, glab):
            a = tuple(mu[v - 1] for v in vlab)
            b = tuple(nu[v - 1] for v in glab)
            if a not in white_ok or b not in gray_ok:
                return ()
            if (a, b) not in cache:
                cache[a, b] = _cell_weightings(cells, record.lower, a, b)
            return cache[a, b]

        darts = None  # the skeletons of one record share one map
        for skeleton, w, aut in _record_classes(record, params.m, params.n, weightings):
            darts = darts or [skeleton.natural_dart(e) // 2 for e in skeleton.edges()]
            weights = tuple(w[x] for x in darts)
            out.append((HurwitzRibbonGraph(skeleton, weights, params), aut))
    return out
