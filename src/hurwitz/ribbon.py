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

    def edges(self) -> list:
        """Edges as sorted dart pairs, in increasing order."""
        inv = self.edge_involution
        return [(x, inv[x]) for x in range(self.num_darts) if x < inv[x]]

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

    def edges(self) -> list:
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


def _medial_vertex_label(cmap: CombinatorialMap) -> tuple:
    """Medial vertex k owns darts 4k..4k+3 and carries label k + 1."""
    return tuple(x // 4 + 1 for x in range(cmap.num_darts))


def _medial_from_sigma(sigma: tuple) -> CombinatorialMap:
    """4-valent map of the medial construction for a map given as a rotation
    sigma on darts 0..2r-1 with edge k = {2k, 2k+1}.

    Medial darts: out_a = 2a, in_a = 2a+1; vertex k owns 4k..4k+3 in
    counterclockwise order (out_{2k}, in_{2k}, out_{2k+1}, in_{2k+1}); the
    involution pairs out_a with in_{sigma(a)}.
    """
    two_r = len(sigma)
    n = 2 * two_r
    rotation = [0] * n
    for k in range(two_r // 2):
        b = 4 * k
        rotation[b] = b + 1
        rotation[b + 1] = b + 2
        rotation[b + 2] = b + 3
        rotation[b + 3] = b
    inv = [0] * n
    for a in range(two_r):
        inv[2 * a] = 2 * sigma[a] + 1
        inv[2 * sigma[a] + 1] = 2 * a
    return CombinatorialMap(tuple(rotation), tuple(inv))


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


@lru_cache(maxsize=None)
def _base_map_classes(r: int, m: int, n: int) -> list:
    """Isomorphism classes of connected maps with r labeled edges, m vertices
    and n faces.

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
    bucket take 5.5 MB (tracemalloc), against 19.6 MB as dicts of five tuples.

    The representatives come from orderly generation: a depth-first search
    assigns sigma two darts at a time, the darts 2j and 2j+1 of edge j, trying
    values in increasing order, so classes appear in lexicographic order of
    sigma.  For x < 2j + 2 the conjugate value (t sigma t)[x] = t[sigma[t[x]]]
    is already fixed, because t keeps every edge's darts together.  The search
    carries the nontrivial tables whose conjugate still ties sigma on the
    assigned prefix: one that compares smaller proves no completion minimal
    and prunes the branch, one that compares larger is dropped, and one that
    ties again is passed down.  At a leaf the tables still tied satisfy
    t sigma t = sigma, so together with the identity they are exactly the
    swap stabilizer.

    The search also follows the partial sigma and the partial gray walk
    phi(x) = sigma(x)^1 as open paths plus closed cycles.  With k darts left
    unassigned there are k open paths, and a completion closes between 1 and
    k more cycles (none once k = 0).  A branch whose closed vertex or face
    count can no longer end at exactly m or n is pruned, so only this
    bucket's leaves are reached, in the same order as in a search over all
    buckets.
    """
    nd = 2 * r
    tables = _swap_tables(r)
    out = []
    sigma = [0] * nd
    used = [False] * nd
    # Open paths of a partial permutation p: start[x] is the first dart of the
    # path ending at a dart x with p(x) unassigned, end[y] the last dart of the
    # path starting at a dart y outside the image.  Index 0 follows sigma,
    # index 1 follows phi; closed counts their cycles.
    start = (list(range(nd)), list(range(nd)))
    end = (list(range(nd)), list(range(nd)))
    closed = [0, 0]
    target = (m, n)

    def link(x, u):
        """Set sigma(x) = u; False if the cycle counts can no longer reach
        (m, n) with the darts after x still unassigned."""
        left = nd - 1 - x
        ok = True
        for p, y in ((0, u), (1, u ^ 1)):
            s, e = start[p][x], end[p][y]
            if s == y:
                closed[p] += 1
            else:
                start[p][e] = s
                end[p][s] = e
            if not closed[p] + (left > 0) <= target[p] <= closed[p] + left:
                ok = False
        return ok

    def unlink(x, u):
        for p, y in ((0, u), (1, u ^ 1)):
            s, e = start[p][x], end[p][y]
            if s == y:
                closed[p] -= 1
            else:
                start[p][e] = y
                end[p][s] = x

    trivial = (tables[0],)

    def add_if_connected(tied):
        # connectivity under <sigma, xor 1>
        comp = 1
        frontier = [0]
        cnt = 1
        while frontier:
            x = frontier.pop()
            for y in (sigma[x], x ^ 1):
                if not (comp >> y) & 1:
                    comp |= 1 << y
                    cnt += 1
                    frontier.append(y)
        if cnt != nd:
            return
        s = bytes(sigma)
        out.append(
            _MapRecord(
                s,
                (tables[0], *tied) if tied else trivial,
                bytes(_orbits(s)[1]),
                bytes(_orbits([y ^ 1 for y in s])[1]),
                bytes(x // 2 >= y // 2 for x, y in enumerate(s)),
            )
        )

    def extend(j, tied):
        if j == r:
            add_if_connected(tied)
            return
        a, b = 2 * j, 2 * j + 1
        for u in range(nd):
            if used[u]:
                continue
            used[u] = True
            sigma[a] = u
            if link(a, u):
                for v in range(nd):
                    if used[v]:
                        continue
                    sigma[b] = v
                    # a break means some conjugate is smaller: prune the branch
                    still = []
                    for t in tied:
                        c = t[sigma[t[a]]]
                        if c != u:
                            if c < u:
                                break
                            continue
                        c = t[sigma[t[b]]]
                        if c == v:
                            still.append(t)
                        elif c < v:
                            break
                    else:
                        if link(b, v):
                            used[v] = True
                            extend(j + 1, still)
                            used[v] = False
                        unlink(b, v)
            unlink(a, u)
            used[u] = False

    extend(0, tables[1:])
    return out


def _build_skeleton(cmap: CombinatorialMap, white_label, gray_label) -> MNRRibbonGraph:
    """The labeled skeleton on cmap = _medial_from_sigma(sigma): the face
    through in-dart 2a+1 is white with label white_label[a], the face through
    out-dart 2a gray with label gray_label[a]."""
    colors = []
    labels = []
    for f in cmap.face_orbits:
        if f[0] % 2 == 1:
            colors.append("white")
            labels.append(white_label[f[0] // 2])
        else:
            colors.append("gray")
            labels.append(gray_label[f[0] // 2])
    return MNRRibbonGraph(
        cmap, _medial_vertex_label(cmap), tuple(colors), tuple(labels)
    )


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
                    cmap = cmap or _medial_from_sigma(sigma)
                    skeleton = _build_skeleton(
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


def _weighted_records(params: HurwitzParams):
    """Yield (record, cells, white orderings, gray orderings) for each table
    record that some ordering of mu on its white faces and of nu on its gray
    faces may weight: every part must cover its face's need, the sum of the
    lower bounds on the face."""
    mu_orders = _distinct_orderings(params.mu.parts)
    nu_orders = _distinct_orderings(params.nu.parts)
    for record in _base_map_classes(params.r, params.m, params.n):
        lower = record.lower
        if sum(lower) > params.d:
            continue
        w_need = [0] * params.m
        g_need = [0] * params.n
        for i, j, low in zip(record.white, record.gray, lower):
            w_need[i] += low
            g_need[j] += low
        white_orders = [a for a in mu_orders if all(map(ge, a, w_need))]
        gray_orders = [b for b in nu_orders if all(map(ge, b, g_need))]
        if white_orders and gray_orders:
            yield record, _record_cells(record), white_orders, gray_orders


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
    (_cell_totals).  Every |S| divides 2^r, so the sum stays an integer over
    the common denominator 2^r.
    """
    check_method_r("ribbon", params.r)
    r = params.r
    labelings = 1
    for parts in (params.mu.parts, params.nu.parts):
        for value in set(parts):
            labelings *= factorial(parts.count(value))
    total = 0
    for record, cells, white_orders, gray_orders in _weighted_records(params):
        pairs = sum(
            number
            for a in white_orders
            for b in gray_orders
            for _, number in _cell_totals(cells, a, b)
        )
        total += pairs * ((1 << r) // len(record.stab))
    return Fraction(total * labelings, 1 << r)


def hurwitz_ribbon_classes(params: HurwitzParams):
    """All weighted ribbon graph classes as (HurwitzRibbonGraph, aut_order).

    The weight tuple of the built object is re-indexed from sigma darts to
    skeleton edge order.
    """
    check_method_r("ribbon", params.r)
    mu, nu = params.mu, params.nu
    out = []
    for record, cells, white_orders, gray_orders in _weighted_records(params):
        white_ok, gray_ok = set(white_orders), set(gray_orders)
        cache = {}

        def weightings(vlab, glab):
            a = tuple(mu[v - 1] for v in vlab)
            b = tuple(nu[v - 1] for v in glab)
            if a not in white_ok or b not in gray_ok:
                return ()
            if (a, b) not in cache:
                cache[a, b] = _cell_weightings(cells, record.lower, a, b)
            return cache[a, b]

        # skeleton edge k is the medial edge {2x, 2 sigma(x)+1} with the k-th
        # smallest least dart; its even dart names the sigma dart x
        sigma = record.sigma
        index = sorted(range(len(sigma)), key=lambda x: min(2 * x, 2 * sigma[x] + 1))
        for skeleton, w, aut in _record_classes(record, params.m, params.n, weightings):
            weights = tuple(w[x] for x in index)
            out.append((HurwitzRibbonGraph(skeleton, weights, params), aut))
    return out
