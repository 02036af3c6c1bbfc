"""The traffic-rule algorithm: weighted ribbon graphs <-> permutation chains.

Forward direction: place w(e) tick marks on each edge (ordered along the
natural orientation) and read off permutations sigma_0..sigma_r on the tick
set.  To apply sigma_i to a tick, travel the edge in its natural orientation;
at each vertex turn LEFT when the vertex label exceeds i and RIGHT otherwise,
and continue until the next tick.  With counterclockwise rotations, arriving
at a vertex via dart b means a left turn exits along rotation^-1(b) and a
right turn along rotation(b); both exits are again natural darts, so a trace
never runs an edge backwards.

All-left (i = 0) hugs the face on the walker's left, which is white, so
sigma_0's cycles are the white faces and have lengths mu_k; all-right (i = r)
follows the gray faces and realizes nu.  Successive sigma_i differ by the
rule flip at one vertex, which swaps two walk successors, i.e. multiplies by
a transposition.

Reverse direction: start with one white disk per cycle of sigma_0, its
boundary a circle of successor pointers through the ticks in cycle order.
Vertex i, for tau_i = (x y), enters with one rule of six links: what led to
x now runs into vertex i and out to y, what led to y runs in and out to x.
That turns the boundary permutation from sigma_{i-1} into sigma_i, cutting
a circle when x and y share it and joining two otherwise; gray disks close
the surface at the end.

Tropicalization: each circle of the step walks becomes a tropical edge whose
flow is the circle's weight, so a weighted ribbon graph maps to a monodromy
graph.  Its weight-free form is an integer matrix per skeleton, and
fiber_check compares the two on every weighted class.  Like the roundtrip it
joins the pipelines, which share nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    HurwitzParams,
    InconsistentFiber,
    InvalidChain,
    NonterminatingTrace,
    RZero,
    check_method_r,
)
from .permutation import (
    LabeledPermutation,
    MonodromySet,
    compose,
    cycles,
    inverse,
    is_transposition,
    monodromy_class_key,  # not called here; the benchmark tracer wraps it here
    monodromy_classes,
    sigma_chain,
)
from .ribbon import HurwitzRibbonGraph, MNRRibbonGraph, CombinatorialMap
from .tropical import MonodromyGraph, TropicalGraph


@dataclass(frozen=True)
class TickAssignment:
    """Tick identifiers per edge, ordered along each edge's natural
    orientation; identifiers are 0..d-1, globally distinct."""

    per_edge: tuple  # tuple of tick tuples, aligned with skeleton.edges()

    def __post_init__(self):
        seen = [t for ts in self.per_edge for t in ts]
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("tick identifiers must be exactly 0..d-1")

    @property
    def d(self) -> int:
        return sum(len(ts) for ts in self.per_edge)


def canonical_ticks(h: HurwitzRibbonGraph) -> TickAssignment:
    """Number ticks 0,1,2,... edge by edge in edge order."""
    out = []
    nxt = 0
    for w in h.weights:
        out.append(tuple(range(nxt, nxt + w)))
        nxt += w
    return TickAssignment(tuple(out))


def step_circles(g: MNRRibbonGraph):
    """(circles of every step walk, white circles, gray circles, edge index
    of each natural dart); the dict lists the natural darts in edge order.

    Step i = 0..r walks the natural darts: arriving at a vertex through dart
    b it leaves along rotation^-1(b) (a left turn) when the vertex label
    exceeds i, and along rotation(b) (a right turn) otherwise.  Entry i lists
    that walk's orbits, each from its minimum dart, by increasing minimum.

    Step 0 turns left everywhere, so each of its circles runs along the
    white face on the walker's left, the face of the reversed dart; step r
    turns right everywhere and runs along the gray face of its darts.  The
    white and gray lists hold those circles by face label: entry k - 1 runs
    along the face labeled k.
    """
    rot = g.map.rotation
    invol = g.map.edge_involution
    inv_rot = [0] * len(rot)
    for x, y in enumerate(rot):
        inv_rot[y] = x
    edge_of_nat = {g.natural_dart(e): k for k, e in enumerate(g.edges())}
    nat = sorted(edge_of_nat)
    steps = []
    for i in range(g.r + 1):
        succ = {}
        for x in nat:
            b = invol[x]
            succ[x] = inv_rot[b] if g.vertex_label[b] > i else rot[b]
            if succ[x] not in edge_of_nat:
                raise NonterminatingTrace("walk left the natural dart set")
        seen = set()
        circles = []
        for s in nat:
            if s in seen:
                continue
            orbit = [s]
            x = succ[s]
            while x != s:
                orbit.append(x)
                x = succ[x]
            seen.update(orbit)
            circles.append(tuple(orbit))
        steps.append(circles)
    face_of, label = g.face_of_dart, g.face_label
    whites = sorted(steps[0], key=lambda c: label[face_of[invol[c[0]]]])
    grays = sorted(steps[-1], key=lambda c: label[face_of[c[0]]])
    return steps, whites, grays, edge_of_nat


def ribbon_to_monodromy(
    h: HurwitzRibbonGraph, ticks: TickAssignment, circles=None
) -> MonodromySet:
    """Full traffic-rule translation, with cycle labels read off the faces.

    circles is step_circles(h.skeleton), which a caller translating several
    weightings of one skeleton computes once; it is computed here if None.
    """
    d = h.params.d
    if ticks.d != d:
        raise ValueError("tick assignment does not match the degree")
    for w, ts in zip(h.weights, ticks.per_edge):
        if len(ts) != w:
            raise ValueError("tick counts must equal edge weights")
    if circles is None:
        circles = step_circles(h.skeleton)
    steps, whites, grays, edge_of_nat = circles

    def ticks_on(circle) -> list:
        return [t for x in circle for t in ticks.per_edge[edge_of_nat[x]]]

    def from_min(seq) -> tuple:
        k = seq.index(min(seq))
        return tuple(seq[k:] + seq[:k])

    perms = []
    for i, circles in enumerate(steps):
        images = [None] * d
        for circle in circles:
            seq = ticks_on(circle)
            if not seq:
                raise NonterminatingTrace(
                    f"step {i}: a circle carries no tick marks"
                )
            for a, b in zip(seq, seq[1:] + seq[:1]):
                images[a] = b
        perms.append(tuple(images))

    # sigma_0's cycle k runs along the white face labeled k; sigma_inf,
    # the inverse of sigma_r, runs backwards along the gray faces
    sigma0 = LabeledPermutation(
        perms[0], tuple(from_min(ticks_on(c)) for c in whites)
    )
    sigma_inf = LabeledPermutation(
        inverse(perms[-1]), tuple(from_min(ticks_on(c)[::-1]) for c in grays)
    )

    taus = []
    for prev, cur in zip(perms, perms[1:]):
        t = compose(cur, inverse(prev))
        if not is_transposition(t):
            raise NonterminatingTrace("consecutive walk steps differ by more than a transposition")
        taus.append(t)

    ms = MonodromySet(sigma0, tuple(taus), sigma_inf, h.params)
    ms.validate()
    return ms


# ---------------------------------------------------------------------------
# the inverse construction


def chain_to_ribbon(ms: MonodromySet):
    """Rebuild the weighted ribbon graph realizing a monodromy set, together
    with the tick assignment that reproduces the chain verbatim.

    The boundary circles are successor pointers nxt over items: tick t is
    item t, and germ k is item d + k.  Vertex i owns germs 4(i-1)..4(i-1)+3
    in counterclockwise order (out_x, in_x, out_y, in_y).  The pointers start
    as nxt = sigma_0, one white disk per cycle.  Step i with tau_i = (x y)
    sets six links,

        prev[x] -> in_x -> out_y -> y    and    prev[y] -> in_y -> out_x -> x,

    so the tick that ran on to x now runs on to y and the one that ran on to
    y now runs on to x: the ticks follow tau_i . sigma_{i-1} = sigma_i.  It
    is one rule for a cut and a join.  When x and y lie on one circle the
    two new paths close up separately, x back to prev[y] and y back to
    prev[x], and the circle is cut in two; on two circles each path runs on
    into the other circle and they join into one.

    Reading the map: from each out-germ, nxt runs over the ticks of one edge
    and stops at the germ where the edge arrives, an in-germ (an in-germ is
    always followed by an out-germ, so every tick after a germ is met).  Out
    germs bound gray faces and in-germs white ones.  A white face keeps the
    ticks of its cycle of sigma_0, a gray face those of a cycle of sigma_r,
    which is a cycle of sigma_inf once sigma_inf . sigma_r = 1 is checked;
    each face takes the label of that cycle, read at any one of its ticks.
    """
    params = ms.params
    d, r = params.d, params.r
    if r == 0:
        raise RZero("an r = 0 chain has no ribbon-graph realization")
    if len(ms.taus) != r or {len(ms.sigma0.perm), len(ms.sigma_inf.perm)} != {d}:
        raise InvalidChain(f"expected {r} transpositions on {d} points")
    nxt = list(ms.sigma0.perm) + [None] * (4 * r)
    prev = list(inverse(ms.sigma0.perm)) + [None] * (4 * r)
    for i, tau in enumerate(ms.taus):
        if len(tau) != d or not is_transposition(tau):
            raise InvalidChain(f"step {i + 1} is not a transposition")
        x, y = [p for p, q in enumerate(tau) if p != q]
        out_x, in_x, out_y, in_y = range(d + 4 * i, d + 4 * i + 4)
        links = (
            (prev[x], in_x), (in_x, out_y), (out_y, y),
            (prev[y], in_y), (in_y, out_x), (out_x, x),
        )
        for a, b in links:
            nxt[a] = b
            prev[b] = a
    if compose(ms.sigma_inf.perm, sigma_chain(ms)[-1]) != tuple(range(d)):
        raise InvalidChain("sigma_inf . sigma_r is not the identity")

    n_darts = 4 * r
    involution = [None] * n_darts
    ticks_of = {}  # out-germ -> ticks of its edge, along the edge
    for out in range(0, n_darts, 2):
        ticks = []
        item = nxt[d + out]
        while item < d:
            ticks.append(item)
            item = nxt[item]
        if (item - d) % 2 == 0:
            raise InvalidChain("malformed boundary: out-germ meets out-germ")
        involution[out] = item - d
        involution[item - d] = out
        ticks_of[out] = tuple(ticks)
    if sum(map(len, ticks_of.values())) != d:
        raise InvalidChain("a boundary circle never met a vertex")

    rotation = tuple(x - x % 4 + (x + 1) % 4 for x in range(n_darts))
    cmap = CombinatorialMap(rotation, tuple(involution))
    white = [0] * d  # tick -> label of its cycle
    gray = [0] * d
    for label_of, labeled in ((white, ms.sigma0), (gray, ms.sigma_inf)):
        for k, c in enumerate(labeled.cycles_by_label, 1):
            for t in c:
                label_of[t] = k
    colors = []
    labels = []
    for face in cmap.face_orbits:
        if face[0] % 2 == 0:  # out-germs: the face on the walker's right
            colors.append("gray")
            labels.append(gray[next(t for x in face for t in ticks_of[x])])
        else:
            colors.append("white")
            labels.append(white[next(t for x in face for t in ticks_of[involution[x]])])

    vertex_label = tuple(x // 4 + 1 for x in range(n_darts))
    per_edge = tuple(ticks_of[x if x % 2 == 0 else y] for x, y in cmap.edges())
    try:  # a chain that is not transitive, or labels that miss mu or nu
        skeleton = MNRRibbonGraph(cmap, vertex_label, tuple(colors), tuple(labels))
        hrg = HurwitzRibbonGraph(skeleton, tuple(map(len, per_edge)), params)
    except ValueError as e:
        raise InvalidChain(str(e)) from e
    return hrg, TickAssignment(per_edge)


# ---------------------------------------------------------------------------
# tropicalization


def _collapse(families, sources, sinks):
    """(tropical graph, cycle behind each edge) of a sequence of cycle
    families.

    families[i] is the set of cycles, as frozensets, alive after step i.
    Step i >= 1 must end one cycle and start two (a cut) or end two and start
    one (a join); it becomes internal vertex i.  sources[k - 1] is the cycle
    of family 0 that source k feeds, sinks[j - 1] the cycle of the last
    family that feeds sink j.  Edges appear as their cycles start: sources by
    label, then each step's new cycles in sorted order.
    """
    edges = []
    behind = []
    live = {}

    def start(tail, cycle):
        live[cycle] = len(edges)
        edges.append([tail, None])
        behind.append(cycle)

    for k, cycle in enumerate(sources, start=1):
        start(("s", k), cycle)
    for i in range(1, len(families)):
        removed = sorted(families[i - 1] - families[i], key=sorted)
        added = sorted(families[i] - families[i - 1], key=sorted)
        if sorted((len(removed), len(added))) != [1, 2]:
            raise ValueError(f"step {i} is not a single cut or join")
        for cycle in removed:
            edges[live.pop(cycle)][1] = ("v", i)
        for cycle in added:
            start(("v", i), cycle)
    for j, cycle in enumerate(sinks, start=1):
        edges[live.pop(cycle)][1] = ("t", j)
    graph = TropicalGraph(
        len(sources), len(sinks), len(families) - 1, tuple(map(tuple, edges))
    )
    return graph, tuple(behind)


def monodromy_graph_of_chain(ms: MonodromySet) -> MonodromyGraph:
    """Cycles of the sigma chain become edges; step i is internal vertex i;
    each flow is the length of the cycle behind the edge."""
    graph, behind = _collapse(
        [{frozenset(c) for c in cycles(p)} for p in sigma_chain(ms)],
        [frozenset(c) for c in ms.sigma0.cycles_by_label],
        [frozenset(c) for c in ms.sigma_inf.cycles_by_label],
    )
    return MonodromyGraph(graph, tuple(len(c) for c in behind), ms.params)


def tropicalize(h: HurwitzRibbonGraph) -> MonodromyGraph:
    """Run the traffic algorithm and collapse each circle to a tropical edge;
    the flow is the circle's total weight (its number of tick marks)."""
    return monodromy_graph_of_chain(ribbon_to_monodromy(h, canonical_ticks(h)))


def tropicalization_matrix(skeleton: MNRRibbonGraph):
    """(tropical graph, integer matrix) for one skeleton, weight-free.

    The circles of the step walks depend only on the map, so the tropical
    skeleton underneath every weighting is common, and the flow of each
    tropical edge is the total weight of the ribbon edges its circle runs
    through.  A circle is an orbit on natural darts, so it runs through each
    edge at most once, and row k of the matrix, for edge k of the returned
    graph, is the circle's 0/1 edge-incidence vector.
    """
    steps, whites, grays, edge_of_nat = step_circles(skeleton)
    graph, behind = _collapse(
        [{frozenset(c) for c in circles} for circles in steps],
        [frozenset(c) for c in whites],
        [frozenset(c) for c in grays],
    )
    # edge_of_nat lists the natural darts in edge order
    return graph, tuple(tuple(int(x in c) for x in edge_of_nat) for c in behind)


def fiber_check(params: HurwitzParams):
    """Group weighted ribbon classes by tropical skeleton and verify that the
    weight-free matrix reproduces every weighted tropicalization.

    Returns {tropical skeleton canonical form: [(hrg, aut, monodromy graph)]}.
    Raises InconsistentFiber if any weighting of a skeleton lands on a
    different tropical skeleton than the matrix predicts.
    """
    from .ribbon import hurwitz_ribbon_classes

    groups = {}
    skeleton = None
    for hrg, aut in hurwitz_ribbon_classes(params):
        if hrg.skeleton is not skeleton:  # classes of one skeleton are adjacent
            skeleton = hrg.skeleton
            graph, rows = tropicalization_matrix(skeleton)
        mg = tropicalize(hrg)
        predicted = sorted(
            (t, h, sum(c * w for c, w in zip(row, hrg.weights)))
            for (t, h), row in zip(graph.edges, rows)
        )
        actual = sorted(
            (t, h, f) for (t, h), f in zip(mg.graph.edges, mg.flows)
        )
        if predicted != actual:
            raise InconsistentFiber(
                f"weighting {hrg.weights} leaves the common tropical skeleton"
            )
        groups.setdefault(mg.graph.canonical_form(), []).append((hrg, aut, mg))
    return groups


# ---------------------------------------------------------------------------
# roundtrip validation


@dataclass
class RoundtripReport:
    """Outcome of the two-way translation check at one parameter set."""

    params: HurwitzParams
    classes_ribbon: int
    classes_permutation: int
    roundtrip_failures: list
    unmatched: list
    aut_mismatches: list

    @property
    def matched(self) -> bool:
        return (
            self.classes_ribbon == self.classes_permutation
            and not self.roundtrip_failures
            and not self.unmatched
            and not self.aut_mismatches
        )

    def serialize(self) -> dict:
        return {
            "params": self.params.describe(),
            "classes_ribbon": self.classes_ribbon,
            "classes_permutation": self.classes_permutation,
            "matched": self.matched,
            "roundtrip_failures": self.roundtrip_failures,
            "unmatched": self.unmatched,
            "aut_mismatches": self.aut_mismatches,
        }


def _tick_zero_root(h: HurwitzRibbonGraph, ticks: TickAssignment) -> int:
    """The natural dart of the edge that carries tick 0."""
    k = next(k for k, ts in enumerate(ticks.per_edge) if 0 in ts)
    return h.skeleton.natural_dart(h.skeleton.edges()[k])


def roundtrip_check(params: HurwitzParams) -> RoundtripReport:
    """Verify that chain_to_ribbon inverts ribbon_to_monodromy on every
    weighted ribbon class, and that the induced map onto monodromy-set
    classes is a bijection preserving automorphism group orders.

    chain_to_ribbon returns ticks that reproduce the chain verbatim, so the
    rebuilt graph and the original are isomorphic as ticked graphs: some
    isomorphism sends the edge carrying tick 0 to the edge carrying tick 0,
    natural dart to natural dart.  So the check compares the two encodings
    rooted at those darts, one canonical_key each.  This is at least as
    strong as comparing the unrooted keys: equal rooted keys already give an
    isomorphism.  The image chain's class is read off the permutation
    listing's orbit lookup (MonodromyClasses.find), which holds every member
    of every class, so no image needs a class key of its own.

    A class whose translation raises (InvalidChain, NonterminatingTrace, or a
    ValueError from building a translated object) is a roundtrip failure
    with the reason; the check goes on with the next class.
    """
    from .ribbon import hurwitz_ribbon_classes

    check_method_r("ribbon", params.r)
    hrg_classes = hurwitz_ribbon_classes(params)
    perm_classes = monodromy_classes(params)

    roundtrip_failures = []
    unmatched = []
    aut_mismatches = []
    seen = set()
    skeleton = None
    for idx, (hrg, aut) in enumerate(hrg_classes):
        try:
            if hrg.skeleton is not skeleton:  # classes of one skeleton are adjacent
                circles = step_circles(hrg.skeleton)
                skeleton = hrg.skeleton
            ticks = canonical_ticks(hrg)
            ms = ribbon_to_monodromy(hrg, ticks, circles)
            back, back_ticks = chain_to_ribbon(ms)
        except (InvalidChain, NonterminatingTrace, ValueError) as exc:
            roundtrip_failures.append({"class": idx, "reason": str(exc)})
            continue
        rebuilt = back.canonical_key(_tick_zero_root(back, back_ticks))
        if rebuilt != hrg.canonical_key(_tick_zero_root(hrg, ticks)):
            roundtrip_failures.append(
                {"class": idx, "reason": "the rebuilt graph is not the original"}
            )
            continue
        found = perm_classes.find(ms)
        if found is None:
            unmatched.append({"class": idx, "reason": "image is not a known permutation class"})
            continue
        position, perm_aut = found
        if position in seen:
            unmatched.append({"class": idx, "reason": "two ribbon classes hit one permutation class"})
            continue
        seen.add(position)
        if perm_aut != aut:
            aut_mismatches.append(
                {"class": idx, "ribbon_aut": aut, "permutation_aut": perm_aut}
            )
    return RoundtripReport(
        params,
        len(hrg_classes),
        len(perm_classes),
        roundtrip_failures,
        unmatched,
        aut_mismatches,
    )
