import functools
import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_params
from hurwitz.core import (
    Infeasible,
    NonIntegerGenus,
    Partition,
    RZero,
    descending_partitions,
    hurwitz_params,
)
from hurwitz import permutation as P
from hurwitz import ribbon as R
from reference import (
    LabeledMap,
    edge_length,
    edge_lengths,
    lattice_points,
    medial_graph,
    rank,
    solve_rows,
    weight_polytope,
)


# ---------------------------------------------------------------------------
# independent oracle: enumerate 4-valent bicolored labeled maps directly,
# by brute force over edge involutions with the rotation normalized to
# (4v, 4v+1, 4v+2, 4v+3) at every vertex.


def brute_force_skeletons(m, n, r):
    nd = 4 * r
    rotation = []
    for v in range(r):
        rotation += [4 * v + 1, 4 * v + 2, 4 * v + 3, 4 * v]
    rotation = tuple(rotation)
    # every residual relabeling rotates each vertex's dart block by a phase
    phase_maps = []
    for phases in itertools.product(range(4), repeat=r):
        h = [0] * nd
        for v, p in enumerate(phases):
            for k in range(4):
                h[4 * v + k] = 4 * v + (k + p) % 4
        phase_maps.append(tuple(h))

    def involutions(darts):
        if not darts:
            yield []
            return
        a = darts[0]
        for i in range(1, len(darts)):
            b = darts[i]
            rest = [x for x in darts[1:] if x != b]
            for sub in involutions(rest):
                yield [(a, b)] + sub

    found = {}
    seen = set()
    for pairing in involutions(list(range(nd))):
        inv = [0] * nd
        for a, b in pairing:
            inv[a] = b
            inv[b] = a
        cmap = R.CombinatorialMap(rotation, tuple(inv))
        if not cmap.connected:
            continue
        fs = cmap.face_orbits
        fidx = {}
        for i, f in enumerate(fs):
            for x in f:
                fidx[x] = i
        adj = {i: set() for i in range(len(fs))}
        for x in range(nd):
            adj[fidx[x]].add(fidx[inv[x]])
        color = {0: 0}
        stack = [0]
        ok = True
        while stack and ok:
            i = stack.pop()
            for j in adj[i]:
                if j == i or (j in color and color[j] == color[i]):
                    ok = False
                    break
                if j not in color:
                    color[j] = 1 - color[i]
                    stack.append(j)
        if not ok or len(color) != len(fs):
            continue
        vlabel = tuple(x // 4 + 1 for x in range(nd))
        for white_color in (0, 1):
            whites = [i for i in range(len(fs)) if color[i] == white_color]
            grays = [i for i in range(len(fs)) if color[i] != white_color]
            if len(whites) != m or len(grays) != n:
                continue
            for wl in itertools.permutations(range(1, m + 1)):
                for gl in itertools.permutations(range(1, n + 1)):
                    cols = [None] * len(fs)
                    labs = [None] * len(fs)
                    for k, i in enumerate(whites):
                        cols[i] = "white"
                        labs[i] = wl[k]
                    for k, i in enumerate(grays):
                        cols[i] = "gray"
                        labs[i] = gl[k]
                    raw = (
                        tuple(inv),
                        tuple(cols[fidx[x]] for x in range(nd)),
                        tuple(labs[fidx[x]] for x in range(nd)),
                    )
                    if raw in seen:
                        continue
                    # a fresh class: mark its whole phase orbit; the phase
                    # maps that fix raw are its automorphisms
                    orbit = []
                    for h in phase_maps:
                        t_inv = [0] * nd
                        t_col = [None] * nd
                        t_lab = [0] * nd
                        for x in range(nd):
                            t_inv[h[x]] = h[inv[x]]
                            t_col[h[x]] = raw[1][x]
                            t_lab[h[x]] = raw[2][x]
                        orbit.append((tuple(t_inv), tuple(t_col), tuple(t_lab)))
                    seen.update(orbit)
                    g = R.MNRRibbonGraph(cmap, vlabel, tuple(cols), tuple(labs))
                    found[g.canonical_key()] = orbit.count(raw)
    return found


@pytest.mark.parametrize(
    "m,n,r",
    [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2), (1, 3, 2), (3, 1, 2)],
)
def test_enumeration_matches_involution_brute_force(m, n, r):
    brute = brute_force_skeletons(m, n, r)
    med = {}
    for skel, aut in R.enumerate_skeletons(m, n, r):
        key = skel.canonical_key()
        assert key not in med, "medial enumeration produced a duplicate class"
        med[key] = aut
    assert med == brute


@pytest.mark.parametrize("m,n", [(2, 1), (1, 2), (2, 3), (1, 4)])
def test_enumeration_matches_brute_force_r3(m, n):
    brute = brute_force_skeletons(m, n, 3)
    med = {s.canonical_key(): a for s, a in R.enumerate_skeletons(m, n, 3)}
    assert med == brute


# ---------------------------------------------------------------------------
# canonical keys are invariant under relabeling the darts


def relabel_darts(g, pi):
    """The same labeled map with dart x renamed pi[x]; faces are re-aligned
    with the new map's face_orbits."""
    n = len(pi)
    rot, inv, vlab = [0] * n, [0] * n, [0] * n
    back = [0] * n
    for x in range(n):
        rot[pi[x]] = pi[g.map.rotation[x]]
        inv[pi[x]] = pi[g.map.edge_involution[x]]
        vlab[pi[x]] = g.vertex_label[x]
        back[pi[x]] = x
    cmap = R.CombinatorialMap(tuple(rot), tuple(inv))
    old_face = [g.face_of_dart[back[f[0]]] for f in cmap.face_orbits]
    return R.MNRRibbonGraph(
        cmap,
        tuple(vlab),
        tuple(g.face_color[i] for i in old_face),
        tuple(g.face_label[i] for i in old_face),
    )


# genus >= 0 bounds m + n by r + 2
SHAPES_UP_TO_R4 = [
    (m, n, r)
    for r in range(1, 5)
    for m in range(1, r + 2)
    for n in range(1, r + 3 - m)
    if R.skeletons_valid(m, n, r)
]


@functools.lru_cache(maxsize=None)
def skeletons_of_shape(shape):
    return [skel for skel, _ in R.enumerate_skeletons(*shape)]


def relabel_weights(g, moved, pi, weights):
    """weights of g's edges, re-indexed like the edges of moved =
    relabel_darts(g, pi); None stays None."""
    if weights is None:
        return None
    by_edge = {frozenset((pi[x], pi[y])): w for (x, y), w in zip(g.edges(), weights)}
    return tuple(by_edge[frozenset(e)] for e in moved.edges())


@st.composite
def relabeled_skeleton(draw):
    """Any skeleton with r <= 4, a dart relabeling, and optional weights."""
    shape = draw(st.sampled_from(SHAPES_UP_TO_R4))
    skel = draw(st.sampled_from(skeletons_of_shape(shape)))
    pi = draw(st.permutations(range(skel.map.num_darts)))
    weights = draw(
        st.none()
        | st.lists(st.integers(0, 3), min_size=2 * skel.r, max_size=2 * skel.r)
    )
    return skel, tuple(pi), weights


@settings(max_examples=200, deadline=None)
@given(relabeled_skeleton())
def test_canonical_key_invariant_under_dart_relabeling(data):
    skel, pi, weights = data
    moved = relabel_darts(skel, pi)
    moved_weights = relabel_weights(skel, moved, pi, weights)
    assert moved.canonical_key(moved_weights) == skel.canonical_key(weights)


@settings(max_examples=200, deadline=None)
@given(relabeled_skeleton(), st.integers(0, 4 * 4 - 1))
def test_rooted_key_invariant_under_dart_relabeling(data, raw_root):
    """The key from a root dart does not change when the darts are renamed
    and the root is renamed with them; the unrooted key is the least rooted
    key at vertex 1."""
    skel, pi, weights = data
    root = raw_root % skel.map.num_darts
    moved = relabel_darts(skel, pi)
    moved_weights = relabel_weights(skel, moved, pi, weights)
    assert moved.canonical_key(moved_weights, pi[root]) == skel.canonical_key(
        weights, root
    )
    at_vertex_one = [x for x in range(skel.map.num_darts) if skel.vertex_label[x] == 1]
    assert skel.canonical_key(weights) == min(
        skel.canonical_key(weights, x) for x in at_vertex_one
    )


# ---------------------------------------------------------------------------
# reference for the base map table: scan all of S_2r, keep the rotations that
# are connected and lexicographically minimal under the per-edge dart swaps


def brute_force_base_map_classes(r):
    n = 2 * r
    all_tables = R._swap_tables(r)
    tables = all_tables[1:]
    buckets = {}
    rng = range(n)
    for sigma in itertools.permutations(rng):
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
        if cnt != n:
            continue
        # canonical under the swap group
        is_canon = True
        for t in tables:
            for x in rng:
                c = t[sigma[t[x]]]
                s0 = sigma[x]
                if c != s0:
                    if c < s0:
                        is_canon = False
                    break
            if not is_canon:
                break
        if not is_canon:
            continue
        whites, _ = R._orbits(sigma)
        grays, _ = R._orbits([sigma[x] ^ 1 for x in rng])
        key = (len(whites), len(grays))
        stab = [
            t for t in all_tables if all(t[sigma[t[x]]] == sigma[x] for x in rng)
        ]
        lower = [1 if x // 2 >= sigma[x] // 2 else 0 for x in rng]
        # the record's fields in order: sigma, stabilizer, white and gray
        # face of each dart, lower bounds
        buckets.setdefault(key, []).append(
            (
                bytes(sigma),
                tuple(stab),
                bytes(_face_index(whites, n)),
                bytes(_face_index(grays, n)),
                bytes(lower),
            )
        )
    return buckets


def _face_index(cycles, n):
    """The position in cycles of the cycle through each of 0..n-1."""
    index = [None] * n
    for i, cycle in enumerate(cycles):
        for x in cycle:
            index[x] = i
    return index


def _buckets(r):
    """Every (m, n) that admits skeletons with r vertices."""
    return [
        (m, n)
        for m in range(1, 2 * r + 1)
        for n in range(1, 2 * r + 1)
        if R.skeletons_valid(m, n, r)
    ]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_base_map_classes_match_scan(r):
    brute = brute_force_base_map_classes(r)
    buckets = _buckets(r)
    assert set(brute) <= set(buckets)
    for m, n in buckets:
        # same records in the same order, every field compared
        assert R._base_map_classes(r, m, n) == brute.get((m, n), [])


def test_base_map_classes_r5_bucket_sizes():
    sizes = {(m, n): len(R._base_map_classes(5, m, n)) for m, n in _buckets(5)}
    assert sizes == {
        (1, 2): 5808, (2, 1): 5808,
        (1, 4): 5040, (4, 1): 5040,
        (1, 6): 504, (6, 1): 504,
        (2, 3): 20640, (3, 2): 20640,
        (2, 5): 4632, (5, 2): 4632,
        (3, 4): 12360, (4, 3): 12360,
    }
    assert sum(sizes.values()) == 97968


def _cycles_of(index, perm):
    """The cycles a face index names, face i walked along perm from its
    minimum dart, the first dart with index i; every dart of the walk must
    carry index i, and the walks must cover all darts."""
    cycles = []
    for i in range(max(index) + 1):
        start = index.index(i)
        cycle = [start]
        x = perm[start]
        while x != start:
            assert index[x] == i
            cycle.append(x)
            x = perm[x]
        cycles.append(cycle)
    assert sum(map(len, cycles)) == len(index)
    return cycles


def _table_digest(records, r):
    """sha256 of a bucket's records in order, as JSON lines [sigma,
    stabilizer masks, white cycles, gray cycles, lower bounds]: a form that
    does not depend on how a record stores them."""
    h = hashlib.sha256()
    for record in records:
        sigma = list(record.sigma)
        masks = [
            sum(1 << k for k in range(r) if t[2 * k] != 2 * k) for t in record.stab
        ]
        whites = _cycles_of(record.white, sigma)
        grays = _cycles_of(record.gray, [y ^ 1 for y in sigma])
        line = [sigma, masks, whites, grays, list(record.lower)]
        h.update((json.dumps(line) + "\n").encode())
    return h.hexdigest()


def test_base_map_classes_r5_pinned():
    """The r = 5 tables, which the scan does not reach, as digests taken
    from the tables kept as dicts of tuples (sigma, stabilizer tables, white
    cycles, gray cycles, lower bounds)."""
    digests = {
        (m, n): _table_digest(R._base_map_classes(5, m, n), 5) for m, n in _buckets(5)
    }
    assert digests == {
        (1, 2): "00e0392acca8a92a8cc70e7a594744cc7d362aff8fd5d932400c43579beb7892",
        (2, 1): "feaf4f72d9c1131e17da6ca384bc6298708fed961dbd0698db9c4b436d49b7ab",
        (1, 4): "7c85591ac428f5af56a78646904a5ee8cf5b250d54972a24c01d5a3751ecd4c5",
        (4, 1): "dd6a8c4db0aead8777c6c08fd138e4df6964322e6c54fdea02d81346130afff5",
        (1, 6): "6dc2a3f0a51c2f63e2df4908bedb43a880e82e3d8c44798a039bc2f117bc60a8",
        (6, 1): "eba076cd1cbca75de5e895b5653ab2191cd93e3decde4897c5fbea09a86c9578",
        (2, 3): "d4c4f93bc6e0f73ff9733ec294117c4575ca81a6cade2a2f631811b6f6948bf9",
        (3, 2): "1c3ca503ba361fbb3b15f369dc15a3a4af290c095125a179cb0bcb5edbcef66f",
        (2, 5): "2dc2fddd80ef927d9ed6d305010f6e57fa314a5e7521c7ba049ba2b85f62f4f8",
        (5, 2): "6fdabc2cbd190bf73e3e58ca71ef0696db345a5f5f6eaf287ef6290f988720d3",
        (3, 4): "9b472eafa173c4ec5715c1946af6bbeb110fc9324529cb65f91539f82505c374",
        (4, 3): "a76b0b2237b522e4648cda0234603e496064900be6be5b8361bc37b8c9408756",
    }


def test_base_map_classes_r5_bucket_memory():
    """The largest r = 5 bucket, 20,640 records, stays under 8 MB while it
    is built and cached (about 20 MB as dicts of tuples)."""
    R._base_map_classes.cache_clear()
    tracemalloc.start()
    try:
        records = R._base_map_classes(5, 2, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 20640
    assert peak < 8_000_000


def _meets(record, caps):
    """Whether a record's lower bounds sum to at most caps[0] and every white
    and gray face needs at most caps[1] and caps[2], read off its fields."""
    total, white, gray = caps
    needs = ({}, {})
    for i, j, low in zip(record.white, record.gray, record.lower):
        needs[0][i] = needs[0].get(i, 0) + low
        needs[1][j] = needs[1].get(j, 0) + low
    return (
        sum(record.lower) <= total
        and max(needs[0].values()) <= white
        and max(needs[1].values()) <= gray
    )


@st.composite
def bucket_and_caps(draw):
    r = draw(st.integers(1, 4))
    m, n = draw(st.sampled_from(_buckets(r)))
    caps = draw(st.tuples(*[st.integers(0, 2 * r)] * 3))
    return r, m, n, caps


# sizes of the r = 5 (2, 3) bucket under the caps of the examples below
R5_BOUNDED_SIZES = {
    (2, 10, 10): 0,
    (3, 10, 10): 40,
    (4, 3, 2): 1335,
    (5, 3, 2): 2100,
    (6, 3, 2): 2120,
}


@settings(max_examples=150, deadline=None)
@given(bucket_and_caps())
@example((5, 2, 3, (5, 3, 2)))
@example((5, 2, 3, (4, 3, 2)))
@example((5, 2, 3, (6, 3, 2)))
# total caps at a bucket's least total need, and one below it
@example((5, 2, 3, (3, 10, 10)))
@example((5, 2, 3, (2, 10, 10)))
@example((4, 1, 5, (5, 8, 8)))
@example((4, 1, 5, (4, 8, 8)))
@example((4, 2, 4, (4, 3, 2)))
@example((4, 2, 4, (3, 3, 2)))
@example((3, 1, 4, (4, 6, 6)))
@example((3, 1, 4, (3, 6, 6)))
def test_bounded_table_is_the_filtered_table(case):
    """The search under caps keeps exactly the records of the full table
    that meet them: same records, same order, same stabilizers."""
    r, m, n, caps = case
    full = R._base_map_classes(r, m, n)
    bounded = R._base_map_classes(r, m, n, caps)
    assert bounded == [record for record in full if _meets(record, caps)]
    if r == 5:
        assert len(bounded) == R5_BOUNDED_SIZES[caps]


@pytest.mark.parametrize(
    "bucket, caps, size, digest",
    [
        (
            (6, 2, 2),
            (4, 3, 2),
            4276,
            "87a9aba405b0c53ed78fd96b5e57c69d8e1f3ddfe13b0ccbb1ae1b17c75296f0",
        ),
        (
            (6, 1, 1),
            (5, 5, 5),
            25851,
            "804df2aa24a6e342732ae7f83af68af74a9c9efb42c096db2a6bdba653e57b79",
        ),
        (
            (6, 1, 5),
            (6, 6, 2),
            33665,
            "ac9b34936597cceb09ee6adbbade6cb0a10dcfa6671c919ae08c9bdc0844c7c2",
        ),
    ],
    ids=["6-2-2", "6-1-1", "6-1-5"],
)
def test_bounded_r6_tables_pinned(bucket, caps, size, digest):
    """Three r = 6 tables under caps, as sizes and digests taken from the
    search before it had the floor on the need still to come.  No full r = 6
    table is affordable to filter (the (2, 2) bucket holds 901,140 records),
    so these pins are the check of the floor past r = 5."""
    r = bucket[0]
    try:
        records = R._base_map_classes(*bucket, caps)
        assert len(records) == size
        assert _table_digest(records, r) == digest
    finally:
        R._base_map_classes.cache_clear()


def test_caps_clamp_at_two_r():
    """Caps that cannot bind share the table of all records, and caps past
    2r share the entry of the clamped caps."""
    full = R._base_map_classes(3, 1, 2)
    assert R._base_map_classes(3, 1, 2, (6, 6, 6)) is full
    assert R._base_map_classes(3, 1, 2, (9, 7, 40)) is full
    assert R._base_map_classes(3, 1, 2, (12, 2, 3)) is R._base_map_classes(
        3, 1, 2, (6, 2, 3)
    )


def test_ribbon_count_builds_one_bucket():
    """The r = 5 count builds one table: the records of the (m, n) = (2, 3)
    bucket that its (mu, nu) can weight, caps (d, max mu, max nu)."""
    R._base_map_classes.cache_clear()
    params = hurwitz_params(1, (3, 2), (2, 2, 1))
    assert R.count_hurwitz_ribbon(params) == P.count_hurwitz_permutation(params)
    info = R._base_map_classes.cache_info()
    assert info.currsize == 1
    bounded = R._base_map_classes(5, 2, 3, (5, 3, 2))
    assert R._base_map_classes.cache_info().hits == info.hits + 1
    full = R._base_map_classes(5, 2, 3)
    assert bounded == [record for record in full if _meets(record, (5, 3, 2))]


def test_ribbon_count_r5_memory():
    """The cold r = 5 count peaks under 1.5 MB (tracemalloc): its table
    holds the 2,100 records it can weight, not the bucket's 20,640."""
    R._base_map_classes.cache_clear()
    params = hurwitz_params(1, (3, 2), (2, 2, 1))
    tracemalloc.start()
    try:
        count = R.count_hurwitz_ribbon(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 8160
    assert peak < 1_500_000


def test_ribbon_rejects_r_beyond_limit():
    params = hurwitz_params(2, (4, 2), (3, 3))
    assert params.r == R.MAX_RIBBON_R + 1
    with pytest.raises(Infeasible, match="permutation and tropical"):
        R.count_hurwitz_ribbon(params)
    with pytest.raises(Infeasible):
        R.enumerate_skeletons(2, 2, params.r)


# ---------------------------------------------------------------------------
# basic map operations


def test_faces_single_edge():
    seg = R.CombinatorialMap((0, 1), (1, 0))
    assert len(seg.face_orbits) == 1
    assert seg.genus() == 0


def test_faces_loop():
    loop = R.CombinatorialMap((1, 0), (1, 0))
    assert len(loop.face_orbits) == 2
    assert loop.genus() == 0


def test_faces_partition_darts():
    for skel, _ in R.enumerate_skeletons(2, 2, 2):
        seen = [x for f in skel.map.face_orbits for x in f]
        assert sorted(seen) == list(range(skel.map.num_darts))


def test_genus_of_one_one_two_skeleton():
    (pair,) = R.enumerate_skeletons(1, 1, 2)
    skel, aut = pair
    assert len(skel.map.face_orbits) == 2
    assert skel.genus() == 1
    assert aut == 2


def test_genus_forced_by_valence():
    for m, n, r in [(2, 1, 1), (1, 1, 2), (2, 2, 2), (1, 3, 2)]:
        for skel, _ in R.enumerate_skeletons(m, n, r):
            assert skel.genus() == (r - m - n + 2) // 2


def test_genus_always_integral_on_rotation_systems():
    # a rotation system always presents a closed oriented surface, so V-E+F
    # is even on every constructible map; the NonIntegerGenus guard can only
    # fire on (m, n, r) combinations, which skeletons_valid screens out
    for m, n, r in [(2, 1, 1), (1, 1, 2), (2, 2, 2)]:
        for skel, _ in R.enumerate_skeletons(m, n, r):
            assert isinstance(skel.genus(), int)
    assert not R.skeletons_valid(2, 2, 3)  # genus would be 1/2
    assert not R.skeletons_valid(1, 1, 1)
    assert not R.skeletons_valid(5, 1, 2)  # genus would be -1


def test_parity_empty_combinations():
    assert R.enumerate_skeletons(1, 1, 1) == []
    assert R.enumerate_skeletons(2, 2, 1) == []
    assert not R.skeletons_valid(1, 1, 1)


def test_single_class_counts():
    assert len(R.enumerate_skeletons(2, 1, 1)) == 1
    assert len(R.enumerate_skeletons(1, 2, 1)) == 1
    assert len(R.enumerate_skeletons(1, 1, 2)) == 1


def test_natural_orientation_on_genus_one_skeleton():
    (pair,) = R.enumerate_skeletons(1, 1, 2)
    skel, _ = pair
    orients = sorted(skel.natural_orientation(e) for e in skel.edges())
    assert orients == [(1, 2), (1, 2), (2, 1), (2, 1)]


def test_natural_orientation_flips_with_colors():
    for skel, _ in R.enumerate_skeletons(2, 2, 2)[:5]:
        swapped_colors = tuple(
            "gray" if c == "white" else "white" for c in skel.face_color
        )
        # swapping colors means swapping label pools too
        flipped = R.MNRRibbonGraph(
            skel.map, skel.vertex_label, swapped_colors, skel.face_label
        )
        for e in skel.edges():
            i, j = skel.natural_orientation(e)
            assert flipped.natural_orientation(e) == (j, i)


def test_edge_length():
    assert edge_length(1, 1, 2, 2) == Fraction(3, 2)
    assert edge_length(0, 1, 2, 2) == Fraction(1, 2)
    assert edge_length(0, 2, 1, 2) == Fraction(-1, 2)


def test_edge_lengths_positive_iff_weighting_valid():
    params = hurwitz_params(0, (2, 1), (2, 1))
    for hrg, _ in R.hurwitz_ribbon_classes(params):
        assert all(l > 0 for l in edge_lengths(hrg))


# ---------------------------------------------------------------------------
# weight polytopes


def test_weight_polytope_unique_point_on_genus_one():
    (pair,) = R.enumerate_skeletons(1, 1, 2)
    skel, _ = pair
    poly = weight_polytope(skel, Partition((2,)), Partition((2,)))
    pts = lattice_points(poly)
    assert len(pts) == 1
    assert sorted(pts[0]) == [0, 0, 1, 1]


def test_weight_polytope_infeasible_empty():
    (pair,) = R.enumerate_skeletons(1, 1, 2)
    skel, _ = pair
    poly = weight_polytope(skel, Partition((1,)), Partition((1,)))
    assert lattice_points(poly) == []


def test_weight_polytope_scaling_monotone():
    (pair,) = R.enumerate_skeletons(1, 1, 2)
    skel, _ = pair
    counts = []
    for t in range(1, 5):
        poly = weight_polytope(skel, Partition((2 * t,)), Partition((2 * t,)))
        counts.append(len(lattice_points(poly)))
    assert counts == sorted(counts)


def test_weight_polytope_row_structure():
    for skel, _ in R.enumerate_skeletons(2, 2, 2)[:5]:
        poly = weight_polytope(skel, Partition((2, 1)), Partition((2, 1)))
        for coeffs, _ in poly.rows:
            assert set(coeffs) <= {0, 1, 2}
        # every edge lies on exactly one white and one gray row
        for k in range(poly.num_edges):
            assert sum(coeffs[k] for coeffs, _ in poly.rows) == 2


def test_weight_polytope_rank():
    # affine dimension of the solution space is 2r - (m+n-1) = 4g-3+m+n
    for m, n, r in [(2, 1, 1), (1, 1, 2), (2, 2, 2), (3, 1, 2)]:
        g = (r - m - n + 2) // 2
        for skel, _ in R.enumerate_skeletons(m, n, r):
            poly = weight_polytope(skel, Partition([1] * m), Partition([1] * n))
            assert 2 * r - rank([coeffs for coeffs, _ in poly.rows]) == 4 * g - 3 + m + n


def test_lattice_points_lexicographic():
    params = hurwitz_params(0, (3, 2), (4, 1))
    for skel, _ in R.enumerate_skeletons(2, 2, 2)[:6]:
        poly = weight_polytope(skel, params.mu, params.nu)
        pts = lattice_points(poly)
        assert pts == sorted(pts)
        for w in pts:
            assert poly.contains(w)
        assert solve_rows(poly.num_edges, poly.rows, poly.lower) == pts


@functools.lru_cache(maxsize=None)
def weighted_classes_up_to_r3():
    return [
        hrg
        for params in all_params(5, 3)
        for hrg, _ in R.hurwitz_ribbon_classes(params)
    ]


@st.composite
def nudged_weighting(draw):
    """A weighted ribbon graph with r <= 3 and its weights after one small
    change: +-1 on one or two edges, a swap, or one weight more or less."""
    hrg = draw(st.sampled_from(weighted_classes_up_to_r3()))
    w = list(hrg.weights)
    edge = st.integers(0, len(w) - 1)
    change = draw(st.sampled_from(["one", "two", "swap", "more", "less"]))
    if change in ("one", "two"):
        for _ in range(1 if change == "one" else 2):
            w[draw(edge)] += draw(st.sampled_from([-1, 1]))
    elif change == "swap":
        i, j = draw(edge), draw(edge)
        w[i], w[j] = w[j], w[i]
    elif change == "more":
        w.insert(draw(st.integers(0, len(w))), draw(st.integers(0, 3)))
    else:
        del w[draw(edge)]
    return hrg, tuple(w)


@settings(max_examples=300, deadline=None)
@given(nudged_weighting())
def test_weighting_check_rejects_what_the_polytope_rejects(data):
    hrg, w = data
    poly = weight_polytope(hrg.skeleton, hrg.params.mu, hrg.params.nu)
    assert poly.contains(hrg.weights)
    try:
        R.HurwitzRibbonGraph(hrg.skeleton, w, hrg.params)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == poly.contains(w)


# ---------------------------------------------------------------------------
# counting


@pytest.mark.parametrize(
    "g,mu,nu,value",
    [
        (0, (1, 1), (2,), Fraction(1)),
        (1, (2,), (2,), Fraction(1, 2)),
        (0, (2, 1), (2, 1), Fraction(4)),
    ],
)
def test_count_examples(g, mu, nu, value):
    assert R.count_hurwitz_ribbon(hurwitz_params(g, mu, nu)) == value


def test_count_rejects_r_zero():
    with pytest.raises(RZero):
        R.count_hurwitz_ribbon(hurwitz_params(0, (3,), (3,)))


def test_count_agrees_with_permutations(small_params):
    for params in small_params:
        assert R.count_hurwitz_ribbon(params) == P.count_hurwitz_permutation(
            params
        ), params


def test_class_weights_reproduce_count():
    params = hurwitz_params(0, (2, 1), (2, 1))
    classes = R.hurwitz_ribbon_classes(params)
    total = sum(Fraction(1, aut) for _, aut in classes)
    assert total == Fraction(4)


def test_count_equals_class_sum():
    """The count sums over all labelings per cell; the listing path builds
    one class per orbit with its automorphism order."""
    cases = all_params(4, 5) + [hurwitz_params(1, (3, 2), (2, 2, 1))]
    for params in cases:
        classes = R.hurwitz_ribbon_classes(params)
        assert R.count_hurwitz_ribbon(params) == sum(
            Fraction(1, aut) for _, aut in classes
        ), params
    assert R.count_hurwitz_ribbon(cases[-1]) == 8160


@st.composite
def ribbon_hurwitz_data(draw):
    """(g, mu, nu) with d <= 6 and 1 <= r <= 4, parts in arbitrary order."""
    d = draw(st.integers(1, 6))
    mu = draw(st.sampled_from([p for p in descending_partitions(d) if len(p) <= 5]))
    nu = draw(
        st.sampled_from(
            [p for p in descending_partitions(d) if len(p) <= 6 - len(mu)]
        )
    )
    base = len(mu) + len(nu) - 2
    g = draw(st.sampled_from([g for g in range(3) if 1 <= 2 * g + base <= 4]))
    return g, tuple(draw(st.permutations(mu))), tuple(draw(st.permutations(nu)))


@settings(max_examples=60, deadline=None)
@given(ribbon_hurwitz_data())
@example((0, (1, 2), (1, 1, 1)))
@example((1, (1, 2, 1), (2, 2)))
@example((0, (1, 3, 1, 1), (2, 1, 3)))
def test_count_invariant_under_part_order(data):
    """Repeated parts enter through the multiplicity weight; a wrong weight
    breaks agreement with the permutation count on such inputs."""
    g, mu, nu = data
    value = R.count_hurwitz_ribbon(hurwitz_params(g, mu, nu))
    assert value == P.count_hurwitz_permutation(hurwitz_params(g, mu, nu))
    ordered = hurwitz_params(g, sorted(mu, reverse=True), sorted(nu, reverse=True))
    assert R.count_hurwitz_ribbon(ordered) == value


def _dart_rows(record, a, b):
    """The balancing rows of one record over its sigma darts, for white face
    totals a and gray face totals b, as solve_rows reads them."""
    rows = []
    for index, totals in ((record.white, a), (record.gray, b)):
        for i, total in enumerate(totals):
            rows.append((tuple(int(f == i) for f in index), total))
    return tuple(rows)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cell_count_matches_lattice_solver(r):
    """The per-cell weightings, listed and counted, against the per-dart
    search, for every admissible ordering of every (mu, nu) of the bucket's
    lengths with d up to max(m, n) + 2."""
    checked = 0
    for m, n in _buckets(r):
        pairs = [
            (mu, nu)
            for d in range(max(m, n), max(m, n) + 3)
            for mu in descending_partitions(d)
            for nu in descending_partitions(d)
            if len(mu) == m and len(nu) == n
        ]
        for record in R._base_map_classes(r, m, n):
            lower = record.lower
            cells = R._record_cells(record)
            w_need = [0] * m
            g_need = [0] * n
            for x, low in enumerate(lower):
                w_need[record.white[x]] += low
                g_need[record.gray[x]] += low
            for mu, nu in pairs:
                for a in R._distinct_orderings(mu):
                    if any(x < y for x, y in zip(a, w_need)):
                        continue
                    for b in R._distinct_orderings(nu):
                        if any(x < y for x, y in zip(b, g_need)):
                            continue
                        points = solve_rows(
                            len(lower), _dart_rows(record, a, b), lower
                        )
                        listed = R._cell_weightings(cells, lower, a, b)
                        counted = sum(n for _, n in R._cell_totals(cells, a, b))
                        assert counted == len(listed)
                        assert listed == points
                        checked += 1
    assert checked > 0


def _digest(items) -> str:
    lines = "".join(json.dumps([x.serialize(), aut]) + "\n" for x, aut in items)
    return hashlib.sha256(lines.encode()).hexdigest()


@pytest.mark.parametrize(
    "listing,size,digest",
    [
        (
            lambda: R.hurwitz_ribbon_classes(hurwitz_params(0, (2, 2, 1), (3, 1, 1))),
            1152,
            "01705d765ece0ae022b19c864b60ecf0b887fdf3c116cbe5c215c1b281b296aa",
        ),
        (
            lambda: R.hurwitz_ribbon_classes(hurwitz_params(1, (3, 2), (2, 2, 1))),
            8160,
            "acd7cb4802fbccfd113b26665f60aaa2d32d1361476433e40c612586e737c2e2",
        ),
        (
            lambda: R.enumerate_skeletons(2, 2, 4),
            2004,
            "ae3e6e3d7f80c99334f93501b1f9bbe97d746698808628d302dec99c966ce49f",
        ),
        # the three above have aut = 1 throughout; these two have aut = 2
        # on 8 of 168 classes and on 6 of 66 skeletons
        (
            lambda: R.hurwitz_ribbon_classes(hurwitz_params(2, (4,), (4,))),
            168,
            "79f2ce19c2ef53f18cfaa6ea3cc7c761110c0004124c4a0c29749e39cd46655b",
        ),
        (
            lambda: R.enumerate_skeletons(1, 1, 4),
            66,
            "f785b86ee645ed52bf170d386dec648a5228afb8a4abcb01386641295563f8fa",
        ),
    ],
    ids=[
        "classes-0-221-311",
        "classes-1-32-221",
        "skeletons-2-2-4",
        "classes-2-4-4",
        "skeletons-1-1-4",
    ],
)
def test_listing_output_pinned(listing, size, digest):
    """Representatives, order and automorphism orders of five listings, as
    sha256 of their JSON lines [serialized object, aut], taken before the
    listing shared the count's cell recursion."""
    items = listing()
    assert len(items) == size
    assert _digest(items) == digest


def test_bicoloring_invariant():
    for skel, _ in R.enumerate_skeletons(2, 2, 2)[:8]:
        face_of = skel.face_of_dart
        for x, y in skel.edges():
            assert skel.face_color[face_of[x]] != skel.face_color[face_of[y]]


# ---------------------------------------------------------------------------
# medial construction


def _cycle_map(k):
    n = 2 * k
    rot = [0] * n
    inv = [0] * n
    for v in range(k):
        rot[2 * v] = 2 * v + 1
        rot[2 * v + 1] = 2 * v
        inv[2 * v] = 2 * ((v + 1) % k) + 1
        inv[2 * ((v + 1) % k) + 1] = 2 * v
    return R.CombinatorialMap(tuple(rot), tuple(inv))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_medial_of_cycle(k):
    cm = _cycle_map(k)
    vl = tuple(x // 2 + 1 for x in range(2 * k))
    lm = LabeledMap(
        cm,
        vl,
        tuple(range(1, len(cm.face_orbits) + 1)),
        tuple(range(1, len(cm.edges()) + 1)),
    )
    med = medial_graph(lm)
    assert med.r == k
    assert len(med.edges()) == 2 * k
    assert med.genus() == 0


def test_medial_vertex_count_is_edge_count():
    cm = _cycle_map(4)
    vl = tuple(x // 2 + 1 for x in range(8))
    lm = LabeledMap(cm, vl, (1, 2), tuple(range(1, 5)))
    assert medial_graph(lm).r == len(cm.edges())


def test_medial_of_single_loop():
    cm = R.CombinatorialMap((1, 0), (1, 0))
    lm = LabeledMap(cm, (1, 1), (1, 2), (1,))
    med = medial_graph(lm)
    colors = med.face_color
    assert (colors.count("white"), colors.count("gray"), med.r) == (1, 2, 1)
    assert med.genus() == 0


def test_medial_balancing_labels_consistent():
    # white faces of the medial correspond to input vertices: the white face
    # labeled k must touch exactly the medial vertices of edges at vertex k
    cm = _cycle_map(3)
    vl = tuple(x // 2 + 1 for x in range(6))
    lm = LabeledMap(cm, vl, (1, 2), (1, 2, 3))
    med = medial_graph(lm)
    for orbit, color, lab in zip(med.map.face_orbits, med.face_color, med.face_label):
        if color != "white":
            continue
        touched = {med.vertex_label[x] for x in orbit}
        incident_edges = {
            ei + 1
            for ei, (a, b) in enumerate(cm.edges())
            if vl[a] == lab or vl[b] == lab
        }
        assert touched == incident_edges


# ---------------------------------------------------------------------------
# serialization


def test_serialize_shape():
    (pair,) = R.enumerate_skeletons(1, 1, 2)
    skel, _ = pair
    doc = skel.serialize(weights=(0, 0, 1, 1))
    assert doc["darts"] == 8
    assert len(doc["rotation"]) == 8
    assert sorted(doc["involution"]) == list(range(1, 9))
    assert set(doc["face_colors"]) == {"white", "gray"}
    assert len(doc["weights"]) == 4


def test_dot_output_mentions_orientation():
    (pair,) = R.enumerate_skeletons(1, 1, 2)
    skel, _ = pair
    dot = skel.to_dot(weights=(0, 0, 1, 1))
    assert "w=1; 2->1" in dot or "w=1; 1->2" in dot


def _all_records():
    """Every table record with r <= 4, as (r, m, n, record)."""
    return [
        (r, m, n, record)
        for r in range(1, 5)
        for m, n in _buckets(r)
        for record in R._base_map_classes(r, m, n)
    ]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_medial_layout_rule(seed):
    """The layout both skeleton builders rely on, on every table record with
    r <= 4 under a face labeling drawn from the seed: every edge's natural
    dart is even, the face through in-dart 2a+1 is a's white face (its sigma
    cycle) and the face through out-dart 2a its gray face, each with a's
    label."""
    rnd = random.Random(seed)
    for r, m, n, record in _all_records():
        vlab, glab = rnd.sample(range(1, m + 1), m), rnd.sample(range(1, n + 1), n)
        white = [vlab[i] for i in record.white]
        gray = [glab[j] for j in record.gray]
        skel = R.medial_skeleton(R.medial_map(record.sigma), white, gray)
        assert all(skel.natural_dart(e) % 2 == 0 for e in skel.edges())
        face_of = skel.face_of_dart
        for a in range(2 * r):
            wf, gf = face_of[2 * a + 1], face_of[2 * a]
            assert (skel.face_color[wf], skel.face_label[wf]) == ("white", white[a])
            assert (skel.face_color[gf], skel.face_label[gf]) == ("gray", gray[a])
