import hashlib
import itertools
import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_params
from hurwitz.core import Partition, descending_partitions, hurwitz_params, sweep_params
from hurwitz import permutation as P
from reference import (
    all_transpositions,
    apply_transposition,
    are_isomorphic,
    automorphism_order,
    brute_force_completions,
    chain_events,
)


def perm_from_cycles(d, *cycs):
    images = list(range(d))
    for c in cycs:
        for a, b in zip(c, c[1:] + c[:1]):
            images[a] = b
    return tuple(images)


SIX_CYCLE = perm_from_cycles(6, (0, 1, 2, 3, 4, 5))


def test_cycle_type_examples():
    assert P.cycle_type(P.identity(3)).sorted_desc() == (1, 1, 1)
    assert P.cycle_type(SIX_CYCLE).sorted_desc() == (6,)
    prod = perm_from_cycles(6, (0, 1), (2, 3, 4, 5))
    assert P.cycle_type(prod).sorted_desc() == (4, 2)


def test_apply_transposition_cut():
    # (13)(123456) = (12)(3456): a cut of the 6-cycle into 2 + 4
    tau = P.transposition(6, 0, 2)
    prod, event = apply_transposition(SIX_CYCLE, tau)
    assert prod == perm_from_cycles(6, (0, 1), (2, 3, 4, 5))
    assert event.kind == "cut" and event.lengths == (4, 2)


def test_apply_transposition_join():
    tau = P.transposition(6, 0, 2)
    start = perm_from_cycles(6, (0, 1), (2, 3, 4, 5))
    prod, event = apply_transposition(start, tau)
    assert prod == SIX_CYCLE
    assert event.kind == "join" and event.lengths == (4, 2)


def test_apply_transposition_small_join():
    prod, event = apply_transposition(P.identity(2), P.transposition(2, 0, 1))
    assert prod == P.transposition(2, 0, 1)
    assert event.kind == "join" and event.lengths == (1, 1)


def test_cut_join_count_values():
    assert P.cut_join_count(2, 4, "join") == 8
    assert P.cut_join_count(2, 4, "cut") == 6
    assert P.cut_join_count(3, 3, "cut") == 3


@pytest.mark.parametrize("d", range(2, 9))
def test_cut_join_count_matches_brute_force(d):
    for k in range(1, d):
        l = d - k
        if k > l:
            continue
        # joins: count over a fixed permutation with one k- and one l-cycle
        if k + l == d:
            base = P.canonical_perm_of_type(Partition((k, l)))
            joins = 0
            for i, j in itertools.combinations(range(d), 2):
                _, ev = apply_transposition(base, P.transposition(d, i, j))
                if ev.kind == "join" and ev.lengths == tuple(
                    sorted((k, l), reverse=True)
                ):
                    joins += 1
            assert joins == P.cut_join_count(k, l, "join")
        # cuts of a single d-cycle into (k, l)
        cyc = P.canonical_perm_of_type(Partition((d,)))
        cuts = 0
        for i, j in itertools.combinations(range(d), 2):
            _, ev = apply_transposition(cyc, P.transposition(d, i, j))
            if ev.kind == "cut" and ev.lengths == tuple(sorted((k, l), reverse=True)):
                cuts += 1
        assert cuts == P.cut_join_count(k, l, "cut")


def test_is_transitive():
    t = P.transposition(2, 0, 1)
    assert P.is_transitive([t], 2)
    assert not P.is_transitive([P.transposition(3, 0, 1)], 3)
    assert P.is_transitive([P.transposition(3, 0, 1), P.transposition(3, 0, 2)], 3)


def test_sigma_chain_genus_one():
    params = hurwitz_params(1, (2,), (2,))
    (ms,) = list(P.enumerate_monodromy_sets(params))
    chain = P.sigma_chain(ms)
    t = P.transposition(2, 0, 1)
    assert chain == [t, P.identity(2), t]


def test_sigma_chain_r_zero():
    params = hurwitz_params(0, (3,), (3,))
    sets = list(P.enumerate_monodromy_sets(params))
    assert sets and all(P.sigma_chain(ms) == [ms.sigma0.perm] for ms in sets)


def test_sigma_chain_simple():
    params = hurwitz_params(0, (1, 1), (2,))
    for ms in P.enumerate_monodromy_sets(params):
        assert P.sigma_chain(ms) == [P.identity(2), P.transposition(2, 0, 1)]


@pytest.mark.parametrize(
    "g,mu,nu,count",
    [
        (1, (2,), (2,), 1),
        (0, (1, 1), (2,), 2),
        (0, (2, 1), (2, 1), 24),
    ],
)
def test_enumeration_counts(g, mu, nu, count):
    params = hurwitz_params(g, mu, nu)
    sets = list(P.enumerate_monodromy_sets(params))
    assert len(sets) == count
    for ms in sets:
        ms.validate()


@pytest.mark.parametrize(
    "g,mu,nu,value",
    [
        (0, (1, 1), (2,), Fraction(1)),
        (1, (2,), (2,), Fraction(1, 2)),
        (0, (2, 1), (2, 1), Fraction(4)),
        (2, (4, 2), (3, 3), Fraction(331128)),
        (2, (5, 3), (4, 4), Fraction(4569600)),
    ],
)
def test_count_examples(g, mu, nu, value):
    assert P.count_hurwitz_permutation(hurwitz_params(g, mu, nu)) == value


def test_fast_count_equals_stream(small_params):
    for params in small_params:
        stream = sum(1 for _ in P.enumerate_monodromy_sets(params))
        assert stream == P.count_monodromy_sets(params), params


def test_chain_count_equals_dfs_completions():
    """The orbit-state recursion against the transposition-by-transposition
    DFS that enumeration uses, one sigma_0 per set."""
    for params in all_params(5, 4):
        rep = P.canonical_perm_of_type(params.mu)
        assert P._count_chains(params.mu, params.nu, params.r) == len(
            P._completions(rep, params)
        ), params


def test_completions_match_brute_force_scan():
    """The pruned chain walk lists exactly the transitive r-tuples of
    transpositions ending in type nu, in the same order as a full scan."""
    sets = all_params(4, 4)
    sets += [p for p in all_params(5, 3) if p.d == 5]
    sets += [hurwitz_params(0, (d,), (d,)) for d in range(1, 5)]
    sets.append(hurwitz_params(0, (1, 2), (2, 1)))
    for params in sets:
        rep = P.canonical_perm_of_type(params.mu)
        brute = brute_force_completions(rep, params)
        assert P._completions(rep, params) == brute, params


# d <= 7 and 1 <= r <= 6, where the chain walk visits at most C(d, 2)^r leaves
# (at most 100,000), so the walk can serve as the reference
WALKABLE = [
    (g, mu, nu)
    for g, mu, nu in sweep_params(7, 6)
    if comb(sum(mu), 2) ** (2 * g - 2 + len(mu) + len(nu)) <= 100_000
]


@st.composite
def walkable_data(draw):
    """(params, mu with its parts permuted again), parts in arbitrary order."""
    g, mu, nu = draw(st.sampled_from(WALKABLE))
    params = hurwitz_params(g, draw(st.permutations(mu)), draw(st.permutations(nu)))
    return params, Partition(draw(st.permutations(mu)))


@settings(max_examples=30, deadline=None)
@given(walkable_data())
def test_chain_count_cache_is_shared_by_part_orders(data):
    """The cached forward pass answers like the chain walk with the cache as
    earlier calls left it, from a cleared cache and for a permuted mu, and a
    permuted mu reuses the entry of its sorted parts."""
    params, shuffled = data
    want = len(P._completions(P.canonical_perm_of_type(params.mu), params))
    cache = P._final_orbit_states
    assert P._count_chains(params.mu, params.nu, params.r) == want
    cache.cache_clear()
    assert P._count_chains(params.mu, params.nu, params.r) == want
    cold = cache.cache_info()
    assert (cold.misses, cold.currsize) == (1, 1)
    assert P._count_chains(shuffled, params.nu, params.r) == want
    assert cache.cache_info() == cold._replace(hits=cold.hits + 1)
    states = cache(params.mu.sorted_desc(), params.n, params.r)
    with pytest.raises(TypeError):
        states[()] = 0


def _digest(lines):
    lines = list(lines)
    text = "".join(x + "\n" for x in lines)
    return len(lines), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "g,mu,nu,sets,classes",
    [
        (
            0, (1, 2), (2, 1),
            (24, "5e8137ea33117fd1ba504b457dae735b41ea8d0c6a93abf80dd2ae351cb6154f"),
            (4, "5b29ce77c25b54f6e83b116860f5461b77eed365d0e39b06a093abc7debf1f74"),
        ),
        (
            0, (2, 2, 1), (3, 2),
            (8640, "9c560b49b987db479de1e90377c79dcbdef7c0ccd3e8c5ec300803469bb8a289"),
            (72, "a986cb1d7f17c712143707bca2b05e870a54fcce0246066cda8c9d5edadbc3b7"),
        ),
        (
            1, (3, 2), (5,),
            (9000, "78b224eea38d6920ac4cdc538cac89f0876de698591e01760982c8c1c19d1c58"),
            (75, "7b75edb2234e5b49b08329db25f1686881ad2bde95235fc029b21b84087abc27"),
        ),
        (
            1, (4,), (4,),
            (120, "981f109d92fcec5f3f35604f0514852459c88229503e9b9f24c91b1f1c9b3f5c"),
            (6, "685b3c59f52f37c8fa620ce10aff50b94cd9a2389e50653dc1bf650069ace12b"),
        ),
        (
            0, (3,), (3,),
            (2, "6e4f457cff947ab45c6cd58f479aaef36b2930ff3256149c64dceb5d284f0a8b"),
            (1, "9882b776e71dd607ecd6c365d4898804efb096f7ade377b99b92a6acfb0b37e0"),
        ),
    ],
)
def test_listing_output_is_pinned(g, mu, nu, sets, classes):
    """The set stream and the class list, line by line as JSON, keep their
    count and sha256: content and order are both pinned."""
    params = hurwitz_params(g, mu, nu)
    assert _digest(
        json.dumps(ms.serialize()) for ms in P.enumerate_monodromy_sets(params)
    ) == sets
    assert _digest(
        json.dumps([ms.serialize(), aut]) for ms, aut in P.monodromy_classes(params)
    ) == classes


def _gjv_one_part(g, nu):
    """Goulden-Jackson-Vakil: H_g((d), nu) = r! d^(r-1) [t^2g] prod S(nu_i t) / S(t)
    with S(t) = sinh(t/2) / (t/2), in exact series in t^2 up to t^2g."""

    def s_series(a):
        return [Fraction(a ** (2 * k), 4**k * factorial(2 * k + 1)) for k in range(g + 1)]

    def times(x, y):
        return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(g + 1)]

    s = s_series(1)
    series = [Fraction(1)]  # 1 / S(t)
    for k in range(1, g + 1):
        series.append(-sum(s[j] * series[k - j] for j in range(1, k + 1)))
    for part in nu:
        series = times(series, s_series(part))
    d, r = sum(nu), 2 * g - 1 + len(nu)
    return factorial(r) * Fraction(d) ** (r - 1) * series[g]


def test_gjv_one_part_formula():
    checked = 0
    for d in range(1, 13):
        for nu in descending_partitions(d):
            for g in range(6):
                if 2 * g - 1 + len(nu) < 1:
                    continue  # r = 0 is test_r_zero_family
                params = hurwitz_params(g, (d,), nu)
                assert P.count_hurwitz_permutation(params) == _gjv_one_part(g, nu), params
                checked += 1
    assert checked == 1614


@st.composite
def small_hurwitz_data(draw):
    """(g, mu, nu) with d <= 7 and r <= 7 when g > 0, parts in arbitrary order."""
    d = draw(st.integers(1, 7))
    mu = draw(st.permutations(draw(st.sampled_from(descending_partitions(d)))))
    nu = draw(st.permutations(draw(st.sampled_from(descending_partitions(d)))))
    g = draw(st.integers(0, max(0, (9 - len(mu) - len(nu)) // 2)))
    return g, tuple(mu), tuple(nu)


@settings(max_examples=60, deadline=None)
@given(small_hurwitz_data())
def test_count_symmetric_in_mu_and_nu(data):
    g, mu, nu = data
    assert P.count_hurwitz_permutation(
        hurwitz_params(g, mu, nu)
    ) == P.count_hurwitz_permutation(hurwitz_params(g, nu, mu))


@settings(max_examples=60, deadline=None)
@given(small_hurwitz_data())
def test_count_invariant_under_random_reordering(data):
    g, mu, nu = data
    ordered = hurwitz_params(g, sorted(mu, reverse=True), sorted(nu, reverse=True))
    assert P.count_hurwitz_permutation(
        hurwitz_params(g, mu, nu)
    ) == P.count_hurwitz_permutation(ordered)


def test_count_invariant_under_part_reordering():
    base = P.count_hurwitz_permutation(hurwitz_params(0, (2, 1, 1), (3, 1)))
    for mu in set(itertools.permutations((2, 1, 1))):
        for nu in set(itertools.permutations((3, 1))):
            assert P.count_hurwitz_permutation(hurwitz_params(0, mu, nu)) == base


def test_count_invariant_under_convention_reversal():
    """Inverting every entry maps sets of one composition convention
    bijectively onto the other, so the counts agree."""

    def count_reversed(params):
        d, r = params.d, params.r
        cnt = 0
        for p in P.perms_of_type(d, params.mu):
            for taus in itertools.product(all_transpositions(d), repeat=r):
                total = p
                for t in taus:
                    total = P.compose(total, t)
                q = P.inverse(total)
                if P.cycle_type(q).sorted_desc() != params.nu.sorted_desc():
                    continue
                if not P.is_transitive([p, *taus], d):
                    continue
                cnt += 1
        mult = P._label_multiplicity(params.mu) * P._label_multiplicity(params.nu)
        return cnt * mult

    for g, mu, nu in [(0, (1, 1), (2,)), (1, (2,), (2,)), (0, (2, 1), (2, 1))]:
        params = hurwitz_params(g, mu, nu)
        assert P.count_monodromy_sets(params) == count_reversed(params)


def test_parity_of_nonempty_enumerations(small_params):
    for params in small_params:
        if P.count_monodromy_sets(params) > 0:
            gap = (params.d - params.m) + (params.d - params.n)
            assert (params.r - gap) % 2 == 0


def test_chain_events_balance(small_params):
    for params in small_params[:20]:
        for ms in itertools.islice(P.enumerate_monodromy_sets(params), 10):
            events = chain_events(ms)
            joins = sum(1 for e in events if e.kind == "join")
            cuts = len(events) - joins
            assert joins - cuts == params.m - params.n


def test_isomorphism_reflexive_and_transport():
    params = hurwitz_params(0, (1, 1), (2,))
    a, b = P.enumerate_monodromy_sets(params)
    assert are_isomorphic(a, a)
    # conjugation by (12) transports one labeling onto the other, so the two
    # labeled sets form a single class of automorphism order 1; this is what
    # makes the class count match the single ribbon-graph class.
    assert are_isomorphic(a, b)
    assert automorphism_order(a) == 1
    classes = P.monodromy_classes(params)
    assert len(classes) == 1 and classes[0][1] == 1


def test_isomorphism_respects_cut_join_pattern():
    params = hurwitz_params(0, (2, 1), (2, 1))
    sets = list(P.enumerate_monodromy_sets(params))
    joins = next(ms for ms in sets if chain_events(ms)[0].kind == "join")
    cuts = next(ms for ms in sets if chain_events(ms)[0].kind == "cut")
    assert not are_isomorphic(joins, cuts)


def test_class_key_equality_is_isomorphism():
    """For every pair of labeled sets in the stream (d <= 4, r <= 3), keys
    agree exactly when the brute-force conjugation search finds a match.

    Both relations are equivalence relations, so checking every set against
    the first set of its key group, and the first sets of distinct groups
    against each other, covers all pairs."""
    checked = 0
    for params in all_params(4, 3):
        groups = {}
        for ms in P.enumerate_monodromy_sets(params):
            first = groups.setdefault(P.monodromy_class_key(ms), ms)
            assert are_isomorphic(first, ms), params
            checked += 1
        for a, b in itertools.combinations(groups.values(), 2):
            assert not are_isomorphic(a, b), params
            checked += 1
    assert checked == 14233 + 17038


def test_class_aut_matches_brute_force(small_params):
    for params in small_params:
        for ms, aut in P.monodromy_classes(params):
            assert aut == automorphism_order(ms), params


def test_orbit_stabilizer_consistency(small_params):
    for params in small_params:
        classes = P.monodromy_classes(params)
        total = sum(Fraction(1, aut) for _, aut in classes)
        assert total == P.count_hurwitz_permutation(params), params


def test_monodromy_class_keys_partition_the_stream():
    for g, mu, nu in [(0, (2, 1), (2, 1)), (1, (2,), (2,)), (0, (3,), (1, 1, 1))]:
        params = hurwitz_params(g, mu, nu)
        class_keys = {P.monodromy_class_key(ms) for ms, _ in P.monodromy_classes(params)}
        stream_keys = {
            P.monodromy_class_key(ms) for ms in P.enumerate_monodromy_sets(params)
        }
        assert stream_keys == class_keys


def test_class_lookup_finds_every_labeled_set():
    """MonodromyClasses.find sends every set of the stream to its class:
    the class whose key it shares, with that class's aut."""
    for g, mu, nu in [(0, (2, 1), (2, 1)), (1, (2,), (2,)), (0, (2, 2), (3, 1))]:
        params = hurwitz_params(g, mu, nu)
        classes = P.monodromy_classes(params)
        keys = [P.monodromy_class_key(ms) for ms, _ in classes]
        for ms in P.enumerate_monodromy_sets(params):
            position, aut = classes.find(ms)
            assert keys[position] == P.monodromy_class_key(ms)
            assert aut == classes[position][1]
        other = P.monodromy_classes(hurwitz_params(g + 1, mu, nu))
        with pytest.raises(ValueError):
            other.find(ms)


def test_r_zero_family():
    for d in range(1, 7):
        params = hurwitz_params(0, (d,), (d,))
        assert P.count_hurwitz_permutation(params) == Fraction(1, d)


def test_r_zero_stream_and_classes():
    """At r = 0 the chain is empty: the stream lists every labeled set, and
    the single class has |Aut| = d, so its 1/|Aut| sum is H = 1/d."""
    for d in range(1, 7):
        params = hurwitz_params(0, (d,), (d,))
        stream = sum(1 for _ in P.enumerate_monodromy_sets(params))
        assert stream == P.count_monodromy_sets(params), d
        classes = P.monodromy_classes(params)
        assert len(classes) == 1
        assert sum(Fraction(1, aut) for _, aut in classes) == Fraction(1, d)


def test_classical_closed_forms():
    # transposition factorizations of a d-cycle number d^(d-2) (Denes), so
    # H_0((1,...,1),(d)) = (d-1)! d^(d-2); and H_1((d),(d)) = d(d^2-1)/12
    from math import factorial

    for d in range(2, 6):
        full = hurwitz_params(0, (1,) * d, (d,))
        assert P.count_hurwitz_permutation(full) == factorial(d - 1) * d ** (d - 2)
        torus = hurwitz_params(1, (d,), (d,))
        assert P.count_hurwitz_permutation(torus) == Fraction(d * (d - 1) * (d + 1), 12)


def test_hurwitz_genus_zero_formula():
    # Hurwitz: covers of P^1 by P^1 with one branch point of type mu and
    # simple ones elsewhere number H_0(mu, 1^d) = d! r! d^(m-3) prod
    # mu_i^mu_i / mu_i!, with r = m + d - 2
    checked = 0
    for d in range(1, 8):
        for mu in descending_partitions(d):
            m = len(mu)
            r = m + d - 2
            if not 1 <= r <= 9:
                continue
            value = factorial(d) * factorial(r) * Fraction(d) ** (m - 3)
            for part in mu:
                value *= Fraction(part**part, factorial(part))
            params = hurwitz_params(0, mu, (1,) * d)
            assert P.count_hurwitz_permutation(params) == value, params
            checked += 1
    assert checked == 38


def test_cycle_string():
    assert P.perm_to_cycle_string(P.identity(4)) == "e"
    p = perm_from_cycles(5, (0, 2), (1, 3, 4))
    assert P.perm_to_cycle_string(p) == "(1 3)(2 4 5)"
