import functools
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_params
from hurwitz.core import InvalidChain, RZero, hurwitz_params
from hurwitz import permutation as P
from hurwitz import ribbon as R
from hurwitz import traffic as T
from reference import are_isomorphic, relabeled, ribbon_to_chain


def classes(g, mu, nu):
    return R.hurwitz_ribbon_classes(hurwitz_params(g, mu, nu))


def test_tick_assignment_validation():
    T.TickAssignment(((0, 1), (2,)))
    with pytest.raises(ValueError):
        T.TickAssignment(((0, 0), (1,)))
    with pytest.raises(ValueError):
        T.TickAssignment(((1, 2),))


def test_chain_for_simple_cover():
    (hrg, _aut), = classes(0, (1, 1), (2,))
    chain = ribbon_to_chain(hrg, T.canonical_ticks(hrg))
    assert chain == [P.identity(2), P.transposition(2, 0, 1)]


def test_chain_for_genus_one():
    (hrg, _aut), = classes(1, (2,), (2,))
    chain = ribbon_to_chain(hrg, T.canonical_ticks(hrg))
    t = P.transposition(2, 0, 1)
    assert chain == [t, P.identity(2), t]


def test_chain_matches_enumerated_monodromy_class():
    params = hurwitz_params(0, (1, 1), (2,))
    (hrg, _aut), = R.hurwitz_ribbon_classes(params)
    ms = T.ribbon_to_monodromy(hrg, T.canonical_ticks(hrg))
    stream = list(P.enumerate_monodromy_sets(params))
    assert any(are_isomorphic(ms, other) for other in stream)


def test_sigma0_cycles_realize_white_faces():
    for g, mu, nu in [(0, (2, 1), (2, 1)), (1, (2, 1), (3,)), (0, (2, 2), (3, 1))]:
        params = hurwitz_params(g, mu, nu)
        for hrg, _ in R.hurwitz_ribbon_classes(params):
            ms = T.ribbon_to_monodromy(hrg, T.canonical_ticks(hrg))
            assert ms.sigma0.label_lengths() == params.mu.parts
            assert ms.sigma_inf.label_lengths() == params.nu.parts


def test_consecutive_steps_differ_by_transpositions():
    for hrg, _ in classes(0, (2, 2), (3, 1)):
        chain = ribbon_to_chain(hrg, T.canonical_ticks(hrg))
        for prev, cur in zip(chain, chain[1:]):
            assert P.is_transposition(P.compose(cur, P.inverse(prev)))


def test_degree_eight_example_is_structurally_valid():
    # the d = 8 case mu = 4+4, nu = 5+3: every weighted class translates to a
    # valid monodromy set
    params = hurwitz_params(0, (4, 4), (5, 3))
    hrgs = R.hurwitz_ribbon_classes(params)
    assert hrgs
    for hrg, _ in hrgs[:5]:
        ms = T.ribbon_to_monodromy(hrg, T.canonical_ticks(hrg))
        ms.validate()


def test_tick_relabeling_conjugates_chain():
    params = hurwitz_params(0, (2, 1), (2, 1))
    hrg, _ = R.hurwitz_ribbon_classes(params)[0]
    base = T.canonical_ticks(hrg)
    chain0 = ribbon_to_chain(hrg, base)
    for pi_images in itertools.permutations(range(params.d)):
        pi = tuple(pi_images)
        chain1 = ribbon_to_chain(hrg, relabeled(base, pi))
        inv_pi = P.inverse(pi)
        for a, b in zip(chain0, chain1):
            assert b == P.compose(pi, P.compose(a, inv_pi))


def test_chain_to_ribbon_small_uniqueness():
    params = hurwitz_params(0, (1, 1), (2,))
    (ms, _aut), = P.monodromy_classes(params)
    hrg, ticks = T.chain_to_ribbon(ms)
    colors = hrg.skeleton.face_color
    assert (colors.count("white"), colors.count("gray"), hrg.skeleton.r) == (2, 1, 1)
    assert ribbon_to_chain(hrg, ticks) == P.sigma_chain(ms)


def test_chain_to_ribbon_genus_one_weights():
    params = hurwitz_params(1, (2,), (2,))
    (ms, _aut), = P.monodromy_classes(params)
    hrg, ticks = T.chain_to_ribbon(ms)
    assert sorted(hrg.weights) == [0, 0, 1, 1]
    assert hrg.skeleton.genus() == 1
    assert ribbon_to_chain(hrg, ticks) == P.sigma_chain(ms)


def test_chain_to_ribbon_rejects_r_zero():
    params = hurwitz_params(0, (3,), (3,))
    (ms, _aut), = P.monodromy_classes(params)
    with pytest.raises(RZero):
        T.chain_to_ribbon(ms)


def test_chain_to_ribbon_rejects_non_transposition_steps():
    params = hurwitz_params(1, (3,), (3,))
    good = P.monodromy_classes(params)[0][0]
    three_cycle = P.compose(good.taus[0], P.transposition(3, 0, 2))
    bad = P.MonodromySet(
        good.sigma0, (three_cycle, *good.taus[1:]), good.sigma_inf, params
    )
    with pytest.raises(InvalidChain):
        T.chain_to_ribbon(bad)


def _first_class(g, mu, nu):
    params = hurwitz_params(g, mu, nu)
    return P.monodromy_classes(params)[0][0], params


def test_chain_to_ribbon_rejects_wrong_chain_length():
    ms, params = _first_class(0, (2, 1), (2, 1))
    for taus in (ms.taus[:1], ms.taus + (P.transposition(3, 0, 1),) * 2):
        bad = P.MonodromySet(ms.sigma0, taus, ms.sigma_inf, params)
        with pytest.raises(InvalidChain, match="expected 2 transpositions"):
            T.chain_to_ribbon(bad)


def test_chain_to_ribbon_rejects_sigma_inf_off_the_product():
    # (1 3)[1](2)[2] replaced by (2 3)[1](1)[2], a permutation of the same
    # type
    ms, params = _first_class(0, (2, 1), (2, 1))
    sigma_inf = P.LabeledPermutation((0, 2, 1), ((1, 2), (0,)))
    bad = P.MonodromySet(ms.sigma0, ms.taus, sigma_inf, params)
    with pytest.raises(InvalidChain, match="is not the identity"):
        T.chain_to_ribbon(bad)
    # (1 3 2)[1] replaced by (1 2 3)[1]: the same tick set, run backwards
    ms, params = _first_class(0, (2, 1), (3,))
    assert ms.sigma_inf.cycles_by_label == ((0, 2, 1),)
    sigma_inf = P.LabeledPermutation((1, 2, 0), ((0, 1, 2),))
    bad = P.MonodromySet(ms.sigma0, ms.taus, sigma_inf, params)
    with pytest.raises(InvalidChain, match="is not the identity"):
        T.chain_to_ribbon(bad)


def test_chain_to_ribbon_rejects_circle_without_vertex():
    # tick 3 is fixed by every step, so its circle meets no vertex
    params = hurwitz_params(0, (1, 1, 1), (1, 1, 1))
    e = P.LabeledPermutation(P.identity(3), ((0,), (1,), (2,)))
    bad = P.MonodromySet(e, (P.transposition(3, 0, 1),) * 4, e, params)
    with pytest.raises(InvalidChain, match="never met a vertex"):
        T.chain_to_ribbon(bad)


def test_chain_to_ribbon_rejects_what_no_ribbon_graph_realizes():
    # two orbits, {1, 2} and {3, 4}, each met by two vertices
    params = hurwitz_params(1, (2, 2), (2, 2))
    s = P.LabeledPermutation((1, 0, 3, 2), ((0, 1), (2, 3)))
    a, b = P.transposition(4, 0, 1), P.transposition(4, 2, 3)
    with pytest.raises(InvalidChain, match="connected"):
        T.chain_to_ribbon(P.MonodromySet(s, (a, a, b, b), s, params))
    # sigma_0's labels swapped, so they realize (1, 2), not mu = (2, 1)
    ms, params = _first_class(0, (2, 1), (2, 1))
    swapped = P.LabeledPermutation(ms.sigma0.perm, ms.sigma0.cycles_by_label[::-1])
    bad = P.MonodromySet(swapped, ms.taus, ms.sigma_inf, params)
    with pytest.raises(InvalidChain, match="balanced"):
        T.chain_to_ribbon(bad)


def test_chain_to_ribbon_pinned():
    """Every class representative with d <= 4 and r <= 4, as JSON lines
    [hrg.serialize(), ticks.per_edge]; the digest was taken from the
    construction that spliced and split boundary lists."""
    h = hashlib.sha256()
    count = 0
    for params in all_params(4, 4):
        for ms, _aut in P.monodromy_classes(params):
            hrg, ticks = T.chain_to_ribbon(ms)
            h.update((json.dumps([hrg.serialize(), ticks.per_edge]) + "\n").encode())
            count += 1
    assert count == 5576
    assert h.hexdigest() == (
        "a3032ce556a7d1c0e09eecb45aecdfd4525e79db519cd4ce49b8360e43b6ed09"
    )


@functools.lru_cache(maxsize=None)
def _class_representatives():
    return [
        ms for params in all_params(4, 4) for ms, _aut in P.monodromy_classes(params)
    ]


def _relabeled_set(ms, pi):
    """ms conjugated by pi: every entry becomes pi . p . pi^-1, each labeled
    cycle is mapped by pi and rotated to start at its minimum."""
    inv_pi = P.inverse(pi)

    def conj(p):
        return P.compose(pi, P.compose(p, inv_pi))

    def labeled(lp):
        moved = []
        for c in lp.cycles_by_label:
            c = [pi[t] for t in c]
            k = c.index(min(c))
            moved.append(tuple(c[k:] + c[:k]))
        return P.LabeledPermutation(conj(lp.perm), tuple(moved))

    return P.MonodromySet(
        labeled(ms.sigma0), tuple(map(conj, ms.taus)), labeled(ms.sigma_inf), ms.params
    )


@st.composite
def relabeled_class(draw):
    """A class representative with d <= 4 and r <= 4 and a relabeling pi."""
    ms = draw(st.sampled_from(_class_representatives()))
    pi = draw(st.permutations(range(ms.params.d)))
    return ms, tuple(pi)


@settings(max_examples=200, deadline=None)
@given(relabeled_class())
def test_chain_to_ribbon_commutes_with_relabeling(data):
    # pi can swap the roles of x and y at a vertex, so the two graphs are
    # isomorphic rather than equal; the relabeled chain, labels included,
    # comes back verbatim
    ms, pi = data
    moved = _relabeled_set(ms, pi)
    moved.validate()
    hrg, _ = T.chain_to_ribbon(ms)
    moved_hrg, moved_ticks = T.chain_to_ribbon(moved)
    assert moved_hrg.canonical_key() == hrg.canonical_key()
    assert T.ribbon_to_monodromy(moved_hrg, moved_ticks) == moved


def test_roundtrip_identity_small(small_params):
    for params in small_params:
        for hrg, _ in R.hurwitz_ribbon_classes(params):
            ticks = T.canonical_ticks(hrg)
            ms = T.ribbon_to_monodromy(hrg, ticks)
            back, back_ticks = T.chain_to_ribbon(ms)
            assert back.canonical_key() == hrg.canonical_key(), params
            assert ribbon_to_chain(back, back_ticks) == P.sigma_chain(ms)


@pytest.mark.parametrize(
    "g,mu,nu",
    [
        (0, (1, 1), (2,)),
        (1, (2,), (2,)),
        (0, (2, 1), (2, 1)),
        (1, (2, 1), (2, 1)),
        (0, (2, 2), (2, 1, 1)),
    ],
)
def test_roundtrip_check_reports_match(g, mu, nu):
    rep = T.roundtrip_check(hurwitz_params(g, mu, nu))
    assert rep.matched
    assert rep.classes_ribbon == rep.classes_permutation
    assert not rep.aut_mismatches
    doc = rep.serialize()
    assert doc["matched"] is True


# ---------------------------------------------------------------------------
# the roundtrip report flags each kind of break


def test_roundtrip_flags_a_rebuilt_graph_of_another_class(monkeypatch):
    # every chain comes back as the graph of class 0, so only class 0
    # survives the comparison
    params = hurwitz_params(0, (2, 1), (2, 1))
    hrg, _ = R.hurwitz_ribbon_classes(params)[0]
    first = T.ribbon_to_monodromy(hrg, T.canonical_ticks(hrg))
    real = T.chain_to_ribbon
    monkeypatch.setattr(T, "chain_to_ribbon", lambda ms: real(first))
    rep = T.roundtrip_check(params)
    assert rep.classes_ribbon == 4
    assert rep.roundtrip_failures == [
        {"class": k, "reason": "the rebuilt graph is not the original"} for k in (1, 2, 3)
    ]
    assert not rep.matched


def test_roundtrip_flags_a_missing_permutation_class(monkeypatch):
    # the listing loses its last class: the class counts differ
    params = hurwitz_params(0, (2, 1), (2, 1))
    real = T.monodromy_classes

    def one_short(params):
        classes = real(params)
        del classes[-1]
        return classes

    monkeypatch.setattr(T, "monodromy_classes", one_short)
    rep = T.roundtrip_check(params)
    assert (rep.classes_ribbon, rep.classes_permutation) == (4, 3)
    assert not rep.matched
    assert rep.serialize()["matched"] is False


def test_roundtrip_flags_two_ribbon_classes_with_one_image(monkeypatch):
    # class 1 is listed as a second copy of class 0: both translate to the
    # same permutation class
    params = hurwitz_params(0, (2, 1), (2, 1))
    real = R.hurwitz_ribbon_classes

    def doubled(params):
        out = real(params)
        out[1] = out[0]
        return out

    monkeypatch.setattr(R, "hurwitz_ribbon_classes", doubled)
    rep = T.roundtrip_check(params)
    assert rep.classes_ribbon == rep.classes_permutation == 4
    assert rep.roundtrip_failures == [] and rep.aut_mismatches == []
    assert rep.unmatched == [
        {"class": 1, "reason": "two ribbon classes hit one permutation class"}
    ]
    assert not rep.matched


def test_roundtrip_records_a_translation_error_and_goes_on(monkeypatch):
    params = hurwitz_params(0, (2, 1), (2, 1))
    real = T.chain_to_ribbon
    calls = []

    def fails_once(ms):
        calls.append(ms)
        if len(calls) == 2:
            raise InvalidChain("injected")
        return real(ms)

    monkeypatch.setattr(T, "chain_to_ribbon", fails_once)
    rep = T.roundtrip_check(params)
    assert len(calls) == 4
    assert rep.roundtrip_failures == [{"class": 1, "reason": "injected"}]
    assert rep.unmatched == [] and not rep.matched
