import itertools

import pytest

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
    assert (hrg.skeleton.num_white, hrg.skeleton.num_gray, hrg.skeleton.r) == (2, 1, 1)
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
