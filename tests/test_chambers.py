from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.core import (
    FitFailed,
    OnWall,
    Partition,
    RZero,
    hurwitz_params,
)
from hurwitz import chambers as C
from hurwitz import permutation as P
from hurwitz.permutation import count_hurwitz_permutation
from hurwitz.tropical import enumerate_tropical_graphs  # noqa: F401  (import sanity)
from reference import rank


def test_walls_trivial_cases():
    assert C.walls(1, 1) == []
    assert C.walls(2, 1) == []
    assert C.walls(1, 2) == []


def test_walls_two_two():
    descriptions = {w.describe() for w in C.walls(2, 2)}
    assert descriptions == {"mu1=nu1", "mu1=nu2"}


def test_walls_complement_symmetry():
    # (I, J) and (I^c, J^c) cut the same hyperplane on sum(mu) = sum(nu)
    for m, n in [(2, 2), (3, 2), (2, 3)]:
        wall_list = C.walls(m, n)
        seen = set()
        for w in wall_list:
            comp = w.complement(m, n)
            assert (comp.I, comp.J) not in seen
            seen.add((w.I, w.J))


def test_chamber_of_signs():
    wall_list = C.walls(2, 2)
    assert C.chamber_of(Partition((3, 1)), Partition((2, 2)), wall_list) == (1, 1)
    assert C.chamber_of(Partition((1, 3)), Partition((2, 2)), wall_list) == (-1, -1)
    with pytest.raises(OnWall):
        C.chamber_of(Partition((2, 2)), Partition((2, 2)), wall_list)


def test_chamber_of_on_wall_plain_tuples():
    # the OnWall message must not need Partition attributes
    with pytest.raises(OnWall, match=r"\(\(2, 2\), \(2, 2\)\) lies on mu1=nu1"):
        C.chamber_of((2, 2), (2, 2), C.walls(2, 2))


def test_fit_g0_two_two_all_chambers():
    fits = C.fit_all_chambers(0, 2, 2, dmax=8)
    assert len(fits) == 4 and fits.skipped == ()
    for cp in fits:
        assert cp.holdout_passed
        assert cp.degree() <= 1
        assert C.degree_check(cp)
    assert len({tuple(cp.coefficients) for cp in fits}) > 1


def test_fit_matches_fresh_points():
    cp = C.fit_chamber_polynomial(0, 2, 2, (1, 1), dmax=8)
    # fresh in-chamber points beyond the sampling cap
    for mu, nu in [((7, 2), (5, 4)), ((8, 3), (6, 5))]:
        want = count_hurwitz_permutation(hurwitz_params(0, mu, nu))
        assert cp.evaluate(mu, nu) == want


def test_fit_is_grid_independent():
    a = C.fit_chamber_polynomial(0, 2, 2, (1, 1), dmax=7)
    b = C.fit_chamber_polynomial(0, 2, 2, (1, 1), dmax=9)
    assert a.coefficients == b.coefficients


def test_adjacent_chambers_differ():
    plus = C.fit_chamber_polynomial(0, 2, 2, (1, 1), dmax=8)
    minus = C.fit_chamber_polynomial(0, 2, 2, (-1, -1), dmax=8)
    assert plus.coefficients != minus.coefficients


def test_fit_g1_one_one():
    fits = C.fit_all_chambers(1, 1, 1, dmax=8)
    assert fits.skipped == ()
    (cp,) = fits
    assert cp.holdout_passed
    assert cp.degree() <= 3
    # the closed form d(d-1)(d+1)/12 on this family
    for d in range(2, 12):
        assert cp.evaluate((d,), (d,)) == Fraction(d * (d - 1) * (d + 1), 12)


def test_degree_bounds():
    assert 4 * 0 - 3 + 2 + 2 == 1
    assert 4 * 1 - 3 + 1 + 1 == 3
    assert 4 * 1 - 3 + 2 + 2 == 5


def test_r_zero_family_rejected():
    with pytest.raises(RZero):
        C.fit_chamber_polynomial(0, 1, 1, ())


def test_bad_oracle_fails_holdout():
    calls = {"n": 0}

    def lying_oracle(mu, nu):
        calls["n"] += 1
        base = count_hurwitz_permutation(hurwitz_params(0, mu, nu))
        # corrupt a single late sample to poison the hold-out check
        return base + (1 if calls["n"] == 11 else 0)

    with pytest.raises(FitFailed):
        C.fit_chamber_polynomial(0, 2, 2, (1, 1), dmax=8, oracle=lying_oracle)


def test_wall_detection_on_the_d8_line():
    # breakpoints of mu1 -> H0((mu1, 8-mu1), (nu1, 8-nu1)) sit exactly on the
    # walls mu1 = nu1 and mu1 = nu2
    for nu1 in range(1, 8):
        nu = (nu1, 8 - nu1)
        values = {}
        for mu1 in range(1, 8):
            mu = (mu1, 8 - mu1)
            values[mu1] = count_hurwitz_permutation(hurwitz_params(0, mu, nu))
        observed = {
            t
            for t in range(2, 7)
            if values[t + 1] - 2 * values[t] + values[t - 1] != 0
        }
        expected = {nu1, 8 - nu1} & set(range(2, 7))
        assert observed == expected, (nu, values)


def test_thin_chambers_are_reported_not_dropped():
    # (g=1, m=n=2): 56 coefficients, but every chamber has 50 points up to d = 10
    fits = C.fit_all_chambers(1, 2, 2, dmax=10)
    assert list(fits) == []
    assert [signs for signs, _ in fits.skipped] == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for _, reason in fits.skipped:
        assert "50 points for 56 coefficients" in reason


def test_g0_two_three_at_dmax_12():
    # 18 sampled chambers, 6 with enough points; the grid is sampled once
    C._sample_points.cache_clear()
    fits = C.fit_all_chambers(0, 2, 3, dmax=12)
    assert C._sample_points.cache_info().misses == 1
    assert len(fits) == 6 and len(fits.skipped) == 12
    for cp in fits:
        assert cp.holdout_passed and C.degree_check(cp)


def test_oracle_runs_one_forward_pass_per_sorted_mu():
    # every nu of one (sorted mu, n, r) reads the same cached orbit states
    P._final_orbit_states.cache_clear()
    C.fit_all_chambers(0, 2, 2, dmax=14)
    sorted_mus = {
        tuple(sorted(mu, reverse=True))
        for _, pts in C._sample_points(2, 2, 14)
        for mu, _ in pts
    }
    assert len(sorted_mus) == 47
    assert P._final_orbit_states.cache_info().misses == len(sorted_mus)


def _h0(mu, nu):
    return count_hurwitz_permutation(hurwitz_params(0, tuple(mu), tuple(nu)))


@pytest.mark.parametrize(
    "m,n,dmax,pairs,points",
    [(2, 2, 14, 4, 644), (2, 3, 16, 30, 5358)],
)
def test_genus_zero_wall_crossing(m, n, dmax, pairs, points):
    """Cavalieri-Johnson-Markwig: across the wall delta = mu_I - nu_J,
    P+ - P- = delta C(r, r1) H0(mu_I, nu_J + (delta)) H0(mu_I^c + (delta), nu_J^c)
    with r1 = |I| + |J| - 1, at every sample point on the delta > 0 side of
    every pair of fitted chambers that differ across one wall."""
    fits = C.fit_all_chambers(0, m, n, dmax=dmax)
    assert fits.skipped == ()
    by_signs = {cp.signs: cp for cp in fits}
    samples = dict(C._sample_points(m, n, dmax))
    r = m + n - 2
    seen_pairs = seen_points = 0
    for k, wall in enumerate(C.walls(m, n)):
        rest = wall.complement(m, n)
        weight = comb(r, len(wall.I) + len(wall.J) - 1)
        for signs, plus in by_signs.items():
            minus = by_signs.get(signs[:k] + (-1,) + signs[k + 1 :])
            if signs[k] != 1 or minus is None:
                continue
            seen_pairs += 1
            for mu, nu in samples[signs]:
                delta = wall.functional(mu, nu)
                mu_i, nu_j = [mu[i - 1] for i in wall.I], [nu[j - 1] for j in wall.J]
                mu_ic, nu_jc = [mu[i - 1] for i in rest.I], [nu[j - 1] for j in rest.J]
                left, right = _h0(mu_i, nu_j + [delta]), _h0(mu_ic + [delta], nu_jc)
                assert plus.evaluate(mu, nu) - minus.evaluate(mu, nu) == (
                    delta * weight * left * right
                ), (wall.describe(), mu, nu)
                seen_points += 1
    assert (seen_pairs, seen_points) == (pairs, points)


@st.composite
def augmented_systems(draw):
    k = draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entry, min_size=k + 1, max_size=k + 1), max_size=9))
    return k, rows


@settings(max_examples=300, deadline=None)
@given(augmented_systems())
def test_eliminate_keeps_the_rank_raising_rows(system):
    k, rows = system
    kept, solution = C.eliminate(rows, k)
    # the greedy basis: walk the rows, keep one when the reference rank grows
    basis = []
    for i, row in enumerate(rows):
        if len(basis) == k:
            break
        if rank([rows[j][:k] for j in basis] + [row[:k]]) > len(basis):
            basis.append(i)
    assert kept == basis
    assert (solution is None) == (len(basis) < k)
    if solution is not None:
        for i in kept:
            *coeffs, b = rows[i]
            assert sum(a * x for a, x in zip(coeffs, solution)) == b
