import pytest
from fractions import Fraction

from hurwitz import ribbon as R
from hurwitz import traffic as T
from hurwitz import tropical as TR
from hurwitz.core import (
    MAX_RIBBON_R,
    DegreeMismatch,
    Infeasible,
    Partition,
    RZero,
    check_method_r,
    format_rational,
    hurwitz_params,
)


def test_params_basic():
    p = hurwitz_params(0, (1, 1), (2,))
    assert (p.d, p.m, p.n, p.r) == (2, 2, 1, 1)


def test_params_genus_one():
    p = hurwitz_params(1, (2,), (2,))
    assert (p.d, p.m, p.n, p.r) == (2, 1, 1, 2)


def test_params_degree_eight():
    p = hurwitz_params(0, (4, 4), (5, 3))
    assert (p.d, p.m, p.n, p.r) == (8, 2, 2, 2)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        hurwitz_params(0, (3,), (2,))


def test_r_zero_is_legal():
    p = hurwitz_params(0, (4,), (4,))
    assert p.r == 0


def test_negative_r_rejected():
    # g = 0, m = n = 1 gives r = 0; there is no way to go below without
    # invalid inputs, so force it through a direct partition of length 1
    # and a "genus -1" stand-in: negative genus is a plain ValueError.
    with pytest.raises(ValueError):
        hurwitz_params(-1, (2,), (2,))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((2, 1)).parts == (2, 1)
    assert Partition((1, 2)) != Partition((2, 1))  # order is a labeling


def test_partition_serialization():
    p = Partition((2, 1))
    assert p.serialize() == "2,1"
    assert Partition.parse("2,1") == p


def test_euler_characteristic_identity():
    for g in range(0, 3):
        for mu, nu in [((2, 1), (3,)), ((1, 1), (2,)), ((4,), (2, 2))]:
            p = hurwitz_params(g, mu, nu)
            assert p.m + p.n - p.r == 2 - 2 * p.g


def test_rational_sum_is_order_independent():
    vals = [Fraction(1, k) for k in range(1, 12)]
    total = sum(vals)
    assert sum(reversed(vals)) == total
    assert sum(sorted(vals)) == total


def test_rational_serialization():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert Fraction(format_rational(Fraction(7, 3))) == Fraction(7, 3)


def test_check_method_r_admits_each_method_on_its_range():
    for r in range(MAX_RIBBON_R + 3):
        check_method_r("permutation", r)
        if r >= 1:
            check_method_r("tropical", r)
        if 1 <= r <= MAX_RIBBON_R:
            check_method_r("ribbon", r)
    for method in ("ribbon", "tropical"):
        with pytest.raises(RZero, match=f"the {method} method needs r >= 1"):
            check_method_r(method, 0)
    with pytest.raises(Infeasible, match="permutation and tropical"):
        check_method_r("ribbon", MAX_RIBBON_R + 1)


_R_ZERO = hurwitz_params(0, (2,), (2,))
_R_SIX = hurwitz_params(2, (3, 1), (2, 2))


@pytest.mark.parametrize(
    "entry, args, error, match",
    [
        (R.count_hurwitz_ribbon, (_R_ZERO,), RZero, "--method permutation"),
        (R.hurwitz_ribbon_classes, (_R_ZERO,), RZero, "--method permutation"),
        (R.enumerate_skeletons, (1, 1, 0), RZero, "--method permutation"),
        (TR.count_hurwitz_tropical, (_R_ZERO,), RZero, "--method permutation"),
        (TR.monodromy_graph_classes, (_R_ZERO,), RZero, "--method permutation"),
        (TR.enumerate_tropical_graphs, (1, 1, 0), RZero, "--method permutation"),
        (T.roundtrip_check, (_R_ZERO,), RZero, "--method permutation"),
        (R.count_hurwitz_ribbon, (_R_SIX,), Infeasible, "r <= 5"),
        (R.hurwitz_ribbon_classes, (_R_SIX,), Infeasible, "r <= 5"),
        (R.enumerate_skeletons, (2, 2, 6), Infeasible, "r <= 5"),
        (T.roundtrip_check, (_R_SIX,), Infeasible, "r <= 5"),
    ],
)
def test_library_entries_refuse_through_the_one_check(entry, args, error, match):
    """Each count and listing entry, and the roundtrip, refuses through
    check_method_r before it builds a table or lists a graph."""
    tables = R._base_map_classes.cache_info()
    graphs = TR.enumerate_tropical_graphs.cache_info()
    with pytest.raises(error, match=match):
        entry(*args)
    assert R._base_map_classes.cache_info() == tables
    if entry is TR.enumerate_tropical_graphs:
        # the cache counts the refused call as a miss but stores nothing
        assert TR.enumerate_tropical_graphs.cache_info().currsize == graphs.currsize
    else:
        assert TR.enumerate_tropical_graphs.cache_info() == graphs
