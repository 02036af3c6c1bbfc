import pytest
from fractions import Fraction

from hurwitz.core import DegreeMismatch, Partition, format_rational, hurwitz_params


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
