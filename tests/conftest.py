import pytest

from hurwitz.core import hurwitz_params, sweep_params


def all_params(max_d, max_r):
    """Every (g, mu, nu) with d <= max_d and 1 <= r <= max_r, descending
    partition representatives, as validated parameters."""
    return [hurwitz_params(g, mu, nu) for g, mu, nu in sweep_params(max_d, max_r)]


@pytest.fixture(scope="session")
def small_params():
    return all_params(4, 4)
