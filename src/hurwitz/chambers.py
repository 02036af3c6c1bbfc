"""Piecewise polynomiality of H_g(mu, nu), verified by exact interpolation.

On the hyperplane sum(mu) = sum(nu), the double Hurwitz number is a single
polynomial of total degree at most 4g - 3 + m + n on each chamber cut out by
the walls  sum_{i in I} mu_i = sum_{j in J} nu_j  (I, J nonempty proper
subsets, modulo replacing both by their complements).  This module samples
H on integer points strictly inside a chamber, solves the interpolation
problem exactly over the rationals, and demands zero residual on held-out
points.

nu_n is eliminated through the degree constraint before fitting, so the
polynomial lives in mu_1..mu_m, nu_1..nu_{n-1}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .core import (
    FitFailed,
    InsufficientSamples,
    OnWall,
    Partition,
    RZero,
    format_rational,
    hurwitz_params,
)
from .permutation import count_hurwitz_permutation


@dataclass(frozen=True)
class Wall:
    """The hyperplane sum_{i in I} mu_i = sum_{j in J} nu_j."""

    I: tuple
    J: tuple

    def functional(self, mu, nu) -> int:
        return sum(mu[i - 1] for i in self.I) - sum(nu[j - 1] for j in self.J)

    def complement(self, m: int, n: int) -> "Wall":
        return Wall(
            tuple(i for i in range(1, m + 1) if i not in self.I),
            tuple(j for j in range(1, n + 1) if j not in self.J),
        )

    def describe(self) -> str:
        lhs = "+".join(f"mu{i}" for i in self.I)
        rhs = "+".join(f"nu{j}" for j in self.J)
        return f"{lhs}={rhs}"


def walls(m: int, n: int) -> list:
    """All walls up to complement symmetry.

    Empty subsets are excluded (an empty side cannot balance positive parts),
    and so is the full pair, which restates sum(mu) = sum(nu).
    """
    if m < 1 or n < 1:
        raise ValueError("m, n >= 1 required")
    seen = set()
    out = []
    for isz in range(1, m + 1):
        for I in itertools.combinations(range(1, m + 1), isz):
            for jsz in range(1, n + 1):
                for J in itertools.combinations(range(1, n + 1), jsz):
                    if isz == m or jsz == n:
                        # one full side forces the other side full too
                        continue
                    w = Wall(I, J)
                    comp = w.complement(m, n)
                    key = min((w.I, w.J), (comp.I, comp.J))
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(Wall(*key))
    return out


def chamber_of(mu: Partition, nu: Partition, wall_list) -> tuple:
    """The strict sign (+1/-1) of every wall functional; OnWall if any
    functional vanishes."""
    signs = []
    for w in wall_list:
        v = w.functional(mu, nu)
        if v == 0:
            raise OnWall(f"({tuple(mu)}, {tuple(nu)}) lies on {w.describe()}")
        signs.append(1 if v > 0 else -1)
    return tuple(signs)


# ---------------------------------------------------------------------------
# exact multivariate interpolation


def _monomials(num_vars: int, max_degree: int) -> list:
    """Exponent tuples of total degree <= max_degree, graded lexicographic."""
    out = []
    for total in range(max_degree + 1):
        for exps in itertools.product(range(total + 1), repeat=num_vars):
            if sum(exps) == total:
                out.append(exps)
    return out


def _eval_monomial(exps, point):
    return math.prod(x**e for x, e in zip(point, exps))


def _subtract(row, f, prow) -> list:
    """row - f * prow.  Reduced pivot rows are zero in every other pivot
    column, so skipping prow's zeros saves most of the Fraction arithmetic."""
    return [a - f * b if b else a for a, b in zip(row, prow)]


def eliminate(rows, k: int):
    """One exact incremental elimination over augmented rows [a_1..a_k | b].

    The rows are walked in order.  Each is reduced against the pivot rows
    kept so far; if its coefficient part is still nonzero it becomes a new
    pivot row and its pivot column is cleared from the earlier ones, so the
    kept rows stay in reduced echelon form.  The walk stops at rank k.

    Returns the indices of the kept rows, which are exactly the rows that
    raise the rank of the rows before them, and the solution of the kept
    system read off the augmented column (None below rank k).
    """
    pivots = []  # (column, row) with row[column] == 1
    kept = []
    for i, row in enumerate(rows):
        row = [Fraction(x) for x in row]
        for col, prow in pivots:
            f = row[col]
            if f:
                row = _subtract(row, f, prow)
        col = next((c for c in range(k) if row[c]), None)
        if col is None:
            continue
        pv = row[col]
        row = [x / pv for x in row]
        for j, (c, prow) in enumerate(pivots):
            f = prow[col]
            if f:
                pivots[j] = (c, _subtract(prow, f, row))
        pivots.append((col, row))
        kept.append(i)
        if len(kept) == k:
            return kept, [prow[k] for _, prow in sorted(pivots)]
    return kept, None


@dataclass(frozen=True)
class ChamberPolynomial:
    """An exact polynomial in mu_1..mu_m, nu_1..nu_{n-1} valid on one chamber."""

    g: int
    m: int
    n: int
    signs: tuple
    monomials: tuple  # exponent tuples
    coefficients: tuple  # Fractions aligned with monomials
    samples_used: int
    holdout_passed: bool

    def evaluate(self, mu, nu) -> Fraction:
        point = tuple(mu) + tuple(nu)[: self.n - 1]
        total = Fraction(0)
        for exps, c in zip(self.monomials, self.coefficients):
            if c:
                total += c * _eval_monomial(exps, point)
        return total

    def degree(self) -> int:
        degs = [
            sum(exps)
            for exps, c in zip(self.monomials, self.coefficients)
            if c != 0
        ]
        return max(degs, default=0)

    def describe(self) -> dict:
        return {
            "signs": list(self.signs),
            "degree": self.degree(),
            "coefficients": {
                self._monomial_name(exps): format_rational(c)
                for exps, c in zip(self.monomials, self.coefficients)
                if c != 0
            },
            "samples_used": self.samples_used,
            "holdout_passed": self.holdout_passed,
        }

    def _monomial_name(self, exps) -> str:
        names = [f"mu{i+1}" for i in range(self.m)] + [
            f"nu{j+1}" for j in range(self.n - 1)
        ]
        parts = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exps)
            if e
        ]
        return "*".join(parts) if parts else "1"


def degree_check(cp: ChamberPolynomial) -> bool:
    """Total degree within the 4g - 3 + m + n bound."""
    return cp.degree() <= 4 * cp.g - 3 + cp.m + cp.n


@lru_cache(maxsize=None)
def _sample_points(m: int, n: int, dmax: int) -> tuple:
    """In-chamber integer points up to degree dmax, as (signs, points) pairs
    in sign order.  Each chamber's (mu, nu) points are sorted by decreasing
    distance to the nearest wall (ties lexicographic)."""
    wall_list = walls(m, n)
    chambers = {}
    for d in range(max(m, n), dmax + 1):
        for mu in itertools.product(range(1, d + 1), repeat=m):
            if sum(mu) != d:
                continue
            for nu in itertools.product(range(1, d + 1), repeat=n):
                if sum(nu) != d:
                    continue
                vals = [w.functional(mu, nu) for w in wall_list]
                if 0 in vals:
                    continue
                signs = tuple(1 if v > 0 else -1 for v in vals)
                gap = min(map(abs, vals), default=d)
                chambers.setdefault(signs, []).append((-gap, mu, nu))
    return tuple(
        (signs, tuple((mu, nu) for _, mu, nu in sorted(chambers[signs])))
        for signs in sorted(chambers)
    )


def fit_chamber_polynomial(
    g: int,
    m: int,
    n: int,
    signs: tuple,
    dmax: int = 10,
    oracle=None,
) -> ChamberPolynomial:
    """Interpolate H_g on one chamber and validate on held-out points.

    The oracle defaults to the permutation count.  It is evaluated on every
    in-chamber point up to dmax; the fit uses the first len(monomials)
    independent points and holds out the rest.
    """
    r = 2 * g - 2 + m + n
    if r < 1:
        raise RZero("piecewise polynomiality needs r >= 1")
    oracle = oracle or (
        lambda mu, nu: count_hurwitz_permutation(
            hurwitz_params(g, Partition(mu), Partition(nu))
        )
    )
    pts = dict(_sample_points(m, n, dmax)).get(signs)
    if pts is None:
        raise InsufficientSamples(f"no integer points found in chamber {signs}")
    # count the monomials first, so a chamber too thin to fit lists none
    num_vars, degree = m + n - 1, 4 * g - 3 + m + n
    size = math.comb(num_vars + degree, num_vars)
    if len(pts) < size + 1:
        raise InsufficientSamples(
            f"chamber {signs}: {len(pts)} points for {size} coefficients"
        )
    monos = tuple(_monomials(num_vars, degree))
    values = [oracle(mu, nu) for mu, nu in pts]

    # fit on the first full-rank set of points, hold out everything else
    rows = (
        [_eval_monomial(e, mu + nu[: n - 1]) for e in monos] + [v]
        for (mu, nu), v in zip(pts, values)
    )
    kept, coeffs = eliminate(rows, len(monos))
    if coeffs is None:
        raise InsufficientSamples(
            f"chamber {signs}: sample grid has rank {len(kept)} < {len(monos)}"
        )
    cp = ChamberPolynomial(
        g, m, n, signs, monos, tuple(coeffs), len(pts), holdout_passed=False
    )
    kept = set(kept)
    for i, ((mu, nu), v) in enumerate(zip(pts, values)):
        if i not in kept and cp.evaluate(mu, nu) != v:
            raise FitFailed(
                f"chamber {signs}: exact residual at mu={mu}, nu={nu}: "
                f"poly={cp.evaluate(mu, nu)} oracle={v}"
            )
    return replace(cp, holdout_passed=True)


class ChamberFits(list):
    """The fitted chamber polynomials, in sign order.  ``skipped`` holds
    (signs, reason) for every sampled chamber with too few points to fit."""

    def __init__(self, fitted, skipped):
        super().__init__(fitted)
        self.skipped = tuple(skipped)


def fit_all_chambers(g: int, m: int, n: int, dmax: int = 10) -> ChamberFits:
    """Fit every chamber that contains at least one sample point; chambers
    whose samples up to dmax cannot determine the polynomial are reported in
    the result's ``skipped``."""
    fitted = []
    skipped = []
    for signs, _ in _sample_points(m, n, dmax):
        try:
            fitted.append(fit_chamber_polynomial(g, m, n, signs, dmax=dmax))
        except InsufficientSamples as exc:
            skipped.append((signs, str(exc)))
    return ChamberFits(fitted, skipped)
