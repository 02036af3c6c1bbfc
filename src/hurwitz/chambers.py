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
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    FitFailed,
    HurwitzParams,
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
                    if isz == m and jsz == n:
                        continue
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
            raise OnWall(f"({mu.parts}, {nu.parts}) lies on {w.describe()}")
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


def _eval_monomial(exps, point) -> Fraction:
    v = Fraction(1)
    for e, x in zip(exps, point):
        v *= Fraction(x) ** e
    return v


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fraction; returns None if the system has no
    unique solution on the given rows."""
    k = len(rows[0])
    aug = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    pivot_rows = []
    col = 0
    for col in range(k):
        pr = None
        for i in range(len(aug)):
            if i in pivot_rows:
                continue
            if aug[i][col] != 0:
                pr = i
                break
        if pr is None:
            return None
        pivot_rows.append(pr)
        pivot = aug[pr][col]
        aug[pr] = [x / pivot for x in aug[pr]]
        for i in range(len(aug)):
            if i != pr and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[pr])]
    # consistency of the remaining rows
    for i in range(len(aug)):
        if i not in pivot_rows and any(x != 0 for x in aug[i][:k]):
            return None
        if i not in pivot_rows and aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, pr in enumerate(pivot_rows):
        lead = next(c for c in range(k) if aug[pr][c] != 0)
        sol[lead] = aug[pr][k]
    return sol


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


def _sample_points(g: int, m: int, n: int, wall_list, dmax: int):
    """In-chamber integer points grouped by chamber sign vector, each sorted
    by decreasing distance to the nearest wall (ties lexicographic)."""
    chambers = {}
    for d in range(max(m, n), dmax + 1):
        for mu_parts in itertools.product(range(1, d + 1), repeat=m):
            if sum(mu_parts) != d:
                continue
            for nu_parts in itertools.product(range(1, d + 1), repeat=n):
                if sum(nu_parts) != d:
                    continue
                mu = Partition(mu_parts)
                nu = Partition(nu_parts)
                try:
                    signs = chamber_of(mu, nu, wall_list)
                except OnWall:
                    continue
                gap = min(
                    (abs(w.functional(mu, nu)) for w in wall_list), default=d
                )
                chambers.setdefault(signs, []).append((-gap, mu_parts, nu_parts))
    for signs in chambers:
        chambers[signs].sort()
    return chambers


def fit_chamber_polynomial(
    g: int,
    m: int,
    n: int,
    signs: tuple,
    sample_budget: int = 0,
    dmax: int = 10,
    oracle=None,
) -> ChamberPolynomial:
    """Interpolate H_g on one chamber and validate on held-out points.

    The oracle defaults to the permutation count.  sample_budget = 0 uses
    every available in-chamber point up to dmax (fit on the first
    len(monomials) independent ones, hold out the rest).
    """
    r = 2 * g - 2 + m + n
    if r < 1:
        raise RZero("piecewise polynomiality needs r >= 1")
    oracle = oracle or (
        lambda mu, nu: count_hurwitz_permutation(
            hurwitz_params(g, Partition(mu), Partition(nu))
        )
    )
    wall_list = walls(m, n)
    chambers = _sample_points(g, m, n, wall_list, dmax)
    if signs not in chambers:
        raise InsufficientSamples(f"no integer points found in chamber {signs}")
    pts = [(mu, nu) for _, mu, nu in chambers[signs]]
    if sample_budget:
        pts = pts[:sample_budget]
    monos = tuple(_monomials(m + n - 1, 4 * g - 3 + m + n))
    if len(pts) < len(monos) + 1:
        raise InsufficientSamples(
            f"chamber {signs}: {len(pts)} points for {len(monos)} coefficients"
        )

    values = {}
    for mu, nu in pts:
        values[(mu, nu)] = oracle(mu, nu)

    # build the fit set greedily to full rank, hold out everything else
    rows = []
    rhs = []
    used = []
    basis_rank = 0
    for mu, nu in pts:
        point = mu + nu[: n - 1]
        row = [_eval_monomial(e, point) for e in monos]
        candidate = rows + [row]
        if _rank(candidate) > basis_rank:
            rows.append(row)
            rhs.append(values[(mu, nu)])
            used.append((mu, nu))
            basis_rank += 1
        if basis_rank == len(monos):
            break
    if basis_rank < len(monos):
        raise InsufficientSamples(
            f"chamber {signs}: sample grid has rank {basis_rank} < {len(monos)}"
        )
    coeffs = _solve_exact(rows, rhs)
    if coeffs is None:
        raise InsufficientSamples(f"chamber {signs}: degenerate sample grid")

    cp = ChamberPolynomial(
        g, m, n, signs, monos, tuple(coeffs), len(pts), holdout_passed=False
    )
    holdout = [p for p in pts if p not in used]
    for mu, nu in holdout:
        if cp.evaluate(mu, nu) != values[(mu, nu)]:
            raise FitFailed(
                f"chamber {signs}: exact residual at mu={mu}, nu={nu}: "
                f"poly={cp.evaluate(mu, nu)} oracle={values[(mu, nu)]}"
            )
    return ChamberPolynomial(
        g, m, n, signs, monos, tuple(coeffs), len(pts), holdout_passed=True
    )


def _rank(rows) -> int:
    if not rows:
        return 0
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(mat[0])
    for c in range(cols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][c]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


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
    wall_list = walls(m, n)
    chambers = _sample_points(g, m, n, wall_list, dmax)
    fitted = []
    skipped = []
    for signs in sorted(chambers):
        try:
            fitted.append(fit_chamber_polynomial(g, m, n, signs, dmax=dmax))
        except InsufficientSamples as exc:
            skipped.append((signs, str(exc)))
    return ChamberFits(fitted, skipped)
