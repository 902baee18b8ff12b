"""Ecological inference for binary outcomes: bounds on the long conditional
mean P(y=1 | x=xi, w=omega) from the short distributions P(y|x) and P(w|x),
and the exact futility of imputing w from its x-conditional distribution.
"""

from dataclasses import dataclass

import numpy as np

from .domain import (
    COVARIATE_REGIME,
    NORMALIZATION_TOL,
    Interval,
    as_real,
    require_population,
    require_regime,
)
from .errors import ProbabilityOutOfRange, RegimeMismatch, ZeroCellMass


@dataclass(frozen=True)
class ShortDistributions:
    """The two observable short probabilities at a fixed xi:
    ``p_y1_given_xi`` = P(y=1 | xi) and ``p_w_omega_given_xi`` = P(w=omega | xi)."""

    p_y1_given_xi: float
    p_w_omega_given_xi: float

    def __post_init__(self):
        py = as_real(self.p_y1_given_xi, "P(y=1|xi)")
        pw = as_real(self.p_w_omega_given_xi, "P(w=omega|xi)")
        if not 0.0 <= py <= 1.0:
            raise ProbabilityOutOfRange(f"P(y=1|xi) = {py} outside [0, 1]")
        if not 0.0 < pw <= 1.0:
            raise ProbabilityOutOfRange(f"P(w=omega|xi) = {pw} outside (0, 1]")
        object.__setattr__(self, "p_y1_given_xi", py)
        object.__setattr__(self, "p_w_omega_given_xi", pw)


def duncan_davis_bounds(sd):
    """Assumption-free interval for P(y=1 | xi, omega) from the short
    distributions: ``[0,1] ∩ [(p_y - (1 - p_w))/p_w, p_y/p_w]``."""
    py, pw = sd.p_y1_given_xi, sd.p_w_omega_given_xi
    hi = min(1.0, py / pw)
    # rounding can push the raw lower endpoint a few ulp past hi
    lo = min(max(0.0, (py - (1.0 - pw)) / pw), hi)
    return Interval(lo, hi)


#: grid points of t that :func:`duncan_davis_oracle` scans
ORACLE_GRID = 2001


def duncan_davis_oracle(sd):
    """Search oracle for the same interval.

    Scans joint distributions on {0,1} x {omega, not-omega} consistent with
    the short marginals, parameterized by t = P(y=1, w=omega): the joint is
    feasible iff all four cells are nonnegative. Returns the achievable
    range of t / p_w, evaluating the feasibility vertices plus a grid.
    """
    py, pw = sd.p_y1_given_xi, sd.p_w_omega_given_xi
    candidates = np.linspace(0.0, min(py, pw), ORACLE_GRID)
    candidates = np.append(candidates, [max(0.0, py + pw - 1.0), min(py, pw)])
    feasible = []
    for t in candidates:
        cells = (t, py - t, pw - t, 1.0 - py - pw + t)
        if all(c >= -1e-15 for c in cells):
            feasible.append(min(1.0, max(0.0, t / pw)))
    return Interval(min(feasible), max(feasible))


def ecological_plim(pop, sel):
    """Exact probability limit of the long-cell mean when w is never
    observed and imputed from its x-conditional distribution.

    Draws independent of y land records in the omega cell at random, so the
    pooled-cell mean converges to the short mean E(y | x = xi) for every
    omega: the imputation recovers nothing about the long mean.
    """
    require_population(pop, "ecological_plim")
    require_regime(pop, "the ecological plim", COVARIATE_REGIME)
    xi_flat, _ = sel.resolve(pop.x_domains, pop.w_domains)
    p_z1 = pop.mass_where(z=1)
    if p_z1 > NORMALIZATION_TOL:
        raise RegimeMismatch(
            "ecological plim applies when covariates are never observed "
            f"(found P(z=1) = {p_z1})")
    p_xi = pop.mass_where(xi=xi_flat)
    if p_xi <= 0.0:
        raise ZeroCellMass(f"P(x = {sel.xi!r}) = 0")
    return pop.ymass_where(xi=xi_flat) / p_xi
