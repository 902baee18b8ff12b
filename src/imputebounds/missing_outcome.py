"""Identification intervals and estimators for E(y | x = xi) when some
outcomes are missing.

The observable data pin down E(y|xi, z=1) and P(z=1|xi) but say nothing
about the mean of the missing outcomes beyond the domain bounds [Y_L, Y_U].
Every estimator here is exact arithmetic on a table or population; nothing
is simulated (simulation lives in :mod:`imputebounds.simlab`).
"""

import numpy as np

from . import models
from .domain import (
    EQUALITY_TOL,
    COMPLETE_REGIME,
    OUTCOME_REGIME,
    FinitePopulation,
    Interval,
    require_population,
    require_regime,
)
from .errors import (
    DataError,
    EmptyCell,
    MeanOutOfDomain,
    ModelUndefinedOnCell,
    ZeroCellMass,
)


#: an assumed interval restriction on the mean of the missing outcomes
RestrictionGamma = Interval


def _xi_only(sel, domains_x, domains_w):
    xi_flat, omega_flat = sel.resolve(domains_x, domains_w)
    if omega_flat is not None:
        raise DataError("missing-outcome operations select on x only")
    return xi_flat


def _cell_stats(pop, sel):
    xi = _xi_only(sel, pop.x_domains, pop.w_domains)
    p_xi = pop.mass_where(xi=xi)
    if p_xi <= 0.0:
        raise ZeroCellMass(f"P(x = {sel.xi!r}) = 0")
    return xi, p_xi


def true_mean(pop, sel):
    """Exact E(y | x = xi) from the population mass table."""
    require_population(pop, "true_mean")
    xi, p_xi = _cell_stats(pop, sel)
    return pop.ymass_where(xi=xi) / p_xi


def _decomposition(source, sel):
    """``(a, b)`` with E(y | x = xi) = a + b * (mean of the missing
    outcomes): ``a`` is the observed part E(y|xi, z=1) P(z=1|xi) and ``b``
    the missing share P(z=0|xi). On a table, with observed fraction pi and
    observed-cell mean m among the records of :func:`imputation_cell`, they
    are ``pi*m`` and ``1-pi``. A source whose z marks missing covariates
    raises :class:`RegimeMismatch`."""
    require_regime(source, "the missing-outcome decomposition", OUTCOME_REGIME)
    if isinstance(source, FinitePopulation):
        xi, p_xi = _cell_stats(source, sel)
        return (source.ymass_where(xi=xi, z=1) / p_xi,
                source.mass_where(xi=xi, z=0) / p_xi)
    rows = imputation_cell(source, sel)
    observed = source.z_y[rows]
    pi = int(observed.sum()) / len(rows)
    m = float(source.y[rows[observed]].mean()) if pi else 0.0
    return pi * m, 1.0 - pi


def _swept(source, sel, bounds):
    """The decomposition with the missing mean swept over ``bounds``."""
    a, b = _decomposition(source, sel)
    return Interval(a + bounds.lo * b, a + bounds.hi * b)


def identification_interval_pop(pop, sel):
    """Assumption-free identification interval for E(y | x = xi).

    The observed part contributes E(y|xi,z=1) P(z=1|xi); the missing mass
    P(z=0|xi) can sit anywhere in the outcome domain, so the interval is
    that observed part shifted by Y_L and Y_U times the missing share.
    """
    require_population(pop, "identification_interval_pop")
    return _swept(pop, sel, pop.outcome)


def restricted_interval_pop(pop, sel, gamma):
    """Identification interval when the missing-outcome mean is assumed to
    lie in ``gamma`` (an interval inside the outcome domain)."""
    require_population(pop, "restricted_interval_pop")
    if not (pop.outcome.lo <= gamma.lo and gamma.hi <= pop.outcome.hi):
        raise DataError("restriction must lie inside the outcome domain")
    return _swept(pop, sel, gamma)


def sample_interval(table, sel):
    """Sample analog of the assumption-free interval.

    With observed fraction pi and observed-cell mean m, the interval is
    ``[pi*m + (1-pi)*Y_L, pi*m + (1-pi)*Y_U]``; an all-missing cell yields
    the full outcome domain.
    """
    return _swept(table, sel, table.outcome)


def imputation_cell(table, sel):
    """Indices of the records at x = xi, the cell :func:`imputation_mean`
    averages over; raises :class:`EmptyCell` when there are none."""
    xi = _xi_only(sel, table.x_domains, table.w_domains)
    rows = np.flatnonzero(table.x == xi)
    if not len(rows):
        raise EmptyCell(f"no records at x = {sel.xi!r}")
    return rows


def imputation_mean(completed, sel):
    """Pooled average of observed and imputed outcomes in the xi cell of a
    table in the complete regime."""
    require_regime(completed, "imputation_mean", COMPLETE_REGIME)
    return float(completed.y[imputation_cell(completed, sel)].mean())


def assumed_missing_mean(model, source, xi_flat):
    """Mean of an explicit outcome model's distribution at the flat x code
    ``xi_flat`` of ``source`` (a table or population), or None where the
    model defines none there. Raises what
    :func:`~imputebounds.models.coded_strata` raises."""
    stratum = models.coded_strata(model, source).get(xi_flat)
    if stratum is None:
        return None
    return float(sum(v * p for v, p in zip(*stratum)))


def model_missing_outcome_mean(pop, model, sel):
    """Exact mean of the imputation distribution on the missing stratum,
    E(u | x = xi, z = 0), computed against the population."""
    require_population(pop, "model_missing_outcome_mean")
    xi, _ = _cell_stats(pop, sel)
    require_regime(pop, "the model's missing-outcome mean", OUTCOME_REGIME)
    require_regime(pop, f"model {model.kind!r}", model.target)
    if model.kind == models.MAR_OUTCOME:
        denom = pop.mass_where(xi=xi, z=1)
        if denom <= 0.0:
            raise ModelUndefinedOnCell(
                f"no observed outcomes at x = {sel.xi!r} to match")
        return pop.ymass_where(xi=xi, z=1) / denom
    mean = assumed_missing_mean(model, pop, xi)
    if mean is None:
        raise ModelUndefinedOnCell(f"model has no distribution at x = {sel.xi!r}")
    return mean


def plim_imputation_mean(pop, model, sel):
    """Population probability limit of the single-imputation estimate:
    the observed part plus the model's missing-stratum mean weighted by the
    missing share."""
    require_population(pop, "plim_imputation_mean")
    a, b = _decomposition(pop, sel)
    if b == 0.0:
        return a
    return a + model_missing_outcome_mean(pop, model, sel) * b


def consistency_condition(pop, model, sel):
    """True iff the model's missing-stratum mean matches the actual
    E(y | x = xi, z = 0); exactly then the imputation estimate is consistent."""
    require_population(pop, "consistency_condition")
    require_regime(pop, "the consistency condition", OUTCOME_REGIME)
    xi, _ = _cell_stats(pop, sel)
    denom = pop.mass_where(xi=xi, z=0)
    if denom <= 0.0:
        return True
    actual = pop.ymass_where(xi=xi, z=0) / denom
    return abs(model_missing_outcome_mean(pop, model, sel) - actual) <= EQUALITY_TOL


def q_mean_estimate(table, sel, e_q):
    """Estimate that replaces every missing outcome by an assumed mean
    ``e_q`` instead of a random draw; same probability limit as random
    imputation from any distribution with that mean, smaller variance."""
    e_q = float(e_q)
    if not table.outcome.lo <= e_q <= table.outcome.hi:
        raise MeanOutOfDomain(
            f"assumed mean {e_q} outside [{table.outcome.lo}, {table.outcome.hi}]")
    a, b = _decomposition(table, sel)
    return a + e_q * b


def midpoint_estimate(table, sel):
    """Midpoint of the sample interval; among constant-limit point
    estimates it minimizes the worst-case asymptotic squared bias."""
    return sample_interval(table, sel).midpoint
