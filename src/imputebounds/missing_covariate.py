"""Identification bounds and estimators for E(y | x = xi, w = omega) when
the covariate w is missing for part of the sample.

Imputing w moves records into (or away from) the target cell, so both the
numerator and the denominator of the cell mean are contaminated; the
probability limit of the imputation estimate mixes the observed cell with
whatever the model routes into it. For binary outcomes the assumption-free
bounds have a closed ratio form, which is verified here against an
exhaustive allocation oracle.
"""

import itertools

import numpy as np

from . import models
from .domain import (
    EQUALITY_TOL,
    COMPLETE_REGIME,
    COVARIATE_REGIME,
    FinitePopulation,
    Interval,
    ObservationTable,
    count_codes,
    require_population,
    require_regime,
    sealed,
    stratum_name,
    total_size,
    yx_codes,
)
from .errors import (
    DataError,
    EmptyCell,
    ModelUndefinedOnCell,
    NonBinaryOutcome,
    QUndefinedForStratum,
    ZeroCellMass,
    ZeroDenominator,
)

__all__ = [
    "true_long_mean",
    "imputed_long_mean",
    "plim_imputed_long_mean",
    "imputed_cell_share",
    "matching_conditions",
    "binary_bounds_closed_form",
    "binary_bounds_oracle",
    "midpoint_long_estimate",
    "mixture_joint_estimate",
    "mixture_conditional_mean",
]


def _xi_omega(sel, x_domains, w_domains):
    xi_flat, omega_flat = sel.resolve(x_domains, w_domains)
    if omega_flat is None:
        raise DataError("this operation selects a (xi, omega) cell")
    return xi_flat, omega_flat


def true_long_mean(pop, sel):
    """Exact E(y | x = xi, w = omega) from the population mass table."""
    require_population(pop, "true_long_mean")
    xi, om = _xi_omega(sel, pop.x_domains, pop.w_domains)
    denom = pop.mass_where(xi=xi, omega=om)
    if denom <= 0.0:
        raise ZeroCellMass(f"P(x = {sel.xi!r}, w = {sel.omega!r}) = 0")
    return pop.ymass_where(xi=xi, omega=om) / denom


def long_cell(table, sel):
    """``(at_xi, omega)``: indices of the records at x = xi and the flat
    code of omega. The pooled cell of :func:`imputed_long_mean` is the
    records among ``at_xi`` whose w is omega."""
    xi, om = _xi_omega(sel, table.x_domains, table.w_domains)
    return np.flatnonzero(table.x == xi), om


def pooled_cell_mean(y, w, om, sel):
    """Mean of ``y`` over the records with ``w == om``, where ``y`` and
    ``w`` are the records at xi in record order; raises :class:`EmptyCell`
    when none has ``w == om``."""
    pooled = y[w == om]
    if not len(pooled):
        raise EmptyCell(f"no records pooled at (x={sel.xi!r}, w={sel.omega!r})")
    return float(pooled.mean())


def imputed_long_mean(completed, sel):
    """Average outcome over the pooled cell of a table in the complete
    regime: records observed at (xi, omega) plus records imputed into it."""
    require_regime(completed, "imputed_long_mean", COMPLETE_REGIME)
    at_xi, om = long_cell(completed, sel)
    return pooled_cell_mean(completed.y[at_xi], completed.w[at_xi], om, sel)


def _mixture_parts(pop, model, sel):
    """``(xi, om, obs_mass, obs_ymass, u_mass, u_ymass)``: the cell's flat
    codes, the (outcome) mass observed at (xi, omega, z=1), and the
    (outcome) mass the model routes there. The missing mass of stratum
    (y_k, xi) enters with q_k = P(u = omega | y_k, xi, z=0); the model need
    not be defined on a stratum with no missing mass."""
    xi, om = _xi_omega(sel, pop.x_domains, pop.w_domains)
    require_regime(pop, "the imputed long-cell limit", COVARIATE_REGIME)
    require_regime(pop, f"model {model.kind!r}", model.target)
    if model.kind == models.ECOLOGICAL:
        p_xi = pop.mass_where(xi=xi)
        if p_xi <= 0.0:
            raise ModelUndefinedOnCell(f"P(x = {sel.xi!r}) = 0")
        eco_q = pop.mass_where(xi=xi, omega=om) / p_xi
    elif model.kind == models.EXPLICIT_COVARIATE_Q:
        strata = models.coded_strata(model, pop)
    u_mass = u_ymass = 0.0
    for k, y_val in enumerate(pop.outcome_values):
        m0 = pop.mass_where(xi=xi, y_index=k, z=0)
        if m0 <= 0.0:
            continue
        if model.kind == models.ECOLOGICAL:
            q = eco_q
        elif model.kind == models.MAR_COVARIATE:
            donor = pop.mass_where(xi=xi, y_index=k, z=1)
            if donor <= 0.0:
                raise ModelUndefinedOnCell(
                    f"no observed covariates at (y={y_val}, x={sel.xi!r}) to match")
            q = pop.mass_where(xi=xi, omega=om, y_index=k, z=1) / donor
        else:
            stratum = strata.get((float(y_val), xi))
            if stratum is None:
                raise ModelUndefinedOnCell(
                    f"model has no stratum (y={y_val}, x={sel.xi!r})")
            q = sum(p for wf, p in zip(*stratum) if wf == om)
        u_mass += q * m0
        u_ymass += float(y_val) * q * m0
    obs_mass = pop.mass_where(xi=xi, omega=om, z=1)
    obs_ymass = pop.ymass_where(xi=xi, omega=om, z=1)
    return xi, om, obs_mass, obs_ymass, u_mass, u_ymass


def _pooled_cell(pop, model, sel):
    """``(obs_mass, ymass, total)``: the pooled cell's observed, outcome
    and whole mass in the limit, the last one positive."""
    _, _, obs_mass, obs_ymass, u_mass, u_ymass = _mixture_parts(pop, model, sel)
    total = obs_mass + u_mass
    if total <= 0.0:
        raise ZeroCellMass("no mass reaches the pooled cell")
    return obs_mass, obs_ymass + u_ymass, total


def plim_imputed_long_mean(pop, model, sel):
    """Probability limit of the imputed long-cell mean: the observed
    (xi, omega, z=1) cell mixed with the mass the model routes into omega
    from the missing strata.

    The ``ecological`` model routes with the population's whole
    P(w = omega | x = xi), the auxiliary-data reading of the ecological
    case. A fit on a sample draws from P(w | x, z=1) instead, so its
    estimate converges to this limit only when w is missing at random
    given x.
    """
    require_population(pop, "plim_imputed_long_mean")
    _, ymass, total = _pooled_cell(pop, model, sel)
    return float(ymass / total)


def imputed_cell_share(pop, model, sel):
    """Limit fraction of the pooled cell that is genuinely observed."""
    require_population(pop, "imputed_cell_share")
    obs_mass, _, total = _pooled_cell(pop, model, sel)
    return float(obs_mass / total)


def matching_conditions(pop, model, sel):
    """The two equalities under which the imputed long mean is consistent.

    Returns ``(mass_matches, mean_matches)``: the imputed-in mass equals the
    actual missing mass at omega, and the mean outcome routed in equals the
    actual missing-cell mean. Both compare exactly (tolerance 1e-9); a
    vacuous side (no mass on either route) counts as a match.
    """
    require_population(pop, "matching_conditions")
    xi, om, _, _, u_mass, u_ymass = _mixture_parts(pop, model, sel)
    p_xi = pop.mass_where(xi=xi)
    if p_xi <= 0.0:
        raise ZeroCellMass(f"P(x = {sel.xi!r}) = 0")
    true_mass = pop.mass_where(xi=xi, omega=om, z=0)
    flag_mass = bool(abs(u_mass - true_mass) / p_xi <= EQUALITY_TOL)
    if u_mass <= 0.0 and true_mass <= 0.0:
        flag_mean = True
    elif u_mass <= 0.0 or true_mass <= 0.0:
        flag_mean = False
    else:
        true_mean_0 = pop.ymass_where(xi=xi, omega=om, z=0) / true_mass
        flag_mean = bool(abs(u_ymass / u_mass - true_mean_0) <= EQUALITY_TOL)
    return flag_mass, flag_mean


# ---------------------------------------------------------------------------
# binary-outcome bounds


def _binary_masses(source, sel):
    """The four mass terms of the ratio bounds, from a population or from
    table counts: observed target-cell successes A1 and size A, and missing
    successes B1 / failures B0 at xi."""
    if not isinstance(source, (FinitePopulation, ObservationTable)):
        raise DataError("source must be a population or an observation table")
    require_regime(source, "bounds", COVARIATE_REGIME)
    if isinstance(source, FinitePopulation):
        if not source.binary_support:
            raise NonBinaryOutcome("bounds require a binary {0,1} outcome")
        xi, om = _xi_omega(sel, source.x_domains, source.w_domains)
        a1 = source.mass_where(xi=xi, omega=om, z=1, y_value=1.0)
        a = source.mass_where(xi=xi, omega=om, z=1)
        b1 = source.mass_where(xi=xi, z=0, y_value=1.0)
        b0 = source.mass_where(xi=xi, z=0, y_value=0.0)
        return a1, a, b1, b0
    if np.any((source.y != 0.0) & (source.y != 1.0)):
        raise NonBinaryOutcome("bounds require a binary {0,1} outcome")
    at_xi, om = long_cell(source, sel)
    success, obs = source.y[at_xi] == 1.0, source.z_w[at_xi]
    in_cell = obs & (source.w[at_xi] == om)
    missing = ~obs
    return (float((success & in_cell).sum()), float(in_cell.sum()),
            float((success & missing).sum()), float((~success & missing).sum()))


def binary_bounds_closed_form(source, sel):
    """Assumption-free bounds on E(y | x = xi, w = omega) for binary y.

    Lower bound: every missing success lands outside the cell and every
    missing failure lands inside; upper bound: the reverse. ``source`` may
    be a population (exact masses) or a covariate-regime table (counts).
    """
    a1, a, b1, b0 = _binary_masses(source, sel)
    lo_den = a + b0
    hi_den = a + b1
    if lo_den <= 0.0 or hi_den <= 0.0:
        raise ZeroDenominator("bound denominator is zero")
    return Interval(a1 / lo_den, (a1 + b1) / hi_den).intersect(Interval(0.0, 1.0))


def binary_bounds_oracle(pop, sel):
    """Exhaustive-allocation bounds on E(y | x = xi, w = omega), binary y.

    Each (y, xi) stratum with missing-covariate mass may place any share of
    that mass at omega; strata at other x never reach the cell. The
    pooled-cell mean is a ratio of two affine functions of those shares,
    hence monotone in each share, so its extrema over the allocation box
    sit at corners where every stratum allocates all-or-nothing; corners
    that empty the pooled cell are skipped (the values approached near
    them are attained at other corners). A binary outcome has at most two
    strata at xi, so there are at most four corners.
    """
    require_population(pop, "binary_bounds_oracle")
    require_regime(pop, "the allocation oracle", COVARIATE_REGIME)
    if not pop.binary_support:
        raise NonBinaryOutcome("oracle requires a binary {0,1} outcome")
    xi, om = _xi_omega(sel, pop.x_domains, pop.w_domains)
    a1 = pop.mass_where(xi=xi, omega=om, z=1, y_value=1.0)
    a = pop.mass_where(xi=xi, omega=om, z=1)

    strata = []
    for k, y_val in enumerate(pop.outcome_values):
        m0 = pop.mass_where(xi=xi, y_index=k, z=0)
        if m0 > 0.0:
            strata.append((float(y_val), m0))

    lo = hi = None
    for corner in itertools.product((0, 1), repeat=len(strata)):
        extra1 = extra0 = 0.0
        for take, (y_val, m0) in zip(corner, strata):
            if take:
                if y_val == 1.0:
                    extra1 += m0
                else:
                    extra0 += m0
        den = a + extra1 + extra0
        if den <= 1e-15:
            continue
        value = (a1 + extra1) / den
        lo = value if lo is None else min(lo, value)
        hi = value if hi is None else max(hi, value)
    if lo is None:
        raise ZeroDenominator("the pooled cell is empty under every allocation")
    return Interval(lo, hi)


def midpoint_long_estimate(table, sel):
    """Midpoint of the sample-analog binary bounds; the constant-limit
    point estimate with the smallest worst-case asymptotic squared bias."""
    return binary_bounds_closed_form(table, sel).midpoint


# ---------------------------------------------------------------------------
# assumption-based mixture estimator


def mixture_joint_estimate(table, q):
    """Consistent estimate of the joint (y, x, w) distribution under an
    assumed missing-covariate distribution ``q``.

    Observed records enter with weight 1/N at their own (y, x, w); each
    missing record spreads its 1/N across W according to its (y, x) stratum
    of ``q``. Records are counted (not sorted) per integer (y, x, w) atom
    and per (y, x) stratum code, so ``q`` is looked up once per stratum.

    Returns a covariate-regime :class:`FinitePopulation` on the table's
    domains with one cell per atom, in ascending (y, x, w) code order, and
    every z = 1; its outcome support is the table's outcome levels (see
    :func:`~imputebounds.domain.yx_codes`).
    """
    q_strata = models.coded_strata(models.ImputationModel.explicit_covariate(q), table)
    require_regime(table, "the mixture estimate", COVARIATE_REGIME)
    n = table.n
    if n == 0:
        raise EmptyCell("empty table")
    share = 1.0 / n
    n_w = total_size(table.w_domains)
    stratum, key, y_levels, space = yx_codes(table)
    observed = np.asarray(table.z_w)
    atoms, _, counts = count_codes(stratum[observed] * n_w + table.w[observed],
                                   space * n_w, inverse=False)
    codes, masses = [atoms], [counts * share]
    strata, place, n_missing = count_codes(stratum[~observed], space)
    keys = [key(code) for code in strata]
    covered = np.array([k in q_strata for k in keys], dtype=bool)
    if not covered.all():
        # the first undefined stratum in record order, as a record-by-record
        # pass would meet it
        first = keys[place[np.argmin(covered[place])]]
        raise QUndefinedForStratum(f"q has no stratum {stratum_name(table.x_domains, first)}")
    for code, k, count in zip(strata, keys, n_missing):
        w_codes, probs = q_strata[k]
        codes.append(code * n_w + w_codes)
        masses.append(count * probs * share)
    atoms, atom_of, _ = count_codes(np.concatenate(codes), space * n_w)
    mass = np.bincount(atom_of, weights=np.concatenate(masses), minlength=len(atoms))
    stratum_of, w_i = np.divmod(atoms, n_w)
    y_i, x_i = np.divmod(stratum_of, total_size(table.x_domains))
    return FinitePopulation(
        outcome=table.outcome,
        outcome_values=sealed(y_levels),
        x_domains=table.x_domains,
        w_domains=table.w_domains,
        y_i=sealed(y_i),
        x_i=sealed(x_i),
        w_i=sealed(w_i),
        z=sealed(np.ones(len(atoms), dtype=np.int8)),
        mass=sealed(mass),
        regime=COVARIATE_REGIME,
    )


#: the mixture estimate is a population, so its cell mean is the truth's
mixture_conditional_mean = true_long_mean
