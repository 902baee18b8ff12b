"""Simulation laboratory: population construction, missingness mechanisms,
seeded sampling, and Monte Carlo experiments that check estimator
probability limits and bias gaps numerically.

Every random quantity is keyed off explicit seeds (see
:mod:`imputebounds._rng`); replications are independent and aggregate by
commutative reductions, so reports are reproducible regardless of
scheduling.
"""

import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _kernels, models, rmi
from ._rng import (
    STREAM_POPULATION,
    STREAM_SAMPLE,
    derive_seed,
    stream,
)
from .domain import (
    EQUALITY_TOL,
    OUTCOME_REGIME,
    CategoricalDomain,
    CellSelector,
    FinitePopulation,
    ObservationTable,
    OutcomeDomain,
    _whole,
    as_real,
    flat_value,
    is_real,
    json_keys,
    json_list,
    load_population,
    population_from_json,
    read_json,
    require_finite,
    require_population,
    sealed,
)
from .errors import (
    DataError,
    EmptyCell,
    ProbabilityOutOfRange,
    UnfittableStratum,
)


# ---------------------------------------------------------------------------
# missingness mechanisms


def _rates_by_cell(rates, resolve):
    """``rates`` keyed by ``resolve(key)``; a key that resolves to the cell
    of an earlier key is a :class:`DataError` naming it."""
    table = {}
    for key, rate in rates.items():
        cell = resolve(key)
        if cell in table:
            raise DataError(f"missingness rate key {key!r} names the same cell as an earlier key")
        table[cell] = rate
    return table


@dataclass(frozen=True)
class MissingnessMechanism:
    """Per-cell missingness probabilities P(z = 0 | y, x, w).

    ``kind`` selects how the payload is read: a constant rate, a rate per
    outcome value (selection on the outcome itself), a rate per x value, or
    a full per-cell table.
    """

    kind: str
    payload: object

    @classmethod
    def constant(cls, rate):
        return cls("constant", as_real(rate, "missingness rate"))

    @classmethod
    def by_outcome(cls, rates):
        """MNAR: rate chosen by the (possibly missing) outcome value."""
        return cls("by_outcome", {as_real(k, "by_outcome key"):
                                  as_real(v, "missingness rate") for k, v in rates.items()})

    @classmethod
    def by_x(cls, rates):
        """MAR given x: rate chosen by the always-observed covariates."""
        return cls("by_x", {k: as_real(v, "missingness rate") for k, v in rates.items()})

    @classmethod
    def by_cell(cls, rates):
        """Explicit table ``{(y, x_value, w_value): rate}``."""
        for key in rates:
            if not (isinstance(key, tuple) and len(key) == 3):
                raise DataError(f"a by_cell key is a (y, x_value, w_value) "
                                f"triple, got {key!r}")
            as_real(key[0], f"by_cell key {key!r}: y")
        return cls("by_cell", {k: as_real(v, "missingness rate") for k, v in rates.items()})

    def probabilities(self, pop):
        """P(z=0) per population cell, validated to lie in [0, 1]."""
        y_vals = pop.outcome_values[pop.y_i]
        if self.kind == "constant":
            probs = np.full(pop.n_cells, self.payload)
        elif self.kind == "by_outcome":
            try:
                probs = np.array([self.payload[float(v)] for v in y_vals])
            except KeyError as e:
                raise DataError(f"no missingness rate for outcome {e.args[0]}") from None
        elif self.kind == "by_x":
            table = _rates_by_cell(self.payload, lambda k: flat_value(pop.x_domains, k))
            try:
                probs = np.array([table[int(xf)] for xf in pop.x_i])
            except KeyError:
                raise DataError("no missingness rate for some x cell") from None
        elif self.kind == "by_cell":
            table = _rates_by_cell(self.payload, lambda k: (
                float(k[0]), flat_value(pop.x_domains, k[1]), flat_value(pop.w_domains, k[2])))
            try:
                probs = np.array([
                    table[(float(y_vals[i]), int(pop.x_i[i]), int(pop.w_i[i]))]
                    for i in range(pop.n_cells)])
            except KeyError:
                raise DataError("no missingness rate for some cell") from None
        else:
            raise DataError(f"unknown mechanism kind {self.kind!r}")
        require_finite(probs, ProbabilityOutOfRange, "mechanism probability")
        if np.any((probs < 0.0) | (probs > 1.0)):
            raise ProbabilityOutOfRange("mechanism probability outside [0, 1]")
        return probs


def joint_population(cells, *, outcome, x_domains, w_domains=(),
                     regime=OUTCOME_REGIME):
    """A fully observed population (all z = 1) from ``{(y, x, w): mass}``;
    the starting point for :func:`apply_mechanism`."""
    return FinitePopulation.from_cells(
        {(y, x, w, 1): m for (y, x, w), m in cells.items()},
        outcome=outcome, x_domains=x_domains, w_domains=w_domains,
        regime=regime)


def apply_mechanism(base, mech):
    """Split each cell of an all-observed population into z = 1 and z = 0
    parts according to the mechanism; the output stays normalized."""
    if np.any(base.z != 1):
        raise DataError("base population must be fully observed (all z = 1)")
    probs = mech.probabilities(base)
    keep = 1.0 - probs
    return FinitePopulation(
        outcome=base.outcome,
        outcome_values=base.outcome_values,
        x_domains=base.x_domains,
        w_domains=base.w_domains,
        y_i=np.concatenate([base.y_i, base.y_i]),
        x_i=np.concatenate([base.x_i, base.x_i]),
        w_i=np.concatenate([base.w_i, base.w_i]),
        z=np.concatenate([np.ones(base.n_cells, dtype=np.int8),
                          np.zeros(base.n_cells, dtype=np.int8)]),
        mass=np.concatenate([base.mass * keep, base.mass * probs]),
        regime=base.regime,
    )


# ---------------------------------------------------------------------------
# sampling and random populations


def sample_table(pop, n, seed):
    """Draw ``n`` i.i.d. records; the variable governed by z (per the
    population's regime) is blanked where z = 0. Deterministic in ``seed``;
    ``n`` is a whole number >= 0.

    Values are looked up and blanked per population cell, so each column
    is one gather over the records, which the table adopts."""
    require_population(pop, "sample_table")
    n = _whole(n, "n", 0)
    cdf = np.cumsum(pop.mass)
    cdf /= cdf[-1]
    # the uniforms die with the call, before the columns are gathered
    idx = _kernels.sample_cells(cdf, stream(seed, STREAM_SAMPLE).random(n))
    y = pop.outcome_values[pop.y_i]
    w = pop.w_i
    if pop.regime == OUTCOME_REGIME:
        y = np.where(pop.z == 0, np.nan, y)
    else:
        w = np.where(pop.z == 0, -1, w)
    return ObservationTable(pop.outcome, pop.x_domains, pop.w_domains,
                            sealed(y.take(idx)), sealed(pop.x_i.take(idx)),
                            sealed(w.take(idx)))


def _letters(n):
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(alphabet):
        return tuple(alphabet[:n])
    return tuple(f"v{i}" for i in range(n))


def default_domains(prefix, sizes):
    return tuple(CategoricalDomain(f"{prefix}{i + 1}", _letters(size))
                 for i, size in enumerate(sizes))


#: the mass every cell of a random population keeps, so no stratum vanishes;
#: it caps a random population below 1000 cells
MASS_FLOOR = 1e-3


def random_population(seed, *, outcome_values=(0.0, 1.0), x_sizes=(2,),
                      w_sizes=(), regime=OUTCOME_REGIME):
    """A seeded random population: Dirichlet(1, ..., 1) masses over all
    (y, x, w, z) cells, mixed with the per-cell :data:`MASS_FLOOR`.
    The outcome domain is binary when the support is within {0, 1}, else
    the support's range.
    """
    values = np.array(sorted(float(v) for v in set(outcome_values)))
    if set(values) <= {0.0, 1.0}:
        outcome = OutcomeDomain.binary_01()
    else:
        outcome = OutcomeDomain(float(values.min()), float(values.max()))
    x_domains = default_domains("x", x_sizes)
    w_domains = default_domains("w", w_sizes)
    nx = max(int(np.prod(x_sizes)), 1)
    nw = max(int(np.prod(w_sizes)), 1) if w_sizes else 1
    n_cells = len(values) * nx * nw * 2
    if n_cells * MASS_FLOOR >= 1.0:
        raise DataError(f"floor {MASS_FLOOR} too large for {n_cells} cells")
    rng = stream(seed, STREAM_POPULATION)
    raw = rng.gamma(1.0, size=n_cells)
    masses = MASS_FLOOR + (1.0 - n_cells * MASS_FLOOR) * (raw / raw.sum())
    grid = list(product(range(len(values)), range(nx), range(nw), (1, 0)))
    return FinitePopulation(
        outcome=outcome,
        outcome_values=values,
        x_domains=x_domains,
        w_domains=w_domains,
        y_i=np.array([g[0] for g in grid], dtype=np.int64),
        x_i=np.array([g[1] for g in grid], dtype=np.int64),
        w_i=np.array([g[2] for g in grid], dtype=np.int64),
        z=np.array([g[3] for g in grid], dtype=np.int8),
        mass=masses,
        regime=regime,
    )


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ExperimentSpec:
    """A convergence experiment: population, model, estimator, cell,
    sample-size grid, replication count, master seed, and tolerance. An
    unknown estimator is a :class:`DataError` when the spec is built."""

    population: FinitePopulation
    model: object
    estimator: str
    selector: CellSelector
    n_grid: tuple
    reps: int
    seed: int
    tolerance: float

    def __post_init__(self):
        grid = tuple(_whole(n, "an n_grid entry", 1) for n in self.n_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DataError("n_grid must be strictly increasing")
        if not grid:
            raise DataError("n_grid is empty")
        tol = self.tolerance
        if not is_real(tol) or not math.isfinite(tol) or tol < 0:
            raise DataError(f"tolerance must be a finite number >= 0, got {tol!r}")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "reps", _whole(self.reps, "reps", 1))
        object.__setattr__(self, "seed", _whole(self.seed, "seed", None))
        object.__setattr__(self, "tolerance", float(tol))
        rmi.EstimatorSpec(self.estimator, self.selector)


def experiment_from_json(obj, base_dir="."):
    with json_keys("experiment spec"):
        pop_ref = obj["population"]
        if isinstance(pop_ref, str):
            pop = load_population(os.path.join(base_dir, pop_ref))
        else:
            pop = population_from_json(pop_ref)
        omega = obj.get("omega")
        selector = CellSelector(obj["xi"], omega)
        return ExperimentSpec(
            population=pop,
            model=models.model_from_ref(obj["model"], base_dir),
            estimator=obj["estimator"],
            selector=selector,
            n_grid=json_list(obj["n_grid"], "'n_grid'"),
            reps=obj["reps"],
            seed=obj["seed"],
            tolerance=obj["tolerance"],
        )


def load_experiment(path):
    return experiment_from_json(read_json(path),
                                base_dir=os.path.dirname(os.path.abspath(path)))


_SKIPPABLE = (EmptyCell, UnfittableStratum)

#: a grid entry fails outright when more than this share of reps skip
MAX_SKIP_FRACTION = 0.05


@dataclass(frozen=True)
class ConvergenceEntry:
    n: int
    reps: int
    skips: int
    mean_abs_dev: float
    max_abs_dev: float
    est_spread: float
    passed: bool


def _json_number(value):
    """``value``, or None where it is NaN: JSON has no NaN."""
    return None if math.isnan(value) else value


@dataclass(frozen=True)
class ConvergenceReport:
    plim: float
    tolerance: float
    entries: tuple
    passed: bool

    def to_json(self):
        return {
            "plim": self.plim,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "entries": [
                {"n": e.n, "reps": e.reps, "skips": e.skips,
                 "mean_abs_dev": _json_number(e.mean_abs_dev),
                 "max_abs_dev": _json_number(e.max_abs_dev),
                 "est_spread": e.est_spread, "passed": e.passed}
                for e in self.entries
            ],
        }


def _replicate(pop, n, seed, model, estimator):
    """One replication's estimate: a table of ``n`` records sampled from
    ``pop`` and singly imputed, both from ``seed``. The table dies on
    return, before the next one is sampled."""
    table = sample_table(pop, n, seed)
    return rmi.run_multiple_imputation(
        table, model, 1, estimator, seed).per_draw_estimates[0]


def convergence_experiment(spec):
    """Run the experiment: per grid size, sample and singly impute ``reps``
    tables, compare the estimator to its exact probability limit.

    Replication ``r`` at grid position ``j`` derives its seed as
    ``derive_seed(master, j, r)``. A sample with an empty cell or a stratum
    without donors is recorded as a skip; an entry fails when deviations
    exceed the tolerance or skips exceed ``MAX_SKIP_FRACTION``. The estimate spread across replications is
    reported as a diagnostic only.
    """
    pop = spec.population
    estimator = rmi.EstimatorSpec(spec.estimator, spec.selector)
    plim = estimator.plim(pop, spec.model)
    entries = []
    for j, n in enumerate(spec.n_grid):
        devs = []
        estimates = []
        skips = 0
        for r in range(spec.reps):
            try:
                est = _replicate(pop, n, derive_seed(spec.seed, j, r),
                                 spec.model, estimator)
            except _SKIPPABLE:
                skips += 1
                continue
            estimates.append(est)
            devs.append(abs(est - plim))
        skip_ok = skips <= MAX_SKIP_FRACTION * spec.reps
        mean_dev = float(np.mean(devs)) if devs else math.nan
        max_dev = float(np.max(devs)) if devs else math.nan
        spread = float(np.std(estimates)) if len(estimates) > 1 else 0.0
        passed = skip_ok and bool(devs) and max_dev <= spec.tolerance
        entries.append(ConvergenceEntry(int(n), spec.reps, skips,
                                        mean_dev, max_dev, spread, passed))
    return ConvergenceReport(plim=plim, tolerance=spec.tolerance,
                             entries=tuple(entries),
                             passed=all(e.passed for e in entries))


# ---------------------------------------------------------------------------
# bias gaps


@dataclass(frozen=True)
class BiasGapReport:
    """Exact plim versus exact truth, with the assumption-free interval."""

    plim: float
    truth: float
    gap: float
    interval: object
    truth_covered: bool
    imputation_point_in_interval: bool


def bias_gap(pop, model, sel):
    """Exact bias diagnostics for (population, model, cell): the estimator's
    probability limit, the true cell mean, their gap, and whether each lies
    in the assumption-free identification interval, all read through the
    estimator of the cell (:meth:`~imputebounds.rmi.EstimatorSpec.for_cell`)."""
    require_population(pop, "bias_gap")
    estimator = rmi.EstimatorSpec.for_cell(sel)
    plim = estimator.plim(pop, model)
    truth = estimator.truth(pop)
    interval = estimator.population_interval(pop)
    return BiasGapReport(
        plim=plim,
        truth=truth,
        gap=plim - truth,
        interval=interval,
        truth_covered=interval.contains(truth, tol=EQUALITY_TOL),
        imputation_point_in_interval=interval.contains(plim, tol=EQUALITY_TOL),
    )
