"""Random multiple imputation: model fitting, the imputation plan, seeded
completion draws, and the large-m pooled runner.

A run is reproducible from ``(table, model, m, seed)`` alone: draw ``k``
consumes the Philox stream keyed ``(seed, k + 1)`` (see
:mod:`imputebounds._rng`), completions never mutate the input table, and the
pooled value is the plain mean of the per-draw estimates. Pooling does not
change what the estimator converges to; it only averages away the draw
noise of a single completion.

Strata are integer codes computed once per table with numpy: ``x`` for
models keyed by the covariate alone, ``y_index * |X| + x`` for models keyed
by outcome and covariate. Fitted models count their donors over these
codes; explicit models take their strata from
:func:`imputebounds.models.coded_strata`, the one place where a model's
label keys become cell codes. An :class:`ImputationPlan` holds everything a
draw needs that does not depend on the draw: the missing records, each
one's stratum row, and the padded CDF and value matrices. A draw is then one
Philox stream, one inverse-CDF lookup and one write into the plan's working
copy of the imputed column. The pooled runner builds the plan and the
estimator's cell once and takes each draw's cell mean straight from that
working copy; :func:`draw_completion` wraps one draw in a
:class:`CompletedTable`. Because Philox is counter-based, a record's drawn
value depends only on its stratum and its uniform, so the per-draw estimates
do not depend on how the plan is laid out.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels, missing_covariate, missing_outcome, models
from ._rng import STREAM_COMPLETION, stream
from .domain import (
    COVARIATE_REGIME,
    OUTCOME_REGIME,
    CompletedTable,
    total_size,
    value_labels,
)
from .errors import (
    DataError,
    ImputeBoundsError,
    RegimeMismatch,
    UnfittableStratum,
)
from .models import (
    ImputationModel,
    QCovariateModel,
    model_from_json,
    model_to_json,
    true_covariate_model,
    true_outcome_model,
)

__all__ = [
    "ImputationModel",
    "QCovariateModel",
    "FittedImputationModel",
    "ImputationPlan",
    "EstimatorSpec",
    "MultipleImputationResult",
    "fit_model",
    "draw_completion",
    "run_multiple_imputation",
    "true_outcome_model",
    "true_covariate_model",
    "model_to_json",
    "model_from_json",
]


@dataclass(frozen=True)
class FittedImputationModel:
    """A model resolved against concrete domains: per stratum, the atoms
    and cumulative probabilities that completion draws invert. Strata are
    keyed by the flat ``x`` code, or by ``(y, x)`` for ``mar_covariate``
    and ``explicit_covariate_q``."""

    kind: str
    target: str
    strata: dict

    def stratum(self, key):
        return self.strata.get(key)


def _check_regime(model, table):
    if model.target == "outcome" and table.regime == COVARIATE_REGIME:
        raise RegimeMismatch("outcome model on a covariate-missing table")
    if model.target == "covariate" and table.regime == OUTCOME_REGIME:
        raise RegimeMismatch("covariate model on an outcome-missing table")


def _imputed_column(table, target):
    """The column a model imputes and the records where it is observed."""
    if target == "outcome":
        return table.y, np.asarray(table.z_y)
    return table.w, np.asarray(table.z_w)


def _stratum_codes(table, rows, target, kind):
    """Integer stratum codes of the records ``rows``, and a function mapping
    a code back to its stratum key: ``x``, or ``(y, x)`` coded as
    ``y_index * |X| + x`` with ``y_index`` over the outcomes of ``rows``."""
    x = table.x[rows]
    if target == "outcome" or kind == models.ECOLOGICAL:
        return x, int
    y_levels, y_index = np.unique(table.y[rows], return_inverse=True)
    n_x = total_size(table.x_domains)

    def key(code):
        y_at, xf = divmod(int(code), n_x)
        return (float(y_levels[y_at]), xf)

    return y_index * n_x + x, key


def _stratum_name(table, key):
    if isinstance(key, tuple):
        y_val, xf = key
        return f"(y={y_val}, x={value_labels(table.x_domains, xf)!r})"
    return f"x={value_labels(table.x_domains, key)!r}"


def _fit_empirical(codes, key, values):
    """Per stratum code, the empirical distribution of ``values``: its
    sorted atoms and their cumulative probabilities."""
    if not len(values):
        return {}
    atoms, atom_of = np.unique(values, return_inverse=True)
    pairs, counts = np.unique(codes * len(atoms) + atom_of, return_counts=True)
    stratum_of = pairs // len(atoms)
    starts = np.flatnonzero(np.diff(stratum_of, prepend=-1))
    strata = {}
    for lo, hi in zip(starts, [*starts[1:], len(pairs)]):
        c = counts[lo:hi]
        strata[key(stratum_of[lo])] = (atoms[pairs[lo:hi] % len(atoms)],
                                       np.cumsum(c / c.sum()))
    return strata


def fit_model(model, table):
    """Resolve an imputation model against a table.

    Fitted variants take the empirical conditional distribution of their
    observed donors; explicit variants read their assumed distribution off
    :func:`~imputebounds.models.coded_strata`. Raises
    :class:`UnfittableStratum` when a stratum that needs imputation has no
    donors (or no assumed distribution).
    """
    _check_regime(model, table)
    if model.kind in (models.EXPLICIT_OUTCOME_Q, models.EXPLICIT_COVARIATE_Q):
        strata = {key: (atoms, np.cumsum(probs))
                  for key, (atoms, probs) in models.coded_strata(model, table).items()}
    else:
        column, observed = _imputed_column(table, model.target)
        donors = np.flatnonzero(observed)
        codes, key = _stratum_codes(table, donors, model.target, model.kind)
        strata = _fit_empirical(codes, key, column[donors])
    fitted = FittedImputationModel(model.kind, model.target, strata)
    _missing_strata(table, fitted)
    return fitted


def _missing_strata(table, fitted):
    """The records that need imputation, the keys of their strata, and each
    record's position in those keys. Raises :class:`UnfittableStratum`
    naming the first uncovered stratum in string order."""
    _, observed = _imputed_column(table, fitted.target)
    missing = np.flatnonzero(~observed)
    codes, key = _stratum_codes(table, missing, fitted.target, fitted.kind)
    required, row_of = np.unique(codes, return_inverse=True)
    keys = [key(code) for code in required]
    for k in sorted(keys, key=str):
        if k not in fitted.strata:
            raise UnfittableStratum(
                f"no distribution to impute from at {_stratum_name(table, k)}")
    return missing, keys, row_of


class ImputationPlan:
    """Everything a completion draw of ``table`` under ``fitted`` needs that
    does not depend on the draw, built once.

    ``values`` is a private working copy of the imputed column (y or w);
    :meth:`draw` overwrites its missing entries with one draw, so it holds
    the latest draw's completed column.
    """

    def __init__(self, table, fitted):
        self.table = table
        self.target = fitted.target
        self.missing, keys, self.row_of = _missing_strata(table, fitted)
        column, _ = _imputed_column(table, fitted.target)
        self.values = np.array(column, copy=True)
        self.imputed = np.zeros(table.n, dtype=bool)
        self.imputed[self.missing] = True
        width = max((len(fitted.strata[k][1]) for k in keys), default=1)
        self.cdf_mat = np.ones((len(keys), width))
        self.val_mat = np.zeros((len(keys), width), dtype=column.dtype)
        for j, k in enumerate(keys):
            atoms, cdf = fitted.strata[k]
            self.cdf_mat[j, :len(cdf)] = cdf
            self.val_mat[j, :len(atoms)] = atoms
            self.val_mat[j, len(atoms):] = atoms[-1]

    def draw(self, rng):
        """Impute every missing record into the working copy from one
        uniform of ``rng`` each, in record order."""
        if len(self.missing):
            u = rng.random(len(self.missing))
            pos = _kernels.draw_positions(self.cdf_mat, self.row_of, u)
            self.values[self.missing] = self.val_mat[self.row_of, pos]

    def columns(self):
        """``(y, w)`` of the table as completed by the latest draw."""
        if self.target == "outcome":
            return self.values, self.table.w
        return self.table.y, self.values

    def complete(self, rng):
        """One draw as a :class:`CompletedTable` of its own."""
        self.draw(rng)
        t = self.table
        y, w = self.columns()
        none = np.zeros(t.n, dtype=bool)
        if self.target == "outcome":
            y_imputed, w_imputed = self.imputed, none
        else:
            y_imputed, w_imputed = none, self.imputed
        return CompletedTable(
            outcome=t.outcome, x_domains=t.x_domains, w_domains=t.w_domains,
            y=y, x=t.x, w=w, y_imputed=y_imputed, w_imputed=w_imputed)


def _complete(table, fitted, rng):
    """One completion from a fresh plan: the step behind
    :func:`draw_completion`."""
    return ImputationPlan(table, fitted).complete(rng)


def draw_completion(table, fitted, seed):
    """One completed dataset: every missing value replaced by an
    independent draw from its stratum's distribution, deterministic in
    ``seed``. Observed values are untouched."""
    if isinstance(fitted, ImputationModel):
        fitted = fit_model(fitted, table)
    return _complete(table, fitted, stream(seed, STREAM_COMPLETION))


@dataclass(frozen=True)
class EstimatorSpec:
    """A named cell estimator to apply to each completed dataset:
    ``imputation_mean`` (outcome regime) or ``long_mean`` (covariate)."""

    name: str
    selector: object

    def __post_init__(self):
        if self.name not in _ESTIMATORS:
            raise DataError(
                f"unknown estimator {self.name!r}; "
                f"expected one of {sorted(_ESTIMATORS)}")

    def apply(self, completed):
        return _ESTIMATORS[self.name](completed, self.selector)


_ESTIMATORS = {
    "imputation_mean": missing_outcome.imputation_mean,
    "long_mean": missing_covariate.imputed_long_mean,
}


def _imputation_mean_on(plan, sel):
    rows = missing_outcome.imputation_cell(plan.table, sel)
    y, _ = plan.columns()
    return lambda: float(y[rows].mean())


def _long_mean_on(plan, sel):
    at_xi, om = missing_covariate.long_cell(plan.table, sel)
    y, w = plan.columns()
    return lambda: missing_covariate.pooled_cell_mean(y[at_xi], w[at_xi], om, sel)


#: per estimator, the same estimate read off a plan's working copy: the
#: checks that do not depend on the draw run once when this is built
_ON_PLAN = {
    "imputation_mean": _imputation_mean_on,
    "long_mean": _long_mean_on,
}


@dataclass(frozen=True)
class MultipleImputationResult:
    """Per-draw estimates with their pooled mean and across-draw spread."""

    per_draw_estimates: tuple
    pooled_mean: float
    pooled_dispersion: float
    m: int
    seed: int


def _tag_draw(error, k):
    try:
        return type(error)(f"draw {k}: {error}")
    except TypeError:
        return ImputeBoundsError(f"draw {k}: {error}")


def run_multiple_imputation(table, model, m, estimator, seed):
    """Complete the table ``m`` times, estimate on each completion, pool.

    Draw ``k`` (0-based) uses the stream keyed ``(seed, k + 1)``, so results
    are reproducible and independent of scheduling; ``m = 1`` reproduces
    :func:`draw_completion` exactly. The plan and the estimator's cell are
    built once; estimator errors that do not depend on the draw are tagged
    ``draw 0``, and an empty pooled cell on draw ``k`` is tagged ``draw k``.
    The pooled value is the arithmetic mean of the per-draw estimates; the
    dispersion is their sample standard deviation (0 when ``m = 1``) and is
    reported for diagnostics only.
    """
    m = int(m)
    if m < 1:
        raise DataError(f"m must be >= 1, got {m}")
    plan = ImputationPlan(table, fit_model(model, table))
    estimates = []
    k = 0
    try:
        estimate = _ON_PLAN[estimator.name](plan, estimator.selector)
        for k in range(m):
            plan.draw(stream(seed, STREAM_COMPLETION + k))
            estimates.append(estimate())
    except ImputeBoundsError as e:
        raise _tag_draw(e, k) from e
    arr = np.array(estimates)
    dispersion = float(arr.std(ddof=1)) if m > 1 else 0.0
    return MultipleImputationResult(
        per_draw_estimates=tuple(estimates),
        pooled_mean=float(arr.mean()),
        pooled_dispersion=dispersion,
        m=m,
        seed=int(seed),
    )
