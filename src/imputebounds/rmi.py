"""Random multiple imputation: model fitting, the imputation plan, seeded
completion draws, and the large-m pooled runner.

A run is reproducible from ``(table, model, m, seed)`` alone: draw ``k``
consumes the Philox stream keyed ``(seed, k + 1)`` (see
:mod:`imputebounds._rng`), completions never mutate the input table, and the
pooled value is the plain mean of the per-draw estimates. Pooling does not
change what the estimator converges to; it only averages away the draw
noise of a single completion.

Strata are integer codes: ``x`` for models keyed by the covariate alone,
``y_index * |X| + x`` (:func:`imputebounds.domain.yx_codes`) for models
keyed by outcome and covariate. An :class:`ImputationPlan` codes a table
once per record: it fits the model on the observed records' codes
(explicit models on :func:`imputebounds.models.coded_strata`) and takes
the coverage check and each missing record's stratum row from one count
of the missing records' codes (:func:`imputebounds.domain.count_codes`
gives what ``np.unique`` would, mostly without a sort). The plan keeps
the fitted model and what every draw reads (the missing records, their
stratum rows, the padded CDF and value matrices), not the codes;
:func:`fit_model` is the plan's fitted model.

The pooled runner builds the plan and the estimator's cell once and one
Philox generator per run, then makes its draws in blocks. For a block of
``b`` draws it rekeys the generator to each draw's stream in turn
(:func:`imputebounds._rng.fill_streams`) to fill a ``(b, missing)`` matrix
of uniforms, one per missing record as the stream contract has it, inverts
only the columns of the records the estimator reads with one kernel call
(:meth:`ImputationPlan.imputed_block` with ``of``), and reads the ``b``
estimates off the drawn values. The rekey builds one generator state of
plain ints per block and changes only its key's stream word per draw. An
``imputation_mean`` cell whose observed outcomes and atoms sum exactly in
any order (:func:`_sums_exactly`) is estimated as (observed sum + drawn
sum) / size; any other cell is a row-wise mean of the block's cell copies.
:meth:`ImputationPlan.complete` is the one-draw block written into a fresh
copy of the imputed column of an observation table in the complete regime,
and :func:`draw_completion` is one completion from a fresh plan. Because
Philox is counter-based, a record's drawn value depends only on its stratum
and its uniform, so the per-draw estimates do not depend on the block size
or the plan's layout.

What each estimator reads is one private table keyed by its name, which
:class:`EstimatorSpec` reads; a cell names its estimator in one place,
:func:`_estimator_of`, and a spec that names another is refused.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _kernels, missing_covariate, missing_outcome, models
from ._rng import STREAM_COMPLETION, fill_streams, stream
from .domain import (
    ObservationTable,
    _whole,
    count_codes,
    require_regime,
    sealed,
    stratum_name,
    total_size,
    yx_codes,
)
from .errors import (
    DataError,
    ImputeBoundsError,
    UnfittableStratum,
)

__all__ = [
    "FittedImputationModel",
    "ImputationPlan",
    "EstimatorSpec",
    "MultipleImputationResult",
    "fit_model",
    "draw_completion",
    "run_multiple_imputation",
]


@dataclass(frozen=True)
class FittedImputationModel:
    """A model resolved against concrete domains: per stratum, the atoms
    and cumulative probabilities that completion draws invert. Strata are
    keyed by the flat ``x`` code, or by ``(y, x)`` for ``mar_covariate``
    and ``explicit_covariate_q``. ``domains`` holds the ``(role, domain)``
    pairs those codes and atoms were read against: ``x``, then ``w`` for a
    covariate model or ``outcome`` for an outcome model."""

    kind: str
    target: str
    strata: dict
    domains: tuple


def _imputed_column(table, target):
    """The column a model imputes and the records where it is observed."""
    if target == "outcome":
        return table.y, np.asarray(table.z_y)
    return table.w, np.asarray(table.z_w)


def _fit_empirical(codes, space, key, values, levels):
    """Per stratum code below ``space``, the empirical distribution of
    ``values``: its sorted atoms and their cumulative probabilities.
    ``values`` are real outcomes when ``levels`` is None, else codes below
    ``levels`` (the flat ``w`` codes), which are their own atoms: each
    stratum keeps only the atoms its donors take, so either way its atoms
    and counts are those of its donors. ``codes`` is overwritten with the
    (stratum, atom) pair codes that are counted."""
    if not len(values):
        return {}
    if levels is None:
        atoms, values = np.unique(values, return_inverse=True)
    else:
        atoms = np.arange(levels)
    codes *= len(atoms)
    codes += values
    del values
    pairs, _, counts = count_codes(codes, space * len(atoms), inverse=False)
    stratum_of = pairs // len(atoms)
    starts = np.flatnonzero(np.diff(stratum_of, prepend=-1))
    strata = {}
    for lo, hi in zip(starts, [*starts[1:], len(pairs)]):
        c = counts[lo:hi]
        strata[key(stratum_of[lo])] = (atoms[pairs[lo:hi] % len(atoms)],
                                       np.cumsum(c / c.sum()))
    return strata


def fit_model(model, table):
    """Resolve an imputation model against a table: the ``fitted`` of
    ``ImputationPlan(table, model)``. Fitted variants take the empirical
    conditional distribution of their observed donors; explicit variants
    read their assumed distribution off
    :func:`~imputebounds.models.coded_strata`. Raises
    :class:`RegimeMismatch`, and :class:`UnfittableStratum` when a stratum
    that needs imputation has no donors (or no assumed distribution).
    """
    return ImputationPlan(table, model).fitted


class ImputationPlan:
    """Everything a completion draw of ``table`` under ``model`` (fitted
    or not) needs that does not depend on the draw, built from one coding
    of every record: the ``fitted`` model, the missing records, each one's
    stratum row, and the padded CDF and value matrices. The fit's
    (stratum, atom) pairs and the missing records' strata are counted by
    :func:`~imputebounds.domain.count_codes`; only a real outcome's atoms
    are sorted. A fitted model drawn on other domains than its own is a
    :class:`DataError` naming the role. Nothing writes to a plan once it is
    built; a draw lives in the arrays that :meth:`imputed_block` and
    :meth:`complete` return.
    """

    def __init__(self, table, model):
        require_regime(table, f"model {model.kind!r}", model.target)
        column, observed = _imputed_column(table, model.target)
        if model.target == "outcome" or model.kind == models.ECOLOGICAL:
            codes, key, space = table.x, int, total_size(table.x_domains)
        else:
            codes, key, _, space = yx_codes(table)
        self.missing = np.flatnonzero(~observed)
        missing_codes = codes.take(self.missing)
        domains = (("x", table.x_domains), ("outcome", table.outcome)
                   if model.target == "outcome" else ("w", table.w_domains))
        if isinstance(model, FittedImputationModel):
            for (role, fitted_on), (_, own) in zip(model.domains, domains):
                if fitted_on != own:
                    raise DataError(f"model fitted on other {role} domains than the table's")
            self.fitted = model
        else:
            if model.kind in (models.EXPLICIT_OUTCOME_Q, models.EXPLICIT_COVARIATE_Q):
                strata = {k: (atoms, np.cumsum(probs)) for k, (atoms, probs)
                          in models.coded_strata(model, table).items()}
            else:
                levels = None if model.target == "outcome" else total_size(table.w_domains)
                # the donors' codes take the place of the coding, so that the
                # fit's counts do not run beside all of it
                donors = np.flatnonzero(observed)
                codes = codes.take(donors)
                values = column.take(donors)
                del donors
                strata = _fit_empirical(codes, space, key, values, levels)
            self.fitted = FittedImputationModel(model.kind, model.target, strata, domains)
        del codes
        strata = self.fitted.strata
        self.table = table
        self.target = model.target
        required, self.row_of, _ = count_codes(missing_codes, space)
        keys = [key(code) for code in required]
        for k in sorted(keys, key=str):
            if k not in strata:
                raise UnfittableStratum(
                    f"no distribution to impute from at {stratum_name(table.x_domains, k)}")
        width = max((len(strata[k][1]) for k in keys), default=1)
        self.cdf_mat = np.ones((len(keys), width))
        self.val_mat = np.zeros((len(keys), width), dtype=column.dtype)
        for j, k in enumerate(keys):
            atoms, cdf = strata[k]
            self.cdf_mat[j, :len(cdf)] = cdf
            self.val_mat[j, :len(atoms)] = atoms
            self.val_mat[j, len(atoms):] = atoms[-1]

    def imputed_block(self, u, of=slice(None)):
        """The imputed values of ``len(u)`` draws, one row per draw. ``u``
        holds one uniform per missing record in record order; row ``j``
        inverts the uniforms ``u[j, of]`` of the records at the positions
        ``of`` among ``missing`` (every record by default), in that order:
        one kernel call on their ``row_of``, one flat ``take``. A drawn
        value depends only on its stratum row and its uniform, so the
        records left out change none of the others."""
        row_of = self.row_of[of]
        pos = _kernels.draw_positions(self.cdf_mat, row_of, u[:, of])
        pos += row_of * self.val_mat.shape[1]
        return self.val_mat.ravel().take(pos)

    def complete(self, rng):
        """One draw, one uniform of ``rng`` per missing record in record
        order, as an :class:`~imputebounds.domain.ObservationTable` in the
        complete regime: the imputed column is a fresh sealed copy, and
        ``x`` and the other column are the source table's own arrays."""
        t = self.table
        column, _ = _imputed_column(t, self.target)
        column = np.array(column, copy=True)
        column[self.missing] = self.imputed_block(rng.random((1, len(self.missing))))[0]
        sealed(column)
        y, w = (column, t.w) if self.target == "outcome" else (t.y, column)
        return ObservationTable(t.outcome, t.x_domains, t.w_domains, y, t.x, w)


def draw_completion(table, fitted, seed):
    """One completed dataset, an observation table in the complete regime:
    every missing value replaced by an independent draw from its stratum's
    distribution, deterministic in ``seed``. Observed values are untouched,
    so the imputed records are the source table's ``~z_y`` (or ``~z_w``).
    ``fitted`` may be unfitted."""
    return ImputationPlan(table, fitted).complete(stream(seed, STREAM_COMPLETION))


def _imputed_in(plan, rows, column):
    """Where a draw's values land in ``column`` ("outcome" or "covariate")
    at ``rows``: their positions in ``rows`` and their places in a draw.
    None land there when the plan imputes the other column."""
    if plan.target != column:
        rows = rows[:0]
    _, observed = _imputed_column(plan.table, plan.target)
    at = np.flatnonzero(~observed[rows])
    return at, np.searchsorted(plan.missing, rows[at])


def _sums_exactly(values, count):
    """True when every sum of at most ``count`` terms drawn from ``values``
    is exact in float64, in any order: each value is k / 2**d for an
    integer k and one shared d, none is -0.0, and count * max|k| < 2**53,
    so every partial sum is a whole multiple of 2**-d below 2**53 of them.
    (A sum that starts from its first term keeps a lone -0.0, one that
    starts from +0.0 does not, so -0.0 would make the order matter to the
    sign of a zero.) One vectorized pass: a nonzero value's own d is read off its mantissa
    and exponent, the shared d is the largest of them."""
    values = np.ravel(values)
    if np.any(np.signbit(values) & (values == 0)):
        return False
    mantissa, exponent = np.frexp(values[values != 0])
    if not len(mantissa):
        return True
    k = np.ldexp(mantissa, 53).astype(np.int64)
    # the lowest set bit of each 53-bit mantissa: its trailing zeros
    # shorten the value's own d
    zeros = np.frexp(k & -k)[1] - 1
    d = int((53 - exponent - zeros).max())
    largest = float(np.abs(values).max())
    if math.frexp(largest)[1] + d > 53:
        return False
    return count * int(math.ldexp(largest, d)) < 2**53


def _imputation_mean_on(plan, sel):
    rows = missing_outcome.imputation_cell(plan.table, sel)
    base = plan.table.y[rows]
    at, of = _imputed_in(plan, rows, "outcome")
    observed = np.delete(base, at)
    # the atoms of the stratum rows the cell's missing records draw from
    atoms = plan.val_mat[np.bincount(plan.row_of[of], minlength=len(plan.val_mat)) > 0]
    if _sums_exactly(np.concatenate([observed, atoms.ravel()]), len(rows)):
        total = observed.sum()

        def estimate(drawn, estimates):
            # every partial sum is exact, so this is y[rows].mean() bit for bit
            estimates.extend(((total + drawn.sum(axis=1)) / len(rows)).tolist())

        return estimate, 0, of

    def estimate(drawn, estimates):
        # each row is one draw's cell, laid out as y[rows]: a mean along the
        # contiguous axis sums every row in the order y[rows].mean() would
        cell = np.tile(base, (len(drawn), 1))
        cell[:, at] = drawn
        estimates.extend(cell.mean(axis=1).tolist())

    return estimate, len(rows), of


def _long_mean_on(plan, sel):
    at_xi, om = missing_covariate.long_cell(plan.table, sel)
    y_cell, w_cell = plan.table.y[at_xi], plan.table.w[at_xi]
    cell = y_cell if plan.target == "outcome" else w_cell
    at, of = _imputed_in(plan, at_xi, plan.target)

    def estimate(drawn, estimates):
        for row in drawn:
            cell[at] = row
            estimates.append(missing_covariate.pooled_cell_mean(y_cell, w_cell, om, sel))

    return estimate, 0, of


_Readings = namedtuple("_Readings", "estimate on_plan plim truth "
                       "population_interval sample_interval")

#: per estimator name, what it reads, each reading taking the selector last.
#: ``on_plan(plan, sel)`` is ``(estimate, tiled, of)``: ``of`` are the
#: positions among ``plan.missing`` of the records the estimator reads, and
#: ``estimate(drawn, estimates)`` appends one estimate per row of ``drawn``
#: (the values drawn at ``of``, one row per draw) in draw order, holding
#: ``tiled`` cells per row to do so; checks that do not depend on the draw
#: run once, in ``on_plan``
_READINGS = {
    "imputation_mean": _Readings(
        missing_outcome.imputation_mean, _imputation_mean_on,
        missing_outcome.plim_imputation_mean, missing_outcome.true_mean,
        missing_outcome.identification_interval_pop,
        missing_outcome.sample_interval),
    "long_mean": _Readings(
        missing_covariate.imputed_long_mean, _long_mean_on,
        missing_covariate.plim_imputed_long_mean, missing_covariate.true_long_mean,
        missing_covariate.binary_bounds_oracle,
        missing_covariate.binary_bounds_closed_form),
}


def _estimator_of(sel):
    """``imputation_mean`` reads an x cell, ``long_mean`` an (x, w) cell."""
    return "imputation_mean" if sel.omega is None else "long_mean"


@dataclass(frozen=True)
class EstimatorSpec:
    """A cell estimator by name and what it reads, one row of
    :data:`_READINGS`: ``imputation_mean`` estimates E(y|x) when outcomes
    are missing, ``long_mean`` E(y|x,w) when covariates are. Each method is
    one reading of that row at ``selector``, whose cell names the estimator
    (:meth:`for_cell`): any other name is a :class:`DataError`."""

    name: str
    selector: object

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in _READINGS:
            raise DataError(
                f"unknown estimator {self.name!r}; "
                f"expected one of {sorted(_READINGS)}")
        if self.name != _estimator_of(self.selector):
            raise DataError(f"estimator {self.name!r} does not read the cell xi="
                            f"{self.selector.xi!r}, omega={self.selector.omega!r}")

    @classmethod
    def for_cell(cls, sel):
        """The estimator of the cell ``sel`` selects."""
        return cls(_estimator_of(sel), sel)

    def apply(self, completed):
        return _READINGS[self.name].estimate(completed, self.selector)

    def plim(self, pop, model):
        return _READINGS[self.name].plim(pop, model, self.selector)

    def truth(self, pop):
        return _READINGS[self.name].truth(pop, self.selector)

    def population_interval(self, pop):
        return _READINGS[self.name].population_interval(pop, self.selector)

    def sample_interval(self, table):
        return _READINGS[self.name].sample_interval(table, self.selector)


#: the largest working matrix a block of pooled draws may make, in cells:
#: a block holds as many draws as fit when each costs the largest of its
#: row of uniforms (every missing record), its kernel matrix (the records
#: the estimator reads by support width) and its tiled cell
BLOCK_CELLS = 2**14


@dataclass(frozen=True)
class MultipleImputationResult:
    """Per-draw estimates with their pooled mean and across-draw spread."""

    per_draw_estimates: tuple
    pooled_mean: float
    pooled_dispersion: float
    m: int
    seed: int


def _tag_draw(error, k):
    return type(error)(f"draw {k}: {error}")


def run_multiple_imputation(table, model, m, estimator, seed):
    """Complete the table ``m`` times, estimate on each completion, pool.

    ``model`` may be fitted. Draw ``k`` (0-based) uses the stream keyed
    ``(seed, k + 1)``, so results are reproducible and independent of
    scheduling; ``m = 1`` reproduces :func:`draw_completion` exactly. The
    plan, the estimator's cell and one Philox generator are built once.
    Draws are made in blocks of at most :data:`BLOCK_CELLS` working cells:
    the generator is rekeyed to each draw's stream, and the uniforms of the
    records the estimator reads are inverted in one kernel call. Estimator
    errors that do not depend on the draw are tagged ``draw 0``, and an
    empty pooled cell on draw ``k`` is tagged ``draw k``. ``m`` is a whole
    number of at least 1. The pooled value is the arithmetic mean of
    the per-draw estimates; the dispersion is their sample standard
    deviation (0 when ``m = 1``) and is reported for diagnostics only.
    """
    m = _whole(m, "m", 1)
    plan = ImputationPlan(table, model)
    rng = stream(seed, STREAM_COMPLETION)
    estimates = []
    try:
        estimate, tiled, of = _READINGS[estimator.name].on_plan(plan, estimator.selector)
        n = len(plan.missing)
        # every draw fills a uniform per missing record, so n bounds the
        # block as well as the few records it inverts
        per_draw = max(n, len(of) * plan.cdf_mat.shape[1], tiled, 1)
        block = min(m, max(1, BLOCK_CELLS // per_draw))
        u = np.empty((block, n))
        rows = list(u)
        for first in range(0, m, block):
            b = min(block, m - first)
            fill_streams(rng, seed, STREAM_COMPLETION + first, rows[:b])
            estimate(plan.imputed_block(u[:b], of), estimates)
    except ImputeBoundsError as e:
        raise _tag_draw(e, len(estimates)) from e
    arr = np.array(estimates)
    dispersion = float(arr.std(ddof=1)) if m > 1 else 0.0
    return MultipleImputationResult(
        per_draw_estimates=tuple(estimates),
        pooled_mean=float(arr.mean()),
        pooled_dispersion=dispersion,
        m=m,
        seed=int(seed),
    )
