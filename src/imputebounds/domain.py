"""Core data types: outcome domains, categorical covariates, intervals,
observation tables, and exact finite populations.

Conventions used throughout the package:

* A covariate value names one level label per role (a number is read as
  its text); it is coded against each role's ordered levels and the codes
  are flattened to a single mixed-radix integer for hot comparisons.
* An :class:`ObservationTable` stores sampled records. Missing outcomes are
  NaN, missing covariates are code -1; presence flags are derived.
* A :class:`FinitePopulation` is an exact probability table over
  ``(y, x, w, z)`` on finite supports. It is the ground truth that
  probability limits, oracles, and simulations are computed against.

All types are valid and immutable once built: a constructor checks its
input, so no table or population with a bad index or mass exists, and
arrays are marked read-only. They are safe to share across threads. A
table or population adopts an array instead of copying it when its
constructor had to convert the input, or when the input is already
read-only and owns its data (a fresh array handed over through
:func:`sealed`); anything else is copied. Caveat: a writable view made of
an array before it was sealed can still write to it, and so can its owner
by marking it writable again. A column is cast only from a numeric array
(see :func:`_readonly`); a list that mixes ``True`` with numbers casts to
one, so ``from_cells`` and ``from_records`` check each value themselves.
A JSON reader checks only shape (:func:`json_field`, :func:`json_list`):
every value is typed by the builder that keeps it.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
import json
import math
import numbers
import sys

import numpy as np

from .errors import (
    DataError,
    MassNotNormalized,
    NegativeMass,
    NonFiniteMass,
    OutcomeOutOfDomain,
    RegimeMismatch,
)

#: absolute tolerance for probability-mass normalization checks
NORMALIZATION_TOL = 1e-12
#: absolute tolerance for derived equalities between exact table quantities
EQUALITY_TOL = 1e-9
#: cap on the number of covariate cells |X|*|W|
MAX_CELLS = 10**6

OUTCOME_REGIME = "outcome"
COVARIATE_REGIME = "covariate"
COMPLETE_REGIME = "complete"


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class OutcomeDomain:
    """Closed outcome domain ``[lo, hi]``; optionally binary {0, 1}."""

    lo: float
    hi: float
    binary: bool = False

    def __post_init__(self):
        lo, hi = (as_real(v, "outcome domain endpoint") for v in (self.lo, self.hi))
        if not isinstance(self.binary, bool):
            raise DataError("outcome domain flag 'binary' must be true or false, "
                            f"got {self.binary!r}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DataError("outcome domain endpoints must be finite")
        if not lo < hi:
            raise DataError(f"outcome domain requires lo < hi, got [{lo}, {hi}]")
        if self.binary and (lo, hi) != (0.0, 1.0):
            raise DataError("binary outcome domain must be [0, 1]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def binary_01(cls):
        return cls(0.0, 1.0, binary=True)

    def admits(self, values):
        """Boolean mask: which values are admissible for this domain (NaN
        never is)."""
        v = np.asarray(values, dtype=np.float64)
        if self.binary:
            return (v == 0.0) | (v == 1.0)
        return (v >= self.lo) & (v <= self.hi)

    def contains(self, values):
        """True when every value is admissible for this domain."""
        return bool(np.all(self.admits(values)))


@dataclass(frozen=True)
class CategoricalDomain:
    """One covariate role: a name and an ordered tuple of level labels (see
    :func:`is_label`), each kept as its text."""

    name: str
    levels: tuple

    def __post_init__(self):
        for lv in self.levels:
            if not is_label(lv):
                raise DataError(f"domain {self.name!r} has the level {lv!r}, "
                                "which is not a level label")
        levels = tuple(str(lv) for lv in self.levels)
        if not levels:
            raise DataError(f"domain {self.name!r} has no levels")
        if len(set(levels)) != len(levels):
            raise DataError(f"domain {self.name!r} has duplicate levels")
        object.__setattr__(self, "levels", levels)

    @cached_property
    def _codes(self):
        return {lv: i for i, lv in enumerate(self.levels)}

    @property
    def size(self):
        return len(self.levels)

    def code(self, level):
        if not is_label(level):
            raise DataError(f"{level!r} names no level of domain {self.name!r}: "
                            "it is not a level label")
        try:
            return self._codes[str(level)]
        except KeyError:
            raise DataError(
                f"unknown level {level!r} for domain {self.name!r}"
            ) from None

    def codes(self, values):
        """``int64`` codes of a sequence of level labels, one dict lookup
        each; an unknown label gets -1."""
        return np.fromiter(map(self._codes.get, values, repeat(-1)),
                           dtype=np.int64, count=len(values))

    def level(self, code):
        return self.levels[code]


def total_size(domains):
    n = 1
    for d in domains:
        n *= d.size
    return n


def unflatten_index(domains, idx):
    codes = [0] * len(domains)
    for pos in range(len(domains) - 1, -1, -1):
        size = domains[pos].size
        codes[pos] = idx % size
        idx //= size
    return tuple(codes)


def encode_value(domains, value):
    """Normalize a covariate value to a tuple of codes.

    Accepts a list or tuple with one level label per role, a mapping
    ``{role name: level}`` naming every role and no other, a bare label for
    single-role domains, or ``None``/``()`` when there are no roles. A label
    is read as its text, so ``1`` names the level ``"1"``.
    """
    if not domains:
        if value in (None, (), []):
            return ()
        raise DataError("covariate value given but no domains are declared")
    if value is None:
        raise DataError("missing covariate value")
    if isinstance(value, dict):
        names = [d.name for d in domains]
        for role in value:
            if role not in names:
                raise DataError(f"covariate value names no role {role!r}")
        try:
            value = [value[name] for name in names]
        except KeyError as e:
            raise DataError(f"missing covariate role {e.args[0]!r}") from None
    elif isinstance(value, (str, int, float)) and len(domains) == 1:
        value = [value]
    if not isinstance(value, (list, tuple)) or len(value) != len(domains):
        raise DataError(f"expected {len(domains)} covariate roles, got {value!r}")
    return tuple(d.code(item) for d, item in zip(domains, value))


def flat_value(domains, value):
    """Mixed-radix flat index of a covariate value (see :func:`encode_value`)."""
    idx = 0
    for d, c in zip(domains, encode_value(domains, value)):
        idx = idx * d.size + c
    return idx


def value_labels(domains, flat):
    return tuple(d.level(c) for d, c in zip(domains, unflatten_index(domains, flat)))


# ---------------------------------------------------------------------------
# intervals and selectors


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = (as_real(v, "interval endpoint") for v in (self.lo, self.hi))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DataError("interval endpoints must be finite")
        if lo > hi:
            raise DataError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, value, tol=0.0):
        return bool(self.lo - tol <= value <= self.hi + tol)

    def intersect(self, other):
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise DataError(f"intervals [{self.lo},{self.hi}] and "
                            f"[{other.lo},{other.hi}] are disjoint")
        return Interval(lo, hi)


@dataclass(frozen=True)
class CellSelector:
    """Selects the cell ``x = xi`` (and optionally ``w = omega``)."""

    xi: object
    omega: object = None

    def __post_init__(self):
        xi = self.xi
        if isinstance(xi, list):
            object.__setattr__(self, "xi", tuple(xi))
        om = self.omega
        if isinstance(om, list):
            object.__setattr__(self, "omega", tuple(om))

    def resolve(self, x_domains, w_domains):
        """Flat indices ``(xi, omega)`` against the given domains."""
        xi_flat = flat_value(x_domains, self.xi)
        omega_flat = None
        if self.omega is not None:
            omega_flat = flat_value(w_domains, self.omega)
        return xi_flat, omega_flat


# ---------------------------------------------------------------------------
# observation tables


def sealed(arr):
    """``arr``, marked read-only in place: a fresh array handed to a table
    this way is adopted, not copied (see :func:`_readonly`)."""
    arr.setflags(write=False)
    return arr


def _readonly(value, dtype, what="a column"):
    """``value`` as a read-only array of ``dtype``, which no writable array
    outside shares. An array made by converting ``value`` is sealed in
    place, and so is ``value`` itself when it is already a read-only array
    of ``dtype`` that owns its data; anything else is copied. Only numbers
    convert, and into integers only when each survives the cast: anything
    else raises :class:`DataError` naming ``what``."""
    arr = np.asarray(value)
    if arr.dtype != dtype:
        if arr.dtype.kind not in "iuf":
            raise DataError(f"{what} must be numbers, not {arr.dtype}")
        with np.errstate(invalid="ignore"):
            cast = arr.astype(dtype)
        if not (np.can_cast(arr.dtype, dtype) or np.array_equal(cast, arr)):
            raise DataError(f"{what} must be whole numbers that fit {np.dtype(dtype)}")
        arr = cast
    elif not (arr.flags.owndata and (arr is not value or not arr.flags.writeable)):
        arr = arr.copy()
    return sealed(arr)


@dataclass(frozen=True)
class ObservationTable:
    """Sampled records: y possibly missing, x always observed, w possibly
    missing. Exactly one missingness regime may be active."""

    outcome: OutcomeDomain
    x_domains: tuple
    w_domains: tuple
    y: np.ndarray
    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_domains", tuple(self.x_domains))
        object.__setattr__(self, "w_domains", tuple(self.w_domains))
        if total_size(self.x_domains) * total_size(self.w_domains) > MAX_CELLS:
            raise DataError(f"covariate cell count exceeds cap {MAX_CELLS}")
        y = _readonly(self.y, np.float64, "outcomes y")
        x = _readonly(self.x, np.int64, "x codes")
        w = _readonly(self.w, np.int64, "w codes")
        if not (len(y) == len(x) == len(w)):
            raise DataError("column lengths differ")
        # ranges from reductions, so no check makes a mask of the records
        if x.size and (x.min() < 0 or x.max() >= total_size(self.x_domains)):
            raise DataError("x code out of range")
        w_min = w.min() if w.size else 0
        if w.size and (w_min < -1 or w.max() >= total_size(self.w_domains)):
            raise DataError("w code out of range")
        absent = np.isnan(y)
        y_missing = bool(absent.any())
        vals = y[~absent] if y_missing else y
        if np.any(np.isinf(vals)):
            raise OutcomeOutOfDomain("outcome values must be finite")
        if not self.outcome.contains(vals):
            raise OutcomeOutOfDomain(
                f"outcome values outside domain [{self.outcome.lo}, {self.outcome.hi}]"
            )
        if y_missing and w_min < 0:
            raise RegimeMismatch(
                "table mixes missing outcomes and missing covariates; "
                "exactly one missingness regime may be active"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)

    @classmethod
    def from_records(cls, records, outcome, x_domains, w_domains=()):
        """Build from an iterable of ``(y, x_value, w_value)`` tuples,
        with ``None`` marking a missing entry."""
        x_domains = tuple(x_domains)
        w_domains = tuple(w_domains)
        ys, xs, ws = [], [], []
        for rec in records:
            y_val, x_val, w_val = (tuple(rec) + (None,))[:3]
            ys.append(np.nan if y_val is None else as_real(y_val, "outcome"))
            xs.append(flat_value(x_domains, x_val))
            if w_val is None and w_domains:
                ws.append(-1)
            else:
                ws.append(flat_value(w_domains, w_val))
        return cls(outcome, x_domains, w_domains,
                   np.array(ys), np.array(xs), np.array(ws))

    @property
    def n(self):
        return len(self.y)

    @cached_property
    def z_y(self):
        return sealed(~np.isnan(self.y))

    @cached_property
    def z_w(self):
        return sealed(self.w >= 0)

    @property
    def regime(self):
        if not self.z_y.all():
            return OUTCOME_REGIME
        if not self.z_w.all():
            return COVARIATE_REGIME
        return COMPLETE_REGIME


def require_regime(source, what, regime):
    """Raise :class:`RegimeMismatch` unless ``source``, a table or a
    population, fits ``what`` in ``regime``: z governs the variable that
    ``regime`` names, or ``source`` is a table with no missing value."""
    if source.regime not in (regime, COMPLETE_REGIME):
        kind = "table" if isinstance(source, ObservationTable) else "population"
        raise RegimeMismatch(f"{what} needs a {kind} in the {regime} regime, "
                             f"not the {source.regime} regime")


def require_population(source, what):
    """Raise :class:`DataError` unless ``source`` is a population: ``what``
    reads the exact mass table that only a population has."""
    if not isinstance(source, FinitePopulation):
        kind = ("an observation table" if isinstance(source, ObservationTable)
                else f"a {type(source).__name__}")
        raise DataError(f"{what} needs a population, not {kind}")


def yx_codes(table):
    """The (y, x) stratum codes ``y_index * |X| + x`` of every record of
    ``table``, the function ``key`` mapping a code to its stratum key
    ``(float y, int x)``, the outcome levels that ``y_index`` indexes, and
    the number of codes, so every code is below it.

    ``table`` has no missing outcome: a covariate model or the mixture
    estimate meets an outcome-regime table only after it has raised
    :class:`RegimeMismatch`. On a binary outcome domain ``y`` is its own
    index over the levels ``[0.0, 1.0]``, whether or not both occur; any
    other outcome is indexed over its distinct values by ``np.unique``.
    Either way the codes rise with ``(y, x)``, so the codes that occur sort
    in the same order as their keys."""
    if table.outcome.binary:
        y_levels, codes = np.array([0.0, 1.0]), table.y.astype(np.int64)
    else:
        y_levels, codes = np.unique(table.y, return_inverse=True)
    n_x = total_size(table.x_domains)
    codes *= n_x
    codes += table.x

    def key(code):
        y_at, x = divmod(int(code), n_x)
        return (float(y_levels[y_at]), x)

    return codes, key, y_levels, len(y_levels) * n_x


def count_codes(codes, space, inverse=True):
    """``np.unique(codes, return_inverse=True, return_counts=True)`` of
    ``int64`` codes in ``[0, space)``: the codes that occur, each code's
    place among them (None unless ``inverse``), and how often each occurs,
    with the same values and dtypes. When ``space <= max(4 * len(codes),
    2**16)`` they come from one ``np.bincount`` over the whole space and a
    running count of the codes that occur, with no sort. A larger space (a
    real-valued outcome makes up to ``n * |X|`` (y, x) codes) is sorted by
    ``np.unique``, so no count is much longer than the codes it counts."""
    if space > max(4 * len(codes), 2**16):
        if inverse:
            return np.unique(codes, return_inverse=True, return_counts=True)
        occur, counts = np.unique(codes, return_counts=True)
        return occur, None, counts
    counts = np.bincount(codes, minlength=space)
    occur = np.flatnonzero(counts)
    place = None
    if inverse:
        place = np.cumsum(counts > 0)
        place -= 1
        place = place.take(codes)
    return occur, place, counts.take(occur)


def stratum_name(x_domains, key):
    """How an error names a stratum key: a flat ``x`` code or ``(y, x)``."""
    if isinstance(key, tuple):
        y_val, xf = key
        return f"(y={y_val}, x={value_labels(x_domains, xf)!r})"
    return f"x={value_labels(x_domains, key)!r}"


# ---------------------------------------------------------------------------
# finite populations


@dataclass(frozen=True)
class FinitePopulation:
    """Exact joint probability table over ``(y, x, w, z)``.

    ``regime`` declares which variable the indicator z governs when the
    population is sampled: ``"outcome"`` blanks y where z=0, ``"covariate"``
    blanks w.

    The constructor checks the structure (regime, support, indices, z) and
    then the masses, raising on the first violation: non-finite mass, then
    negative mass, then normalization, then an outcome support outside the
    domain.
    """

    outcome: OutcomeDomain
    outcome_values: np.ndarray
    x_domains: tuple
    w_domains: tuple
    y_i: np.ndarray
    x_i: np.ndarray
    w_i: np.ndarray
    z: np.ndarray
    mass: np.ndarray
    regime: str = OUTCOME_REGIME

    def __post_init__(self):
        object.__setattr__(self, "x_domains", tuple(self.x_domains))
        object.__setattr__(self, "w_domains", tuple(self.w_domains))
        if self.regime not in (OUTCOME_REGIME, COVARIATE_REGIME):
            raise DataError(f"unknown regime {self.regime!r}")
        if self.regime == COVARIATE_REGIME and not self.w_domains:
            raise DataError("covariate regime requires w domains")
        if total_size(self.x_domains) * total_size(self.w_domains) > MAX_CELLS:
            raise DataError(f"covariate cell count exceeds cap {MAX_CELLS}")
        vals = _readonly(self.outcome_values, np.float64, "outcome support")
        if len(vals) == 0 or np.any(~np.isfinite(vals)):
            raise DataError("outcome support must be non-empty and finite")
        if np.any(np.diff(vals) <= 0):
            raise DataError("outcome support must be sorted and unique")
        y_i = _readonly(self.y_i, np.int64, "outcome indices y_i")
        x_i = _readonly(self.x_i, np.int64, "x indices x_i")
        w_i = _readonly(self.w_i, np.int64, "w indices w_i")
        z = _readonly(self.z, np.int8, "z")
        mass = _readonly(self.mass, np.float64, "cell masses")
        if not (len(y_i) == len(x_i) == len(w_i) == len(z) == len(mass)):
            raise DataError("cell arrays differ in length")
        if np.any((y_i < 0) | (y_i >= len(vals))):
            raise DataError("outcome index out of range")
        if np.any((x_i < 0) | (x_i >= total_size(self.x_domains))):
            raise DataError("x index out of range")
        if np.any((w_i < 0) | (w_i >= total_size(self.w_domains))):
            raise DataError("w index out of range")
        if np.any((z != 0) & (z != 1)):
            raise DataError("z must be 0 or 1")
        require_finite(mass, NonFiniteMass, "cell mass")
        if np.any(mass < 0):
            raise NegativeMass(f"cell mass {float(mass[mass < 0][0])} is negative")
        total = float(mass.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise MassNotNormalized(f"cell masses sum to {total!r}, not 1")
        if not self.outcome.contains(vals):
            raise OutcomeOutOfDomain(
                f"outcome support exceeds domain [{self.outcome.lo}, {self.outcome.hi}]"
            )
        object.__setattr__(self, "outcome_values", vals)
        object.__setattr__(self, "y_i", y_i)
        object.__setattr__(self, "x_i", x_i)
        object.__setattr__(self, "w_i", w_i)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def from_cells(cls, cells, *, outcome, x_domains, w_domains=(),
                   regime=OUTCOME_REGIME):
        """Build from a mapping ``(y, x_value, w_value, z) -> mass`` or a
        sequence of ``(key, mass)`` pairs.

        Keys that name the same cell are summed; cells are stored in
        canonical order so serialization is deterministic.
        """
        x_domains = tuple(x_domains)
        w_domains = tuple(w_domains)
        staged = {}
        support = set()
        for (y_val, x_val, w_val, z), m in (cells.items() if isinstance(cells, dict)
                                            else cells):
            y_val = as_real(y_val, "cell outcome", finite=True)
            support.add(y_val)
            if w_domains and w_val is None:
                raise DataError("population cells must carry a w value")
            z = _whole(z, "a cell's 'z'", None)
            if z not in (0, 1):
                raise DataError("z must be 0 or 1")
            key = (y_val, flat_value(x_domains, x_val),
                   flat_value(w_domains, w_val), z)
            staged[key] = staged.get(key, 0.0) + as_real(m, "cell mass")
        values = np.array(sorted(support), dtype=np.float64)
        index = {v: i for i, v in enumerate(values)}
        order = sorted(staged)
        return cls(
            outcome=outcome,
            outcome_values=values,
            x_domains=x_domains,
            w_domains=w_domains,
            y_i=np.array([index[k[0]] for k in order], dtype=np.int64),
            x_i=np.array([k[1] for k in order], dtype=np.int64),
            w_i=np.array([k[2] for k in order], dtype=np.int64),
            z=np.array([k[3] for k in order], dtype=np.int8),
            mass=np.array([staged[k] for k in order], dtype=np.float64),
            regime=regime,
        )

    @property
    def n_cells(self):
        return len(self.mass)

    @property
    def binary_support(self):
        return bool(np.all((self.outcome_values == 0.0) | (self.outcome_values == 1.0)))

    def _mask(self, xi=None, omega=None, z=None, y_index=None, y_value=None):
        mask = np.ones(self.n_cells, dtype=bool)
        if xi is not None:
            mask &= self.x_i == xi
        if omega is not None:
            mask &= self.w_i == omega
        if z is not None:
            mask &= self.z == z
        if y_index is not None:
            mask &= self.y_i == y_index
        if y_value is not None:
            mask &= self.outcome_values[self.y_i] == y_value
        return mask

    def mass_where(self, **kw):
        """Total mass over cells matching the given coordinates."""
        return float(self.mass[self._mask(**kw)].sum())

    def ymass_where(self, **kw):
        """Outcome-weighted mass over cells matching the given coordinates."""
        mask = self._mask(**kw)
        return float((self.outcome_values[self.y_i[mask]] * self.mass[mask]).sum())


def require_finite(values, error, what):
    """Raise ``error`` naming ``what`` and the first offending value unless
    every value is finite. NaN passes every ordered comparison check, so
    range and normalization checks run after this one."""
    values = np.asarray(values, dtype=np.float64)
    bad = ~np.isfinite(values)
    if bad.any():
        raise error(f"{what} {float(values[bad][0])} is not finite")


# ---------------------------------------------------------------------------
# population (de)serialization


def population_to_json(pop):
    """JSON-ready dict with fields ``x_domains``, ``w_domains``, ``cells``,
    plus the outcome domain and sampling regime; the cells' ``y`` values are
    the outcome support."""
    require_population(pop, "population_to_json")
    cells = []
    for k in range(pop.n_cells):
        cells.append({
            "y": float(pop.outcome_values[pop.y_i[k]]),
            "x": list(value_labels(pop.x_domains, int(pop.x_i[k]))),
            "w": list(value_labels(pop.w_domains, int(pop.w_i[k]))) or None,
            "z": int(pop.z[k]),
            "mass": float(pop.mass[k]),
        })
    return {
        "outcome_domain": {"lo": pop.outcome.lo, "hi": pop.outcome.hi,
                           "binary": pop.outcome.binary},
        "x_domains": {d.name: list(d.levels) for d in pop.x_domains},
        "w_domains": {d.name: list(d.levels) for d in pop.w_domains},
        "regime": pop.regime,
        "cells": cells,
    }


def read_json(path):
    """The parsed contents of the UTF-8 JSON file at ``path``, which may
    start with a byte-order mark; a path that cannot name a file (an
    embedded NUL) or a file that is not UTF-8 JSON raises
    :class:`DataError` naming it."""
    try:
        fh = open(path, encoding="utf-8-sig")
    except ValueError as e:
        raise DataError(f"cannot open {path!r}: {e}") from None
    with fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise DataError(f"{path} is not valid JSON: {e}") from None


def load_json(path, build, *args):
    """``build(read_json(path), *args)``, with ``path`` put in front of any
    :class:`DataError` the build raises: the error keeps its class and any
    ``line``. :func:`read_json`'s own errors name the path already."""
    obj = read_json(path)
    try:
        return build(obj, *args)
    except DataError as e:
        e.args = (f"{path}: {e}",)
        raise


#: the default of a :func:`json_field` whose key must be present
_REQUIRED = object()


def json_object(value, what):
    """``value``, which must be a parsed JSON object: anything else raises
    :class:`DataError` naming ``what``."""
    if not isinstance(value, dict):
        raise DataError(f"{what} must be an object, got {value!r}")
    return value


def json_field(obj, key, what, default=_REQUIRED):
    """``obj[key]``, unread, ``obj`` being the parsed JSON object ``what``,
    or ``default`` when ``key`` is absent: an ``obj`` that is not an object,
    or a missing key without a default, raises :class:`DataError`."""
    if key in json_object(obj, what):
        return obj[key]
    if default is _REQUIRED:
        raise DataError(f"{what} has no key {key!r}")
    return default


def json_list(value, what):
    """``value`` as a tuple: a parsed JSON value that is not a list raises
    :class:`DataError` naming ``what``, so a string is never split into its
    characters."""
    if not isinstance(value, list):
        raise DataError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def _whole(value, what, least):
    """``value`` as an ``int``: an integer or an integral float, never a
    boolean, and at least ``least`` unless that is None."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())):
        raise DataError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DataError(f"{what} must be >= {least}, got {value!r}")
    return int(value)


def is_real(value):
    """True when ``value`` is a real number: text such as ``"0"`` and the
    booleans are not, so no reader coerces them."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_label(value):
    """True when ``value`` can name a covariate level: text, or a real
    number read as its text. A boolean or null names none."""
    return isinstance(value, str) or is_real(value)


def as_real(value, what, finite=False):
    """``value`` as a ``float``; a value that is not a real number (a
    string, a boolean), an integer too large for a float, or when ``finite``
    a NaN or infinity raises :class:`DataError` naming ``what``."""
    if not is_real(value):
        raise DataError(f"{what} {value!r} is not a number")
    if isinstance(value, numbers.Rational) and abs(value) > sys.float_info.max:
        raise DataError(f"{what} {value!r} is too large for a float")
    if finite and not math.isfinite(value):
        raise DataError(f"{what} {value} is not finite")
    return float(value)


def _json_domains(obj, key, what):
    """The covariate domains that the population JSON ``obj`` declares under ``key``."""
    levels = json_object(json_field(obj, key, what, {}), f"{what}: {key}")
    return tuple(CategoricalDomain(name, json_list(lv, f"{what}: the levels of {name!r}"))
                 for name, lv in levels.items())


def population_from_json(obj):
    what = "population JSON"
    dom = json_field(obj, "outcome_domain", what, {})
    at = f"{what}: outcome_domain"
    outcome = OutcomeDomain(json_field(dom, "lo", at, 0.0),
                            json_field(dom, "hi", at, 1.0),
                            json_field(dom, "binary", at, False))
    x_domains = _json_domains(obj, "x_domains", what)
    w_domains = _json_domains(obj, "w_domains", what)
    cells = []
    for i, cell in enumerate(json_list(json_field(obj, "cells", what), f"{what}: cells")):
        at = f"{what}: cells[{i}]"
        w_val = json_field(cell, "w", at, None)
        cells.append(((json_field(cell, "y", at),
                       json_list(json_field(cell, "x", at), f"{at}.x"),
                       None if w_val is None else json_list(w_val, f"{at}.w"),
                       json_field(cell, "z", at)), json_field(cell, "mass", at)))
    return FinitePopulation.from_cells(
        cells, outcome=outcome, x_domains=x_domains, w_domains=w_domains,
        regime=json_field(obj, "regime", what, OUTCOME_REGIME))


def save_population(pop, path):
    require_population(pop, "save_population")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(population_to_json(pop), fh, indent=2)
        fh.write("\n")


def load_population(path):
    return load_json(path, population_from_json)
