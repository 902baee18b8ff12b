"""Imputation-model specifications.

An :class:`ImputationModel` names the distribution that imputed values are
drawn from. Fitted variants (``mar_outcome``, ``mar_covariate``,
``ecological``) are estimated from observed data at fit time; explicit
variants carry an assumed conditional distribution. Covariate values in
stratum keys and atoms are tuples of level labels, a number being read as
its text; :func:`coded_strata` is the one place that resolves them to the
integer cell codes of a table or population.
"""

import os
from dataclasses import dataclass

import numpy as np

from .domain import (
    NORMALIZATION_TOL,
    as_real,
    flat_value,
    is_label,
    json_field,
    json_list,
    load_json,
    require_finite,
    require_population,
    total_size,
    value_labels,
)
from .errors import DataError, ImputedValueOutOfDomain, ProbabilityOutOfRange

MAR_OUTCOME = "mar_outcome"
MAR_COVARIATE = "mar_covariate"
EXPLICIT_OUTCOME_Q = "explicit_outcome_q"
EXPLICIT_COVARIATE_Q = "explicit_covariate_q"
ECOLOGICAL = "ecological"

_OUTCOME_KINDS = (MAR_OUTCOME, EXPLICIT_OUTCOME_Q)
_COVARIATE_KINDS = (MAR_COVARIATE, EXPLICIT_COVARIATE_Q, ECOLOGICAL)


def _as_value_key(value):
    """A covariate value as a tuple of level labels: a bare label or a
    list or tuple of them. A label is text or a number, read as its text
    (``1`` names ``"1"``); a boolean or null is none."""
    labels = value if isinstance(value, (list, tuple)) else (value,)
    for label in labels:
        if not is_label(label):
            raise DataError(f"covariate value {value!r} holds {label!r}, "
                            "which is not a level label")
    return tuple(map(str, labels))


def _strata(pairs, canon_key, normalize):
    """``{canon_key(key): normalize(key, dist)}`` over a mapping or a
    sequence of ``(key, dist)`` pairs; a stratum named twice raises
    :class:`DataError`."""
    canon = {}
    for key, dist in (pairs.items() if isinstance(pairs, dict) else pairs):
        key = canon_key(key)
        if key in canon:
            raise DataError(f"model names the stratum {key} twice")
        canon[key] = normalize(key, dist.items() if isinstance(dist, dict) else dist)
    return canon


def _normalize_dist(pairs, what):
    """Canonicalize a finite distribution, a list of (atom, p) pairs, to a
    sorted tuple of (atom, p); a probability that is not a real number
    raises :class:`DataError`."""
    dist = []
    for atom, p in pairs:
        p = as_real(p, f"{what}: probability")
        require_finite(p, ProbabilityOutOfRange, f"{what}: probability")
        if p < 0:
            raise ProbabilityOutOfRange(f"{what}: negative probability {p}")
        dist.append((atom, p))
    total = sum(p for _, p in dist)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ProbabilityOutOfRange(f"{what}: probabilities sum to {total!r}, not 1")
    return tuple(sorted(dist, key=lambda item: item[0]))


@dataclass(frozen=True)
class QCovariateModel:
    """Assumed conditional distribution of a missing covariate given the
    outcome and the observed covariates: one distribution over W per
    ``(y, x)`` stratum."""

    strata: dict

    def __post_init__(self):
        object.__setattr__(self, "strata", _strata(
            self.strata, lambda key: (as_real(key[0], "a stratum's y", finite=True),
                                      _as_value_key(key[1])),
            lambda key, dist: _normalize_dist(
                [(_as_value_key(w), p) for w, p in dist],
                f"Q(w|y={key[0]}, x={key[1]})")))

    def distribution(self, y_val, x_val):
        return self.strata.get((float(y_val), _as_value_key(x_val)))

    def to_json(self):
        return {
            "kind": "covariate_q",
            "strata": [
                {"y": y, "x": list(x),
                 "dist": [{"w": list(w), "p": p} for w, p in dist]}
                for (y, x), dist in sorted(self.strata.items())
            ],
        }


def _normalize_outcome_q(q):
    def normalize(key, dist):
        what = f"Q(y|x={key})"
        return _normalize_dist([(as_real(y, f"{what}: outcome atom", finite=True), p)
                                for y, p in dist], what)

    return _strata(q, _as_value_key, normalize)


@dataclass(frozen=True)
class ImputationModel:
    """Tagged imputation-distribution specification.

    ``kind`` is one of ``mar_outcome``, ``mar_covariate``,
    ``explicit_outcome_q``, ``explicit_covariate_q``, ``ecological``.
    Explicit kinds carry their assumed distribution; the others are fitted
    from data.
    """

    kind: str
    outcome_q: dict = None
    covariate_q: QCovariateModel = None

    def __post_init__(self):
        if self.kind not in _OUTCOME_KINDS + _COVARIATE_KINDS:
            raise DataError(f"unknown imputation model kind {self.kind!r}")
        if self.kind == EXPLICIT_OUTCOME_Q:
            if not self.outcome_q:
                raise DataError("explicit outcome model needs a distribution")
            object.__setattr__(self, "outcome_q",
                               _normalize_outcome_q(self.outcome_q))
        elif self.kind == EXPLICIT_COVARIATE_Q:
            if self.covariate_q is None:
                raise DataError("explicit covariate model needs a distribution")
            if not isinstance(self.covariate_q, QCovariateModel):
                object.__setattr__(self, "covariate_q",
                                   QCovariateModel(self.covariate_q))

    @classmethod
    def mar_outcome(cls):
        return cls(MAR_OUTCOME)

    @classmethod
    def mar_covariate(cls):
        return cls(MAR_COVARIATE)

    @classmethod
    def ecological(cls):
        return cls(ECOLOGICAL)

    @classmethod
    def explicit_outcome(cls, q):
        """``q`` maps each x value to a finite distribution ``{y: p}``."""
        return cls(EXPLICIT_OUTCOME_Q, outcome_q=q)

    @classmethod
    def explicit_covariate(cls, q):
        """``q`` is a :class:`QCovariateModel` or its strata mapping."""
        return cls(EXPLICIT_COVARIATE_Q, covariate_q=q)

    @property
    def target(self):
        """Which variable this model imputes: ``"outcome"`` or ``"covariate"``."""
        return "outcome" if self.kind in _OUTCOME_KINDS else "covariate"


def true_outcome_model(pop):
    """Explicit outcome model equal to the population's actual conditional
    distribution of missing outcomes, P(y | x, z=0)."""
    require_population(pop, "true_outcome_model")
    q = {}
    for xf in range(total_size(pop.x_domains)):
        denom = pop.mass_where(xi=xf, z=0)
        if denom <= 0.0:
            continue
        dist = {}
        for k, y_val in enumerate(pop.outcome_values):
            m = pop.mass_where(xi=xf, z=0, y_index=k)
            if m > 0.0:
                dist[float(y_val)] = m / denom
        q[value_labels(pop.x_domains, xf)] = dist
    if not q:
        raise DataError("population has no missing-outcome mass to mirror")
    return ImputationModel.explicit_outcome(q)


def true_covariate_model(pop):
    """Explicit covariate model equal to the population's actual conditional
    distribution of missing covariates, P(w | y, x, z=0)."""
    require_population(pop, "true_covariate_model")
    strata = {}
    for k, y_val in enumerate(pop.outcome_values):
        for xf in range(total_size(pop.x_domains)):
            denom = pop.mass_where(xi=xf, z=0, y_index=k)
            if denom <= 0.0:
                continue
            dist = {}
            for wf in range(total_size(pop.w_domains)):
                m = pop.mass_where(xi=xf, omega=wf, z=0, y_index=k)
                if m > 0.0:
                    dist[value_labels(pop.w_domains, wf)] = m / denom
            strata[(float(y_val), value_labels(pop.x_domains, xf))] = dist
    if not strata:
        raise DataError("population has no missing-covariate mass to mirror")
    return ImputationModel.explicit_covariate(strata)


def coded_strata(model, source):
    """An explicit model's strata resolved against the domains of
    ``source``, a table or a population: ``{cell: (atoms, probabilities)}``
    in the model's order. A cell is the flat ``x`` code for an outcome model
    and ``(y, x)`` for a covariate model; atoms are outcome values or flat
    ``w`` codes. Raises :class:`DataError` on a label that names no level
    and :class:`ImputedValueOutOfDomain` when any stratum's support leaves
    the outcome domain."""
    strata = {}
    if model.kind == EXPLICIT_OUTCOME_Q:
        for x_key, dist in model.outcome_q.items():
            values = np.array([v for v, _ in dist])
            if not source.outcome.contains(values):
                raise ImputedValueOutOfDomain("model support exceeds the outcome domain")
            strata[flat_value(source.x_domains, x_key)] = (
                values, np.array([p for _, p in dist]))
        return strata
    for (y_val, x_key), dist in model.covariate_q.strata.items():
        strata[(y_val, flat_value(source.x_domains, x_key))] = (
            np.array([flat_value(source.w_domains, w) for w, _ in dist], dtype=np.int64),
            np.array([p for _, p in dist]))
    return strata


def model_to_json(model):
    if model.kind == EXPLICIT_OUTCOME_Q:
        return {
            "kind": "outcome_q",
            "strata": [
                {"x": list(x), "dist": [{"y": y, "p": p} for y, p in dist]}
                for x, dist in sorted(model.outcome_q.items())
            ],
        }
    if model.kind == EXPLICIT_COVARIATE_Q:
        return model.covariate_q.to_json()
    return {"kind": model.kind}


def _json_strata(obj, key_fields, atom):
    """The ``strata`` of the model JSON ``obj``, shape checked, as ``(key, [(atom, p),
    ...])`` pairs: ``key`` is the value of each of ``key_fields``, or of the one."""
    pairs = []
    for i, s in enumerate(json_list(json_field(obj, "strata", "model JSON"),
                                    "model JSON: strata")):
        at = f"model JSON: strata[{i}]"
        key = tuple(json_field(s, field, at) for field in key_fields)
        dist = json_list(json_field(s, "dist", at), f"{at}.dist")
        dist = [(json_field(a, atom, f"{at}.dist[{j}]"),
                 json_field(a, "p", f"{at}.dist[{j}]")) for j, a in enumerate(dist)]
        pairs.append((key if len(key) > 1 else key[0], dist))
    return pairs


def model_from_json(obj):
    kind = json_field(obj, "kind", "model JSON")
    try:
        if kind == "outcome_q":
            return ImputationModel.explicit_outcome(_json_strata(obj, ("x",), "y"))
        if kind == "covariate_q":
            return ImputationModel.explicit_covariate(_json_strata(obj, ("y", "x"), "w"))
    except ProbabilityOutOfRange as e:
        raise DataError(f"model JSON: {e}") from None
    if kind in (MAR_OUTCOME, MAR_COVARIATE, ECOLOGICAL):
        return ImputationModel(kind)
    raise DataError(f"unknown model kind {kind!r}")


#: model names a reference may use besides ``q:FILE``: the short names and
#: the kinds that need no distribution
_NAMED_KINDS = {"mar": MAR_OUTCOME, "marcov": MAR_COVARIATE, ECOLOGICAL: ECOLOGICAL,
                MAR_OUTCOME: MAR_OUTCOME, MAR_COVARIATE: MAR_COVARIATE}


def model_from_ref(ref, base_dir=""):
    """The model a CLI ``--model`` flag or an experiment spec's ``model``
    field names.

    A dict is a model JSON object; ``q:FILE`` reads one from FILE, resolved
    against ``base_dir``; ``mar``, ``marcov``, ``ecological``,
    ``mar_outcome`` and ``mar_covariate`` name a fitted model. Anything else
    raises :class:`DataError`.
    """
    if isinstance(ref, dict):
        return model_from_json(ref)
    if isinstance(ref, str):
        if ref.startswith("q:"):
            return load_json(os.path.join(base_dir, ref[2:]), model_from_json)
        if ref in _NAMED_KINDS:
            return model_from_json({"kind": _NAMED_KINDS[ref]})
    raise DataError(f"unknown model {ref!r}; expected mar|marcov|q:FILE|ecological")
