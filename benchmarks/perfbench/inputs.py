"""Seeded inputs for the benchmark workloads.

Every input is a function of the workload seed alone: populations come from
``random_population``, tables from ``sample_table``, and the files the CLI
reads (CSV, data config, q-model, population, experiment spec) are written
from those. The program under test only ever sees these generated inputs.
"""

import csv
import dataclasses
import itertools
import json

import numpy as np

from imputebounds import random_population, sample_table
from imputebounds._rng import derive_seed
from imputebounds.domain import total_size, value_labels

# index paths under the workload seed, one per purpose
POPULATION, SAMPLE, OPERATION, REFERENCE = 0, 1, 2, 3


def op_seed(seed, k):
    """Master seed of operation ``k``: fresh for every operation."""
    return derive_seed(seed, OPERATION, k)


def balanced_population(seed, missing_share, **kwargs):
    """``random_population`` with the z = 0 cells rescaled to hold exactly
    ``missing_share`` of the mass, so that the amount of imputation work,
    and with it the operation time, does not swing with the seed."""
    pop = random_population(derive_seed(seed, POPULATION), **kwargs)
    hidden = pop.z == 0
    mass = np.array(pop.mass, copy=True)
    mass[hidden] *= missing_share / mass[hidden].sum()
    mass[~hidden] *= (1.0 - missing_share) / mass[~hidden].sum()
    return dataclasses.replace(pop, mass=mass)


def sample(pop, seed, n, n_missing=None):
    """``sample_table`` under the workload seed. Given ``n_missing``, the
    first table over successive sub-seeds with exactly that many missing
    values, so that the imputation work per operation does not swing with
    the seed."""
    for attempt in itertools.count():
        table = sample_table(pop, n, derive_seed(seed, SAMPLE, attempt))
        if n_missing is None or int((~table.z_y).sum() + (~table.z_w).sum()) == n_missing:
            return table


def largest_cell(pop):
    """Labels ``(xi, omega)`` of the (x, w) cell with the most population
    mass, as ``{role: level}`` dicts; ``omega`` is None without w roles.
    The largest cell keeps the estimators' sampling noise, and so the
    tolerances of the correctness checks, small on every seed."""
    n_w = total_size(pop.w_domains)
    mass = np.bincount(pop.x_i * n_w + pop.w_i, weights=pop.mass)
    xf, wf = divmod(int(np.argmax(mass)), n_w)
    xi = dict(zip((d.name for d in pop.x_domains), value_labels(pop.x_domains, xf)))
    if not pop.w_domains:
        return xi, None
    omega = dict(zip((d.name for d in pop.w_domains), value_labels(pop.w_domains, wf)))
    return xi, omega


def cell_flag(cell):
    """A ``{role: level}`` dict as the CLI's ``K=V[,K=V...]`` flag."""
    return ",".join(f"{k}={v}" for k, v in cell.items())


def write_csv(table, path):
    """Write a table as the CLI reads it: one column per outcome and role,
    level labels for covariates, an empty field for a missing value."""
    x_names = [d.name for d in table.x_domains]
    w_names = [d.name for d in table.w_domains]
    x_labels = [value_labels(table.x_domains, f)
                for f in range(total_size(table.x_domains))]
    w_labels = [value_labels(table.w_domains, f)
                for f in range(total_size(table.w_domains))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["y"] + x_names + w_names)
        for y, xf, wf in zip(table.y.tolist(), table.x.tolist(), table.w.tolist()):
            y_text = "" if y != y else repr(y)
            w_text = [""] * len(w_names) if wf < 0 else list(w_labels[wf])
            out.writerow([y_text, *x_labels[xf], *w_text])


def write_config(table, path):
    """Data config for :func:`write_csv` output, with declared levels."""
    levels = {d.name: list(d.levels) for d in table.x_domains + table.w_domains}
    binary = table.outcome.binary
    outcome = ({"column": "y", "binary": True} if binary else
               {"column": "y", "lo": table.outcome.lo, "hi": table.outcome.hi})
    write_json(path, {
        "outcome": outcome,
        "x": [d.name for d in table.x_domains],
        "w": [d.name for d in table.w_domains],
        "levels": levels,
    })


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
