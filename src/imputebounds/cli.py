"""Command-line surface: CSV ingestion and batch subcommands.

Subcommands::

    bounds     --data F --config C --xi K=V[,K=V...] [--omega K=V...]
    estimate   --data F --config C --model mar|marcov|q:FILE|ecological
               --xi ... [--omega ...] [--m INT] [--seed INT]
    simulate   --spec SPECFILE [--out DIR]
    audit      --data F --config C --model ... --xi ... [--omega ...]
               [--m INT] [--seed INT] [--population POP]
    ecological --py FLOAT --pw FLOAT

Every report is JSON on stdout carrying the artifact version, the fully
resolved configuration, and the master seed, so a report can be reproduced
bit-for-bit from its own header. With ``--out DIR`` the report and
plot-ready CSV series are also written to the directory.

Exit codes: 2 usage, 3 data errors, 4 infeasible/guard errors.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import itemgetter, ne

import numpy as np

from . import __version__, missing_covariate, missing_outcome, models, simlab
from .domain import (
    CategoricalDomain,
    CellSelector,
    ObservationTable,
    OutcomeDomain,
    is_label,
    json_field,
    json_list,
    json_object,
    load_json,
    load_population,
    sealed,
)
from .ecological import ShortDistributions, duncan_davis_bounds
from .errors import (
    DataError,
    GuardError,
    ImputeBoundsError,
    MalformedRow,
    OutcomeOutOfDomain,
    UnknownColumn,
)
from .rmi import EstimatorSpec, run_multiple_imputation

#: CLI exit codes per error family
EXIT_USAGE, EXIT_DATA, EXIT_GUARD = 2, 3, 4
#: candidate point estimates in a ``minimax_bias.csv`` series
MINIMAX_POINTS = 101
#: data records that :func:`ingest_csv` parses, checks and codes at a time
CHUNK_RECORDS = 4096


# ---------------------------------------------------------------------------
# configuration and ingestion


@dataclass(frozen=True)
class DataConfig:
    """How a CSV maps onto an observation table."""

    outcome_column: str
    outcome: OutcomeDomain
    x_columns: tuple
    w_columns: tuple = ()
    sentinel: str = ""
    declared_levels: dict = None

    def __post_init__(self):
        if not isinstance(self.sentinel, str):
            raise DataError(f"data config: the missing-value sentinel must be "
                            f"a string, got {self.sentinel!r}")
        object.__setattr__(self, "x_columns", tuple(self.x_columns))
        object.__setattr__(self, "w_columns", tuple(self.w_columns))
        cols = (self.outcome_column,) + self.x_columns + self.w_columns
        for name in cols:
            if not isinstance(name, str):
                raise DataError(f"data config: a column name must be text, got {name!r}")
        if len(set(cols)) != len(cols):
            raise UnknownColumn("configured column names are not distinct")
        object.__setattr__(self, "declared_levels",
                           dict(self.declared_levels or {}))
        for col, levels in self.declared_levels.items():
            if col not in self.x_columns + self.w_columns:
                raise UnknownColumn(f"levels declared for {col!r}, "
                                    "which is not an x or w column")
            for label in levels:
                if not is_label(label):
                    raise DataError(f"data config: the levels of {col!r} must be "
                                    f"text or numbers, got {label!r}")


def config_from_json(obj):
    what = "data config"
    out = json_field(obj, "outcome", what)
    at = f"{what}: outcome"
    binary = json_field(out, "binary", at, False)
    if binary is True:
        dom = OutcomeDomain.binary_01()
    else:
        dom = OutcomeDomain(json_field(out, "lo", at), json_field(out, "hi", at), binary)
    levels = json_object(json_field(obj, "levels", what, {}), f"{what}: levels")
    return DataConfig(
        outcome_column=json_field(out, "column", at),
        outcome=dom,
        x_columns=json_list(json_field(obj, "x", what, []), f"{what}: 'x'"),
        w_columns=json_list(json_field(obj, "w", what, []), f"{what}: 'w'"),
        sentinel=json_field(obj, "missing", what, ""),
        declared_levels={col: json_list(lv, f"{what}: the levels of {col!r}")
                         for col, lv in levels.items()},
    )


def load_config(path):
    return load_json(path, config_from_json)


def _column_index(header, name):
    hits = [i for i, h in enumerate(header) if h == name]
    if not hits:
        raise UnknownColumn(f"column {name!r} not in CSV header")
    if len(hits) > 1:
        raise UnknownColumn(f"column {name!r} appears {len(hits)} times in header")
    return hits[0]


def ingest_csv(path, cfg):
    """Parse a CSV (UTF-8, with or without a byte-order mark, header row,
    RFC 4180 quoting) into an observation table.

    Sentinel fields become missing values: a missing outcome blanks y, a
    sentinel in any w column blanks the whole w part, and a sentinel in an
    always-observed x column is an error. Covariate levels come from the
    config when declared, otherwise they are the sorted distinct values seen
    (for w, in the rows where w is observed).

    The file is read and decoded whole, then parsed, checked and coded
    :data:`CHUNK_RECORDS` records at a time, a column of a chunk at a time,
    so no list of all the records or of all the fields is ever held. Errors
    come out as a loop over the records would raise them. Record errors
    come first, in row order, and within a row in this order: field count,
    outcome not a number, outcome out of domain, sentinel in an x column (in
    column order). A read error (a field over the csv module's size limit,
    a byte that is not UTF-8) comes after the record errors of the records
    that end before the record that holds the fault; it names the file and
    the line of the fault. Then come errors in a covariate's levels (none
    seen, duplicates declared), then unknown declared levels, in row order
    with x columns before w columns. An error names the physical line on
    which its record starts, the header being line 1.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text, unread, cut_line = data.decode("utf-8-sig"), None, None
    except UnicodeDecodeError as e:
        # parse the text before the bad byte; the record that holds the
        # byte is then the last one, cut short by the stand-in character
        text = e.object[:e.start].decode() + "\ufffd"
        cut_line = 1 + _breaks(text)
        unread = MalformedRow(cut_line, (
            f"cannot read {path}: byte 0x{e.object[e.start]:02x} is not "
            f"UTF-8 ({e.reason})"))
    del data
    source = io.StringIO(text, newline="")
    del text
    reader = csv.reader(source)
    columns = None
    try:
        for records, first, last in _record_chunks(reader, cut_line):
            if columns is None:
                columns = _Columns(cfg, records[0])
            else:
                columns.add(records, _line_of(records, first, last))
    except csv.Error as e:
        # the stand-in alone takes a field of exactly the size limit over
        # it; the fault is then the bad byte
        if unread is None or not _parses(source.getvalue()[:-1]):
            unread = MalformedRow(reader.line_num, f"cannot read {path}: {e}")
    # the text buffer, 4 bytes a character, goes before the columns are joined
    del reader, source
    if columns is None:
        raise unread or MalformedRow(1, "empty file; header row required")
    if unread is not None:
        raise unread
    return columns.table()


def _record_chunks(reader, cut_line=None):
    """``(records, first, last)`` for the header record alone and then for
    each run of up to :data:`CHUNK_RECORDS` data records, read from
    physical lines ``first`` to ``last``. The record that ends on
    ``cut_line``, the one cut short by an undecodable byte, is left out: the
    decoded text ends on that line, so it is the last record read. A chunk
    cut by a ``csv.Error`` is yielded as it was read, and the error is then
    raised."""
    for size in chain([1], repeat(CHUNK_RECORDS)):
        records, first = [], reader.line_num + 1
        try:
            records.extend(islice(reader, size))
        except csv.Error:
            if records:
                yield records, first, reader.line_num
            raise
        if records and reader.line_num == cut_line:
            records.pop()
        if not records:
            return
        yield records, first, reader.line_num


def _breaks(text):
    """The number of line breaks (``\\n``, ``\\r\\n``, lone ``\\r``) in ``text``."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _parses(text):
    """Whether the csv module reads ``text`` without an error."""
    try:
        for _ in csv.reader(io.StringIO(text, newline="")):
            pass
    except csv.Error:
        return False
    return True


def _line_of(records, first, last):
    """``line_of(k)``: the physical line where record ``k`` of ``records``
    starts, the records having been read from lines ``first`` to ``last``.
    The line breaks inside each record's quoted fields are counted only if
    more lines than records were read."""
    if last - first + 1 == len(records):
        return lambda k: first + k
    before = np.cumsum([0, *(sum(map(_breaks, record)) for record in records)])
    return lambda k: first + k + int(before[k])


def _raise_first(line_of, offenders):
    """Raise the error of the offender in the earliest (record, position),
    if any, at the physical line where that record starts."""
    if offenders:
        record, _, error = min(offenders, key=itemgetter(0, 1))
        raise error(line_of(record))


def _given(fields, sentinel):
    """Boolean mask of the fields that are not the missing-value sentinel."""
    return np.fromiter(map(ne, fields, repeat(sentinel)), dtype=bool,
                       count=len(fields))


def _outcomes(fields, cfg, offenders):
    """The outcome column as floats, NaN where the sentinel marks it
    missing. The first offending row, if any, is added to ``offenders``
    at position 0 and None is returned."""
    given = _given(fields, cfg.sentinel)
    rows = np.flatnonzero(given)
    text = list(compress(fields, given))
    values, k = _floats(text)
    outside = np.flatnonzero(~cfg.outcome.admits(values))
    if len(outside):
        j = int(outside[0])
        offenders.append((int(rows[j]), 0, partial(
            OutcomeOutOfDomain, f"outcome {values[j]} outside declared domain")))
    elif k is not None:
        offenders.append((int(rows[k]), 0, partial(
            MalformedRow, message=f"outcome {text[k]!r} is not a number")))
    else:
        y = np.full(len(fields), np.nan)
        y[rows] = values
        return y
    return None


def _floats(fields):
    """``float`` of each field up to the first one it rejects, and that
    field's position (None when every field parses)."""
    try:
        return list(map(float, fields)), None
    except ValueError:
        values = []
        for text in fields:
            try:
                values.append(float(text))
            except ValueError:
                return values, len(values)


class _Columns:
    """The columns of an observation table, built a chunk of data records
    at a time from the CSV header and the data config."""

    def __init__(self, cfg, header):
        self.cfg = cfg
        self.width = len(header)
        self.idx_y = _column_index(header, cfg.outcome_column)
        self.idx_x = [_column_index(header, c) for c in cfg.x_columns]
        self.idx_w = [_column_index(header, c) for c in cfg.w_columns]
        levels = cfg.declared_levels
        self.x = [_Levels(c, levels.get(c)) for c in cfg.x_columns]
        self.w = [_Levels(c, levels.get(c)) for c in cfg.w_columns]
        # a file with no data records still concatenates
        self.y, self.w_given = [np.empty(0)], [np.empty(0, dtype=bool)]
        #: (position among the x then w columns, line, label) of the first
        #: label outside its declared levels
        self.unknown = None

    def add(self, records, line_of):
        """Check and code a chunk of data records, ``line_of(k)`` being the
        line where record ``k`` starts, and empty the chunk. The chunk's
        first record error, if any, is raised."""
        # (record, position in the row, error for a line) of the first
        # offender of each check; a short or long row ends the rows that
        # are checked, so it loses to any offender in an earlier row
        offenders = []
        widths = np.fromiter(map(len, records), dtype=np.int64, count=len(records))
        bad_width = np.flatnonzero(widths != self.width)
        if len(bad_width):
            r = int(bad_width[0])
            offenders.append((r, 0, partial(
                MalformedRow, message=f"expected {self.width} fields, got {len(records[r])}")))
            del records[r:]
        y_fields = list(map(itemgetter(self.idx_y), records))
        x_cols = [list(map(itemgetter(i), records)) for i in self.idx_x]
        w_cols = [list(map(itemgetter(i), records)) for i in self.idx_w]
        records.clear()

        sentinel = self.cfg.sentinel
        y = _outcomes(y_fields, self.cfg, offenders)
        for pos, (col, fields) in enumerate(zip(self.cfg.x_columns, x_cols), start=1):
            if sentinel in fields:
                offenders.append((fields.index(sentinel), pos, partial(
                    MalformedRow, message=f"missing value in x column {col!r}")))
        _raise_first(line_of, offenders)
        self.y.append(y)

        w_given = np.ones(len(y), dtype=bool)
        for fields in w_cols:
            w_given &= _given(fields, sentinel)
        self.w_given.append(w_given)
        w_cols = [list(compress(fields, w_given)) for fields in w_cols]
        # per column, the records its fields are from: all for x, w-given for w
        w_rows = np.flatnonzero(w_given)
        columns = [(c, fields, None) for c, fields in zip(self.x, x_cols)]
        columns += [(c, fields, w_rows) for c, fields in zip(self.w, w_cols)]
        unknown = []
        for pos, (column, fields, rows) in enumerate(columns):
            codes = column.code(fields)
            if self.unknown is None and column.declared:
                bad = np.flatnonzero(codes < 0)
                if len(bad):
                    record = int(bad[0] if rows is None else rows[bad[0]])
                    unknown.append((record, pos, fields[bad[0]]))
        if unknown:
            record, pos, label = min(unknown, key=itemgetter(0, 1))
            self.unknown = pos, line_of(record), label

    def table(self):
        """The observation table of the records added. A covariate's level
        errors come first, in column order, then the first unknown label."""
        w_given = np.concatenate(self.w_given)
        n = len(w_given)
        x_domains, x = _flat_codes(self.x, n)
        w_domains, w_observed = _flat_codes(self.w, int(np.count_nonzero(w_given)))
        if self.unknown is not None:
            pos, line, label = self.unknown
            try:
                (x_domains + w_domains)[pos].code(label)
            except DataError as e:
                raise MalformedRow(line, str(e)) from None
        w = np.full(n, -1, dtype=np.int64)
        w[w_given] = w_observed
        return ObservationTable(self.cfg.outcome, x_domains, w_domains,
                                sealed(np.concatenate(self.y)), sealed(x), sealed(w))


class _Levels:
    """One covariate column's codes, a chunk of fields at a time: against
    its declared levels, or else against the labels seen so far, numbered
    as first seen and renumbered in sorted order at the end."""

    def __init__(self, name, declared):
        self.name = name
        self.declared = tuple(declared or ())
        self.index = {str(lv): i for i, lv in enumerate(self.declared)}
        self.parts = [np.empty(0, dtype=np.int64)]

    def code(self, fields):
        """The codes of ``fields``, -1 for a label outside the declared
        levels."""
        if not self.declared:
            for label in dict.fromkeys(fields):
                self.index.setdefault(label, len(self.index))
        codes = np.fromiter(map(self.index.get, fields, repeat(-1)),
                            dtype=np.int64, count=len(fields))
        self.parts.append(codes)
        return codes

    def finish(self):
        """The column's domain, which raises :class:`DataError` with no
        levels or duplicate declared ones, and the codes of every field."""
        domain = CategoricalDomain(self.name, self.declared or sorted(self.index))
        codes = np.concatenate(self.parts)
        self.parts = None
        if not self.declared:
            codes = domain.codes(list(self.index))[codes]
        return domain, codes


def _flat_codes(columns, n):
    """The domains of ``columns`` and the mixed-radix flat codes of their
    ``n`` records (zeros when there are no columns)."""
    domains, flat = [], np.zeros(n, dtype=np.int64)
    for column in columns:
        domain, codes = column.finish()
        flat *= domain.size
        flat += codes
        domains.append(domain)
    return tuple(domains), flat


# ---------------------------------------------------------------------------
# report plumbing


def _parse_cell(text):
    pairs = {}
    for part in text.split(","):
        if "=" not in part:
            raise DataError(f"cell selector part {part!r} is not K=V")
        key, value = (half.strip() for half in part.split("=", 1))
        if key in pairs:
            raise DataError(f"cell selector names role {key!r} twice")
        pairs[key] = value
    return pairs


def _interval_json(interval):
    return {"lo": interval.lo, "hi": interval.hi, "midpoint": interval.midpoint}


def _report(command, config, seed, results):
    return {
        "artifact": {"name": "imputebounds", "version": __version__},
        "command": command,
        "seed": seed,
        "config": config,
        "results": results,
    }


def _minimax_series(interval):
    """Worst-case squared asymptotic bias of each candidate point estimate
    against the interval endpoints; minimized at the midpoint."""
    rows = []
    for c in np.linspace(interval.lo, interval.hi, MINIMAX_POINTS):
        worst = max((c - interval.lo) ** 2, (c - interval.hi) ** 2)
        rows.append((float(c), float(worst)))
    return ("candidate", "max_squared_bias"), rows


def _write_series(out_dir, name, header, rows):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit(report, out_dir, series):
    text = json.dumps(report, indent=2, allow_nan=False)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        for name, header, rows in series:
            _write_series(out_dir, name, header, rows)


# ---------------------------------------------------------------------------
# subcommands


def _load_inputs(args):
    """The observation table, the model (None without ``--model``) and the
    cell selector that a subcommand's flags name, loaded in that order."""
    table = ingest_csv(args.data, load_config(args.config))
    model = models.model_from_ref(args.model) if hasattr(args, "model") else None
    sel = CellSelector(_parse_cell(args.xi),
                       _parse_cell(args.omega) if args.omega else None)
    return table, model, sel


def _cmd_bounds(args):
    table, _, sel = _load_inputs(args)
    interval = EstimatorSpec.for_cell(sel).sample_interval(table)
    results = {
        "n": table.n,
        "interval": _interval_json(interval),
        "midpoint": interval.midpoint,
    }
    config = {"data": args.data, "config": args.config,
              "xi": args.xi, "omega": args.omega}
    header, rows = _minimax_series(interval)
    _emit(_report("bounds", config, None, results), args.out,
          [("minimax_bias.csv", header, rows)])
    return 0


def _pooled_run(args):
    """What ``estimate`` and ``audit`` share: their inputs, the estimator
    of the selected cell, and from its pooled run the first five result
    keys, the configuration and the ``per_draw.csv`` series."""
    table, model, sel = _load_inputs(args)
    estimator = EstimatorSpec.for_cell(sel)
    result = run_multiple_imputation(table, model, args.m, estimator, args.seed)
    results = {
        "model": model.kind,
        "m": result.m,
        "pooled_mean": result.pooled_mean,
        "pooled_dispersion": result.pooled_dispersion,
        "per_draw": list(result.per_draw_estimates),
    }
    config = {"data": args.data, "config": args.config, "model": args.model,
              "xi": args.xi, "omega": args.omega, "m": args.m}
    per_draw = ("per_draw.csv", ("draw", "estimate"),
                list(enumerate(result.per_draw_estimates)))
    return table, model, estimator, results, config, per_draw


def _estimate_extras(table, model, estimator):
    """q-mean and mixture estimates where the model supplies what they need;
    the mixture mean is the estimator's truth on the mixture population."""
    sel = estimator.selector
    q_mean = None
    mixture = None
    if model.kind == models.EXPLICIT_OUTCOME_Q and estimator.name == "imputation_mean":
        xi_flat, _ = sel.resolve(table.x_domains, table.w_domains)
        e_q = missing_outcome.assumed_missing_mean(model, table, xi_flat)
        if e_q is not None:
            q_mean = missing_outcome.q_mean_estimate(table, sel, e_q)
    if model.kind == models.EXPLICIT_COVARIATE_Q and estimator.name == "long_mean":
        mixture = estimator.truth(
            missing_covariate.mixture_joint_estimate(table, model.covariate_q))
    return q_mean, mixture


def _cmd_estimate(args):
    table, model, estimator, results, config, per_draw = _pooled_run(args)
    results["q_mean"], results["mixture_mean"] = _estimate_extras(
        table, model, estimator)
    _emit(_report("estimate", config, args.seed, results), args.out, [per_draw])
    return 0


def _cmd_simulate(args):
    spec = simlab.load_experiment(args.spec)
    report = simlab.convergence_experiment(spec)
    results = report.to_json()
    results["estimator"] = EstimatorSpec.for_cell(spec.selector).name
    results["n_grid"] = list(spec.n_grid)
    results["reps"] = spec.reps
    config = {"spec": args.spec}
    rows = [(e.n, e.mean_abs_dev, e.max_abs_dev) for e in report.entries]
    _emit(_report("simulate", config, spec.seed, results), args.out,
          [("deviations.csv", ("n", "mean_abs_dev", "max_abs_dev"), rows)])
    return 0


def _cmd_audit(args):
    table, model, estimator, results, config, per_draw = _pooled_run(args)
    interval = estimator.sample_interval(table)
    point = results["pooled_mean"]
    results["interval"] = _interval_json(interval)
    results["point_in_interval"] = interval.contains(point)
    results["headline"] = (
        f"point estimate {point:.6g} under model {args.model} "
        f"vs assumption-free interval [{interval.lo:.6g}, {interval.hi:.6g}]")
    if args.population:
        pop = load_population(args.population)
        gap = simlab.bias_gap(pop, model, estimator.selector)
        results["bias_gap"] = {
            "plim": gap.plim,
            "truth": gap.truth,
            "gap": gap.gap,
            "interval": _interval_json(gap.interval),
            "truth_covered": gap.truth_covered,
            "imputation_point_in_interval": gap.imputation_point_in_interval,
        }
    config["population"] = args.population
    header, rows = _minimax_series(interval)
    _emit(_report("audit", config, args.seed, results), args.out,
          [("minimax_bias.csv", header, rows), per_draw])
    return 0


def _cmd_ecological(args):
    interval = duncan_davis_bounds(ShortDistributions(args.py, args.pw))
    results = {
        "p_y1_given_xi": args.py,
        "p_w_omega_given_xi": args.pw,
        "interval": _interval_json(interval),
        "midpoint": interval.midpoint,
    }
    config = {"py": args.py, "pw": args.pw}
    header, rows = _minimax_series(interval)
    _emit(_report("ecological", config, None, results), args.out,
          [("minimax_bias.csv", header, rows)])
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="imputebounds",
        description="Assumption-free bounds and imputation audits for "
                    "conditional means under missing data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=False, draws=False):
        p.add_argument("--data", required=True, help="input CSV")
        p.add_argument("--config", required=True, help="data config JSON")
        p.add_argument("--xi", required=True, help="x cell, K=V[,K=V...]")
        p.add_argument("--omega", default=None, help="w cell, K=V[,K=V...]")
        if model:
            p.add_argument("--model", required=True,
                           help="mar|marcov|q:FILE|ecological")
        if draws:
            p.add_argument("--m", type=int, default=1, help="imputation draws")
            p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default=None, help="directory for report + series")

    p_bounds = sub.add_parser("bounds", help="assumption-free interval + midpoint")
    add_common(p_bounds)

    p_est = sub.add_parser("estimate", help="imputation / q-mean / mixture estimates")
    add_common(p_est, model=True, draws=True)

    p_sim = sub.add_parser("simulate", help="run a convergence experiment spec")
    p_sim.add_argument("--spec", required=True, help="experiment spec JSON")
    p_sim.add_argument("--out", default=None, help="directory for report + series")

    p_audit = sub.add_parser("audit", help="pooled estimate vs assumption-free interval")
    add_common(p_audit, model=True, draws=True)
    p_audit.add_argument("--population", default=None,
                         help="population JSON for exact plim/truth bias gap")

    p_eco = sub.add_parser("ecological", help="short-distribution bounds")
    p_eco.add_argument("--py", type=float, required=True, help="P(y=1|xi)")
    p_eco.add_argument("--pw", type=float, required=True, help="P(w=omega|xi)")
    p_eco.add_argument("--out", default=None, help="directory for report + series")
    return parser


_HANDLERS = {
    "bounds": _cmd_bounds,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "audit": _cmd_audit,
    "ecological": _cmd_ecological,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GuardError as e:
        print(f"error: {e.__class__.__name__}: {e}", file=sys.stderr)
        return EXIT_GUARD
    except (DataError, OSError) as e:
        name = e.__class__.__name__ if isinstance(e, ImputeBoundsError) else "io"
        print(f"error: {name}: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
