"""The three benchmark workloads and the trace points of the program.

Each workload builds its inputs from the seed (``generate``), runs one
operation with a fresh master seed (``operation``), checks every output
independently of the code under test (``check``), and replays an operation
in-process through the same public calls for traced runs (``replay``).

Why these three:

pool_small_n
    In-process ``run_multiple_imputation`` at n=400 with m=2000. Per-draw
    fixed overhead dominates: Philox stream construction, per-record
    stratum keys, copying and validating a ``CompletedTable``, and the
    estimator. Ingest and fit are negligible and the working set fits in
    L1/L2.
cli_estimate_large
    ``imputebounds.cli estimate`` on a 2e4-row covariate-regime CSV with an
    explicit ``q:FILE`` model, ``--omega`` and m=5. CLI start-up, the
    per-row ``ingest_csv`` loop and ``mixture_joint_estimate`` dominate;
    completion runs at large n a few times and per-draw overhead is
    invisible.
simulate_grid
    ``imputebounds.cli simulate`` with ``marcov``/``long_mean``, one
    (xi, omega) cell, n_grid (2e4, 2e5) and 2 reps. One fit and one
    completion per freshly sampled table, so plan-once work cannot be
    amortised over m; it exercises ``sample_table``, the per-record
    ``mar_covariate`` fit and the exact plim, and never touches ingest.
"""

import inspect
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from imputebounds import (
    CellSelector,
    ImputationModel,
    _kernels,
    cli,
    domain,
    load_population,
    missing_covariate,
    models,
    rmi,
    save_population,
    simlab,
    true_covariate_model,
)
from imputebounds._rng import derive_seed, stream
from imputebounds.models import model_to_json

from . import inputs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rmi.__file__)))

#: a child process still running after this long is killed and counted failed
CHILD_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One checked operation: wall seconds, work items done, the reason it
    failed (None when it passed), and the child's peak RSS in KiB."""

    seconds: float
    items: int
    error: str = None
    rss_kb: int = None


def vm_hwm_kb():
    """Peak resident memory of the calling process image, in KiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


#: ``python -c CLI_MAIN HWM_PATH ARGS...`` runs ``imputebounds.cli`` as
#: ``python -m`` would, then writes the peak RSS of the child in KiB to
#: HWM_PATH. The child's ``ru_maxrss`` cannot be used: at exec Linux folds
#: the high-water RSS of the address space being replaced into it, and as
#: subprocess starts children with vfork, that is the benchmark's own.
#: ``VmHWM`` covers only the address space the CLI ran in.
CLI_MAIN = inspect.getsource(vm_hwm_kb) + """
import runpy, sys
hwm_path = sys.argv.pop(1)
try:
    runpy.run_module("imputebounds.cli", run_name="__main__", alter_sys=True)
finally:
    with open(hwm_path, "w") as out:
        out.write(str(vm_hwm_kb()))
"""


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_kb: int = None


def run_child(args, workdir, timeout=CHILD_TIMEOUT_S):
    """Run ``python *args`` with ``src`` on PYTHONPATH and wait for it; a
    child still running after ``timeout`` seconds is killed and raises.

    Output goes to files in ``workdir`` so a large report cannot block the
    child on a full pipe.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=workdir)
        try:
            proc.wait(timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(proc.returncode, stdout, stderr, seconds)


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def parse_report(text):
    """Parse a CLI report as strict JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(args, workdir):
    """Run one CLI subcommand; returns the child and its parsed report, or
    the child and the reason it failed."""
    hwm_path = os.path.join(workdir, "child.hwm")
    if os.path.exists(hwm_path):
        os.remove(hwm_path)
    child = run_child(["-c", CLI_MAIN, hwm_path, *args], workdir)
    if os.path.exists(hwm_path):
        with open(hwm_path, encoding="ascii") as fh:
            child.rss_kb = int(fh.read())
    if child.code != 0:
        return child, None, f"exit code {child.code}: {child.stderr.strip()[-300:]}"
    try:
        return child, parse_report(child.stdout), None
    except ValueError as e:
        return child, None, f"report is not strict JSON: {e}"


class Workload:
    name = None
    #: what one unit of throughput is
    item = None
    #: operations run inside the benchmark process (no CLI child)
    in_process = False

    def generate(self, seed, workdir):
        raise NotImplementedError

    def operation(self, inp, k):
        raise NotImplementedError

    def replay(self, inp, k):
        raise NotImplementedError

    def check(self, inp, results):
        """Reason ``results`` are wrong, or None."""
        raise NotImplementedError

    def run_checks(self, inp):
        """Once-per-run checks: a list of ``(what, reason or None)``."""
        return []

    def probes(self, inp):
        """Per-layer numbers measured outside the tracer for traced runs:
        ``(values, checks)``."""
        return {}, []

    def draw_probe(self, inp):
        """``(table, model, estimator, m)`` for the marginal per-draw probe,
        or None when the workload pools no imputations."""
        return None

    def cli_operation(self, args, inp):
        child, report, error = run_cli(args, inp.workdir)
        if error is None:
            try:
                error = self.check(inp, report["results"])
            except (KeyError, TypeError) as e:
                error = f"report lacks {e}"
        return Outcome(child.seconds, inp.items if error is None else 0,
                       error, child.rss_kb)

    def cli_probes(self, inp):
        """CLI start-up time (median of five ``ecological`` runs), report
        size, and a check that the in-process replay reproduces the CLI."""
        checks = []
        startup = []
        for _ in range(5):
            child, report, error = run_cli(["ecological", "--py", "0.6", "--pw", "0.5"],
                                           inp.workdir)
            startup.append(child.seconds)
            checks.append(("cli ecological start-up run", error))
        child, report, error = run_cli(self.cli_args(inp, 0), inp.workdir)
        if error is None:
            replayed = self.replay(inp, 0)
            if any(report["results"][key] != value for key, value in replayed.items()):
                error = "in-process replay differs from the CLI report"
        checks.append(("CLI report equals in-process replay", error))
        values = {"cli.startup_s": float(np.median(startup)),
                  "cli.report_bytes": len(child.stdout.encode("utf-8"))}
        return values, checks


class PoolSmallN(Workload):
    name = "pool_small_n"
    item = "draws"
    in_process = True
    N, M, MISSING_SHARE = 400, 2000, 0.25
    #: the pooled mean must lie within this many standard errors of its expectation
    SE_LIMIT = 6.0
    #: draws per call of the marginal per-draw probe and the repeat-seed check
    PROBE_M = 200

    def generate(self, seed, workdir):
        pop = inputs.balanced_population(seed, self.MISSING_SHARE,
                                         outcome_values=(0.0, 0.5, 1.0), x_sizes=(2,))
        table = inputs.sample(pop, seed, self.N,
                              n_missing=round(self.N * self.MISSING_SHARE))
        xi, _ = inputs.largest_cell(pop)
        selector = CellSelector(xi)
        xf, _ = selector.resolve(table.x_domains, table.w_domains)
        observed = table.y[(table.x == xf) & ~np.isnan(table.y)]
        return SimpleNamespace(
            seed=seed, workdir=workdir, table=table, items=self.M,
            model=ImputationModel.mar_outcome(),
            estimator=rmi.EstimatorSpec("imputation_mean", selector),
            # under mar_outcome every imputed y is drawn from the observed y
            # of its x cell, so the estimate's expectation is their mean
            expected=float(observed.mean()),
            n_missing=int(np.isnan(table.y).sum()))

    def replay(self, inp, k):
        return rmi.run_multiple_imputation(inp.table, inp.model, self.M, inp.estimator,
                                           inputs.op_seed(inp.seed, k))

    def operation(self, inp, k):
        start = time.perf_counter()
        result = self.replay(inp, k)
        seconds = time.perf_counter() - start
        error = self.check(inp, result)
        return Outcome(seconds, self.M if error is None else 0, error)

    def check(self, inp, result):
        if len(result.per_draw_estimates) != self.M:
            return f"{len(result.per_draw_estimates)} draws, expected {self.M}"
        se = result.pooled_dispersion / math.sqrt(self.M)
        dev = abs(result.pooled_mean - inp.expected)
        if not dev <= self.SE_LIMIT * se + 1e-12:
            return (f"pooled mean {result.pooled_mean!r} is {dev:.3g} from the observed "
                    f"cell mean {inp.expected!r}, over {self.SE_LIMIT} standard errors")
        return None

    def run_checks(self, inp):
        seed = inputs.op_seed(inp.seed, 0)
        first = rmi.run_multiple_imputation(inp.table, inp.model, self.PROBE_M,
                                            inp.estimator, seed)
        again = rmi.run_multiple_imputation(inp.table, inp.model, self.PROBE_M,
                                            inp.estimator, seed)
        single = inp.estimator.apply(rmi.draw_completion(inp.table, inp.model, seed))
        return [
            ("a repeated seed reproduces per_draw_estimates",
             None if first.per_draw_estimates == again.per_draw_estimates
             else "per-draw estimates differ between two runs with one seed"),
            ("draw 0 uses the (seed, 1) stream of draw_completion",
             None if first.per_draw_estimates[0] == single
             else f"draw 0 is {first.per_draw_estimates[0]!r}, "
                  f"draw_completion gives {single!r}"),
        ]

    def probes(self, inp):
        """Floor of one draw: build a Philox stream and draw n_missing uniforms."""
        times = []
        for k in range(self.M):
            start = time.perf_counter()
            stream(inp.seed, k + 1).random(inp.n_missing)
            times.append(time.perf_counter() - start)
        return {"rng.stream_random.us": float(np.median(times)) * 1e6}, []

    def draw_probe(self, inp):
        return inp.table, inp.model, inp.estimator, self.PROBE_M


class CliEstimateLarge(Workload):
    name = "cli_estimate_large"
    item = "rows"
    ROWS, M, MISSING_SHARE = 20000, 5, 0.5
    #: tolerance of the pooled imputation mean around the mixture mean, in
    #: standard deviations of the pooled mean (see ``pooled_sd``)
    SE_LIMIT = 6.0
    #: simulated imputations behind ``pooled_sd``
    REFERENCE_REPS = 4000

    def generate(self, seed, workdir):
        pop = inputs.balanced_population(seed, self.MISSING_SHARE, x_sizes=(3, 2),
                                         w_sizes=(4,), regime="covariate")
        table = inputs.sample(pop, seed, self.ROWS)
        model = true_covariate_model(pop)
        xi, omega = inputs.largest_cell(pop)
        paths = SimpleNamespace(data=os.path.join(workdir, "data.csv"),
                                config=os.path.join(workdir, "config.json"),
                                q=os.path.join(workdir, "q.json"))
        inputs.write_csv(table, paths.data)
        inputs.write_config(table, paths.config)
        inputs.write_json(paths.q, model_to_json(model))
        selector = CellSelector(xi, omega)
        parts = self.cell_parts(table, model, selector)
        rng = np.random.default_rng(derive_seed(seed, inputs.REFERENCE))
        return SimpleNamespace(
            seed=seed, workdir=workdir, table=table, model=model, paths=paths,
            xi=xi, omega=omega, selector=selector, items=self.ROWS,
            expected_mixture=self.mixture(parts),
            pooled_tol=self.SE_LIMIT * self.pooled_sd(parts, self.M,
                                                      self.REFERENCE_REPS, rng))

    @staticmethod
    def cell_parts(table, model, selector):
        """Counts behind the estimates at (xi, omega), with numpy bincount:
        the records observed in the cell and their outcome sum, the outcome
        values, the missing records at xi per outcome value, and q's chance
        of w = omega in each (y, xi) stratum."""
        xf, wf = selector.resolve(table.x_domains, table.w_domains)
        y, x, w = np.asarray(table.y), np.asarray(table.x), np.asarray(table.w)
        in_cell = (x == xf) & (w == wf)
        missing_at_xi = (x == xf) & (w < 0)
        outcome_values = np.unique(y)
        y_code = np.searchsorted(outcome_values, y)
        n_missing = np.bincount(y_code[missing_at_xi], minlength=len(outcome_values))
        x_labels = tuple(selector.xi[d.name] for d in table.x_domains)
        omega_labels = tuple(selector.omega[d.name] for d in table.w_domains)
        q_omega = np.array([
            sum(p for w_key, p in (model.covariate_q.distribution(v, x_labels) or ())
                if w_key == omega_labels)
            for v in outcome_values])
        return SimpleNamespace(n_cell=int(in_cell.sum()), y_cell=float(y[in_cell].sum()),
                               values=outcome_values, n_missing=n_missing, q_omega=q_omega)

    @staticmethod
    def mixture(parts):
        """The mixture estimate: observed records in the cell count once,
        each missing record at xi counts with q's chance of w = omega."""
        expected_in = parts.n_missing * parts.q_omega
        mass = parts.n_cell + expected_in.sum()
        ymass = parts.y_cell + (parts.values * expected_in).sum()
        return float(ymass / mass)

    @staticmethod
    def pooled_sd(parts, m, reps, rng):
        """Standard deviation of the mean of ``m`` imputed long means on the
        fixed table, simulated with numpy: each imputation routes
        Binomial(n_missing, q_omega) missing records per outcome value into
        the cell."""
        routed = rng.binomial(parts.n_missing, parts.q_omega,
                              size=(reps, m, len(parts.values)))
        estimates = ((parts.y_cell + (routed * parts.values).sum(axis=2))
                     / (parts.n_cell + routed.sum(axis=2)))
        return float(np.std(estimates.mean(axis=1), ddof=1))

    def cli_args(self, inp, k):
        return ["estimate", "--data", inp.paths.data, "--config", inp.paths.config,
                "--model", f"q:{inp.paths.q}", "--xi", inputs.cell_flag(inp.xi),
                "--omega", inputs.cell_flag(inp.omega), "--m", str(self.M),
                "--seed", str(inputs.op_seed(inp.seed, k))]

    def operation(self, inp, k):
        return self.cli_operation(self.cli_args(inp, k), inp)

    def check(self, inp, results):
        if results["m"] != self.M or len(results["per_draw"]) != self.M:
            return f"report has m={results['m']}, expected {self.M}"
        mixture = results["mixture_mean"]
        if mixture is None or not abs(mixture - inp.expected_mixture) <= 1e-9:
            return (f"mixture_mean {mixture!r} differs from the bincount "
                    f"recomputation {inp.expected_mixture!r}")
        if not abs(results["pooled_mean"] - mixture) <= inp.pooled_tol:
            return (f"pooled_mean {results['pooled_mean']!r} is over "
                    f"{inp.pooled_tol:.4g} ({self.SE_LIMIT} standard deviations) "
                    f"from mixture_mean {mixture!r}")
        return None

    def replay(self, inp, k):
        """The estimate subcommand's public calls, in its order."""
        cfg = cli.load_config(inp.paths.config)
        table = cli.ingest_csv(inp.paths.data, cfg)
        with open(inp.paths.q, encoding="utf-8") as fh:
            model = models.model_from_json(json.load(fh))
        selector = CellSelector(inp.xi, inp.omega)
        result = rmi.run_multiple_imputation(
            table, model, self.M, rmi.EstimatorSpec("long_mean", selector),
            inputs.op_seed(inp.seed, k))
        measure = missing_covariate.mixture_joint_estimate(table, model.covariate_q)
        return {"m": result.m,
                "pooled_mean": result.pooled_mean,
                "per_draw": list(result.per_draw_estimates),
                "mixture_mean": missing_covariate.mixture_conditional_mean(measure, selector)}

    def run_checks(self, inp):
        table = cli.ingest_csv(inp.paths.data, cli.load_config(inp.paths.config))
        same = (np.array_equal(table.y, inp.table.y, equal_nan=True)
                and np.array_equal(table.x, inp.table.x)
                and np.array_equal(table.w, inp.table.w))
        return [("the CSV ingests back to the generated sample",
                 None if same else "ingested table differs from the generated sample")]

    def probes(self, inp):
        return self.cli_probes(inp)

    def draw_probe(self, inp):
        return (inp.table, inp.model, rmi.EstimatorSpec("long_mean", inp.selector), self.M)


class SimulateGrid(Workload):
    name = "simulate_grid"
    item = "records"
    N_GRID, REPS, MISSING_SHARE = (20000, 200000), 2, 0.5
    #: tolerance of each rep's deviation from the plim, in standard deviations
    #: of the estimate at n_grid[0] (see ``estimate_sd``)
    SE_LIMIT = 6.0
    #: simulated tables behind ``estimate_sd``
    REFERENCE_REPS = 4000

    def generate(self, seed, workdir):
        pop = inputs.balanced_population(seed, self.MISSING_SHARE, x_sizes=(3, 2),
                                         w_sizes=(4,), regime="covariate")
        pop_path = os.path.join(workdir, "population.json")
        save_population(pop, pop_path)
        pop = load_population(pop_path)
        xi, omega = inputs.largest_cell(pop)
        selector = CellSelector(xi, omega)
        model = ImputationModel.mar_covariate()
        rng = np.random.default_rng(derive_seed(seed, inputs.REFERENCE))
        tolerance = self.SE_LIMIT * self.estimate_sd(pop, selector, self.N_GRID[0],
                                                     self.REFERENCE_REPS, rng)
        return SimpleNamespace(
            seed=seed, workdir=workdir, items=sum(self.N_GRID) * self.REPS,
            spec_path=os.path.join(workdir, "spec.json"),
            plim=missing_covariate.plim_imputed_long_mean(pop, model, selector),
            spec={"population": os.path.basename(pop_path), "model": "marcov",
                  "estimator": "long_mean", "xi": xi, "omega": omega,
                  "n_grid": list(self.N_GRID), "reps": self.REPS,
                  "tolerance": tolerance})

    @staticmethod
    def estimate_sd(pop, selector, n, reps, rng):
        """Standard deviation of one rep's imputed long mean at sample size
        ``n``, simulated with numpy from the population masses alone.

        Only the records at xi matter. For each outcome value v a sample has
        O_v observed records in the cell, D_v observed records at (v, xi)
        (the donors of the ``mar_covariate`` fit) and M_v missing ones; the
        single imputation routes Binomial(M_v, O_v / D_v) of the missing
        into the cell. A binomial standard error over the pooled cell alone
        leaves out the noise of the fitted donor shares and understated this
        spread by up to 1.7x on the seeds tried.
        """
        xf, wf = selector.resolve(pop.x_domains, pop.w_domains)
        mass = pop.mass / pop.mass.sum()
        observed = pop.z == 1
        parts = []
        for v in range(len(pop.outcome_values)):
            stratum = (pop.x_i == xf) & (pop.y_i == v)
            parts += [mass[stratum & observed & (pop.w_i == wf)].sum(),
                      mass[stratum & observed & (pop.w_i != wf)].sum(),
                      mass[stratum & ~observed].sum()]
        p = np.array(parts + [max(0.0, 1.0 - sum(parts))])
        counts = rng.multinomial(n, p / p.sum(), size=reps)
        in_cell, elsewhere, missing = counts[:, 0:-1:3], counts[:, 1:-1:3], counts[:, 2:-1:3]
        donors = in_cell + elsewhere
        share = np.divide(in_cell, donors, out=np.zeros(in_cell.shape), where=donors > 0)
        pooled = in_cell + rng.binomial(missing, share)
        estimates = (pooled * pop.outcome_values).sum(axis=1) / pooled.sum(axis=1)
        return float(np.std(estimates, ddof=1))

    def write_spec(self, inp, k):
        """The experiment spec of operation ``k``: the same cell and grid,
        the operation's own master seed."""
        inputs.write_json(inp.spec_path, dict(inp.spec, seed=inputs.op_seed(inp.seed, k)))

    def cli_args(self, inp, k):
        self.write_spec(inp, k)
        return ["simulate", "--spec", inp.spec_path]

    def operation(self, inp, k):
        return self.cli_operation(self.cli_args(inp, k), inp)

    def check(self, inp, results):
        entries = results["entries"]
        if [e["n"] for e in entries] != list(self.N_GRID):
            return f"grid {[e['n'] for e in entries]}, expected {list(self.N_GRID)}"
        skips = sum(e["skips"] for e in entries)
        if skips:
            return f"{skips} skipped reps"
        if results["plim"] != inp.plim:
            return (f"plim {results['plim']!r} differs from plim_imputed_long_mean "
                    f"{inp.plim!r}")
        if results["passed"] is not True:
            return "convergence experiment did not pass"
        return None

    def replay(self, inp, k):
        """The simulate subcommand's public calls, in its order."""
        self.write_spec(inp, k)
        spec = simlab.load_experiment(inp.spec_path)
        return simlab.convergence_experiment(spec).to_json()

    def probes(self, inp):
        return self.cli_probes(inp)


WORKLOADS = {w.name: w for w in (PoolSmallN(), CliEstimateLarge(), SimulateGrid())}


# ---------------------------------------------------------------------------
# trace points

def _draw_positions_bytes(pos, cdf_rows, row_of, u):
    """Bytes the numpy build reads and writes, from array shapes: gather
    and write the (n, width) CDF rows, read them against u, write and sum
    the boolean matrix, then clamp and cast the n positions."""
    n, width = len(u), cdf_rows.shape[1]
    return {"bytes_computed": 26 * n * width + 56 * n}


def _sample_cells_bytes(idx, cdf, u):
    """Bytes the numpy build reads and writes, from array shapes: the CDF
    once, u, and the searchsorted, clamp and cast passes over n int64s."""
    return {"bytes_computed": cdf.nbytes + 48 * len(u)}


def _completion_count(completed, *args, **kwargs):
    return {"n_missing": int(completed.y_imputed.sum() + completed.w_imputed.sum())}


def trace_points():
    """``(target, attr, span name, count)`` for every traced call site.

    A function is patched under each name its callers look it up by, so
    that every call goes through exactly one wrapper. ``rmi._complete`` is
    the completion step behind the public ``draw_completion`` that the
    pooled runner and the convergence experiment call directly.
    """
    estimators = getattr(rmi, "_ESTIMATORS", {})
    return [
        (cli, "load_config", "cli.load_config", None),
        (cli, "ingest_csv", "cli.ingest_csv",
         lambda t, *a, **k: {"rows": t.n, "rows_missing_w": int((~t.z_w).sum())}),
        (models, "model_from_json", "models.model_from_json", None),
        (simlab, "model_from_json", "models.model_from_json", None),
        (cli, "ObservationTable", "domain.ObservationTable", None),
        (simlab, "ObservationTable", "domain.ObservationTable", None),
        (rmi, "CompletedTable", "domain.CompletedTable", None),
        (simlab, "validate_population", "domain.validate_population", None),
        (domain, "validate_population", "domain.validate_population", None),
        (simlab, "load_experiment", "simlab.load_experiment", None),
        (simlab, "sample_table", "simlab.sample_table",
         lambda t, *a, **k: {"records": t.n}),
        (simlab, "convergence_experiment", "simlab.convergence_experiment",
         lambda r, *a, **k: {"skips": sum(e.skips for e in r.entries)}),
        (rmi, "fit_model", "rmi.fit_model",
         lambda f, *a, **k: {"strata": len(getattr(f, "strata", ()))}),
        (simlab, "fit_model", "rmi.fit_model",
         lambda f, *a, **k: {"strata": len(getattr(f, "strata", ()))}),
        (rmi, "_complete", "rmi.draw_completion", _completion_count),
        (simlab, "_complete", "rmi.draw_completion", _completion_count),
        (rmi, "run_multiple_imputation", "rmi.run_multiple_imputation",
         lambda r, *a, **k: {"draws": r.m}),
        (_kernels, "draw_positions", "kernels.draw_positions", _draw_positions_bytes),
        (_kernels, "sample_cells", "kernels.sample_cells", _sample_cells_bytes),
        (estimators, "imputation_mean", "missing_outcome.imputation_mean", None),
        (estimators, "long_mean", "missing_covariate.imputed_long_mean", None),
        (missing_covariate, "mixture_joint_estimate",
         "missing_covariate.mixture_joint_estimate", None),
        (missing_covariate, "mixture_conditional_mean",
         "missing_covariate.mixture_conditional_mean", None),
        (missing_covariate, "plim_imputed_long_mean",
         "missing_covariate.plim_imputed_long_mean", None),
    ]
