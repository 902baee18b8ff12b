"""Benchmark of imputebounds: three seeded workloads with end-to-end metrics,
and a traced run that splits operation time across the program's layers.

Run from the repository root::

    python3 benchmarks/perfbench/run.py --workload pool_small_n --seed 1 --seconds 30 --trace 0
    python3 benchmarks/perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (``workloads.py`` says why each was chosen):

* ``pool_small_n``: in-process ``run_multiple_imputation``, n=400, m=2000
* ``cli_estimate_large``: ``python -m imputebounds.cli estimate``, 2e4-row CSV
* ``simulate_grid``: ``python -m imputebounds.cli simulate``, n up to 2e5
* ``all``: the three in turn, metrics prefixed by workload name

Each run is a closed loop with one client: the next operation starts when
the previous one has finished and been checked, and no operation starts
after ``--seconds``. At most one child process runs at a time. Inputs are
generated from ``--seed`` alone, and every operation gets a fresh master
seed derived from it. Work files go to ``.bench_work/`` in the repository
root and are removed when the run ends.

``--trace 0`` measures the end-to-end metrics, untraced:

* ``setup_s``: median of nine set-ups, each generating the inputs from the
  seed and making the first call (for the in-process workload, also
  importing the package in a fresh interpreter)
* ``op_s_p50``, ``op_s_tail``: median operation time and the highest
  percentile with at least ten samples beyond it
* ``throughput``: work items (draws, CSV rows or sampled records) per
  second of operation time
* ``success_rate``: 1 - error_rate, checked operations that passed over
  those attempted. A failure is an exception, a non-zero exit, a report
  that is not strict JSON, or a failed correctness check
* ``peak_rss_mb``: peak resident memory (``VmHWM``) of the process doing
  the work: the benchmark process in-process, the median CLI child
  otherwise, read inside the child after the CLI has run

The times above are wall seconds rescaled to one fixed machine speed. Each
set-up and operation is bracketed by reference measurements, each the
median of five runs of a fixed pure-Python loop of about 1 ms, and its wall
time is multiplied by ``REFERENCE_S`` over the mean of the two. On the
shared 2-vCPU VM the bounds were set on, the CPU speed drifts by up to 2x
within minutes, which otherwise swamps the run-to-run spread; a change in
the program's own cost moves the rescaled time by the same factor as the
wall time. The raw wall figures are printed too, and the detail line gives
them with the quartile spread of both kinds of operation time.

``--trace 1`` replays operations in-process through the public calls the
CLI subcommands make, alternating untraced and traced replays, and reports
the per-layer metrics named in ``BENCHMARK.json``. ``<layer>.s`` is the
layer's self time per operation, ``<layer>.us`` its self time per call
(both medians); other names are counts per operation or probes measured
outside the tracer. A layer the workload never calls reports 0 and is
listed as not applicable. Predicted effects: ingest, ``ObservationTable``,
report size and start-up move ``op_s_p50`` on the CLI workloads;
``CompletedTable``, the per-draw cost, the stream floor and
``imputation_mean`` move ``throughput`` on ``pool_small_n``;
``sample_table``, ``sample_cells`` and ``validate_population`` move
``throughput`` on ``simulate_grid``; ``mixture_joint_estimate`` moves only
``cli_estimate_large``; the exact plim is predicted to move nothing.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

BENCHMARKS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCHMARKS)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 9
#: nominal reference_s(): times are rescaled to the machine speed at which
#: reference_s() reads this (0.6 to 1 ms on the 2-vCPU machine the bounds in
#: BENCHMARK.json were set on)
REFERENCE_S = 0.001
#: reference loops per bracket; their median ignores a loop that was
#: preempted
REFERENCE_REPS = 5
WORKLOAD_NAMES = ("pool_small_n", "cli_estimate_large", "simulate_grid")


class Tally:
    """Checked operations attempted and failed, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, what, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {error}")


def guarded(fn, *args):
    """Call ``fn``; an exception becomes a failed outcome (the traceback
    goes to stderr) so the loop keeps running."""
    from perfbench.workloads import Outcome

    try:
        return fn(*args)
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        return Outcome(0.0, 0, f"{type(e).__name__}: {e}")


def add_checks(tally, label, checks):
    """Tally the ``(what, reason or None)`` pairs ``checks()`` returns; an
    exception counts as one failed check named ``label``."""
    try:
        pairs = checks()
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        pairs = [(label, f"{type(e).__name__}: {e}")]
    for what, error in pairs:
        tally.add(what, error)


def reference_loop():
    """A fixed pure-Python loop (about 1 ms) whose time tracks the speed the
    machine runs at right now."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


def reference_s():
    """Median wall time of REFERENCE_REPS reference loops."""
    times = []
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def iqr_frac(values):
    """Distance between the quartiles over the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail(samples):
    """``(value, percentile)`` of the highest percentile that has at least
    ten samples beyond it (nearest rank), but never below the median: with
    fewer than 21 samples no higher percentile has ten beyond it."""
    ordered = sorted(samples)
    rank = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_metadata(seed):
    import numpy as np

    from imputebounds import _kernels

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    numba = _kernels.using_numba()
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "kernel_path": "numba" if numba else "numpy",
        "note": ("numbers are for the numba kernel path" if numba else
                 "numba is not active: every number is for the numpy kernel path")
                + "; bytes_computed are computed from array shapes, not measured",
    }


def untraced_run(wl, seed, seconds, workdir, tally):
    from perfbench.workloads import run_child, vm_hwm_kb

    # Each timed span is bracketed by reference measurements; its wall time
    # is rescaled by REFERENCE_S over their mean, so that the machine's speed
    # drifting between and within runs does not show as a change of the
    # program. The raw wall figures go into the detail line.
    setups, wall_setups = [], []
    reference = reference_s()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        if wl.in_process:
            child = run_child(["-c", "import imputebounds"], workdir)
            tally.add("import imputebounds in a fresh interpreter",
                      None if child.code == 0 else child.stderr.strip()[-300:])
        inp = wl.generate(seed, workdir)
        tally.add("first call", guarded(wl.operation, inp, 0).error)
        wall = time.perf_counter() - start
        before, reference = reference, reference_s()
        wall_setups.append(wall)
        setups.append(wall * 2 * REFERENCE_S / (before + reference))
    add_checks(tally, "run checks", lambda: wl.run_checks(inp))

    samples, wall_samples, items, rss_kb = [], [], 0, []
    reference = reference_s()
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        k += 1
        outcome = guarded(wl.operation, inp, k)
        before, reference = reference, reference_s()
        tally.add(f"operation {k}", outcome.error)
        if outcome.error is None:
            wall_samples.append(outcome.seconds)
            samples.append(outcome.seconds * 2 * REFERENCE_S / (before + reference))
            items += outcome.items
            if outcome.rss_kb is not None:
                rss_kb.append(outcome.rss_kb)

    if wl.in_process:
        peak_kb = vm_hwm_kb()
    else:
        peak_kb = statistics.median(rss_kb) if rss_kb else 0

    def timings(setups, samples):
        tail_value, tail_pct = tail(samples) if samples else (0.0, 0.0)
        return {
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(samples) if samples else 0.0,
            "op_s_tail": tail_value,
            "throughput": items / sum(samples) if samples else 0.0,
        }, tail_pct

    values, tail_pct = timings(setups, samples)
    values["success_rate"] = 1.0 - tally.failed / tally.attempted
    values["peak_rss_mb"] = peak_kb / 1024.0
    detail = {
        "samples": len(samples),
        "tail_percentile": round(tail_pct, 2),
        "setup_s_each": setups,
        "wall": timings(wall_setups, wall_samples)[0],
        "op_s_iqr_frac": iqr_frac(samples),
        "wall_op_s_iqr_frac": iqr_frac(wall_samples),
        "reference_s": REFERENCE_S,
        "throughput_item": wl.item,
        "error_rate": tally.failed / tally.attempted,
        "peak_rss_of": ("benchmark process (VmHWM)" if wl.in_process
                        else "median CLI child (VmHWM after exec)"),
    }
    return values, detail


def traced_run(wl, seed, seconds, workdir, tally):
    import numpy as np

    from imputebounds import rmi
    from perfbench import inputs
    from perfbench.tracing import Tracer
    from perfbench.workloads import trace_points

    inp = wl.generate(seed, workdir)
    add_checks(tally, "run checks", lambda: wl.run_checks(inp))
    values = {}

    def probes():
        measured, checks = wl.probes(inp)
        values.update(measured)
        return checks

    add_checks(tally, "probes", probes)

    tracer = Tracer()
    points = trace_points()
    plain, traced, draw_us = [], [], []
    probe = wl.draw_probe(inp)
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        k += 1
        try:
            # alternate which replay runs first, so neither always finds the
            # caches warmed by the other
            for traced_turn in ((False, True) if k % 2 else (True, False)):
                if traced_turn:
                    with tracer.installed(points), tracer.operation(k):
                        got = wl.replay(inp, k)
                    traced.append(tracer.ops[k][1] - tracer.ops[k][0])
                else:
                    start = time.perf_counter()
                    expected = wl.replay(inp, k)
                    plain.append(time.perf_counter() - start)
            error = wl.check(inp, expected)
            if error is None and got != expected:
                error = "traced replay differs from the untraced replay"
            if probe is not None:
                table, model, estimator, m = probe
                seed_k = inputs.op_seed(seed, k)
                start = time.perf_counter()
                rmi.run_multiple_imputation(table, model, m, estimator, seed_k)
                t_m = time.perf_counter() - start
                start = time.perf_counter()
                rmi.run_multiple_imputation(table, model, 1, estimator, seed_k)
                t_1 = time.perf_counter() - start
                draw_us.append((t_m - t_1) / (m - 1) * 1e6)
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            error = f"{type(e).__name__}: {e}"
        tally.add(f"replay {k}", error)

    summary = tracer.summary() if tracer.ops else None
    if summary is not None and plain and traced:
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        values["trace.other_s"] = summary["other_s"]
        values["trace.covered_frac"] = summary["covered_frac"]
    if draw_us:
        values["rmi.run_multiple_imputation.draw_us"] = float(np.median(draw_us))
    detail = {"replays": len(plain), "traced_ops": len(traced),
              "untraced_replay_s_p50": statistics.median(plain) if plain else None,
              "traced_replay_s_p50": statistics.median(traced) if traced else None,
              "absent_trace_points": sorted(tracer.absent)}
    return values, summary, detail


def layer_values(names, values, summary):
    """Each per-layer metric by name; those the workload never reached are
    0 and returned in the not-applicable list."""
    layers = summary["layers"] if summary else {}
    counts = summary["counts"] if summary else {}
    out, not_applicable = {}, []
    for name in names:
        prefix, _, suffix = name.rpartition(".")
        if name in values:
            value = values[name]
        elif suffix == "s" and prefix in layers:
            value = layers[prefix]["self_s"]
        elif suffix == "us" and prefix in layers:
            value = layers[prefix]["call_self_us"]
        elif name in counts:
            value = counts[name]
        else:
            value = 0
            not_applicable.append(name)
        out[name] = value
    return out, not_applicable


def print_ranking(summary):
    wall = summary["wall_s"]
    print(f"  layers ranked by self time (median per operation of {summary['ops']} "
          f"traced operations, wall {wall:.4g} s):")
    ranked = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, layer in ranked:
        print(f"    {name:44s} self {layer['self_s']:10.4g} s {100 * layer['self_s'] / wall:5.1f}%"
              f"  total {layer['total_s']:10.4g} s  calls {layer['calls']:g}")
    print(f"    {'(no span: trace.other_s)':44s} self {summary['other_s']:10.4g} s "
          f"{100 * summary['other_s'] / wall:5.1f}%")
    print(f"  spans cover {100 * summary['covered_frac']:.1f}% of operation wall time")


def run_workload(name, seed, seconds, trace, spec):
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name]
    tally = Tally()
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if trace:
            raw, summary, detail = traced_run(wl, seed, seconds, workdir, tally)
            names = [m["name"] for m in spec["per_layer"]]
            values, not_applicable = layer_values(names, raw, summary)
        else:
            values, detail = untraced_run(wl, seed, seconds, workdir, tally)
            names = [m["name"] for m in spec["end_to_end"]]
            summary, not_applicable = None, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    mode = "traced replay" if trace else "untraced"
    print(f"{name}: seed {seed}, {seconds:g} s, {mode}, closed loop with one client")
    for metric in names:
        print(f"  {metric:44s} {values[metric]:14.6g} {units[metric]}")
    if not trace:
        print(f"  op_s_tail is p{detail['tail_percentile']:g} over {detail['samples']} samples; "
              f"error_rate {detail['error_rate']:g} ({tally.failed} of {tally.attempted} "
              f"checked operations failed); throughput in {detail['throughput_item']}/s")
        wall = detail["wall"]
        print(f"  raw wall: op_s_p50 {wall['op_s_p50']:.6g} s, op_s_tail "
              f"{wall['op_s_tail']:.6g} s, throughput {wall['throughput']:.6g} "
              f"{detail['throughput_item']}/s, setup_s {wall['setup_s']:.6g} s")
    if summary:
        print_ranking(summary)
    if not_applicable:
        print(f"  not applicable on {name} (layer not called): {', '.join(not_applicable)}")
    for error in tally.errors:
        print(f"  FAILED {error}")
    print(json.dumps({"workload": name, "detail": detail}))
    return tally, {metric: {"value": values[metric], "unit": units[metric]} for metric in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per workload, at most 120")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that children are killed and reaped
    # and work files removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "imputebounds", "__init__.py")):
        print(f"error: no imputebounds package under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [SRC, BENCHMARKS]
    import imputebounds

    if os.path.dirname(os.path.dirname(os.path.abspath(imputebounds.__file__))) != SRC:
        print(f"error: imputebounds imported from {imputebounds.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    print(json.dumps({"run": run_metadata(args.seed)}))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    total = Tally()
    metrics = {}
    for name in names:
        tally, result = run_workload(name, args.seed, args.seconds, args.trace, spec)
        total.attempted += tally.attempted
        total.failed += tally.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + metric: value for metric, value in result.items()})
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
