"""The benchmark's in-process calls keep working against the package.

``benchmarks/perfbench`` calls the package in process: its workloads build
inputs, replay each operation through the public calls the CLI makes, and
its traced mode patches module attributes. For each workload, at a fixed
seed, the once-per-run checks pass and one replay passes its check, both
plain and under the tracer. A change in ``src/`` that removes something the
benchmark calls fails here rather than in a benchmark run.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"))

from perfbench.run import run_metadata  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, trace_points  # noqa: E402

SEED = 9303


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_checks_and_replays(name, tmp_path):
    wl = WORKLOADS[name]
    inp = wl.generate(SEED, str(tmp_path))
    checks = wl.run_checks(inp)
    assert all(reason is None for _, reason in checks), checks
    plain = wl.replay(inp, 0)
    assert wl.check(inp, plain) is None
    with Tracer().installed(trace_points()):
        traced = wl.replay(inp, 0)
    assert wl.check(inp, traced) is None
    assert traced == plain


def test_run_metadata_names_the_numpy_kernel_path():
    assert run_metadata(0)["kernel_path"] == "numpy"


def test_traced_pooled_replay_times_the_draw_kernel(tmp_path):
    """The per-layer kernel metric stays measured: a traced ``pool_small_n``
    replay goes through ``_kernels.draw_positions`` under the tracer, and
    no kernel trace point is missing from the package."""
    wl = WORKLOADS["pool_small_n"]
    inp = wl.generate(SEED, str(tmp_path))
    tracer = Tracer()
    with tracer.installed(trace_points()), tracer.operation(0):
        wl.replay(inp, 0)
    assert not {name for name in tracer.absent if name.startswith("kernels.")}
    assert any(span[0] == "kernels.draw_positions" for span in tracer.spans)
    assert tracer.counts[0]["kernels.draw_positions.bytes_computed"] > 0
