"""The README's library quick start, run as written: each value its
comments state is checked against the value its line computes."""

import ast
import os

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def quick_start():
    """The first python block under ``## Library quick start``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start():
    """Run the block statement by statement and keep the value of each
    bare expression, keyed by its source."""
    code = quick_start()
    namespace, values = {}, {}
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    interval = values["ib.identification_interval_pop(pop, sel)"]
    sample = values["ib.sample_interval(table, sel)"]
    assert values["ib.true_mean(pop, sel)"] == pytest.approx(0.80)
    assert (interval.lo, interval.hi) == pytest.approx((0.35, 0.85))
    assert values["ib.plim_imputation_mean(pop, model, sel)"] == pytest.approx(0.40)
    assert values["ib.consistency_condition(pop, model, sel)"] is False
    assert values["res.pooled_mean"] == pytest.approx(0.40, abs=0.01)
    assert (sample.lo, sample.hi) == pytest.approx((0.35, 0.85), abs=0.01)
    assert sample.lo <= 0.80 <= sample.hi
