import ast
import os
import re
import tracemalloc

import numpy as np
import pytest

import imputebounds
from imputebounds import (
    CategoricalDomain,
    CellSelector,
    FinitePopulation,
    ImputationModel,
    Interval,
    ObservationTable,
    OutcomeDomain,
    bias_gap,
    ecological_plim,
    missing_covariate,
    missing_outcome,
    population_from_json,
    population_to_json,
    sample_table,
    save_population,
    true_covariate_model,
    true_outcome_model,
)
from imputebounds.domain import (
    _readonly, flat_value, require_regime, unflatten_index, value_labels)
from imputebounds.errors import (
    DataError,
    MassNotNormalized,
    NegativeMass,
    NonFiniteMass,
    OutcomeOutOfDomain,
    RegimeMismatch,
)
from conftest import W2, X1, build_covariate_pop, build_mnar_pop


def make_pop(cells):
    """A binary-domain population at the single x cell of ``X1``, built
    directly, one cell per ``(y, "a", None, z)`` key: the constructor checks
    the masses and the support as well as the indices, so a test of a bad
    population builds it inside ``pytest.raises``."""
    keys = sorted(cells)
    values = sorted({y for y, _, _, _ in keys})
    return FinitePopulation(
        outcome=OutcomeDomain.binary_01(), outcome_values=values,
        x_domains=X1, w_domains=(), y_i=[values.index(y) for y, _, _, _ in keys],
        x_i=[0] * len(keys), w_i=[0] * len(keys), z=[z for _, _, _, z in keys],
        mass=[cells[key] for key in keys])


def outcome_table(ys, outcome=None):
    """Single-x-cell table; None entries are missing outcomes."""
    outcome = outcome or OutcomeDomain.binary_01()
    return ObservationTable.from_records(
        [(y, "a", None) for y in ys], outcome, X1)


class TestValidatePopulation:
    def test_single_cell_accepted(self):
        make_pop({(1.0, "a", None, 1): 1.0})

    def test_unnormalized_masses_rejected(self):
        with pytest.raises(MassNotNormalized):
            make_pop({(1.0, "a", None, 1): 0.5, (0.0, "a", None, 1): 0.6})

    def test_negative_mass_rejected(self):
        with pytest.raises(NegativeMass):
            make_pop({(1.0, "a", None, 1): -0.1})

    def test_negative_checked_before_normalization(self):
        with pytest.raises(NegativeMass):
            make_pop({(1.0, "a", None, 1): 1.1, (0.0, "a", None, 1): -0.1})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mass_rejected(self, bad):
        # abs(nan - 1) > tol is False, so NaN would pass normalization
        with pytest.raises(NonFiniteMass, match="not finite"):
            make_pop({(1.0, "a", None, 1): 1.0, (0.0, "a", None, 1): bad})

    def test_non_finite_mass_in_json_rejected(self):
        obj = population_to_json(build_mnar_pop())
        obj["cells"][0]["mass"] = float("nan")
        with pytest.raises(NonFiniteMass):
            population_from_json(obj)

    def test_outcome_outside_domain_rejected(self):
        with pytest.raises(OutcomeOutOfDomain):
            make_pop({(0.5, "a", None, 1): 1.0})

    @pytest.mark.parametrize("masses, error", [
        ([0.5, float("nan"), 0.7, -0.2], NonFiniteMass),
        ([0.5, 0.0, 0.7, -0.2], NegativeMass),
    ], ids=["nan", "negative-summing-to-one"])
    def test_bad_masses_are_refused_when_built(self, masses, error):
        """The first masses once built a fully observed population whose
        ``true_mean`` at x = a was NaN, and whose identification interval at
        x = b was [-0.4, -0.4], a "truth" that ``bias_gap`` reported as
        covered. The second set sums to 1, so only the negative-mass check
        refuses it."""
        with pytest.raises(error):
            FinitePopulation(
                outcome=OutcomeDomain.binary_01(), outcome_values=[0.0, 1.0],
                x_domains=(CategoricalDomain("g", ("a", "b")),), w_domains=(),
                y_i=[0, 1, 0, 1], x_i=[0, 0, 1, 1], w_i=[0] * 4, z=[1] * 4,
                mass=masses)


class TestInterval:
    def test_invariants(self):
        with pytest.raises(DataError):
            Interval(1.0, 0.0)
        iv = Interval(0.2, 0.8)
        assert iv.width == pytest.approx(0.6)
        assert iv.midpoint == pytest.approx(0.5)
        assert iv.contains(0.2) and iv.contains(0.8)
        assert not iv.contains(0.81)
        assert iv.contains(0.81, tol=0.02)

    def test_intersect(self):
        assert Interval(0.0, 0.6).intersect(Interval(0.4, 1.0)) == Interval(0.4, 0.6)
        with pytest.raises(DataError):
            Interval(0.0, 0.2).intersect(Interval(0.5, 1.0))

    @pytest.mark.parametrize("lo, hi", [("0", 1.0), (0.0, True), (None, 1.0)])
    def test_endpoint_that_is_not_a_number_rejected(self, lo, hi):
        with pytest.raises(DataError, match="interval endpoint .* is not a number"):
            Interval(lo, hi)


class TestOutcomeDomain:
    @pytest.mark.parametrize("lo, hi", [("0", "1"), (0.0, True), (False, 1.0)])
    def test_endpoint_that_is_not_a_number_rejected(self, lo, hi):
        with pytest.raises(DataError, match="outcome domain endpoint .* is not a number"):
            OutcomeDomain(lo, hi)

    @pytest.mark.parametrize("flag", ["yes", 1, None])
    def test_binary_flag_that_is_not_a_bool_rejected(self, flag):
        # population_from_json reads only true or false, so a population
        # on any other flag would save a file that does not load
        with pytest.raises(DataError, match="binary=.* is not a bool"):
            OutcomeDomain(0, 1, binary=flag)

    def test_numbers_of_any_real_type_load(self):
        assert OutcomeDomain(np.int64(0), np.float64(1.0)) == OutcomeDomain(0.0, 1.0)


class TestObservationTable:
    def test_mixed_missingness_rejected(self):
        wd = (CategoricalDomain("m", ("o", "p")),)
        with pytest.raises(RegimeMismatch):
            ObservationTable.from_records(
                [(None, "a", "o"), (1.0, "a", None)],
                OutcomeDomain.binary_01(), X1, wd)

    def test_binary_domain_enforced(self):
        with pytest.raises(OutcomeOutOfDomain):
            outcome_table([0.5])

    def test_regimes(self):
        wd = (CategoricalDomain("m", ("o", "p")),)
        t = ObservationTable.from_records(
            [(1.0, "a", "o"), (0.0, "a", None)],
            OutcomeDomain.binary_01(), X1, wd)
        assert t.regime == "covariate"
        assert outcome_table([1, None]).regime == "outcome"
        assert outcome_table([1, 0]).regime == "complete"

    def test_arrays_are_readonly(self):
        t = outcome_table([1, 0])
        with pytest.raises(ValueError):
            t.y[0] = 0.0

    def test_arrays_are_copies(self):
        y, x, w = np.array([1.0, 0.0]), np.array([0, 0]), np.array([0, 0])
        t = ObservationTable(OutcomeDomain.binary_01(), X1, W2, y, x, w)
        y[0], x[0], w[0] = 0.0, 5, 5
        assert (t.y.tolist(), t.x.tolist(), t.w.tolist()) == ([1.0, 0.0], [0, 0], [0, 0])

    def test_sealed_array_that_owns_its_data_is_adopted(self):
        y, x, w = np.array([1.0, 0.0]), np.array([0, 0]), np.array([0, 1])
        for column in (y, x, w):
            column.setflags(write=False)
        t = ObservationTable(OutcomeDomain.binary_01(), X1, W2, y, x, w)
        assert t.y is y and t.x is x and t.w is w

    def test_read_only_view_is_copied(self):
        base = np.array([0.0, 1.0, 0.0])
        view = base[1:]
        view.setflags(write=False)
        t = ObservationTable(OutcomeDomain.binary_01(), X1, W2, view,
                             np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))
        assert not np.shares_memory(t.y, base)
        base[1] = 0.0
        assert t.y.tolist() == [1.0, 0.0]

    def test_converted_array_is_sealed_not_copied_twice(self):
        n = 100_000
        x = np.zeros(n, dtype=np.int32)
        tracemalloc.start()
        try:
            out = _readonly(x, np.int64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dtype == np.int64 and not out.flags.writeable
        assert not np.shares_memory(out, x)
        # one int64 array of n was made, not a conversion and then a copy
        assert peak < 1.5 * 8 * n

    def test_empty_table_builds(self):
        t = ObservationTable(OutcomeDomain.binary_01(), X1, W2, [], [], [])
        assert (t.n, t.regime) == (0, "complete")

    OUT_OF_DOMAIN = "outcome values outside domain [{}, {}]"
    MIXED = ("table mixes missing outcomes and missing covariates; "
             "exactly one missingness regime may be active")

    @pytest.mark.parametrize("outcome, y, x, w, error, message", [
        (None, [1.0, 0.0], [0, -1], [0, 0], DataError, "x code out of range"),
        (None, [1.0, 0.0], [0, 2], [0, 0], DataError, "x code out of range"),
        (None, [1.0, 0.0], [0, 0], [-2, 0], DataError, "w code out of range"),
        (None, [1.0, 0.0], [0, 0], [0, 2], DataError, "w code out of range"),
        (None, [1.0, np.inf], [0, 0], [0, 0], OutcomeOutOfDomain,
         "outcome values must be finite"),
        (None, [np.nan, -np.inf], [0, 0], [0, 0], OutcomeOutOfDomain,
         "outcome values must be finite"),
        (None, [np.nan, 1.0], [0, 0], [0, -1], RegimeMismatch, MIXED),
        ((0.0, 10.0), [np.nan, 10.5], [0, 0], [0, 0], OutcomeOutOfDomain,
         OUT_OF_DOMAIN.format(0.0, 10.0)),
        ((0.0, 10.0), [-0.5, 3.0], [0, 0], [0, 0], OutcomeOutOfDomain,
         OUT_OF_DOMAIN.format(0.0, 10.0)),
        (None, [0.5, 1.0], [0, 0], [0, 0], OutcomeOutOfDomain,
         OUT_OF_DOMAIN.format(0.0, 1.0)),
        # several faults: the checks run x, w, finite, domain, regime
        (None, [np.inf, 0.5], [-1, 0], [5, 0], DataError, "x code out of range"),
        (None, [np.inf, np.nan], [0, 0], [5, -1], DataError, "w code out of range"),
        (None, [np.inf, 0.5], [0, 0], [0, 0], OutcomeOutOfDomain,
         "outcome values must be finite"),
        (None, [np.nan, 0.5], [0, 0], [-1, 0], OutcomeOutOfDomain,
         OUT_OF_DOMAIN.format(0.0, 1.0)),
    ])
    def test_each_fault_names_itself(self, outcome, y, x, w, error, message):
        """Codes just outside |X| and |W| (w = -1 is missing, -2 is not), a
        non-finite or out-of-domain outcome, and both regimes at once raise
        their own error, in the order the checks run."""
        domain = OutcomeDomain(*outcome) if outcome else OutcomeDomain.binary_01()
        with pytest.raises(error) as raised:
            ObservationTable(domain, (CategoricalDomain("g", ("a", "b")),), W2,
                             np.array(y), np.array(x), np.array(w))
        assert type(raised.value) is error
        assert str(raised.value) == message


class TestRequireRegime:
    @pytest.mark.parametrize("source, fits", [
        (outcome_table([1, 0]), {"outcome", "covariate", "complete"}),
        (outcome_table([1, None]), {"outcome"}),
        (ObservationTable.from_records([(1.0, "a", "o"), (0.0, "a", None)],
                                       OutcomeDomain.binary_01(), X1, W2), {"covariate"}),
        (build_mnar_pop(), {"outcome"}),
        (build_covariate_pop(), {"covariate"}),
    ], ids=["complete-table", "outcome-table", "covariate-table", "outcome-population",
            "covariate-population"])
    def test_source_fits_its_own_regime_and_a_complete_table_every_regime(self, source, fits):
        kind = "table" if isinstance(source, ObservationTable) else "population"
        for regime in ("outcome", "covariate", "complete"):
            if regime in fits:
                require_regime(source, "an operation", regime)
                continue
            message = (f"an operation needs a {kind} in the {regime} regime, "
                       f"not the {source.regime} regime")
            with pytest.raises(RegimeMismatch) as raised:
                require_regime(source, "an operation", regime)
            assert str(raised.value) == message


MAR = ImputationModel("mar_outcome")
XI, XI_OMEGA = CellSelector({"g": "a"}), CellSelector({"g": "a"}, {"m": "o"})

#: every public function that reads a population's exact mass table, with
#: the arguments that follow the population
POPULATION_ONLY = [
    (missing_outcome.true_mean, (XI,)),
    (missing_outcome.identification_interval_pop, (XI,)),
    (missing_outcome.restricted_interval_pop, (XI, Interval(0.0, 1.0))),
    (missing_outcome.model_missing_outcome_mean, (MAR, XI)),
    (missing_outcome.plim_imputation_mean, (MAR, XI)),
    (missing_outcome.consistency_condition, (MAR, XI)),
    (missing_covariate.true_long_mean, (XI_OMEGA,)),
    (missing_covariate.plim_imputed_long_mean, (MAR, XI_OMEGA)),
    (missing_covariate.imputed_cell_share, (MAR, XI_OMEGA)),
    (missing_covariate.matching_conditions, (MAR, XI_OMEGA)),
    (missing_covariate.binary_bounds_oracle, (XI_OMEGA,)),
    (ecological_plim, (XI_OMEGA,)),
    (true_outcome_model, ()),
    (true_covariate_model, ()),
    (sample_table, (10, 0)),
    (bias_gap, (MAR, XI_OMEGA)),
    (population_to_json, ()),
    (save_population, (os.devnull,)),
]


@pytest.mark.parametrize("function, args", POPULATION_ONLY,
                         ids=[f.__name__ for f, _ in POPULATION_ONLY])
@pytest.mark.parametrize("table", [
    ObservationTable.from_records([(1.0, "a", "o"), (0.0, "a", None)],
                                  OutcomeDomain.binary_01(), X1, W2),
    ObservationTable.from_records([(1.0, "a", "o"), (0.0, "a", "p")],
                                  OutcomeDomain.binary_01(), X1, W2),
], ids=["covariate-table", "complete-table"])
def test_population_only_functions_refuse_a_table(function, args, table):
    """A table has no mass table, whatever its regime: each function says
    so, rather than failing on a missing attribute or computing a number
    from the table's columns."""
    with pytest.raises(DataError) as raised:
        function(table, *args)
    assert type(raised.value) is DataError
    assert str(raised.value) == (f"{function.__name__} needs a population, "
                                 "not an observation table")


def regime_raises(package_dir):
    """``(module file, enclosing class and function)`` of every ``raise
    RegimeMismatch`` in the modules of ``package_dir``."""
    found = []

    def visit(node, file, scope):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RegimeMismatch":
                found.append((file, ".".join(scope)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, file, scope)

    for file in sorted(os.listdir(package_dir)):
        if file.endswith(".py"):
            with open(os.path.join(package_dir, file), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), file, ())
    return found


def test_regime_mismatch_is_raised_in_one_place():
    """Whether a table or population fits an operation or a model is
    decided by :func:`require_regime` alone. The only other raises check
    other conditions: a table that mixes both regimes, and an ecological
    plim on a population whose covariates are sometimes observed."""
    assert regime_raises(os.path.dirname(imputebounds.__file__)) == [
        ("domain.py", "ObservationTable.__post_init__"),
        ("domain.py", "require_regime"),
        ("ecological.py", "ecological_plim"),
    ]


def unique_calls(package_dir):
    """``(module file, enclosing class and function)`` of every ``np.unique``
    call in the modules of ``package_dir``, each place once."""
    found = set()

    def visit(node, file, scope):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"):
            found.add((file, ".".join(scope)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, file, scope)

    for file in sorted(os.listdir(package_dir)):
        if file.endswith(".py"):
            with open(os.path.join(package_dir, file), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), file, ())
    return sorted(found)


def test_codes_are_counted_in_one_place():
    """Integer codes are counted by :func:`count_codes` alone, which sorts
    only a space far larger than its codes. The only other sorts index a
    real outcome's levels: the (y, x) strata and an empirical fit's atoms."""
    assert unique_calls(os.path.dirname(imputebounds.__file__)) == [
        ("domain.py", "count_codes"),
        ("domain.py", "yx_codes"),
        ("rmi.py", "_fit_empirical"),
    ]


MASS_ERRORS = {"NonFiniteMass", "NegativeMass", "MassNotNormalized"}


def mass_rule_uses(package_dir):
    """``(module file, enclosing class and function)`` of every use of a
    mass error outside ``errors.py`` and the imports, each place once."""
    found = set()

    def visit(node, file, scope):
        if isinstance(node, ast.Name) and node.id in MASS_ERRORS:
            found.add((file, ".".join(scope)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, file, scope)

    for file in sorted(os.listdir(package_dir)):
        if file.endswith(".py") and file != "errors.py":
            with open(os.path.join(package_dir, file), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), file, ())
    return sorted(found)


def test_masses_are_checked_in_one_place():
    """Whether a population's masses are valid is decided when it is built,
    by the constructor alone: no other code names a mass error."""
    assert mass_rule_uses(os.path.dirname(imputebounds.__file__)) == [
        ("domain.py", "FinitePopulation.__post_init__"),
    ]


class TestFlatIndexing:
    def test_roundtrip(self):
        domains = (CategoricalDomain("a", ("u", "v")),
                   CategoricalDomain("b", ("p", "q", "r")))
        seen = set()
        for u in ("u", "v"):
            for q in ("p", "q", "r"):
                flat = flat_value(domains, (u, q))
                assert value_labels(domains, flat) == (u, q)
                assert unflatten_index(domains, flat) == (
                    domains[0].code(u), domains[1].code(q))
                seen.add(flat)
        assert seen == set(range(6))

    def test_mapping_and_code_inputs(self):
        """A number in a label position names the level of its text, never
        the level at that position."""
        domains = (CategoricalDomain("a", ("u", "v")),)
        assert flat_value(domains, {"a": "v"}) == 1
        with pytest.raises(DataError):
            flat_value(domains, ("zzz",))
        with pytest.raises(DataError, match="unknown level 1"):
            flat_value(domains, (1,))
        numeric = (CategoricalDomain("a", ("1", "0")),)
        assert flat_value(numeric, (1,)) == flat_value(numeric, ("1",)) == 0
        assert flat_value(numeric, 0) == 1

    @pytest.mark.parametrize("value, message", [
        ({"a": "v", "typo": "zzz"}, "names no role 'typo'"),
        (("v", "nonsense"), "expected 1 covariate roles"),
    ])
    def test_value_must_name_each_role_once(self, value, message):
        domains = (CategoricalDomain("a", ("u", "v")),)
        with pytest.raises(DataError, match=message):
            flat_value(domains, value)

    def test_string_is_not_split_into_roles(self):
        domains = (CategoricalDomain("a", ("u", "v")),
                   CategoricalDomain("b", ("u", "v")))
        with pytest.raises(DataError, match="expected 2 covariate roles"):
            flat_value(domains, "uv")

    def test_codes_mark_unknown_labels(self):
        d = CategoricalDomain("a", ("u", "v"))
        assert d.codes(["v", "zzz", "u", ""]).tolist() == [1, -1, 0, -1]


class TestSerialization:
    def test_roundtrip_preserves_everything(self):
        pop = build_mnar_pop()
        clone = population_from_json(population_to_json(pop))
        assert clone.regime == pop.regime
        assert np.array_equal(clone.outcome_values, pop.outcome_values)
        assert np.array_equal(clone.mass, pop.mass)
        assert np.array_equal(clone.z, pop.z)
        assert [d.levels for d in clone.x_domains] == [d.levels for d in pop.x_domains]

    def test_schema_fields(self):
        obj = population_to_json(build_mnar_pop())
        assert set(obj) == {"outcome_domain", "x_domains", "w_domains", "regime", "cells"}
        assert {"y", "x", "w", "z", "mass"} <= set(obj["cells"][0])

    def test_outcome_support_key_is_not_read(self):
        """The cells' ``y`` values are the support: a file that still
        carries an ``outcome_support`` key loads as it would without it."""
        obj = dict(population_to_json(build_mnar_pop()), outcome_support=[7.0])
        assert population_from_json(obj).outcome_values.tolist() == [0.0, 1.0]


BIG = (CategoricalDomain("big", tuple(f"v{i}" for i in range(1001))),)


def one_cell_population(**fields):
    """A one-cell binary population on ``X1`` x ``W2``, ``fields`` replaced."""
    return FinitePopulation(**dict(dict(
        outcome=OutcomeDomain.binary_01(), outcome_values=[0.0, 1.0], x_domains=X1,
        w_domains=W2, y_i=[0], x_i=[0], w_i=[0], z=[1], mass=[1.0]), **fields))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: OutcomeDomain(0.0, float("inf")),
                 "outcome domain endpoints must be finite", id="endpoint_not_finite"),
    pytest.param(lambda: OutcomeDomain(1.0, 1.0),
                 "outcome domain requires lo < hi, got [1.0, 1.0]", id="lo_not_below_hi"),
    pytest.param(lambda: OutcomeDomain(0.0, 2.0, binary=True),
                 "binary outcome domain must be [0, 1]", id="binary_not_01"),
    pytest.param(lambda: CategoricalDomain("g", ("a", "a")),
                 "domain 'g' has duplicate levels", id="duplicate_levels"),
    pytest.param(lambda: CategoricalDomain("g", ("a", True)),
                 "domain 'g' has the level True, which is not a level label",
                 id="boolean_level"),
    pytest.param(lambda: X1[0].code(None),
                 "None names no level of domain 'g': it is not a level label",
                 id="null_label"),
    pytest.param(lambda: ObservationTable(OutcomeDomain.binary_01(), BIG, BIG, [], [], []),
                 "covariate cell count exceeds cap 1000000", id="table_cell_cap"),
    pytest.param(lambda: ObservationTable(OutcomeDomain.binary_01(), X1, W2, [0.0],
                                          [0, 0], [0]),
                 "column lengths differ", id="column_lengths"),
    pytest.param(lambda: one_cell_population(x_domains=BIG, w_domains=BIG),
                 "covariate cell count exceeds cap 1000000", id="population_cell_cap"),
    pytest.param(lambda: one_cell_population(outcome_values=[]),
                 "outcome support must be non-empty and finite", id="empty_support"),
    pytest.param(lambda: one_cell_population(outcome_values=[0.0, float("nan")]),
                 "outcome support must be non-empty and finite", id="nan_support"),
    pytest.param(lambda: one_cell_population(outcome_values=[0.0, float("inf")]),
                 "outcome support must be non-empty and finite", id="inf_support"),
    pytest.param(lambda: one_cell_population(outcome_values=[1.0, 0.0]),
                 "outcome support must be sorted and unique", id="unsorted_support"),
    pytest.param(lambda: one_cell_population(mass=[0.5, 0.5]),
                 "cell arrays differ in length", id="cell_lengths"),
    pytest.param(lambda: one_cell_population(y_i=[2]),
                 "outcome index out of range", id="outcome_index"),
    pytest.param(lambda: one_cell_population(x_i=[1]), "x index out of range", id="x_index"),
    pytest.param(lambda: one_cell_population(w_i=[2]), "w index out of range", id="w_index"),
    pytest.param(lambda: one_cell_population(z=[2]), "z must be 0 or 1", id="z_not_01"),
    pytest.param(lambda: FinitePopulation.from_cells(
        {("1", "a", None, 1): 1.0}, outcome=OutcomeDomain.binary_01(), x_domains=X1),
                 "cell outcome '1' is not a number", id="from_cells_text_y"),
    pytest.param(lambda: FinitePopulation.from_cells(
        {(1.0, "a", None, 1): "1.0"}, outcome=OutcomeDomain.binary_01(), x_domains=X1),
                 "cell mass '1.0' is not a number", id="from_cells_text_mass"),
    pytest.param(lambda: FinitePopulation.from_cells(
        {(1.0, "a", None, True): 1.0}, outcome=OutcomeDomain.binary_01(), x_domains=X1),
                 "cell z must be an integer, got True", id="from_cells_boolean_z"),
    pytest.param(lambda: FinitePopulation.from_cells(
        {(1.0, "a", None, 0.5): 1.0}, outcome=OutcomeDomain.binary_01(), x_domains=X1),
                 "cell z must be an integer, got 0.5", id="from_cells_fractional_z"),
    pytest.param(lambda: outcome_table([0.0, "1"]),
                 "outcome '1' is not a number", id="from_records_text_y"),
    pytest.param(lambda: outcome_table([0.0, True]),
                 "outcome True is not a number", id="from_records_boolean_y"),
    pytest.param(lambda: population_from_json({"x_domains": {"g": ["a"]}, "cells": [
        {"y": float("nan"), "x": ["a"], "z": 1, "mass": 1.0}]}),
                 "a cell's 'y' must be finite, got nan", id="json_number_not_finite"),
])
def test_error_paths(build, message):
    with pytest.raises(DataError, match=re.escape(message)):
        build()
