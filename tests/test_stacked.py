"""One point API: an (N, n) stack runs the generated code on columns, and
the curvature kernels contract it with a leading axis.

A stacked call must equal, bit for bit, the one-point calls stacked; it
must fail with the same error (class, message and point) as the one-point
call at the first failing point; and a one-point call keeps its Python
types.
"""

import math
import re

import numpy as np
import pytest
from test_fields import per_row

from projeq import jets
from projeq.chart import Chart, box_chart
from projeq.curvature import christoffel, riemann, sectional
from projeq.errors import (
    ComplexRoots,
    DomainViolation,
    NotPositiveDefinite,
    NotSelfAdjoint,
    OrderingViolated,
    ProjeqError,
    SingularMetric,
    ZeroVelocity,
)
from projeq.fields import (
    ConstantField,
    EndomorphismField,
    ExpressionField,
    MetricField,
    NumericField,
    PhaseState,
    ReindexedField,
    VectorField,
    as_field,
    coord,
    finite_differences,
    scan,
    worst_point,
)
from projeq.flows import IntegralFamily, _powers, interlacing_audit
from projeq.geodesics import hamiltonian
from projeq.levicivita import (
    LeviCivitaSpec,
    _split_at,
    affine_equivalence_check,
    build_lc_pair,
    k_constants,
    random_spec,
    split,
)
from projeq.manifest import seeded_states
from projeq.pairs import (
    MetricPair,
    ProjectiveFlowSpec,
    bm_from_flow,
    bm_from_flow_field,
    bm_residual,
    bm_residual_stats,
    covariant_endo_derivative,
    gbar_from_l,
    l_field_from_pair,
    l_from_pair,
    lie_derivative_metric,
    nijenhuis_torsion,
    projective_weyl,
    spectra_at,
    weyl_pair_defect,
)
from projeq.surfaces import builtin_example, killing_residual

UNIT = Chart(("x", "y"), ((0.0, 1.0), (0.0, 1.0)))
MIXED = Chart(("x", "y"), ((0.1, 0.9), (0.2, 1.5)))
# asin (whose Hessian code has a float power), abs, sqrt, a general power
# and a constant fractional power
MIXED_TEXT = "asin(0.9*x) + abs(y - 2)*sqrt(x + y) + x^y + (x + 1)^1.5"


def _lc3():
    spec = LeviCivitaSpec.create(
        [1, 1, 1], ("1 + 0.3*tanh(x1)", "3", "6 + x3^2"),
        bounds=((-1.0, 1.0), (-1.0, 1.0), (0.5, 1.5)))
    return build_lc_pair(spec)


def _tables(case):
    if case == "lc3":
        return _lc3()
    if case == "random_spec(2, 4)":
        g, _, L = build_lc_pair(random_spec(2, 4))
        return g, gbar_from_l(g, L), L
    bundle = builtin_example(case)
    return tuple(t for t in (bundle.metric, bundle.partner) if t is not None)


def _per_point(fn, xs):
    """fn at each point, stacked along a leading axis, part by part."""
    rows = [fn(x) for x in xs]
    return tuple(np.array(p) for p in zip(*rows)) if isinstance(rows[0], tuple) else np.array(rows)


@pytest.fixture
def columns_only(monkeypatch):
    """Fail a stacked call that falls back to point-by-point evaluation."""
    def refuse(*args):
        raise AssertionError("stack evaluated point by point")

    monkeypatch.setattr(jets, "replay", refuse)


@pytest.mark.parametrize("count", [1, 201])
@pytest.mark.parametrize("case", ["lc3", "random_spec(2, 4)", "torus", "sphere_beltrami",
                                  "example1", "example2"])
def test_stacked_table_jets_equal_the_one_point_jets(case, count, columns_only):
    for table in _tables(case):
        xs = table.chart.sample(count, seed=4)
        for order in (0, 1, 2):
            stacked = table.jet(xs, order)
            single = _per_point(lambda x: table.jet(x, order), xs)
            assert len(stacked) == order + 1
            for s, p in zip(stacked, single):
                assert s.shape == (count,) + (table.dim,) * (s.ndim - 1)
                assert np.array_equal(s, p)


@pytest.mark.parametrize("count", [1, 201])
def test_stacked_scalar_jets_equal_the_one_point_jets(count, columns_only):
    f = ExpressionField(MIXED, MIXED_TEXT) * as_field(MIXED, "tanh(x*y)") + ConstantField(MIXED, 2.0)
    xs = MIXED.sample(count, seed=8)
    for method in ("eval", "d1", "d2"):
        stacked = getattr(f, method)(xs)
        assert np.array_equal(stacked, _per_point(getattr(f, method), xs))
        assert stacked.shape[0] == count


def test_a_one_point_call_keeps_its_types():
    f = ExpressionField(MIXED, MIXED_TEXT)
    x = MIXED.center()
    assert type(f.eval(x)) is float
    assert f.d1(x).shape == (2,) and f.d2(x).shape == (2, 2)
    g = _lc3()[0]
    assert g.matrix(g.chart.center()).shape == (3, 3)


@pytest.mark.parametrize("text, bad", [("1/(x - 0.5) + y", [0.5, 0.3]),
                                       ("log(x) * y", [-0.25, 0.3])])
def test_a_failing_stack_raises_as_its_first_failing_point(text, bad):
    chart = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    f = ExpressionField(chart, text)
    g = MetricField.diagonal(chart, [as_field(chart, "1 + x^2"), f], validate=False)
    xs = chart.sample(20, seed=2)
    xs[:, 0] = np.abs(xs[:, 0]) + 0.55  # every other point is fine
    xs[7] = bad
    xs[12] = [-0.75, 0.1] if text.startswith("log") else [0.5, 0.1]
    for stacked, single in ((f.eval, f.eval), (f.d2, f.d2), (g.matrix, g.matrix),
                            (lambda p: g.jet(p, 2), lambda p: g.jet(p, 2))):
        with pytest.raises(DomainViolation) as one:
            single(xs[7])
        with pytest.raises(DomainViolation) as many:
            stacked(xs)
        assert str(many.value) == str(one.value)
        assert many.value.point == one.value.point == list(bad)


def test_black_box_stacks_equal_their_one_point_calls(columns_only):
    num = NumericField(UNIT, per_row(lambda x: math.exp(x[0]) * math.sin(x[1])))
    f = num * as_field(UNIT, "x^2 + y")
    table = MetricField.from_function(UNIT, per_row(
        lambda x: np.array([[2.0 + x[0] ** 2, x[0] * x[1]], [x[0] * x[1], 1.0 + x[1]]])),
        validate=False)
    xs = UNIT.sample(31, seed=1)
    for method in ("eval", "d1", "d2"):
        assert np.array_equal(getattr(num, method)(xs), _per_point(getattr(num, method), xs))
        assert np.array_equal(getattr(f, method)(xs), _per_point(getattr(f, method), xs))
    sphere = builtin_example("sphere_beltrami")
    flow = ProjectiveFlowSpec(sphere.metric, sphere.vector_fields["projective_generator"])
    ys = sphere.chart.sample(5, seed=1)
    assert np.array_equal(bm_from_flow(flow, ys), _per_point(lambda y: bm_from_flow(flow, y), ys))
    for table, pts in ((table, xs), (bm_from_flow_field(flow), ys)):
        for order in (0, 1, 2):
            for s, p in zip(table.jet(pts, order),
                            _per_point(lambda x: table.jet(x, order), pts)):
                assert np.array_equal(s, p)


@pytest.mark.parametrize("count", [1, 7])
def test_stacked_finite_differences_equal_the_one_point_calls(count):
    scalar = per_row(lambda x: math.exp(x[0]) * math.sin(x[1] * x[2]))
    matrix = per_row(lambda x: np.outer(x, [1.0, x[0] * x[2], math.cos(x[1])]))
    xs = Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3).sample(count, seed=5)
    xs[0, 1] = -0.0  # a step along another coordinate keeps its sign
    for fn in (scalar, matrix):
        for order in (0, 1, 2):
            stacked = finite_differences(fn, xs, order)
            assert len(stacked) == order + 1
            for k, part in enumerate(stacked):
                assert part.shape[1] == count
                assert np.array_equal(part.T, [finite_differences(fn, x, order)[k] for x in xs])


def test_a_black_box_result_of_the_wrong_shape_is_a_value_error():
    xs = UNIT.sample(3, seed=0)
    for fn, shape in ((lambda ys: np.ones(2), "(2,)"), (lambda ys: 1.0, "()")):
        f = NumericField(UNIT, fn)
        for call in (lambda: f.eval(xs), lambda: f.d1(xs[0]),
                     lambda: (f * as_field(UNIT, "x")).d2(xs)):
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")) as err:
                call()
            assert not isinstance(err.value, ProjeqError)
    table = MetricField.from_function(UNIT, lambda ys: np.ones((2, 2)), validate=False)
    with pytest.raises(ValueError, match=r"shape \(2, 2\) for an \(5, 2\) stack"):
        table.dmatrix(xs)


@pytest.mark.parametrize("shape", [(3, 3), (2,)], ids=["(M, 3, 3)", "(M, 2)"])
@pytest.mark.parametrize("cls", [MetricField, EndomorphismField])
def test_a_black_box_table_of_the_wrong_size_is_a_value_error(cls, shape):
    # 2 I_3 on a 2-D chart read as the 2 x 2 matrix [[2, 0], [0, 0]] with no complaint
    xs = UNIT.sample(3, seed=0)
    kw = {"validate": False} if cls is MetricField else {}
    table = cls.from_function(UNIT, lambda ys: 2.0 * np.ones((len(ys),) + shape), **kw)
    size = math.prod(shape)
    for call in (lambda: table.matrix(xs[0]), lambda: table.matrix(xs),
                 lambda: table.dmatrix(xs), lambda: table.jet(xs[0], 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"a black box gave {size} values per point where its field needs shape (2, 2)")):
            call()


def test_a_leaf_failing_later_does_not_mask_an_earlier_closed_form_failure():
    xs = UNIT.sample(20, seed=2)
    xs[7] = [0.5, 0.3]
    late = tuple(xs[12])
    leaf = NumericField(UNIT, per_row(
        lambda x: math.log(-1.0) if tuple(x) == late else x[0] * x[1]))
    f = leaf + ExpressionField(UNIT, "1/(x - 0.5)")  # the leaf's line comes first
    for method in ("eval", "d1"):
        with pytest.raises(DomainViolation) as one:
            getattr(f, method)(xs[7])
        with pytest.raises(DomainViolation) as many:
            getattr(f, method)(xs)
        assert str(many.value) == str(one.value)
        assert many.value.point == one.value.point == xs[7].tolist()
    with pytest.raises(DomainViolation) as err:
        leaf.eval(xs)
    assert err.value.point == xs[12].tolist()


def _failing_at(bad, value, calls):
    """A black box of value(ys) that records the size of each stack it is
    given and raises a math domain error on a stack holding any point of
    bad's stencil."""
    def fn(ys):
        calls.append(len(ys))
        if np.any(np.all(np.abs(ys - bad) < 1e-3, axis=1)):
            raise ValueError("math domain error")
        return value(ys)
    return fn


def test_a_failing_leaf_stack_is_replayed_once():
    xs = UNIT.sample(20, seed=2)
    calls = []
    leaf = NumericField(UNIT, _failing_at(xs[12], lambda ys: ys[:, 0] * ys[:, 1], calls))
    # the stacked call, then one stencil per point up to the failing 13th
    for f in (leaf * ExpressionField(UNIT, "x + 2"), leaf):
        for method, rows in (("eval", 1), ("d1", 5), ("d2", 13)):
            with pytest.raises(DomainViolation) as one:
                getattr(f, method)(xs[12])
            calls.clear()
            with pytest.raises(DomainViolation) as many:
                getattr(f, method)(xs)
            assert len(calls) == 14 and sum(calls) == (20 + 13) * rows
            assert str(many.value) == str(one.value)
            assert many.value.point == xs[12].tolist()


def test_a_failing_black_box_table_names_the_one_point_error():
    xs = UNIT.sample(20, seed=2)
    g = MetricField.from_function(UNIT, _failing_at(
        xs[12], lambda ys: np.einsum("mi,mj->mij", ys, ys) + np.eye(2), []), validate=False)
    for call in (g.matrix, lambda p: g.jet(p, 2)):
        with pytest.raises(DomainViolation) as one:
            call(xs[12])
        with pytest.raises(DomainViolation) as many:
            call(xs)
        assert str(many.value) == str(one.value)
        assert many.value.point == one.value.point == xs[12].tolist()


def test_algebra_on_a_black_box_tables_entries_makes_one_stencil_call():
    calls = []

    def fn(ys):
        calls.append(len(ys))
        return np.einsum("mi,mj->mij", ys, ys) + np.eye(2)

    g = MetricField.from_function(UNIT, fn, validate=False)
    lam = g.entries[0][0] * 3.0 + g.entries[0][1]
    xs = UNIT.sample(20, seed=2)
    for method, rows in (("eval", 1), ("d1", 5), ("d2", 13)):
        calls.clear()
        stacked = getattr(lam, method)(xs)
        assert calls == [20 * rows]
        assert np.array_equal(stacked, _per_point(getattr(lam, method), xs))
    mats = g.matrix(xs)
    assert np.array_equal(lam.eval(xs), mats[:, 0, 0] * 3.0 + mats[:, 0, 1])


def test_a_stacked_reindexed_leaf_equals_its_one_point_calls(columns_only):
    line = Chart(("u",), ((-3.0, 3.0),))
    chart3 = Chart(("x", "y", "z"), ((-1.5, 1.5),) * 3)
    lifted = ReindexedField(chart3, NumericField(line, per_row(lambda u: math.sin(u[0]) ** 3)),
                            (2,))
    pair = ReindexedField(chart3, NumericField(UNIT, per_row(lambda u: u[0] * math.exp(u[1]))),
                          (2, 0))
    f = lifted * coord(chart3, "x") + pair
    xs = chart3.sample(25, seed=3)
    for method in ("eval", "d1", "d2"):
        assert np.array_equal(getattr(f, method)(xs), _per_point(getattr(f, method), xs))


# -- the curvature kernels on stacks ---------------------------------------------------


def _linked(case):
    """(metrics, L, eps_sym_factor): g (and its partner) with the field L
    that links them, or the sphere flow's finite-difference L."""
    if case == "lc3":
        g, gbar, L = _lc3()
        return (g, gbar), L, 1e-9
    if case == "random_spec(2, 4)":
        g, _, L = build_lc_pair(random_spec(2, 4))
        return (g, gbar_from_l(g, L)), L, 1e-9
    bundle = builtin_example(case)
    if case == "torus":
        pair = MetricPair(bundle.metric, bundle.partner)
        return (pair.g, pair.gbar), l_field_from_pair(pair), 1e-9
    gen = bundle.vector_fields["projective_generator"]
    return (bundle.metric,), bm_from_flow_field(ProjectiveFlowSpec(bundle.metric, gen)), 1e-3


@pytest.mark.parametrize("count", [1, 200])
@pytest.mark.parametrize("case", ["lc3", "random_spec(2, 4)", "torus", "sphere_beltrami"])
def test_stacked_curvature_kernels_equal_the_one_point_kernels(case, count):
    metrics, L, eps = _linked(case)
    xs = metrics[0].chart.sample(count, seed=6)
    ps = np.random.default_rng(count).standard_normal(xs.shape)
    for g in metrics:
        for kernel in (christoffel, riemann, projective_weyl):
            stacked = kernel(g, xs)
            assert stacked.shape[0] == count
            assert np.array_equal(stacked, _per_point(lambda x: kernel(g, x), xs))
    g = metrics[0]
    for kernel in (covariant_endo_derivative, lambda g, L, x: bm_residual(g, L, x, eps)):
        assert np.array_equal(kernel(g, L, xs), _per_point(lambda x: kernel(g, L, x), xs))
    torsion = nijenhuis_torsion(L, xs)
    assert torsion.shape == (count,) + (g.dim,) * 3
    assert np.array_equal(torsion, _per_point(lambda x: nijenhuis_torsion(L, x), xs))
    energy = hamiltonian(g, xs, ps)
    assert np.array_equal(energy, [hamiltonian(g, x, p) for x, p in zip(xs, ps)])
    assert type(bm_residual(g, L, xs[0], eps)) is float
    assert type(hamiltonian(g, xs[0], ps[0])) is float


_CHECKS = [NotSelfAdjoint, NotPositiveDefinite, SingularMetric, DomainViolation]


def _faulty(xs, faults):
    """g = diag(2 + x, 1 + y) and L = diag(1 + xy, 2) on UNIT, made to fail
    at each point xs[k] of faults {k: error class} the check raising it."""
    at = {tuple(xs[k]): err for k, err in faults.items()}

    def metric(x):
        fault = at.get(tuple(x))
        if fault is DomainViolation:
            raise ValueError("math domain error")
        g00 = {NotPositiveDefinite: -1.0, SingularMetric: 1e-14}.get(fault, 2.0 + x[0])
        return np.diag([g00, 1.0 + x[1]])

    def endo(x):
        asymmetric = at.get(tuple(x)) is NotSelfAdjoint
        return np.array([[1.0 + x[0] * x[1], 0.5 if asymmetric else 0.0], [0.0, 2.0]])

    return (MetricField.from_function(UNIT, per_row(metric), validate=False),
            EndomorphismField.from_function(UNIT, per_row(endo)))


@pytest.mark.parametrize("err", _CHECKS)
@pytest.mark.parametrize("other", [None] + _CHECKS)
def test_a_failing_curvature_stack_raises_as_its_first_failing_point(err, other):
    xs = UNIT.sample(20, seed=9)
    # err at the 8th point, alone or with another check failing at the 4th or the 13th
    cases = [({7: err}, 7)] if other is None else [({3: other, 7: err}, 3),
                                                  ({7: err, 12: other}, 7)]
    for faults, first in cases:
        g, L = _faulty(xs, faults)
        with pytest.raises(faults[first]) as one:
            bm_residual(g, L, xs[first])
        for audit in (lambda: bm_residual(g, L, xs), lambda: bm_residual_stats(g, L, xs)):
            with pytest.raises(type(one.value)) as many:
                audit()
            assert str(many.value) == str(one.value)
            assert getattr(many.value, "point", None) == getattr(one.value, "point", None)
        assert getattr(one.value, "point", None) in (None, xs[first].tolist())


def test_a_failing_energy_stack_raises_as_its_first_failing_point():
    xs = UNIT.sample(20, seed=9)
    ps = np.ones_like(xs)
    singular, undefined = tuple(xs[7]), tuple(xs[12])

    def metric(x):
        if tuple(x) == undefined:
            raise ValueError("math domain error")
        return np.diag([0.0 if tuple(x) == singular else 2.0 + x[0], 1.0])

    g = MetricField.from_function(UNIT, per_row(metric), validate=False)
    # a stacked build fails at the 13th point first; the loop meets the 8th
    with pytest.raises(SingularMetric) as err:
        hamiltonian(g, xs, ps)
    assert err.value.point == xs[7].tolist()
    with pytest.raises(DomainViolation) as err:
        hamiltonian(g, xs[8:], ps[8:])
    assert err.value.point == xs[12].tolist()


# -- NaN in the curvature kernels -----------------------------------------------------


def _nan_right_metric():
    nan_right = NumericField(UNIT, per_row(lambda x: 2.0 if x[0] <= 0.5 else math.nan))
    zero, one = ConstantField(UNIT, 0.0), ConstantField(UNIT, 1.0)
    return MetricField(UNIT, [[nan_right, zero], [zero, one]], validate=False)


def test_a_nan_metric_is_a_domain_violation_in_the_curvature_kernels():
    g = _nan_right_metric()
    with pytest.raises(DomainViolation, match=r"non-finite metric entry at \[0.75, 0.5\]"):
        christoffel(g, np.array([0.75, 0.5]))
    with pytest.raises(DomainViolation, match=r"non-finite metric entry at \[0.75, 0.5\]"):
        g.inverse(np.array([0.75, 0.5]))
    pts = UNIT.sample(50, seed=0)
    for audit in (lambda: weyl_pair_defect(MetricPair(g, g), pts),
                  lambda: affine_equivalence_check(MetricPair(g, g), samples=50)):
        with pytest.raises(DomainViolation) as err:
            audit()
        assert err.value.point in pts.tolist()


def test_a_nan_endomorphism_is_a_domain_violation_in_the_residual_and_the_defect():
    nan_right = NumericField(UNIT, per_row(lambda x: 1.0 if x[0] <= 0.5 else math.nan))
    zero, two = ConstantField(UNIT, 0.0), ConstantField(UNIT, 2.0)
    L = EndomorphismField(UNIT, [[nan_right, zero], [zero, two]])
    g = MetricField.euclidean(UNIT)
    pts = UNIT.sample(50, seed=0)
    first = pts[int(np.argmax(pts[:, 0] > 0.5))].tolist()
    # the residual's self-adjointness check refuses the NaN endomorphism first
    with pytest.raises(DomainViolation, match="non-finite endomorphism entry") as err:
        bm_residual_stats(g, L, pts)
    assert err.value.point == first
    with pytest.raises(DomainViolation, match="non-finite endomorphism entry") as err:
        L.self_adjoint_defect(g, pts)
    assert err.value.point == first
    # the metric is refused before the endomorphism
    with pytest.raises(DomainViolation, match="non-finite metric entry") as err:
        L.self_adjoint_defect(_nan_right_metric(), pts)
    assert err.value.point == first


def test_a_finite_endomorphism_with_a_nan_derivative_is_refused_before_the_residual():
    pts = UNIT.sample(50, seed=0)
    samples = {tuple(x) for x in pts}
    # finite at every sample point; NaN at the stencil's neighbours where x > 0.5
    nan_near = NumericField(
        UNIT, per_row(lambda x: 1.0 if x[0] <= 0.5 or tuple(x) in samples else math.nan))
    zero, two = ConstantField(UNIT, 0.0), ConstantField(UNIT, 2.0)
    L = EndomorphismField(UNIT, [[nan_near, zero], [zero, two]])
    g = MetricField.euclidean(UNIT)
    assert np.isfinite(L.matrix(pts)).all()
    with pytest.raises(DomainViolation, match="non-finite endomorphism derivative entry") as err:
        bm_residual_stats(g, L, pts)
    assert err.value.point == pts[int(np.argmax(pts[:, 0] > 0.5))].tolist()


# -- the checked inverse and the block constants -----------------------------------------


@pytest.mark.parametrize("case", ["lc3", "random_spec(2, 4)"])
def test_stacked_metric_inverse_equals_the_one_point_inverses(case):
    g = _tables(case)[0]
    xs = g.chart.sample(201, seed=4)
    assert np.array_equal(g.inverse(xs), _per_point(g.inverse, xs))
    assert np.array_equal(g.inverse(xs[:1]), g.inverse(xs[0])[None])


@pytest.mark.parametrize("case", ["lc3", "random_spec(2, 4)"])
def test_stacked_metric_det_equals_the_one_point_dets(case):
    g = _tables(case)[0]
    xs = g.chart.sample(201, seed=4)
    assert type(g.det(xs[0])) is float
    assert np.array_equal(g.det(xs), _per_point(g.det, xs))


def test_a_singular_metric_stack_raises_as_its_first_singular_point():
    xs = UNIT.sample(20, seed=9)
    g, _ = _faulty(xs, {7: SingularMetric, 12: SingularMetric})
    with pytest.raises(SingularMetric) as one:
        g.inverse(xs[7])
    with pytest.raises(SingularMetric) as many:
        g.inverse(xs)
    assert str(many.value) == str(one.value)
    assert str(one.value) == f"metric numerically singular at {xs[7].tolist()}"


@pytest.mark.parametrize("seed, dim", [(0, 3), (2, 4), (3, 2)])
def test_k_constants_equal_the_per_point_loop(seed, dim):
    spec = random_spec(seed, dim)
    g, _, _ = build_lc_pair(spec, partner=False)
    pts = spec.chart.sample(300, seed=0)
    for curvature in (0.0, 1.0, -0.5):
        rows = k_constants(spec, curvature, samples=300)
        for p, row in zip(spec.p_fields(), rows):
            vals = np.array([float(p.d1(x) @ g.inverse(x) @ p.d1(x)) / (4.0 * p.eval(x))
                             + curvature * p.eval(x) for x in pts])
            assert (row["mean"], row["std"], row["min"], row["max"]) == (
                float(vals.mean()), float(vals.std()), float(vals.min()), float(vals.max()))
            assert [row["field"](x) for x in pts[:3]] == vals[:3].tolist()


# -- the shared scan helpers ------------------------------------------------------------


def test_worst_point_keeps_the_first_of_tied_maxima():
    pts = np.arange(10.0).reshape(5, 2)
    assert worst_point([0.5, 2.0, 1.0, 2.0, 0.0], pts, "value") == (2.0, [2.0, 3.0])


def test_worst_point_of_an_all_zero_scan_names_no_point():
    pts = np.arange(10.0).reshape(5, 2)
    assert worst_point(np.zeros(5), pts, "value") == (0.0, None)
    assert worst_point([], pts[:0], "value") == (0.0, None)
    with pytest.raises(DomainViolation, match=r"non-finite value entry at \[4.0, 5.0\]"):
        worst_point([0.0, 1.0, math.nan, 3.0, 0.0], pts, "value")


def test_scan_raises_an_earlier_check_failure_before_a_later_domain_error():
    line = Chart(("x",), ((-1.0, 1.0),))
    f = ExpressionField(line, "log(x)")
    pts = np.array([[0.5], [0.05], [-0.5], [0.9]])

    def above(vals, p):
        if (vals < -2.0).any():
            raise OrderingViolated(f"below -2 at {p[int(np.argmax(vals < -2.0))]}")

    with pytest.raises(OrderingViolated, match=r"below -2 at \[0.05\]"):
        scan(pts, f.eval, above)
    with pytest.raises(DomainViolation) as one:
        f.eval(pts[2])
    with pytest.raises(DomainViolation) as many:
        scan(pts[[0, 2, 3]], f.eval, above)
    assert str(many.value) == str(one.value)
    assert np.array_equal(scan(pts[[0, 3]], f.eval, above), f.eval(pts[[0, 3]]))


# -- the audit kernels: brackets, split, linking endomorphism, Lie derivative ----


def _audited(case):
    """(g, gbar, L, v, split positions): a metric with a partner, the
    endomorphism linking them, a vector field and the spectral gaps of L."""
    if case == "example1":
        bundle = builtin_example(case)
        g = bundle.metric
        L = EndomorphismField.from_rows(g.chart, [["13 + x", "0"], ["0", "40 + y"]])
        return g, gbar_from_l(g, L), L, bundle.vector_fields["rotation"], (1,)
    if case == "lc3":
        g, gbar, L = _lc3()
        return g, gbar, L, VectorField(g.chart, ("x2", "x1*x3", "1 + x1^2")), (1, 2)
    g, _, L = build_lc_pair(random_spec(2, 4))
    v = VectorField(g.chart, ("x2", "-x1", "x3*x4", "1"))
    return g, gbar_from_l(g, L), L, v, (2, 3)


@pytest.mark.parametrize("case", ["lc3", "random_spec(2, 4)", "example1"])
def test_stacked_audit_kernels_equal_the_one_point_kernels(case):
    g, gbar, L, v, splits = _audited(case)
    xs = g.chart.sample(50, seed=6)
    ps = np.random.default_rng(4).standard_normal(xs.shape)
    fam = IntegralFamily(g, L)
    jet = fam._jet(PhaseState(xs, ps))
    for part in ("a", "ax", "ap", "hx", "hp", "brackets", "energy_brackets"):
        one = [getattr(fam._jet(PhaseState(x, p)), part) for x, p in zip(xs, ps)]
        assert np.array_equal(getattr(jet, part), one), part
    for r in splits:
        stacked = _split_at(g, L, r, xs, 1e-7)
        assert all(np.array_equal(s, o) for s, o in zip(
            stacked, _per_point(lambda x: _split_at(g, L, r, x, 1e-7), xs)))
    assert np.array_equal(l_from_pair(g, gbar, xs), _per_point(
        lambda x: l_from_pair(g, gbar, x), xs))
    assert np.array_equal(lie_derivative_metric(g, v, xs), _per_point(
        lambda x: lie_derivative_metric(g, v, x), xs))
    assert l_from_pair(g, gbar, xs[0]).shape == (g.dim,) * 2


def test_the_point_audits_take_one_point_as_its_stack_of_one():
    from projeq.flows import ordering_audit

    g, _, L = build_lc_pair(random_spec(2, 3), partner=False)
    for x in g.chart.sample(4, seed=1):
        assert bm_residual_stats(g, L, x) == bm_residual_stats(g, L, [x])
        assert ordering_audit(g, L, x) == ordering_audit(g, L, [x])
        assert ordering_audit(g, L, x)["points"] == 1


def _commutation_loop(fam, states, ts):
    """The report as the loop over states computed it, one _jet per state."""
    n, m = fam.g.dim, len(ts)
    ii, jj = np.triu_indices(m, 1)
    labels = [[ts[i], ts[j]] for i, j in zip(ii, jj)] + [[t, "energy"] for t in ts]
    w = np.array([_powers(t, n) for t in ts])
    worst, detail = 0.0, None
    for state in states:
        jet = fam._jet(state)
        mag = np.abs(w @ jet.a)
        br = np.concatenate([(w @ jet.brackets @ w.T)[ii, jj], w @ jet.energy_brackets])
        rel = np.abs(br) / np.concatenate([1.0 + mag[ii] + mag[jj], 1.0 + mag])
        k = int(np.argmax(rel))
        if rel[k] > worst:
            worst = float(rel[k])
            detail = {"t_pair": list(labels[k]), "x": [float(v) for v in state.x],
                      "bracket": float(br[k])}
    return {"max_scaled_bracket": worst, "tol": 1e-8, "pass": bool(worst <= 1e-8),
            "states": len(states), "t_grid": list(ts), "worst": detail}


@pytest.mark.parametrize("case", ["lc3", "random_spec(2, 4)"])
def test_commutation_report_equals_the_per_state_loop(case):
    g, _, L, _, _ = _audited(case)
    fam = IntegralFamily(g, L)
    for seed in range(3):
        states = seeded_states(g, g.chart, 20, seed)
        ts = list(np.linspace(-1.0, 9.0, 5 + seed))
        assert fam.commutation_report(states, ts) == _commutation_loop(fam, states, ts)


def _broken(xs, faults):
    """diag(2 + x, 1 + y) on UNIT as a black box, at each point xs[k] of
    faults {k: kind} raising a ValueError ("domain"), exactly singular
    ("singular") or with a NaN entry ("nan")."""
    at = {tuple(xs[k]): kind for k, kind in faults.items()}

    def metric(x):
        kind = at.get(tuple(x))
        if kind == "domain":
            raise ValueError("math domain error")
        return np.diag([{"singular": 0.0, "nan": math.nan}.get(kind, 2.0 + x[0]), 1.0 + x[1]])

    return MetricField.from_function(UNIT, per_row(metric), validate=False)


def _loop_error(fn, items):
    """The error the loop over items raised first, or None."""
    for item in items:
        try:
            fn(item)
        except (ProjeqError, np.linalg.LinAlgError) as err:
            return err
    return None


def _raises_as(expected, audit):
    assert expected is not None
    with pytest.raises(type(expected)) as err:
        audit()
    assert str(err.value) == str(expected)
    assert getattr(err.value, "point", None) == getattr(expected, "point", None)


# a fault at the 4th point, then a domain error at the 8th that a stacked
# evaluation of the metric meets first
@pytest.mark.parametrize("first", ["singular", "nan", "domain"])
def test_a_failing_audit_stack_raises_what_the_loop_raised_first(first):
    xs = UNIT.sample(20, seed=0)
    faults = {3: first, 7: "domain"}
    L = EndomorphismField.from_rows(UNIT, [["1 + x*y", "0"], ["0", "3"]])
    good = MetricField.from_rows(UNIT, [["2", "0"], ["0", "3"]])

    g = _broken(xs, faults)
    states = [PhaseState(x, np.ones(2)) for x in xs]
    fam = IntegralFamily(g, L)
    _raises_as(_loop_error(lambda s: fam.commutation_report([s], [0.0, 1.0]), states),
               lambda: fam.commutation_report(states, [0.0, 1.0]))
    _raises_as(_loop_error(lambda x: _split_at(g, L, 1, x, 1e-7), xs),
               lambda: split(g, L, 1, samples=20, seed=0))
    # a generator undefined at the 6th point, met after the metric in each point's turn
    undefined = tuple(xs[5])
    rotation = NumericField(
        UNIT, per_row(lambda x: math.sqrt(-1.0) if tuple(x) == undefined else x[1]))
    v = VectorField(UNIT, (rotation, "-x"))
    _raises_as(_loop_error(lambda x: lie_derivative_metric(g, v, x), xs),
               lambda: killing_residual(g, v, samples=20, seed=0))
    if first != "nan":  # a NaN ratio passes the positivity check, as it did
        _raises_as(_loop_error(lambda x: l_from_pair(good, g, x), xs),
                   lambda: l_from_pair(good, g, xs))


# -- the roots of the integral family and the interlacing audit --------------------


def _roots_loop(fam, state):
    """(t-coefficients, roots) at one state, as the per-state np.roots call
    computed them."""
    v = np.linalg.solve(fam.g.matrix(state.x), state.p)
    coeffs = np.array([float(state.p @ (c @ v)) for c in fam.coeff_matrices(state.x)])
    return coeffs, np.sort(np.roots(coeffs[::-1]).real)


def _interlacing_loop(fam, states, slack=1e-9):
    """The audit as the loop over states computed it."""
    worst, detail = -np.inf, None
    for state, lam in zip(states, spectra_at(fam.g, fam.L, [s.x for s in states])):
        for i, t in enumerate(_roots_loop(fam, state)[1]):
            viol = max(lam[i] - t, t - lam[i + 1])
            if viol > worst:
                worst = viol
                detail = {"x": [float(v) for v in state.x], "root_index": i,
                          "root": float(t), "bracket": [float(lam[i]), float(lam[i + 1])]}
    return {"max_violation": worst, "slack": slack, "pass": bool(worst <= slack),
            "states": len(states), "worst": detail}


@pytest.mark.parametrize("case", ["lc3", "random_spec(2, 4)"])
def test_stacked_roots_and_interlacing_equal_the_per_state_loop(case):
    g, _, L, _, _ = _audited(case)
    fam = IntegralFamily(g, L)
    for seed in range(3):
        states = seeded_states(g, g.chart, 200, seed)
        stacked = PhaseState([s.x for s in states], [s.p for s in states])
        coeffs, roots = map(np.array, zip(*(_roots_loop(fam, s) for s in states)))
        assert np.array_equal(fam.t_coefficients(stacked), coeffs)
        assert np.array_equal(fam.roots(stacked), roots)
        assert np.array_equal(fam.roots(states[0]), roots[0])
        assert interlacing_audit(fam, states) == _interlacing_loop(fam, states)


def test_zero_low_order_coefficients_are_roots_at_exactly_zero():
    chart = Chart(("x", "y", "z", "w"), ((-0.5, 0.5),) * 4)
    g = MetricField.diagonal(chart, ("1.3 + x", "2.9 + y", "0.7 + z", "1.1 + w"))
    # integer eigenvalues keep the Faddeev-LeVerrier matrices exact: with two
    # zero eigenvalues a_0 = 0, and a_1 = 0 too where p_0 = p_1 = 0
    L = EndomorphismField.from_rows(chart, [["0", "0", "0", "0"], ["0", "0", "0", "0"],
                                            ["0", "0", "2", "0"], ["0", "0", "0", "5"]])
    fam = IntegralFamily(g, L)
    xs = chart.sample(30, seed=1)
    ps = np.random.default_rng(3).standard_normal(xs.shape)
    ps[10:20, :2] = 0.0
    state = PhaseState(xs, ps)
    coeffs = fam.t_coefficients(state)
    assert (coeffs[:, 0] == 0.0).all() and (coeffs[10:20, 1] == 0.0).all()
    loop = np.array([_roots_loop(fam, PhaseState(x, p))[1] for x, p in zip(xs, ps)])
    assert np.array_equal(fam.roots(state), loop)
    assert (np.sum(loop == 0.0, axis=1) == [1] * 10 + [2] * 10 + [1] * 10).all()


def _rotation_family():
    """L with a rotation block of angular speed 1 + x: along e_z,
    I_t = t^2 + (1 + x)^2 has the roots +-(1 + x) i."""
    chart = box_chart(("x", "y", "z"), half_width=1.0)
    L = EndomorphismField.from_rows(
        chart, [["0", "-1 - x", "0"], ["1 + x", "0", "0"], ["0", "0", "1"]])
    return IntegralFamily(MetricField.euclidean(chart), L, check_points=0)


@pytest.mark.parametrize("first", ["zero", "complex"])
def test_a_failing_roots_stack_raises_what_the_loop_raised_first(first):
    fam = _rotation_family()
    xs = np.column_stack([np.linspace(-0.5, 0.5, 10), np.zeros(10), np.zeros(10)])
    ps = np.tile([1.0, 0.0, 0.0], (10, 1))  # real roots: I_t = (1 - t)(-t)
    faults = {3: first, 7: {"zero": "complex", "complex": "zero"}[first]}
    for k, kind in faults.items():
        ps[k] = 0.0 if kind == "zero" else [0.0, 0.0, 1.0]
    states = [PhaseState(x, p) for x, p in zip(xs, ps)]
    expected = _loop_error(fam.roots, states)
    assert isinstance(expected, ZeroVelocity if first == "zero" else ComplexRoots)
    _raises_as(expected, lambda: interlacing_audit(fam, states))
    # a stack whose only failing state is the 8th raises that state's error
    ps[3] = [1.0, 0.0, 0.0]
    _raises_as(_loop_error(fam.roots, [PhaseState(xs[7], ps[7])]),
               lambda: fam.roots(PhaseState(xs, ps)))
    if first == "complex":
        assert "exceeds clamp" in str(expected) and f"{1.0 + xs[3, 0]:.3e}" in str(expected)


# -- sectional curvature on stacks -------------------------------------------------


@pytest.mark.parametrize("case", ["torus", "sphere_beltrami", "example1"])
def test_stacked_sectional_equals_the_one_point_calls(case):
    g = builtin_example(case).metric
    xs = g.chart.sample(20, seed=3)
    us, vs = np.random.default_rng(2).standard_normal((2, 20, 2))
    stacked = sectional(g, xs, us, vs)
    assert np.array_equal(stacked, [sectional(g, x, u, v) for x, u, v in zip(xs, us, vs)])
    e1, e2 = np.eye(2)
    assert np.array_equal(sectional(g, xs, e1, e2), [sectional(g, x, e1, e2) for x in xs])
    assert type(sectional(g, xs[0], e1, e2)) is float


def test_a_degenerate_plane_raises_at_its_first_point():
    g = builtin_example("sphere_beltrami").metric
    xs = g.chart.sample(20, seed=3)
    us = np.tile([1.0, 0.0], (20, 1))
    vs = np.tile([0.0, 1.0], (20, 1))
    vs[6] = vs[11] = [2.0, 0.0]
    with pytest.raises(ValueError, match=r"do not span a plane") as err:
        sectional(g, xs, us, vs)
    assert str(xs[6].tolist()) in str(err.value)


# -- one field evaluation per kernel call ----------------------------------------------


@pytest.mark.parametrize("count", [None, 1, 12, 200])
@pytest.mark.parametrize("case", ["lc3", "random_spec(2, 4)", "torus"])
def test_jet_parts_equal_matrix_dmatrix_and_d2matrix_byte_for_byte(case, count):
    tables = _tables(case)[:1] if case == "torus" else _tables(case)
    for table in tables:
        xs = table.chart.sample(count or 1, seed=5)
        x = xs[0] if count is None else xs
        want = [table.matrix(x), table.dmatrix(x)]
        if isinstance(table, MetricField):
            want.append(table.d2matrix(x))
        for order in (1, 2):
            for part, single in zip(table.jet(x, order), want):
                assert part.shape == single.shape
                assert part.tobytes() == single.tobytes()


@pytest.mark.parametrize("count", [None, 30])
def test_each_kernel_reads_each_field_once(monkeypatch, count):
    (g, gbar), L, eps = _linked("random_spec(2, 4)")
    xs = g.chart.sample(count or 1, seed=2)
    x = xs[0] if count is None else xs
    calls, real = [], jets.Jets.__call__  # the Jets of each evaluation, in order
    monkeypatch.setattr(jets.Jets, "__call__", lambda self, *a: calls.append(self) or real(self, *a))
    for kernel, want in ((lambda: christoffel(g, x), [g._jets]),
                         (lambda: riemann(g, x), [g._jets]),
                         (lambda: projective_weyl(gbar, x), [gbar._jets]),
                         (lambda: bm_residual(g, L, x, eps), [g._jets, L._jets]),
                         (lambda: nijenhuis_torsion(L, x), [L._jets]),
                         (lambda: sectional(g, x, *np.eye(4)[:2]), [g._jets])):
        calls.clear()
        kernel()
        assert calls == want


@pytest.mark.parametrize("count", [None, 30])
def test_sectional_from_one_jet_equals_the_matrix_and_riemann_byte_for_byte(count):
    g = _linked("random_spec(2, 4)")[0][0]
    xs = g.chart.sample(count or 1, seed=2)
    x = xs[0] if count is None else xs
    u, v = np.eye(4)[0], np.array([0.5, 1.0, -0.25, 2.0])
    # riem given: the Gram matrix is g.matrix(x) and the curvature riemann(g, x)
    want = sectional(g, x, u, v, riem=riemann(g, x))
    assert np.asarray(sectional(g, x, u, v)).tobytes() == np.asarray(want).tobytes()


def _faults(kind):
    """(g, L, text, kernels): a closed-form g and L on [-1, 1]^2 that fail at
    the bad points below, the one-point text there and the kernels that meet it."""
    chart = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    g_rows = {"nan": [["1 + x^2 + y^1000 - y^1000", "0"], ["0", "2"]],  # inf - inf at y = 3
              "svd cap": [["1 + y^2", "0"], ["0", "x^2 + 1e-14"]]}.get(
        kind, [["1 + x^2", "0"], ["0", "2 + y"]])
    l_rows = {"log": [["log(x)", "0"], ["0", "2"]],  # as in probe_log_domain.json
              "asymmetric": [["2", "exp(-1000*x^2)"], ["0", "3"]]}.get(
        kind, [["2 + x*y", "0"], ["0", "3"]])
    g = MetricField.from_rows(chart, g_rows, validate=False)
    L = EndomorphismField.from_rows(chart, l_rows)
    pair = [lambda x: bm_residual(g, L, x), lambda x: covariant_endo_derivative(g, L, x)]
    metric = [lambda x, k=k: k(g, x) for k in (christoffel, riemann, projective_weyl)]
    return g, L, *{
        "nan": ("non-finite metric entry", metric + pair),
        "svd cap": ("metric numerically singular", metric + pair),
        "log": ("math domain error in 'log(x)'", pair + [lambda x: nijenhuis_torsion(L, x)]),
        "asymmetric": ("g*L asymmetric by 1.000e+00", pair[:1]),
    }[kind]


@pytest.mark.parametrize("kind", ["nan", "svd cap", "log", "asymmetric"])
def test_a_kernel_stack_fails_at_its_first_failing_point_with_the_one_point_text(kind):
    g, L, text, kernels = _faults(kind)
    xs = np.column_stack([np.linspace(0.3, 0.9, 12), np.linspace(-0.5, 0.5, 12)])
    bad = [0.0, 3.0 if kind == "nan" else 0.2]
    xs[4], xs[9] = bad, [0.0, bad[1] + 0.1]  # failing points: the 5th, then the 10th
    for kernel in kernels:
        with pytest.raises(ProjeqError) as one:
            kernel(xs[4])
        assert str(one.value).startswith(text) and one.value.point == bad
        with pytest.raises(type(one.value)) as many:
            kernel(xs)
        assert str(many.value) == str(one.value) and many.value.point == bad


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stacked", [False, True], ids=["one point", "3-point stack"])
def test_the_residual_refuses_an_infinite_gradient_before_its_products(stacked):
    # d/dx x^0.01 = 0.01 x^-0.99 overflows at x = 5e-324; the matrices stay finite
    g = MetricField.euclidean(UNIT)
    L = EndomorphismField.from_rows(UNIT, [["2 + x^0.01", "0"], ["0", "3"]])
    bad = [5e-324, 0.5]
    x = np.array([[0.3, 0.5], bad, [0.6, 0.5]]) if stacked else np.array(bad)
    with pytest.raises(DomainViolation) as err:
        bm_residual(g, L, x)
    assert str(err.value) == f"non-finite endomorphism derivative entry at {bad}"
    assert err.value.point == bad


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stacked", [False, True], ids=["one point", "3-point stack"])
def test_det_and_the_torsion_refuse_a_nan_point(stacked):
    g, _, L = build_lc_pair(random_spec(2, 4), partner=False)
    good, nan = g.chart.center(), np.full(4, math.nan)
    x = np.array([good, nan, good]) if stacked else nan
    for call, what in ((g.det, "metric"), (lambda p: nijenhuis_torsion(L, p), "endomorphism")):
        with pytest.raises(DomainViolation) as err:
            call(x)
        assert str(err.value) == f"non-finite {what} entry at [nan, nan, nan, nan]"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stacked", [False, True], ids=["one point", "3-point stack"])
def test_the_flow_kernels_refuse_a_nan_point(stacked):
    g, _, L = build_lc_pair(random_spec(2, 4), partner=False)
    fam = IntegralFamily(g, L)
    good, nan = g.chart.center(), np.full(4, math.nan)
    x = np.array([good, nan, good]) if stacked else nan
    p = np.ones_like(x)
    state = PhaseState(x, p)
    for call, what in ((lambda: hamiltonian(g, x, p), "hamiltonian"),
                       (lambda: fam.value(state, 0.5), "I_t"),
                       (lambda: fam.t_coefficients(state), "I_t coefficient"),
                       (lambda: fam.gradients(state, 0.5), "I_t gradient")):
        with pytest.raises(DomainViolation) as err:
            call()
        assert str(err.value) == f"non-finite {what} entry at [nan, nan, nan, nan]"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_flow_kernels_fail_a_stack_at_its_first_failing_state():
    # g is NaN at the first state and singular at the second: the stacked solve
    # fails at the second, and the replay names the first, as a loop over states does
    chart = Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0)))
    g = MetricField.diagonal(chart, ["x^2", "1 + y^1000 - y^1000"], validate=False)
    fam = IntegralFamily(g, EndomorphismField.identity(chart), check_points=0)
    x = np.array([[0.5, 3.0], [0.0, 0.5]])
    stack, first = PhaseState(x, np.ones_like(x)), PhaseState(x[0], np.ones(2))
    for call in (lambda s: hamiltonian(g, s.x, s.p), lambda s: fam.value(s, 0.5),
                 lambda s: fam.values(s, (0.5,)), fam.t_coefficients,
                 lambda s: fam.gradients(s, 0.5)):
        with pytest.raises(DomainViolation) as one:
            call(first)
        with pytest.raises(DomainViolation) as stacked:
            call(stack)
        assert str(stacked.value) == str(one.value) and one.value.point == [0.5, 3.0]


# g is numerically singular at y = 1e-13, singular at y = 0 and NaN at y = 3, where y^1000 overflows
FAULTY = MetricField.diagonal(Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0))),
                              ["1", "y + y^1000 - y^1000"], validate=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("y", [1e-13, 0.0])
def test_the_metric_inverse_fails_a_stack_as_its_loop_does(y):
    # the stacked check refuses the NaN row first; the loop stops at the singular row before it
    x = np.array([[0.0, 0.5], [0.0, y], [0.0, 3.0]])
    with pytest.raises(SingularMetric) as one:
        FAULTY.inverse(x[1])
    with pytest.raises(SingularMetric) as stacked:
        FAULTY.inverse(x)
    assert str(stacked.value) == str(one.value) == f"metric numerically singular at [0.0, {y}]"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stacked", [False, True], ids=["one point", "3-point stack"])
def test_sectional_refuses_a_nan_metric_before_the_plane_check(stacked):
    g, _, _ = build_lc_pair(random_spec(2, 4), partner=False)
    good, nan = g.chart.center(), np.full(4, math.nan)
    x = np.array([good, nan, good]) if stacked else nan
    with pytest.raises(DomainViolation) as err:
        sectional(g, x, *np.eye(4)[:2])
    assert str(err.value) == "non-finite metric entry at [nan, nan, nan, nan]"
    y3 = np.array([[0.0, 0.5], [0.0, 3.0], [0.0, 0.5]]) if stacked else np.array([0.0, 3.0])
    with pytest.raises(DomainViolation) as err:
        sectional(FAULTY, y3, *np.eye(2))
    assert str(err.value) == "non-finite metric entry at [0.0, 3.0]"
