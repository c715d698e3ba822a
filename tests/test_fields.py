"""Field layer: coercion, exact derivatives, matrices of fields.

Derivative oracles are central finite differences on the compiled
evaluators; the symbolic path must beat the FD truncation error.
"""

import math

import numpy as np
import pytest

from projeq.chart import Chart, box_chart
from projeq.errors import (
    ChartError,
    ComplexRoots,
    DerivativeNotAvailable,
    DomainViolation,
    GapViolated,
    NonPositivePhi,
    NotPositiveDefinite,
    NotSelfAdjoint,
    OrderingViolated,
    PointError,
    SingularMatrix,
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
    block_diagonal,
    coord,
    finite_differences,
    fmat_adjugate,
    fmat_det,
    fmat_mul,
    fmat_scale,
    g_orthonormal_frame,
    require,
    require_finite,
)
from projeq.levicivita import (
    WarpedSpec,
    adjusted_metric,
    build_lc_pair,
    random_spec,
    warped_metric,
)
from projeq.pairs import gbar_from_l
from projeq.surfaces import LiouvilleData, builtin_example, liouville_build

CHART2 = Chart(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)))
CHART3 = Chart(("x", "y", "z"), ((-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)))

POINTS2 = [np.array(p) for p in [(0.3, -0.7), (-1.1, 0.2), (1.4, 1.3)]]


def per_row(fn):
    """A black box of the one-point callable fn: fn at each row of an (M, n)
    stack, stacked."""
    return lambda xs: np.array([fn(x) for x in xs])


def fd_grad(f, x, h=1e-6):
    out = np.empty(len(x))
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2 * h)
    return out


def fd_hess(f, x, h=1e-4):
    n = len(x)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
            xpp[i] += h
            xpp[j] += h
            xmm[i] -= h
            xmm[j] -= h
            xpm[i] += h
            xpm[j] -= h
            xmp[i] -= h
            xmp[j] += h
            out[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h * h)
    return out


# -- coercion -------------------------------------------------------------

def test_as_field_coerces_numbers_strings_fields():
    c = as_field(CHART2, 3.5)
    assert isinstance(c, ConstantField)
    e = as_field(CHART2, "x^2 + y")
    assert isinstance(e, ExpressionField)
    assert as_field(CHART2, e) is e


def test_coord_helper():
    f = coord(CHART2, "y")
    assert f.eval(np.array([1.0, -0.25])) == -0.25
    assert np.allclose(f.d1(np.array([1.0, -0.25])), [0.0, 1.0])


# -- exact derivatives ----------------------------------------------------

@pytest.mark.parametrize("text", [
    "x^2 + y^2", "sin(x)*cos(y)", "exp(x/3 - y/2)", "1/(4 + x^2 + y^2)",
    "sqrt(5 + x)", "tanh(x*y)", "log(3 + x^2)", "x^3*y - y^3*x",
])
@pytest.mark.parametrize("x", POINTS2)
def test_expression_field_gradient_and_hessian(text, x):
    f = ExpressionField(CHART2, text)
    assert np.allclose(f.d1(x), fd_grad(f.eval, x), atol=1e-8, rtol=1e-6)
    assert np.allclose(f.d2(x), fd_hess(f.eval, x), atol=1e-5, rtol=1e-4)


@pytest.mark.parametrize("x", POINTS2)
def test_field_algebra_derivatives(x):
    a = as_field(CHART2, "sin(x) + 2")
    b = as_field(CHART2, "y^2 + 1")
    combos = [a + b, a - b, a * b, a / b, a ** 3, -a, 2.0 * a, a + 1.0,
              1.0 / b, a.sqrt(), b.apply("tanh")]
    for f in combos:
        assert np.allclose(f.d1(x), fd_grad(f.eval, x), atol=1e-8, rtol=1e-6)
        assert np.allclose(f.d2(x), fd_hess(f.eval, x), atol=1e-4, rtol=1e-4)


def test_product_rule_matches_expanded_expression():
    a = as_field(CHART2, "x^2 + 1")
    b = as_field(CHART2, "y - 3")
    direct = as_field(CHART2, "(x^2 + 1)*(y - 3)")
    for x in POINTS2:
        assert (a * b).eval(x) == pytest.approx(direct.eval(x), rel=1e-14)
        assert np.allclose((a * b).d1(x), direct.d1(x), rtol=1e-13, atol=1e-13)
        assert np.allclose((a * b).d2(x), direct.d2(x), rtol=1e-12, atol=1e-12)


def test_numeric_field_matches_symbolic_to_fd_accuracy():
    sym = ExpressionField(CHART2, "exp(x)*sin(y)")
    num = NumericField(CHART2, per_row(lambda x: math.exp(x[0]) * math.sin(x[1])))
    for x in POINTS2:
        assert num.eval(x) == sym.eval(x)
        assert np.allclose(num.d1(x), sym.d1(x), atol=1e-8, rtol=1e-7)
        assert np.allclose(num.d2(x), sym.d2(x), atol=1e-4, rtol=1e-4)


def test_numeric_field_is_the_scalar_case_of_the_one_stencil():
    assert not {"_at", "eval", "d1", "d2"} & set(vars(NumericField))

    def fn(x):
        return math.exp(x[0]) * math.sin(x[1])

    num = NumericField(CHART2, per_row(fn))
    for x in POINTS2:
        values, grad, hess = finite_differences(per_row(fn), x, 2)
        assert type(num.eval(x)) is float and num.eval(x) == values[0]
        assert num.d1(x).tolist() == grad
        assert num.d2(x).ravel().tolist() == hess


def test_finite_differences_of_a_matrix_put_derivative_indices_last():
    x = np.array([0.3, -0.7])
    values, grad, hess = finite_differences(
        per_row(lambda y: np.outer(y, [1.0, y[0], y[1]])), x, 2)
    assert np.array(values).reshape(2, 3).tolist() == np.outer(x, [1.0, x[0], x[1]]).tolist()
    # d/dx_k of y_i * (1, y_0, y_1)_j, and the only nonzero second derivatives
    want = np.zeros((2, 3, 2))
    for i in range(2):
        want[i, 0, i] = 1.0
        for j in (1, 2):
            want[i, j, i] += x[j - 1]
            want[i, j, j - 1] += x[i]
    assert np.allclose(np.reshape(grad, (2, 3, 2)), want, rtol=1e-9, atol=1e-9)
    want2 = np.zeros((2, 3, 2, 2))
    for i in range(2):
        for j in (1, 2):
            want2[i, j, i, j - 1] += 1.0
            want2[i, j, j - 1, i] += 1.0
    assert np.allclose(np.reshape(hess, (2, 3, 2, 2)), want2, atol=1e-6)


@pytest.mark.parametrize("method", ["eval", "d1", "d2"])
def test_black_box_domain_error_is_a_domain_violation_at_the_point(method):
    x = np.array([-0.5, 0.25])
    num = NumericField(CHART2, per_row(lambda y: math.log(y[0])))
    with pytest.raises(DomainViolation) as err:
        getattr(num, method)(x)
    assert err.value.point == [-0.5, 0.25] and "math domain error" in str(err.value)
    table = MetricField.from_function(CHART2, per_row(lambda y: np.diag([math.log(y[0]), 1.0])),
                                      validate=False)
    with pytest.raises(DomainViolation) as err:
        {"eval": table.matrix, "d1": table.dmatrix, "d2": table.d2matrix}[method](x)
    assert err.value.point == [-0.5, 0.25]


def test_black_box_table_entries_are_views_of_the_matrix():
    calls = []

    def fn(y):
        calls.append(1)
        return np.array([[2.0 + y[0] ** 2, y[0] * y[1]], [y[0] * y[1], 1.0 + y[1] ** 2]])

    g = MetricField.from_function(CHART2, per_row(fn), validate=False)
    assert calls == []  # one view per symmetric pair: nothing sampled to check symmetry
    assert g.entries[0][1] is g.entries[1][0]
    x = POINTS2[0]
    for order, want in ((0, 1), (1, 5), (2, 13)):
        calls.clear()
        g.jet(x, order)
        assert len(calls) == want  # 1 + 2n, then 2n^2 more for the Hessians
    lam = g.entries[0][0] * 3.0 + g.entries[0][1]  # field algebra on the entries
    assert lam.eval(x) == 3.0 * fn(x)[0, 0] + fn(x)[0, 1]
    assert np.allclose(lam.d1(x), [6.0 * x[0] + x[1], x[0]], rtol=1e-9)
    endo = EndomorphismField.from_function(CHART2, per_row(fn))
    assert endo.entries[0][1] is not endo.entries[1][0]
    assert endo.matrix(x).tolist() == g.matrix(x).tolist()


def test_abs_crossing_zero_poisons_derivatives():
    f = ExpressionField(CHART2, "abs(x)")
    assert f.eval(np.array([-0.5, 0.0])) == 0.5
    with pytest.raises(DerivativeNotAvailable):
        f.d1(np.array([0.5, 0.0]))


def test_abs_away_from_zero_differentiates():
    f = ExpressionField(CHART2, "abs(5 + x)")
    x = np.array([0.25, 0.0])
    assert np.allclose(f.d1(x), [1.0, 0.0])


def test_apply_abs_rejected_when_crossing():
    a = as_field(CHART2, "x")
    with pytest.raises(DerivativeNotAvailable):
        a.apply("abs")


def test_sample_range_brackets_extremes():
    f = as_field(CHART2, "sin(x)")
    lo, hi = f.sample_range(count=400, seed=0)
    assert -1.0 <= lo < -0.9
    assert 0.9 < hi <= 1.0


@pytest.mark.parametrize("method", ["eval", "d1", "d2"])
def test_domain_error_names_the_expression_and_point(method):
    f = ExpressionField(CHART2, "sqrt(x) + y")
    with pytest.raises(DomainViolation) as exc:
        getattr(f, method)(np.array([-0.5, 1.0]))
    assert exc.value.point == [-0.5, 1.0]
    assert "sqrt(x)" in str(exc.value) and "[-0.5, 1.0]" in str(exc.value)


def test_reindexed_field_lifts_with_correct_slots():
    line = Chart(("u",), ((-3.0, 3.0),))
    inner = as_field(line, "u^2")
    lifted = ReindexedField(CHART3, inner, (2,))
    x = np.array([0.4, -0.9, 1.2])
    assert lifted.eval(x) == pytest.approx(1.44, rel=1e-14)
    g = lifted.d1(x)
    assert np.allclose(g, [0.0, 0.0, 2.4])
    h = lifted.d2(x)
    want = np.zeros((3, 3))
    want[2, 2] = 2.0
    assert np.allclose(h, want)


def test_expression_field_rejects_foreign_variables():
    from projeq.errors import UnknownIdentifier
    from projeq.expressions import parse_expression

    with pytest.raises(UnknownIdentifier):
        ExpressionField(CHART2, "x + q")
    foreign = parse_expression("x + q", names=("x", "q"))
    with pytest.raises(DerivativeNotAvailable):
        ExpressionField(CHART2, foreign)


@pytest.mark.parametrize("name", ["pi", "e", "sin", "sqrt"])
def test_a_coordinate_may_not_shadow_the_expression_language(name):
    with pytest.raises(ChartError, match=f"coordinate name '{name}'"):
        Chart(("x", name), ((0.0, 1.0), (0.0, 1.0)))


# -- metric fields ---------------------------------------------------------

def test_metric_validation_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        MetricField.diagonal(CHART2, ("x", "1"), validate=True)


def test_pd_report_names_a_nan_metric_point():
    nan_right = NumericField(CHART2, per_row(lambda x: math.nan if x[0] > 0.5 else 1.0))
    g = MetricField(CHART2, [[nan_right, ConstantField(CHART2, 0.0)],
                             [ConstantField(CHART2, 0.0), ConstantField(CHART2, 1.0)]],
                    validate=False)
    pts = CHART2.sample(40, seed=0)
    with pytest.raises(DomainViolation) as err:
        g.pd_report(samples=40, seed=0)
    assert err.value.point == pts[int(np.argmax(pts[:, 0] > 0.5))].tolist()


def test_metric_asymmetric_entries_rejected():
    rows = [["1", "x"], ["y", "1"]]
    with pytest.raises(ValueError):
        MetricField.from_rows(CHART2, rows, validate=False)


def test_metric_entries_differing_by_a_nan_are_rejected():
    # x^1000 overflows on this chart, so x^1000 - x^1000 is NaN
    big = Chart(("x", "y"), ((2.5, 3.5), (-1.0, 1.0)))
    with pytest.raises(ValueError, match=r"metric entries \(0,1\) vs \(1,0\) differ"):
        MetricField.from_rows(big, [["1", "x^1000 - x^1000"], ["0", "1"]], validate=False)


def test_metric_symmetric_distinct_objects_accepted():
    rows = [["1", "x*y"], ["y*x", "2"]]
    g = MetricField.from_rows(CHART2, rows, validate=False)
    x = POINTS2[0]
    m = g.matrix(x)
    assert m[0, 1] == m[1, 0]


def test_block_diagonal_places_blocks_and_reads_only_upper_triangles():
    # the lower entry "?" does not parse, so reading it would raise
    table = block_diagonal(CHART3, [[["1", "x"], ["?", "2 + y^2"]], [[3.0]]])
    zero = table[0][2]
    assert isinstance(zero, ConstantField) and zero.value == 0.0
    assert all(table[i][j] is zero for i, j in ((0, 2), (2, 0), (1, 2), (2, 1)))
    assert table[1][0] is table[0][1]
    m = MetricField(CHART3, table, validate=False).matrix(np.array([0.5, 1.0, 0.0]))
    assert np.array_equal(m, [[1.0, 0.5, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 3.0]])
    with pytest.raises(ValueError, match="blocks of 2 rows on a 3-D chart"):
        block_diagonal(CHART3, [[[1.0]], [[1.0]]])


def test_every_block_diagonal_table_holds_each_symmetric_pair_as_one_object():
    g, gbar, L = build_lc_pair(random_spec(2, 4))
    base = MetricField.from_rows(CHART2, [["2 + x^2", "0.1*x*y"], ["0.1*x*y", "3"]],
                                 validate=False)
    fiber = MetricField.from_rows(Chart(("a", "b"), ((0.5, 1.0), (0.5, 1.0))),
                                  [["2", "0.3*a"], ["0.3*a", "2 + b^2"]], validate=False)
    liouville = liouville_build(LiouvilleData.create("x^2 + 2", "-y^2 - 1",
                                                     bounds=((-1.5, 1.5), (-1.5, 1.5))))
    torus = builtin_example("torus")
    tables = {
        "diagonal": MetricField.diagonal(CHART3, ["1", "2 + y^2", 3.0], validate=False),
        "conformal": MetricField.conformal(CHART3, "2 + x^2", validate=False),
        "euclidean": MetricField.euclidean(CHART3),
        "from_function": MetricField.from_function(
            CHART2, lambda xs: np.array([np.diag(2.0 + x ** 2) for x in xs]), validate=False),
        "from_rows": MetricField.from_rows(CHART2, [["1", "x*y"], ["y*x", "2"]], validate=False),
        "build_lc_pair g": g, "build_lc_pair gbar": gbar, "build_lc_pair L": L,
        "gbar_from_l": gbar_from_l(g, L),
        "adjusted_metric": adjusted_metric(WarpedSpec(base, ("2 + tanh(y)",), ((0.5, 1.0),))),
        "warped_metric": warped_metric(WarpedSpec(base, ("2 + tanh(y)",), ((0.5, 1.0),),
                                                  fiber_metrics=(fiber,))),
        "liouville g": liouville[0], "liouville gbar": liouville[1],
        "torus g": torus.metric, "torus gbar": torus.partner,
    }
    for name, table in tables.items():
        for i, j in np.ndindex(table.dim, table.dim):
            assert table.entries[i][j] is table.entries[j][i], (name, i, j)


def test_metric_dmatrix_matches_fd():
    g = MetricField.from_rows(
        CHART2, [["2 + sin(x)", "x*y/4"], ["x*y/4", "3 + cos(y)"]],
        validate=False)
    x = POINTS2[1]
    dg = g.dmatrix(x)
    h = 1e-6
    for k in range(2):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (g.matrix(xp) - g.matrix(xm)) / (2 * h)
        assert np.allclose(dg[:, :, k], fd, atol=1e-8)


def test_metric_d2matrix_matches_fd_of_dmatrix():
    g = MetricField.from_rows(
        CHART2, [["2 + sin(x)", "x*y/4"], ["x*y/4", "3 + cos(y)"]],
        validate=False)
    x = POINTS2[2]
    d2 = g.d2matrix(x)
    h = 1e-5
    for k in range(2):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (g.dmatrix(xp) - g.dmatrix(xm)) / (2 * h)
        assert np.allclose(d2[:, :, :, k].transpose(0, 1, 2), fd, atol=1e-6)


def test_metric_inverse_and_det():
    g = MetricField.conformal(CHART2, "4 + x^2 + y^2", validate=False)
    x = POINTS2[0]
    lam = 4 + x[0] ** 2 + x[1] ** 2
    assert np.allclose(g.inverse(x), np.eye(2) / lam)
    assert g.det(x) == pytest.approx(lam ** 2, rel=1e-14)


def test_metric_inverse_condition_cap():
    g = MetricField.diagonal(CHART2, ("1", "1e-14"), validate=False)
    with pytest.raises(SingularMetric):
        g.inverse(CHART2.center())


def test_singular_metric_inverse_keeps_its_point():
    g = MetricField.diagonal(CHART2, ("1", "exp(-100*x)"), validate=False)
    x = np.array([1.5, 0.25])
    with pytest.raises(SingularMetric) as err:
        g.inverse(x)
    assert err.value.point == [1.5, 0.25]
    assert str(err.value).endswith("at [1.5, 0.25]")


def test_pd_report_flags_failure_point():
    g = MetricField.diagonal(CHART2, ("x + 3", "x"), validate=False)
    rep = g.pd_report(samples=500, seed=0)
    assert not rep["positive_definite"]
    assert rep["worst_point"][0] < 0.0
    assert rep["min_eigenvalue"] < 0.0


def test_pd_report_passes_on_definite_metric():
    g = MetricField.conformal(CHART2, "1 + x^2", validate=False)
    rep = g.pd_report(samples=500, seed=1)
    assert rep["positive_definite"]
    assert rep["min_eigenvalue"] >= 1.0 - 1e-12


# -- endomorphisms, vectors, frames ----------------------------------------

def test_endomorphism_dmatrix_and_trace():
    L = EndomorphismField.from_rows(CHART2, [["x^2", "0"], ["0", "y^2"]])
    x = np.array([0.5, -1.0])
    d = L.dmatrix(x)
    assert d[0, 0, 0] == pytest.approx(1.0)
    assert d[1, 1, 1] == pytest.approx(-2.0)
    assert np.allclose(L.trace_d1(x), [1.0, -2.0])


def test_require_self_adjoint():
    g = MetricField.euclidean(CHART2)
    good = EndomorphismField.from_rows(CHART2, [["1", "x"], ["x", "2"]])
    bad = EndomorphismField.from_rows(CHART2, [["1", "1 + x"], ["x", "2"]])
    x = np.array([0.7, 0.1])
    good.require_self_adjoint(g, x)
    assert bad.self_adjoint_defect(g, x) == pytest.approx(1.0)
    with pytest.raises(NotSelfAdjoint):
        bad.require_self_adjoint(g, x)


PTS = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])


def test_require_at_one_point():
    require(True, PTS[0], DomainViolation, "bad")
    with pytest.raises(DomainViolation, match=r"^bad at \[0.0, 1.0\]$") as err:
        require(False, PTS[0], DomainViolation, "bad")
    assert err.value.point == [0.0, 1.0]
    # further axes at one point: every flag must hold
    require(np.ones((2, 2), bool), PTS[1], DomainViolation, "bad")
    with pytest.raises(DomainViolation) as err:
        require(np.array([[True, True], [True, False]]), PTS[1], DomainViolation, "bad")
    assert err.value.point == [2.0, 3.0]


def test_require_names_the_first_failing_point_of_a_stack():
    with pytest.raises(NotSelfAdjoint, match=r"^bad 1 at \[2.0, 3.0\]$") as err:
        require(np.array([True, False, False]), PTS, NotSelfAdjoint, lambda k: f"bad {k}")
    assert err.value.point == [2.0, 3.0]
    ok = np.array([[True, True], [True, True], [True, False]])  # (N, m)
    with pytest.raises(GapViolated, match="^gap 2 at ") as err:
        require(ok, PTS, GapViolated, lambda k: f"gap {k}")
    assert err.value.point == [4.0, 5.0]
    require(ok[:2], PTS[:2], GapViolated, "gap")
    # no points: the text alone, the index read off ok's first axis
    with pytest.raises(DomainViolation, match="^bad 2$") as err:
        require(ok, None, DomainViolation, lambda k: f"bad {k}")
    assert err.value.point is None


def test_require_passes_an_empty_stack():
    require(np.ones((0,), bool), np.empty((0, 2)), DomainViolation, "bad")
    require(np.ones((0, 3), bool), np.empty((0, 2)), DomainViolation, "bad")


def test_require_fails_a_nan():
    values = np.array([1.0, math.nan, 3.0])
    with pytest.raises(DomainViolation) as err:
        require(values < 10.0, PTS, DomainViolation, "too big")
    assert err.value.point == [2.0, 3.0]
    require(values[[0, 2]] < 10.0, PTS[[0, 2]], DomainViolation, "too big")
    with pytest.raises(DomainViolation, match=r"^non-finite value entry at \[2.0, 3.0\]$"):
        require_finite(values, PTS, "value")


@pytest.mark.parametrize("error", [NotSelfAdjoint, OrderingViolated, NonPositivePhi, GapViolated,
                                   ZeroVelocity, ComplexRoots, SingularMatrix])
def test_the_point_checks_raise_point_errors(error):
    assert issubclass(error, PointError)
    assert str(error("text", point=np.array([1, 2]))) == "text at [1.0, 2.0]"


def test_vector_field_jacobian_matches_fd():
    v = VectorField(CHART2, ("-y + x^2", "x*y"))
    x = POINTS2[0]
    jac = v.jacobian(x)
    h = 1e-6
    for k in range(2):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (v.values(xp) - v.values(xm)) / (2 * h)
        assert np.allclose(jac[:, k], fd, atol=1e-8)


def test_phase_state_immutable_and_shaped():
    s = PhaseState(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    assert s.x.shape == (2,)
    with pytest.raises(Exception):
        s.x = np.zeros(2)


def test_orthonormal_frame_diagonalizes_metric():
    rng = np.random.default_rng(4)
    b = rng.normal(size=(3, 3))
    gm = b @ b.T + 3 * np.eye(3)
    frame = g_orthonormal_frame(gm)
    assert np.allclose(frame.T @ gm @ frame, np.eye(3), atol=1e-12)


# -- field-matrix helpers ---------------------------------------------------

def _field_rows(chart, rows):
    return tuple(tuple(as_field(chart, e) for e in row) for row in rows)


def _eval_rows(rows, x):
    return np.array([[f.eval(x) for f in row] for row in rows])


def test_fmat_helpers_against_numpy():
    rows = _field_rows(CHART2, [["2 + x^2", "x*y", "0"],
                                ["x*y", "3", "y"],
                                ["0", "y", "4 + y^2"]])
    x = POINTS2[1]
    a = _eval_rows(rows, x)

    det = fmat_det(rows)
    assert det.eval(x) == pytest.approx(np.linalg.det(a), rel=1e-12)

    adj = fmat_adjugate(rows)
    prod = fmat_mul(rows, adj)
    want = np.linalg.det(a) * np.eye(3)
    assert np.allclose(_eval_rows(prod, x), want, rtol=1e-12, atol=1e-12)

    scaled = fmat_scale(rows, as_field(CHART2, "2"))
    assert np.allclose(_eval_rows(scaled, x), 2 * a)


def test_fmat_det_derivative_consistent():
    rows = _field_rows(CHART2, [["2 + x^2", "x*y"], ["x*y", "3 + y^2"]])
    det = fmat_det(rows)
    x = POINTS2[2]
    assert np.allclose(det.d1(x), fd_grad(det.eval, x), atol=1e-7)


def test_box_chart_and_contains():
    ch = box_chart(("a", "b"), half_width=2.0)
    assert ch.contains(np.array([1.9, -1.9]))
    assert not ch.contains(np.array([2.1, 0.0]))
    assert not ch.contains(np.array([1.0]))


def test_contains_at_one_point_agrees_with_the_stack_path():
    ch = Chart(("a", "b"), ((-1.0, 2.0), (0.0, 1.0)))
    pts = np.array([
        [0.5, 0.5], [1.9, 0.05], [-0.95, 0.95],                  # interior
        [-1.0, 0.5], [2.0, 0.5], [0.5, 0.0], [0.5, 1.0],         # on a wall
        [np.nextafter(-1.0, 0.0), 0.5], [0.5, np.nextafter(1.0, 0.0)],
        [np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf],
        [-0.9, 0.5], [0.5, 0.9], [-0.8, 0.2],                    # at, near a margin of 0.1
    ])
    want = {0.0: [True] * 3 + [False] * 4 + [True] * 2 + [False] * 4 + [True] * 3,
            0.1: [True, False, False] + [False] * 10 + [False, False, True]}
    for margin, flags in want.items():
        stacked = ch.contains(pts, margin)
        assert stacked.tolist() == flags
        one = [ch.contains(x, margin) for x in pts]
        assert all(type(v) is bool for v in one) and one == flags
    for shape in ((1,), (3,), (2, 3), (1, 1, 2)):  # a point of the wrong shape
        assert ch.contains(np.full(shape, 0.5)) is False
