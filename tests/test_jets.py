"""The generated field code against sympy, and its leaves, errors and cache.

The oracle translates a field DAG node by node into sympy, differentiates
symbolically and evaluates at 30 digits. Matrices, their entry gradients
and entry Hessians must agree to a relative error of 1e-12 (max entry
difference over max(1, max entry)). The 2-D builtin metrics also go
through the Christoffel/Riemann oracle of test_curvature.
"""

import math
import re
import time

import mpmath
import numpy as np
import pytest
import sympy as sp
from test_curvature import sympy_curvature
from test_fields import per_row

from projeq import jets
from projeq.chart import Chart
from projeq.curvature import christoffel, riemann
from projeq.errors import DerivativeNotAvailable, DomainViolation
from projeq.expressions import FUNCTIONS
from projeq.fields import (
    ExpressionField,
    MetricField,
    NumericField,
    ReindexedField,
    as_field,
    coord,
)
from projeq.levicivita import build_lc_pair, random_spec
from projeq.pairs import MetricPair, gbar_from_l, l_field_from_pair
from projeq.surfaces import builtin_example

CHART2 = Chart(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)))
POINTS2 = [np.array(p) for p in [(0.3, -0.7), (-1.1, 0.2), (1.4, 1.3)]]
_SYMPY_FN = dict({fn: getattr(sp, fn) for fn in FUNCTIONS if fn != "abs"},
                 abs=sp.Abs, recip=lambda u: 1 / u)


def to_sympy(f, syms, memo=None):
    """sympy expression of a field DAG; syms are the symbols of f's chart."""
    memo = {} if memo is None else memo
    key = (id(f), tuple(syms))
    if key in memo:
        return memo[key]
    node = f.node
    if node == "constant":
        out = sp.Float(f.value, 30)
    elif node == "coordinate":
        out = syms[f.index]
    elif node == "expression":
        out = sp.sympify(f.expr.to_text().replace("^", "**"),
                         locals=dict(zip(f.chart.names, syms)))
    elif node == "reindexed":
        out = to_sympy(f.inner, [syms[i] for i in f.index_map], memo)
    else:
        a = [to_sympy(c, syms, memo) for c in f.args]
        out = {
            "sum": lambda: a[0] + sp.Float(f.sign) * a[1],
            "product": lambda: a[0] * a[1],
            "power": lambda: a[0] ** sp.Float(f.exponent, 30),
            "unary": lambda: _SYMPY_FN[f.fn_name](a[0]),
        }[node]()
    memo[key] = out
    return out


def sympy_jets(entries, chart, x, order=2):
    """Values, gradients and (at order 2) Hessians of a table of fields at
    x, by sympy."""
    syms = sp.symbols(chart.names)
    n = len(syms)
    memo = {}
    mpmath.mp.dps = 30
    point = [mpmath.mpf(float(v)) for v in x]
    rows = len(entries)
    val = np.empty((rows, n))
    d1 = np.empty((rows, n, n))
    d2 = np.empty((rows, n, n, n))
    for i in range(rows):
        for j in range(n):
            e = to_sympy(entries[i][j], syms, memo)

            def num(expr):
                return float(sp.lambdify(syms, expr, modules="mpmath")(*point))

            val[i, j] = num(e)
            grads = [sp.diff(e, s) for s in syms]
            for k in range(n):
                d1[i, j, k] = num(grads[k])
                for m in range(k, n if order > 1 else k):
                    d2[i, j, k, m] = d2[i, j, m, k] = num(sp.diff(grads[k], syms[m]))
    return val, d1, d2


def assert_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def check_metric(g, x):
    val, d1, d2 = sympy_jets(g.entries, g.chart, x)
    assert_close(g.matrix(x), val)
    assert_close(g.dmatrix(x), d1)
    assert_close(g.d2matrix(x), d2)
    m, dm, d2m = g.jet(x, 2)
    assert np.array_equal(m, g.matrix(x)) and np.array_equal(d2m, g.d2matrix(x))


def check_endomorphism(L, x, order=2):
    """matrix and dmatrix; at order 2 also every entry's d2."""
    val, d1, d2 = sympy_jets(L.entries, L.chart, x, order)
    assert_close(L.matrix(x), val)
    assert_close(L.dmatrix(x), d1)
    if order > 1:
        assert_close(np.array([[e.d2(x) for e in row] for row in L.entries]), d2)


@pytest.mark.parametrize("name", ["torus", "sphere_beltrami", "example1", "example2"])
def test_builtin_metrics_match_sympy(name):
    bundle = builtin_example(name)
    x = bundle.init_box.sample(1, seed=3)[0]
    for g in (bundle.metric, bundle.partner):
        if g is not None:
            check_metric(g, x)


@pytest.mark.parametrize("name", ["sphere_beltrami", "example1"])
def test_builtin_curvature_matches_the_curvature_oracle(name):
    bundle = builtin_example(name)
    g = bundle.metric
    syms = sp.symbols(g.chart.names)
    text = [[str(to_sympy(f, syms)) for f in row] for row in g.entries]
    x = bundle.init_box.sample(1, seed=4)[0]
    gam, riem, _ = sympy_curvature(text, g.chart.names, x)
    assert np.allclose(christoffel(g, x), gam, rtol=1e-10, atol=1e-10)
    assert np.allclose(riemann(g, x), riem, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_spec_pair_matches_sympy(n):
    g, gbar, L = build_lc_pair(random_spec(1, n))
    x = g.chart.sample(1, seed=5)[0]
    check_metric(g, x)
    check_metric(gbar, x)
    check_endomorphism(L, x)
    # Hessians of the 4-D linking entries take sympy several seconds
    check_endomorphism(l_field_from_pair(MetricPair(g, gbar)), x, order=2 if n < 4 else 1)


def test_partner_from_l_matches_sympy():
    g, _, L = build_lc_pair(random_spec(2, 4))
    check_metric(gbar_from_l(g, L), g.chart.sample(1, seed=6)[0])


# -- leaves, errors, cache --------------------------------------------------


def test_numeric_leaf_inside_algebra_keeps_its_finite_differences():
    num = NumericField(CHART2, per_row(lambda x: math.exp(x[0]) * math.sin(x[1])))
    sq = as_field(CHART2, "x^2 + y")
    f = num * sq
    exact = ExpressionField(CHART2, "exp(x)*sin(y)*(x^2 + y)")
    for x in POINTS2:
        a, b = num.eval(x), sq.eval(x)
        ga, gb = num.d1(x), sq.d1(x)
        assert f.eval(x) == a * b
        assert np.allclose(f.d1(x), ga * b + a * gb, rtol=1e-14, atol=1e-14)
        want = num.d2(x) * b + a * sq.d2(x) + np.outer(ga, gb) + np.outer(gb, ga)
        assert np.allclose(f.d2(x), want, rtol=1e-13, atol=1e-13)
        assert np.allclose(f.d1(x), exact.d1(x), rtol=1e-7, atol=1e-8)
        assert np.allclose(f.d2(x), exact.d2(x), rtol=1e-4, atol=1e-4)


def test_numeric_leaf_runs_one_stencil_per_evaluation():
    calls = []

    def fn(x):
        calls.append(1)
        return math.exp(x[0]) * math.sin(x[1])

    f = NumericField(CHART2, per_row(fn)) * as_field(CHART2, "x^2 + y")
    for method, want in (("eval", 1), ("d1", 5), ("d2", 13)):
        calls.clear()
        getattr(f, method)(POINTS2[0])
        assert len(calls) == want  # 1 + 2n, then 2n^2 more for the Hessian


def test_reindexed_numeric_leaf_lands_in_its_slot():
    line = Chart(("u",), ((-3.0, 3.0),))
    chart3 = Chart(("x", "y", "z"), ((-1.5, 1.5),) * 3)
    lifted = ReindexedField(chart3, NumericField(line, per_row(lambda u: u[0] ** 3)), (2,))
    f = lifted * coord(chart3, "x")
    x = np.array([0.4, -0.9, 1.2])
    assert f.eval(x) == pytest.approx(0.4 * 1.728, rel=1e-14)
    assert np.allclose(f.d1(x), [1.728, 0.0, 3 * 0.4 * 1.44], rtol=1e-8)
    want = np.zeros((3, 3))
    want[0, 2] = want[2, 0] = 3 * 1.44
    want[2, 2] = 6 * 1.2 * 0.4
    assert np.allclose(f.d2(x), want, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("method", ["eval", "d1", "d2"])
def test_division_by_zero_is_a_domain_violation_at_the_point(method):
    for f in (as_field(CHART2, "1/x"), 1.0 / coord(CHART2, "x")):
        with pytest.raises(DomainViolation) as exc:
            getattr(f, method)(np.array([0.0, 0.5]))
        assert exc.value.point == [0.0, 0.5]
        assert "division by zero" in str(exc.value) and "x" in str(exc.value)


@pytest.mark.parametrize("method", ["eval", "d1", "d2"])
def test_fractional_power_of_a_negative_base_is_a_domain_violation(method):
    # CHART2 reaches x < 0; never a complex value or a NaN
    for f in (as_field(CHART2, "x^0.5"), coord(CHART2, "x") ** 0.5):
        assert f.eval(np.array([0.25, 1.0])) == 0.5
        with pytest.raises(DomainViolation) as exc:
            getattr(f, method)(np.array([-0.25, 1.0]))
        assert exc.value.point == [-0.25, 1.0]
    g = MetricField.diagonal(CHART2, ("1", "x^0.5"), validate=False)
    with pytest.raises(DomainViolation):
        g.matrix(np.array([-0.25, 1.0]))


@pytest.mark.parametrize("text", ["x^-2", "x^(-1)", "x^(2*3)", "(x^2 + y^2)^(-3/2)"])
def test_constant_exponents_at_a_negative_base_match_sympy(text):
    # a constant exponent that is not a literal number never takes log(x)
    f = as_field(CHART2, text)
    x = np.array([-0.5, 0.7])
    val, d1, d2 = sympy_jets([[f, f]], CHART2, x)
    assert_close(np.array(f.eval(x)), val[0, 0])
    assert_close(f.d1(x), d1[0, 0])
    assert_close(f.d2(x), d2[0, 0])


@pytest.mark.parametrize("text", ["x^0", "x^1", "x^2"])
def test_derivatives_of_small_powers_at_zero(text):
    # the zero coefficients of lower powers write no 0 ** -1 that would raise
    f = as_field(CHART2, text)
    c = float(text[-1])
    x = np.array([0.0, 0.3])
    assert f.eval(x) == (1.0 if c == 0 else 0.0)
    assert f.d1(x).tolist() == [float(c == 1), 0.0]
    assert f.d2(x).tolist() == [[float(c == 2) * 2.0, 0.0], [0.0, 0.0]]


def test_power_overflow_is_infinite_not_a_domain_violation():
    # far outside a chart, as at an overlong trial step, a power overflows
    # to an infinity that the integrator rejects, as with numpy
    far = np.array([1e200, 0.0])
    for f in (as_field(CHART2, "x^3"), coord(CHART2, "x") ** 3):
        assert f.eval(far) == f.d1(far)[0] == math.inf  # 3 x^2 overflows too
    assert as_field(CHART2, "x^2.5").eval(far) == math.inf
    assert as_field(CHART2, "x^3").eval(np.array([-1e120, 0.0])) == -math.inf
    assert as_field(CHART2, "x^2").eval(np.array([-1e200, 0.0])) == math.inf


def test_a_long_sum_compiles_without_deep_recursion():
    # parses into a left-deep tree 900 operations high
    f = as_field(CHART2, "x" + " + x*y" * 900)
    x = np.array([0.5, 0.5])
    assert f.eval(x) == pytest.approx(225.5, rel=1e-14)
    assert f.d2(x)[0, 1] == pytest.approx(900.0, rel=1e-14)


def test_a_3000_link_field_sum_equals_the_term_by_term_loop():
    # a field DAG 3,000 operator nodes deep, far past the default stack
    terms = [as_field(CHART2, f"sin({k}*x + y) * y") for k in range(1, 8)]
    total = terms[0]
    for k in range(1, 3000):
        total = total + terms[k % 7]
    xs = np.array([[0.3, -0.7], [-1.1, 0.2]])
    for method in ("eval", "d1", "d2"):
        want = getattr(terms[0], method)(xs)
        for k in range(1, 3000):
            want = want + getattr(terms[k % 7], method)(xs)
        np.testing.assert_array_equal(getattr(total, method)(xs), want)


def test_a_shared_operand_is_visited_once():
    # forty squarings: a walk that expanded both operands would visit 2^40 nodes
    s = as_field(CHART2, "1 + 1e-12*x*y")
    for _ in range(40):
        s = s * s
    x = np.array([0.3, 0.4])
    start = time.perf_counter()
    h = s.d2(x)
    assert time.perf_counter() - start < 1.0
    n, u = 2.0 ** 40, 1.0 + 1e-12 * 0.3 * 0.4
    assert h[0, 1] == pytest.approx(n * 1e-12 * u ** (n - 1) + n * (n - 1) * 1.2e-25
                                    * u ** (n - 2), rel=1e-3)


def test_a_domain_error_deep_in_a_sum_names_its_field():
    terms = [as_field(CHART2, f"{k}*x*y") for k in range(1500)]
    terms[999] = as_field(CHART2, "log(x - 5)")
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    message = "math domain error in 'log(x - 5)' at [0.1, 0.2]"
    for order in (0, 2):
        with pytest.raises(DomainViolation, match=re.escape(message)):
            total._jet(np.array([0.1, 0.2]), order)


def test_the_abs_sign_scan_is_cached_on_the_field_that_owns_it():
    chart = Chart(("x", "y"), ((0.5, 2.0), (-1.0, 1.0)))
    owner = as_field(chart, "2 + abs(x)")
    terms = [as_field(chart, f"{k}*y") for k in range(600)]
    terms[300] = owner * as_field(chart, "y^2")
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    total.d1(np.array([1.0, 0.5]))
    assert owner.one_signed == {"x"} and not any(t.one_signed for t in terms[:300])


def test_repeated_calls_reuse_the_generated_function(monkeypatch):
    builds = []
    build = jets._build

    def counting(names, outputs, order):
        builds.append((tuple(map(id, outputs)), order))
        return build(names, outputs, order)

    monkeypatch.setattr(jets, "_build", counting)
    g = MetricField.from_rows(
        CHART2, [["2 + sin(x)", "x*y/4"], ["x*y/4", "3 + cos(y)"]], validate=False)
    f = as_field(CHART2, "exp(x)*y")
    for x in POINTS2 * 3:
        g.matrix(x), g.dmatrix(x), g.d2matrix(x), g.jet(x, 2)
        f.eval(x), f.d1(x), f.d2(x)
    assert len(builds) == len(set(builds))
    entries = tuple(id(e) for row in g.entries for e in row)
    assert {(entries, k) for k in range(3)} <= set(builds)
    assert {((id(f),), k) for k in range(3)} <= set(builds)


def test_the_abs_sign_scan_runs_once_per_argument_and_chart(monkeypatch):
    calls = []
    scan = jets.require_one_sign
    monkeypatch.setattr(jets, "require_one_sign", lambda lo, hi: calls.append(1) or scan(lo, hi))
    chart = Chart(("x", "y"), ((0.5, 2.0), (-1.0, 1.0)))
    g = MetricField.from_rows(chart, [["2 + abs(x)", "0"], ["0", "1 + y^2*abs(x)"]],
                              validate=False)
    x = np.array([1.0, 0.5])
    g.jet(x, 1), g.jet(x, 2), g.entries[0][0].d1(x), g.entries[0][0].d2(x)
    assert len(calls) == 2  # once per entry's argument x: was once per node and order
    # an argument that reaches zero is refused by every derivative order that compiles it
    bad = MetricField.from_rows(CHART2, [["2 + abs(x)", "0"], ["0", "1"]], validate=False)
    for order in (1, 2):
        with pytest.raises(DerivativeNotAvailable):
            bad.jet(np.array([1.0, 0.5]), order)
    assert bad.matrix(np.array([-1.0, 0.5])).tolist() == [[3.0, 0.0], [0.0, 1.0]]


def test_generated_code_has_no_power_operator(monkeypatch):
    # every chain rule, both power forms and field algebra's recip, at each
    # order; the column code runs the same source, so a ** there would be
    # numpy's array power, which differs from the float power in the last bit
    sources = []

    def spy(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(jets, "compile", spy, raising=False)
    chart = Chart(("x", "y"), ((0.1, 0.9), (0.2, 0.8)))
    text = " + ".join(f"{fn}(0.5*x*y + 0.1)" for fn in FUNCTIONS) + " + x^y + (x + 1)^1.5 + y^-2"
    x = as_field(chart, "x + 2")
    outputs = (ExpressionField(chart, text), 1.0 / x, x ** 2.5, x ** 3.0, x.apply("asin"))
    for order in (0, 1, 2):
        jets.Jets(chart.names, outputs).function(order)
    assert len(sources) >= 3  # one per order, and the abs sign scan's
    assert not any("**" in src for src in sources)
    assert "_pow(" in sources[-1]
