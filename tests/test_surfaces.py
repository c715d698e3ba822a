"""2-D quadratic integrals: storage convention, classification, flattening,
the separated normal form, and the worked example bundles."""

import cmath
import math

import numpy as np
import pytest
from test_fields import per_row

from projeq.chart import Chart, box_chart
from projeq.errors import (
    BranchViolation,
    DomainViolation,
    EnergyProportional,
    NotPolynomial,
    UnknownName,
    WrongDimension,
)
from projeq.fields import ConstantField, MetricField, NumericField, VectorField
from projeq.pairs import MetricPair, bm_residual_stats, l_field_from_pair
from projeq.surfaces import (
    LiouvilleData,
    ModelClass,
    QuadraticIntegral2D,
    builtin_example,
    classify_model,
    cometric_form,
    flatten_coordinates,
    flattening_fit_report,
    integral_from_pair2d,
    killing_residual,
    liouville_build,
    model_inverse_map,
    principal_form,
    synthetic_integral,
)

CH = box_chart(("x", "y"), half_width=2.0)


# -- storage convention ----------------------------------------------------------

def test_rotational_integral_has_a_proportional_to_z_squared():
    # (x py - y px)^2 = y^2 px^2 - 2xy px py + x^2 py^2
    rot = QuadraticIntegral2D.from_quadratic_form(CH, "y*y", "-2*x*y", "x*x")
    for x in CH.sample(10, seed=0):
        z = complex(x[0], x[1])
        a = complex(rot.re_a.eval(x), rot.im_a.eval(x))
        assert a == pytest.approx(-0.25 * z * z, abs=1e-13)


def test_liouville_integral_has_constant_negative_a():
    data = LiouvilleData.create("x^2 + 2", "-y^2 - 1",
                                bounds=((-1.5, 1.5), (-1.5, 1.5)))
    _, _, integral = liouville_build(data)
    for x in data.chart.sample(10, seed=1):
        a = complex(integral.re_a.eval(x), integral.im_a.eval(x))
        assert a == pytest.approx(-0.25, abs=1e-13)


def test_form_coefficient_round_trip():
    q = QuadraticIntegral2D.from_quadratic_form(CH, "1 + x^2", "x*y", "3 - y")
    x = np.array([0.7, -0.4])
    # cxx, cyy and cxx + cxy + cyy, read off I at unit covectors
    assert q.value(x, np.array([1.0, 0.0])) == pytest.approx(1.49)
    assert q.value(x, np.array([0.0, 1.0])) == pytest.approx(3.4)
    assert q.value(x, np.array([1.0, 1.0])) == pytest.approx(1.49 - 0.28 + 3.4)
    p = np.array([0.3, 1.1])
    direct = (1.49 * 0.09 + (-0.28) * 0.33 + 3.4 * 1.21)
    assert q.value(x, p) == pytest.approx(direct, rel=1e-12)


def test_linear_combinations():
    q1 = QuadraticIntegral2D.from_quadratic_form(CH, "1", "0", "2")
    q2 = QuadraticIntegral2D.from_quadratic_form(CH, "x", "y", "0")
    s = 2.0 * q1 + q2
    x = np.array([0.5, -1.0])
    p = np.array([1.0, 1.0])
    assert s.value(x, p) == pytest.approx(2 * q1.value(x, p) + q2.value(x, p))


def test_quadratic_integral_requires_2d_chart():
    with pytest.raises(WrongDimension):
        QuadraticIntegral2D(box_chart(("x", "y", "z"), half_width=1.0),
                            "1", "0", "1")


def test_cometric_form_is_twice_energy():
    g = MetricField.from_rows(
        CH, [["2 + x^2", "x*y/3"], ["x*y/3", "1 + y^2"]], validate=False)
    q = cometric_form(g)
    for x in CH.sample(5, seed=2):
        p = np.array([0.4, -1.2])
        want = p @ np.linalg.solve(g.matrix(x), p)
        assert q.value(x, p) == pytest.approx(want, rel=1e-12)


# -- principal form and classification ---------------------------------------------

def test_energy_gives_no_principal_form():
    g = MetricField.conformal(CH, "1 + x^2 + y^2", validate=False)
    with pytest.raises(EnergyProportional):
        principal_form(cometric_form(g))


def test_non_polynomial_a_rejected():
    q = QuadraticIntegral2D(CH, "exp(x)", "0", "1")
    with pytest.raises(NotPolynomial):
        principal_form(q)


def round_trip_cases(rng, tag, count):
    """(alpha, beta, gamma) triples whose classification must be `tag`."""
    out = []
    for _ in range(count):
        if tag == "Model1a":
            out.append((0.0, 0.0, rng.normal() + 1j * rng.normal()))
        elif tag == "Model2":
            out.append((0.0, rng.normal() + 1j * rng.normal(),
                        rng.normal() + 1j * rng.normal()))
        elif tag == "Model4":
            a = rng.normal() + 1j * rng.normal()
            r = rng.normal() + 1j * rng.normal()
            out.append((a, -2.0 * a * r, a * r * r))
        else:  # Model3: enforce well-separated roots
            a = rng.normal() + 1j * rng.normal()
            r1 = rng.normal() + 1j * rng.normal()
            r2 = r1 + 1.0 + abs(rng.normal()) + 1j * rng.normal()
            out.append((a, -a * (r1 + r2), a * r1 * r2))
    return out


@pytest.mark.parametrize("tag", ["Model1a", "Model2", "Model3", "Model4"])
def test_classification_round_trip(tag):
    rng = np.random.default_rng(sum(map(ord, tag)))
    for alpha, beta, gamma in round_trip_cases(rng, tag, 20):
        q = synthetic_integral(CH, alpha, beta, gamma)
        pf = principal_form(q)
        mc = classify_model(pf)
        assert mc.tag == tag
        assert pf.residual <= 1e-8 * pf.scale
        got = pf.coefficients()
        want = np.array([alpha, beta, gamma])
        assert np.max(np.abs(got - want)) <= 1e-8 * (1 + np.abs(want).max())
        if tag == "Model4":
            true_root = -beta / (2 * alpha)
            assert mc.roots[0] == pytest.approx(true_root, abs=1e-6)
        if tag == "Model3":
            want_roots = sorted(np.roots([alpha, beta, gamma]),
                                key=lambda c: (c.real, c.imag))
            assert np.allclose(mc.roots, want_roots, atol=1e-7)


def test_classification_covariant_under_energy_mixing():
    rng = np.random.default_rng(42)
    g = MetricField.conformal(CH, "1 + x^2/4 + y^2/4", validate=False)
    energy = cometric_form(g)
    base = synthetic_integral(CH, 1.0 + 0.5j, -0.3, 2.0 - 1j)
    ref = classify_model(principal_form(base))
    assert ref.tag == "Model3"
    for _ in range(10):
        c = rng.normal() or 1.0
        d = rng.normal()
        mixed = c * base + d * energy
        mc = classify_model(principal_form(mixed))
        assert mc.tag == ref.tag
        assert np.allclose(mc.roots, ref.roots, atol=1e-7)


def test_synthetic_b_coefficient_is_irrelevant():
    q1 = synthetic_integral(CH, 0.0, 1.0, 0.5j, b="1")
    q2 = synthetic_integral(CH, 0.0, 1.0, 0.5j, b="3 + x^2*y^2")
    pf1, pf2 = principal_form(q1), principal_form(q2)
    assert np.allclose(pf1.coefficients(), pf2.coefficients(), atol=1e-10)


def test_linear_reduction_flag_switches_model1_tag():
    pf = principal_form(synthetic_integral(CH, 0.0, 0.0, 1.5))
    assert classify_model(pf).tag == "Model1a"
    assert classify_model(pf, has_linear_reduction=True).tag == "Model1b"


# -- flattening maps ---------------------------------------------------------------

def mc_of(tag, roots=(), scale=1.0):
    return ModelClass(tag=tag, roots=roots, scale=scale, flatten_id="")


def test_flatten_frozen_values():
    m2 = mc_of("Model2")
    assert flatten_coordinates(m2, 1.0) == pytest.approx(2.0)
    assert flatten_coordinates(m2, 4.0) == pytest.approx(4.0)
    m4 = mc_of("Model4")
    assert flatten_coordinates(m4, cmath.e) == pytest.approx(1.0)
    m1 = mc_of("Model1a", scale=4.0)
    assert flatten_coordinates(m1, 2.0) == pytest.approx(1.0)
    m3 = mc_of("Model3")
    assert flatten_coordinates(m3, 0.5) == pytest.approx(cmath.asin(-0.75))


def test_flatten_branch_rejections():
    for tag in ("Model2", "Model4"):
        mc = mc_of(tag)
        with pytest.raises(BranchViolation):
            flatten_coordinates(mc, 1e-9)
        with pytest.raises(BranchViolation):
            flatten_coordinates(mc, complex(-1.0, 1e-9))
    m3 = mc_of("Model3")
    for z in (1.0, -1.0, 1.5, 0.5j):
        with pytest.raises(BranchViolation):
            flatten_coordinates(m3, z)
    with pytest.raises(UnknownName):
        flatten_coordinates(mc_of("Model9"), 1.0)


@pytest.mark.parametrize("tag,z", [
    ("Model1a", 1.2 - 0.7j),
    ("Model2", 0.8 + 0.6j),
    ("Model3", 0.4 + 0.5j),
    ("Model4", 1.1 + 0.3j),
])
def test_inverse_map_round_trip_and_derivative(tag, z):
    mc = mc_of(tag, scale=2.0 if tag == "Model1a" else 1.0)
    w = flatten_coordinates(mc, z)
    z_of, dz_of = model_inverse_map(mc)
    assert z_of(w) == pytest.approx(z, abs=1e-12)
    h = 1e-6
    fd = (z_of(w + h) - z_of(w - h)) / (2 * h)
    assert dz_of(w) == pytest.approx(fd, abs=1e-8)


def test_flattening_fit_defects_on_worked_examples():
    b1 = builtin_example("example1")
    lam1 = lambda x, y: x * x + y * y + 1.0

    f2 = classify_model(principal_form(b1.integrals["F2"]))
    assert f2.tag == "Model4"
    rep = flattening_fit_report(lam1, f2, complex(0.3, 0.2))
    assert rep["defect"] <= 1e-6

    f1 = classify_model(principal_form(b1.integrals["F1"]))
    assert f1.tag == "Model1a"
    rep = flattening_fit_report(lam1, f1, complex(1.0, 0.5))
    assert rep["defect"] <= 1e-6

    b2 = builtin_example("example2")
    lam2 = lambda x, y: x * x + y * y / 4.0 + 1.0
    f2q = classify_model(principal_form(b2.integrals["F2"]))
    assert f2q.tag == "Model2"
    rep = flattening_fit_report(lam2, f2q, complex(2.0, 0.0))
    assert rep["defect"] <= 1e-6


# -- separated normal form -------------------------------------------------------------

def test_liouville_pair_reproduces_its_integral():
    data = LiouvilleData.create("x^2 + 2", "-y^2 - 1",
                                bounds=((-1.5, 1.5), (-1.5, 1.5)))
    g, gbar, integral = liouville_build(data)
    recovered = integral_from_pair2d(MetricPair(g, gbar))
    rng = np.random.default_rng(3)
    for x in data.chart.sample(20, seed=4):
        p = rng.normal(size=2)
        assert recovered.value(x, p) == pytest.approx(integral.value(x, p),
                                                      rel=1e-10, abs=1e-12)


def test_liouville_partner_is_indefinite():
    data = LiouvilleData.create("x^2 + 2", "-y^2 - 1",
                                bounds=((-1.5, 1.5), (-1.5, 1.5)))
    g, gbar, _ = liouville_build(data)
    assert g.pd_report(samples=200)["positive_definite"]
    rep = gbar.pd_report(samples=200)
    assert not rep["positive_definite"]
    assert rep["min_eigenvalue"] < -1e-3
    assert rep["worst_point"] is not None


def test_liouville_profiles_validated():
    # X - Y crosses zero
    with pytest.raises(DomainViolation):
        LiouvilleData.create("x^2", "y^2 - 1", bounds=((-2, 2), (-2, 2)))
    # profile magnitude hits zero: partner weights undefined
    with pytest.raises(DomainViolation):
        LiouvilleData.create("x", "-y^2 - 4", bounds=((-2, 2), (-2, 2)))
    with pytest.raises(ValueError):
        LiouvilleData.create("x + y", "-y^2 - 1", bounds=((-2, 2), (-2, 2)))


def test_a_nan_liouville_profile_is_refused_at_its_first_point():
    # x^1000 overflows on this chart, so the X profile is NaN
    first = Chart(("x", "y"), ((2.5, 3.5), (-1.0, 1.0))).sample(300, seed=13)[0].tolist()
    with pytest.raises(DomainViolation) as err:
        LiouvilleData.create("x^1000 - x^1000 + 5", "1", [(2.5, 3.5), (-1, 1)])
    assert str(err.value) == f"X - Y = nan; needs margin 1.0e-06 at {first}"


def test_liouville_frozen_matrices():
    data = LiouvilleData.create("x^2 + 2", "-y^2 - 1",
                                bounds=((-1.5, 1.5), (-1.5, 1.5)))
    g, gbar, integral = liouville_build(data)
    x = np.array([1.0, 1.0])  # X = 3, Y = -2, X - Y = 5
    assert np.allclose(g.matrix(x), 5.0 * np.eye(2))
    w = -0.5 - 1.0 / 3.0
    assert np.allclose(gbar.matrix(x), np.diag([w / 3.0, w / -2.0]))
    assert integral.value(x, np.array([1.0, 0.0])) == pytest.approx(-2.0 / 5.0)
    assert integral.value(x, np.array([0.0, 1.0])) == pytest.approx(3.0 / 5.0)


# -- worked example bundles ---------------------------------------------------------------

def test_example1_frozen_values():
    b = builtin_example("example1")
    x = np.array([1.0, 0.0])
    p = np.array([1.0, 1.0])
    want = {"H": 1.0, "F1": -1.0, "F2": 1.0, "F3": -1.0}
    for name, val in want.items():
        assert b.integrals[name].value(x, p) == pytest.approx(val, abs=1e-12)


def test_example_models_match_expectations():
    for name in ("example1", "example2"):
        b = builtin_example(name)
        for iname, tag in b.expected["model_of"].items():
            mc = classify_model(principal_form(b.integrals[iname]))
            assert mc.tag == tag, (name, iname)
        for iname in b.expected["energy_proportional"]:
            with pytest.raises(EnergyProportional):
                principal_form(b.integrals[iname])


def test_example_killing_expectations():
    b1 = builtin_example("example1")
    rep = killing_residual(b1.metric, b1.vector_fields["rotation"])
    assert rep["pass"] and rep["max_lie"] <= 1e-10

    b2 = builtin_example("example2")
    rep = killing_residual(b2.metric, b2.vector_fields["rotation"])
    assert not rep["pass"]
    assert rep["max_lie"] > 1e-3


def test_killing_residual_names_a_nan_point():
    unit = Chart(("x", "y"), ((0.0, 1.0), (0.0, 1.0)))
    nan_right = NumericField(unit, per_row(lambda x: 2.0 if x[0] <= 0.5 else math.nan))
    zero, one = ConstantField(unit, 0.0), ConstantField(unit, 1.0)
    g = MetricField(unit, [[nan_right, zero], [zero, one]], validate=False)
    pts = unit.sample(50, seed=0)
    with pytest.raises(DomainViolation) as err:
        killing_residual(g, VectorField(unit, ("0", "1")), samples=50)
    assert err.value.point == pts[int(np.argmax(pts[:, 0] > 0.5))].tolist()
    # a translation of the flat metric: every value is 0.0, so no point is the worst
    rep = killing_residual(MetricField.euclidean(unit), VectorField(unit, ("0", "1")),
                           samples=50)
    assert rep["max_lie"] == 0.0 and rep["pass"] and rep["worst_point"] is None


def test_example_integrals_are_linearly_independent():
    rng = np.random.default_rng(7)
    for name, want_rank in (("example1", 4), ("example2", 3)):
        b = builtin_example(name)
        names = sorted(b.integrals)
        rows = []
        for _ in range(40):
            x = rng.uniform(-2.0, 2.0, size=2)
            p = rng.normal(size=2)
            rows.append([b.integrals[n].value(x, p) for n in names])
        s = np.linalg.svd(np.array(rows), compute_uv=False)
        assert int((s > 1e-9 * s[0]).sum()) == want_rank


def test_example_gamma_must_be_positive():
    with pytest.raises(ValueError):
        builtin_example("example1", gamma=0.0)
    with pytest.raises(UnknownName):
        builtin_example("nope")


def test_torus_pair_structure():
    b = builtin_example("torus")
    pair = MetricPair(b.metric, b.partner)
    L = l_field_from_pair(pair)
    pts = b.chart.sample(100, seed=8)
    stats = bm_residual_stats(b.metric, L, pts)
    assert stats["max"] <= b.expected["bm_residual_tol"]
    # linking tensor is diag(f(x), 1/f(y)) for the profile f
    x = np.array([0.3, -0.6])
    fx = 3 + np.cos(2 * np.pi * 0.3)
    fy = 3 + np.cos(2 * np.pi * -0.6)
    assert np.allclose(L.matrix(x), np.diag([fx, 1.0 / fy]), atol=1e-12)


def test_torus_weights_keep_their_margin():
    from projeq.fields import as_field

    b = builtin_example("torus")
    margin = b.expected["margin_at_least"]
    for key in ("weight", "weight_partner"):
        w = as_field(b.chart, b.params[key])
        lo, hi = w.sample_range(count=2000, seed=9)
        assert lo >= margin - 1e-9
        assert hi <= 4.0
    assert b.metric.pd_report(samples=300)["positive_definite"]
    assert b.partner.pd_report(samples=300)["positive_definite"]


def test_torus_swap_map_exchanges_the_pair():
    b = builtin_example("torus")
    swap = b.maps["swap"]
    x = np.array([0.25, -0.8])
    sx = swap(x)
    assert np.allclose(sx, [-0.8, 0.25])
    # pulling g back through the swap lands on gbar with axes exchanged
    m = b.metric.matrix(sx)
    mb = b.partner.matrix(x)
    assert m[0, 0] == pytest.approx(mb[1, 1], rel=1e-12)
    assert m[1, 1] == pytest.approx(mb[0, 0], rel=1e-12)


def test_stacked_integral_value_equals_per_point_values():
    bundle = builtin_example("torus")
    xs = bundle.chart.sample(201, seed=2)
    ps = np.random.default_rng(2).normal(size=(201, 2))
    for integral in bundle.integrals.values():
        stacked = integral.value(xs, ps)
        assert stacked.shape == (201,)
        single = [integral.value(x, p) for x, p in zip(xs, ps)]
        assert all(type(v) is float for v in single)
        assert stacked.tolist() == single  # bit for bit
