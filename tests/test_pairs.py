"""Compatibility equation, partner construction, Weyl, Nijenhuis, flows.

Closed-form cases carry the expected values; everything numeric is an
independent hand computation frozen in the test.
"""

import math
import re
import subprocess
import sys

import numpy as np
import pytest
from test_fields import per_row

from projeq.chart import Chart, box_chart
from projeq.errors import (
    DomainViolation,
    NonPositiveSpectrum,
    NotPositiveDefinite,
    NotSelfAdjoint,
    SingularMatrix,
    SingularMetric,
)
from projeq.fields import (
    ConstantField,
    EndomorphismField,
    MetricField,
    NumericField,
    PhaseState,
    VectorField,
)
from projeq.flows import IntegralFamily, interlacing_audit, ordering_audit
from projeq.levicivita import LeviCivitaSpec, build_lc_pair
from projeq.pairs import (
    MetricPair,
    ProjectiveFlowSpec,
    beltrami_map_defect,
    bm_from_flow,
    bm_from_flow_field,
    bm_residual,
    bm_residual_stats,
    gbar_from_l,
    l_from_pair,
    l_field_from_pair,
    lie_derivative_metric,
    nijenhuis_torsion,
    pencil_spectrum,
    projective_weyl,
    spectrum_at,
    weyl_pair_defect,
    weyl_trace_defect,
)

CHART2 = Chart(("x", "y"), ((0.1, 1.9), (-1.0, 1.0)))


def lc_case():
    spec = LeviCivitaSpec.create(
        [1, 1], ["x", "2"], bounds=CHART2.bounds, names=CHART2.names)
    return build_lc_pair(spec)


# -- the compatibility equation --------------------------------------------

def test_lc_normal_form_satisfies_equation():
    g, gbar, L = lc_case()
    stats = bm_residual_stats(g, L, CHART2.sample(200, seed=0))
    assert stats["max"] <= 1e-8


def test_identity_always_satisfies_equation():
    g = MetricField.conformal(CHART2, "2 + x^2 + y^2", validate=False)
    L = EndomorphismField.identity(CHART2)
    for x in CHART2.sample(20, seed=1):
        assert np.max(np.abs(bm_residual(g, L, x))) <= 1e-12


def test_generic_self_adjoint_tensor_fails_equation():
    g = MetricField.euclidean(CHART2)
    L = EndomorphismField.from_rows(CHART2, [["x", "0"], ["0", "0"]])
    # residual has terms of size ~1/2 at (1, 1): dtr_L = (1, 0)
    r = bm_residual(g, L, np.array([1.0, 1.0]))
    assert np.max(np.abs(r)) > 0.1


def test_non_self_adjoint_rejected():
    g = MetricField.diagonal(CHART2, ("1", "2"), validate=False)
    L = EndomorphismField.from_rows(CHART2, [["1", "1"], ["1", "1"]])
    with pytest.raises(NotSelfAdjoint):
        bm_residual(g, L, CHART2.center())


# -- partner metric round trips ---------------------------------------------

def test_partner_round_trip_through_l():
    g, gbar, L = lc_case()
    for x in CHART2.sample(40, seed=2):
        assert np.allclose(l_from_pair(g, gbar, x), L.matrix(x),
                           rtol=1e-12, atol=1e-12)


def test_rebuilt_partner_matches_construction():
    g, gbar, L = lc_case()
    rebuilt = gbar_from_l(g, L)
    for x in CHART2.sample(40, seed=3):
        assert np.allclose(rebuilt.matrix(x), gbar.matrix(x),
                           rtol=1e-10, atol=1e-12)


def test_l_from_pair_of_homothety_is_scaled_identity():
    g = MetricField.conformal(CHART2, "1 + x^2", validate=False)
    gbar = MetricField.conformal(CHART2, "2*(1 + x^2)", validate=False)
    x = CHART2.center()
    lam = l_from_pair(g, gbar, x)
    # (det gbar/det g)^{1/(n+1)} gbar^{-1} g with gbar = 2g in 2-D: 2^{2/3}/2 I
    want = 2.0 ** (2.0 / 3.0) / 2.0 * np.eye(2)
    assert np.allclose(lam, want, rtol=1e-13)


def test_gbar_from_l_requires_positive_spectrum():
    g = MetricField.euclidean(CHART2)
    L = EndomorphismField.from_rows(CHART2, [["x - 5", "0"], ["0", "1"]])
    with pytest.raises(NonPositiveSpectrum):
        gbar_from_l(g, L)


def test_pair_from_l_returns_validated_pair():
    g, _, L = lc_case()
    pair = MetricPair(g, gbar_from_l(g, L))
    assert isinstance(pair, MetricPair)
    x = CHART2.center()
    assert np.allclose(l_from_pair(pair.g, pair.gbar, x), L.matrix(x),
                       atol=1e-12)


def test_pencil_spectrum_known_values():
    gm = np.diag([1.0, 4.0])
    lm = np.diag([2.0, 3.0])
    assert np.allclose(pencil_spectrum(gm, lm), [2.0, 3.0])
    # non-diagonal but g-self-adjoint: conjugate by a g-orthogonal map
    s = np.array([[0.6, 0.8], [-0.4, 0.3]])
    lm2 = np.linalg.solve(s, lm @ s)
    gm2 = s.T @ gm @ s
    assert np.allclose(pencil_spectrum(gm2, lm2), [2.0, 3.0])


def test_spectrum_at_matches_phi_values():
    g, _, L = lc_case()
    x = np.array([0.7, 0.2])
    assert np.allclose(spectrum_at(g, L, x), [0.7, 2.0], atol=1e-12)


# -- the stacked spectrum path -----------------------------------------------

def random_pencils(n, count, seed):
    """count random (g, L) with g positive-definite and g L symmetric."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, n, n))
    gm = a @ a.transpose(0, 2, 1) + n * np.eye(n)
    s = rng.normal(size=(count, n, n))
    return gm, np.linalg.solve(gm, s + s.transpose(0, 2, 1))


def lc3_case():
    spec = LeviCivitaSpec.create(
        [1, 1, 1], ["1 + 0.3*tanh(x1)", "3", "6 + x3^2"],
        bounds=((-1.0, 1.0), (-1.0, 1.0), (0.5, 1.5)), names=("x1", "x2", "x3"))
    g, gbar, L = build_lc_pair(spec)
    return spec.chart, g, gbar, L


def first_extreme(values, better):
    """Index a pointwise scan keeps: the first value no later one beats."""
    k = 0
    for j, v in enumerate(values):
        if better(v, values[k]):
            k = j
    return k


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_spectrum_is_bit_identical_to_pointwise(n):
    gm, lm = random_pencils(n, 24, seed=n)
    stacked = pencil_spectrum(gm, lm)
    assert stacked.shape == (24, n)
    for k in range(24):
        assert np.array_equal(stacked[k], pencil_spectrum(gm[k], lm[k]))
    nested = pencil_spectrum(gm.reshape(4, 6, n, n), lm.reshape(4, 6, n, n))
    assert np.array_equal(nested, stacked.reshape(4, 6, n))


def test_spectrum_matches_sympy_pencil():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    g = sympy.Matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    s = sympy.Matrix([[1, 2, 0], [2, -1, 1], [0, 1, 3]])  # g L = S, L not diagonal
    roots = sympy.Poly((s - t * g).det(), t).nroots(n=30)
    want = np.array(sorted(float(sympy.re(r)) for r in roots))
    lm = np.array((g.inv() * s).evalf(30).tolist(), dtype=float)
    got = pencil_spectrum(np.array(g.tolist(), dtype=float), lm)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_diagonal_pencil_returns_its_diagonal_exactly():
    chart, g, _, L = lc3_case()
    assert spectrum_at(g, L, chart.center()).tolist() == [1.0, 3.0, 7.0]


def test_scans_pick_the_pointwise_worst_point():
    chart, g, gbar, L = lc3_case()
    pts = chart.sample(150, seed=4)
    lams = [pencil_spectrum(g.matrix(x), L.matrix(x)) for x in pts]
    rep = ordering_audit(g, L, pts)
    for band in rep["bands"]:
        i = band["band"]
        hi = first_extreme([lam[i] for lam in lams], lambda a, b: a > b)
        lo = first_extreme([lam[i + 1] for lam in lams], lambda a, b: a < b)
        assert band["argmax"] == pts[hi].tolist() and band["argmin"] == pts[lo].tolist()
        assert band["upper_max"] == lams[hi][i] and band["next_min"] == lams[lo][i + 1]
    pd = gbar.pd_report(samples=150, seed=4)
    low = [np.linalg.eigvalsh(gbar.matrix(x))[0] for x in pts]
    k = first_extreme(low, lambda a, b: a < b)
    assert pd["worst_point"] == pts[k].tolist() and pd["min_eigenvalue"] == low[k]
    # a shifted L fails the partner scan at the pointwise first minimum
    shifted = EndomorphismField(chart, [[L.entries[i][j] - (2.0 if i == j else 0.0)
                                         for j in range(3)] for i in range(3)])
    scan = chart.sample(500, seed=0)
    low = [pencil_spectrum(g.matrix(x), shifted.matrix(x))[0] for x in scan]
    k = first_extreme(low, lambda a, b: a < b)
    with pytest.raises(NonPositiveSpectrum) as err:
        gbar_from_l(g, shifted)
    assert f"{low[k]:.3e}" in str(err.value) and str(scan[k]) in str(err.value)


def test_scans_keep_the_first_of_tied_points():
    g = MetricField.euclidean(CHART2)
    L = EndomorphismField.constant(CHART2, np.diag([1.0, 2.0]))
    pts = CHART2.sample(30, seed=1)
    band = ordering_audit(g, L, pts)["bands"][0]
    assert band["argmax"] == band["argmin"] == pts[0].tolist()
    assert g.pd_report(samples=30, seed=1)["worst_point"] == pts[0].tolist()


def test_import_leaves_scipy_out():
    # every submodule, since the package itself loads none of them
    code = ("import importlib, pkgutil, sys, projeq\n"
            "for m in pkgutil.iter_modules(projeq.__path__):\n"
            "    importlib.import_module(f'projeq.{m.name}')\n"
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


# -- named errors on bad spectrum input ----------------------------------------

def nan_beyond(chart, cut):
    """A black-box entry that is NaN where x > cut and 1 elsewhere."""
    return NumericField(chart, per_row(lambda x: math.nan if x[0] > cut else 1.0))


def test_non_finite_pencil_input_is_a_domain_violation():
    gm, lm = random_pencils(3, 4, seed=0)
    pts = np.arange(12.0).reshape(4, 3)
    lm[2, 0, 1] = np.nan
    with pytest.raises(DomainViolation, match="endomorphism"):
        pencil_spectrum(gm, lm)
    gm[1, 1, 1] = np.inf
    with pytest.raises(DomainViolation, match="metric") as err:
        pencil_spectrum(gm, lm, points=pts)
    assert err.value.point == [3.0, 4.0, 5.0]
    with pytest.raises(DomainViolation):
        pencil_spectrum(gm[1], lm[1])


def test_spectrum_scans_name_the_non_finite_point():
    g = MetricField.euclidean(CHART2)
    L = EndomorphismField(CHART2, [[nan_beyond(CHART2, 1.0), 0.0], [0.0, 2.0]])
    with pytest.raises(DomainViolation) as err:
        spectrum_at(g, L, np.array([1.5, 0.25]))
    assert err.value.point == [1.5, 0.25]
    pts = CHART2.sample(60, seed=0)
    first = pts[int(np.argmax(pts[:, 0] > 1.0))].tolist()
    with pytest.raises(DomainViolation) as err:
        ordering_audit(g, L, pts)
    assert err.value.point == first
    # the family's own self-adjointness check refuses the NaN endomorphism first
    checks = CHART2.sample(16, seed=11)
    with pytest.raises(DomainViolation, match="non-finite endomorphism entry") as err:
        IntegralFamily(g, L)
    assert err.value.point == checks[int(np.argmax(checks[:, 0] > 1.0))].tolist()
    with pytest.raises(DomainViolation) as err:
        interlacing_audit(IntegralFamily(g, L, check_points=0),
                          [PhaseState(x, np.array([1.0, 0.5])) for x in pts])
    assert err.value.point == first
    with pytest.raises(DomainViolation):
        gbar_from_l(g, L)


def test_a_degenerate_or_nan_determinant_ratio_names_its_first_point():
    g = MetricField.euclidean(CHART2)
    pts = CHART2.sample(30, seed=0)
    signed = MetricField.diagonal(CHART2, ("1", "y"), validate=False)
    with pytest.raises(SingularMatrix, match="determinant ratio not positive") as err:
        l_from_pair(g, signed, pts)
    assert err.value.point == pts[int(np.argmax(pts[:, 1] <= 0.0))].tolist()
    nan_right = MetricField(CHART2, [[nan_beyond(CHART2, 1.0), ConstantField(CHART2, 0.0)],
                                     [ConstantField(CHART2, 0.0), ConstantField(CHART2, 1.0)]],
                            validate=False)
    # refused before numpy's det sees it, so no RuntimeWarning is raised
    with pytest.raises(DomainViolation, match="non-finite metric entry") as err:
        l_from_pair(g, nan_right, pts)
    assert err.value.point == pts[int(np.argmax(pts[:, 0] > 1.0))].tolist()
    with pytest.raises(DomainViolation, match="non-finite metric entry") as err:
        l_from_pair(nan_right, g, pts[pts[:, 0] > 1.0][0])
    assert err.value.point == pts[int(np.argmax(pts[:, 0] > 1.0))].tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stacked", [False, True])
def test_a_singular_g_is_a_singular_matrix_at_its_point(stacked):
    g = MetricField.diagonal(box_chart("xy"), ("x^2", "1"), validate=False)
    gbar = MetricField.diagonal(g.chart, ("2", "1"), validate=False)
    x = np.array([[0.5, 0.1], [0.0, 0.2], [0.3, -0.4]]) if stacked else np.array([0.0, 0.2])
    with pytest.raises(SingularMatrix, match="determinant ratio not positive") as err:
        l_from_pair(g, gbar, x)
    assert err.value.point == [0.0, 0.2]


def test_indefinite_metric_is_not_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        pencil_spectrum(np.diag([1.0, -2.0]), np.eye(2))
    g = MetricField.diagonal(CHART2, ("1", "y"), validate=False)
    L = EndomorphismField.identity(CHART2)
    with pytest.raises(NotPositiveDefinite) as err:
        spectrum_at(g, L, np.array([1.0, -0.5]))
    assert err.value.point == [1.0, -0.5]


# -- infinitesimal version ---------------------------------------------------

SPHERE = MetricField.diagonal(
    Chart(("theta", "phi"), ((0.35, math.pi - 0.35), (-7.0, 7.0))),
    ("1", "sin(theta)^2"),
    validate=False,
)


def test_lie_derivative_matches_fd_flow():
    v = VectorField(CHART2, ("x*y", "-y^2/2"))
    g = MetricField.from_rows(
        CHART2, [["2 + x^2", "x*y/3"], ["x*y/3", "1 + y^2"]], validate=False)
    x = np.array([0.8, 0.3])
    lie = lie_derivative_metric(g, v, x)
    # flow x -> x + eps v; pullback metric compared at the base point
    eps = 1e-6

    def pulled(e):
        xe = x + e * v.values(x)
        jac = np.eye(2) + e * v.jacobian(x)
        return jac.T @ g.matrix(xe) @ jac

    fd = (pulled(eps) - pulled(-eps)) / (2 * eps)
    assert np.allclose(lie, fd, atol=1e-6)


def test_killing_field_gives_zero_solution():
    # rotations preserve the round-disc metric below
    ch = box_chart(("x", "y"), half_width=1.0)
    g = MetricField.conformal(ch, "1/(1 + x^2 + y^2)^2", validate=False)
    v = VectorField(ch, ("-y", "x"))
    spec = ProjectiveFlowSpec(g, v)
    for x in ch.sample(25, seed=5):
        a = bm_from_flow(spec, x)
        assert np.max(np.abs(a)) <= 1e-12


def test_beltrami_generator_solves_equation_on_sphere():
    gen = VectorField(
        SPHERE.chart,
        ("sin(theta)*cos(theta)*cos(phi)^2", "-sin(phi)*cos(phi)"))
    spec = ProjectiveFlowSpec(SPHERE, gen)
    a_field = bm_from_flow_field(spec)
    stats = bm_residual_stats(SPHERE, a_field,
                              SPHERE.chart.sample(60, seed=6),
                              eps_sym_factor=1e-3)
    assert stats["max"] <= 1e-6


def test_flow_solution_is_nontrivial_on_sphere():
    gen = VectorField(
        SPHERE.chart,
        ("sin(theta)*cos(theta)*cos(phi)^2", "-sin(phi)*cos(phi)"))
    spec = ProjectiveFlowSpec(SPHERE, gen)
    x = np.array([1.2, 0.7])
    assert np.max(np.abs(bm_from_flow(spec, x))) > 1e-3


@pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
@pytest.mark.parametrize("through_field", [False, True], ids=["pointwise", "field"])
def test_a_singular_metric_in_the_flow_is_singular_metric_at_its_point(through_field, stacked):
    ch = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    g = MetricField.from_rows(ch, [["x^2", "0"], ["0", "1"]], validate=False)
    spec = ProjectiveFlowSpec(g, VectorField(ch, ("y", "x")))
    x = np.array([[0.5, 0.1], [0.0, 0.2], [0.3, 0.3]]) if stacked else np.array([0.0, 0.2])
    with pytest.raises(SingularMetric, match=re.escape("metric singular at [0.0, 0.2]")):
        bm_from_flow_field(spec).matrix(x) if through_field else bm_from_flow(spec, x)


def test_flow_field_samples_the_matrix_once_per_stencil_point(monkeypatch):
    import projeq.pairs as pairs

    gen = VectorField(
        SPHERE.chart,
        ("sin(theta)*cos(theta)*cos(phi)^2", "-sin(phi)*cos(phi)"))
    spec = ProjectiveFlowSpec(SPHERE, gen)
    a_field = bm_from_flow_field(spec)
    calls = []

    def counting(*args):
        calls.append(len(args[1]))  # the points of the call
        return bm_from_flow(*args)

    monkeypatch.setattr(pairs, "bm_from_flow", counting)
    x = np.array([1.2, 0.7])
    a_field.dmatrix(x)
    assert calls == [2 * 2 + 1]  # one call on every stencil point, not one per entry
    # the table as it was built before: one NumericField per entry, each
    # re-running the whole matrix
    chart, n = SPHERE.chart, SPHERE.dim
    ref = EndomorphismField(chart, [[NumericField(
        chart, per_row(lambda y, i=i, j=j: bm_from_flow(spec, y)[i, j])) for j in range(n)]
        for i in range(n)])
    for y in chart.sample(5, seed=3):
        assert a_field.matrix(y).tobytes() == ref.matrix(y).tobytes()
        assert a_field.dmatrix(y).tobytes() == ref.dmatrix(y).tobytes()


# -- Nijenhuis ---------------------------------------------------------------

def test_nijenhuis_vanishes_for_built_structures():
    g, _, L = lc_case()
    for x in CHART2.sample(50, seed=7):
        assert np.max(np.abs(nijenhuis_torsion(L, x))) <= 1e-10


def test_nijenhuis_frozen_nonzero_case():
    # L = diag(y, x): N^x_{xy} = y - x, equals 1 at (1, 2)
    ch = box_chart(("x", "y"), half_width=3.0)
    L = EndomorphismField.from_rows(ch, [["y", "0"], ["0", "x"]])
    n = nijenhuis_torsion(L, np.array([1.0, 2.0]))
    assert n[0, 0, 1] == pytest.approx(1.0, rel=1e-12)
    assert n[0, 1, 0] == pytest.approx(-1.0, rel=1e-12)


def test_nijenhuis_antisymmetric_in_lower_indices():
    ch = box_chart(("x", "y"), half_width=2.0)
    L = EndomorphismField.from_rows(ch, [["x^2 + y", "x*y"], ["y^2", "x - y"]])
    n = nijenhuis_torsion(L, np.array([0.6, -0.8]))
    assert np.allclose(n, -n.transpose(0, 2, 1), atol=1e-12)


# -- projective Weyl tensor ---------------------------------------------------

def test_weyl_trace_free():
    g = MetricField.from_rows(
        Chart(("x", "y", "z"), ((-1, 1), (-1, 1), (-1, 1))),
        [["2 + x^2", "0", "x*z/5"],
         ["0", "3 + y^2", "0"],
         ["x*z/5", "0", "1 + z^2/2"]],
        validate=False)
    for x in g.chart.sample(10, seed=8):
        w = projective_weyl(g, x)
        assert weyl_trace_defect(w) <= 1e-9


def test_weyl_vanishes_on_constant_curvature():
    ch3 = Chart(("a", "b", "c"), ((0.3, 2.8), (0.3, 2.8), (-3.0, 3.0)))
    sphere3 = MetricField.diagonal(
        ch3, ("1", "sin(a)^2", "sin(a)^2*sin(b)^2"), validate=False)
    hyp3 = MetricField.diagonal(
        Chart(("x", "y", "z"), ((-2, 2), (-2, 2), (0.2, 4.0))),
        ("1/z^2", "1/z^2", "1/z^2"), validate=False)
    flat3 = MetricField.euclidean(ch3)
    for g in (sphere3, hyp3, flat3):
        for x in g.chart.sample(10, seed=9):
            assert np.max(np.abs(projective_weyl(g, x))) <= 1e-7


def test_weyl_identically_zero_in_2d():
    g = MetricField.conformal(CHART2, "3 + x^2 + y^2", validate=False)
    for x in CHART2.sample(10, seed=10):
        assert np.max(np.abs(projective_weyl(g, x))) <= 1e-10


def test_weyl_invariant_across_lc_pair_3d():
    spec = LeviCivitaSpec.create(
        [1, 1, 1], ["1 + 0.3*tanh(x1)", "3", "6 + x3^2"],
        bounds=((-1, 1), (-1, 1), (-1, 1)))
    g, gbar, L = build_lc_pair(spec)
    rep = weyl_pair_defect(MetricPair(g, gbar), spec.chart.sample(60, seed=11))
    assert rep["max"] <= 1e-6


def test_weyl_pair_defect_names_a_nan_point(monkeypatch):
    import projeq.pairs as pairs

    g = MetricField.from_rows(CHART2, [["2 + x^2", "0"], ["0", "1 + y^2"]], validate=False)
    pts = CHART2.sample(50, seed=0)
    weyl = pairs.projective_weyl
    monkeypatch.setattr(pairs, "projective_weyl",
                        lambda h, x: weyl(h, x) * np.where(x[..., 0] > 1.0, math.nan,
                                                           1.0)[..., None, None, None, None])
    with pytest.raises(DomainViolation) as err:
        weyl_pair_defect(MetricPair(g, g), pts)
    assert err.value.point == pts[int(np.argmax(pts[:, 0] > 1.0))].tolist()
    monkeypatch.setattr(pairs, "projective_weyl", weyl)
    # equal members: every defect is 0.0, so no point is the worst
    assert weyl_pair_defect(MetricPair(g, g), pts) == {
        "max": 0.0, "points": 50, "worst_point": None}


def test_weyl_nonzero_for_sphere_cross_line():
    # mixed sectional curvatures (1 and 0), so not projectively flat
    g = MetricField.diagonal(
        Chart(("a", "b", "c"), ((0.3, 2.8), (-3, 3), (-1, 1))),
        ("1", "sin(a)^2", "1"),
        validate=False)
    vals = [np.max(np.abs(projective_weyl(g, x)))
            for x in g.chart.sample(20, seed=12)]
    assert max(vals) > 1e-2


# -- Beltrami coplanarity ------------------------------------------------------

def test_beltrami_linear_maps_send_circles_to_coplanar_curves():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        for _ in range(3):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            assert beltrami_map_defect(a, normal) <= 1e-12


def test_beltrami_rejects_degenerate_inputs():
    from projeq.errors import SingularMatrix

    with pytest.raises(SingularMatrix):
        beltrami_map_defect(np.diag([1.0, 1.0, 1e-15]), np.array([0, 0, 1.0]))
    with pytest.raises(ValueError):
        beltrami_map_defect(np.eye(2), np.array([0, 0, 1.0]))
    with pytest.raises(ValueError):
        beltrami_map_defect(np.eye(3), np.zeros(3))


@pytest.mark.parametrize("a, normal, what", [
    (np.eye(3) + 0.1, [np.nan, 0.0, 1.0], "normal"),      # max(defect, nan) kept 0.0
    (np.eye(3) + 0.1, [np.inf, 0.0, 1.0], "normal"),      # 0.0 and a RuntimeWarning
    (np.full((3, 3), np.nan), [0.0, 0.0, 1.0], "map"),    # LinAlgError from the SVD
])
def test_beltrami_refuses_non_finite_input(a, normal, what):
    from projeq.errors import DomainViolation

    with pytest.raises(DomainViolation, match=f"non-finite {what} entry"):
        beltrami_map_defect(a, np.array(normal))
