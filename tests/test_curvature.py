"""Curvature against closed forms and an independent sympy oracle."""

import math

import numpy as np
import pytest
import sympy as sp

from projeq.chart import Chart
from projeq.curvature import (
    christoffel,
    christoffel_with_derivative,
    ricci,
    riemann,
    sectional,
)
from projeq.errors import SingularMetric
from projeq.fields import MetricField

SPHERE = MetricField.diagonal(
    Chart(("theta", "phi"), ((0.2, 2.9), (-3.0, 3.0))),
    ("1", "sin(theta)^2"),
    validate=False,
)

HYPERBOLIC = MetricField.diagonal(
    Chart(("x", "y"), ((-3.0, 3.0), (0.1, 5.0))),
    ("1/y^2", "1/y^2"),
    validate=False,
)


def sympy_curvature(entries_text, names, x):
    """Independent Christoffel/Riemann/Ricci via sympy, same conventions."""
    syms = sp.symbols(names)
    g = sp.Matrix([[sp.sympify(e.replace("^", "**")) for e in row]
                   for row in entries_text])
    n = len(syms)
    ginv = g.inv()
    gam = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = sum(
                    ginv[i, m] * (sp.diff(g[m, k], syms[j])
                                  + sp.diff(g[m, j], syms[k])
                                  - sp.diff(g[j, k], syms[m]))
                    for m in range(n)
                ) / 2
                gam[i, j, k] = sp.simplify(s)
    riem = np.empty((n, n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for el in range(n):
                    s = sp.diff(gam[i, el, j], syms[k]) - sp.diff(gam[i, k, j], syms[el])
                    s += sum(gam[i, k, m] * gam[m, el, j]
                             - gam[i, el, m] * gam[m, k, j] for m in range(n))
                    riem[i, j, k, el] = s
    subs = dict(zip(syms, x))
    gam_num = np.array([[[float(gam[i, j, k].evalf(subs=subs))
                          for k in range(n)] for j in range(n)]
                        for i in range(n)])
    riem_num = np.array(
        [[[[float(sp.simplify(riem[i, j, k, el]).evalf(subs=subs))
            for el in range(n)] for k in range(n)] for j in range(n)]
         for i in range(n)])
    ric_num = np.einsum("kjkl->jl", riem_num)
    return gam_num, riem_num, 0.5 * (ric_num + ric_num.T)


def test_sympy_oracle_nontrivial_metric():
    entries = [["2 + x^2", "x*y/2"], ["x*y/2", "3 + y^2"]]
    g = MetricField.from_rows(Chart(("x", "y"), ((-2, 2), (-2, 2))),
                              entries, validate=False)
    x = np.array([0.6, -0.4])
    gam_ref, riem_ref, ric_ref = sympy_curvature(entries, ("x", "y"), x)
    assert np.allclose(christoffel(g, x), gam_ref, atol=1e-12)
    assert np.allclose(riemann(g, x), riem_ref, atol=1e-10)
    assert np.allclose(ricci(g, x), ric_ref, atol=1e-10)


def test_sphere_christoffel_frozen_value():
    x = np.array([math.pi / 3, 0.5])
    gam = christoffel(SPHERE, x)
    # Gamma^theta_{phi phi} = -sin(theta) cos(theta)
    assert gam[0, 1, 1] == pytest.approx(-0.43301270189221935, rel=1e-14)
    # Gamma^phi_{theta phi} = cot(theta)
    assert gam[1, 0, 1] == pytest.approx(1.0 / math.tan(math.pi / 3), rel=1e-13)


def test_singular_metric_keeps_its_point():
    g = MetricField.diagonal(Chart(("x", "y"), ((-2.0, 2.0),) * 2), ("1", "exp(-100*x)"),
                             validate=False)
    with pytest.raises(SingularMetric) as err:
        christoffel(g, np.array([1.5, 0.25]))
    assert err.value.point == [1.5, 0.25]
    assert str(err.value) == "metric numerically singular at [1.5, 0.25]"


def test_sphere_sectional_is_plus_one():
    for x in SPHERE.chart.sample(25, seed=0):
        k = sectional(SPHERE, x, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert k == pytest.approx(1.0, abs=1e-10)


def test_hyperbolic_sectional_is_minus_one():
    for x in HYPERBOLIC.chart.sample(25, seed=1):
        k = sectional(HYPERBOLIC, x, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert k == pytest.approx(-1.0, abs=1e-10)


def test_sectional_invariant_under_plane_basis_change():
    rng = np.random.default_rng(7)
    x = np.array([1.1, 0.3])
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    k0 = sectional(SPHERE, x, u, v)
    a, b, c, d = rng.normal(size=4)
    while abs(a * d - b * c) < 0.1:
        a, b, c, d = rng.normal(size=4)
    k1 = sectional(SPHERE, x, a * u + b * v, c * u + d * v)
    assert k1 == pytest.approx(k0, rel=1e-10)


def test_flat_space_curvature_vanishes():
    g = MetricField.euclidean(Chart(("x", "y", "z"),
                                    ((-1, 1), (-1, 1), (-1, 1))))
    x = np.array([0.2, -0.3, 0.7])
    assert np.allclose(christoffel(g, x), 0.0)
    assert np.allclose(riemann(g, x), 0.0)
    assert np.allclose(ricci(g, x), 0.0)


def test_polar_coordinates_flat():
    g = MetricField.diagonal(Chart(("r", "t"), ((0.3, 4.0), (-3.0, 3.0))),
                             ("1", "r^2"), validate=False)
    for x in g.chart.sample(20, seed=2):
        assert np.allclose(riemann(g, x), 0.0, atol=1e-11)


def test_sphere_ricci_proportional_to_metric():
    # Ric = (n-1) g on the unit sphere
    for x in SPHERE.chart.sample(10, seed=3):
        assert np.allclose(ricci(SPHERE, x), SPHERE.matrix(x), atol=1e-10)


def test_round_sphere_3d_einstein():
    ch = Chart(("a", "b", "c"), ((0.3, 2.8), (0.3, 2.8), (-3.0, 3.0)))
    g = MetricField.diagonal(
        ch, ("1", "sin(a)^2", "sin(a)^2*sin(b)^2"), validate=False)
    for x in ch.sample(8, seed=4):
        assert np.allclose(ricci(g, x), 2.0 * g.matrix(x), atol=1e-9)


def test_lower_riemann_symmetries():
    entries = [["2 + x^2", "x*y/2"], ["x*y/2", "3 + y^2"]]
    g = MetricField.from_rows(Chart(("x", "y"), ((-2, 2), (-2, 2))),
                              entries, validate=False)
    x = np.array([0.5, 0.8])
    rl = np.einsum("...im,...mjkl->...ijkl", g.matrix(x), riemann(g, x))
    assert np.allclose(rl, -rl.transpose(1, 0, 2, 3), atol=1e-12)
    assert np.allclose(rl, -rl.transpose(0, 1, 3, 2), atol=1e-12)
    assert np.allclose(rl, rl.transpose(2, 3, 0, 1), atol=1e-12)
    # first Bianchi
    bianchi = rl + rl.transpose(0, 2, 3, 1) + rl.transpose(0, 3, 1, 2)
    assert np.allclose(bianchi, 0.0, atol=1e-12)


def test_christoffel_derivative_matches_fd():
    entries = [["2 + sin(x)", "0"], ["0", "3 + cos(y)"]]
    g = MetricField.from_rows(Chart(("x", "y"), ((-2, 2), (-2, 2))),
                              entries, validate=False)
    x = np.array([0.4, -0.9])
    _, dgam = christoffel_with_derivative(g, x)
    h = 1e-6
    for k in range(2):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (christoffel(g, xp) - christoffel(g, xm)) / (2 * h)
        assert np.allclose(dgam[:, :, :, k], fd, atol=1e-7)
