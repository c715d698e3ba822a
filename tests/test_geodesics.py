"""Integrator checks: exact solutions, conservation, truncation, controls."""

import math

import numpy as np
import pytest

from projeq.chart import Chart, box_chart
from projeq.errors import OutsideChart, SingularMetric, StepUnderflow
from projeq.fields import MetricField, PhaseState
from projeq.geodesics import (
    Trajectory,
    geodesic_rhs,
    hamiltonian,
    integrate,
    integrate_geodesic,
    monitor_along,
)

FLAT = MetricField.euclidean(box_chart(("x", "y"), half_width=50.0))

SPHERE = MetricField.diagonal(
    Chart(("theta", "phi"), ((0.05, math.pi - 0.05), (-8.0, 8.0))),
    ("1", "sin(theta)^2"),
    validate=False,
)


def test_flat_geodesics_are_straight_lines():
    st = PhaseState(np.array([1.0, -2.0]), np.array([0.6, 0.8]))
    traj = integrate_geodesic(FLAT, st, 7.0, tol=1e-10)
    assert traj.status == "completed"
    end = traj.state(-1)
    assert np.allclose(end.x, [1.0 + 0.6 * 7, -2.0 + 0.8 * 7], atol=1e-9)
    assert np.allclose(end.p, [0.6, 0.8], atol=1e-12)


def test_flat_dense_output_linear_in_t():
    st = PhaseState(np.array([0.0, 0.0]), np.array([1.0, 0.5]))
    traj = integrate_geodesic(FLAT, st, 3.0, tol=1e-10)
    for t in np.linspace(0.0, 3.0, 17):
        y = traj.sample(float(t))
        assert np.allclose(y[:2], [t, 0.5 * t], atol=1e-9)


def test_great_circle_closes_after_two_pi():
    # equator: theta = pi/2, phi advancing at unit speed
    st = PhaseState(np.array([math.pi / 2, 0.0]), np.array([0.0, 1.0]))
    traj = integrate_geodesic(SPHERE, st, 2 * math.pi, tol=1e-12)
    assert traj.status == "completed"
    end = traj.state(-1)
    assert end.x[0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert end.x[1] == pytest.approx(2 * math.pi, abs=1e-9)


def test_energy_conserved_on_sphere():
    st = PhaseState(np.array([1.0, 0.2]), np.array([0.3, 0.9]))
    traj = integrate_geodesic(SPHERE, st, 5.0, tol=1e-10)
    mon = monitor_along(traj, lambda x, p: hamiltonian(SPHERE, x, p))
    assert mon["drift"] <= 1e-8


def test_momentum_conjugate_to_cyclic_coordinate_conserved():
    # phi is cyclic on the sphere: p_phi exactly conserved
    st = PhaseState(np.array([1.2, -0.4]), np.array([0.5, 0.7]))
    traj = integrate_geodesic(SPHERE, st, 5.0, tol=1e-10)
    mon = monitor_along(traj, lambda x, p: p[1])
    assert mon["drift"] <= 1e-9


def test_tolerance_self_consistency():
    st = PhaseState(np.array([1.0, 0.0]), np.array([0.4, 0.8]))
    loose = integrate_geodesic(SPHERE, st, 4.0, tol=1e-8)
    tight = integrate_geodesic(SPHERE, st, 4.0, tol=1e-12)
    assert np.max(np.abs(loose.state(-1).x - tight.state(-1).x)) <= 1e-6
    assert tight.steps_accepted > loose.steps_accepted


def test_dense_output_reproduces_nodes():
    st = PhaseState(np.array([1.0, 0.3]), np.array([0.2, 0.8]))
    traj = integrate_geodesic(SPHERE, st, 4.0, tol=1e-10)
    for idx in range(len(traj.ts)):
        y = traj.sample(float(traj.ts[idx]))
        assert np.allclose(y, traj.ys[idx], atol=1e-11)


def test_sample_outside_span_rejected():
    st = PhaseState(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    traj = integrate_geodesic(FLAT, st, 1.0, tol=1e-8)
    with pytest.raises(ValueError):
        traj.sample(1.5)


def test_exit_truncates_at_boundary():
    ch = box_chart(("x", "y"), half_width=2.0)
    g = MetricField.euclidean(ch)
    st = PhaseState(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    traj = integrate_geodesic(g, st, 10.0, tol=1e-10)
    assert traj.status == "exited-chart"
    assert traj.t_end == pytest.approx(2.0, abs=1e-6)
    end = traj.state(-1)
    assert end.x[0] <= 2.0
    assert end.x[0] == pytest.approx(2.0, abs=1e-6)
    assert ch.contains(end.x)


def test_start_outside_chart_rejected():
    ch = box_chart(("x", "y"), half_width=1.0)
    g = MetricField.euclidean(ch)
    st = PhaseState(np.array([5.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(OutsideChart):
        integrate_geodesic(g, st, 1.0, tol=1e-8)


def test_step_underflow_on_hard_singularity():
    def rhs(t, y):
        return np.array([1.0 / (1.0 - y[0])])

    with pytest.raises(StepUnderflow):
        integrate(rhs, np.array([0.0]), (0.0, 2.0), tol=1e-10)


def test_step_budget_exhaustion_raises():
    def rhs(t, y):
        return np.array([math.sin(50.0 * t) * 40.0, math.cos(50.0 * t) * 40.0])

    with pytest.raises(StepUnderflow):
        integrate(rhs, np.zeros(2), (0.0, 50.0), tol=1e-13, max_steps=40)


def test_integrator_order_five():
    # halving tolerance by 1e4 should cut endpoint error far more than 10x
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    y0 = np.array([1.0, 0.0])
    exact = np.array([math.cos(6.0), -math.sin(6.0)])
    errs = []
    for tol in (1e-6, 1e-10):
        traj = integrate(rhs, y0, (0.0, 6.0), tol)
        errs.append(np.max(np.abs(traj.ys[-1] - exact)))
    assert errs[1] < errs[0] * 1e-2
    assert errs[1] < 1e-9


def test_rhs_momentum_equation_matches_hamilton():
    # dp/dt from the flow equals -dH/dx by finite differences
    st = PhaseState(np.array([1.1, 0.4]), np.array([0.3, 0.7]))
    rhs = geodesic_rhs(SPHERE)
    f = rhs(0.0, np.concatenate([st.x, st.p]))
    h = 1e-6
    for k in range(2):
        xp, xm = st.x.copy(), st.x.copy()
        xp[k] += h
        xm[k] -= h
        dH = (hamiltonian(SPHERE, xp, st.p) - hamiltonian(SPHERE, xm, st.p)) / (2 * h)
        assert f[2 + k] == pytest.approx(-dH, abs=1e-8)
    # dx/dt = dH/dp = g^{-1} p
    assert np.allclose(f[:2], np.linalg.solve(SPHERE.matrix(st.x), st.p))


def test_rhs_names_a_singular_metric_and_its_point():
    g = MetricField.diagonal(box_chart(("x", "y")), ["1", "x^2"], validate=False)
    rhs = geodesic_rhs(g)
    with pytest.raises(SingularMetric) as exc:
        rhs(0.0, np.array([0.0, 0.5, 1.0, 1.0]))
    assert exc.value.point == [0.0, 0.5]


def test_hamiltonian_names_a_singular_metric_and_its_point():
    g = MetricField.diagonal(box_chart(("x", "y")), ["1", "x^2"], validate=False)
    with pytest.raises(SingularMetric) as exc:
        hamiltonian(g, [0.0, 0.5], [1.0, 1.0])
    assert exc.value.point == [0.0, 0.5]


def test_sample_on_a_time_array_matches_elementwise_dense_output():
    st = PhaseState(np.array([1.0, 0.3]), np.array([0.4, -0.2]))
    traj = integrate_geodesic(SPHERE, st, 3.0, tol=1e-8)
    ts = np.linspace(traj.ts[0], traj.t_end, 37)
    batch = traj.sample(ts)
    assert batch.shape == (37, 4)
    for t, row in zip(ts, batch):
        k = min(max(int(np.searchsorted(traj.ts, t, side="right") - 1), 0), len(traj.ts) - 2)
        u = (t - traj.ts[k]) / traj.hs[k]
        q = traj.qs[k]
        want = traj.ys[k] + u * (((q[3] * u + q[2]) * u + q[1]) * u + q[0])
        assert np.array_equal(row, want)
        assert np.array_equal(traj.sample(float(t)), want)
    with pytest.raises(ValueError):
        traj.sample(np.array([0.0, traj.t_end + 1.0]))


def test_monitor_reports_span_fields():
    st = PhaseState(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    traj = integrate_geodesic(FLAT, st, 2.0, tol=1e-8)
    mon = monitor_along(traj, lambda x, p: x[0], samples=51)
    assert mon["first"] == pytest.approx(0.0, abs=1e-12)
    assert mon["last"] == pytest.approx(2.0, abs=1e-9)
    assert mon["max"] >= mon["min"]
    assert mon["samples"] == 51
