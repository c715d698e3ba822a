"""Integrator checks: exact solutions, conservation, truncation, controls."""

import math
import re

import numpy as np
import pytest

from projeq import jets
from projeq.chart import Chart, box_chart
from projeq.errors import DomainViolation, OutsideChart, SingularMetric, StepUnderflow
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
    mon = monitor_along(traj, lambda x, p: p[..., 1])
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


@pytest.mark.parametrize("span", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                  (-math.inf, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("y0", [np.zeros(1), np.zeros((2, 1))], ids=["one", "stack"])
def test_a_span_not_finite_and_increasing_is_refused_at_once(span, y0):
    def rhs(t, y):
        raise AssertionError("rhs called")

    with pytest.raises(ValueError, match=r"integration span \("):
        integrate(rhs, y0, span, tol=1e-10)


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
    mon = monitor_along(traj, lambda x, p: x[..., 0], samples=51)
    assert mon["first"] == pytest.approx(0.0, abs=1e-12)
    assert mon["last"] == pytest.approx(2.0, abs=1e-9)
    assert mon["max"] >= mon["min"]
    assert mon["samples"] == 51


def _nan_from(k):
    """x_0 at each sample, NaN from sample k on."""
    def fn(x, p):
        out = x[..., 0].copy()
        out[k:] = math.nan
        return out
    return fn


def test_monitor_refuses_a_non_finite_value_at_its_sample():
    st = PhaseState(np.array([0.0, 0.0]), np.array([1.0, 0.5]))
    traj = integrate_geodesic(FLAT, st, 2.0, tol=1e-8)
    xs = traj.sample(np.linspace(traj.ts[0], traj.t_end, 51))[:, :2]
    with pytest.raises(DomainViolation) as err:
        monitor_along(traj, _nan_from(17), samples=51)
    assert err.value.point == xs[17].tolist()
    assert str(err.value).startswith("non-finite monitored value entry at")


@pytest.mark.parametrize("fn, shape", [(lambda x, p: 1.0, "()"),
                                       (lambda x, p: p, "(51, 2)"),
                                       (lambda x, p: p[0], "(2,)")])
def test_monitor_refuses_any_shape_but_one_value_per_sample(fn, shape):
    st = PhaseState(np.array([0.0, 0.0]), np.array([1.0, 0.5]))
    traj = integrate_geodesic(FLAT, st, 2.0, tol=1e-8)
    with pytest.raises(ValueError, match=re.escape(f"returned shape {shape}, want (51,)")):
        monitor_along(traj, fn, samples=51)


# -- stacked starts ---------------------------------------------------------


def _stack(states):
    return PhaseState(np.array([s.x for s in states]), np.array([s.p for s in states]))


def _lockstep_scenes():
    from projeq import builtin_example, build_lc_pair, random_spec
    from projeq.manifest import Manifest, seeded_states

    lc3 = Manifest.from_dict({
        "chart": {"names": ["x1", "x2", "x3"],
                  "bounds": [[-1.0, 1.0], [-1.0, 1.0], [0.5, 1.5]]},
        "geometry": {"kind": "lc", "block_sizes": [1, 1, 1],
                     "phis": ["1 + 0.3*tanh(x1)", "3", "6 + x3^2"]},
    }).scene
    torus = builtin_example("torus")
    g4 = build_lc_pair(random_spec(2, 4), partner=False)[0]
    return [(lc3.metric, seeded_states(lc3.metric, lc3.chart, 20, 0)),
            (torus.metric, seeded_states(torus.metric, torus.init_box, 8, 0)),
            (g4, seeded_states(g4, g4.chart, 12, 0))]


def test_a_stack_of_states_gives_each_state_its_own_run():
    seen = set()
    for g, states in _lockstep_scenes():
        runs = integrate_geodesic(g, _stack(states), 5.0, tol=1e-10)
        assert len(runs) == len(states)
        for run, state in zip(runs, states):
            one = integrate_geodesic(g, state, 5.0, tol=1e-10)
            for field in ("ts", "ys", "qs", "hs"):
                assert np.array_equal(getattr(run, field), getattr(one, field)), field
            assert (run.status, run.dim, run.steps_accepted, run.steps_rejected) == (
                one.status, one.dim, one.steps_accepted, one.steps_rejected)
            seen |= {one.status, "rejected" if one.steps_rejected else "none rejected"}
        assert runs.steps_accepted == sum(r.steps_accepted for r in runs)
        assert runs.steps_rejected == sum(r.steps_rejected for r in runs)
    # the runs cover a chart exit and rejected steps
    assert {"exited-chart", "completed", "rejected"} <= seen


def test_a_stack_fails_at_its_first_failing_state_not_at_the_first_failure_in_lockstep():
    # state 1 leaves sqrt's domain at x > 1 after many steps; state 2 starts
    # where the metric is NaN, so its first step's error norm is NaN
    chart = Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0)))
    f = "2 + sin(10*x) + 1e-300*sqrt(1 - x) + (y^1000 - y^1000)"
    g = MetricField.diagonal(chart, (f, f), validate=False)
    states = [PhaseState([0.0, 0.0], [0.0, 1.0]), PhaseState([0.0, 0.0], [1.0, 0.0]),
              PhaseState([0.0, 3.0], [1.0, 0.0])]
    assert integrate_geodesic(g, states[0], 5.0).status == "completed"
    with pytest.raises(DomainViolation, match=r"from t=0 at \[0.0, 3.0, 1.0, 0.0\]$"):
        integrate_geodesic(g, states[2], 5.0)
    with pytest.raises(DomainViolation) as one:
        integrate_geodesic(g, states[1], 5.0)
    with pytest.raises(DomainViolation) as stacked:
        integrate_geodesic(g, _stack(states), 5.0)
    assert str(stacked.value) == str(one.value)
    assert stacked.value.point == one.value.point and one.value.point[0] > 1.0


def _nan_above_2(t, y):
    """y' = 1 on y <= 2, NaN above: a rhs that is NaN at finite states."""
    return np.where(y > 2.0, math.nan, 1.0)


def test_a_nan_error_norm_is_refused_at_the_state_its_step_starts_from():
    with pytest.raises(DomainViolation) as err:
        integrate(_nan_above_2, np.array([1.5]), (0.0, 1.0), 1e-8)
    (y,) = err.value.point  # y = 1.5 + t on the accepted steps
    assert 1.5 < y <= 2.0
    assert str(err.value) == f"non-finite error norm in the step from t={y - 1.5:.6g} at [{y!r}]"


def test_a_stack_with_a_nan_error_norm_fails_at_its_first_failing_start():
    # start 2 fails in its first step, start 1 later: start 1's error is raised
    y0 = np.array([[-5.0], [1.5], [3.0]])
    with pytest.raises(DomainViolation) as one:
        integrate(_nan_above_2, y0[1], (0.0, 1.0), 1e-8)
    with pytest.raises(DomainViolation) as stacked:
        integrate(_nan_above_2, y0, (0.0, 1.0), 1e-8)
    assert str(stacked.value) == str(one.value)
    assert stacked.value.point == one.value.point
    with pytest.raises(DomainViolation, match=r"from t=0 at \[3.0\]$"):
        integrate(_nan_above_2, y0[2], (0.0, 1.0), 1e-8)


def test_a_stack_with_a_singular_start_names_it():
    g = MetricField.diagonal(box_chart(("x", "y")), ["1", "x^2"], validate=False)
    x = np.array([[0.5, 0.0], [0.0, 0.5], [0.3, 0.2]])
    with pytest.raises(SingularMetric) as err:
        integrate_geodesic(g, PhaseState(x, np.ones_like(x)), 1.0)
    assert err.value.point == [0.0, 0.5]


def test_integrate_steps_a_stack_with_a_generic_rhs():
    calls = []

    def rhs(t, y):  # y' = -w y, each row with its own rate w = y[:, 1] (held fixed)
        calls.append((np.shape(t), np.shape(y)))
        rate = y[..., 1]
        return np.stack([-rate * y[..., 0], 0.0 * rate], axis=-1)

    y0 = np.array([[1.0, 0.5], [2.0, 3.0], [-1.0, 40.0]])
    runs = integrate(rhs, y0, (0.0, 2.0), 1e-10)
    assert calls[0] == ((3,), (3, 2))
    assert all(len(t) == 1 and y == (t[0], 2) for t, y in calls)
    for run, start in zip(runs, y0):
        one = integrate(rhs, start, (0.0, 2.0), 1e-10)
        assert np.array_equal(run.ts, one.ts) and np.array_equal(run.ys, one.ys)
        assert run.steps_rejected == one.steps_rejected
        assert run.ys[-1][0] == pytest.approx(start[0] * math.exp(-2.0 * start[1]), abs=1e-8)
    # the stiff third row takes more steps: the others finish first
    assert runs[2].steps_accepted > runs[0].steps_accepted
    assert len({shape[1][0] for shape in calls}) > 1


def test_a_stack_budget_or_chart_check_fails_as_its_first_state_does():
    def rhs(t, y):
        return np.stack([np.sin(50.0 * t) * 40.0, np.cos(50.0 * t) * 40.0], axis=-1)

    with pytest.raises(StepUnderflow, match="budget exhausted after 40 steps"):
        integrate(rhs, np.zeros((2, 2)), (0.0, 50.0), 1e-13, max_steps=40)
    with pytest.raises(OutsideChart):
        integrate(rhs, np.array([[0.0, 0.0], [5.0, 0.0]]), (0.0, 1.0), 1e-8,
                  inside=lambda y: np.abs(y[..., 0]) < 1.0)


def test_the_per_row_error_norm_equals_the_one_state_norm():
    rng = np.random.default_rng(3)
    for size in range(2, 17):
        rows = rng.standard_normal((50, size)) * 10.0 ** rng.integers(-9, 9, (50, size))
        stacked = np.sqrt(np.mean(rows ** 2, axis=-1)).tolist()
        assert stacked == [float(np.sqrt(np.mean(row ** 2))) for row in rows]
        # the integrator's form of the same norm, stacked and one row at a time
        assert np.sqrt(np.add.reduce(rows ** 2, axis=-1) / size).tolist() == stacked
        assert [float(np.sqrt(np.add.reduce(row ** 2, axis=-1) / size))
                for row in rows] == stacked


def test_the_one_state_rhs_equals_its_row_of_the_stacked_rhs():
    for g, states in _lockstep_scenes():  # lc3, the torus and random_spec(2, 4)
        stack = _stack(states)
        ys = np.concatenate([stack.x, stack.p], axis=1)
        rhs = geodesic_rhs(g)
        rows = rhs(np.zeros(len(ys)), ys)
        for y, row in zip(ys, rows):
            assert rhs(0.0, y).tobytes() == row.tobytes()


def test_the_one_state_rhs_names_a_jet_error_as_a_stack_of_one_does():
    g = MetricField.diagonal(box_chart(("x", "y")), ["1 + sqrt(x)", "1"], validate=False)
    rhs = geodesic_rhs(g)
    y = np.array([-0.5, 0.2, 1.0, 1.0])
    errors = []
    for t, state in ((0.0, y), (np.zeros(1), y[None])):
        with pytest.raises(DomainViolation) as exc:
            rhs(t, state)
        errors.append((type(exc.value), str(exc.value), exc.value.point))
    assert errors[0] == errors[1]
    assert "'1 + sqrt(x)'" in errors[0][1] and errors[0][2] == [-0.5, 0.2]


def test_geodesic_rhs_builds_the_metric_jet_once_not_per_call(monkeypatch):
    built, evaluated = [], []
    build, call = jets._build, jets.Jets.__call__
    monkeypatch.setattr(jets, "_build", lambda *args: built.append(args[-1]) or build(*args))
    monkeypatch.setattr(jets.Jets, "__call__",
                        lambda self, *args: evaluated.append(args) or call(self, *args))
    g = MetricField.diagonal(box_chart(("x", "y")), ["1 + x^2", "2"], validate=False)
    rhs = geodesic_rhs(g)
    assert built == [1]
    for x0 in (0.1, 0.2, 0.3):
        rhs(0.0, np.array([x0, 0.0, 1.0, 1.0]))
    assert built == [1] and evaluated == []


@pytest.mark.parametrize("t_span", [(0.0, 5e-324), (1e17, 1e17 + 1e3)])
def test_a_step_that_does_not_advance_t_raises_before_any_step(t_span):
    # 5e-324: the first step and h_min both underflow to 0.0; at t = 1e17 the
    # first step, 1.0, is below the float spacing of t
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    with pytest.raises(StepUnderflow, match=re.escape(f"does not advance t={t_span[0]:.6g}")):
        integrate(rhs, np.array([1.0]), t_span, 1e-8)
    assert calls == [t_span[0]]  # the first stage of the start only
