"""Integral families: values, roots, brackets, and the two audits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fields import per_row

from projeq.chart import Chart, box_chart
from projeq.errors import ComplexRoots, DomainViolation, SingularMetric, ZeroVelocity
from projeq.fields import EndomorphismField, MetricField, PhaseState
from projeq.flows import (
    IntegralFamily,
    _powers,
    interlacing_audit,
    ordering_audit,
)
from projeq.levicivita import LeviCivitaSpec, build_lc_pair, random_spec
from projeq.pairs import spectrum_at


def lc_family_3d():
    spec = LeviCivitaSpec.create(
        [1, 1, 1], ["1 + 0.3*tanh(x1)", "3", "6 + x3^2"],
        bounds=((-1, 1), (-1, 1), (-1, 1)))
    g, gbar, L = build_lc_pair(spec)
    return IntegralFamily(g, L), spec


def poisson(fam, state, s, t):
    """{I_s, I_t} at one phase state, read off the bracket jet."""
    n = fam.g.dim
    return float(_powers(s, n) @ fam._jet(state).brackets @ _powers(t, n))


def poisson_with_energy(fam, state, t):
    """{I_t, H} at one phase state, read off the bracket jet."""
    return float(_powers(t, fam.g.dim) @ fam._jet(state).energy_brackets)


def phase_sample(chart, count, seed):
    rng = np.random.default_rng(seed)
    return [PhaseState(x, rng.normal(size=chart.dim))
            for x in chart.sample(count, seed=seed)]


# -- adjugate coefficients ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_s_matrix_is_the_adjugate(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    ch = box_chart(tuple(f"c{i}" for i in range(n)), half_width=1.0)
    L = EndomorphismField.from_rows(
        ch, [[repr(float(a[i, j])) for j in range(n)] for i in range(n)])
    fam = IntegralFamily(MetricField.euclidean(ch), L, check_points=0)
    x = ch.center()
    t = float(rng.normal())
    s = fam.s_matrix(x, t)
    m = a - t * np.eye(n)
    # adjugate identity, valid whether or not m is invertible
    scale = 1.0 + np.abs(m).max() ** n
    assert np.allclose(s @ m, np.linalg.det(m) * np.eye(n),
                       atol=1e-9 * scale)


def test_leading_coefficient_is_signed_energy():
    fam, spec = lc_family_3d()
    for state in phase_sample(spec.chart, 10, seed=1):
        coeffs = fam.t_coefficients(state)
        h = 0.5 * state.p @ np.linalg.solve(fam.g.matrix(state.x), state.p)
        assert coeffs[-1] == pytest.approx(2.0 * h, rel=1e-12)


def test_identity_l_gives_power_of_energy():
    ch = box_chart(("x", "y", "z"), half_width=1.0)
    g = MetricField.euclidean(ch)
    fam = IntegralFamily(g, EndomorphismField.identity(ch))
    state = PhaseState(np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, -1.0]))
    two_h = float(state.p @ state.p)
    for t in (-1.0, 0.0, 0.4, 2.5):
        assert fam.value(state, t) == pytest.approx((1 - t) ** 2 * two_h,
                                                    rel=1e-12)


# -- roots ---------------------------------------------------------------------

CONST2 = Chart(("x", "y"), ((-1, 1), (-1, 1)))


def const_family(diag=(1.0, 3.0)):
    g = MetricField.euclidean(CONST2)
    L = EndomorphismField.from_rows(
        CONST2, [[repr(diag[0]), "0"], ["0", repr(diag[1])]])
    return IntegralFamily(g, L)


def test_root_of_balanced_momentum_is_the_mean():
    fam = const_family()
    # I_t = (3 - t) px^2 + (1 - t) py^2; px = py = 1 gives root 2
    state = PhaseState(np.zeros(2), np.array([1.0, 1.0]))
    assert np.allclose(fam.roots(state), [2.0])


def test_momentum_on_eigendirection_yields_other_eigenvalue():
    fam = const_family()
    lam1 = fam.roots(PhaseState(np.zeros(2), np.array([0.0, 1.0])))
    lam2 = fam.roots(PhaseState(np.zeros(2), np.array([1.0, 0.0])))
    assert np.allclose(lam1, [1.0])
    assert np.allclose(lam2, [3.0])


def test_zero_momentum_rejected():
    fam = const_family()
    with pytest.raises(ZeroVelocity):
        fam.roots(PhaseState(np.zeros(2), np.zeros(2)))


def test_complex_roots_detected_for_rotation_block():
    ch = box_chart(("x", "y", "z"), half_width=1.0)
    g = MetricField.euclidean(ch)
    L = EndomorphismField.from_rows(
        ch, [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]])
    fam = IntegralFamily(g, L, check_points=0)
    # I_t along e_z is the minor det = t^2 + 1: roots +-i
    with pytest.raises(ComplexRoots):
        fam.roots(PhaseState(np.zeros(3), np.array([0.0, 0.0, 1.0])))


def test_double_root_tolerated_by_clamp():
    ch = box_chart(("x", "y", "z"), half_width=1.0)
    g = MetricField.euclidean(ch)
    fam = IntegralFamily(g, EndomorphismField.identity(ch))
    rts = fam.roots(PhaseState(np.zeros(3), np.array([1.0, 1.0, 1.0])))
    assert np.allclose(rts, [1.0, 1.0], atol=1e-6)


# -- gradients and brackets -----------------------------------------------------

def fd_gradients(fam, state, t, h=1e-6):
    gx = np.zeros_like(state.x)
    gp = np.zeros_like(state.p)
    for i in range(len(state.x)):
        xp, xm = state.x.copy(), state.x.copy()
        xp[i] += h
        xm[i] -= h
        gx[i] = (fam.value(PhaseState(xp, state.p), t)
                 - fam.value(PhaseState(xm, state.p), t)) / (2 * h)
        pp, pm = state.p.copy(), state.p.copy()
        pp[i] += h
        pm[i] -= h
        gp[i] = (fam.value(PhaseState(state.x, pp), t)
                 - fam.value(PhaseState(state.x, pm), t)) / (2 * h)
    return gx, gp


def test_gradients_match_finite_differences():
    fam, spec = lc_family_3d()
    for state in phase_sample(spec.chart, 6, seed=2):
        for t in (0.0, 1.7):
            gx, gp = fam.gradients(state, t)
            fx, fp = fd_gradients(fam, state, t)
            scale = 1.0 + max(np.abs(gx).max(), np.abs(gp).max())
            assert np.allclose(gx, fx, atol=2e-6 * scale)
            assert np.allclose(gp, fp, atol=2e-6 * scale)


def test_energy_gradients_match_finite_differences():
    fam, spec = lc_family_3d()
    state = phase_sample(spec.chart, 1, seed=3)[0]

    def h_value(s):
        return 0.5 * s.p @ np.linalg.solve(fam.g.matrix(s.x), s.p)

    jet = fam._jet(state)
    hx, hp = jet.hx, jet.hp
    eps = 1e-6
    for i in range(3):
        xp, xm = state.x.copy(), state.x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (h_value(PhaseState(xp, state.p))
              - h_value(PhaseState(xm, state.p))) / (2 * eps)
        assert hx[i] == pytest.approx(fd, abs=2e-6)
    assert np.allclose(hp, np.linalg.solve(fam.g.matrix(state.x), state.p))


def test_family_members_commute_on_normal_form():
    fam, spec = lc_family_3d()
    states = phase_sample(spec.chart, 25, seed=4)
    rep = fam.commutation_report(states, [0.0, 2.0, 4.5, 10.0])
    assert rep["pass"]
    assert rep["max_scaled_bracket"] <= 1e-8


def test_bracket_detects_incompatible_tensor():
    # L = diag(y, x) is self-adjoint for the flat metric but not compatible:
    # {I_a, I_b} = 2 (a - b) (px^3 + py^3)
    g = MetricField.euclidean(CONST2)
    L = EndomorphismField.from_rows(CONST2, [["y", "0"], ["0", "x"]])
    fam = IntegralFamily(g, L)
    state = PhaseState(np.array([0.3, -0.4]), np.array([1.0, 1.0]))
    br = poisson(fam, state, 0.0, 1.0)
    assert br == pytest.approx(-4.0, rel=1e-12)
    assert poisson(fam, state, 1.0, 0.0) == pytest.approx(4.0, rel=1e-12)


# L = diag(y, x) with the flat metric: I_t = (x - t) px^2 + (y - t) py^2,
# {I_s, I_t} = 2 (s - t) (px^3 + py^3) and {I_t, H} = px^3 + py^3.

def incompatible_family():
    g = MetricField.euclidean(CONST2)
    L = EndomorphismField.from_rows(CONST2, [["y", "0"], ["0", "x"]])
    return IntegralFamily(g, L)


def closed_form_brackets(state, t_values):
    """(label, bracket, scale) in the audit's scan order, from the formulas above."""
    (x, y), (px, py) = state.x, state.p
    cube = px ** 3 + py ** 3

    def value(t):
        return (x - t) * px ** 2 + (y - t) * py ** 2

    out = []
    for i, s in enumerate(t_values):
        for t in t_values[i + 1:]:
            out.append(([s, t], 2.0 * (s - t) * cube,
                        1.0 + abs(value(s)) + abs(value(t))))
    out += [([t, "energy"], cube, 1.0 + abs(value(t))) for t in t_values]
    return out


@pytest.mark.parametrize("s, t", [(0.0, 1.0), (-2.5, 0.7), (3.0, 10.0),
                                  (10.0, -10.0), (0.25, 0.25)])
def test_poisson_matches_closed_form_on_incompatible_tensor(s, t):
    fam = incompatible_family()
    for state in phase_sample(CONST2, 4, seed=10):
        want = 2.0 * (s - t) * float(np.sum(state.p ** 3))
        assert poisson(fam, state, s, t) == pytest.approx(want, rel=1e-12, abs=1e-13)
        assert poisson_with_energy(fam, state, t) == pytest.approx(
            float(np.sum(state.p ** 3)), rel=1e-12)


def test_commutation_report_names_worst_pair_on_incompatible_tensor():
    fam = incompatible_family()
    t_values = [0.0, 1.0, 10.0]
    states = phase_sample(CONST2, 6, seed=12)
    rep = fam.commutation_report(states, t_values)
    assert not rep["pass"]
    worst, want = 0.0, None
    for state in states:
        for label, br, scale in closed_form_brackets(state, t_values):
            if abs(br) / scale > worst:
                worst = abs(br) / scale
                want = (label, [float(v) for v in state.x], br)
    assert rep["max_scaled_bracket"] == pytest.approx(worst, rel=1e-12)
    assert rep["worst"]["t_pair"] == want[0]
    assert rep["worst"]["x"] == want[1]
    assert rep["worst"]["bracket"] == pytest.approx(want[2], rel=1e-12)


def test_commutation_report_names_a_nan_bracket():
    unit = Chart(("x", "y"), ((0.0, 1.0), (0.0, 1.0)))
    g = MetricField.from_function(
        unit, per_row(lambda x: np.array([[2.0 if x[0] <= 0.5 else math.nan, 0.0], [0.0, 1.0]])),
        validate=False)
    L = EndomorphismField.constant(unit, np.diag([1.0, 2.0]))
    # the family's own self-adjointness check refuses the NaN metric first
    checks = unit.sample(16, seed=11)
    with pytest.raises(DomainViolation, match="non-finite metric entry") as err:
        IntegralFamily(g, L)
    assert err.value.point == checks[int(np.argmax(checks[:, 0] > 0.5))].tolist()
    fam = IntegralFamily(g, L, check_points=0)  # so that the bracket's refusal is reached
    pts = unit.sample(20, seed=0)
    assert (pts[:, 0] > 0.5).sum() == 10
    states = [PhaseState(x, np.array([0.3, -0.7])) for x in pts]
    # skipped by the old first-strict-maximum loop: pass True, max 0.0, worst None
    with pytest.raises(DomainViolation, match="non-finite commutation bracket") as err:
        fam.commutation_report(states, [0.0, 1.5, 3.0])
    assert err.value.point == pts[int(np.argmax(pts[:, 0] > 0.5))].tolist()
    # the finite half keeps the report and its keys
    rep = fam.commutation_report([s for s in states if s.x[0] <= 0.5], [0.0, 1.5, 3.0])
    assert rep["pass"] and rep["states"] == 10
    assert set(rep) == {"max_scaled_bracket", "tol", "pass", "states", "t_grid", "worst"}


def test_an_overflowing_bracket_is_refused_at_its_state_under_any_warning_filter():
    from projeq.manifest import Manifest

    # g_yy = 1e-300 makes the adjugate recursion's derivative add inf and -inf
    scene = Manifest.from_dict({
        "chart": {"names": ["x", "y"], "bounds": [[0.1, 1.9], [-1.0, 1.0]]},
        "geometry": {"kind": "pair", "g": [["2 - x", "0"], ["0", 1e-300]],
                     "gbar": [["1", "0"], ["0", "1"]]}}).scene
    fam = scene.family()
    xs = scene.chart.sample(3, seed=0)
    states = [PhaseState(x, np.array([0.3, 0.7])) for x in xs]
    texts = []
    for action in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DomainViolation) as err:
                fam.commutation_report(states, [0.0, 1.0, 2.0])
        texts.append(str(err.value))
    assert texts == [f"non-finite commutation bracket at {xs[0].tolist()}"] * 2


def test_a_family_on_a_nan_metric_or_endomorphism_is_refused_at_construction():
    # x^1000 overflows on this chart, so x^1000 - x^1000 is NaN
    big = Chart(("x", "y"), ((2.5, 3.5), (-1.0, 1.0)))
    nan_entry = [["x^1000 - x^1000 + 1", "0"], ["0", "2"]]
    first = big.sample(16, seed=11)[0].tolist()  # the family's first check point
    with pytest.raises(DomainViolation, match="non-finite metric entry") as err:
        IntegralFamily(MetricField.from_rows(big, nan_entry, validate=False),
                       EndomorphismField.from_rows(big, nan_entry))
    assert err.value.point == first
    with pytest.raises(DomainViolation, match="non-finite endomorphism entry") as err:
        IntegralFamily(MetricField.euclidean(big), EndomorphismField.from_rows(big, nan_entry))
    assert err.value.point == first


def test_root_failures_name_the_state():
    fam = const_family()
    with pytest.raises(ZeroVelocity) as err:
        fam.roots(PhaseState(np.array([0.25, -0.5]), np.zeros(2)))
    assert err.value.point == [0.25, -0.5]
    ch = box_chart(("x", "y", "z"), half_width=1.0)
    rotation = EndomorphismField.from_rows(
        ch, [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]])
    fam = IntegralFamily(MetricField.euclidean(ch), rotation, check_points=0)
    xs = np.column_stack([np.linspace(-0.5, 0.5, 4), np.zeros(4), np.zeros(4)])
    ps = np.tile([1.0, 0.0, 0.0], (4, 1))
    ps[2] = [0.0, 0.0, 1.0]  # I_t = t^2 + 1 along e_z: roots +-i
    with pytest.raises(ComplexRoots, match=r"^root imaginary part 1.000e\+00 exceeds clamp at ") as err:
        fam.roots(PhaseState(xs, ps))
    assert err.value.point == xs[2].tolist()


def test_commutation_report_builds_the_metric_once_per_state(monkeypatch):
    fam, spec = lc_family_3d()
    states = phase_sample(spec.chart, 7, seed=13)
    calls = []
    matrix = fam.g.matrix

    def counting(x):
        calls.append(1)
        return matrix(x)

    monkeypatch.setattr(fam.g, "matrix", counting)
    rep = fam.commutation_report(states, [0.0, 2.0, 4.5, 10.0, -3.0])
    assert rep["pass"]
    assert len(calls) <= len(states)


def test_gradients_match_finite_differences_in_4d():
    g, _, L = build_lc_pair(random_spec(2, 4), partner=False)
    fam = IntegralFamily(g, L)
    for state in phase_sample(g.chart, 3, seed=14):
        for t in (-1.0, 10.0):
            gx, gp = fam.gradients(state, t)
            fx, fp = fd_gradients(fam, state, t)
            scale = 1.0 + max(np.abs(gx).max(), np.abs(gp).max())
            assert np.allclose(gx, fx, atol=2e-6 * scale)
            assert np.allclose(gp, fp, atol=2e-6 * scale)


def test_poisson_with_energy_vanishes_on_normal_form():
    fam, spec = lc_family_3d()
    for state in phase_sample(spec.chart, 10, seed=5):
        assert abs(poisson_with_energy(fam, state, 1.3)) <= 1e-10


# -- a singular metric ------------------------------------------------------------

# g = diag(x^2, 1) is singular on x = 0; each call solves against g at once
_SINGULAR_CALLS = {
    "value": lambda fam, s: fam.value(s, 0.5),
    "values": lambda fam, s: list(fam.values(s, (0.5, 2.0))),
    "t_coefficients": lambda fam, s: fam.t_coefficients(s),
    "roots": lambda fam, s: fam.roots(s),
    "gradients": lambda fam, s: fam.gradients(s, 0.5),
    "commutation_report": lambda fam, s: fam.commutation_report(
        [PhaseState(x, p) for x, p in zip(np.atleast_2d(s.x), np.atleast_2d(s.p))], [0.0, 1.0]),
}


@pytest.mark.parametrize("stacked", [False, True], ids=["one-state", "stack-of-3"])
@pytest.mark.parametrize("call", sorted(_SINGULAR_CALLS))
def test_a_singular_metric_is_singular_metric_at_its_point(call, stacked):
    g = MetricField.from_rows(CONST2, [["x^2", "0"], ["0", "1"]], validate=False)
    fam = IntegralFamily(g, EndomorphismField.from_rows(CONST2, [["1", "0"], ["0", "3"]]))
    xs = np.array([[0.3, 0.1], [0.0, 0.2], [-0.5, 0.4]])
    ps = np.array([[1.0, 0.5], [1.0, 1.0], [0.2, -1.0]])
    state = PhaseState(xs, ps) if stacked else PhaseState(xs[1], ps[1])
    with pytest.raises(SingularMetric) as err:
        _SINGULAR_CALLS[call](fam, state)
    assert err.value.point == [0.0, 0.2]
    assert str(err.value) == "metric singular at [0.0, 0.2]"


# -- audits ----------------------------------------------------------------------

def test_interlacing_on_normal_form():
    fam, spec = lc_family_3d()
    states = phase_sample(spec.chart, 200, seed=6)
    rep = interlacing_audit(fam, states, slack=1e-9)
    assert rep["pass"]
    assert rep["max_violation"] <= 1e-9
    assert rep["states"] == 200


def test_ordering_audit_passes_on_normal_form():
    fam, spec = lc_family_3d()
    rep = ordering_audit(fam.g, fam.L, spec.chart.sample(300, seed=7))
    assert rep["pass"]
    # genuine gaps: worst "violation" is negative
    assert rep["max_violation"] < 0.0
    assert len(rep["bands"]) == 2


def test_ordering_audit_rejects_sliding_bands():
    # pointwise ordering holds everywhere, global bands overlap badly
    ch = Chart(("x", "y"), ((0.0, 1.0), (0.0, 1.0)))
    g = MetricField.euclidean(ch)
    L = EndomorphismField.from_rows(ch, [["x", "0"], ["0", "x + 1/10"]])
    rep = ordering_audit(g, L, ch.sample(200, seed=8))
    assert not rep["pass"]
    assert rep["max_violation"] > 0.5
    band = rep["bands"][0]
    assert band["upper_max"] > band["next_min"]


def test_interlacing_roots_stay_inside_spectrum_hull():
    fam, spec = lc_family_3d()
    state = phase_sample(spec.chart, 1, seed=9)[0]
    rts = fam.roots(state)
    lam = spectrum_at(fam.g, fam.L, state.x)
    assert lam[0] - 1e-9 <= rts[0] <= lam[1] + 1e-9
    assert lam[1] - 1e-9 <= rts[1] <= lam[2] + 1e-9


# -- stacked evaluation -------------------------------------------------------------


def _stack_family(label):
    if label == "lc3":
        return lc_family_3d()[0]
    if label == "rand4":
        return IntegralFamily(*build_lc_pair(random_spec(2, 4))[::2])
    spec = LeviCivitaSpec.create([1, 1], ["x1", "2"], bounds=((0.1, 1.9), (-1, 1)))
    return IntegralFamily(*build_lc_pair(spec)[::2])


@pytest.mark.parametrize("label", ["lc3", "rand4", "pair2"])
def test_stacked_value_equals_per_state_values(label):
    fam = _stack_family(label)
    n = fam.g.dim
    xs = fam.chart.sample(201, seed=5)
    ps = np.random.default_rng(5).normal(size=(201, n))
    lam = spectrum_at(fam.g, fam.L, xs[17])
    for t in (-1.5, 0.0, 0.7, float(lam[0]), float(lam[-1]), 9.0):
        stacked = fam.value(PhaseState(xs, ps), t)
        assert stacked.shape == (201,)
        single = [fam.value(PhaseState(x, p), t) for x, p in zip(xs, ps)]
        assert all(type(v) is float for v in single)
        assert stacked.tolist() == single  # bit for bit
    for c_stack, c_first in zip(fam.coeff_matrices(xs), fam.coeff_matrices(xs[0])):
        assert np.array_equal(np.broadcast_to(c_stack, (201, n, n))[0], c_first)
    assert np.array_equal(fam.s_matrix(xs, 0.7)[3], fam.s_matrix(xs[3], 0.7))


@pytest.mark.parametrize("label", ["lc3", "rand4"])
def test_values_equal_one_value_per_t(label):
    fam = _stack_family(label)
    n = fam.g.dim
    xs = fam.chart.sample(201, seed=5)
    ps = np.random.default_rng(5).normal(size=(201, n))
    ts = (-1.5, 0.0, 0.7, float(spectrum_at(fam.g, fam.L, xs[17])[0]), 9.0)

    def reference(x, p, t):  # one metric build, solve and S_t per t
        v = np.linalg.solve(fam.g.matrix(x), p[..., None])
        return (p[..., None, :] @ (fam.s_matrix(x, t) @ v))[..., 0, 0]

    for x, p in [(xs[3], ps[3]), (xs, ps)]:
        got = list(fam.values(PhaseState(x, p), ts))
        assert [np.asarray(v).tobytes() for v in got] == [
            np.asarray(fam.value(PhaseState(x, p), t)).tobytes() for t in ts] == [
            reference(x, p, t).tobytes() for t in ts]  # bit for bit
        assert all(type(v) is float for v in got) if x.ndim == 1 else all(
            v.shape == (201,) for v in got)
