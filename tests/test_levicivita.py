"""Block normal forms, warped builds, splitting, block curvature constants."""

import math

import numpy as np
import pytest

from projeq.chart import Chart, box_chart
from projeq.curvature import christoffel, sectional
from projeq.errors import (
    DomainViolation,
    GapViolated,
    NonPositivePhi,
    NotPositiveDefinite,
    OrderingViolated,
)
from projeq.fields import EndomorphismField, MetricField, NumericField
from projeq.flows import ordering_audit
from projeq.levicivita import (
    LeviCivitaSpec,
    WarpedSpec,
    adjusted_metric,
    affine_equivalence_check,
    build_lc_pair,
    k_constants,
    random_spec,
    split,
    split_matrix,
    warped_metric,
)
from projeq.pairs import MetricPair, bm_residual_stats, spectrum_at


def liouville_spec():
    return LeviCivitaSpec.create(
        [1, 1], ["x", "2"], bounds=((0.1, 1.9), (-1.0, 1.0)), names=("x", "y"))


# -- the classical two-block form ---------------------------------------------

def test_two_block_entries_are_the_liouville_metric():
    g, gbar, L = build_lc_pair(liouville_spec())
    x = np.array([1.0, 0.3])
    assert np.allclose(g.matrix(x), np.eye(2))          # (2 - x) at x = 1
    assert np.allclose(L.matrix(x), np.diag([1.0, 2.0]))
    # partner weights: 1/(phi1 phi2 phi_i) with phi = (1, 2)
    assert np.allclose(gbar.matrix(x), np.diag([0.5, 0.25]))

    y = np.array([0.5, -0.2])
    assert np.allclose(g.matrix(y), 1.5 * np.eye(2))
    assert np.allclose(gbar.matrix(y),
                       1.5 * np.diag([1.0 / (2 * 0.25), 1.0 / (2 * 0.5 * 2)]))


def test_two_block_form_satisfies_compatibility():
    g, _, L = build_lc_pair(liouville_spec())
    stats = bm_residual_stats(g, L, g.chart.sample(200, seed=1))
    assert stats["max"] <= 1e-8


def test_spectrum_is_the_block_functions():
    spec = liouville_spec()
    g, _, L = build_lc_pair(spec)
    for x in spec.chart.sample(20, seed=2):
        assert np.allclose(spectrum_at(g, L, x), [x[0], 2.0], atol=1e-12)


def test_multiplicity_blocks_repeat_eigenvalues():
    spec = LeviCivitaSpec.create(
        [1, 2], ["1 + 0.5*tanh(x1)", 4.0], bounds=[(-1, 1)] * 3)
    g, _, L = build_lc_pair(spec)
    x = np.array([0.3, -0.1, 0.8])
    lam = spectrum_at(g, L, x)
    assert lam[0] == pytest.approx(1 + 0.5 * np.tanh(0.3), abs=1e-12)
    assert np.allclose(lam[1:], [4.0, 4.0], atol=1e-12)


def test_ordering_enforced_at_creation():
    with pytest.raises(OrderingViolated):
        LeviCivitaSpec.create(
            [1, 1], ["x1", "1 - x2^2"], bounds=[(-1, 1)] * 2)


def test_block_function_must_stay_in_own_block():
    with pytest.raises(ValueError):
        LeviCivitaSpec.create([1, 1], ["y", "4"],
                              bounds=[(-1, 1)] * 2, names=("x", "y"))


def test_partner_needs_positive_block_functions():
    spec = LeviCivitaSpec.create(
        [1, 1], ["x1", "2"], bounds=((-1.5, 1.5), (-1, 1)))
    with pytest.raises(NonPositivePhi):
        build_lc_pair(spec)
    g, gbar, L = build_lc_pair(spec, partner=False)
    assert gbar is None
    assert bm_residual_stats(g, L, spec.chart.sample(50, seed=3))["max"] <= 1e-8


def test_random_specs_build_valid_structures():
    for seed in range(5):
        for dim in (2, 3, 4):
            spec = random_spec(seed, dim)
            assert spec.dim == dim
            g, gbar, L = build_lc_pair(spec)
            pts = spec.chart.sample(50, seed=seed)
            assert bm_residual_stats(g, L, pts)["max"] <= 1e-8
            assert ordering_audit(g, L, pts)["pass"]


# -- affine equivalence ----------------------------------------------------------

def test_constant_block_functions_give_affine_pair():
    spec = LeviCivitaSpec.create([1, 1], [1.0, 2.0], bounds=[(-1, 1)] * 2)
    g, gbar, _ = build_lc_pair(spec)
    rep = affine_equivalence_check(MetricPair(g, gbar))
    assert rep["pass"]
    assert rep["max_deviation"] <= 1e-12


def test_homothety_is_affine():
    ch = box_chart(("x", "y"), half_width=1.0)
    g = MetricField.conformal(ch, "2 + x^2 + y^2", validate=False)
    doubled = MetricField(
        ch, [[2.0 * e for e in row] for row in g.entries], validate=False)
    rep = affine_equivalence_check(MetricPair(g, doubled))
    assert rep["pass"]


def test_nonconstant_pair_is_not_affine():
    g, gbar, _ = build_lc_pair(liouville_spec())
    rep = affine_equivalence_check(MetricPair(g, gbar))
    assert not rep["pass"]
    assert rep["max_deviation"] > 1e-3
    assert rep["worst_point"] is not None


def test_affine_check_names_a_nan_point(monkeypatch):
    import projeq.levicivita as levicivita

    g, gbar, _ = build_lc_pair(liouville_spec())
    pts = g.chart.sample(50, seed=0)
    real = levicivita.christoffel
    monkeypatch.setattr(levicivita, "christoffel",
                        lambda h, x: real(h, x) * (math.nan if x[0] > 1.0 else 1.0))
    with pytest.raises(DomainViolation) as err:
        affine_equivalence_check(MetricPair(g, gbar), samples=50)
    assert err.value.point == pts[int(np.argmax(pts[:, 0] > 1.0))].tolist()
    monkeypatch.setattr(levicivita, "christoffel", real)
    # equal members: every deviation is 0.0, so no point is the worst
    rep = affine_equivalence_check(MetricPair(g, g), samples=50)
    assert rep["max_deviation"] == 0.0 and rep["worst_point"] is None


def test_constant_curvature_block_keeps_curvature_in_affine_pair():
    # single block of size 2 with a curved block metric: gbar = phi^-3 g
    table = [["1/(1 + x1^2 + x2^2)^2", "0"], ["0", "1/(1 + x1^2 + x2^2)^2"]]
    spec = LeviCivitaSpec.create([2], [3.0], bounds=[(-1, 1)] * 2,
                                 block_metrics=[table])
    g, gbar, _ = build_lc_pair(spec)
    x = np.array([0.4, -0.2])
    assert np.allclose(gbar.matrix(x), 3.0 ** -3 * g.matrix(x))
    assert np.allclose(christoffel(g, x), christoffel(gbar, x), atol=1e-12)


# -- splitting ---------------------------------------------------------------------

def test_split_of_constant_structure_rescales_metric():
    ch = box_chart(("x", "y"), half_width=1.0)
    g = MetricField.euclidean(ch)
    L = EndomorphismField.from_rows(ch, [["1", "0"], ["0", "3"]])
    h, rep = split(g, L, r=1, samples=40)
    # C = (L - 1) + (3 - L) = 2 Id, so h = g / 2
    x = np.array([0.2, -0.7])
    assert np.allclose(h.matrix(x), 0.5 * np.eye(2), atol=1e-12)
    assert rep["gap_min"] == pytest.approx(2.0)
    assert rep["h_min_eigenvalue"] == pytest.approx(0.5, abs=1e-12)
    assert rep["off_block_max"] <= 1e-14


def test_split_requires_a_gap():
    ch = box_chart(("x", "y"), half_width=1.0)
    g = MetricField.euclidean(ch)
    with pytest.raises(GapViolated):
        split(g, EndomorphismField.identity(ch), r=1, samples=10)


def test_split_position_validated():
    ch = box_chart(("x", "y"), half_width=1.0)
    g = MetricField.euclidean(ch)
    L = EndomorphismField.from_rows(ch, [["1", "0"], ["0", "3"]])
    for r in (0, 2):
        with pytest.raises(ValueError):
            split_matrix(g, L, r, np.zeros(2))


def test_split_decouples_normal_form_blocks():
    spec = LeviCivitaSpec.create(
        [1, 2], ["1 + 0.5*tanh(x1)", 4.0], bounds=[(-1, 1)] * 3)
    g, _, L = build_lc_pair(spec)
    h, rep = split(g, L, r=1, samples=60)
    assert rep["gap_min"] > 2.0
    assert rep["h_min_eigenvalue"] > 0.0
    assert rep["off_block_max"] <= 1e-12
    # the first-factor block of h must not see the fiber coordinates
    assert rep["cross_derivative_max"] <= 1e-6


def test_split_scan_computes_one_spectrum_per_point(monkeypatch):
    import projeq.pairs as pairs

    spec = LeviCivitaSpec.create(
        [1, 1, 1], ["1 + 0.3*tanh(x1)", "3", "6 + x3^2"],
        bounds=((-1, 1), (-1, 1), (0.5, 1.5)))
    g, _, L = build_lc_pair(spec)
    _, rep = split(g, L, r=1, samples=200, seed=0)
    # the report the scan gave when it took the spectrum twice per point
    pts = g.chart.sample(200, seed=0)
    hs = [split_matrix(g, L, 1, x) for x in pts]
    assert rep["gap_min"] == min(
        float(spectrum_at(g, L, x)[1] - spectrum_at(g, L, x)[0]) for x in pts)
    assert rep["h_min_eigenvalue"] == min(float(np.linalg.eigvalsh(h)[0]) for h in hs)
    assert rep["off_block_max"] == max(float(np.abs(h[:1, 1:]).max()) for h in hs)

    calls = []
    spectrum = pairs.pencil_spectrum

    def counting(*args, **kwargs):
        calls.append(1)
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(pairs, "pencil_spectrum", counting)
    counts = {}
    for samples in (40, 80):
        calls.clear()
        split(g, L, r=1, samples=samples, seed=0)
        counts[samples] = len(calls)
    # the derivative checks after the scan look at the first 32 points either way
    assert counts[80] - counts[40] == 40


def test_split_h_samples_the_matrix_once_per_stencil_point(monkeypatch):
    import projeq.levicivita as levicivita

    spec = LeviCivitaSpec.create(
        [1, 1, 1], ["1 + 0.3*tanh(x1)", "3", "6 + x3^2"],
        bounds=((-1, 1), (-1, 1), (0.5, 1.5)))
    g, _, L = build_lc_pair(spec)
    calls = []
    split_at = levicivita._split_at

    def counting(*args):
        calls.append(1)
        return split_at(*args)

    monkeypatch.setattr(levicivita, "_split_at", counting)
    h, _ = split(g, L, r=1, samples=200, seed=0)
    # one per scan point, then dmatrix at 32 of them: 2n + 1 = 7 matrices each
    assert len(calls) == 200 + 32 * 7
    # the table as it was built before: one NumericField per symmetric pair,
    # each re-running the whole h
    n = g.dim
    views = {(i, j): NumericField(g.chart, lambda y, i=i, j=j: split_matrix(g, L, 1, y)[i, j])
             for i in range(n) for j in range(i, n)}
    ref = MetricField(g.chart, [[views[min(i, j), max(i, j)] for j in range(n)]
                                for i in range(n)], validate=False)
    for y in g.chart.sample(5, seed=3):
        for method in ("matrix", "dmatrix", "d2matrix"):
            assert getattr(h, method)(y).tobytes() == getattr(ref, method)(y).tobytes()


# -- block curvature constants -------------------------------------------------------

def test_k_constants_of_constant_functions():
    spec = LeviCivitaSpec.create([1, 1], [1.0, 2.0], bounds=[(-1, 1)] * 2)
    rows = k_constants(spec, curvature=0.7)
    for row in rows:
        # P_i = 1 for both blocks, gradients vanish
        assert row["constant"]
        assert row["mean"] == pytest.approx(0.7, abs=1e-12)
        assert row["std"] <= 1e-12


def test_k_constants_flat_exponential_form():
    # phi = (2 - exp(-x1), 2): the metric exp(-x1)(dx^2 + dy^2) is flat and
    # both block values equal 1/4 everywhere
    spec = LeviCivitaSpec.create(
        [1, 1], ["2 - exp(-x1)", "2"], bounds=((-1.2, 1.2), (-1, 1)))
    rows = k_constants(spec, curvature=0.0)
    for row in rows:
        assert row["constant"]
        assert row["mean"] == pytest.approx(0.25, abs=1e-10)


def test_k_constants_nonconstant_case_reports_honestly():
    rows = k_constants(liouville_spec(), curvature=0.0)
    first = rows[0]
    assert not first["constant"]
    # closed form: g^xx |P1'|^2 / (4 P1) = 1 / (4 (2 - x)^2)
    f = first["field"]
    assert f.eval(np.array([1.0, 0.0])) == pytest.approx(0.25, abs=1e-12)
    assert f.eval(np.array([0.5, 0.2])) == pytest.approx(1 / 9, abs=1e-12)


# -- warped and adjusted metrics -------------------------------------------------------

BASE1 = MetricField.euclidean(Chart(("u",), ((0.5, 2.0),)))


def test_adjusted_metric_flat_cases():
    flat = adjusted_metric(WarpedSpec(BASE1, ("1",), ((-1.0, 1.0),)))
    polar = adjusted_metric(WarpedSpec(BASE1, ("u^2",), ((-1.0, 1.0),)))
    for g in (flat, polar):
        assert g.dim == 2
        for x in g.chart.sample(25, seed=4):
            k = sectional(g, x, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            assert abs(k) <= 1e-10


def test_adjusted_metric_warp_must_be_positive():
    with pytest.raises(NotPositiveDefinite):
        WarpedSpec(BASE1, ("u - 1",), ((-1.0, 1.0),))


def test_tanh_block_metric_has_constant_positive_curvature():
    # diag(1 - tanh v, C (1 - tanh v)(1 + tanh v)) plus warp 1 + tanh v,
    # all functions of the second base coordinate: every section has
    # curvature 1 / (4 C)
    rng = np.random.default_rng(5)
    for c, want in ((1.0, 0.25), (2.0, 0.125)):
        base = MetricField.diagonal(
            Chart(("u", "v"), ((-1.0, 1.0), (-1.0, 1.0))),
            ("1 - tanh(v)", f"{c}*(1 - tanh(v))*(1 + tanh(v))"),
            validate=False)
        g = adjusted_metric(WarpedSpec(base, ("1 + tanh(v)",), ((-1.0, 1.0),)))
        for x in g.chart.sample(40, seed=6):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            assert sectional(g, x, u, v) == pytest.approx(want, abs=1e-9)


def test_warped_metric_restricts_to_scaled_fiber():
    fiber = MetricField.diagonal(
        Chart(("a", "b"), ((0.3, 2.8), (-3.0, 3.0))),
        ("1", "sin(a)^2"), validate=False)
    spec = WarpedSpec(BASE1, ("u^2",), ((0.3, 2.8),),
                      fiber_metrics=(fiber,))
    g = warped_metric(spec)
    assert g.chart.names == ("u", "a", "b")
    pt = np.array([1.5, 1.0, 0.4])
    m = g.matrix(pt)
    assert np.allclose(m[1:, 1:], 1.5 ** 2 * fiber.matrix(pt[1:]), atol=1e-12)
    assert np.allclose(m[0, :], [1.0, 0.0, 0.0])


def test_warped_metric_rejects_name_collisions():
    fiber = MetricField.euclidean(Chart(("u",), ((-1.0, 1.0),)))
    spec = WarpedSpec(BASE1, ("u^2",), ((-1.0, 1.0),), fiber_metrics=(fiber,))
    with pytest.raises(ValueError):
        warped_metric(spec)


def test_warped_metric_needs_fiber_metrics():
    spec = WarpedSpec(BASE1, ("u^2",), ((-1.0, 1.0),))
    with pytest.raises(ValueError):
        warped_metric(spec)
