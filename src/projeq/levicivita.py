"""Block normal form for linked metric pairs, and its derived objects.

A spec lists m blocks of sizes k_1..k_m with block functions phi_i
(constant, or a function of the block's single variable when k_i = 1,
strictly increasing in i across the whole domain) and block metrics A_i.
The built pair is

    g    = sum_i P_i A_i,
    gbar = sum_i rho_i P_i A_i,
    L    = blockdiag(phi_i Id),

with P_i the ordered products of block-function differences and
rho_i = phi_i^{-1} / prod_j phi_j^{k_j}. Under the ordering convention
every P_i is positive, so no absolute values appear anywhere.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .chart import Chart
from .curvature import christoffel
from .errors import (
    GapViolated,
    NonPositivePhi,
    NotPositiveDefinite,
    OrderingViolated,
)
from .fields import (
    ConstantField,
    EndomorphismField,
    MetricField,
    NumericField,
    ReindexedField,
    as_field,
    pointwise_errors,
    require,
    scan,
    worst_point,
)
from .pairs import MetricPair, spectra_at
from .tolerances import DEFAULT

_ORDERING_SAMPLES = 400


def _block_offsets(sizes):
    return [0, *itertools.accumulate(sizes)]


@dataclass(frozen=True)
class LeviCivitaSpec:
    """Validated recipe for one block normal form on a box chart."""

    chart: Chart
    block_sizes: tuple
    phis: tuple          # ScalarFields on the full chart
    block_metrics: tuple # tuple of k_i x k_i tables of full-chart fields

    @classmethod
    def create(cls, block_sizes, phis, bounds, block_metrics=None, names=None):
        """Build and validate a spec.

        block_sizes: positive ints, summing to the chart dimension.
        phis: one per block; a number, or an expression string in the
            block's single coordinate (k_i = 1 blocks only).
        bounds: (lo, hi) per coordinate of the full chart.
        block_metrics: one per block; None (identity), a constant SPD
            matrix, or a nested table of expressions in the block's own
            coordinate names.
        """
        sizes = tuple(int(k) for k in block_sizes)
        if any(k < 1 for k in sizes):
            raise ValueError("block sizes must be positive")
        n = sum(sizes)
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(n))
        chart = Chart(tuple(names), tuple(tuple(map(float, b)) for b in bounds))
        if chart.dim != n:
            raise ValueError("bounds must cover exactly the summed block sizes")
        if block_metrics is None:
            block_metrics = [None] * len(sizes)
        if not (len(phis) == len(sizes) == len(block_metrics)):
            raise ValueError("block_sizes, phis, block_metrics must align")

        offsets = _block_offsets(sizes)
        phi_fields = []
        for i, phi in enumerate(phis):
            f = as_field(chart, phi)
            own = set(chart.names[offsets[i]: offsets[i + 1]])
            free = (f.expr.free_vars() if hasattr(f, "expr")
                    else set() if isinstance(f, ConstantField) else own)
            if not free <= own:
                raise ValueError(
                    f"block function {i + 1} references coordinates {sorted(free - own)}"
                    " outside its own block"
                )
            if sizes[i] != 1 and free:
                raise ValueError(
                    f"block {i + 1} has size {sizes[i]} > 1; its function must be constant"
                )
            phi_fields.append(f)

        tables = []
        for k, bm in zip(sizes, block_metrics):
            bm = np.eye(k) if bm is None else bm
            tables.append(tuple(tuple(as_field(chart, bm[a][b]) for b in range(k))
                                for a in range(k)))

        spec = cls(chart=chart, block_sizes=sizes, phis=tuple(phi_fields),
                   block_metrics=tuple(tables))
        spec._validate()
        return spec

    def _validate(self):
        pts = self.chart.sample(_ORDERING_SAMPLES, seed=5)
        margin = DEFAULT.ordering_margin

        def ordered(vals, pts):
            vals = np.array(vals)  # vals[i, k] = phi_{i+1} at point k
            ok = (vals[:-1] < vals[1:] - margin).T

            def text(k):
                i = int(np.argmin(ok[k]))  # the first failing pair at the point
                return (f"phi_{i + 1}={vals[i, k]:.6g} vs phi_{i + 2}={vals[i + 1, k]:.6g}"
                        f" (margin {margin:.1e})")

            require(ok, pts, OrderingViolated, text)

        scan(pts, lambda p: [phi.eval(p) for phi in self.phis], ordered)
        for i, table in enumerate(self.block_metrics):

            def definite(a, pts, i=i):
                low = np.linalg.eigvalsh(0.5 * (a + a.transpose(0, 2, 1)))[:, 0]
                require(low > 0.0, pts, NotPositiveDefinite, f"block metric {i + 1} not PD")

            scan(pts[:64], lambda p, t=table: np.moveaxis(
                np.array([[e.eval(p) for e in row] for row in t]), -1, 0), definite)

    # -- derived fields ---------------------------------------------------

    @property
    def dim(self):
        return sum(self.block_sizes)

    @property
    def offsets(self):
        return _block_offsets(self.block_sizes)

    def p_fields(self):
        """P_i = prod_{j<i}(phi_i - phi_j) * prod_{j>i}(phi_j - phi_i), all > 0."""
        phis = self.phis  # the product starts from 1, which returns its first factor
        return [functools.reduce(operator.mul, [phis[max(i, j)] - phis[min(i, j)]
                                                for j in range(len(phis)) if j != i],
                                 ConstantField(self.chart, 1.0))
                for i in range(len(phis))]


def build_lc_pair(spec: LeviCivitaSpec, partner=True):
    """(g, gbar, L) from a spec; gbar is None when partner=False.

    Positivity of every phi is required for the partner weights rho_i;
    NonPositivePhi reports the offending block and point. Metrics are
    built with the constructor scan off — positivity follows from the
    ordering and PD block metrics, and pd_report() remains available.
    """
    chart = spec.chart
    n = spec.dim
    zero = ConstantField(chart, 0.0)
    ps = spec.p_fields()
    offsets = spec.offsets

    if partner:
        def positive(vals, pts):
            ok = np.array(vals).T > DEFAULT.eig_floor

            def text(k):
                i = int(np.argmin(ok[k]))  # the first failing phi at the point
                return f"phi_{i + 1} = {vals[i][k]:.6g}; partner weights undefined"

            require(ok, pts, NonPositivePhi, text)

        scan(chart.sample(_ORDERING_SAMPLES, seed=7),
             lambda p: [phi.eval(p) for phi in spec.phis], positive)

    g_entries = [[zero] * n for _ in range(n)]
    gbar_entries = [[zero] * n for _ in range(n)] if partner else None
    l_entries = [[zero] * n for _ in range(n)]

    if partner:
        prod = functools.reduce(operator.mul,
                                [phi ** k for phi, k in zip(spec.phis, spec.block_sizes)])
        rhos = [1.0 / (prod * phi) for phi in spec.phis]

    for i, table in enumerate(spec.block_metrics):
        k = spec.block_sizes[i]
        base = offsets[i]
        for a in range(k):
            l_entries[base + a][base + a] = spec.phis[i]
            for b in range(a, k):
                entry = ps[i] * table[a][b]
                g_entries[base + a][base + b] = entry
                g_entries[base + b][base + a] = entry
                if partner:
                    pentry = rhos[i] * entry
                    gbar_entries[base + a][base + b] = pentry
                    gbar_entries[base + b][base + a] = pentry

    g = MetricField(chart, g_entries, validate=False)
    gbar = MetricField(chart, gbar_entries, validate=False) if partner else None
    L = EndomorphismField(chart, l_entries)
    return g, gbar, L


def random_spec(seed: int, dim: int) -> LeviCivitaSpec:
    """Deterministic pseudo-random spec with nonconstant block functions.

    Block function ranges are separated by construction, so the global
    ordering audit passes and all partner weights are defined. Size-one
    blocks get c + 0.8 tanh(x) shapes; larger blocks get constants and
    random SPD constant block metrics.
    """
    rng = np.random.default_rng(seed)
    sizes = []
    left = dim
    while left > 0:
        k = int(rng.integers(1, min(left, 2) + 1))
        sizes.append(k)
        left -= k
    if len(sizes) == 1:  # at least two blocks keep the family nontrivial
        sizes = [1, dim - 1] if dim > 1 else [1]

    phis = []
    for i, k in enumerate(sizes):
        center = 2.0 + 3.0 * i
        if k == 1 and rng.random() < 0.75:
            var_index = _block_offsets(sizes)[i]
            phis.append(f"{center} + 0.8*tanh(x{var_index + 1})")
        else:
            phis.append(center + float(rng.uniform(-0.5, 0.5)))

    metrics = []
    for k in sizes:
        b = rng.normal(size=(k, k))
        metrics.append(b.T @ b + k * np.eye(k))

    bounds = [(-1.5, 1.5)] * dim
    return LeviCivitaSpec.create(sizes, phis, bounds, block_metrics=metrics)


# -- warped and adjusted metrics -----------------------------------------


@dataclass(frozen=True)
class WarpedSpec:
    """Base metric with positive warp functions, one per fiber."""

    base_metric: MetricField
    warps: tuple            # ScalarFields on the base chart
    y_bounds: tuple         # (lo, hi) per warp coordinate
    fiber_metrics: tuple = ()  # optional MetricFields on their own charts

    def __post_init__(self):
        base = self.base_metric.chart
        warps = tuple(as_field(base, w) for w in self.warps)
        object.__setattr__(self, "warps", warps)
        if len(self.y_bounds) != len(warps):
            raise ValueError("one bounds pair per warp function")
        for w in warps:
            lo, _hi = w.sample_range(count=200, seed=9)
            if lo <= 0.0:
                raise NotPositiveDefinite("warp functions must be positive on the base")

    @property
    def base_chart(self):
        return self.base_metric.chart


def _lifted_base(spec: WarpedSpec, names, bounds):
    """(chart, entries, lift): the product of the base chart with the
    coordinates `names` in `bounds`, its entry table holding the lifted base
    metric in the leading block and zeros elsewhere, and the index map that
    lifts a base field."""
    base = spec.base_chart
    chart = Chart(base.names + tuple(names), base.bounds + tuple(bounds))
    lift = tuple(range(base.dim))
    zero = ConstantField(chart, 0.0)
    entries = [[zero] * chart.dim for _ in range(chart.dim)]
    for i in lift:
        for j in range(i, base.dim):
            entries[i][j] = entries[j][i] = ReindexedField(
                chart, spec.base_metric.entries[i][j], lift)
    return chart, entries, lift


def adjusted_metric(spec: WarpedSpec) -> MetricField:
    """g0 + sum_i sigma_i dy_i^2 on the base-times-fibers product chart."""
    k0 = spec.base_chart.dim
    chart, entries, lift = _lifted_base(
        spec, [f"y{i + 1}" for i in range(len(spec.warps))], spec.y_bounds)
    for i, w in enumerate(spec.warps):
        entries[k0 + i][k0 + i] = ReindexedField(chart, w, lift)
    return MetricField(chart, entries, validate=False)


def warped_metric(spec: WarpedSpec) -> MetricField:
    """g0 + sum_i sigma_i g_i on base x fibers; needs fiber metrics."""
    if len(spec.fiber_metrics) != len(spec.warps):
        raise ValueError("warped_metric needs one fiber metric per warp")
    base = spec.base_chart
    names = [s for fm in spec.fiber_metrics for s in fm.chart.names]
    bounds = [b for fm in spec.fiber_metrics for b in fm.chart.bounds]
    if len(set(names)) != len(names) or set(names) & set(base.names):
        raise ValueError("fiber coordinate names must be disjoint")
    chart, entries, lift_base = _lifted_base(spec, names, bounds)
    off = base.dim
    for fm, w in zip(spec.fiber_metrics, spec.warps):
        kf = fm.chart.dim
        lift_fiber = tuple(range(off, off + kf))
        wlift = ReindexedField(chart, w, lift_base)
        for a in range(kf):
            for b in range(a, kf):
                f = wlift * ReindexedField(chart, fm.entries[a][b], lift_fiber)
                entries[off + a][off + b] = f
                entries[off + b][off + a] = f
        off += kf
    return MetricField(chart, entries, validate=False)


# -- block curvature constants -------------------------------------------


def k_constants(spec: LeviCivitaSpec, curvature: float, samples=200, seed=0):
    """Per-block values K_i = |grad P_i|_g^2 / (4 P_i) + K P_i, with stats.

    Constancy across the chart holds for blocks of size > 1 when the
    associated adjusted metric has constant curvature K; the report
    carries the cross-chart deviation either way rather than asserting.
    """
    g, _, _ = build_lc_pair(spec, partner=False)
    chart = spec.chart
    ps = spec.p_fields()
    pts = chart.sample(samples, seed=seed)
    out = []
    for i, p in enumerate(ps):

        def fn(x, p=p):
            """K_i at one point x, or at each of an (N, n) stack."""
            dp = p.d1(x)
            grad2 = (dp[..., None, :] @ g.inverse(x) @ dp[..., :, None])[..., 0, 0]
            return grad2 / (4.0 * p.eval(x)) + curvature * p.eval(x)

        vals = fn(pts)
        mean = float(vals.mean())
        std = float(vals.std())
        out.append({
            "block": i + 1,
            "size": spec.block_sizes[i],
            "mean": mean,
            "std": std,
            "min": float(vals.min()),
            "max": float(vals.max()),
            "constant": bool(std <= 1e-7 * (1.0 + abs(mean))),
            "samples": int(samples),
            "field": NumericField(chart, fn),
        })
    return out


# -- splitting tensor ------------------------------------------------------


def split_matrix(g, L, r: int, x, tau_deg_factor=DEFAULT.tau_deg_factor):
    """Pointwise h(x) for the eigenvalue split after position r (1-based)."""
    return _split_at(g, L, r, x, tau_deg_factor)[1]


@pointwise_errors(3)
def _split_at(g, L, r, x, tau_deg_factor):
    """(spectrum, h) from one spectrum evaluation, at one point x or with a
    leading N axis at an (N, n) stack."""
    lam = spectra_at(g, L, x).reshape(np.shape(x))
    n = lam.shape[-1]
    if not 1 <= r <= n - 1:
        raise ValueError(f"split position r must be in 1..{n - 1}")
    tau = tau_deg_factor * (1.0 + np.abs(lam).max(axis=-1))
    gap = lam[..., r] - lam[..., r - 1]
    require(gap >= tau, x, GapViolated,
            lambda k: f"eigenvalue gap {np.ravel(gap)[k]:.3e} below {np.ravel(tau)[k]:.3e}")
    lm = L.matrix(x)
    eye = np.eye(n)
    first = second = eye
    for j in range(r):
        first = first @ (lm - lam[..., j, None, None] * eye)
    for j in range(r, n):
        second = second @ (lam[..., j, None, None] * eye - lm)
    c = first + second
    h = np.linalg.solve(c, g.matrix(x).swapaxes(-1, -2)).swapaxes(-1, -2)  # (C^-1)^T g
    return lam, 0.5 * (h + h.swapaxes(-1, -2))


def split(g, L, r: int, tau_deg_factor=DEFAULT.tau_deg_factor, samples=200, seed=0):
    """(h, report) for the split after eigenvalue position r.

    h comes back as a metric differentiated by finite differences of the
    pointwise formula. The report's decoupling figures treat the first r
    coordinates as the first factor, which is meaningful on charts
    adapted to the split (normal-form builds); elsewhere they are just
    numbers. GapViolated fires on the sample scan or at any later
    pointwise evaluation.
    """
    pts = g.chart.sample(samples, seed=seed)
    lam, h = _split_at(g, L, r, pts, tau_deg_factor)
    h_field = MetricField.from_function(
        g.chart, lambda x: split_matrix(g, L, r, x, tau_deg_factor), validate=False)
    dh = np.abs(h_field.dmatrix(pts[:32]))
    report = {
        "r": int(r),
        "gap_min": float(np.min(lam[:, r] - lam[:, r - 1], initial=np.inf)),
        "h_min_eigenvalue": float(np.min(np.linalg.eigvalsh(h)[:, 0], initial=np.inf)),
        "off_block_max": float(np.max(np.abs(h[:, :r, r:]), initial=0.0)),
        "cross_derivative_max": float(max(np.max(dh[:, :r, :r, r:], initial=0.0),
                                          np.max(dh[:, r:, r:, :r], initial=0.0))),
        "samples": int(samples),
    }
    return h_field, report


def affine_equivalence_check(pair: MetricPair, samples=200, seed=0, tol=1e-7):
    """Max Christoffel mismatch between the pair members over a sample."""
    pts = pair.chart.sample(samples, seed=seed)
    devs = scan(pts, lambda p: np.max(np.abs(
        christoffel(pair.g, p) - christoffel(pair.gbar, p)), axis=(-3, -2, -1)))
    worst, worst_pt = worst_point(devs, pts, "Christoffel symbol")
    return {
        "max_deviation": worst,
        "tol": tol,
        "pass": bool(worst <= tol),
        "samples": int(samples),
        "worst_point": worst_pt,
    }
