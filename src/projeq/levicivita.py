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
    ScalarField,
    as_field,
    require_finite,
)
from .pairs import MetricPair, spectrum_at

_ORDERING_MARGIN = 1e-6
_ORDERING_SAMPLES = 400


def _block_offsets(sizes):
    off = [0]
    for k in sizes:
        off.append(off[-1] + k)
    return off


@dataclass(frozen=True)
class LeviCivitaSpec:
    """Validated recipe for one block normal form on a box chart."""

    chart: Chart
    block_sizes: tuple
    phis: tuple          # ScalarFields on the full chart
    block_metrics: tuple # tuple of k_i x k_i tables of full-chart fields

    @classmethod
    def create(cls, block_sizes, phis, bounds, block_metrics=None, names=None,
               margin=_ORDERING_MARGIN):
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

        offsets = _block_offsets(sizes)
        phi_fields = []
        for i, phi in enumerate(phis):
            if isinstance(phi, (int, float)):
                phi_fields.append(ConstantField(chart, float(phi)))
                continue
            f = as_field(chart, phi)
            own = set(chart.names[offsets[i]: offsets[i + 1]])
            if isinstance(f, ConstantField):
                free = set()
            elif hasattr(f, "expr"):
                free = f.expr.free_vars()
            else:
                free = own
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

        if block_metrics is None:
            block_metrics = [None] * len(sizes)
        if not (len(phis) == len(sizes) == len(block_metrics)):
            raise ValueError("block_sizes, phis, block_metrics must align")

        tables = []
        for i, bm in enumerate(block_metrics):
            k = sizes[i]
            if bm is None:
                bm = np.eye(k).tolist()
            elif isinstance(bm, np.ndarray):
                bm = bm.tolist()
            table = [[as_field(chart, bm[a][b]) for b in range(k)] for a in range(k)]
            tables.append(tuple(tuple(r) for r in table))

        spec = cls(chart=chart, block_sizes=sizes, phis=tuple(phi_fields),
                   block_metrics=tuple(tables))
        spec._validate(margin)
        return spec

    def _validate(self, margin):
        pts = self.chart.sample(_ORDERING_SAMPLES, seed=5)
        m = len(self.block_sizes)
        for x in pts:
            vals = [phi.eval(x) for phi in self.phis]
            for i in range(m - 1):
                if not vals[i] < vals[i + 1] - margin:
                    raise OrderingViolated(
                        f"phi_{i + 1}={vals[i]:.6g} vs phi_{i + 2}={vals[i + 1]:.6g}"
                        f" at {x} (margin {margin:.1e})"
                    )
        for i, table in enumerate(self.block_metrics):
            k = self.block_sizes[i]
            for x in pts[:64]:
                a = np.array([[table[r][c].eval(x) for c in range(k)] for r in range(k)])
                if np.linalg.eigvalsh(0.5 * (a + a.T))[0] <= 0.0:
                    raise NotPositiveDefinite(f"block metric {i + 1} not PD at {x}")

    # -- derived fields ---------------------------------------------------

    @property
    def dim(self):
        return sum(self.block_sizes)

    @property
    def offsets(self):
        return _block_offsets(self.block_sizes)

    def p_fields(self):
        """P_i = prod_{j<i}(phi_i - phi_j) * prod_{j>i}(phi_j - phi_i), all > 0."""
        m = len(self.phis)
        out = []
        for i in range(m):
            acc = None
            for j in range(m):
                if j == i:
                    continue
                factor = (self.phis[i] - self.phis[j]) if j < i else (self.phis[j] - self.phis[i])
                acc = factor if acc is None else acc * factor
            out.append(acc if acc is not None else ConstantField(self.chart, 1.0))
        return out


def build_lc_pair(spec: LeviCivitaSpec, partner=True, eig_floor=1e-12):
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
        for x in chart.sample(_ORDERING_SAMPLES, seed=7):
            for i, phi in enumerate(spec.phis):
                v = phi.eval(x)
                if v <= eig_floor:
                    raise NonPositivePhi(
                        f"phi_{i + 1} = {v:.6g} at {x}; partner weights undefined"
                    )

    g_entries = [[zero] * n for _ in range(n)]
    gbar_entries = [[zero] * n for _ in range(n)] if partner else None
    l_entries = [[zero] * n for _ in range(n)]

    if partner:
        prod = None
        for i, phi in enumerate(spec.phis):
            term = phi ** spec.block_sizes[i]
            prod = term if prod is None else prod * term
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


def _product_chart(base: Chart, extra_names, extra_bounds) -> Chart:
    return Chart(base.names + tuple(extra_names), base.bounds + tuple(extra_bounds))


def adjusted_metric(spec: WarpedSpec) -> MetricField:
    """g0 + sum_i sigma_i dy_i^2 on the base-times-fibers product chart."""
    base = spec.base_chart
    k0 = base.dim
    m = len(spec.warps)
    names = [f"y{i + 1}" for i in range(m)]
    chart = _product_chart(base, names, spec.y_bounds)
    lift = tuple(range(k0))
    zero = ConstantField(chart, 0.0)
    n = k0 + m
    entries = [[zero] * n for _ in range(n)]
    for i in range(k0):
        for j in range(i, k0):
            f = ReindexedField(chart, spec.base_metric.entries[i][j], lift)
            entries[i][j] = f
            entries[j][i] = f
    for i, w in enumerate(spec.warps):
        entries[k0 + i][k0 + i] = ReindexedField(chart, w, lift)
    return MetricField(chart, entries, validate=False)


def warped_metric(spec: WarpedSpec) -> MetricField:
    """g0 + sum_i sigma_i g_i on base x fibers; needs fiber metrics."""
    if len(spec.fiber_metrics) != len(spec.warps):
        raise ValueError("warped_metric needs one fiber metric per warp")
    base = spec.base_chart
    k0 = base.dim
    names = []
    bounds = []
    for fm in spec.fiber_metrics:
        names.extend(fm.chart.names)
        bounds.extend(fm.chart.bounds)
    if len(set(names)) != len(names) or set(names) & set(base.names):
        raise ValueError("fiber coordinate names must be disjoint")
    chart = _product_chart(base, names, bounds)
    lift_base = tuple(range(k0))
    zero = ConstantField(chart, 0.0)
    n = chart.dim
    entries = [[zero] * n for _ in range(n)]
    for i in range(k0):
        for j in range(i, k0):
            f = ReindexedField(chart, spec.base_metric.entries[i][j], lift_base)
            entries[i][j] = f
            entries[j][i] = f
    off = k0
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
            ginv = g.inverse(x)
            dp = p.d1(x)
            return float(dp @ ginv @ dp) / (4.0 * p.eval(x)) + curvature * p.eval(x)

        vals = np.array([fn(x) for x in pts])
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


def split_matrix(g, L, r: int, x, tau_deg_factor=1e-7):
    """Pointwise h(x) for the eigenvalue split after position r (1-based)."""
    return _split_at(g, L, r, x, tau_deg_factor)[1]


def _split_at(g, L, r, x, tau_deg_factor):
    """(spectrum, h) at x from one spectrum evaluation."""
    lam = spectrum_at(g, L, x)
    n = len(lam)
    if not 1 <= r <= n - 1:
        raise ValueError(f"split position r must be in 1..{n - 1}")
    tau = tau_deg_factor * (1.0 + float(np.abs(lam).max()))
    gap = lam[r] - lam[r - 1]
    if gap < tau:
        raise GapViolated(
            f"eigenvalue gap {gap:.3e} below {tau:.3e} at {np.asarray(x)}"
        )
    lm = L.matrix(x)
    eye = np.eye(n)
    first = eye.copy()
    for j in range(r):
        first = first @ (lm - lam[j] * eye)
    second = eye.copy()
    for j in range(r, n):
        second = second @ (lam[j] * eye - lm)
    c = first + second
    h = np.linalg.solve(c, g.matrix(x).T).T  # (C^{-1})^T g, then symmetrized
    return lam, 0.5 * (h + h.T)


def split(g, L, r: int, tau_deg_factor=1e-7, samples=200, seed=0):
    """(h, report) for the split after eigenvalue position r.

    h comes back as a metric differentiated by finite differences of the
    pointwise formula. The report's decoupling figures treat the first r
    coordinates as the first factor, which is meaningful on charts
    adapted to the split (normal-form builds); elsewhere they are just
    numbers. GapViolated fires on the sample scan or at any later
    pointwise evaluation.
    """
    chart = g.chart
    n = chart.dim
    pts = chart.sample(samples, seed=seed)
    gap_min = np.inf
    h_eig_min = np.inf
    off_block = 0.0
    cross_d = 0.0
    for x in pts:
        lam, h = _split_at(g, L, r, x, tau_deg_factor)
        gap_min = min(gap_min, float(lam[r] - lam[r - 1]))
        h_eig_min = min(h_eig_min, float(np.linalg.eigvalsh(h)[0]))
        off = np.abs(h[:r, r:])
        if off.size:
            off_block = max(off_block, float(off.max()))

    h_field = MetricField.from_function(
        chart, lambda x: split_matrix(g, L, r, x, tau_deg_factor), validate=False)

    for x in pts[:32]:
        dh = h_field.dmatrix(x)
        if r < n:
            cross_d = max(cross_d, float(np.abs(dh[:r, :r, r:]).max()))
            cross_d = max(cross_d, float(np.abs(dh[r:, r:, :r]).max()))

    report = {
        "r": int(r),
        "gap_min": float(gap_min),
        "h_min_eigenvalue": float(h_eig_min),
        "off_block_max": float(off_block),
        "cross_derivative_max": float(cross_d),
        "samples": int(samples),
    }
    return h_field, report


def affine_equivalence_check(pair: MetricPair, samples=200, seed=0, tol=1e-7):
    """Max Christoffel mismatch between the pair members over a sample."""
    pts = pair.chart.sample(samples, seed=seed)
    devs = np.array([np.max(np.abs(christoffel(pair.g, x) - christoffel(pair.gbar, x)))
                     for x in pts])
    require_finite(devs.reshape(-1, 1, 1), pts, "Christoffel symbol")
    worst, worst_pt = 0.0, None
    for x, d in zip(pts, devs):
        if d > worst:
            worst, worst_pt = float(d), [float(v) for v in x]
    return {
        "max_deviation": worst,
        "tol": tol,
        "pass": bool(worst <= tol),
        "samples": int(samples),
        "worst_point": worst_pt,
    }
