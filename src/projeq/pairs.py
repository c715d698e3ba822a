"""Metric pairs sharing unparametrized geodesics and their linking tensor.

The central object is the field L built from a pair (g, gbar): self-adjoint
with respect to g, and satisfying a first-order compatibility identity that
`bm_residual` measures in a g-orthonormal frame. All constructions here are
inverses of one another at the field level:

    l_from_pair(g, gbar_from_l(g, L)) == L      (pointwise, to rounding)

Sign and index conventions follow curvature.py.
"""

from __future__ import annotations

import numpy as np

from .curvature import christoffel, christoffel_from, ricci, riemann
from .errors import NonPositiveSpectrum, NotPositiveDefinite, SingularMatrix, WrongDimension
from .fields import (
    EndomorphismField,
    MetricField,
    VectorField,
    block_diagonal,
    fmat_adjugate,
    fmat_det,
    fmat_mul,
    fmat_scale,
    g_orthonormal_frame,
    pointwise_errors,
    require,
    require_finite,
    require_self_adjoint,
    scan,
    solve_metric,
    worst_point,
)
from .jets import _mapped, _pow
from .records import Record
from .tolerances import DEFAULT


def pencil_spectrum(gmat, lmat, points=None):
    """Eigenvalues of L with respect to g, ascending, for one n x n pair or
    a (..., n, n) stack of them. Real because g*L is symmetric.

    With g = C C^T (Cholesky) they are the eigenvalues of the symmetric
    C^T L C^-T, which equals C^-1 (g L) C^-T; the product is symmetrised
    against rounding. A 2-D call is the one-matrix case of the stack.
    Non-finite entries raise DomainViolation and a g that is not
    positive-definite raises NotPositiveDefinite; a product that
    overflows is a DomainViolation too. Each names the point when
    ``points`` (one per matrix, in stack order) is given.
    """
    g = np.asarray(gmat, dtype=float)
    lm = np.asarray(lmat, dtype=float)
    n = g.shape[-1]
    lead = g.shape[:-2]
    g = require_finite(g.reshape(-1, n, n), points, "metric")
    lm = require_finite(lm.reshape(-1, n, n), points, "endomorphism")
    try:
        c = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(g)[:, 0]
        k = int(np.argmin(w))
        raise NotPositiveDefinite(f"metric not positive-definite: min eigenvalue {w[k]:.3e}",
                                  point=None if points is None else points[k]) from None
    with np.errstate(over="ignore", invalid="ignore"):  # refused at its point below
        m = c.transpose(0, 2, 1) @ lm @ np.linalg.inv(c).transpose(0, 2, 1)
        m = 0.5 * (m + m.transpose(0, 2, 1))
    return np.linalg.eigvalsh(require_finite(m, points, "pencil product")).reshape(lead + (n,))


def spectra_at(g: MetricField, L: EndomorphismField, points):
    """Pencil spectra at each point, shape (N, n), from one stacked build
    of each matrix and one stacked eigenvalue call."""
    pts = np.asarray(points, dtype=float).reshape(-1, g.dim)
    return pencil_spectrum(g.matrix(pts), L.matrix(pts), points=pts)


def spectrum_at(g: MetricField, L: EndomorphismField, x):
    return spectra_at(g, L, [x])[0]


@pointwise_errors(2)
def covariant_endo_derivative(g, L, x):
    """(nabla L)[i, j, k] = (nabla_k L)^i_j."""
    return _covariant(christoffel(g, x), *L.jet(x, 1))


def _covariant(gam, lm, dl):
    """nabla L from Gamma, the matrix of L and its gradient dl[i, j, k] = d_k L^i_j."""
    return (
        dl
        + np.einsum("...ikm,...mj->...ijk", gam, lm)
        - np.einsum("...mkj,...im->...ijk", gam, lm)
    )


@pointwise_errors(2)
def bm_residual(g, L, x, eps_sym_factor=DEFAULT.eps_sym_factor):
    """Max defect of the compatibility identity at x, orthonormal frame.

    The identity tested, for frame vectors u, v, w:

        g((nabla_u L) v, w) = 1/2 g(v, u) dtr(w) + 1/2 g(w, u) dtr(v)

    where dtr is the differential of trace L. The frame makes the result
    scale-honest: residuals from different metrics are comparable. A float
    at one point x, an (N,) array on an (N, n) stack. A non-finite dg or dL
    is a DomainViolation at its first point, before any product.
    """
    gmat, dg = g.jet(x, 1)
    lm, dl = L.jet(x, 1)
    require_self_adjoint(gmat, lm, x, eps_sym_factor)
    require_finite(dg, x, "metric derivative")
    require_finite(dl, x, "endomorphism derivative")
    frame = g_orthonormal_frame(gmat)  # columns e_a
    cov = _covariant(christoffel_from(gmat, dg, x), lm, dl)
    tau = (np.swapaxes(frame, -1, -2) @ np.trace(dl, axis1=-3, axis2=-2)[..., None])[..., 0]

    # lhs[a, b, c] = g((nabla_{e_a} L) e_b, e_c)
    m = np.einsum("...ijk,...ka->...aij", cov, frame)
    gm = np.einsum("...im,...amj->...aij", gmat, m)
    lhs = np.einsum("...aij,...ic,...jb->...abc", gm, frame, frame)

    eye = np.eye(g.dim)
    # rhs[a, b, c] = (delta_ab tau_c + delta_ac tau_b) / 2; a -0.0 product is 0 in |lhs - rhs|
    rhs = 0.5 * (eye[:, :, None] * tau[..., None, None, :]) + 0.5 * (
        eye[:, None, :] * tau[..., None, :, None])
    res = np.max(np.abs(lhs - rhs), axis=(-3, -2, -1))
    return res if res.ndim else float(res)


def bm_residual_stats(g, L, points, eps_sym_factor=DEFAULT.eps_sym_factor) -> dict:
    """Max and mean of bm_residual over points, and the worst point; a
    non-finite residual raises DomainViolation at its first point."""
    pts = np.reshape(points, (-1, g.dim))
    vals = require_finite(bm_residual(g, L, pts, eps_sym_factor), pts, "compatibility residual")
    worst = int(np.argmax(vals))
    return {
        "max": float(vals.max()),
        "mean": float(vals.mean()),
        "points": int(len(vals)),
        "worst_point": [float(v) for v in pts[worst]],
    }


class MetricPair(Record):
    """Two metrics on one chart, intended as a geodesically linked pair."""

    _fields = ("g", "gbar")

    def __init__(self, g: MetricField, gbar: MetricField):
        self._set(g=g, gbar=gbar)
        if g.chart != gbar.chart:
            raise ValueError("pair metrics must share a chart")

    @property
    def chart(self):
        return self.g.chart


@pointwise_errors(2)
def l_from_pair(g, gbar, x):
    """Linking endomorphism at x: (det gbar / det g)^{1/(n+1)} gbar^{-1} g,
    at one point x or with a leading N axis at an (N, n) stack."""
    gmat = g.matrix(x)
    gbmat = gbar.matrix(x)
    # refused before det, which warns on a NaN entry
    require_finite(np.concatenate((gmat, gbmat), axis=-1), x, "metric")
    n = gmat.shape[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused at its point
        dets = np.linalg.det(np.array((gbmat, gmat)))  # one LAPACK call for both
        ratio = dets[0] / dets[1]  # det g = 0 gives no finite ratio
    require_finite(dets.T, x, "determinant")
    require(np.isfinite(ratio) & (ratio > 0.0), x, SingularMatrix,
            "determinant ratio not positive; metrics degenerate")
    # C's pow on each ratio: numpy's scalar ** is, its array ** differs in the last bit
    root = ratio ** (1.0 / (n + 1)) if ratio.ndim == 0 else _mapped(_pow)(ratio, 1.0 / (n + 1))
    return (root * np.linalg.solve(gbmat, gmat).T).T  # each matrix times its root


def l_field_from_pair(pair: MetricPair) -> EndomorphismField:
    """Field version of l_from_pair, with exact derivative propagation."""
    g, gbar = pair.g, pair.gbar
    n = g.dim
    det_g = fmat_det(g.entries)
    det_gb = fmat_det(gbar.entries)
    # gbar^{-1} = adj(gbar) / det(gbar); fold both determinant powers into one scale
    scale = det_gb ** (1.0 / (n + 1) - 1.0) * det_g ** (-1.0 / (n + 1))
    raw = fmat_mul(fmat_adjugate(gbar.entries), g.entries)
    return EndomorphismField(g.chart, fmat_scale(raw, scale))


def gbar_from_l(g, L, eig_floor=DEFAULT.eig_floor, samples=500, seed=0, validate=False):
    """Partner metric gbar = det(L)^{-1} L^{-1} acting on g, as a field.

    Entry formula: gbar_ij = det(L)^{-2} (adj L)^a_i g_aj. Positivity of
    the L-spectrum is scanned on `samples` quasi-random points first;
    NonPositiveSpectrum names the worst point. The result is symmetric
    because g*L^{-1} is, and positive-definite wherever L is; the
    constructor scan is skipped by default for that reason.
    """
    chart = g.chart
    pts = chart.sample(samples, seed=seed)
    lam_min = spectra_at(g, L, pts)[:, 0]
    if len(pts) and lam_min.min() <= eig_floor:
        k = int(np.argmin(lam_min))
        raise NonPositiveSpectrum(
            f"L eigenvalue {lam_min[k]:.3e} <= {eig_floor:.1e} at {pts[k]};"
            " partner metric undefined"
        )

    det_l = fmat_det(L.entries)
    adj = fmat_adjugate(L.entries)
    n = g.dim
    adj_t = [[adj[j][i] for j in range(n)] for i in range(n)]
    raw = fmat_scale(fmat_mul(adj_t, g.entries), det_l ** -2.0)
    sym = [[(raw[i][j] + raw[j][i]) * 0.5 if i != j else raw[i][i] for j in range(n)]
           for i in range(n)]
    return MetricField(chart, block_diagonal(chart, [sym]), validate=validate)


# --- flows -------------------------------------------------------------


class ProjectiveFlowSpec(Record):
    """A metric and the generator of a geodesic-preserving flow on it."""

    _fields = ("metric", "generator")

    def __init__(self, metric: MetricField, generator: VectorField):
        self._set(metric=metric, generator=generator)
        if metric.chart != generator.chart:
            raise ValueError("generator must live on the metric's chart")


@pointwise_errors(2)
def lie_derivative_metric(g, v: VectorField, x):
    """(L_v g)_ij = v^k d_k g_ij + g_kj d_i v^k + g_ik d_j v^k, at one point
    x or with a leading N axis at an (N, n) stack."""
    return _lie(*g.jet(x, 1), *v.jet(x))


def _lie(gmat, dg, vv, jac):
    """L_v g from the matrix of g, its gradient, v and jac[k, i] = d v^k / d x_i."""
    return (
        np.einsum("...ijk,...k->...ij", dg, vv)
        + np.einsum("...kj,...ki->...ij", gmat, jac)
        + np.einsum("...ik,...kj->...ij", gmat, jac)
    )


@pointwise_errors(1)
def bm_from_flow(spec: ProjectiveFlowSpec, x):
    """Trace-adjusted velocity of the metric under the flow, at one point or a stack x.

    Returns A - tr(A)/(n+1) Id with A = g^{-1} (L_v g). A Killing
    generator gives the zero matrix; a projective one gives a solution
    of the compatibility identity (up to sign conventions this is the
    time derivative of the pulled-back metric at t = 0). A singular g is
    SingularMetric at its point.
    """
    n = spec.metric.dim
    gmat, dg = spec.metric.jet(x, 1)
    a = solve_metric(gmat, _lie(gmat, dg, *spec.generator.jet(x)), x)
    return a - (np.trace(a, axis1=-2, axis2=-1)[..., None, None] / (n + 1)) * np.eye(n)


def bm_from_flow_field(spec: ProjectiveFlowSpec) -> EndomorphismField:
    """bm_from_flow as an endomorphism field.

    Finite differences of the pointwise formula, one call per matrix,
    dmatrix or d2matrix. Accurate to ~1e-10, which is all the downstream
    residual checks need.
    """
    return EndomorphismField.from_function(spec.metric.chart, lambda x: bm_from_flow(spec, x))


# --- obstructions ------------------------------------------------------


@pointwise_errors(1)
def nijenhuis_torsion(L: EndomorphismField, x):
    """Torsion N[i, j, k] of L at x, or N[s, i, j, k] at each point of an
    (N, n) stack; identically zero is necessary for L to come from a metric
    pair in normal form. A non-finite L or dL is a DomainViolation at its first point."""
    lm, dl = L.jet(x, 1)  # dl[i, j, k] = d_k L^i_j
    require_finite(np.concatenate((lm[..., None], dl), axis=-1), x, "endomorphism")
    return (
        np.einsum("...aj,...ika->...ijk", lm, dl)
        - np.einsum("...ak,...ija->...ijk", lm, dl)
        + np.einsum("...im,...mjk->...ijk", lm, dl)
        - np.einsum("...im,...mkj->...ijk", lm, dl)
    )


def projective_weyl(g, x, riem=None):
    """Weyl-type curvature W[i, j, k, l], invariant across a linked pair.

    W = R + (delta^i_l Ric_jk - delta^i_k Ric_jl) / (n - 1). Both traces
    over (i, k) and (i, l) vanish; constant-curvature metrics give W = 0.
    Identically zero in dimension 2, and undefined in dimension 1
    (WrongDimension).
    """
    n = g.dim
    if n < 2:
        raise WrongDimension(f"the projective Weyl tensor needs dimension >= 2, got {n}")
    if riem is None:
        riem = riemann(g, x)
    ric = ricci(g, x, riem=riem)
    eye = np.eye(n)
    corr = (
        np.einsum("il,...jk->...ijkl", eye, ric) - np.einsum("ik,...jl->...ijkl", eye, ric)
    ) / (n - 1)
    return riem + corr


def weyl_trace_defect(w):
    """Max of the two contractions that must vanish for a Weyl-type tensor:
    a float for one tensor, an (N,) array for an (N, n, n, n, n) stack."""
    t1 = np.max(np.abs(np.einsum("...ijki->...jk", w)), axis=(-2, -1))
    t2 = np.max(np.abs(np.einsum("...ijil->...jl", w)), axis=(-2, -1))
    out = np.where(t2 > t1, t2, t1)  # Python's max(t1, t2) at each point
    return out if out.ndim else float(out)


def weyl_pair_defect(pair: MetricPair, points) -> dict:
    """Max entry difference of W between the two pair members, over points."""
    pts = np.reshape(points, (-1, pair.g.dim))
    devs = scan(pts, lambda p: np.max(np.abs(
        projective_weyl(pair.g, p) - projective_weyl(pair.gbar, p)), axis=(-4, -3, -2, -1)))
    worst, worst_pt = worst_point(devs, pts, "Weyl tensor")
    return {"max": worst, "points": int(len(pts)), "worst_point": worst_pt}


# --- linear sphere-to-sphere maps ---------------------------------------


def beltrami_map_defect(a_matrix, normal, samples: int = 64) -> float:
    """Coplanarity defect of the central projection of a great circle.

    The circle orthogonal to `normal` is pushed through the linear map
    and re-normalized to the sphere; the image must lie on the great
    circle orthogonal to the inverse-transpose image of `normal`. Returns
    the max inner product between image points and that normal, which is
    zero (to rounding) for any invertible linear map. A non-finite entry
    of the map, then of the normal, raises DomainViolation.
    """
    a = np.asarray(a_matrix, dtype=float)
    if a.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    require_finite(a, None, "map")
    nrm = require_finite(np.asarray(normal, dtype=float), None, "normal")
    if np.linalg.cond(a) > 1e12:
        raise SingularMatrix("map is numerically singular")
    ln = np.linalg.norm(nrm)
    if ln == 0.0:
        raise ValueError("normal must be nonzero")
    nrm = nrm / ln

    # orthonormal basis of the plane orthogonal to nrm
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(nrm)))] = 1.0
    e1 = axis - (axis @ nrm) * nrm
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nrm, e1)

    image_normal = np.linalg.solve(a.T, nrm)
    image_normal /= np.linalg.norm(image_normal)

    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)[:, None]
    # row-by-column matmuls sum as the per-angle dot products did: the same floats
    w = a @ (np.cos(thetas) * e1 + np.sin(thetas) * e2)[:, :, None]  # a v, one per angle
    w = w / np.sqrt(np.swapaxes(w, -1, -2) @ w)
    return float(np.max(np.abs(np.swapaxes(w, -1, -2) @ image_normal), initial=0.0))
