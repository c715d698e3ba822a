"""Christoffel symbols and curvature tensors.

Index conventions used throughout the package:

* christoffel: Gamma[i, j, k] = Gamma^i_{jk}, symmetric in (j, k).
* riemann: R[i, j, k, l] = component along e_i of R(e_k, e_l) e_j, with
  R(u, v) w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w.
  Antisymmetric in (k, l). The unit round sphere has sectional +1.
* ricci: Ric[j, l] = sum_k R[k, j, k, l], positive on spheres.

Every kernel takes one point x (n,) or an (N, n) stack, which leads each
result with an N axis. Each einsum has a leading ``...`` and sums as at
one point, so a stack equals its points bit for bit; it fails at its
first failing point (fields.pointwise_errors). The metric is
inverted by MetricField.inverse, which refuses a non-finite or
numerically singular metric.
"""

from __future__ import annotations

import numpy as np

from .fields import pointwise_errors


def _term(dg):
    """term[m, j, k] = d_j g_mk + d_k g_mj - d_m g_jk."""
    return np.einsum("...mkj->...mjk", dg) + dg - np.einsum("...jkm->...mjk", dg)


@pointwise_errors(1)
def christoffel(g, x):
    """Levi-Civita connection coefficients Gamma^i_{jk} at x."""
    ginv = g.inverse(x)
    dg = g.dmatrix(x)  # dg[i, j, k] = d g_ij / d x_k
    return 0.5 * np.einsum("...im,...mjk->...ijk", ginv, _term(dg))


@pointwise_errors(1)
def christoffel_with_derivative(g, x):
    """Gamma and its partials dGamma[i, j, k, l] = d_l Gamma^i_{jk}."""
    ginv = g.inverse(x)
    dg = g.dmatrix(x)
    d2g = g.d2matrix(x)  # d2g[i, j, k, l] = d_k d_l g_ij

    term = _term(dg)
    gam = 0.5 * np.einsum("...im,...mjk->...ijk", ginv, term)

    # d_l g^{im} = -g^{ia} (d_l g_ab) g^{bm}
    dginv = -np.einsum("...ia,...abl,...bm->...iml", ginv, dg, ginv)
    # d_l term[m, j, k] = d2(g_mk)_{jl} + d2(g_mj)_{kl} - d2(g_jk)_{ml}
    dterm = (
        np.einsum("...mkjl->...mjkl", d2g)
        + d2g
        - np.einsum("...jkml->...mjkl", d2g)
    )
    dgam = 0.5 * (
        np.einsum("...iml,...mjk->...ijkl", dginv, term)
        + np.einsum("...im,...mjkl->...ijkl", ginv, dterm)
    )
    return gam, dgam


def riemann(g, x):
    """Curvature tensor R[i, j, k, l]; see module docstring for slots."""
    gam, dgam = christoffel_with_derivative(g, x)
    # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
    #             + Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}
    return (
        np.einsum("...iljk->...ijkl", dgam)
        - np.einsum("...ikjl->...ijkl", dgam)
        + np.einsum("...ikm,...mlj->...ijkl", gam, gam)
        - np.einsum("...ilm,...mkj->...ijkl", gam, gam)
    )


def ricci(g, x, riem=None):
    """Ricci tensor Ric[j, l], symmetric, positive on round spheres."""
    if riem is None:
        riem = riemann(g, x)
    ric = np.einsum("...kjkl->...jl", riem)
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))


def sectional(g, x, u, v, riem=None):
    """Sectional curvature of the plane spanned by u, v at x: a float at one
    point, an (N,) array on an (N, n) stack, with u and v one vector each or
    (N, n) stacks. Every plane is checked before any curvature: a degenerate
    Gram determinant raises ValueError at its first point."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gmat = g.matrix(x)

    def gdot(a, b):  # g(a, b), summed as the one-point a @ g @ b
        return (a[..., None, :] @ gmat @ b[..., None])[..., 0, 0]

    guu, gvv = gdot(u, u), gdot(v, v)
    gram = guu * gvv - gdot(u, v) ** 2
    spans = gram > 1e-14 * np.maximum(1.0, guu * gvv)
    if not spans.all():
        k = int(np.argmin(spans))
        raise ValueError("u, v do not span a plane (degenerate Gram determinant) "
                         f"at {[float(c) for c in np.atleast_2d(x)[k]]}")
    if riem is None:
        riem = riemann(g, x)
    # g(R(u, v) v, u)
    w = np.einsum("...ijkl,...k,...l,...j->...i", riem, u, v, v)
    kappa = gdot(u, w) / gram
    return float(kappa) if kappa.ndim == 0 else kappa
