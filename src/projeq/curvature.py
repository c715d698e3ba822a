"""Christoffel symbols and curvature tensors.

Index conventions used throughout the package:

* christoffel: Gamma[i, j, k] = Gamma^i_{jk}, symmetric in (j, k).
* riemann: R[i, j, k, l] = component along e_i of R(e_k, e_l) e_j, with
  R(u, v) w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w.
  Antisymmetric in (k, l). The unit round sphere has sectional +1.
* ricci: Ric[j, l] = sum_k R[k, j, k, l], positive on spheres.
* lowering: R_low[i, j, k, l] = g_im R[m, j, k, l].
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMetric

_COND_CAP = 1e12


def _inverse_checked(gmat, x):
    if np.linalg.cond(gmat) > _COND_CAP:
        raise SingularMetric("metric numerically singular", point=x)
    return np.linalg.inv(gmat)


def christoffel(g, x):
    """Levi-Civita connection coefficients Gamma^i_{jk} at x."""
    gmat = g.matrix(x)
    ginv = _inverse_checked(gmat, x)
    dg = g.dmatrix(x)  # dg[i, j, k] = d g_ij / d x_k
    # term[m, j, k] = d_j g_mk + d_k g_mj - d_m g_jk
    term = np.einsum("mkj->mjk", dg) + dg - np.einsum("jkm->mjk", dg)
    return 0.5 * np.einsum("im,mjk->ijk", ginv, term)


def christoffel_with_derivative(g, x):
    """Gamma and its partials dGamma[i, j, k, l] = d_l Gamma^i_{jk}."""
    gmat = g.matrix(x)
    ginv = _inverse_checked(gmat, x)
    dg = g.dmatrix(x)
    d2g = g.d2matrix(x)  # d2g[i, j, k, l] = d_k d_l g_ij

    term = np.einsum("mkj->mjk", dg) + dg - np.einsum("jkm->mjk", dg)
    gam = 0.5 * np.einsum("im,mjk->ijk", ginv, term)

    # d_l g^{im} = -g^{ia} (d_l g_ab) g^{bm}
    dginv = -np.einsum("ia,abl,bm->iml", ginv, dg, ginv)
    # d_l term[m, j, k] = d2(g_mk)_{jl} + d2(g_mj)_{kl} - d2(g_jk)_{ml}
    dterm = (
        np.einsum("mkjl->mjkl", d2g)
        + np.einsum("mjkl->mjkl", d2g)
        - np.einsum("jkml->mjkl", d2g)
    )
    dgam = 0.5 * (
        np.einsum("iml,mjk->ijkl", dginv, term)
        + np.einsum("im,mjkl->ijkl", ginv, dterm)
    )
    return gam, dgam


def riemann(g, x):
    """Curvature tensor R[i, j, k, l]; see module docstring for slots."""
    gam, dgam = christoffel_with_derivative(g, x)
    # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
    #             + Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}
    r = (
        np.einsum("iljk->ijkl", dgam)
        - np.einsum("ikjl->ijkl", dgam)
        + np.einsum("ikm,mlj->ijkl", gam, gam)
        - np.einsum("ilm,mkj->ijkl", gam, gam)
    )
    return r


def ricci(g, x, riem=None):
    """Ricci tensor Ric[j, l], symmetric, positive on round spheres."""
    if riem is None:
        riem = riemann(g, x)
    ric = np.einsum("kjkl->jl", riem)
    return 0.5 * (ric + ric.T)


def lower_riemann(g, x, riem=None):
    if riem is None:
        riem = riemann(g, x)
    return np.einsum("im,mjkl->ijkl", g.matrix(x), riem)


def sectional(g, x, u, v, riem=None):
    """Sectional curvature of the plane spanned by u, v at x."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gmat = g.matrix(x)
    gram = (u @ gmat @ u) * (v @ gmat @ v) - (u @ gmat @ v) ** 2
    if gram <= 1e-14 * max(1.0, float(u @ gmat @ u) * float(v @ gmat @ v)):
        raise ValueError("u, v do not span a plane (degenerate Gram determinant)")
    if riem is None:
        riem = riemann(g, x)
    # g(R(u, v) v, u)
    w = np.einsum("ijkl,k,l,j->i", riem, u, v, v)
    return float(u @ gmat @ w) / float(gram)
