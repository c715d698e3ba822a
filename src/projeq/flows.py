"""One-parameter families of quadratic first integrals of the geodesic flow.

Given a metric g and a compatible endomorphism L, each parameter value t
yields the quadratic form

    I_t(x, p) = p . (S_t v),   v = g^{-1} p,   S_t = adj(L - t Id)

polynomial of degree n-1 in t. The adjugate coefficients come from the
Faddeev-LeVerrier recursion, which also gives exact x-derivatives, so
Poisson brackets here carry no finite-difference noise.

Brackets are bilinear in the t-coefficients. Writing
I_t = sum_j t^j a_j(x, p) and u_t = (1, t, ..., t^{n-1}),

    {I_s, I_t} = u_s^T B u_t,   B_jk = {a_j, a_k}   (antisymmetric n x n)
    {I_t, H}   = u_t . e,       e_j  = {a_j, H}

so one pass over g, dg, L, dL per phase state gives B and e, and every
t-pair of an audit grid costs one small bilinear form.

Every v = g^{-1} p here, and the g^{-1} of the bracket jet, comes from
fields.solve_metric: a singular g is SingularMetric at its point.

Root structure: for fixed (x, p) the polynomial t -> I_t has n-1 real
roots interlacing the eigenvalues of L at x; `roots` and the audits
below test exactly that.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ComplexRoots, DomainViolation, ZeroVelocity
from .fields import PhaseState, pointwise_errors, require, require_finite, scan, solve_metric
from .pairs import spectra_at
from .tolerances import DEFAULT

_IMAG_CLAMP = 1e-9  # relative imaginary part of a root read as rounding noise


def _fl_adjugate(a, da=None):
    """Coefficient matrices of adj(t I - A) = sum_k M_{k+1} t^{n-1-k}.

    Faddeev-LeVerrier: M_1 = I, c_{n-k} = -tr(A M_k)/k,
    M_{k+1} = A M_k + c_{n-k} I. Returns the list [M_1 .. M_n]; a may be
    one n x n matrix or a (..., n, n) stack, and every M_k after the
    identity M_1 is shaped like it. Given da[..., i, j, d] = d A_ij / d x_d
    as well, returns (mats, dmats) as arrays: mats[..., k, i, j] is M_{k+1}
    and dmats[..., k, i, j, d] its partials.
    """
    n = a.shape[-1]
    eye = np.eye(n)
    m, dm = eye, None if da is None else np.zeros(da.shape)
    mats, dmats = [m], [dm]
    for k in range(1, n):
        am = a @ m
        c = -am.trace(0, -2, -1) / k
        if da is not None:
            dam = np.einsum("...isd,...sj->...ijd", da, m) + np.einsum("...is,...sjd->...ijd", a, dm)
            dc = -np.einsum("...iid->...d", dam) / k
            dm = dam + np.einsum("...d,ij->...ijd", dc, eye)
            dmats.append(dm)
        m = am + c[..., None, None] * eye
        mats.append(m)
    if da is None:
        return mats
    mats[0] = eye + np.zeros(a.shape)  # the identity of each matrix of a stack
    return np.array(mats).swapaxes(0, -3), np.array(dmats).swapaxes(0, -4)


def _powers(t, n):
    """(1, t, ..., t^{n-1}): I_t = _powers(t, n) @ a."""
    return float(t) ** np.arange(n)


def _phase_rows(phase_points, n):
    """A sequence of phase states as the (N, 2n) rows (x, p) an audit scans."""
    return np.reshape([np.concatenate([s.x, s.p]) for s in phase_points], (-1, 2 * n))


class _StateJet(NamedTuple):
    """Everything a bracket reads at one phase state, or at a stack of them.

    Row j of ax, ap is the gradient of a_j and (hx, hp) that of H; read off
    them, brackets[j, k] = {a_j, a_k} and energy_brackets[j] = {a_j, H}.
    """

    a: np.ndarray
    ax: np.ndarray
    ap: np.ndarray
    hx: np.ndarray
    hp: np.ndarray

    @property
    def brackets(self):
        return self.ax @ self.ap.swapaxes(-1, -2) - self.ap @ self.ax.swapaxes(-1, -2)

    @property
    def energy_brackets(self):
        return (self.ax @ self.hp[..., None] - self.ap @ self.hx[..., None])[..., 0]


class IntegralFamily:
    """The family I_t attached to one (g, L) pair on a chart."""

    def __init__(self, g, L, check_points=16, eps_sym_factor=DEFAULT.eps_sym_factor):
        if g.chart != L.chart:
            raise ValueError("g and L must share a chart")
        self.g = g
        self.L = L
        self.chart = g.chart
        # adj(L - t Id) = sign * adj(t Id - L)
        self._sign = 1.0 if (g.dim - 1) % 2 == 0 else -1.0
        if check_points:
            L.require_self_adjoint(g, self.chart.sample(check_points, seed=11), eps_sym_factor)

    # -- coefficient data -------------------------------------------------

    def coeff_matrices(self, x):
        """C_j with adj(L - t Id) = sum_j t^j C_j; C_{n-1} = (-1)^{n-1} Id.

        x is one point or an (N, n) stack, giving n x n or (N, n, n)
        matrices; C_{n-1} stays n x n and broadcasts against the stack.
        """
        # adj(t I - L) = sum_k M_{k+1} t^{n-1-k}, so C_j = sign * M_{n-j}
        return [self._sign * m for m in _fl_adjugate(self.L.matrix(x))[::-1]]

    def s_matrix(self, x, t):
        """S_t = adj(L - t Id) at one point or an (N, n) stack."""
        return sum(t ** j * c for j, c in enumerate(self.coeff_matrices(x)))

    # -- evaluation ---------------------------------------------------------

    def value(self, state: PhaseState, t: float):
        """I_t at one phase state (a float) or at (N, n) stacks x, p (an (N,) array);
        a non-finite value is a DomainViolation at its first point."""
        return self.values(state, (t,))[0]

    @pointwise_errors(1)
    def values(self, state: PhaseState, ts):
        """The list of I_t for each t of ts in order, each as `value` gives it, from
        one g build, solve and Faddeev-LeVerrier pass; a non-finite value is a
        DomainViolation at its first point, checked t by t."""
        p = state.p
        v = solve_metric(self.g.matrix(state.x), p[..., None], state.x)
        cs = self.coeff_matrices(state.x)
        out = []
        for t in ts:  # S_t as s_matrix forms it
            i_t = (p[..., None, :] @ (sum(t ** j * c for j, c in enumerate(cs)) @ v))[..., 0, 0]
            out.append(require_finite(i_t, state.x, "I_t"))
        return [float(i_t) for i_t in out] if p.ndim == 1 else out

    @pointwise_errors(1)
    def t_coefficients(self, state: PhaseState):
        """a_j with I_t = sum_j a_j t^j, (n,) at one state or (N, n) on
        stacks; leading a_{n-1} = +-2H != 0. A non-finite a_j is a
        DomainViolation at its first point."""
        p = state.p
        v = solve_metric(self.g.matrix(state.x), p[..., None], state.x)
        return require_finite(np.stack([(p[..., None, :] @ (c @ v))[..., 0, 0]
                                        for c in self.coeff_matrices(state.x)], axis=-1),
                              state.x, "I_t coefficient")

    def roots(self, state: PhaseState):
        """The n-1 real roots of t -> I_t, ascending, (n-1,) at one state or
        (N, n-1) on stacks: the eigenvalues of np.roots' companion matrices
        from one eigvals call, a zero low-order coefficient giving a root of
        exactly 0 as in np.roots.

        A nonzero momentum gives n-1 roots (ZeroVelocity otherwise: the
        leading coefficient is +-2H). Imaginary parts below 1e-9 * (1 +
        |root|) are eigensolver noise at double roots; larger ones raise
        ComplexRoots, since real roots are a theorem for compatible (g, L).
        A stack checks every momentum first; fields.scan orders its errors.
        """
        a = np.atleast_2d(self.t_coefficients(state))
        require(np.abs(a[:, -1]) >= 1e-14 * np.maximum(1.0, np.abs(a).max(axis=1)), state.x,
                ZeroVelocity, "momentum too small: leading coefficient vanishes")
        m = a.shape[1] - 1
        # companion of the polynomial stripped of its zero low-order terms
        keep = np.arange(m) < m - np.argmax(a != 0, axis=1)[:, None]
        comp = np.zeros((len(a), m, m))
        comp[:, :1, :] = np.where(keep, -a[:, -2::-1] / a[:, -1:], 0.0)[:, None, :]
        comp[:, np.arange(1, m), np.arange(m - 1)] = keep[:, 1:]
        rts = np.linalg.eigvals(comp)
        require(np.abs(rts.imag) <= _IMAG_CLAMP * (1.0 + np.abs(rts)), state.x, ComplexRoots,
                lambda k: f"root imaginary part {np.abs(rts[k].imag).max():.3e} exceeds clamp")
        rts = np.sort(rts.real)
        return rts if state.p.ndim > 1 else rts[0]

    # -- exact gradients and brackets ------------------------------------------

    def _jet(self, state: PhaseState) -> _StateJet:
        """Values and exact gradients of every a_j, and of H, at one state,
        or with a leading N axis at a state whose x and p are (N, n) stacks.

        One evaluation of g, dg, L, dL and one Faddeev-LeVerrier pass with
        derivatives; every bracket at a state is read off the result.
        """
        x, p = state.x, state.p
        gmat, dg = self.g.jet(x, 1)
        ginv = solve_metric(gmat, np.eye(self.g.dim), x)
        mats, dmats = _fl_adjugate(*self.L.jet(x, 1))
        # C_j = sign * M_{n-j}: cs[j, i, l] and dcs[j, i, l, k] = d C_j[i, l] / d x_k
        cs = self._sign * mats[..., ::-1, :, :]
        dcs = self._sign * dmats[..., ::-1, :, :, :]
        v = (ginv @ p[..., None])[..., 0]
        # a_j = p^T C_j g^{-1} p; u_j = g^{-1} C_j^T p
        u = np.einsum("...jil,...i->...jl", cs, p) @ ginv
        a = (u @ p[..., None])[..., 0]
        ax = (np.einsum("...i,...jilk,...l->...jk", p, dcs, v)
              - np.einsum("...jl,...lmk,...m->...jk", u, dg, v))
        ap = (cs @ v[..., None, :, None])[..., 0] + u
        hx = -0.5 * np.einsum("...i,...ijk,...j->...k", v, dg, v)
        return _StateJet(a, ax, ap, hx, v)

    @pointwise_errors(1)
    def gradients(self, state: PhaseState, t: float):
        """(dI/dx, dI/dp) at the phase point, both length n, or (N, n) at stacks
        x, p; a non-finite entry is a DomainViolation at its first point."""
        jet = self._jet(state)
        w = _powers(t, self.g.dim)
        return tuple(require_finite(w @ d, state.x, "I_t gradient") for d in (jet.ax, jet.ap))

    def commutation_report(self, phase_points, t_values, tol=DEFAULT.commutation_tol) -> dict:
        """Pairwise brackets over the t-grid, scaled by 1 + |I_a| + |I_b|.

        Per state, the pairs (t_i, t_j) with i < j come first, then each
        {I_t, H}; the first strict maximum over the states in order, and
        that order within each, is reported. A non-finite scaled bracket
        raises DomainViolation at its state's x.
        """
        n, m = self.g.dim, len(t_values)
        ii, jj = np.triu_indices(m, 1)
        labels = ([[t_values[i], t_values[j]] for i, j in zip(ii, jj)]
                  + [[t, "energy"] for t in t_values])
        w = np.array([_powers(t, n) for t in t_values]).reshape(m, n)

        def scaled(rows):
            """(scaled brackets, brackets) of phase rows (x, p), per state."""
            x = rows[:, :n]
            with np.errstate(over="ignore", invalid="ignore"):  # refused at its point below
                jet = self._jet(PhaseState(x, rows[:, n:]))
                mag = np.abs((w @ jet.a[:, :, None])[..., 0])
                br = np.concatenate([(w @ jet.brackets @ w.T)[:, ii, jj],
                                     (w @ jet.energy_brackets[:, :, None])[..., 0]], axis=1)
                rel = np.abs(br) / np.concatenate([1.0 + mag[:, ii] + mag[:, jj], 1.0 + mag], 1)
            require(np.isfinite(rel), x, DomainViolation, "non-finite commutation bracket")
            return rel, br

        rows = _phase_rows(phase_points, n)
        rel, br = scan(rows, scaled)
        worst, worst_detail = 0.0, None
        if np.max(rel, initial=0.0) > 0.0:
            s, k = np.unravel_index(np.argmax(rel), rel.shape)  # the first of tied maxima
            worst = float(rel[s, k])
            worst_detail = {
                "t_pair": list(labels[k]),
                "x": [float(v) for v in rows[s, :n]],
                "bracket": float(br[s, k]),
            }
        return {
            "max_scaled_bracket": worst,
            "tol": tol,
            "pass": bool(worst <= tol),
            "states": len(phase_points),
            "t_grid": list(t_values),
            "worst": worst_detail,
        }


# -- spectra and orderings ----------------------------------------------------


def ordering_audit(g, L, points, tau_ord=DEFAULT.tau_ord) -> dict:
    """Global eigenvalue-band separation over a point sample.

    Band i passes when max_x lambda_i(x) <= min_y lambda_{i+1}(y) + tau_ord
    with x, y ranging over the whole sample independently. This is the
    strong form needed for the roots of different phase points to be
    comparable; pointwise ordering is weaker and not what is audited.
    """
    pts = np.reshape(points, (-1, g.dim))
    lams = spectra_at(g, L, pts)
    his, los = lams[:, :-1].max(axis=0), lams[:, 1:].min(axis=0)
    his_at, los_at = np.argmax(lams[:, :-1], axis=0), np.argmin(lams[:, 1:], axis=0)
    bands = [{
        "band": i,
        "upper_max": float(his[i]),
        "next_min": float(los[i]),
        "violation": float(his[i] - los[i]),
        "argmax": [float(v) for v in pts[his_at[i]]],
        "argmin": [float(v) for v in pts[los_at[i]]],
    } for i in range(len(his))]
    worst = max((band["violation"] for band in bands), default=-np.inf)
    return {
        "bands": bands,
        "max_violation": worst,
        "tau_ord": tau_ord,
        "pass": bool(worst <= tau_ord),
        "points": len(pts),
    }


def interlacing_audit(family: IntegralFamily, phase_points,
                      slack=DEFAULT.interlace_slack) -> dict:
    """Roots of I_t vs eigenvalues of L at each phase point.

    Checks lambda_i - slack <= t_i <= lambda_{i+1} + slack for every
    root index i at each point, and reports the first strict maximum over
    the states in order, then over the root indices of each.
    """
    n = family.g.dim
    rows = _phase_rows(phase_points, n)
    lams = spectra_at(family.g, family.L, rows[:, :n])
    rts = scan(rows, lambda r: family.roots(PhaseState(r[:, :n], r[:, n:])))
    viol = np.maximum(lams[:, :-1] - rts, rts - lams[:, 1:])
    worst, worst_detail = -np.inf, None
    if viol.size:
        s, i = np.unravel_index(np.argmax(viol), viol.shape)  # the first of tied maxima
        worst = float(viol[s, i])
        worst_detail = {
            "x": [float(v) for v in rows[s, :n]],
            "root_index": int(i),
            "root": float(rts[s, i]),
            "bracket": [float(lams[s, i]), float(lams[s, i + 1])],
        }
    return {
        "max_violation": worst,
        "slack": slack,
        "pass": bool(worst <= slack),
        "states": len(phase_points),
        "worst": worst_detail,
    }
