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

Root structure: for fixed (x, p) the polynomial t -> I_t has n-1 real
roots interlacing the eigenvalues of L at x; `roots` and the audits
below test exactly that.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ComplexRoots, ZeroVelocity
from .fields import PhaseState
from .pairs import pencil_spectrum, spectrum_at


def _fl_adjugate(a, da=None):
    """Coefficient matrices of adj(t I - A) = sum_k M_{k+1} t^{n-1-k}.

    Faddeev-LeVerrier: M_1 = I, c_{n-k} = -tr(A M_k)/k,
    M_{k+1} = A M_k + c_{n-k} I. Returns the list [M_1 .. M_n]; given
    da[i, j, d] = d A_ij / d x_d, returns (mats, dmats) with dmats[k][i, j, d]
    the matching partials of M_{k+1}.
    """
    n = a.shape[0]
    eye = np.eye(n)
    m, dm = eye.copy(), np.zeros((n, n, n))
    mats, dmats = [m], [dm]
    for k in range(1, n):
        am = a @ m
        c = -np.trace(am) / k
        if da is not None:
            dam = np.einsum("isd,sj->ijd", da, m) + np.einsum("is,sjd->ijd", a, dm)
            dc = -np.einsum("iid->d", dam) / k
            dm = dam + np.einsum("d,ij->ijd", dc, eye)
            dmats.append(dm)
        m = am + c * eye
        mats.append(m)
    return mats if da is None else (mats, dmats)


def _powers(t, n):
    """(1, t, ..., t^{n-1}): I_t = _powers(t, n) @ a."""
    return float(t) ** np.arange(n)


class _StateJet(NamedTuple):
    """Everything a bracket reads at one phase state.

    Row j of ax, ap is the gradient of a_j; brackets[j, k] = {a_j, a_k}
    and energy_brackets[j] = {a_j, H}.
    """

    a: np.ndarray
    ax: np.ndarray
    ap: np.ndarray
    hx: np.ndarray
    hp: np.ndarray
    brackets: np.ndarray
    energy_brackets: np.ndarray


class IntegralFamily:
    """The family I_t attached to one (g, L) pair on a chart."""

    def __init__(self, g, L, check_points=16, eps_sym_factor=1e-9):
        if g.chart != L.chart:
            raise ValueError("g and L must share a chart")
        self.g = g
        self.L = L
        self.chart = g.chart
        if check_points:
            for x in self.chart.sample(check_points, seed=11):
                L.require_self_adjoint(g, x, eps_sym_factor)

    # -- coefficient data -------------------------------------------------

    def coeff_matrices(self, x):
        """C_j with adj(L - t Id) = sum_j t^j C_j; C_{n-1} = (-1)^{n-1} Id."""
        n = self.g.dim
        sign = 1.0 if (n - 1) % 2 == 0 else -1.0
        mats = _fl_adjugate(self.L.matrix(x))
        # adj(t I - L) = sum_k M_{k+1} t^{n-1-k}; flip sign for adj(L - t I)
        return [sign * mats[n - 1 - j] for j in range(n)]

    def s_matrix(self, x, t):
        cs = self.coeff_matrices(x)
        out = np.zeros_like(cs[0])
        for j, c in enumerate(cs):
            out += (t ** j) * c
        return out

    # -- evaluation ---------------------------------------------------------

    def value(self, state: PhaseState, t: float) -> float:
        v = np.linalg.solve(self.g.matrix(state.x), state.p)
        return float(state.p @ (self.s_matrix(state.x, t) @ v))

    def t_coefficients(self, state: PhaseState):
        """a_j with I_t = sum_j a_j t^j; leading a_{n-1} = +-2H != 0."""
        v = np.linalg.solve(self.g.matrix(state.x), state.p)
        cs = self.coeff_matrices(state.x)
        return np.array([float(state.p @ (c @ v)) for c in cs])

    def roots(self, state: PhaseState, imag_clamp=1e-9):
        """The n-1 real roots of t -> I_t, ascending.

        The leading coefficient is (-1)^{n-1} 2H, so a nonzero momentum
        always gives exactly n-1 roots. Imaginary parts below
        imag_clamp * (1 + |root|) are clamped (double roots emerge from
        the companion eigensolver with tiny imaginary noise); larger
        ones raise ComplexRoots since real-rootedness is a theorem for
        compatible (g, L).
        """
        coeffs = self.t_coefficients(state)
        lead = abs(coeffs[-1])
        if lead < 1e-14 * max(1.0, float(np.abs(coeffs).max())):
            raise ZeroVelocity("momentum too small: leading coefficient vanishes")
        rts = np.roots(coeffs[::-1])
        bad = np.abs(rts.imag) > imag_clamp * (1.0 + np.abs(rts))
        if bad.any():
            raise ComplexRoots(
                f"root imaginary part {np.abs(rts.imag).max():.3e} exceeds clamp"
            )
        return np.sort(rts.real)

    # -- exact gradients and brackets ------------------------------------------

    def _jet(self, state: PhaseState) -> _StateJet:
        """Values and exact gradients of every a_j, and of H, at one state.

        One evaluation of g, dg, L, dL and one Faddeev-LeVerrier pass with
        derivatives; every bracket at this state is read off the result.
        """
        x, p = state.x, state.p
        n = self.g.dim
        sign = 1.0 if (n - 1) % 2 == 0 else -1.0
        gmat, dg = self.g.jet(x, 1)
        ginv = np.linalg.inv(gmat)
        mats, dmats = _fl_adjugate(*self.L.jet(x, 1))
        # C_j = sign * M_{n-j}: cs[j, i, l] and dcs[j, i, l, k] = d C_j[i, l] / d x_k
        cs = sign * np.array(mats[::-1])
        dcs = sign * np.array(dmats[::-1])
        v = ginv @ p
        # a_j = p^T C_j g^{-1} p; u_j = g^{-1} C_j^T p
        u = np.einsum("jil,i->jl", cs, p) @ ginv
        a = u @ p
        ax = (np.einsum("i,jilk,l->jk", p, dcs, v)
              - np.einsum("jl,lmk,m->jk", u, dg, v))
        ap = cs @ v + u
        hx = -0.5 * np.einsum("i,ijk,j->k", v, dg, v)
        return _StateJet(a, ax, ap, hx, v,
                         brackets=ax @ ap.T - ap @ ax.T,
                         energy_brackets=ax @ v - ap @ hx)

    def gradients(self, state: PhaseState, t: float):
        """(dI/dx, dI/dp) at the phase point, both length n."""
        jet = self._jet(state)
        w = _powers(t, self.g.dim)
        return w @ jet.ax, w @ jet.ap

    def energy_gradients(self, state: PhaseState):
        """Gradients of H = 1/2 p^T g^{-1} p."""
        jet = self._jet(state)
        return jet.hx, jet.hp

    def poisson(self, state: PhaseState, t1: float, t2: float) -> float:
        """{I_t1, I_t2} at the phase point; zero up to rounding."""
        n = self.g.dim
        return float(_powers(t1, n) @ self._jet(state).brackets @ _powers(t2, n))

    def poisson_with_energy(self, state: PhaseState, t: float) -> float:
        return float(_powers(t, self.g.dim) @ self._jet(state).energy_brackets)

    def commutation_report(self, phase_points, t_values, tol=1e-8) -> dict:
        """Pairwise brackets over the t-grid, scaled by 1 + |I_a| + |I_b|.

        Per state, the pairs (t_i, t_j) with i < j come first, then each
        {I_t, H}; the first strict maximum over that order is reported.
        """
        worst = 0.0
        worst_detail = None
        m = len(t_values)
        ii, jj = np.triu_indices(m, 1)
        labels = ([[t_values[i], t_values[j]] for i, j in zip(ii, jj)]
                  + [[t, "energy"] for t in t_values])
        w = np.array([_powers(t, self.g.dim) for t in t_values]).reshape(m, self.g.dim)
        for state in phase_points:
            jet = self._jet(state)
            mag = np.abs(w @ jet.a)
            br = np.concatenate([(w @ jet.brackets @ w.T)[ii, jj],
                                 w @ jet.energy_brackets])
            scale = np.concatenate([1.0 + mag[ii] + mag[jj], 1.0 + mag])
            rel = np.abs(br) / scale
            for k in range(len(labels)):
                if rel[k] > worst:
                    worst = float(rel[k])
                    worst_detail = {
                        "t_pair": list(labels[k]),
                        "x": [float(v) for v in state.x],
                        "bracket": float(br[k]),
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


class SpectrumProfile:
    """Pointwise eigenvalue data of L with respect to g."""

    def __init__(self, g, L, tau_deg_factor=1e-7):
        self.g = g
        self.L = L
        self.tau_deg_factor = tau_deg_factor

    def eigenvalues(self, x):
        return spectrum_at(self.g, self.L, x)

    def gap_floor(self, x, lam=None):
        if lam is None:
            lam = self.eigenvalues(x)
        return self.tau_deg_factor * (1.0 + float(np.abs(lam).max()))

    def clusters(self, x):
        """Distinct eigenvalues with multiplicities, gap set by tau_deg."""
        lam = self.eigenvalues(x)
        tau = self.gap_floor(x, lam)
        out = []
        for v in lam:
            if out and v - out[-1][0] < tau:
                val, cnt = out[-1]
                out[-1] = ((val * cnt + v) / (cnt + 1), cnt + 1)
            else:
                out.append((float(v), 1))
        return out


def ordering_audit(g, L, points, tau_ord=1e-8) -> dict:
    """Global eigenvalue-band separation over a point sample.

    Band i passes when max_x lambda_i(x) <= min_y lambda_{i+1}(y) + tau_ord
    with x, y ranging over the whole sample independently. This is the
    strong form needed for the roots of different phase points to be
    comparable; pointwise ordering is weaker and not what is audited.
    """
    lams = np.array([pencil_spectrum(g.matrix(x), L.matrix(x)) for x in points])
    n = lams.shape[1]
    bands = []
    worst = -np.inf
    for i in range(n - 1):
        hi = float(lams[:, i].max())
        lo = float(lams[:, i + 1].min())
        viol = hi - lo
        bands.append({
            "band": i,
            "upper_max": hi,
            "next_min": lo,
            "violation": viol,
            "argmax": [float(v) for v in points[int(np.argmax(lams[:, i]))]],
            "argmin": [float(v) for v in points[int(np.argmin(lams[:, i + 1]))]],
        })
        worst = max(worst, viol)
    return {
        "bands": bands,
        "max_violation": worst,
        "tau_ord": tau_ord,
        "pass": bool(worst <= tau_ord),
        "points": int(len(points)),
    }


def interlacing_audit(family: IntegralFamily, phase_points, slack=1e-9) -> dict:
    """Roots of I_t vs eigenvalues of L at each phase point.

    Checks lambda_i - slack <= t_i <= lambda_{i+1} + slack for every
    root index i at each point.
    """
    worst = -np.inf
    worst_detail = None
    for state in phase_points:
        rts = family.roots(state)
        lam = spectrum_at(family.g, family.L, state.x)
        for i, t in enumerate(rts):
            viol = max(lam[i] - t, t - lam[i + 1])
            if viol > worst:
                worst = viol
                worst_detail = {
                    "x": [float(v) for v in state.x],
                    "root_index": i,
                    "root": float(t),
                    "bracket": [float(lam[i]), float(lam[i + 1])],
                }
    return {
        "max_violation": worst,
        "slack": slack,
        "pass": bool(worst <= slack),
        "states": len(phase_points),
        "worst": worst_detail,
    }
