"""Correctness checks made apart from projeq.

Each check returns a list of failure messages, empty when it passes, so
`selftest.py` can feed it perturbed values and show that it fails. The
references are computed here from the closed forms of the benchmark's
structures: block functions evaluated with `math`, the integral family
by `det(L - tI) (L - tI)^-1` with numpy, curvature with sympy, and the
torus geodesic with scipy's DOP853 on a right-hand side derived here.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# The criterion-03 structure: three 1-D blocks, identity block metrics.
LC3_PHIS = ("1 + 0.3*tanh(x1)", "3", "6 + x3^2")
LC3_BOUNDS = ((-1.0, 1.0), (-1.0, 1.0), (0.5, 1.5))


def lc3_phis(x):
    return [1.0 + 0.3 * math.tanh(x[0]), 3.0, 6.0 + x[2] ** 2]


def close(label, got, want, rtol, atol=0.0):
    """Entrywise |got - want| <= atol + rtol * (1 + |want|)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want) - (atol + rtol * (1.0 + np.abs(want)))
    if not np.all(np.isfinite(got)) or np.any(err > 0.0):
        worst = float(np.max(np.abs(got - want)))
        return [f"{label}: off by {worst:.3e}"]
    return []


def at_most(label, value, bound):
    if not (math.isfinite(value) and value <= bound):
        return [f"{label}: {value!r} > {bound!r}"]
    return []


# -- pair-audit ---------------------------------------------------------------


def spectrum_reference(blocks, x):
    """Eigenvalues from block functions: [(size, fn(x) -> float)], sorted."""
    vals = []
    for size, fn in blocks:
        vals.extend([fn(x)] * size)
    return sorted(vals)


def family_value_reference(gmat, lmat, p, t):
    """I_t = p . adj(L - tI) g^-1 p with adj(A) = det(A) A^-1."""
    a = lmat - t * np.eye(len(p))
    adj = np.linalg.det(a) * np.linalg.inv(a)
    return float(p @ adj @ np.linalg.solve(gmat, p))


def verdict_failures(label, report):
    """The audit verdicts a pair-audit pass must reach at default tolerances."""
    return [] if report.get("pass") else [f"{label}: verdict failed ({report.get('value')!r})"]


class SympyCurvature:
    """Riemann tensors of the criterion-03 g and its partner, from sympy.

    g = diag(P_i), gbar = diag(P_i / (phi_i * prod_j phi_j)) with
    P_i = prod_{j != i} |phi_j - phi_i|: the block normal form written out
    by hand. Index convention R^i_{jkl} = d_k G^i_{lj} - d_l G^i_{kj}
    + G^i_{km} G^m_{lj} - G^i_{lm} G^m_{kj}, as in projeq.curvature.
    """

    def __init__(self):
        import sympy as sp

        xs = sp.symbols("x1 x2 x3")
        phis = [1 + sp.Rational(3, 10) * sp.tanh(xs[0]), sp.Integer(3), 6 + xs[2] ** 2]
        ps = []
        for i in range(3):
            acc = sp.Integer(1)
            for j in range(3):
                if j != i:
                    acc *= (phis[i] - phis[j]) if j < i else (phis[j] - phis[i])
            ps.append(acc)
        prod = phis[0] * phis[1] * phis[2]
        self._fns = {
            "g": self._riemann_fn(sp, xs, [ps[i] for i in range(3)]),
            "gbar": self._riemann_fn(sp, xs, [ps[i] / (prod * phis[i]) for i in range(3)]),
        }

    @staticmethod
    def _riemann_fn(sp, xs, diag):
        n = len(xs)
        g = sp.diag(*diag)
        ginv = sp.diag(*[1 / d for d in diag])
        gam = [[[sum(ginv[i, m] * (sp.diff(g[m, k], xs[j]) + sp.diff(g[m, j], xs[k])
                                   - sp.diff(g[j, k], xs[m])) for m in range(n)) / 2
                 for k in range(n)] for j in range(n)] for i in range(n)]
        entries = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for el in range(n):
                        r = sp.diff(gam[i][el][j], xs[k]) - sp.diff(gam[i][k][j], xs[el])
                        r += sum(gam[i][k][m] * gam[m][el][j] - gam[i][el][m] * gam[m][k][j]
                                 for m in range(n))
                        entries.append(r)
        fn = sp.lambdify(xs, entries, modules="math")
        return lambda x: np.array(fn(*x), dtype=float).reshape(n, n, n, n)

    def riemann(self, which, x):
        return self._fns[which](x)


# -- geodesic-flow --------------------------------------------------------------


def torus_rhs():
    """Geodesic flow of the torus bundle metric, derived here with sympy.

    g = diag(w sqrt(fx), w / sqrt(fy)), w = fx - 1/fy,
    fx = 3 + cos(2 pi x), fy = 3 + cos(2 pi y); H = 1/2 p.g^-1 p and
    the flow is dx/dt = dH/dp, dp/dt = -dH/dx.
    """
    import sympy as sp

    x, y, px, py = sp.symbols("x y px py")
    fx = 3 + sp.cos(2 * sp.pi * x)
    fy = 3 + sp.cos(2 * sp.pi * y)
    w = fx - 1 / fy
    h = (px ** 2 / (w * sp.sqrt(fx)) + py ** 2 * sp.sqrt(fy) / w) / 2
    field = [sp.diff(h, px), sp.diff(h, py), -sp.diff(h, x), -sp.diff(h, y)]
    fn = sp.lambdify((x, y, px, py), field, modules="math")
    return lambda t, s: fn(*s)


def torus_reference_end(rhs, y0, t_end):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def drift_failures(label, drifts, energy_bound, family_bound):
    """drifts: {quantity: worst relative drift}; "H" is the energy."""
    out = []
    for name, d in sorted(drifts.items()):
        bound = energy_bound if name == "H" else family_bound
        out += at_most(f"{label} drift[{name}]", d, bound)
    return out


# -- cli-battery ----------------------------------------------------------------


def report_failures(label, exit_code, report_text):
    """A well-formed manifest must exit 0 with "pass": true."""
    if exit_code != 0:
        return [f"{label}: exit {exit_code}"]
    try:
        rep = json.loads(report_text)
    except (TypeError, ValueError):
        return [f"{label}: report.json missing or unreadable"]
    return [] if rep.get("pass") is True else [f"{label}: report does not pass"]


def probe_meets_contract(exit_code, report_text):
    """A malformed manifest must exit 2 and leave a report carrying the error."""
    if exit_code != 2 or report_text is None:
        return False
    try:
        rep = json.loads(report_text)
    except ValueError:
        return False
    return bool(rep.get("error")) and rep.get("pass") is False


def h_column_failures(label, csv_text, bound):
    """Relative span of the H column, (max - min) / max(1, max|H|)."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if not rows:
        return [f"{label}: empty trajectory"]
    h = np.array([float(r["H"]) for r in rows])
    drift = float((h.max() - h.min()) / max(1.0, float(np.abs(h).max())))
    return at_most(f"{label} H drift", drift, bound)


def identical_failures(label, first, second):
    """Two runs of one manifest and seed must write the same bytes."""
    if set(first) != set(second):
        return [f"{label}: file sets differ {sorted(set(first) ^ set(second))}"]
    return [f"{label}: {name} differs" for name in sorted(first) if first[name] != second[name]]
