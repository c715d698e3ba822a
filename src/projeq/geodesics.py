"""Hamiltonian geodesic flow with a hand-rolled Dormand-Prince 5(4) pair.

The integrator is written out rather than delegated so that step
acceptance, dense output, and chart-exit truncation have pinned,
reproducible semantics: same inputs, same floats, no hidden threading.

State layout is y = (x_1..x_n, p_1..p_n). The flow is

    dx/dt = g^{-1} p
    dp_k/dt = 1/2 (g^{-1}p)^T (d_k g) (g^{-1}p)

which conserves H = 1/2 p^T g^{-1} p along trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideChart, SingularMetric, StepUnderflow
from .fields import MetricField, PhaseState

# Dormand-Prince 5(4) tableau. Row 7 doubles as the 5th-order weights (FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
    -92097 / 339200, 187 / 2100, 1 / 40,
])
_ERR = _B5 - _B4

# Fourth-order continuous extension for this tableau (Shampine's
# interpolant): y(t + u h) = y + h * sum_m u^{m+1} (P^T k)_m. Keeps the
# interpolation error at the O(h^5) of the step itself; a cubic Hermite
# here would cap sampled conservation checks near 1e-7.
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_UNDERFLOW_FACTOR = 1e-12  # h_min = this times the horizon


def geodesic_rhs(g: MetricField):
    """Right-hand side f(t, y) of the geodesic flow for metric g."""
    n = g.chart.dim

    def rhs(t, y):
        x = y[:n]
        p = y[n:]
        gmat, dg = g.jet(x, 1)
        try:
            v = np.linalg.solve(gmat, p)
        except np.linalg.LinAlgError:
            raise SingularMetric("metric singular", point=x) from None
        dp = 0.5 * np.einsum("i,ijk,j->k", v, dg, v)
        return np.concatenate([v, dp])

    return rhs


def hamiltonian(g: MetricField, x, p) -> float:
    """Kinetic energy 1/2 p^T g^{-1} p."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    try:
        return 0.5 * float(p @ np.linalg.solve(g.matrix(x), p))
    except np.linalg.LinAlgError:
        raise SingularMetric("metric singular", point=x) from None


@dataclass
class Trajectory:
    """Accepted nodes of one integration plus quartic dense output.

    ``status`` is "completed" when the full horizon was covered and
    "exited-chart" when the run was truncated at the chart boundary.
    ``qs[k]`` holds the interpolation coefficients for the step starting
    at node k and ``hs[k]`` its full step length; on a truncated final
    step hs[-1] exceeds ts[-1] - ts[-2] and the polynomial is simply
    evaluated on the sub-interval.
    """

    ts: np.ndarray
    ys: np.ndarray
    qs: np.ndarray
    hs: np.ndarray
    status: str
    dim: int
    steps_accepted: int = 0
    steps_rejected: int = 0

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def state(self, index: int) -> PhaseState:
        y = self.ys[index]
        return PhaseState(y[: self.dim], y[self.dim:])

    def sample(self, t) -> np.ndarray:
        """Dense-output state at time t, or states (N, size) at an array of
        N times, within the covered span."""
        t = np.asarray(t, dtype=float)
        ts = self.ts
        if not np.all((ts[0] <= t) & (t <= ts[-1])):
            raise ValueError(f"t={t} outside covered span [{ts[0]}, {ts[-1]}]")
        k = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        u = (t - ts[k]) / self.hs[k]
        return _dense_eval(self.ys[k], self.qs[k], u[..., None])


def _dense_coeffs(h, k):
    """Polynomial coefficients h * P^T k, shape (4, size)."""
    return h * (_P.T @ k)


def _dense_eval(y0, q, u):
    """Horner pass over the coefficients q[..., m, :], one row per u."""
    acc = q[..., 3, :]
    for m in (2, 1, 0):
        acc = acc * u + q[..., m, :]
    return y0 + u * acc


def integrate(rhs, y0, t_span, tol, inside=None, max_steps=1_000_000) -> Trajectory:
    """Adaptive 5(4) integration of dy/dt = rhs(t, y).

    ``inside(y)`` marks the admissible region; the first accepted step
    whose endpoint leaves it truncates the run at the crossing located
    by bisection on the dense output. Raises StepUnderflow when the
    controller pushes the step below 1e-12 times the horizon.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("integration horizon must have t1 > t0")
    y = np.asarray(y0, dtype=float).copy()
    if inside is not None and not inside(y):
        raise OutsideChart("initial state outside the admissible region")

    horizon = t1 - t0
    h_min = _UNDERFLOW_FACTOR * horizon
    h = min(1e-3 * horizon, horizon)

    t = t0
    f = rhs(t, y)
    ts = [t]
    ys = [y.copy()]
    qs = []
    hs = []
    accepted = 0
    rejected = 0
    status = "completed"
    k = np.empty((7, y.size))

    for _ in range(max_steps):
        if t >= t1:
            break
        h = min(h, t1 - t)
        if h < h_min:
            raise StepUnderflow(
                f"step size {h:.3e} fell below {h_min:.3e} at t={t:.6g}"
            )

        k[0] = f
        for i in range(1, 6):
            k[i] = rhs(t + _C[i] * h, y + h * (_A[i, :i] @ k[:i]))
        y_new = y + h * (_B5[:6] @ k[:6])
        f_new = rhs(t + h, y_new)
        k[6] = f_new

        err_vec = h * (_ERR @ k)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if err <= 1.0:
            t_new = t + h
            q = _dense_coeffs(h, k)
            if inside is not None and not inside(y_new):
                u_cross, y_cross = _bisect_exit(inside, y, q)
                ts.append(t + u_cross * h)
                ys.append(y_cross)
                qs.append(q)
                hs.append(h)
                status = "exited-chart"
                accepted += 1
                break
            t, y, f = t_new, y_new, f_new
            ts.append(t)
            ys.append(y.copy())
            qs.append(q)
            hs.append(h)
            accepted += 1
            factor = _SAFETY * err ** -0.2 if err > 0.0 else _FAC_MAX
            h *= min(_FAC_MAX, max(_FAC_MIN, factor))
        else:
            rejected += 1
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
    else:
        raise StepUnderflow(f"step budget exhausted after {max_steps} steps")

    return Trajectory(
        ts=np.array(ts),
        ys=np.array(ys),
        qs=np.array(qs) if qs else np.empty((0, 4, y.size)),
        hs=np.array(hs),
        status=status,
        dim=y.size // 2,
        steps_accepted=accepted,
        steps_rejected=rejected,
    )


def _bisect_exit(inside, y0, q, iters=80):
    """Last inside point of the dense-output step, as (u, y(u))."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if inside(_dense_eval(y0, q, mid)):
            lo = mid
        else:
            hi = mid
    return lo, _dense_eval(y0, q, lo)


def integrate_geodesic(g: MetricField, state: PhaseState, horizon: float,
                       tol: float = 1e-10, max_steps=1_000_000) -> Trajectory:
    """Geodesic of g from (x, p), truncated at the chart boundary."""
    n = g.chart.dim

    def inside(y):
        return g.chart.contains(y[:n])

    y0 = np.concatenate([state.x, state.p])
    rhs = geodesic_rhs(g)
    return integrate(rhs, y0, (0.0, horizon), tol, inside=inside,
                     max_steps=max_steps)


def monitor_along(traj: Trajectory, fn, samples: int = 201) -> dict:
    """Span statistics of fn(x, p) on a uniform time grid of the run.

    The reported ``drift`` is (max - min) / max(1, max |value|), a
    relative span that stays meaningful for near-zero quantities.
    """
    ys = traj.sample(np.linspace(traj.ts[0], traj.t_end, samples))
    vals = np.array([fn(y[: traj.dim], y[traj.dim:]) for y in ys])
    vmax = float(vals.max())
    vmin = float(vals.min())
    scale = max(1.0, float(np.abs(vals).max()))
    return {
        "max": vmax,
        "min": vmin,
        "first": float(vals[0]),
        "last": float(vals[-1]),
        "drift": (vmax - vmin) / scale,
        "samples": samples,
    }
