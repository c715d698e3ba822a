"""Hamiltonian geodesic flow with a hand-rolled Dormand-Prince 5(4) pair.

The integrator is written out rather than delegated so that step
acceptance, dense output, and chart-exit truncation have pinned,
reproducible semantics: same inputs, same floats, no hidden threading.

State layout is y = (x_1..x_n, p_1..p_n). The flow is

    dx/dt = g^{-1} p
    dp_k/dt = 1/2 (g^{-1}p)^T (d_k g) (g^{-1}p)

which conserves H = 1/2 p^T g^{-1} p along trajectories. The rhs and H
solve g v = p with LAPACK, and a g that it cannot solve against is
SingularMetric at its point, one state or a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, OutsideChart, SingularMetric, StepUnderflow
from .fields import MetricField, PhaseState, pointwise_errors, require_finite, scan, solve_metric
from .tolerances import DEFAULT

# Dormand-Prince 5(4) tableau. Row 7 doubles as the 5th-order weights (FSAL).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
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

# built once, not per step: the 5th-order weights of the stages before the
# last, and P^T
_B5_ROW = _B5[:6]
_PT = _P.T

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_UNDERFLOW_FACTOR = 1e-12  # h_min = this times the horizon
_BISECT_ITERS = 80         # halvings that locate a chart exit
_MONITOR_GRID = 201        # times of monitor_along's grid, and of the CLI's run tables


def geodesic_rhs(g: MetricField):
    """Right-hand side f(t, y) of the geodesic flow for metric g, at one
    state y or along a (K, size) stack of states with t of shape (K,); a
    stack that raises fails as its loop over states would.

    It has two bodies, and both give the same bits. A stack goes through
    g.jet and fields.solve_metric. One state runs g's generated order-1
    jet, bound here once, on its floats, then one solve and the same
    contraction: it has nothing to replay. A jet that fails there is run
    again through g.jet, which raises the error naming the failing field,
    and a matrix that LAPACK refuses is SingularMetric at x. A non-finite
    metric gives a non-finite value, not an error, in either body."""
    n = g.chart.dim
    jet = g.compiled_jet(1)

    @pointwise_errors(1, 0)
    def stacked(t, y):
        gmat, dg = g.jet(y[..., :n], 1)
        v = solve_metric(gmat, y[..., n:, None], y[..., :n])[..., 0]
        return np.concatenate([v, 0.5 * np.einsum("...i,...ijl,...j->...l", v, dg, v)], axis=-1)

    def rhs(t, y):
        if y.ndim > 1:
            return stacked(t, y)
        x = y[:n]
        try:
            values, grads = jet(x)
        except (ArithmeticError, ValueError):
            g.jet(x, 1)  # raises the error naming the failing field
            raise
        gmat = np.fromiter(values, float, n * n).reshape(n, n)
        dg = np.fromiter(grads, float, n ** 3).reshape(n, n, n)
        try:
            v = np.linalg.solve(gmat, y[n:])
        except np.linalg.LinAlgError:
            raise SingularMetric("metric singular", point=x) from None
        return np.concatenate((v, 0.5 * np.einsum("i,ijl,j->l", v, dg, v)))

    return rhs


@pointwise_errors(1, 2)
def hamiltonian(g: MetricField, x, p):
    """Kinetic energy 1/2 p^T g^{-1} p: a float at one point, an (N,) array
    along (N, n) stacks of points x and covectors p; a non-finite value is a
    DomainViolation at its first point."""
    p = np.asarray(p, dtype=float)
    v = solve_metric(g.matrix(x), p[..., None], x)
    # a matmul of a row by a column sums as the vector dot does; einsum and sum do not
    h = require_finite(0.5 * (p[..., None, :] @ v)[..., 0, 0], x, "hamiltonian")
    return float(h) if p.ndim == 1 else h


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


def _dense_eval(y0, q, u):
    """Horner pass over the coefficients q[..., m, :], one row per u."""
    acc = q[..., 3, :]
    for m in (2, 1, 0):
        acc = acc * u + q[..., m, :]
    return y0 + u * acc


class Ensemble(list):
    """The K trajectories of a stacked run, in start order, with the step
    counts of the whole run summed over them."""

    @property
    def steps_accepted(self) -> int:
        return sum(traj.steps_accepted for traj in self)

    @property
    def steps_rejected(self) -> int:
        return sum(traj.steps_rejected for traj in self)


def integrate(rhs, y0, t_span, tol, inside=None, max_steps=1_000_000):
    """Adaptive 5(4) integration of dy/dt = rhs(t, y) from one state y0 of
    shape (size,), giving a Trajectory, or from each row of a (K, size)
    stack y0, giving an Ensemble of K.

    ``inside(y)`` marks the admissible region; the first accepted step
    whose endpoint leaves it truncates the run at the crossing located
    by bisection on the dense output. A span that is not finite with
    t1 > t0 is a ValueError. Raises StepUnderflow when the controller
    pushes the step below 1e-12 times the horizon, or to a step that does
    not advance t, and DomainViolation at the state y a step starts from
    when that step's error norm is NaN.

    A stack's trajectories are stepped together, each with its own t,
    step size, error norm, acceptance, step budget, dense output and
    chart exit, so each is the run its start alone gives. Each stage
    calls rhs once on the trajectories still running, with t of shape
    (A,) and y of shape (A, size); inside then takes one state (a flag)
    or such a stack (a flag per row). A stacked run that raises an error
    fields.scan replays fails as the loop over its starts would: the first
    failing start raises its error.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not -np.inf < t0 < t1 < np.inf:
        raise ValueError(f"integration span ({t0}, {t1}) must be finite with t1 > t0")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim == 1:
        return _lockstep(rhs, y0, (t0, t1), tol, inside, max_steps)[0]
    return scan(y0, lambda ys: Ensemble(_lockstep(rhs, ys, (t0, t1), tol, inside, max_steps)))


class _Run:
    """One trajectory's controller state and accepted nodes."""

    def __init__(self, t, h, y, size):
        self.t, self.h, self.size = t, h, size
        self.ts, self.ys, self.qs, self.hs = [t], [y], [], []
        self.rejected = 0
        self.status = "running"

    def trajectory(self) -> Trajectory:
        return Trajectory(
            ts=np.array(self.ts),
            ys=np.array(self.ys),
            qs=np.array(self.qs) if self.qs else np.empty((0, 4, self.size)),
            hs=np.array(self.hs),
            status=self.status,
            dim=self.size // 2,
            steps_accepted=len(self.hs),
            steps_rejected=self.rejected,
        )


def _lockstep(rhs, y, t_span, tol, inside, max_steps):
    """The runs from y, one state or the rows of a stack, stepped together
    (see integrate); every array below has y's leading axis, if any.
    Returns the list of Trajectories."""
    stack = y.ndim > 1
    flags = inside if inside is None or stack else lambda y: [inside(y)]  # one per state
    if flags is not None and not all(flags(y)):
        raise OutsideChart("initial state outside the admissible region")
    t0, t1 = t_span
    horizon = t1 - t0
    h_min = _UNDERFLOW_FACTOR * horizon
    size = y.shape[-1]
    y = y.copy()
    runs = [_Run(t0, min(1e-3 * horizon, horizon), row, size) for row in y.reshape(-1, size)]
    live = runs
    finished = True  # a run completed or left the region in the last pass
    f = rhs(np.full(len(y), t0) if stack else t0, y)

    for _ in range(max_steps):
        if finished:
            keep = [run.status == "running" for run in live]
            if not any(keep):
                break
            if not all(keep):
                live = [run for run in live if run.status == "running"]
                y, f = y[keep], f[keep]
            # the stages of the runs left; for each of stages 1-5 its c, its
            # row of A, its slot in k and a view of the stages before it
            k = np.empty(y.shape[:-1] + (7, size))
            stages = [(_C[i], _A[i, :i], k[..., i, :], k[..., :i, :]) for i in range(1, 6)]
            first, last, before_last = k[..., 0, :], k[..., 6, :], k[..., :6, :]
            finished = False
        for run in live:
            run.h = min(run.h, t1 - run.t)
            if run.h < h_min:
                raise StepUnderflow(
                    f"step size {run.h:.3e} fell below {h_min:.3e} at t={run.t:.6g}"
                )
            if run.t + run.h == run.t:  # h_min underflowed to 0.0, or h is below t's spacing
                raise StepUnderflow(f"step size {run.h:.3e} does not advance t={run.t:.6g}")
        if stack:
            t, h = np.array([[run.t, run.h] for run in live]).T
            hc = h[:, None]
        else:
            t = live[0].t
            h = hc = live[0].h

        first[...] = f
        for c, a, slot, before in stages:
            slot[...] = rhs(t + c * h, y + hc * (a @ before))
        y_new = y + hc * (_B5_ROW @ before_last)
        f_new = rhs(t + h, y_new)  # _C[6] is 1
        last[...] = f_new

        err_vec = hc * (_ERR @ k)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        # the ufunc calls np.mean makes, so the same bits
        norm = np.sqrt(np.add.reduce((err_vec / scale) ** 2, axis=-1) / size)
        errs = norm.tolist() if stack else [float(norm)]
        ok = [e <= 1.0 for e in errs]
        accepted = ok.count(True)

        if accepted:  # dense coefficients h P^T k and end flags of the accepted runs
            rows = ... if accepted == len(ok) else np.flatnonzero(ok)
            q = (hc[rows, None] if stack else hc) * (_PT @ k[rows])
            ends = flags(y_new[rows]) if flags is not None else [True] * accepted
            q_ends = zip(q if stack else (q,), ends)
        for run, err, y_row, y_end in zip(live, errs, y if stack else (y,),
                                           y_new if stack else (y_new,)):
            if err <= 1.0:
                q_row, inside_end = next(q_ends)
                run.qs.append(q_row)
                run.hs.append(run.h)
                if not inside_end:
                    u_cross, y_cross = _bisect_exit(inside, y_row, q_row)
                    run.ts.append(run.t + u_cross * run.h)
                    run.ys.append(y_cross)
                    run.status = "exited-chart"
                    finished = True
                    continue
                run.t += run.h
                run.ts.append(run.t)
                run.ys.append(y_end)
                if run.t >= t1:
                    run.status = "completed"
                    finished = True
                factor = _SAFETY * err ** -0.2 if err > 0.0 else _FAC_MAX
                run.h *= min(_FAC_MAX, max(_FAC_MIN, factor))
            else:
                if err != err:  # a NaN norm would shrink the step to StepUnderflow
                    raise DomainViolation(f"non-finite error norm in the step from t={run.t:.6g}",
                                          point=y_row)
                run.rejected += 1
                run.h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
        if accepted == len(ok):
            y, f = y_new, f_new
        elif accepted:
            y, f = (np.where(np.array(ok)[:, None], new, old)
                    for new, old in ((y_new, y), (f_new, f)))
    else:
        # as a loop of max_steps steps: a run that completes on the last one
        # has no step left to see that it did
        if any(run.status != "exited-chart" for run in live):
            raise StepUnderflow(f"step budget exhausted after {max_steps} steps")

    return [run.trajectory() for run in runs]


def _bisect_exit(inside, y0, q):
    """Last inside point of the dense-output step, as (u, y(u))."""
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if inside(_dense_eval(y0, q, mid)):
            lo = mid
        else:
            hi = mid
    return lo, _dense_eval(y0, q, lo)


def integrate_geodesic(g: MetricField, state: PhaseState, horizon: float,
                       tol: float = DEFAULT.integrator_tol):
    """Geodesic of g from (x, p), truncated at the chart boundary: a
    Trajectory, or from (K, n) stacks x and p an Ensemble of K geodesics
    stepped together (see `integrate`)."""
    n = g.chart.dim

    def inside(y):
        return g.chart.contains(y[..., :n])

    y0 = np.concatenate([state.x, state.p], axis=-1)
    if y0.ndim == 2 and len(y0) == 1:  # the one-state path gives the same run, faster
        return Ensemble([integrate_geodesic(g, PhaseState(state.x[0], state.p[0]), horizon, tol)])
    return integrate(geodesic_rhs(g), y0, (0.0, horizon), tol, inside=inside)


def monitor_along(traj: Trajectory, fn, samples: int = _MONITOR_GRID) -> dict:
    """Span statistics (`span_stats`) of fn on a uniform time grid of the
    run, from one call fn(xs, ps) on the (samples, n) stacks (see
    `monitored_values`)."""
    ys = traj.sample(np.linspace(traj.ts[0], traj.t_end, samples))
    return span_stats(monitored_values(fn, ys[:, : traj.dim], ys[:, traj.dim:]))


def monitored_values(fn, xs, ps):
    """fn(xs, ps) on (N, n) stacks of points and covectors, which must be an
    (N,) array of finite values: any other shape raises ValueError, and a
    non-finite value DomainViolation at its sample's x."""
    vals = np.asarray(fn(xs, ps), dtype=float)
    if vals.shape != xs.shape[:1]:
        raise ValueError(f"monitored function returned shape {vals.shape}, "
                         f"want {xs.shape[:1]}")
    return require_finite(vals, xs, "monitored value")


def span_stats(vals) -> dict:
    """Max, min, first, last and drift of values sampled along a run.

    The reported ``drift`` is (max - min) / max(1, max |value|), a
    relative span that stays meaningful for near-zero quantities.
    """
    vmax = float(vals.max())
    vmin = float(vals.min())
    scale = max(1.0, float(np.abs(vals).max()))
    return {
        "max": vmax,
        "min": vmin,
        "first": float(vals[0]),
        "last": float(vals[-1]),
        "drift": (vmax - vmin) / scale,
        "samples": len(vals),
    }
