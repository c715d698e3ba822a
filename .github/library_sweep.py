"""The library's answer to a bad value, swept over every public kernel.

Each public kernel runs on the random_spec(2, 4) pair at six bad points,
every coordinate NaN, +inf, -inf, 1e300, 5e-324 or 100 (outside the
chart), each alone and as the middle row of a 3-point stack whose other
rows are the chart's centre, with numpy's RuntimeWarnings as errors. A run
breaks when the kernel raises anything but a named error (a ProjeqError),
names no point or a point other than the bad one, or returns a non-finite
value; an audit's dict (bm_residual_stats, ordering_audit) breaks it too
when a point it reports is not one of the points it was given. Raw field
evaluation (matrix, dmatrix, jet, eval) is the hot path and is left
unchecked on purpose, so it is not swept. The deep trees run too: a
5,000-term expression's ==, hash and repr, and a 3,000-link field sum's
value, gradient and Hessian, each equal to the sum taken term by term.

The two-fault mode runs the kernels on a 2-D pair with three faults in y:
g = diag(1, y + y^1000 - y^1000) and gbar = diag(2, y + y^1000 - y^1000)
are numerically singular at y = 1e-13 and singular at y = 0, and at y = 3,
where y^1000 overflows, they and L = diag(2 + y^1000 - y^1000, 3) are NaN.
Each stack is a good row (y = 0.5) followed by two distinct fault rows, in
each of the 6 orders. A run breaks unless the stack raises exactly the
error (class, text and point) that a loop over its rows raises first.

Run it from the repository root:

    PYTHONPATH=src python .github/library_sweep.py

It prints every broken run and exits 1 if there is one, else 0.
"""

import itertools
import math
import sys
import warnings

import numpy as np

from projeq.chart import Chart, box_chart
from projeq.curvature import christoffel, ricci, riemann, sectional
from projeq.errors import ProjeqError
from projeq.expressions import parse_expression
from projeq.fields import EndomorphismField, MetricField, PhaseState, as_field
from projeq.flows import IntegralFamily, ordering_audit
from projeq.geodesics import hamiltonian
from projeq.levicivita import build_lc_pair, random_spec
from projeq.pairs import (
    bm_residual,
    bm_residual_stats,
    l_from_pair,
    nijenhuis_torsion,
    projective_weyl,
    spectra_at,
)

BAD_VALUES = [math.nan, math.inf, -math.inf, 1e300, 5e-324, 100.0]
T = 0.5  # the I_t kernels' parameter
POINT_KEYS = ("worst_point", "argmax", "argmin")  # the points an audit's dict reports
FAULT_YS = [1e-13, 0.0, 3.0]  # the two-fault pair's numerically singular, singular and NaN rows
TWO_FAULT_EXEMPT = {
    # a stack's finite check runs before its NotPositiveDefinite, which names the
    # worst point, the smallest eigenvalue, not the first failing one
    "spectra_at",
    "ordering_audit",  # through spectra_at
    # every plane of a stack is checked before any curvature
    "sectional",
}


def kernels(g, gbar, L, fam):
    """(name, kernel of one point or an (N, n) stack) of every public kernel
    on the pair (g, gbar), its endomorphism L and their IntegralFamily fam."""
    e1, e2 = np.eye(g.dim)[:2]

    def state(x):
        return PhaseState(x, np.ones_like(x))

    return [
        ("christoffel", lambda x: christoffel(g, x)),
        ("riemann", lambda x: riemann(g, x)),
        ("ricci", lambda x: ricci(g, x)),
        ("projective_weyl", lambda x: projective_weyl(g, x)),
        ("sectional", lambda x: sectional(g, x, e1, e2)),
        ("bm_residual", lambda x: bm_residual(g, L, x)),
        ("bm_residual_stats", lambda x: bm_residual_stats(g, L, x)),
        ("l_from_pair", lambda x: l_from_pair(g, gbar, x)),
        ("spectra_at", lambda x: spectra_at(g, L, x)),
        ("ordering_audit", lambda x: ordering_audit(g, L, x)),
        ("MetricField.inverse", g.inverse),
        ("MetricField.det", g.det),
        ("nijenhuis_torsion", lambda x: nijenhuis_torsion(L, x)),
        ("hamiltonian", lambda x: hamiltonian(g, x, np.ones_like(x))),
        ("IntegralFamily.value", lambda x: fam.value(state(x), T)),
        ("IntegralFamily.values", lambda x: fam.values(state(x), (T,))),
        ("IntegralFamily.t_coefficients", lambda x: fam.t_coefficients(state(x))),
        ("IntegralFamily.gradients", lambda x: fam.gradients(state(x), T)),
        ("IntegralFamily.roots", lambda x: fam.roots(state(x))),
    ]


def two_fault_pair():
    """(g, gbar, L) of the two-fault mode, on x, y in (-4, 4)."""
    chart = Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0)))
    g = MetricField.diagonal(chart, ["1", "y + y^1000 - y^1000"], validate=False)
    gbar = MetricField.diagonal(chart, ["2", "y + y^1000 - y^1000"], validate=False)
    return g, gbar, EndomorphismField(chart, [["2 + y^1000 - y^1000", 0.0], [0.0, 3.0]])


def finite(value):
    """Whether every number in value, an array or a tuple, list or dict of them, is finite."""
    if isinstance(value, dict):  # its points echo the input, checked in broken
        return finite([v for k, v in value.items() if k not in POINT_KEYS])
    if isinstance(value, (tuple, list)):
        return all(finite(v) for v in value)
    return bool(np.isfinite(np.asarray(value, dtype=float)).all())


def broken(kernel, x, bad):
    """Why kernel(x) is no finite value and no named error at the bad point, or None."""
    try:
        value = kernel(x)
    except ProjeqError as err:
        point = getattr(err, "point", None)
        if point is None:
            return f"{type(err).__name__} at no point: {err}"
        if not np.array_equal(point, bad, equal_nan=True):
            return f"{type(err).__name__} at {point}, not at the bad point: {err}"
        return None
    except Exception as err:  # noqa: BLE001 - any other exception breaks the run
        return f"raised {type(err).__name__}: {err}"
    if not finite(value):
        return "returned a non-finite value"
    points = np.reshape(x, (-1, len(bad)))
    for point in reported_points(value):
        if not any(np.array_equal(point, row, equal_nan=True) for row in points):
            return f"reported {point}, which is not one of its points"
    return None


def reported_points(value):
    """The points in an audit's dict (and in its bands), or none for another value."""
    if isinstance(value, list):
        return [p for v in value for p in reported_points(v)]
    if not isinstance(value, dict):
        return []
    return [value[k] for k in POINT_KEYS if k in value] + reported_points(value.get("bands"))


def deep_trees():
    """(name, why the deep-tree check breaks or None) of each deep-tree run."""
    names = ("x", "y", "z")
    text = " + ".join(f"{k % 9}*x*y" for k in range(5000))
    a, b = parse_expression(text, names=names), parse_expression(text, names=names)
    chart = box_chart(("x", "y"))
    terms = [as_field(chart, f"sin({k}*x + y) * y") for k in range(1, 8)]
    total = terms[0]
    for k in range(1, 3000):
        total = total + terms[k % 7]
    xs = np.array([[0.3, -0.7], [-1.1, 0.2]])

    def term_by_term(method):
        want = getattr(terms[0], method)(xs)
        for k in range(1, 3000):
            want = want + getattr(terms[k % 7], method)(xs)
        return np.array_equal(getattr(total, method)(xs), want)

    checks = [("5,000-term expression ==", lambda: a == b),
              ("5,000-term expression hash", lambda: hash(a) == hash(b)),
              ("5,000-term expression repr", lambda: repr(a).count("BinOp(") == 14999)]
    checks += [(f"3,000-link field sum {method}", lambda m=method: term_by_term(m))
               for method in ("eval", "d1", "d2")]
    for name, check in checks:
        try:
            yield name, None if check() else "gave a wrong result"
        except Exception as err:  # noqa: BLE001 - any exception breaks the run
            yield name, f"raised {type(err).__name__}: {err}"


def outcome(kernel, x):
    """(class name, text, point) of the error kernel(x) raises, or None."""
    try:
        kernel(x)
    except Exception as err:  # noqa: BLE001 - any exception is compared
        return type(err).__name__, str(err), getattr(err, "point", None)
    return None


def loop_broken(kernel, stack):
    """Why kernel(stack) fails otherwise than a loop over its rows first does, or None."""
    want = next(filter(None, (outcome(kernel, row) for row in stack)), None)
    got = outcome(kernel, stack)
    return None if got == want else f"stack gave {got}, the loop over its rows {want}"


def main_sweep():
    breaks = []

    def run(name, why):
        if why:
            breaks.append(f"{name}: {why}")
            print("BROKEN:", breaks[-1], flush=True)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g, gbar, L = build_lc_pair(random_spec(2, 4))
        table, good = kernels(g, gbar, L, IntegralFamily(g, L)), g.chart.center()
        runs = 0
        for (name, kernel), value in itertools.product(table, BAD_VALUES):
            bad = np.full(len(good), value)
            for label, x in (("one point", bad), ("3-point stack", np.array([good, bad, good]))):
                runs += 1
                run(f"{name} at {value!r}, {label}", broken(kernel, x, bad))
        for name, why in deep_trees():
            runs += 1
            run(name, why)
        print(f"{runs} runs, {len(breaks)} broken")
        g, gbar, L = two_fault_pair()
        table = kernels(g, gbar, L, IntegralFamily(g, L, check_points=0))
        runs, bad_point_breaks = 0, len(breaks)
        for (name, kernel), faults in itertools.product(table, itertools.permutations(FAULT_YS, 2)):
            if name not in TWO_FAULT_EXEMPT:
                runs += 1
                stack = np.array([[0.0, 0.5], *([0.0, y] for y in faults)])
                run(f"{name} on y = 0.5, {faults[0]!r}, {faults[1]!r}", loop_broken(kernel, stack))
        print(f"{runs} two-fault runs, {len(breaks) - bad_point_breaks} broken")
    return 1 if breaks else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
