"""Differentiable fields on a chart.

A ScalarField is a map point -> real together with *exact* first and second
partial derivatives. Sums, products, quotients, powers and elementary
functions of fields build a DAG of field nodes over parsed expressions,
constants and coordinates; jets.py compiles that DAG once per derivative
order into straight-line code, so a metric assembled from closed-form
pieces differentiates to machine precision. A black-box callable, scalar
(NumericField) or matrix-valued (_EntryTable.from_function), is
differentiated by finite_differences, the one central-difference stencil;
NumericField's provenance says so.

Matrix-valued fields (MetricField, EndomorphismField) are thin containers
of scalar entries plus the assembly routines everything downstream uses:
g(x), its entry gradients dg(x), entry Hessians d2g(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import Chart
from .errors import (
    DerivativeNotAvailable,
    DomainViolation,
    NotPositiveDefinite,
    NotSelfAdjoint,
    SingularMetric,
)
from .expressions import FUNCTIONS, Expression, parse_expression
from .jets import Jets, require_one_sign

_EPS = np.finfo(float).eps
_FD_STEP1 = _EPS ** (1.0 / 3.0)   # central first differences
_FD_STEP2 = _EPS ** 0.25          # central second differences


def finite_differences(fn, x, order):
    """Central differences of a black box fn at x, up to order 2.

    fn(x) may have any shape S. Returns order + 1 flat lists shaped like
    a Jets result: the values (S), the gradients (S + (n,)) and the
    Hessians (S + (n, n)), derivative indices last. First derivatives step
    cbrt(machine eps) * max(1, |x_i|), second derivatives the quarter
    power; an ArithmeticError or ValueError from fn is a DomainViolation
    at x.
    """
    x = np.asarray(x, dtype=float)

    def at(*shifts):
        """fn at x moved by h along each coordinate i of shifts (i, h)."""
        y = x.copy()
        for i, h in shifts:
            y[i] += h
        return np.asarray(fn(y), dtype=float)

    try:
        f0 = at()
        parts = [f0]
        if order:
            steps = [_FD_STEP1 * max(1.0, abs(v)) for v in x]
            parts.append(np.stack([(at((i, h)) - at((i, -h))) / (2.0 * h)
                                   for i, h in enumerate(steps)], axis=-1))
        if order > 1:
            steps = [_FD_STEP2 * max(1.0, abs(v)) for v in x]
            d2 = np.empty(f0.shape + (len(x),) * 2)
            parts.append(d2)
            for i, hi in enumerate(steps):
                d2[..., i, i] = (at((i, hi)) - 2.0 * f0 + at((i, -hi))) / (hi * hi)
                for j, hj in enumerate(steps[i + 1:], i + 1):
                    d2[..., i, j] = d2[..., j, i] = (
                        at((i, hi), (j, hj)) - at((i, hi), (j, -hj))
                        - at((i, -hi), (j, hj)) + at((i, -hi), (j, -hj))
                    ) / (4.0 * hi * hj)
    except (ArithmeticError, ValueError) as err:
        raise DomainViolation(f"{err} in a finite-difference field", point=x) from None
    return [p.ravel().tolist() for p in parts]


class ScalarField:
    """Base class of the field nodes; ``node`` names the kind for jets.py.

    eval, d1 and d2 read the field's jet: its generated code, built on
    first use, or a NumericField's finite differences.
    """

    provenance = "closed-form"
    node = None
    args = ()
    _jets = None

    def __init__(self, chart):
        self.chart = chart

    def _jet(self, x, order):
        if self._jets is None:
            self._jets = Jets(self.chart.names, (self,))
        return self._jets(x, order)

    def eval(self, x):
        return self._jet(x, 0)[0][0]

    def d1(self, x):
        return np.array(self._jet(x, 1)[1])

    def d2(self, x):
        return np.array(self._jet(x, 2)[2]).reshape((self.chart.dim,) * 2)

    def __call__(self, x):
        return self.eval(x)

    # -- algebra -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.chart is not self.chart and other.chart != self.chart:
                raise ValueError("field algebra requires a shared chart")
            return other
        return ConstantField(self.chart, float(other))

    def __add__(self, other):
        other = self._coerce(other)
        if isinstance(self, ConstantField) and isinstance(other, ConstantField):
            return ConstantField(self.chart, self.value + other.value)
        if isinstance(other, ConstantField) and other.value == 0.0:
            return self
        if isinstance(self, ConstantField) and self.value == 0.0:
            return other
        return _OpField("sum", self, other, sign=1.0)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if isinstance(self, ConstantField) and isinstance(other, ConstantField):
            return ConstantField(self.chart, self.value - other.value)
        if isinstance(other, ConstantField) and other.value == 0.0:
            return self
        return _OpField("sum", self, other, sign=-1.0)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if isinstance(self, ConstantField) and isinstance(other, ConstantField):
            return ConstantField(self.chart, self.value * other.value)
        for a, b in ((self, other), (other, self)):
            if isinstance(a, ConstantField):
                if a.value == 0.0:
                    return ConstantField(self.chart, 0.0)
                if a.value == 1.0:
                    return b
        return _OpField("product", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if isinstance(other, ConstantField):
            return self * (1.0 / other.value)
        return self * _OpField("unary", other, fn_name="recip")

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return self * -1.0

    def __pow__(self, exponent):
        e = float(exponent)
        if e == 0.0:
            return ConstantField(self.chart, 1.0)
        if e == 1.0:
            return self
        if isinstance(self, ConstantField):
            return ConstantField(self.chart, self.value ** e)
        return _OpField("power", self, exponent=e)

    def apply(self, fn_name):
        """Compose with a named elementary function (exact chain rule)."""
        if fn_name not in FUNCTIONS:
            raise KeyError(f"no unary rule for {fn_name!r}")
        if fn_name == "abs":
            require_one_sign(*self.sample_range(count=256, seed=17))
        return _OpField("unary", self, fn_name=fn_name)

    def sqrt(self):
        return self.apply("sqrt")

    # -- diagnostics -----------------------------------------------------
    def sample_range(self, count=200, seed=0):
        pts = self.chart.sample(count, seed=seed)
        vals = np.array([self.eval(x) for x in pts])
        return float(vals.min()), float(vals.max())


class ConstantField(ScalarField):
    node = "constant"

    def __init__(self, chart, value):
        super().__init__(chart)
        self.value = float(value)

    def __repr__(self):
        return f"ConstantField({self.value})"


class CoordinateField(ScalarField):
    node = "coordinate"

    def __init__(self, chart, index):
        super().__init__(chart)
        self.index = int(index)


class ExpressionField(ScalarField):
    """Field backed by a parsed expression.

    Parameters
    ----------
    chart : Chart
    expr : str or Expression
        Uses the chart's coordinate names. An ``abs`` whose argument
        crosses zero on the chart poisons differentiation and is rejected
        the first time a derivative is requested (detected by sampling).
    """

    provenance = "expression-AST"
    node = "expression"

    def __init__(self, chart, expr):
        super().__init__(chart)
        if isinstance(expr, str):
            expr = parse_expression(expr, names=chart.names)
        if not isinstance(expr, Expression):
            raise TypeError("expr must be text or a parsed Expression")
        unknown = expr.free_vars() - set(chart.names)
        if unknown:
            raise DerivativeNotAvailable(
                f"expression uses non-chart variables {sorted(unknown)}"
            )
        self.expr = expr

    def __repr__(self):
        return f"ExpressionField({self.expr.to_text()!r})"


class NumericField(ScalarField):
    """Field wrapping a black-box callable; derivatives by central differences.

    Its jet is finite_differences of the callable: good to roughly 1e-10 on
    smooth inputs, which is why closed-form provenance is preferred wherever
    the construction allows it. Inside field algebra it is an opaque leaf
    whose jet the generated code calls once per evaluation.
    """

    provenance = "finite-difference"
    node = "leaf"

    def __init__(self, chart, fn):
        super().__init__(chart)
        self._fn = fn

    def _jet(self, x, order):
        return finite_differences(self._fn, x, order)


class _OpField(ScalarField):
    """Operator node of the field DAG: sum (a + sign * b), product, power
    (constant exponent) or unary (fn_name, "recip" for 1/a)."""

    def __init__(self, node, *args, **params):
        super().__init__(args[0].chart)
        self.node, self.args = node, args
        self.__dict__.update(params)


class ReindexedField(ScalarField):
    """A field of a sub-chart lifted to a bigger chart.

    index_map[k] is the big-chart coordinate index feeding the k-th
    coordinate of the inner field's chart. Used to embed block metrics
    into product charts.
    """

    node = "reindexed"

    def __init__(self, chart, inner, index_map):
        super().__init__(chart)
        self.inner = inner
        self.index_map = tuple(int(i) for i in index_map)
        if len(self.index_map) != inner.chart.dim:
            raise ValueError("index_map length must match the inner chart dim")


def const(chart, value):
    return ConstantField(chart, value)


def coord(chart, name_or_index):
    if isinstance(name_or_index, str):
        return CoordinateField(chart, chart.index_of(name_or_index))
    return CoordinateField(chart, name_or_index)


def as_field(chart, obj):
    """Coerce a number, string, Expression or field onto `chart`."""
    if isinstance(obj, ScalarField):
        if obj.chart != chart:
            raise ValueError("field lives on a different chart")
        return obj
    if isinstance(obj, (str, Expression)):
        return ExpressionField(chart, obj)
    return ConstantField(chart, float(obj))


# --- matrix-valued fields --------------------------------------------------


class _EntryTable:
    """An n x n table of scalar fields on a chart, evaluated by one
    generated function per derivative order (or, built from_function,
    by one finite-difference stencil)."""

    def __init__(self, chart, entries):
        self.chart = chart
        self.entries = entries
        self._jets = Jets(chart.names, [f for row in entries for f in row])

    @classmethod
    def from_function(cls, chart, fn, **kw):
        """The table of a black-box matrix function fn(x), symmetric for a
        metric, evaluated by finite_differences of fn: 2n + 1 calls of fn
        per dmatrix. Its entries are NumericField views of fn (one per
        symmetric pair of a metric) for field algebra."""
        n = chart.dim
        views = [[NumericField(chart, lambda x, k=(i, j): fn(x)[k]) for j in range(n)]
                 for i in range(n)]
        if issubclass(cls, MetricField):
            views = [[views[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        table = cls(chart, views, **kw)
        table._jets = lambda x, order: finite_differences(fn, x, order)
        return table

    @classmethod
    def from_rows(cls, chart, rows, **kw):
        """Rows of numbers, strings or fields. A metric's off-diagonal
        pairs are checked for numeric agreement on a small sample
        (asymmetric input raises), then shared."""
        n = chart.dim
        return cls(chart, [[as_field(chart, rows[i][j]) for j in range(n)] for i in range(n)],
                   **kw)

    @classmethod
    def constant(cls, chart, matrix, **kw):
        return cls.from_rows(chart, np.asarray(matrix, dtype=float).tolist(), **kw)

    @property
    def dim(self):
        return self.chart.dim

    def matrix(self, x):
        return self.jet(x, 0)[0]

    def dmatrix(self, x):
        """D[i, j, k] = d (entry i, j) / d x_k."""
        return self.jet(x, 1)[1]

    def jet(self, x, order=1):
        """(matrix, dmatrix) at x, and d2matrix at order 2, from one call."""
        n = self.dim
        return tuple(np.array(p).reshape((n,) * (k + 2)) for k, p in enumerate(self._jets(x, order)))

    def matrices(self, points):
        """The matrix at each point, stacked: shape (N, n, n)."""
        n = self.dim
        return np.array([self.matrix(x) for x in points]).reshape(len(points), n, n)


class MetricField(_EntryTable):
    """A symmetric matrix of scalar fields, policed for positive-definiteness.

    Parameters
    ----------
    chart : Chart
    entries : n x n nested sequence of ScalarField
        Must be symmetric as a table (entries[i][j] is entries[j][i] or an
        equal field); only the upper triangle is stored once.
    validate : bool
        When true (default), scan the chart with quasi-random points and
        raise NotPositiveDefinite if the smallest eigenvalue drops below
        eps_pd anywhere in the sample. Construction uses a light scan;
        pd_report() defaults to the full 10^4-point audit.
    """

    def __init__(self, chart, entries, validate=True, pd_samples=1500, eps_pd=1e-10):
        n = chart.dim
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                f = entries[i][j]
                if not isinstance(f, ScalarField):
                    raise TypeError("metric entries must be ScalarFields")
                table[i][j] = f
        for i in range(n):
            for j in range(i + 1, n):
                if table[i][j] is not table[j][i]:
                    # distinct objects allowed only if they agree numerically
                    pts = chart.sample(16, seed=3)
                    for x in pts:
                        if abs(table[i][j].eval(x) - table[j][i].eval(x)) > 1e-12:
                            raise ValueError(f"metric entries ({i},{j}) vs ({j},{i}) differ")
                    table[j][i] = table[i][j]
        super().__init__(chart, tuple(tuple(row) for row in table))
        self.eps_pd = eps_pd
        if validate:
            rep = self.pd_report(samples=pd_samples)
            if not rep["positive_definite"]:
                raise NotPositiveDefinite(
                    f"metric loses definiteness: min eigenvalue {rep['min_eigenvalue']:.3e}",
                    point=rep["worst_point"])

    # bound on each class too, so that each can be wrapped apart (perfbench/tracing.py)
    matrix, dmatrix = _EntryTable.matrix, _EntryTable.dmatrix

    def d2matrix(self, x):
        """D[i, j, k, l] = d^2 g_ij / (d x_k d x_l)."""
        return self.jet(x, 2)[2]

    def inverse(self, x, cond_cap=1e12):
        m = self.matrix(x)
        if np.linalg.cond(m) > cond_cap:
            raise SingularMetric(f"metric condition number above {cond_cap:.1e}", point=x)
        return np.linalg.inv(m)

    def det(self, x):
        return float(np.linalg.det(self.matrix(x)))

    def pd_report(self, samples=10_000, seed=0):
        pts = self.chart.sample(samples, seed=seed)
        mats = self.matrices(pts)
        require_finite(mats, pts, "metric")
        worst, worst_val = None, np.inf
        if len(pts):
            low = np.linalg.eigvalsh(mats)[:, 0]
            k = int(np.argmin(low))  # the first of tied minima
            worst, worst_val = pts[k], low[k]
        return {
            "positive_definite": bool(worst_val > self.eps_pd),
            "min_eigenvalue": float(worst_val),
            "worst_point": None if worst is None else [float(v) for v in worst],
            "samples": int(samples),
            "eps_pd": self.eps_pd,
        }

    # -- constructors ---------------------------------------------------
    @classmethod
    def euclidean(cls, chart, **kw):
        kw.setdefault("validate", False)
        return cls.constant(chart, np.eye(chart.dim), **kw)

    @classmethod
    def conformal(cls, chart, factor, **kw):
        """factor * (dx_1^2 + ... + dx_n^2)."""
        return cls.diagonal(chart, [as_field(chart, factor)] * chart.dim, **kw)

    @classmethod
    def diagonal(cls, chart, diag_fields, **kw):
        fields = [as_field(chart, f) for f in diag_fields]
        zero = ConstantField(chart, 0.0)
        n = chart.dim
        entries = [[fields[i] if i == j else zero for j in range(n)] for i in range(n)]
        return cls(chart, entries, **kw)


class EndomorphismField(_EntryTable):
    """A (1,1)-tensor field: matrix L^i_j of scalar entries, row = upper index."""

    def __init__(self, chart, entries):
        n = chart.dim
        entries = tuple(tuple(as_field(chart, e) for e in row) for row in entries)
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError("entries must be an n x n table")
        super().__init__(chart, entries)

    matrix, dmatrix = _EntryTable.matrix, _EntryTable.dmatrix

    def trace_d1(self, x):
        """Gradient of trace L."""
        return np.trace(self.dmatrix(x))

    def self_adjoint_defect(self, g, x):
        gl = g.matrix(x) @ self.matrix(x)
        return float(np.max(np.abs(gl - gl.T)))

    def require_self_adjoint(self, g, x, eps_sym_factor=1e-9):
        gl = g.matrix(x) @ self.matrix(x)
        tol = eps_sym_factor * max(1.0, float(np.linalg.norm(gl)))
        defect = float(np.max(np.abs(gl - gl.T)))
        if defect > tol:
            raise NotSelfAdjoint(
                f"g*L asymmetric by {defect:.3e} (tol {tol:.3e}) at {np.asarray(x)}"
            )

    @classmethod
    def identity(cls, chart):
        return cls.constant(chart, np.eye(chart.dim))


@dataclass
class VectorField:
    """Contravariant vector field: components v^i as scalar fields."""

    chart: Chart
    components: tuple

    def __post_init__(self):
        comps = tuple(as_field(self.chart, c) for c in self.components)
        if len(comps) != self.chart.dim:
            raise ValueError("need one component per coordinate")
        object.__setattr__(self, "components", comps)
        self._jets = Jets(self.chart.names, comps)

    def values(self, x):
        return np.array(self._jets(x, 0)[0])

    def jacobian(self, x):
        """J[i, k] = d v^i / d x_k."""
        return np.array(self._jets(x, 1)[1]).reshape((self.chart.dim,) * 2)


@dataclass(frozen=True)
class PhaseState:
    """A point and a momentum covector."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).copy())
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).copy())
        if self.x.shape != self.p.shape:
            raise ValueError("x and p must have equal shapes")


def require_finite(mats, points, what):
    """Raise DomainViolation naming the first point whose matrix in the
    stack ``mats`` has a non-finite entry; ``points`` may be None."""
    if not np.isfinite(mats).all():
        k = int(np.argmin(np.isfinite(mats).all(axis=(-2, -1))))
        raise DomainViolation(f"non-finite {what} entry",
                              point=None if points is None else points[k])


def g_orthonormal_frame(g_matrix):
    """Columns e_a with e_a^T g e_b = delta_ab, from a Cholesky factor."""
    try:
        low = np.linalg.cholesky(g_matrix)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("metric not positive-definite; no frame") from None
    return np.linalg.inv(low).T


# --- matrices of fields ----------------------------------------------------


def fmat_mul(a, b):
    """Product of two matrices of fields (lists of lists)."""
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for s in range(1, k):
                acc = acc + a[i][s] * b[s][j]
            row.append(acc)
        out.append(row)
    return out


def fmat_det(a):
    """Determinant of a small (n <= 4) matrix of fields, Laplace expansion."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = None
    for j in range(n):
        minor = [[a[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = a[0][j] * fmat_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def fmat_adjugate(a):
    """adj(A)[i][j] = cofactor_ji, so that A @ adj(A) = det(A) I."""
    n = len(a)
    if n == 1:
        chart = a[0][0].chart
        return [[ConstantField(chart, 1.0)]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = fmat_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            out[j][i] = cof
    return out


def fmat_scale(a, s):
    return [[entry * s for entry in row] for row in a]
