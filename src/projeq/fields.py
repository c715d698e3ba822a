"""Differentiable fields on a chart.

A ScalarField is a map point -> real together with *exact* first and second
partial derivatives. Exactness is kept through an operator algebra: sums,
products, quotients, powers and elementary functions of fields propagate
gradients and Hessians by the chain/product rules, so a metric assembled
from closed-form pieces differentiates to machine precision. Fields defined
only by a black-box callable fall back to central finite differences and are
tagged as such in their provenance.

Matrix-valued fields (MetricField, EndomorphismField) are thin containers
of scalar entries plus the assembly routines everything downstream uses:
g(x), its entry gradients dg(x), entry Hessians d2g(x).
"""

from __future__ import annotations

import math
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
from .expressions import Call, Expression, parse_expression

_EPS = np.finfo(float).eps
_FD_STEP1 = _EPS ** (1.0 / 3.0)   # central first differences
_FD_STEP2 = _EPS ** 0.25          # central second differences

# value, first and second derivative evaluators for unary functions
_UNARY_RULES = {
    "sin": (math.sin, math.cos, lambda u: -math.sin(u)),
    "cos": (math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u)),
    "tan": (
        math.tan,
        lambda u: 1.0 + math.tan(u) ** 2,
        lambda u: 2.0 * math.tan(u) * (1.0 + math.tan(u) ** 2),
    ),
    "sinh": (math.sinh, math.cosh, math.sinh),
    "cosh": (math.cosh, math.sinh, math.cosh),
    "tanh": (
        math.tanh,
        lambda u: 1.0 - math.tanh(u) ** 2,
        lambda u: -2.0 * math.tanh(u) * (1.0 - math.tanh(u) ** 2),
    ),
    "exp": (math.exp, math.exp, math.exp),
    "log": (math.log, lambda u: 1.0 / u, lambda u: -1.0 / u ** 2),
    "sqrt": (
        math.sqrt,
        lambda u: 0.5 / math.sqrt(u),
        lambda u: -0.25 * u ** -1.5,
    ),
    "asin": (
        math.asin,
        lambda u: (1.0 - u * u) ** -0.5,
        lambda u: u * (1.0 - u * u) ** -1.5,
    ),
    "atan": (
        math.atan,
        lambda u: 1.0 / (1.0 + u * u),
        lambda u: -2.0 * u / (1.0 + u * u) ** 2,
    ),
    "abs": (abs, lambda u: math.copysign(1.0, u), lambda u: 0.0),
}


class ScalarField:
    """Base class; concrete fields implement eval/d1/d2 on self.chart."""

    provenance = "closed-form"

    def __init__(self, chart):
        self.chart = chart

    # -- required interface -------------------------------------------
    def eval(self, x):
        raise NotImplementedError

    def d1(self, x):
        raise NotImplementedError

    def d2(self, x):
        raise NotImplementedError

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
        return _SumField(self, other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if isinstance(self, ConstantField) and isinstance(other, ConstantField):
            return ConstantField(self.chart, self.value - other.value)
        if isinstance(other, ConstantField) and other.value == 0.0:
            return self
        return _SumField(self, other, -1.0)

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
        return _ProductField(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if isinstance(other, ConstantField):
            return self * (1.0 / other.value)
        return self * _ReciprocalField(other)

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
        return _PowerField(self, e)

    def apply(self, fn_name):
        """Compose with a named elementary function (exact chain rule)."""
        if fn_name not in _UNARY_RULES:
            raise KeyError(f"no unary rule for {fn_name!r}")
        return _UnaryField(fn_name, self)

    def sqrt(self):
        return self.apply("sqrt")

    # -- diagnostics -----------------------------------------------------
    def sample_range(self, count=200, seed=0):
        pts = self.chart.sample(count, seed=seed)
        vals = np.array([self.eval(x) for x in pts])
        return float(vals.min()), float(vals.max())


class ConstantField(ScalarField):
    def __init__(self, chart, value):
        super().__init__(chart)
        self.value = float(value)
        self._zero1 = np.zeros(chart.dim)
        self._zero2 = np.zeros((chart.dim, chart.dim))

    def eval(self, x):
        return self.value

    def d1(self, x):
        return self._zero1.copy()

    def d2(self, x):
        return self._zero2.copy()

    def __repr__(self):
        return f"ConstantField({self.value})"


class CoordinateField(ScalarField):
    def __init__(self, chart, index):
        super().__init__(chart)
        self.index = int(index)

    def eval(self, x):
        return float(x[self.index])

    def d1(self, x):
        out = np.zeros(self.chart.dim)
        out[self.index] = 1.0
        return out

    def d2(self, x):
        return np.zeros((self.chart.dim, self.chart.dim))


class ExpressionField(ScalarField):
    """Field backed by a parsed expression; derivatives are symbolic.

    Parameters
    ----------
    chart : Chart
    expr : str or Expression
        Uses the chart's coordinate names. An ``abs`` whose argument
        crosses zero on the chart poisons differentiation and is rejected
        the first time a derivative is requested (detected by sampling).
    """

    provenance = "expression-AST"

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
        self._fn = expr.compile(chart.names)
        self._grad_exprs = None
        self._grad_fns = None
        self._hess_fns = None
        self._abs_checked = False

    def eval(self, x):
        try:
            return float(self._fn(x))
        except (ValueError, OverflowError) as e:
            raise self._domain_violation(e, x) from None

    def _domain_violation(self, err, x):
        return DomainViolation(f"{err} in {self.expr.to_text()!r}", point=x)

    def _check_abs_arguments(self):
        # abs is differentiable away from zero only; sample each argument
        if self._abs_checked:
            return
        self._abs_checked = True
        stack = [self.expr]
        args = []
        while stack:
            node = stack.pop()
            if isinstance(node, Call) and node.fn == "abs":
                args.append(node.args[0])
            stack.extend(getattr(node, "args", ()) or [])
            for attr in ("left", "right", "arg"):
                child = getattr(node, attr, None)
                if child is not None:
                    stack.append(child)
        if not args:
            return
        pts = self.chart.sample(256, seed=17)
        for arg in args:
            fn = arg.compile(self.chart.names)
            vals = np.array([fn(x) for x in pts])
            if vals.min() < 1e-12 and vals.max() > -1e-12:
                raise DerivativeNotAvailable(
                    "abs() argument crosses zero on the chart; derivative refused"
                )

    def _ensure_grad(self):
        if self._grad_fns is None:
            self._check_abs_arguments()
            names = self.chart.names
            self._grad_exprs = [self.expr.diff(s) for s in names]
            self._grad_fns = [e.compile(names) for e in self._grad_exprs]

    def _ensure_hess(self):
        if self._hess_fns is None:
            self._ensure_grad()
            names = self.chart.names
            self._hess_fns = [
                [self._grad_exprs[i].diff(s).compile(names) for s in names]
                for i in range(len(names))
            ]

    def d1(self, x):
        self._ensure_grad()
        try:
            return np.array([fn(x) for fn in self._grad_fns])
        except (ValueError, OverflowError) as e:
            raise self._domain_violation(e, x) from None

    def d2(self, x):
        self._ensure_hess()
        n = self.chart.dim
        out = np.empty((n, n))
        try:
            for i in range(n):
                for j in range(i, n):
                    out[i, j] = out[j, i] = self._hess_fns[i][j](x)
        except (ValueError, OverflowError) as e:
            raise self._domain_violation(e, x) from None
        return out

    def __repr__(self):
        return f"ExpressionField({self.expr.to_text()!r})"


class NumericField(ScalarField):
    """Field wrapping a black-box callable; derivatives by central differences.

    First derivatives use steps cbrt(machine eps)*max(1,|x_i|); second
    derivatives use the quarter-power step. Good to roughly 1e-10 on smooth
    inputs, which is why closed-form provenance is preferred wherever the
    construction allows it.
    """

    provenance = "finite-difference"

    def __init__(self, chart, fn):
        super().__init__(chart)
        self._fn = fn

    def eval(self, x):
        return float(self._fn(np.asarray(x, dtype=float)))

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        n = self.chart.dim
        out = np.empty(n)
        for i in range(n):
            h = _FD_STEP1 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            out[i] = (self._fn(xp) - self._fn(xm)) / (2.0 * h)
        return out

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        n = self.chart.dim
        out = np.empty((n, n))
        f0 = self._fn(x)
        steps = [_FD_STEP2 * max(1.0, abs(x[i])) for i in range(n)]
        for i in range(n):
            h = steps[i]
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            out[i, i] = (self._fn(xp) - 2.0 * f0 + self._fn(xm)) / (h * h)
        for i in range(n):
            for j in range(i + 1, n):
                hi, hj = steps[i], steps[j]
                xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
                xpp[i] += hi
                xpp[j] += hj
                xpm[i] += hi
                xpm[j] -= hj
                xmp[i] -= hi
                xmp[j] += hj
                xmm[i] -= hi
                xmm[j] -= hj
                val = (self._fn(xpp) - self._fn(xpm) - self._fn(xmp) + self._fn(xmm)) / (
                    4.0 * hi * hj
                )
                out[i, j] = out[j, i] = val
        return out


class _SumField(ScalarField):
    def __init__(self, a, b, sign):
        super().__init__(a.chart)
        self.a, self.b, self.sign = a, b, sign

    def eval(self, x):
        return self.a.eval(x) + self.sign * self.b.eval(x)

    def d1(self, x):
        return self.a.d1(x) + self.sign * self.b.d1(x)

    def d2(self, x):
        return self.a.d2(x) + self.sign * self.b.d2(x)


class _ProductField(ScalarField):
    def __init__(self, a, b):
        super().__init__(a.chart)
        self.a, self.b = a, b

    def eval(self, x):
        return self.a.eval(x) * self.b.eval(x)

    def d1(self, x):
        return self.a.d1(x) * self.b.eval(x) + self.a.eval(x) * self.b.d1(x)

    def d2(self, x):
        av, bv = self.a.eval(x), self.b.eval(x)
        a1, b1 = self.a.d1(x), self.b.d1(x)
        return self.a.d2(x) * bv + av * self.b.d2(x) + np.outer(a1, b1) + np.outer(b1, a1)


class _ReciprocalField(ScalarField):
    def __init__(self, a):
        super().__init__(a.chart)
        self.a = a

    def eval(self, x):
        return 1.0 / self.a.eval(x)

    def d1(self, x):
        v = self.a.eval(x)
        return -self.a.d1(x) / (v * v)

    def d2(self, x):
        v = self.a.eval(x)
        g = self.a.d1(x)
        return (2.0 * np.outer(g, g) - v * self.a.d2(x)) / v ** 3


class _PowerField(ScalarField):
    def __init__(self, a, exponent):
        super().__init__(a.chart)
        self.a = a
        self.exponent = exponent

    def eval(self, x):
        return self.a.eval(x) ** self.exponent

    def d1(self, x):
        c = self.exponent
        return c * self.a.eval(x) ** (c - 1.0) * self.a.d1(x)

    def d2(self, x):
        c = self.exponent
        v = self.a.eval(x)
        g = self.a.d1(x)
        return c * (c - 1.0) * v ** (c - 2.0) * np.outer(g, g) + c * v ** (c - 1.0) * self.a.d2(x)


class _UnaryField(ScalarField):
    def __init__(self, fn_name, a):
        super().__init__(a.chart)
        self.fn_name = fn_name
        self.a = a
        self._f, self._df, self._d2f = _UNARY_RULES[fn_name]
        if fn_name == "abs":
            lo, hi = a.sample_range(count=256, seed=17)
            if lo < 1e-12 and hi > -1e-12:
                raise DerivativeNotAvailable(
                    "abs() argument crosses zero on the chart; derivative refused"
                )

    def eval(self, x):
        return self._f(self.a.eval(x))

    def d1(self, x):
        return self._df(self.a.eval(x)) * self.a.d1(x)

    def d2(self, x):
        u = self.a.eval(x)
        g = self.a.d1(x)
        return self._d2f(u) * np.outer(g, g) + self._df(u) * self.a.d2(x)


class ReindexedField(ScalarField):
    """A field of a sub-chart lifted to a bigger chart.

    index_map[k] is the big-chart coordinate index feeding the k-th
    coordinate of the inner field's chart. Used to embed block metrics
    into product charts.
    """

    def __init__(self, chart, inner, index_map):
        super().__init__(chart)
        self.inner = inner
        self.index_map = tuple(int(i) for i in index_map)
        if len(self.index_map) != inner.chart.dim:
            raise ValueError("index_map length must match the inner chart dim")

    def _project(self, x):
        return np.array([x[i] for i in self.index_map])

    def eval(self, x):
        return self.inner.eval(self._project(x))

    def d1(self, x):
        out = np.zeros(self.chart.dim)
        inner = self.inner.d1(self._project(x))
        for k, i in enumerate(self.index_map):
            out[i] += inner[k]
        return out

    def d2(self, x):
        out = np.zeros((self.chart.dim, self.chart.dim))
        inner = self.inner.d2(self._project(x))
        for k, i in enumerate(self.index_map):
            for l, j in enumerate(self.index_map):
                out[i, j] += inner[k, l]
        return out


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


class MetricField:
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
        self.chart = chart
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
        self.entries = tuple(tuple(row) for row in table)
        self.eps_pd = eps_pd
        if validate:
            rep = self.pd_report(samples=pd_samples)
            if not rep["positive_definite"]:
                raise NotPositiveDefinite(
                    f"metric loses definiteness: min eigenvalue {rep['min_eigenvalue']:.3e}"
                    f" at {rep['worst_point']}"
                )

    @property
    def dim(self):
        return self.chart.dim

    def matrix(self, x):
        n = self.dim
        out = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                out[i, j] = out[j, i] = self.entries[i][j].eval(x)
        return out

    def dmatrix(self, x):
        """D[i, j, k] = d g_ij / d x_k."""
        n = self.dim
        out = np.empty((n, n, n))
        for i in range(n):
            for j in range(i, n):
                d = self.entries[i][j].d1(x)
                out[i, j, :] = d
                out[j, i, :] = d
        return out

    def d2matrix(self, x):
        """D[i, j, k, l] = d^2 g_ij / (d x_k d x_l)."""
        n = self.dim
        out = np.empty((n, n, n, n))
        for i in range(n):
            for j in range(i, n):
                h = self.entries[i][j].d2(x)
                out[i, j] = h
                out[j, i] = h
        return out

    def inverse(self, x, cond_cap=1e12):
        m = self.matrix(x)
        if np.linalg.cond(m) > cond_cap:
            raise SingularMetric(f"metric condition number above {cond_cap:.1e} at {x}")
        return np.linalg.inv(m)

    def det(self, x):
        return float(np.linalg.det(self.matrix(x)))

    def pd_report(self, samples=10_000, seed=0):
        pts = self.chart.sample(samples, seed=seed)
        worst = None
        worst_val = np.inf
        for x in pts:
            w = np.linalg.eigvalsh(self.matrix(x))
            if w[0] < worst_val:
                worst_val = w[0]
                worst = x
        return {
            "positive_definite": bool(worst_val > self.eps_pd),
            "min_eigenvalue": float(worst_val),
            "worst_point": None if worst is None else [float(v) for v in worst],
            "samples": int(samples),
            "eps_pd": self.eps_pd,
        }

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_rows(cls, chart, rows, **kw):
        """Rows of numbers/strings/fields, full symmetric table.

        Off-diagonal pairs are checked for numeric agreement on a small
        sample (asymmetric input raises), then deduplicated.
        """
        n = chart.dim
        entries = [[as_field(chart, rows[i][j]) for j in range(n)] for i in range(n)]
        return cls(chart, entries, **kw)

    @classmethod
    def constant(cls, chart, matrix, **kw):
        m = np.asarray(matrix, dtype=float)
        return cls.from_rows(chart, m.tolist(), **kw)

    @classmethod
    def euclidean(cls, chart, **kw):
        kw.setdefault("validate", False)
        return cls.constant(chart, np.eye(chart.dim), **kw)

    @classmethod
    def conformal(cls, chart, factor, **kw):
        """factor * (dx_1^2 + ... + dx_n^2)."""
        f = as_field(chart, factor)
        zero = ConstantField(chart, 0.0)
        n = chart.dim
        entries = [[f if i == j else zero for j in range(n)] for i in range(n)]
        return cls(chart, entries, **kw)

    @classmethod
    def diagonal(cls, chart, diag_fields, **kw):
        fields = [as_field(chart, f) for f in diag_fields]
        zero = ConstantField(chart, 0.0)
        n = chart.dim
        entries = [[fields[i] if i == j else zero for j in range(n)] for i in range(n)]
        return cls(chart, entries, **kw)


class EndomorphismField:
    """A (1,1)-tensor field: matrix L^i_j of scalar entries, row = upper index."""

    def __init__(self, chart, entries):
        self.chart = chart
        n = chart.dim
        self.entries = tuple(
            tuple(
                e if isinstance(e, ScalarField) else as_field(chart, e)
                for e in row
            )
            for row in entries
        )
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("entries must be an n x n table")

    @property
    def dim(self):
        return self.chart.dim

    def matrix(self, x):
        n = self.dim
        return np.array([[self.entries[i][j].eval(x) for j in range(n)] for i in range(n)])

    def dmatrix(self, x):
        """D[i, j, k] = d L^i_j / d x_k."""
        n = self.dim
        out = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                out[i, j, :] = self.entries[i][j].d1(x)
        return out

    def trace_d1(self, x):
        """Gradient of trace L."""
        out = np.zeros(self.dim)
        for i in range(self.dim):
            out += self.entries[i][i].d1(x)
        return out

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
    def from_rows(cls, chart, rows):
        n = chart.dim
        return cls(chart, [[as_field(chart, rows[i][j]) for j in range(n)] for i in range(n)])

    @classmethod
    def identity(cls, chart):
        return cls.from_rows(chart, np.eye(chart.dim).tolist())

    @classmethod
    def constant(cls, chart, matrix):
        return cls.from_rows(chart, np.asarray(matrix, dtype=float).tolist())


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

    def values(self, x):
        return np.array([c.eval(x) for c in self.components])

    def jacobian(self, x):
        """J[i, k] = d v^i / d x_k."""
        return np.array([c.d1(x) for c in self.components])


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
