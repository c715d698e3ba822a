"""Differentiable fields on a chart.

A ScalarField is a map point -> real together with *exact* first and second
partial derivatives. Sums, products, quotients, powers and elementary
functions of fields build a DAG of field nodes over parsed expressions,
constants and coordinates; jets.py compiles that DAG once per derivative
order into straight-line code, so a metric assembled from closed-form
pieces differentiates to machine precision. A black-box callable, scalar
(NumericField) or matrix-valued (_EntryTable.from_function), is a leaf of
that code: one call of finite_differences, the one central-difference
stencil, which a table's entry views share; NumericField's provenance says so.

Matrix-valued fields (MetricField, EndomorphismField) are thin containers
of scalar entries plus the assembly routines everything downstream uses:
g(x), its entry gradients dg(x), entry Hessians d2g(x).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .chart import Chart
from .errors import (
    DerivativeNotAvailable,
    DomainViolation,
    NotPositiveDefinite,
    NotSelfAdjoint,
    ProjeqError,
    SingularMetric,
)
from .expressions import FUNCTIONS, Expression, parse_expression
from .jets import finite_differences  # re-exported
from .jets import Jets, replay, require_one_sign
from .records import Record
from .tolerances import DEFAULT

_PD_SAMPLES = 1500        # points of the construction scan
_COND_CAP = 1e12          # inverse_metric refuses this condition number or more


def _shaped(part, shape):
    """One part of a jet as an array of shape; a stack's (size, N) part gains a leading N axis."""
    if isinstance(part, tuple):  # one point's floats
        return np.fromiter(part, float, len(part)).reshape(shape)
    return part.T.reshape(part.shape[1:] + shape)


def pointwise_errors(*at):
    """Decorate a kernel whose arguments at positions ``at`` are one point
    each, or (N, ...) stacks of N points, or None. A stacked call that raises
    fails as the loop over its points would: jets.replay runs the points
    again as stacks of one, so the first failing point raises its error."""
    def decorate(kernel):
        @functools.wraps(kernel)
        def run(*args, **kw):
            try:
                return kernel(*args, **kw)
            except (ProjeqError, np.linalg.LinAlgError):
                xs = args[at[0]]
                if np.ndim(xs) > 1 and len(xs) > 1:  # a stack of one already failed
                    replay(range(len(xs)), lambda ks: kernel(
                        *(a[ks.start:ks.stop] if i in at and a is not None else a
                          for i, a in enumerate(args)),
                        **kw))
                raise
        return run
    return decorate


class ScalarField:
    """Base class of the field nodes; ``node`` names the kind for jets.py.

    eval, d1 and d2 read the field's jet: its generated code, built on
    first use. Each takes one point (n,) or an (N, n) stack and gives a
    leading N axis to a stack's result.
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
        return np.array(self._jet(x, 1)[1]).T

    def d2(self, x):
        return _shaped(self._jet(x, 2)[2], (self.chart.dim,) * 2)

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
        if isinstance(other, ConstantField) and (
                recip := _folded(self.chart, lambda: 1.0 / other.value)) is not None:
            return self * recip
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
        if isinstance(self, ConstantField) and (
                power := _folded(self.chart, lambda: self.value ** e)) is not None:
            return power
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
        vals = self.eval(self.chart.sample(count, seed=seed))
        return float(vals.min()), float(vals.max())


def _folded(chart, compute):
    """ConstantField(chart, compute()) when that is a finite real float, else
    None: a constant operation that fails stays a node, which raises
    DomainViolation at the first point it is evaluated at, as jets does."""
    try:
        value = compute()
    except ArithmeticError:
        return None
    if isinstance(value, float) and math.isfinite(value):
        return ConstantField(chart, value)
    return None


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
        the first time a derivative is requested (detected by sampling;
        ``one_signed`` keeps the text of each argument that passed, so
        each is sampled once).
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
        self.one_signed = set()

    def __repr__(self):
        return f"ExpressionField({self.expr.to_text()!r})"


class NumericField(ScalarField):
    """Field wrapping a black-box callable; derivatives by central differences.

    fn takes an (M, n) stack and returns (M,) values. Alone or inside field
    algebra it is an opaque leaf of the generated code, which calls
    finite_differences on fn once per evaluation, at one point or on the
    whole stack: good to roughly 1e-10 on smooth inputs, which is why
    closed-form provenance is preferred wherever the construction allows it.
    """

    provenance = "finite-difference"
    node = "leaf"
    _entry = ()  # the (i, j) of fn's n x n matrices that a table's view reads

    def __init__(self, chart, fn):
        super().__init__(chart)
        self.fn = fn


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


def coord(chart, name_or_index):
    if isinstance(name_or_index, str):
        return CoordinateField(chart, chart.index_of(name_or_index))
    return CoordinateField(chart, name_or_index)


def as_field(chart, obj):
    """Coerce a number, string, Expression or field onto `chart`."""
    if isinstance(obj, ScalarField):
        if obj.chart is not chart and obj.chart != chart:
            raise ValueError("field lives on a different chart")
        return obj
    if isinstance(obj, (str, Expression)):
        return ExpressionField(chart, obj)
    return ConstantField(chart, float(obj))


# --- matrix-valued fields --------------------------------------------------


class _EntryTable:
    """An n x n table of scalar fields on a chart, evaluated by one
    generated function per derivative order."""

    def __init__(self, chart, entries):
        self.chart = chart
        self.entries = entries
        self._jets = Jets(chart.names, [f for row in entries for f in row])
        # the shapes of a jet's parts: the matrix, its gradients, its Hessians
        self._shapes = tuple((len(entries),) * k for k in (2, 3, 4))

    @classmethod
    def from_function(cls, chart, fn, **kw):
        """The table of a black-box fn from an (M, n) stack to (M, n, n),
        symmetric for a metric. Its entries are NumericField views of fn (one
        per symmetric pair of a metric) reading fn(x)[..., i, j] off the one
        stencil call they share: one call of fn per matrix, dmatrix (2n + 1
        shifted points per point), d2matrix or evaluation of their algebra.
        Matrices of fn that are not n x n are a ValueError naming the shape."""
        n = chart.dim
        views = [[NumericField(chart, fn) for j in range(n)] for i in range(n)]
        for i, j in np.ndindex(n, n):
            views[i][j]._entry = (i, j)
        if issubclass(cls, MetricField):  # shared pairs: no agreement scan calls fn
            views = block_diagonal(chart, [views])
        return cls(chart, views, **kw)

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
        return _shaped(self._jets(x, 0)[0], self._shapes[0])

    def dmatrix(self, x):
        """D[i, j, k] = d (entry i, j) / d x_k."""
        return self.jet(x, 1)[1]

    def jet(self, x, order=1):
        """(matrix, dmatrix) at x, and d2matrix at order 2, from one call;
        at an (N, n) stack x each has a leading N axis."""
        return tuple(map(_shaped, self._jets(x, order), self._shapes))

    def compiled_jet(self, order):
        """The generated function behind jet at order, built on first use: at one
        point x, an (n,) array, its parts as flat tuples; jet names its errors."""
        return self._jets.function(order)


class MetricField(_EntryTable):
    """A symmetric matrix of scalar fields, policed for positive-definiteness.

    Parameters
    ----------
    chart : Chart
    entries : n x n nested sequence of ScalarField
        Must be symmetric as a table (entries[i][j] is entries[j][i] or an
        equal field); only the upper triangle is stored once.
    validate : bool
        When true (default), scan the chart with 1500 quasi-random points
        and raise NotPositiveDefinite if the smallest eigenvalue drops to
        the default eps_pd or below anywhere in the sample. pd_report()
        defaults to the full 10^4-point audit.
    """

    def __init__(self, chart, entries, validate=True):
        n = chart.dim
        if not all(isinstance(f, ScalarField) for row in entries for f in row):
            raise TypeError("metric entries must be ScalarFields")
        for i, j in itertools.combinations(range(n), 2):
            if entries[i][j] is not entries[j][i]:
                # distinct objects allowed only if they agree numerically
                def agree(diff, pts, i=i, j=j):
                    if not (np.abs(diff) <= 1e-12).all():
                        raise ValueError(f"metric entries ({i},{j}) vs ({j},{i}) differ")

                scan(chart.sample(16, seed=3),
                     lambda pts, a=entries[i][j], b=entries[j][i]: a.eval(pts) - b.eval(pts), agree)
        super().__init__(chart, block_diagonal(chart, [entries]))
        if validate:
            rep = self.pd_report(samples=_PD_SAMPLES)
            if not rep["positive_definite"]:
                raise NotPositiveDefinite(
                    f"metric loses definiteness: min eigenvalue {rep['min_eigenvalue']:.3e}",
                    point=rep["worst_point"])

    # bound on each class too, so that each can be wrapped apart (perfbench/tracing.py)
    matrix, dmatrix = _EntryTable.matrix, _EntryTable.dmatrix

    def d2matrix(self, x):
        """D[i, j, k, l] = d^2 g_ij / (d x_k d x_l)."""
        return self.jet(x, 2)[2]

    @pointwise_errors(1)
    def inverse(self, x):
        """g^{-1} at one point x or at each of an (N, n) stack (inverse_metric)."""
        return inverse_metric(self.matrix(x), x)

    @pointwise_errors(1)
    def det(self, x):
        """det g at x: a float at one point, an (N,) array at an (N, n) stack; a non-finite
        entry, then determinant, is a DomainViolation at its first such point."""
        m = require_finite(self.matrix(x), x, "metric")  # refused before det, which warns on it
        with np.errstate(over="ignore", invalid="ignore"):
            det = require_finite(np.linalg.det(m), x, "determinant")
        return det if det.ndim else float(det)

    def pd_report(self, samples=10_000, seed=0):
        pts = self.chart.sample(samples, seed=seed)
        mats = require_finite(self.matrix(pts), pts, "metric")
        worst, worst_val = None, np.inf
        if len(pts):
            low = np.linalg.eigvalsh(mats)[:, 0]
            k = int(np.argmin(low))  # the first of tied minima
            worst, worst_val = pts[k], low[k]
        return {
            "positive_definite": bool(worst_val > DEFAULT.eps_pd),
            "min_eigenvalue": float(worst_val),
            "worst_point": None if worst is None else [float(v) for v in worst],
            "samples": int(samples),
            "eps_pd": DEFAULT.eps_pd,
        }

    # -- constructors ---------------------------------------------------
    @classmethod
    def euclidean(cls, chart, **kw):
        kw.setdefault("validate", False)
        return cls.diagonal(chart, [1.0] * chart.dim, **kw)

    @classmethod
    def conformal(cls, chart, factor, **kw):
        """factor * (dx_1^2 + ... + dx_n^2)."""
        return cls.diagonal(chart, [as_field(chart, factor)] * chart.dim, **kw)

    @classmethod
    def diagonal(cls, chart, diag_fields, **kw):
        return cls(chart, block_diagonal(chart, [[[f]] for f in diag_fields]), **kw)


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
        return np.trace(self.dmatrix(x), axis1=-3, axis2=-2)

    def self_adjoint_defect(self, g, x):
        """max |g L - (g L)^T| over x, one point or an (N, n) stack; refused as _lowered does."""
        return float(np.max(_lowered(g.matrix(x), self.matrix(x), x)[1]))

    @pointwise_errors(2)
    def require_self_adjoint(self, g, x, eps_sym_factor=DEFAULT.eps_sym_factor):
        """require_self_adjoint on the matrices of g and L at x."""
        require_self_adjoint(g.matrix(x), self.matrix(x), x, eps_sym_factor)

    @classmethod
    def identity(cls, chart):
        return cls.constant(chart, np.eye(chart.dim))


class VectorField:
    """Contravariant vector field: components v^i as scalar fields."""

    def __init__(self, chart: Chart, components: tuple):
        self.chart = chart
        self.components = tuple(as_field(chart, c) for c in components)
        if len(self.components) != chart.dim:
            raise ValueError("need one component per coordinate")
        self._jets = Jets(chart.names, self.components)

    def values(self, x):
        return np.array(self._jets(x, 0)[0]).T

    def jacobian(self, x):
        """J[i, k] = d v^i / d x_k."""
        return self.jet(x)[1]

    def jet(self, x):
        """(values, jacobian) at x from one call."""
        return tuple(map(_shaped, self._jets(x, 1), ((self.chart.dim,), (self.chart.dim,) * 2)))


class PhaseState(Record):
    """A point and a momentum covector, or (N, n) stacks of N of each. A
    stack has a length and slices as x does, so pointwise_errors replays it."""

    _fields = ("x", "p")

    def __init__(self, x: np.ndarray, p: np.ndarray):
        self._set(x=np.asarray(x, dtype=float).copy(), p=np.asarray(p, dtype=float).copy())
        if self.x.shape != self.p.shape:
            raise ValueError("x and p must have equal shapes")

    ndim = property(lambda self: self.x.ndim)

    def __len__(self):
        return len(self.x)

    def __getitem__(self, k):
        return PhaseState(self.x[k], self.p[k])


def require(ok, points, error, text):
    """Raise error(text, point=...) at the first point where the pass
    condition ok is not True. ``points`` is one point, an (N, n) stack or
    None; ok holds one flag per point, or one per point and further axes,
    all of which must hold there. ``text`` is a string or a function of
    the failing point's index. Write ok as the pass condition: every
    comparison with a NaN is False, so a NaN fails it."""
    if not np.asarray(ok).all():
        pts = None if points is None else np.atleast_2d(points)
        count = (np.shape(ok)[:1] or (1,)) if pts is None else (len(pts),)
        k = int(np.argmin(np.reshape(ok, count + (-1,)).all(axis=1)))
        raise error(text(k) if callable(text) else text, point=None if pts is None else pts[k])


def require_finite(values, points, what):
    """values, once every entry is finite; else DomainViolation at the
    first point with a non-finite entry, values laid out as require's ok."""
    require(np.isfinite(values), points, DomainViolation, f"non-finite {what} entry")
    return values


def inverse_metric(gmat, x):
    """The checked inverse of the metric matrix (or (N, n, n) stack) gmat at x: it
    refuses a non-finite entry, then a condition number of 1e12 or more, at its first point."""
    m = require_finite(gmat, x, "metric")
    s = np.linalg.svd(m, compute_uv=False).T  # s[0] / s[-1] is the condition number
    with np.errstate(over="ignore"):  # an infinite cap compares as the exact product
        require(s[0] < _COND_CAP * s[-1], x, SingularMetric, "metric numerically singular")
    return np.linalg.inv(m)


def _lowered(gmat, lmat, x):
    """(g L, |g L - (g L)^T|) from the matrices at x, refusing a non-finite g, then
    L, then an overflowing product, with DomainViolation at its first such point."""
    g_mat = require_finite(gmat, x, "metric")
    l_mat = require_finite(lmat, x, "endomorphism")
    with np.errstate(over="ignore"):  # an overflow is refused at its point
        gl = require_finite(g_mat @ l_mat, x, "g*L")
    return gl, np.abs(gl - np.swapaxes(gl, -1, -2))


def require_self_adjoint(gmat, lmat, x, eps_sym_factor=DEFAULT.eps_sym_factor):
    """Raise NotSelfAdjoint at the first point of x (one point or an (N, n) stack)
    where g L, from the matrices there, is asymmetric beyond eps_sym_factor times
    max(1, |g L|) (Frobenius norm); a non-finite g, then L, then an overflowing
    g L or norm, is a DomainViolation there."""
    gl, asym = _lowered(gmat, lmat, x)
    flat = gl.reshape(gl.shape[:-2] + (1, -1))
    with np.errstate(over="ignore"):  # an overflow is refused at its point
        norm = np.sqrt((flat @ np.swapaxes(flat, -1, -2))[..., 0, 0])  # as np.linalg.norm
        require_finite(norm, x, "g*L norm")
    tol = eps_sym_factor * np.fmax(1.0, norm)
    defect = np.max(asym, axis=(-2, -1))
    require(defect <= tol, x, NotSelfAdjoint,
            lambda k: f"g*L asymmetric by {defect.flat[k]:.3e} (tol {tol.flat[k]:.3e})")


def worst_point(values, points, what):
    """(value, point) of the first strict maximum of values over points,
    counted from 0.0, so the point is None when no value is positive; a
    non-finite value raises DomainViolation at its point."""
    values = require_finite(np.asarray(values, dtype=float), points, what)
    if not len(values) or values.max() <= 0.0:
        return 0.0, None
    k = int(np.argmax(values))  # the first of tied maxima
    return float(values[k]), [float(v) for v in points[k]]


def scan(points, evaluate, check=lambda values, points: None):
    """evaluate(points) from one stacked call, checked by check(values,
    points), which raises at its first failing point. It fails as the loop
    over points it stands for did: when the stacked evaluation raises a
    ProjeqError or LinAlgError, jets.replay evaluates and checks the points
    again as stacks of one, so that whatever failed at an earlier point, in
    evaluation or in the check, is raised first."""
    try:
        values = evaluate(points)
    except (ProjeqError, np.linalg.LinAlgError):
        if len(points) > 1:  # a stack of one already failed
            replay(points, lambda p: check(evaluate(p), p))
        raise
    check(values, points)
    return values


def solve_metric(gmat, b, points):
    """np.linalg.solve(gmat, b), unchecked, for one metric matrix at one point
    or an (N, n, n) stack at an (N, n) stack of points, b shaped for one
    matrix or led by N. A matrix LAPACK refuses raises SingularMetric at the
    first point whose own solve fails; the one solve against g of the
    phase-space paths (inverse_metric is the checked inverse)."""
    try:
        return np.linalg.solve(gmat, b)
    except np.linalg.LinAlgError:
        if gmat.ndim == 2:
            raise SingularMetric("metric singular", point=points) from None
        for k in range(len(gmat)):  # replayed matrix by matrix: the first to fail raises
            solve_metric(gmat[k], b[k] if b.ndim == gmat.ndim else b, points[k])
        raise


def g_orthonormal_frame(g_matrix):
    """Columns e_a with e_a^T g e_b = delta_ab, from a Cholesky factor; of
    one matrix or of each of an (N, n, n) stack."""
    try:
        low = np.linalg.cholesky(g_matrix)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("metric not positive-definite; no frame") from None
    return np.swapaxes(np.linalg.inv(low), -1, -2)


# --- matrices of fields ----------------------------------------------------


def block_diagonal(chart, blocks):
    """The n x n table of fields on chart with the square tables ``blocks`` (numbers,
    text or fields) down its diagonal and one shared zero field elsewhere. Only each
    block's upper triangle is read, so (i, j) and (j, i) hold one object."""
    if sum(map(len, blocks)) != chart.dim:
        raise ValueError(f"blocks of {sum(map(len, blocks))} rows on a {chart.dim}-D chart")
    zero = ConstantField(chart, 0.0)
    table = [[zero] * chart.dim for _ in range(chart.dim)]
    off = 0
    for block in blocks:
        for a, b in itertools.combinations_with_replacement(range(len(block)), 2):
            table[off + a][off + b] = table[off + b][off + a] = as_field(chart, block[a][b])
        off += len(block)
    return tuple(map(tuple, table))


def fmat_mul(a, b):
    """Product of two matrices of fields (sequences of rows, such as a
    table's entries), each entry summed left to right from its first term."""
    return [[sum((a[i][s] * b[s][j] for s in range(1, len(b))), a[i][0] * b[0][j])
             for j in range(len(b[0]))] for i in range(len(a))]


def fmat_det(a):
    """Determinant of a small (n <= 4) matrix of fields, Laplace expansion."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    terms = [a[0][j] * fmat_det([row[:j] + row[j + 1:] for row in a[1:]]) for j in range(n)]
    return sum((-t if j % 2 else t for j, t in enumerate(terms[1:], 1)), terms[0])


def fmat_adjugate(a):
    """adj(A)[i][j] = cofactor_ji, so that A @ adj(A) = det(A) I."""
    n = len(a)
    if n == 1:
        chart = a[0][0].chart
        return [[ConstantField(chart, 1.0)]]

    def cofactor(i, j):
        det = fmat_det([row[:j] + row[j + 1:] for row in a[:i] + a[i + 1:]])
        return -det if (i + j) % 2 else det

    return [[cofactor(i, j) for i in range(n)] for j in range(n)]


def fmat_scale(a, s):
    return [[entry * s for entry in row] for row in a]
