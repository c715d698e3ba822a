"""Straight-line value, gradient and Hessian code: the one evaluator of fields.

A field is a DAG of parsed expressions, ScalarField operator nodes,
ReindexedField index maps, constants, coordinates and black boxes. `Jets`
turns a tuple of fields into one Python function per derivative order
(value; value and gradient; value, gradient and Hessian), built the first
time that order is asked for: forward-mode differentiation written out
(Griewank & Walther, *Evaluating Derivatives*, ch. 13), where each node,
visited once, becomes a few lines on Python floats for its value and its
nonzero gradient and Hessian entries. Constants and structural zeros fold
while the code is written and an identical line is written once, so a
subexpression shared by several outputs (det L in every partner entry)
costs one evaluation. A black box (NumericField) is a leaf whose one line,
finite_differences on its fn, serves every leaf of that fn; `replay` is
the one replay of a failing stack, for Jets and fields. A division by
zero, a math domain or range error, or a negative base to a fractional
power is a DomainViolation at the point, naming the failing field; a
power that overflows gives an infinity.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DerivativeNotAvailable, DomainViolation, ProjeqError, UnknownIdentifier
from .expressions import CHAIN_RULES, FUNCTIONS, Call, Expression, Neg, Num, Var
from .records import operands


def _pow(base, exponent):
    """base ** exponent on floats, refusing the complex power of a negative
    base; an overflow gives an infinity, as numpy's power does."""
    if base < 0.0 and not exponent.is_integer():
        raise ValueError(f"negative base {base!r} to the power {exponent!r}")
    try:
        return base ** exponent
    except OverflowError:
        return math.copysign(math.inf, base) if exponent % 2.0 == 1.0 else math.inf


_FD_STEP1 = np.finfo(float).eps ** (1.0 / 3.0)   # central first differences
_FD_STEP2 = np.finfo(float).eps ** 0.25          # central second differences


def finite_differences(fn, x, order):
    """Central differences of a black box fn at one point x or at each of
    an (N, n) stack, up to order 2, from one call of fn on the (M, n) stack
    of every shifted point, point-major (Fornberg, Math. Comp. 51(184),
    1988); fn returns (M,) values or (M, n, n) matrices, else ValueError.
    Returns order + 1 parts laid out as a Jets result, flat lists at one
    point and (size, N) arrays at a stack: the values, the gradients and
    the Hessians, derivative indices last. First derivatives step
    cbrt(machine eps) * max(1, |x_i|), second derivatives the quarter
    power. An ArithmeticError or ValueError from fn is a DomainViolation
    at the point, or at no point for a stack, which Jets replays."""
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1, x.shape[-1])
    count, n = xs.shape
    scale = np.fmax(1.0, np.abs(xs)).T  # np.fmax(1.0, nan) is 1.0, as max(1.0, nan) is
    steps = (_FD_STEP1 * scale, _FD_STEP2 * scale)
    # each shifted point as its moves (step, coordinate, sign), in the order read below
    shifts, signs = [()], (1.0, -1.0)
    if order:
        shifts += [((0, i, s),) for i in range(n) for s in signs]
    for i in range(n if order > 1 else 0):
        shifts += [((1, i, s),) for s in signs]
        shifts += [((1, i, a), (1, j, b)) for j in range(i + 1, n) for a in signs for b in signs]
    ys = np.repeat(xs[:, None], len(shifts), axis=1)
    for row, moves in enumerate(shifts):
        for k, i, sign in moves:  # += on the moved coordinate alone keeps a -0.0 elsewhere
            ys[:, row, i] += sign * steps[k][i]
    m = count * len(shifts)
    try:
        f = np.asarray(fn(ys.reshape(m, n)), dtype=float)
    except (ArithmeticError, ValueError) as err:
        raise DomainViolation(f"{err} in a finite-difference field",
                              point=xs[0] if count == 1 else None) from None
    if f.shape[:1] != (m,):
        raise ValueError(f"a black box returned shape {f.shape} for an ({m}, {n}) stack")
    rows = iter(np.moveaxis(f.reshape((count, len(shifts)) + f.shape[1:]), 1, 0))
    h1, h2 = (h.reshape(h.shape + (1,) * (f.ndim - 1)) for h in steps)  # over fn's output
    f0 = next(rows)
    parts = [f0]
    if order:
        parts.append(np.stack([(next(rows) - next(rows)) / (2.0 * h) for h in h1], axis=-1))
    if order > 1:
        d2 = np.empty(f0.shape + (n, n))
        parts.append(d2)
        for i, hi in enumerate(h2):
            d2[..., i, i] = (next(rows) - 2.0 * f0 + next(rows)) / (hi * hi)
            for j, hj in enumerate(h2[i + 1:], i + 1):
                pp, pm, mp, mm = (next(rows) for _ in range(4))
                d2[..., i, j] = d2[..., j, i] = (pp - pm - mp + mm) / (4.0 * hi * hj)
    if x.ndim == 1:
        return [p.ravel().tolist() for p in parts]
    return [p.reshape(count, int(np.prod(p.shape[1:]))).T for p in parts]


def _mapped(fn):
    """fn over each entry of its (N,) column arguments, a float argument
    shared by every entry: the same Python function as the one-point code,
    so each entry is bit-identical to it (numpy's tanh, exp and ** are not
    math's in the last bit)."""
    def column(*args):
        cols = args if len(args) == 1 else np.broadcast_arrays(*args)
        if not np.ndim(cols[0]):  # a line that failed to fold raises here
            return fn(*args)
        return np.fromiter(map(fn, *(c.tolist() for c in cols)), float, len(cols[0]))
    return column


def _leaf(fn, x, order, shape):
    """finite_differences of a black box whose value at each point has shape:
    () for a NumericField, (n, n) for the entries of a table; else ValueError."""
    parts = finite_differences(fn, x, order)
    if len(parts[0]) != math.prod(shape):
        raise ValueError(f"a black box gave {len(parts[0])} values per point where its"
                         f" field needs shape {shape}")
    return parts


_NAMESPACE = dict(FUNCTIONS, _pow=_pow, _array=np.array, inf=math.inf, nan=math.nan,
                  _coords=np.ndarray.tolist, _leaf=_leaf)
# the same code on (N,) columns: + - * / are numpy's, every call is mapped
# but sqrt and abs, which numpy computes exactly (sqrt is correctly rounded)
_COLUMNS = dict(_NAMESPACE, **{k: _mapped(f) for k, f in FUNCTIONS.items()},
                _pow=_mapped(_pow), _coords=np.transpose)
_COLUMNS.update(sqrt=np.sqrt, abs=np.abs, _array=np.column_stack)  # a leaf's (N, m) points


def require_one_sign(lo, hi):
    """abs() is differentiable away from zero only: refuse a sampled range
    [lo, hi] of its argument that reaches zero."""
    if lo < 1e-12 and hi > -1e-12:
        raise DerivativeNotAvailable(
            "abs() argument crosses zero on the chart; derivative refused")


def _fmt(term):
    """Code of a term: a local's name, or a float literal."""
    if isinstance(term, str):
        return term
    return repr(term) if term >= 0.0 else f"({term!r})"


class _Writer:
    """Forward-mode code of one tuple of outputs at one derivative order.

    A jet is (value, gradient, Hessian); each entry is a float constant or
    the name of a local of the generated function.
    """

    def __init__(self, n, order):
        self.n, self.order, self.ns = n, order, dict(_NAMESPACE)
        self.lines, self.sites = [], []  # code, and the field each line is for
        self.seen = {}      # line of code -> its local: each line is written once
        self.memo = {}      # node key -> jet: each node is visited once
        self.site = None    # the field whose lines are being written
        self.zero, self.zero2 = (0.0,) * n, ((0.0,) * n,) * n

    def emit(self, code):
        var = self.seen.get(code)
        if var is None:
            var = self.seen[code] = f"t{len(self.lines)}"
            self.lines.append(f"    {var} = {code}")
            self.sites.append(self.site)
        return var

    def code(self, template, **ops):
        """Write template on its operands, folded when they are all constants."""
        text = template.format(**{k: _fmt(v) for k, v in ops.items()})
        if all(isinstance(v, float) for k, v in ops.items() if "{%s}" % k in template):
            try:
                return float(eval(text, self.ns))
            except (ArithmeticError, ValueError):
                pass  # fails at every point: the call raises it with the point
        return self.emit(text)

    def comb(self, terms):
        """Sum over terms (c, f1, f2, ...) of c * f1 * f2 ...; constant
        factors fold and zero terms drop."""
        const, parts = 0.0, []
        for c, *factors in terms:
            names = [f for f in factors if isinstance(f, str)]
            c *= math.prod(f for f in factors if not isinstance(f, str))
            if c == 0.0:
                continue
            if not names:
                const += c
                continue
            body = " * ".join(names if abs(c) == 1.0 else [repr(abs(c))] + names)
            parts.append(("-" if c < 0.0 else "+", body))
        if not parts:
            return const
        if const:
            parts.append(("-" if const < 0.0 else "+", repr(abs(const))))
        if len(parts) == 1 and parts[0][0] == "+" and " " not in parts[0][1]:
            return parts[0][1]
        head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return self.emit(head + "".join(f" {s} {b}" for s, b in parts[1:]))

    # -- jets ----------------------------------------------------------------

    def sym(self, entry):
        """The symmetric n x n table of entry(k, l), written for k <= l in row order."""
        up = {(k, l): entry(k, l) for k in range(self.n) for l in range(k, self.n)}
        return [[up[min(k, l), max(k, l)] for l in range(self.n)] for k in range(self.n)]

    def each(self, fn, a, b):
        """Entry by entry fn of two jets, for the linear operations."""
        g = [fn(a[1][k], b[1][k]) for k in range(self.n)] if self.order else None
        h = self.sym(lambda k, l: fn(a[2][k][l], b[2][k][l])) if self.order > 1 else None
        return fn(a[0], b[0]), g, h

    def coord(self, i):
        return f"x{i}", [float(k == i) for k in range(self.n)], self.zero2

    def product(self, a, b):
        (av, ag, ah), (bv, bg, bh) = a, b
        g = h = None
        if self.order:
            g = [self.comb([(1.0, av, bg[k]), (1.0, ag[k], bv)]) for k in range(self.n)]
        if self.order > 1:
            h = self.sym(lambda k, l: self.comb([
                (1.0, av, bh[k][l]), (1.0, ah[k][l], bv),
                (1.0, ag[k], bg[l]), (1.0, ag[l], bg[k])]))
        return self.comb([(1.0, av, bv)]), g, h

    def quotient(self, a, b):
        (av, ag, ah), (bv, bg, bh) = a, b
        q = self.code("{a} / {b}", a=av, b=bv)
        if not self.order:
            return q, None, None
        r = self.code("1.0 / {b}", b=bv)
        # a = q b differentiated once and twice, solved for q's entries
        g = [self.comb([(1.0, ag[k], r), (-1.0, q, bg[k], r)]) for k in range(self.n)]
        h = self.sym(lambda k, l: self.comb([
            (1.0, ah[k][l], r), (-1.0, g[k], bg[l], r),
            (-1.0, g[l], bg[k], r), (-1.0, q, bh[k][l], r)])) if self.order > 1 else None
        return q, g, h

    def chain(self, u, v, d, dd):
        """Jet of f(u) from v = f(u), d = f'(u) and dd = f''(u)."""
        ug, uh = u[1], u[2]
        g = [self.comb([(1.0, d, ug[k])]) for k in range(self.n)] if self.order else None
        h = self.sym(lambda k, l: self.comb([
            (1.0, dd, ug[k], ug[l]), (1.0, d, uh[k][l])])) if self.order > 1 else None
        return v, g, h

    def unary(self, fn, u):
        f0, f1, f2 = CHAIN_RULES[fn]
        v = self.code(f0, u=u[0])
        d = self.code(f1, u=u[0], v=v) if self.order else None
        dd = self.code(f2, u=u[0], v=v, d=d) if self.order > 1 else None
        return self.chain(u, v, d, dd)

    def power(self, u, c):
        c = float(c)

        def pw(coeff, e):  # coeff * u ** e, written only when coeff is nonzero
            if coeff == 0.0 or e == 0.0:
                return coeff
            form = "{u} * {u}" if e == 2.0 else "_pow({u}, %s)" % _fmt(e)
            return self.comb([(coeff, u[0] if e == 1.0 else self.code(form, u=u[0]))])

        d = pw(c, c - 1.0) if self.order else None
        dd = pw(c * (c - 1.0), c - 2.0) if self.order > 1 else None
        return self.chain(u, pw(1.0, c), d, dd)

    def general_power(self, a, b):
        """a ^ b = exp(b log a), valued as a ** b."""
        v = self.code("_pow({a}, {b})", a=a[0], b=b[0])
        if not self.order:
            return v, None, None
        return self.chain(self.product(b, self.unary("log", a)), v, v, v)

    # -- DAG walk --------------------------------------------------------------

    def jet(self, node, names, cmap):
        """Jet of a field node, or of an expression node in the coordinate
        names of its chart; cmap maps chart coordinates to output ones. One
        loop visits each item (id(node), names, cmap: its memo key; node;
        site, the field whose lines it writes) once, after its operands, so a
        field sum or expression has no depth limit; only the parser has one."""
        root = id(node), names, cmap
        stack = [(*root, node, node)]
        while stack:
            item = stack.pop()
            if isinstance(item, list):  # [item, its operands], whose jets are in the memo
                (_, names, cmap, node, self.site), ops = item
                rule = self._expression if isinstance(node, Expression) else self._field
                self.memo[item[0][:3]] = rule(node, names, cmap, *[self.memo[o[:3]] for o in ops])
            elif item[:3] not in self.memo:
                ops = self._operands(*item[1:])
                stack += [[item, ops], *reversed(ops)]
        return self.memo[root]

    def _operands(self, names, cmap, node, site):
        if isinstance(node, Expression):
            return [(id(a), names, cmap, a, site) for a in operands(node)]
        if node.node == "reindexed":
            inner = node.inner
            return [(id(inner), None, tuple(cmap[i] for i in node.index_map), inner, inner)]
        if node.node == "expression":
            return [(id(node.expr), node.chart.names, cmap, node.expr, node)]
        return [(id(a), None, cmap, a, a) for a in node.args]

    def _expression(self, e, names, cmap, a=None, b=None):
        if isinstance(e, Num):
            return float(e.value), self.zero, self.zero2
        if isinstance(e, Var):
            if e.name not in names:
                raise UnknownIdentifier(e.name)
            return self.coord(cmap[names.index(e.name)])
        if isinstance(e, Neg):
            return self.each(lambda t, _: self.comb([(-1.0, t)]), a, a)
        if isinstance(e, Call):
            if e.fn == "abs" and self.order:  # derivatives come from fields, on charts
                field, arg = self.site, e.args[0].to_text()
                if arg not in field.one_signed:
                    chart = field.chart
                    vals = Jets(chart.names, e.args)(chart.sample(256, seed=17), 0)[0][0]
                    require_one_sign(vals.min(), vals.max())
                    field.one_signed.add(arg)
            return self.unary(e.fn, a)
        if e.op == "^" and isinstance(b[0], float) and not any(b[1] or ()):  # as x^-2
            return self.power(a, b[0])
        if e.op in "+-":
            sign = 1.0 if e.op == "+" else -1.0
            return self.each(lambda ta, tb: self.comb([(1.0, ta), (sign, tb)]), a, b)
        return {"*": self.product, "/": self.quotient, "^": self.general_power}[e.op](a, b)

    def _field(self, f, names, cmap, *args):
        node = f.node
        if node in ("reindexed", "expression"):  # the jet of what it wraps
            return args[0]
        if node == "constant":
            return f.value, self.zero, self.zero2
        if node == "coordinate":
            return self.coord(cmap[f.index])
        if node == "sum":
            return self.each(lambda ta, tb: self.comb([(1.0, ta), (f.sign, tb)]), *args)
        if node == "product":
            return self.product(*args)
        if node == "unary":
            return self.unary(f.fn_name, *args)
        if node == "power":
            return self.power(*args, f.exponent)
        if node == "leaf":
            return self.leaf(f, cmap)
        raise NotImplementedError(f"{type(f).__name__} is not a field node")

    def leaf(self, f, cmap):
        """A black box: entry f._entry of the stencil call every leaf of f.fn shares."""
        box = f"_box{id(f.fn)}"
        self.ns[box] = f.fn
        point = "xa" if cmap == tuple(range(self.n)) else self.emit(
            "_array((%s,))" % ", ".join(f"x{i}" for i in cmap))
        m, entry = len(cmap), f._entry
        jet = self.emit(f"_leaf({box}, {point}, {self.order}, {(m,) * len(entry)})")
        e = entry[0] * m + entry[1] if entry else 0
        g = h = None
        if self.order:
            g = [self.comb([(1.0, f"{jet}[1][{e * m + k}]") for k, c in enumerate(cmap)
                            if c == i]) for i in range(self.n)]
        if self.order > 1:
            h = self.sym(lambda i, j: self.comb([
                (1.0, f"{jet}[2][{(e * m + k) * m + l}]") for k, c in enumerate(cmap)
                for l, d in enumerate(cmap) if c == i and d == j]))
        return f"{jet}[0][{e}]", g, h


def _build(names, outputs, order):
    """The generated function of outputs (fields or expressions) at order."""
    n = len(names)
    w = _Writer(n, order)
    jets = [w.jet(o, names if isinstance(o, Expression) else None, tuple(range(n)))
            for o in outputs]
    parts = [[j[0] for j in jets]]
    if order:
        parts.append([t for j in jets for t in j[1]])
    if order > 1:
        parts.append([t for j in jets for row in j[2] for t in row])
    src = "\n".join([
        "def jet(xa):",
        "    " + "".join(f"x{i}, " for i in range(n)) + "= _coords(xa)" if n else "    pass",
        *w.lines,
        "    return " + "".join("(%s), " % "".join(_fmt(t) + ", " for t in p) for p in parts),
    ])
    code = compile(src, "<jet>", "exec")
    exec(code, w.ns)
    fn = w.ns["jet"]
    fn.sites = [outputs[0]] * 2 + w.sites + [outputs[0]]  # the field of each line
    ns = dict(w.ns, **_COLUMNS)  # the leaves, and the column namespace
    exec(code, ns)
    fn.columns = ns["jet"]
    fn.layout = [_layout(p) for p in parts]
    return fn


def _layout(part):
    """For Jets._stack: a part's rows of locals with a getter of their columns,
    and its rows of constants with their values as a column."""
    locs = [i for i, t in enumerate(part) if isinstance(t, str)]
    consts = [i for i, t in enumerate(part) if not isinstance(t, str)]
    columns = operator.itemgetter(*locs) if locs else lambda _: np.empty((0, 1))
    values = np.array([part[i] for i in consts]).reshape(-1, 1)
    return np.array(locs, np.intp), columns, np.array(consts, np.intp), values


def replay(points, evaluate):
    """The one replay of a failing stack: evaluate(points[k:k + 1]) for each
    point in order, as a stack of one, so that the first failing point raises
    its own error, as the loop over the points the stack stands for did."""
    return [evaluate(points[k:k + 1]) for k in range(len(points))]


_TEXT = {"sum": "{0} + {sign!r}*({1})", "product": "({0})*({1})", "constant": "{value!r}",
         "power": "({0})^{exponent!r}", "unary": "{fn_name}({0})"}


def _describe(f, depth=3):
    """Short text of a field node or expression, for error messages."""
    if isinstance(f, Expression) or f.node == "expression":
        return getattr(f, "expr", f).to_text()
    if f.node == "reindexed":
        return _describe(f.inner, depth)
    if f.node in _TEXT:
        args = [_describe(a, depth - 1) if depth else "..." for a in f.args]
        return _TEXT[f.node].format(*args, **vars(f))
    return f.chart.names[f.index] if f.node == "coordinate" else type(f).__name__


class Jets:
    """Generated value, gradient and Hessian functions of fields on one chart.

    ``jets(x, order)`` at one point x of shape (n,) returns order + 1 flat
    tuples of floats: the values, then the gradients (output-major), then
    the Hessians (output-major, row-major). At an (N, n) stack it returns
    the same parts as arrays with a column of N values in place of each
    float, shape (size, N). The function of an order is built on its first
    call; the stack runs the same code on columns, a black box's stencil
    on the whole stack, and is replayed point by point when a point fails.
    """

    def __init__(self, names, outputs):
        self.names, self.outputs, self.functions = tuple(names), tuple(outputs), {}

    def function(self, order):
        if order not in self.functions:
            self.functions[order] = _build(self.names, self.outputs, order)
        return self.functions[order]

    def __call__(self, x, order):
        fn = self.functions.get(order) or self.function(order)
        xa = np.asarray(x, float)
        if xa.ndim > 1:
            return self._stack(fn, xa, order)
        try:
            return fn(xa)
        except (ArithmeticError, ValueError) as err:
            import traceback  # only this error path reads it
            line = next(f.lineno for f in traceback.extract_tb(err.__traceback__)
                        if f.filename == "<jet>")
            if getattr(fn.sites[line - 1], "node", None) == "leaf":
                raise  # a black box's domain errors are DomainViolations already
            raise DomainViolation(f"{err} in {_describe(fn.sites[line - 1])!r}",
                                  point=xa) from None

    def _stack(self, fn, xs, order):
        try:
            with np.errstate(all="ignore", divide="raise", invalid="raise"):
                parts = fn.columns(xs)
        except (ArithmeticError, ValueError, ProjeqError):  # replayed: earlier points fail first
            rows = replay(xs, lambda p: self(p[0], order))
            size = len(self.outputs)  # part k: outputs * n^k rows of N columns
            return [np.array([r[k] for r in rows]).reshape(len(xs), size * xs.shape[-1] ** k).T
                    for k in range(order + 1)]
        blocks = [np.empty((len(p), len(xs))) for p in parts]
        for block, part, (locs, columns, consts, values) in zip(blocks, parts, fn.layout):
            block[locs] = np.array(columns(part))  # a sequence of columns is slow to assign
            block[consts] = values
        return blocks
