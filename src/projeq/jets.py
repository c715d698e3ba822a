"""Straight-line value, gradient and Hessian code for closed-form fields.

A closed-form field is a DAG of parsed expressions, ScalarField operator
nodes, ReindexedField index maps, constants and coordinates. `Jets` turns
a tuple of such fields into one Python function per derivative order
(value; value and gradient; value, gradient and Hessian), built the first
time that order is asked for: forward-mode differentiation written out
(Griewank & Walther, *Evaluating Derivatives*, ch. 13), where each node,
visited once, becomes a few lines on Python floats for its value and its
nonzero gradient and Hessian entries. Constants and structural zeros fold
while the code is written and an identical line is written once, so a
subexpression shared by several outputs (det L in every partner entry)
costs one evaluation. Any other field (NumericField) is an opaque leaf
whose own finite-difference jet the code calls once. A division by zero,
a math domain or range error, or a negative base to a fractional power
becomes DomainViolation at the point, naming the field that failed; a
power that overflows gives an infinity.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

from .errors import DerivativeNotAvailable, DomainViolation, UnknownIdentifier
from .expressions import CHAIN_RULES, FUNCTIONS, BinOp, Call, Expression, Neg, Num, Var


def _pow(base, exponent):
    """base ** exponent on floats, refusing the complex power of a negative
    base; an overflow gives an infinity, as numpy's power does."""
    if base < 0.0 and not exponent.is_integer():
        raise ValueError(f"negative base {base!r} to the power {exponent!r}")
    try:
        return base ** exponent
    except OverflowError:
        return math.copysign(math.inf, base) if exponent % 2.0 == 1.0 else math.inf


_NAMESPACE = dict(FUNCTIONS, _pow=_pow, _array=np.array, inf=math.inf, nan=math.nan)


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


def _operands_first(e):
    """The nodes of an expression tree, each after its operands."""
    out, stack = [], [e]
    while stack:
        out.append(stack.pop())
        e = out[-1]
        stack.extend((e.left, e.right) if isinstance(e, BinOp)
                     else (e.arg,) if isinstance(e, Neg) else getattr(e, "args", ()))
    return out[::-1]


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
        h = [[None] * self.n for _ in range(self.n)]
        for k in range(self.n):
            for l in range(k, self.n):
                h[k][l] = h[l][k] = entry(k, l)
        return h

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
        names of its chart; cmap maps chart coordinates to output ones."""
        key = (id(node), names, cmap)
        if key not in self.memo and isinstance(node, Expression):
            for e in _operands_first(node):  # a loop: long sums parse into deep trees
                if (id(e), names, cmap) not in self.memo:
                    self.memo[id(e), names, cmap] = self._expression(e, names, cmap)
        elif key not in self.memo:
            self.memo[key] = self._field(node, names, cmap)
        return self.memo[key]

    def _expression(self, e, names, cmap):
        if isinstance(e, Num):
            return float(e.value), self.zero, self.zero2
        if isinstance(e, Var):
            if e.name not in names:
                raise UnknownIdentifier(e.name)
            return self.coord(cmap[names.index(e.name)])
        if isinstance(e, Neg):
            a = self.jet(e.arg, names, cmap)
            return self.each(lambda t, _: self.comb([(-1.0, t)]), a, a)
        if isinstance(e, Call):
            if e.fn == "abs" and self.order:  # derivatives come from fields, on charts
                chart = self.site.chart
                vals = [Jets(chart.names, e.args)(x, 0)[0][0] for x in chart.sample(256, seed=17)]
                require_one_sign(min(vals), max(vals))
            return self.unary(e.fn, self.jet(e.args[0], names, cmap))
        a, b = self.jet(e.left, names, cmap), self.jet(e.right, names, cmap)
        if e.op == "^" and isinstance(b[0], float) and not any(b[1] or ()):  # as x^-2
            return self.power(a, b[0])
        if e.op in "+-":
            sign = 1.0 if e.op == "+" else -1.0
            return self.each(lambda ta, tb: self.comb([(1.0, ta), (sign, tb)]), a, b)
        return {"*": self.product, "/": self.quotient, "^": self.general_power}[e.op](a, b)

    def _field(self, f, names, cmap):
        node = f.node
        if node == "reindexed":
            return self.jet(f.inner, None, tuple(cmap[i] for i in f.index_map))
        args = [self.jet(a, None, cmap) for a in f.args]
        self.site = f
        if node == "constant":
            return f.value, self.zero, self.zero2
        if node == "coordinate":
            return self.coord(cmap[f.index])
        if node == "expression":
            return self.jet(f.expr, f.chart.names, cmap)
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
        """A black-box field: one call of its own jet on its chart."""
        name = f"_leaf{len(self.ns)}"
        self.ns[name] = f
        point = "xa" if cmap == tuple(range(self.n)) else self.emit(
            "_array((%s,))" % ", ".join(f"x{i}" for i in cmap))
        jet, m = self.emit(f"{name}._jet({point}, {self.order})"), len(cmap)
        g = h = None
        if self.order:
            g = [self.comb([(1.0, f"{jet}[1][{k}]") for k, c in enumerate(cmap) if c == i])
                 for i in range(self.n)]
        if self.order > 1:
            h = self.sym(lambda i, j: self.comb([
                (1.0, f"{jet}[2][{k * m + l}]") for k, c in enumerate(cmap)
                for l, e in enumerate(cmap) if c == i and e == j]))
        return f"{jet}[0][0]", g, h


def _build(names, outputs, order):
    """The generated function of outputs (fields or expressions) at order."""
    n = len(names)
    w = _Writer(n, order)
    w.site = outputs[0]  # field nodes set their own; an expression is alone
    jets = [w.jet(o, names if isinstance(o, Expression) else None, tuple(range(n)))
            for o in outputs]
    parts = [[j[0] for j in jets]]
    if order:
        parts.append([t for j in jets for t in j[1]])
    if order > 1:
        parts.append([t for j in jets for row in j[2] for t in row])
    src = "\n".join([
        "def jet(xa):",
        "    " + "".join(f"x{i}, " for i in range(n)) + "= xa.tolist()" if n else "    pass",
        *w.lines,
        "    return " + "".join("(%s), " % "".join(_fmt(t) + ", " for t in p) for p in parts),
    ])
    exec(compile(src, "<jet>", "exec"), w.ns)
    fn = w.ns["jet"]
    fn.sites = [outputs[0]] * 2 + w.sites + [outputs[0]]  # the field of each line
    return fn


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

    ``jets(x, order)`` returns order + 1 flat tuples of floats: the values,
    then the gradients (output-major), then the Hessians (output-major,
    row-major). The function of an order is built on its first call.
    """

    def __init__(self, names, outputs):
        self.names, self.outputs, self.functions = tuple(names), tuple(outputs), {}

    def function(self, order):
        if order not in self.functions:
            self.functions[order] = _build(self.names, self.outputs, order)
        return self.functions[order]

    def __call__(self, x, order):
        fn = self.functions.get(order) or self.function(order)
        xa = np.asarray(x, dtype=float)
        try:
            return fn(xa)
        except (ArithmeticError, ValueError) as err:
            line = next(f.lineno for f in traceback.extract_tb(err.__traceback__)
                        if f.filename == "<jet>")
            raise DomainViolation(f"{err} in {_describe(fn.sites[line - 1])!r}",
                                  point=xa) from None
