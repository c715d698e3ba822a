"""A tiny expression language for coordinate functions.

Grammar (all binary operators left-associative except ``^``):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor')?          right-associative, binds above unary minus
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: sin cos tan sinh cosh tanh exp log sqrt asin atan abs.
Known constants: pi, e. Everything else must be a declared coordinate name.

Parsed expressions are immutable trees supporting exact symbolic
differentiation, evaluation, and precedence-aware printing such that
``parse(print(ast)) == ast``.
"""

from __future__ import annotations

import math

from .errors import (
    ArityError,
    ExpressionSyntaxError,
    UnknownIdentifier,
)
from .records import Record

__all__ = [
    "parse_expression",
    "Expression",
    "Num",
    "Var",
    "BinOp",
    "Neg",
    "Call",
    "FUNCTIONS",
    "CONSTANTS",
]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "asin": math.asin,
    "atan": math.atan,
    "abs": abs,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

# f(u), f'(u) and f''(u) of each function, as code in the argument u, the
# value v = f(u) and the first derivative d = f'(u): the one table of chain
# rules, read by Call.diff (f') and by the generated field code (jets.py);
# "recip" (1/u) serves field algebra only
CHAIN_RULES = {
    "sin": ("sin({u})", "cos({u})", "-{v}"),
    "cos": ("cos({u})", "-sin({u})", "-{v}"),
    "tan": ("tan({u})", "1.0 + {v} * {v}", "2.0 * {v} * {d}"),
    "sinh": ("sinh({u})", "cosh({u})", "{v}"),
    "cosh": ("cosh({u})", "sinh({u})", "{v}"),
    "tanh": ("tanh({u})", "1.0 - {v} * {v}", "-2.0 * {v} * {d}"),
    "exp": ("exp({u})", "{v}", "{v}"),
    "log": ("log({u})", "1.0 / {u}", "-{d} * {d}"),
    "sqrt": ("sqrt({u})", "0.5 / {v}", "-0.5 * {d} / {u}"),
    "asin": ("asin({u})", "1.0 / sqrt(1.0 - {u} * {u})", "{u} * _pow({d}, 3.0)"),
    "atan": ("atan({u})", "1.0 / (1.0 + {u} * {u})", "-2.0 * {u} * {d} * {d}"),
    # sign(u); abs is refused where its argument crosses zero on the chart
    "abs": ("abs({u})", "{u} / {v}", "0.0"),
    "recip": ("1.0 / {u}", "-{v} * {v}", "-2.0 * {v} * {d}"),
}

# printing precedence levels, higher binds tighter
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


class Expression(Record):
    """Base node. Subclasses are frozen records and compare structurally."""

    precedence = _PREC_ATOM

    def eval(self, env):
        """Value at the point env = {name: value}, by the compiled code."""
        return self.compile(tuple(env))(list(env.values()))

    def diff(self, name):
        raise NotImplementedError

    def to_text(self):
        raise NotImplementedError

    def free_vars(self):
        out = set()
        self._collect_vars(out)
        return out

    def _collect_vars(self, out):
        pass

    def compile(self, names):
        """Build a function ndarray -> float with coordinates bound by
        position: the generated code of jets.py at order 0."""
        from .jets import Jets

        jets = Jets(names, (self,))
        jets.function(0)
        return lambda x: jets(x, 0)[0][0]

    def __str__(self):
        return self.to_text()


class Num(Expression):
    _fields = ("value",)
    precedence = _PREC_ATOM

    def __init__(self, value: float):
        self._set(value=value)

    def diff(self, name):
        return Num(0.0)

    def to_text(self):
        v = self.value
        if abs(v) < 1e16 and v == int(v):  # int() of an infinity or a NaN raises
            return str(int(v))
        return repr(v)


class Var(Expression):
    _fields = ("name",)
    precedence = _PREC_ATOM

    def __init__(self, name: str):
        self._set(name=name)

    def diff(self, name):
        return Num(1.0) if name == self.name else Num(0.0)

    def to_text(self):
        return self.name

    def _collect_vars(self, out):
        out.add(self.name)


class BinOp(Expression):
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        self._set(op=op, left=left, right=right)

    @property
    def precedence(self):
        return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[self.op]

    def diff(self, name):
        a, b = self.left, self.right
        da, db = a.diff(name), b.diff(name)
        if self.op == "+":
            return _add(da, db)
        if self.op == "-":
            return _sub(da, db)
        if self.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if self.op == "/":
            # (a/b)' = a'/b - a b'/b^2
            return _sub(_div(da, b), _div(_mul(a, db), _mul(b, b)))
        # power
        if isinstance(b, Num):
            # d a^c = c a^(c-1) a'
            return _mul(_mul(b, _pow(a, Num(b.value - 1.0))), da)
        # general a^b = exp(b log a)
        term1 = _mul(db, Call("log", (a,)))
        term2 = _div(_mul(b, da), a)
        return _mul(_pow(a, b), _add(term1, term2))

    def to_text(self):
        lp = self.left.precedence
        rp = self.right.precedence
        myp = self.precedence
        lt = self.left.to_text()
        rt = self.right.to_text()
        # parenthesization guarantees parse(to_text(e)) == e structurally:
        # left-assoc ops keep a bare left child at equal precedence, the
        # right child needs parens at equal precedence; '^' is the mirror
        if self.op == "^":
            if lp <= myp:
                lt = f"({lt})"
            if rp < myp:
                rt = f"({rt})"
            return f"{lt}^{rt}"
        if lp < myp:
            lt = f"({lt})"
        if rp <= myp:
            rt = f"({rt})"
        return f"{lt} {self.op} {rt}"

    def _collect_vars(self, out):
        self.left._collect_vars(out)
        self.right._collect_vars(out)


class Neg(Expression):
    _fields = ("arg",)
    precedence = _PREC_NEG

    def __init__(self, arg: Expression):
        self._set(arg=arg)

    def diff(self, name):
        return _neg(self.arg.diff(name))

    def to_text(self):
        at = self.arg.to_text()
        if self.arg.precedence < _PREC_NEG:
            at = f"({at})"
        return f"-{at}"

    def _collect_vars(self, out):
        self.arg._collect_vars(out)


class Call(Expression):
    _fields = ("fn", "args")
    precedence = _PREC_ATOM

    def __init__(self, fn: str, args: tuple):
        self._set(fn=fn, args=args)

    def diff(self, name):
        u = self.args[0]
        # f'(u) from the chain-rule table, written out in u and v = f(u)
        outer = CHAIN_RULES[self.fn][1].format(u=f"({u.to_text()})", v=f"({self.to_text()})")
        return _mul(parse_expression(outer), u.diff(name))

    def to_text(self):
        return f"{self.fn}({', '.join(a.to_text() for a in self.args)})"

    def _collect_vars(self, out):
        for a in self.args:
            a._collect_vars(out)


# --- light constant folding for derivative trees -------------------------

def _is_num(e, v=None):
    return isinstance(e, Num) and (v is None or e.value == v)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return BinOp("^", a, b)


def _neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# --- tokenizer ------------------------------------------------------------

_SINGLE = set("+-*/^(),")


def _byte_offset(text, char_index):
    return len(text[:char_index].encode("utf-8"))


def _tokenize(text):
    tokens = []  # (kind, value, char_offset)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SINGLE:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionSyntaxError(
                    f"bad numeric literal {text[i:j]!r}", _byte_offset(text, i)
                ) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", _byte_offset(text, i))
    tokens.append(("eof", None, n))
    return tokens


class _Parser:
    def __init__(self, text, names):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = None if names is None else tuple(names)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {tok[0]!r}", _byte_offset(self.text, tok[2])
            )
        return self.advance()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ExpressionSyntaxError(
                f"unexpected trailing {tok[0]!r}", _byte_offset(self.text, tok[2])
            )
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            e = BinOp(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            e = BinOp(op, e, self.factor())
        return e

    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            # right-associative; exponent may carry its own unary minus
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        kind, value, off = tok
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                self.advance()
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if value not in FUNCTIONS:
                    raise UnknownIdentifier(value, _byte_offset(self.text, off))
                if len(args) != 1:
                    raise ArityError(value, 1, len(args), _byte_offset(self.text, off))
                return Call(value, tuple(args))
            if value in CONSTANTS:
                return Num(CONSTANTS[value])
            if value in FUNCTIONS:
                raise ExpressionSyntaxError(
                    f"function {value!r} used without arguments", _byte_offset(self.text, off)
                )
            if self.names is not None and value not in self.names:
                raise UnknownIdentifier(value, _byte_offset(self.text, off))
            return Var(value)
        raise ExpressionSyntaxError(
            f"expected a value, found {kind!r}", _byte_offset(self.text, off)
        )


def parse_expression(text, names=None):
    """Parse `text` into an expression tree.

    Parameters
    ----------
    text : str
    names : sequence of str, optional
        Declared coordinate names. When given, any identifier outside this
        list (and outside the builtin constants) raises UnknownIdentifier;
        when omitted, name resolution is deferred to evaluation time.

    Raises
    ------
    ExpressionSyntaxError
        With the byte offset of the offending position.
    UnknownIdentifier, ArityError
    """
    if not isinstance(text, str):
        raise ExpressionSyntaxError("expression must be a string", 0)
    return _Parser(text, names).parse()
