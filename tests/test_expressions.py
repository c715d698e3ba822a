"""Parser and symbolic-derivative checks against independent references.

The evaluation oracle is CPython itself: every corpus expression is
translated to Python syntax (only ^ -> **, precedence otherwise agrees)
and evaluated with math-module functions. Derivatives are checked by
central differences.
"""

import math

import numpy as np
import pytest

from projeq.errors import (
    ArityError,
    ExpressionSyntaxError,
    UnknownIdentifier,
)
from projeq.expressions import CONSTANTS, FUNCTIONS, BinOp, Call, Num, Var, parse_expression

NAMES = ("x", "y", "z")

# 100+ expressions covering the whole grammar: every function, every
# operator, nesting, precedence traps, numeric literal forms.
CORPUS = [
    "0", "1", "2.5", "1e-3", "1.5e2", ".5", "3.", "pi", "e",
    "x", "y", "z", "-x", "--x", "x + y", "x - y", "x * y", "x / y",
    "x ^ 2", "x ^ 3", "2 ^ x", "(2 + x) ^ y",
    "x + y + z", "x - y - z", "x * y * z", "x / y / z",
    "x + y * z", "(x + y) * z", "x * (y + z)", "x - (y - z)",
    "-x ^ 2", "(-x) ^ 2", "2 ^ 3 ^ 2", "(2 ^ 3) ^ 2",
    "x ^ 2 + y ^ 2 + 1", "x^2 - 2*x*y + y^2", "1 / (1 + x ^ 2)",
    "sin(x)", "cos(x)", "tan(x)", "sinh(x)", "cosh(x)", "tanh(x)",
    "exp(x)", "log(2 + x ^ 2)", "sqrt(1 + x ^ 2)", "asin(x / 4)",
    "atan(x)", "abs(1 + x ^ 2)",
    "sin(x) ^ 2 + cos(x) ^ 2", "sin(2 * pi * x)", "cos(2 * pi * x)",
    "3 + cos(2 * pi * x)", "1 / (3 + cos(2 * pi * y))",
    "sqrt(3 + cos(2 * pi * x))", "exp(-x ^ 2 - y ^ 2)",
    "tanh(x) * tanh(y)", "2 + 0.8 * tanh(x)", "5 + x ^ 2",
    "sin(x + y)", "sin(x) * cos(y) - cos(x) * sin(y)",
    "sinh(x) * cosh(x)", "cosh(x) ^ 2 - sinh(x) ^ 2",
    "log(exp(x))", "exp(log(2 + x ^ 2))", "sqrt(x ^ 2 + y ^ 2 + 4)",
    "x * y * z - x / (1 + y ^ 2) + z ^ 3",
    "(x + 1) * (x + 2) * (x + 3)", "(x - y) ^ 3",
    "1 + 2 * x + 3 * x ^ 2 + 4 * x ^ 3",
    "x ^ 2 * y ^ 3 * z ^ 4", "(x ^ 2) ^ 3",
    "-(x + y)", "-(x * y)", "-x + -y", "x - -y", "x * -y", "x / -y",
    "2 * -3", "-2 ^ 2", "atan(y / (1 + x ^ 2))",
    "sin(cos(tan(x / 5)))", "exp(sin(x) + cos(y))",
    "log(10 + abs(x))", "abs(x ^ 2 + 1) * y",
    "pi * x", "e ^ x", "2 * pi * e", "pi ^ 2 / 6",
    "x / 2 + y / 3 + z / 6", "(x + y + z) / 3",
    "0.5 * (x + y) ^ 2", "0.25 * x ^ 4 - 0.5 * x ^ 2",
    "sqrt(4 + sin(x) ^ 2)", "1 / sqrt(1 + x ^ 2)",
    "tanh(x / 2) ^ 3", "sinh(x / 3) / (2 + cosh(x / 3))",
    "(1 - tanh(x)) * (1 + tanh(x))",
    "x ^ 2 / (y ^ 2 + 1) / (z ^ 2 + 1)",
    "3 * x - 4 * y + 5 * z - 6", "x * (y - z) + y * (z - x) + z * (x - y)",
    "sin(x) / (2 + cos(x))", "exp(x / 10) * sin(y) * cos(z)",
    "log(1 + exp(x))", "sqrt(4 + x) * sqrt(4 - x)",
    "asin(sin(x / 2))", "atan(tan(x / 5))",
    "1 + 1 / (1 + 1 / (1 + x ^ 2))", "((x))", "(((x + y)))",
    "2.0e0 * x + 3.5e-1", "1e2 - 1e1 - 1e0",
]

ENVS = [
    {"x": 0.3, "y": -0.7, "z": 1.1},
    {"x": -1.2, "y": 0.45, "z": -0.05},
    {"x": 2.1, "y": 1.9, "z": 0.6},
]


def reference_eval(text, env):
    """CPython as the oracle; shared precedence once ^ becomes **."""
    ns = dict(FUNCTIONS)
    ns.update(CONSTANTS)
    ns.update(env)
    return eval(text.replace("^", "**"), {"__builtins__": {}}, ns)  # noqa: S307


def test_corpus_size():
    assert len(CORPUS) >= 100


@pytest.mark.parametrize("text", CORPUS)
def test_eval_matches_reference(text):
    ast = parse_expression(text, names=NAMES)
    for env in ENVS:
        want = reference_eval(text, env)
        got = ast.eval(env)
        assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("text", CORPUS)
def test_print_parse_round_trip(text):
    ast = parse_expression(text, names=NAMES)
    again = parse_expression(ast.to_text(), names=NAMES)
    assert again == ast


@pytest.mark.parametrize("text", CORPUS)
def test_compiled_matches_tree_eval(text):
    ast = parse_expression(text, names=NAMES)
    fn = ast.compile(NAMES)
    for env in ENVS:
        xvec = np.array([env[nm] for nm in NAMES])
        assert fn(xvec) == pytest.approx(ast.eval(env), abs=1e-13, rel=1e-13)


@pytest.mark.parametrize("text", [t for t in CORPUS if "abs" not in t])
def test_derivative_matches_finite_difference(text):
    ast = parse_expression(text, names=NAMES)
    h = 1e-6
    for env in ENVS:
        for nm in sorted(ast.free_vars()):
            d = ast.diff(nm)
            up = dict(env, **{nm: env[nm] + h})
            dn = dict(env, **{nm: env[nm] - h})
            fd = (ast.eval(up) - ast.eval(dn)) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(d.eval(env) - fd) <= 2e-6 * scale, (text, nm)


def test_polynomial_value_at_point():
    ast = parse_expression("x^2 + y^2 + 1", names=("x", "y"))
    assert ast.eval({"x": 1.0, "y": 0.0}) == 2.0


def test_cosine_profile_derivative_at_zero():
    ast = parse_expression("(3 + cos(2*pi*x))", names=("x",))
    assert ast.diff("x").eval({"x": 0.0}) == pytest.approx(0.0, abs=1e-15)


def test_second_derivative_of_quartic():
    ast = parse_expression("x^4", names=("x",))
    d2 = ast.diff("x").diff("x")
    assert d2.eval({"x": 2.0}) == pytest.approx(48.0, rel=1e-14)


def test_power_is_right_associative():
    ast = parse_expression("2^3^2", names=())
    assert ast.eval({}) == 512.0


def test_unary_minus_binds_below_power():
    ast = parse_expression("-2^2", names=())
    assert ast.eval({}) == -4.0


def test_free_vars():
    ast = parse_expression("x * sin(y) + pi", names=NAMES)
    assert ast.free_vars() == {"x", "y"}


def test_a_long_sum_is_walked_by_a_loop():
    # a left-deep tree 5,000 nodes deep; long trees compare by their text,
    # as a record's structural == recurses
    terms = ["x", "2 * y", "z^2", "1"] * 1250
    text = " + ".join(terms)
    ast = parse_expression(text, names=NAMES)
    assert ast.free_vars() == {"x", "y", "z"}
    assert ast.to_text() == text
    assert ast.compile(NAMES)(np.array([0.5, 0.25, 2.0])) == pytest.approx(1250 * 6.0)


@pytest.mark.parametrize("text", [
    "(" * 2000 + "x" + ")" * 2000,
    "exp(" * 2000 + "x" + ")" * 2000,
    "-" * 5000 + "x",
    "^".join(["x"] * 5000),
], ids=["parentheses", "calls", "unary-minus", "power-chain"])
def test_nesting_deeper_than_the_stack_is_a_syntax_error(text):
    with pytest.raises(ExpressionSyntaxError, match="nested too deeply") as info:
        parse_expression(text, names=NAMES)
    assert 0 < info.value.offset < len(text)


def test_fifty_nested_parentheses_parse_and_round_trip():
    ast = parse_expression("(" * 50 + "x + y" + ")" * 50 + " * z", names=NAMES)
    assert ast.to_text() == "(x + y) * z"
    assert parse_expression(ast.to_text(), names=NAMES) == ast


def test_syntax_error_carries_byte_offset():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("sin(x", names=("x",))
    assert info.value.offset == 5


def test_unknown_identifier_rejected():
    with pytest.raises(UnknownIdentifier):
        parse_expression("q + 1", names=("x",))


def test_unknown_function_rejected():
    with pytest.raises(UnknownIdentifier):
        parse_expression("frob(x)", names=("x",))


def test_wrong_arity_rejected():
    with pytest.raises(ArityError):
        parse_expression("sin(x, y)", names=("x", "y"))


def test_empty_input_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("", names=("x",))


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x + 1 )", names=("x",))


def test_abs_derivative_fine_away_from_zero():
    ast = parse_expression("abs(1 + x^2)", names=("x",))
    d = ast.diff("x")
    assert d.eval({"x": 3.0}) == pytest.approx(6.0, rel=1e-14)


def test_structural_equality_ignores_whitespace():
    a = parse_expression("x+y*z", names=NAMES)
    b = parse_expression("x + y * z", names=NAMES)
    assert a == b


def test_a_5000_term_sum_compares_hashes_and_prints():
    # a left-deep tree 5,000 operations high, far past the default stack
    text = " + ".join(f"{k % 9}*x*y" for k in range(5000))
    a, b = parse_expression(text, names=NAMES), parse_expression(text, names=NAMES)
    assert a == b and hash(a) == hash(b)
    assert a != parse_expression("z + " + text, names=NAMES)
    text = repr(a)
    assert text.startswith("BinOp(op='+', left=" * 4999 + "BinOp(op='*', left=BinOp(")
    assert text.endswith(", right=Var(name='y')))") and text.count("BinOp(") == 14999


def test_records_keep_their_equality_hash_and_text():
    x = Var("x")
    assert Num(1) == Num(1.0) and hash(Num(1)) == hash(Num(1.0))
    assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
    assert Call("f", (x,)) != Call("f", (x, x)) and Num(1.0) != Var("x")
    shared = BinOp("*", x, Num(2.0))
    unshared = BinOp("+", BinOp("*", Var("x"), Num(2.0)), BinOp("*", Var("x"), Num(2.0)))
    assert BinOp("+", shared, shared) == unshared
    assert hash(BinOp("+", shared, shared)) == hash(unshared)
    assert repr(parse_expression("sin(x) + -y^2", names=NAMES)) == (
        "BinOp(op='+', left=Call(fn='sin', args=(Var(name='x'),)), "
        "right=Neg(arg=BinOp(op='^', left=Var(name='y'), right=Num(value=2.0))))")


def test_an_infinite_or_huge_literal_prints_as_its_repr():
    assert Num(math.inf).to_text() == "inf" and Num(-math.inf).to_text() == "-inf"
    assert Num(math.nan).to_text() == "nan" and Num(1e16).to_text() == "1e+16"
    assert Num(3.0).to_text() == "3" and Num(-9999999999999998.0).to_text() == "-9999999999999998"
    text = parse_expression("1 + 1/(x - 2)^1e400", names=NAMES).to_text()
    assert text == "1 + 1 / (x - 2)^inf"
