"""Expression language: parsing and evaluation."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from grobust.expr import (BINARY_FUNCS, UNARY_FUNCS, Bin, ExprEvalError,
                          ExprSyntaxError, Lit, Un, Var, compile_expr,
                          derivative, eval_expr, parse_expr)


def ev(text, **bindings):
    return float(eval_expr(parse_expr(text), bindings))


class TestParsing:
    def test_basic_arithmetic(self):
        assert ev("x*u + 0.5*z", x=2, u=3, z=4) == 8.0

    def test_positive_part(self):
        assert ev("pos(x-1)", x=1.5) == 0.5
        assert ev("pos(x-1)", x=0.5) == 0.0

    def test_negative_part(self):
        assert ev("neg(x)", x=-2.0) == 2.0
        assert ev("neg(x)", x=3.0) == 0.0

    def test_binary_min_max(self):
        assert ev("max(x,-x)", x=-2) == 2.0
        assert ev("min(x,0.25)", x=1.0) == 0.25

    def test_simple_calls(self):
        assert ev("exp(0)") == 1.0
        assert ev("x^2", x=3) == 9.0
        assert ev("1/3") == pytest.approx(1.0 / 3.0, abs=0)

    def test_precedence_pow_over_unary_minus(self):
        # ^ binds tighter than prefix -, which binds tighter than *
        assert ev("-x^2", x=3) == -9.0
        assert ev("-x*u", x=3, u=-2) == 6.0
        assert ev("2^-2") == 0.25

    def test_pow_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_left_associativity(self):
        assert ev("x-1-2", x=10) == 7.0
        assert ev("x/2/2", x=12) == 3.0

    def test_parens(self):
        assert ev("(x+1)*(x-1)", x=3) == 8.0

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("x + $")
        assert info.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x + w")
        with pytest.raises(ExprSyntaxError):
            parse_expr("foo(x)")

    def test_arity_errors(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("min(x)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("abs(x, y)")

    def test_empty_and_trailing(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("   ")
        with pytest.raises(ExprSyntaxError):
            parse_expr("x 3")
        with pytest.raises(ExprSyntaxError, match="expected '\\)'"):
            parse_expr("min(x, 1")
        with pytest.raises(ExprSyntaxError, match="unexpected end of input"):
            parse_expr("x +")


class TestEvaluation:
    def test_unbound_variable(self):
        with pytest.raises(ExprEvalError):
            eval_expr(parse_expr("x + y"), {"x": 1.0})

    def test_log_domain_error_carries_bindings(self):
        with pytest.raises(ExprEvalError) as info:
            eval_expr(parse_expr("log(x)"), {"x": -1.0})
        assert info.value.bindings["x"] == -1.0

    def test_sqrt_domain_error(self):
        with pytest.raises(ExprEvalError):
            eval_expr(parse_expr("sqrt(x)"), {"x": -0.5})

    def test_domain_error_beside_a_slot_bound_to_none(self):
        # the HJB step binds z to None for a driver free of z
        with pytest.raises(ExprEvalError, match="'z': None"):
            eval_expr(parse_expr("sqrt(y + 100)"), {"y": -200.0, "z": None})

    def test_division_follows_ieee(self):
        assert math.isinf(ev("1/(t-0.5)", t=0.5))
        assert ev("1/(t-0.5)", t=0.75) == 4.0

    def test_array_broadcast(self):
        xs = np.linspace(-1, 1, 11)
        out = eval_expr(parse_expr("pos(x)"), {"x": xs})
        assert np.array_equal(out, np.maximum(xs, 0.0))

    def test_unary_functions(self):
        assert ev("abs(x)", x=-3.0) == 3.0
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("sqrt(x)", x=4.0) == 2.0
        assert ev("log(x)", x=1.0) == 0.0


# independent reference evaluator, deliberately written as a second
# tree-walk so the production evaluator has something to disagree with
def _reference_eval(e, env):
    if isinstance(e, Lit):
        return np.float64(e.value)
    if isinstance(e, Var):
        return np.float64(env[e.name])
    if isinstance(e, Un):
        a = _reference_eval(e.a, env)
        table = {
            "-": lambda v: -v,
            "abs": np.abs,
            "exp": np.exp,
            "log": np.log,
            "sqrt": np.sqrt,
            "sin": np.sin,
            "cos": np.cos,
            "pos": lambda v: np.maximum(v, 0.0),
            "neg": lambda v: np.maximum(-v, 0.0),
        }
        return table[e.op](a)
    a = _reference_eval(e.a, env)
    b = _reference_eval(e.b, env)
    table = {
        "+": lambda p, q: p + q,
        "-": lambda p, q: p - q,
        "*": lambda p, q: p * q,
        "/": np.divide,
        "^": np.power,
        "min": np.minimum,
        "max": np.maximum,
    }
    return table[e.op](a, b)


def _random_tree(rng, depth):
    """Random expression tree; literals are nonnegative, domains kept safe."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Lit(float(np.round(rng.uniform(0, 4), 3)))
        return Var(str(rng.choice(["t", "x", "u", "y", "z"])))
    roll = rng.random()
    if roll < 0.35:
        op = str(rng.choice(["-", "abs", "sin", "cos", "pos", "neg"]))
        return Un(op, _random_tree(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "min", "max"]))
    return Bin(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _random_text(rng, depth):
    """Random expression source over every operator and function."""
    if depth == 0 or rng.random() < 0.3:
        return str(rng.choice(["0", "1", "2.5", "t", "x", "u", "y", "z"]))
    a = _random_text(rng, depth - 1)
    roll = rng.random()
    if roll < 0.1:
        return f"-({a})"
    if roll < 0.4:
        return f"{rng.choice(UNARY_FUNCS)}({a})"
    b = _random_text(rng, depth - 1)
    if roll < 0.5:
        return f"{rng.choice(BINARY_FUNCS)}({a}, {b})"
    return f"({a}) {rng.choice(['+', '-', '*', '/', '^'])} ({b})"


def test_evaluator_matches_reference_to_last_bit():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        tree = _random_tree(rng, int(rng.integers(1, 7)))
        env = {v: float(rng.uniform(-3, 3)) for v in ("t", "x", "u", "y", "z")}
        lhs = float(eval_expr(tree, env))
        rhs = float(_reference_eval(tree, env))
        if math.isnan(lhs):
            assert math.isnan(rhs)
        else:
            assert lhs == rhs  # bit-identical


def test_array_bindings_keep_the_scalar_bits():
    # the HJB step calls a driver on array bindings: each cell has the bits
    # of the scalar evaluation, which stays a numpy scalar, and a float64
    # array binding comes back as itself
    rng = np.random.default_rng(11)
    for _ in range(300):
        tree = _random_tree(rng, int(rng.integers(1, 6)))
        fn = compile_expr(tree)
        env = {v: rng.uniform(-3, 3, size=(2, 3))
               for v in ("t", "x", "u", "y", "z")}
        got = np.broadcast_to(fn(env), (2, 3))
        cells = [fn({v: a[i, j] for v, a in env.items()})
                 for i in range(2) for j in range(3)]
        assert all(type(c) is np.float64 for c in cells)
        assert got.tobytes() == np.array(cells).tobytes()
    y = np.zeros((1, 4))
    assert compile_expr(parse_expr("y"))({"y": y}) is y


def test_free_vars():
    assert compile_expr(parse_expr("x*u + 0.5*z")).free == {"x", "u", "z"}
    assert compile_expr(parse_expr("1.5")).free == frozenset()


class TestDerivative:
    @pytest.mark.parametrize("text,slope", [
        ("0.05*z", 0.05), ("0.05*z + 0.1*u^2", 0.05), ("-(0.2*z)/2", -0.1)])
    def test_exact_slope_of_a_driver_affine_in_z(self, text, slope):
        fn = compile_expr(derivative(parse_expr(text), "z"))
        assert fn.free == frozenset()
        assert fn({}) == slope

    def test_slope_reads_what_multiplies_z(self):
        fn = compile_expr(derivative(parse_expr("0.01*x*z - 0.02*y"), "z"))
        assert fn.free == {"x"}
        assert fn({"x": 2.0}) == 0.02

    @pytest.mark.parametrize("text", ["abs(z)", "pos(z)", "z^x", "2^z",
                                      "z^0", "min(z, 1)", "1/z",
                                      "0.1*y + exp(z)"])
    def test_other_operators_over_z_give_none(self, text):
        assert derivative(parse_expr(text), "z") is None

    @pytest.mark.parametrize("text,at,slope,curvature", [
        ("u^2", {"u": 1.5}, 3.0, 2.0),
        ("(2*u + x)^2", {"u": 1.0, "x": 0.5}, 10.0, 8.0),
        ("0.1*u^2 + x*u", {"u": 1.0, "x": 2.0}, 2.2, 0.2)])
    def test_second_derivative_of_a_quadratic_is_a_constant(
            self, text, at, slope, curvature):
        # the HJB step certifies a Hamiltonian convex in u from these
        d1 = derivative(parse_expr(text), "u")
        d2 = compile_expr(derivative(d1, "u"))
        assert compile_expr(d1)(at) == pytest.approx(slope, rel=1e-15)
        assert d2.free == frozenset() and d2({}) == curvature

    def test_power_rule(self):
        # n a^(n-1) da, with a itself for n = 2
        assert derivative(parse_expr("u^2"), "u") == parse_expr("2*u*1")
        assert derivative(parse_expr("u^3"), "u") == parse_expr("3*u^2*1")
        assert (derivative(parse_expr("(0.5*u)^2.5"), "u")
                == parse_expr("2.5*(0.5*u)^1.5*(0.5*1)"))

    def test_second_derivative_of_a_cube_reads_u(self):
        d2 = compile_expr(derivative(derivative(parse_expr("u^3"), "u"), "u"))
        assert d2.free == {"u"} and d2({"u": 2.0}) == 12.0

    def test_driver_free_of_z_gives_literal_zero(self):
        assert derivative(parse_expr("-0.1*y + 0.1*u^2 + abs(x)"),
                          "z") == Lit(0.0)

    def test_literal_zero_exactly_where_the_variable_is_not_read(self):
        rng = np.random.default_rng(8)
        for _ in range(3000):
            e = parse_expr(_random_text(rng, int(rng.integers(0, 6))))
            free = compile_expr(e).free
            for v in ("z", "y", "x"):
                d = derivative(e, v)
                if d is not None:
                    assert (d == Lit(0.0)) == (v not in free), (e, v)


REIMPORT = """
import gc, importlib, sys, weakref

def fresh_lit():
    for name in [m for m in sys.modules if m.split(".")[0] == "grobust"]:
        del sys.modules[name]
    return weakref.ref(importlib.import_module("grobust.expr").Lit)

old = fresh_lit()
fresh_lit()
gc.collect()
print("freed" if old() is None else "alive")
"""


def test_reimport_frees_the_old_module():
    # a module-level typing alias over the node classes would sit in typing's
    # cache and keep each replaced copy of the module alive
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["grobust.expr"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", REIMPORT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "freed"
