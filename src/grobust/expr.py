"""Tiny arithmetic expression language for problem coefficients.

Coefficient functions (drift, diffusion, running cost, payoff, ...) are given
as strings over the variables ``t, x, u, y, z`` and parsed into immutable
expression trees.  The grammar is deliberately small so that Lipschitz probing
of coefficients stays meaningful:

* binary operators ``+ - * / ^`` with standard precedence, ``^`` right
  associative, plus two-argument functions ``min(a,b)`` / ``max(a,b)``;
* unary prefix ``-`` and one-argument functions ``abs, exp, log, sqrt, sin,
  cos, pos, neg`` where ``pos(a) = max(a, 0)`` and ``neg(a) = max(-a, 0)``
  are the positive/negative parts.

Trees are built from the frozen dataclasses :class:`Lit`, :class:`Var`,
:class:`Un` and :class:`Bin`, all subclasses of the plain base class
:class:`Expr`.  (A ``typing.Union`` alias would sit in typing's cache and keep
every earlier import of this module alive after a re-import.)

Evaluation is plain IEEE double arithmetic, left to right, and broadcasts
over numpy arrays so solvers can evaluate a coefficient on a whole grid in
one call.  :func:`compile_expr` turns a tree into a numpy closure once, with
its variable-free subtrees folded; :func:`eval_expr` is that closure called
once.  Division by zero follows IEEE conventions (inf/nan, no exception);
``log``/``sqrt``/fractional powers of out-of-domain arguments raise
:class:`ExprEvalError` carrying the offending bindings.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Lit",
    "Var",
    "Un",
    "Bin",
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse_expr",
    "compile_expr",
    "eval_expr",
    "to_string",
]

VARIABLES = ("t", "x", "u", "y", "z")
UNARY_FUNCS = ("abs", "exp", "log", "sqrt", "sin", "cos", "pos", "neg")
BINARY_FUNCS = ("min", "max")

# binding powers; '^' > unary '-' > '*' '/' > '+' '-'
_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 30
_PREC_POW = 40


class ExprError(ValueError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Parse failure; ``offset`` is the byte offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    """Evaluation failure; carries the variable bindings that triggered it."""

    def __init__(self, message: str, bindings: dict):
        shown = {k: _binding_repr(v) for k, v in bindings.items()}
        super().__init__(f"{message} with bindings {shown}")
        self.bindings = dict(bindings)


def _binding_repr(v):
    arr = np.asarray(v)
    if arr.ndim == 0:
        return float(arr)
    return f"array(shape={arr.shape})"


class Expr:
    """Base class of the four expression node types below."""


@dataclass(frozen=True)
class Lit(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Un(Expr):
    op: str  # '-', 'abs', 'exp', 'log', 'sqrt', 'sin', 'cos', 'pos', 'neg'
    a: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # '+', '-', '*', '/', '^', 'min', 'max'
    a: Expr
    b: Expr


# ---------------------------------------------------------------------------
# tokenizer


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = n - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", bad_at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser (precedence climbing)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expression(0)
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return e

    def expression(self, min_bp: int) -> Expr:
        left = self.operand()
        while True:
            kind, val, off = self.peek()
            if kind != "op" or val not in ("+", "-", "*", "/", "^"):
                break
            bp = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL,
                  "/": _PREC_MUL, "^": _PREC_POW}[val]
            if bp < min_bp:
                break
            self.advance()
            # '^' is right associative, everything else left associative
            right = self.expression(bp if val == "^" else bp + 1)
            left = Bin(val, left, right)
        return left

    def operand(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Lit(float(val))
        if kind == "op" and val == "-":
            return Un("-", self.expression(_PREC_NEG))
        if kind == "op" and val == "(":
            inner = self.expression(0)
            self.expect_op(")")
            return inner
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.call(val, off)
            if val in VARIABLES:
                return Var(val)
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        raise ExprSyntaxError(
            f"expected a value, got {val!r}" if val else "unexpected end of input", off
        )

    def call(self, name: str, off: int) -> Expr:
        if name not in UNARY_FUNCS and name not in BINARY_FUNCS:
            raise ExprSyntaxError(f"unknown function {name!r}", off)
        self.expect_op("(")
        args = [self.expression(0)]
        while True:
            kind, val, voff = self.peek()
            if kind == "op" and val == ",":
                self.advance()
                args.append(self.expression(0))
            else:
                break
        self.expect_op(")")
        want = 1 if name in UNARY_FUNCS else 2
        if len(args) != want:
            raise ExprSyntaxError(
                f"{name} takes {want} argument{'s' if want > 1 else ''}, got {len(args)}",
                off,
            )
        if want == 1:
            return Un(name, args[0])
        return Bin(name, args[0], args[1])


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExprSyntaxError` with a byte offset on malformed input,
    unknown identifiers, or wrong function arity.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation


def _domain_check(name: str, arg, ok_mask, bindings):
    bad = np.logical_not(ok_mask)
    if np.any(bad):
        # a power's mask is broadcast with its exponent, so may be wider
        arr = np.broadcast_to(arg, bad.shape)
        sample = float(arr.reshape(-1)[np.argmax(bad.reshape(-1))]) \
            if arr.ndim else float(arr)
        raise ExprEvalError(f"{name} of out-of-domain argument {sample}", bindings)


_UNARY = {"-": np.negative, "abs": np.abs, "exp": np.exp, "log": np.log,
          "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
          "pos": lambda a: np.maximum(a, 0.0),
          "neg": lambda a: np.maximum(-a, 0.0)}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": np.divide, "^": np.power, "min": np.minimum,
           "max": np.maximum}
# the argument domains of log and sqrt; / and ^ mute the floating-point
# warnings of their IEEE results, and ^ rejects a NaN one
_DOMAIN = {"log": np.greater, "sqrt": np.greater_equal}
_MUTED = {"/": {"divide": "ignore", "invalid": "ignore"},
          "^": {"invalid": "ignore"}}


def _compile(e: Expr):
    """``(closure, free variables, folded value or None)`` of ``e``."""
    if isinstance(e, Lit):
        value = np.float64(e.value)
        return (lambda bindings: value), frozenset(), value
    if isinstance(e, Var):
        name = e.name

        def fn(bindings):
            if name not in bindings:
                raise ExprEvalError(f"unbound variable {name!r}", bindings)
            v = bindings[name]
            return np.float64(v) if np.ndim(v) == 0 else np.asarray(v, float)
        return fn, frozenset((name,)), None
    if not isinstance(e, (Un, Bin)):
        raise ExprError(f"not an expression node: {e!r}")
    op = e.op
    if isinstance(e, Un) and op in _UNARY:
        (a, free, _), f, ok = _compile(e.a), _UNARY[op], _DOMAIN.get(op)

        def fn(bindings):
            v = a(bindings)
            if ok is not None:
                _domain_check(op, v, ok(v, 0.0), bindings)
            return f(v)
    elif isinstance(e, Bin) and op in _BINARY:
        (a, free_a, _), (b, free_b, _) = _compile(e.a), _compile(e.b)
        f, muted, free = _BINARY[op], _MUTED.get(op), free_a | free_b

        def fn(bindings):
            u, v = a(bindings), b(bindings)
            if muted is None:
                return f(u, v)
            with np.errstate(**muted):
                r = f(u, v)
            if op == "^":
                _domain_check("power", u, ~np.isnan(r), bindings)
            return r
    else:
        kind = "unary" if isinstance(e, Un) else "binary"
        raise ExprError(f"unknown {kind} op {op!r}")
    if free:
        return fn, free, None
    try:
        with np.errstate(all="raise"):
            value = fn({})
    except (ExprEvalError, FloatingPointError):
        return fn, free, None
    return (lambda bindings: value), free, value


def compile_expr(e: Expr):
    """Compile ``e`` once into a numpy closure over the bindings dict.

    The closure performs the operations of the tree in the same order, with
    the same domain checks and errors, and so returns the same bits.  A
    variable-free subtree is evaluated once, here, unless that raises or
    meets a floating-point exception: then the call raises or warns.  The
    closure's ``free`` is the set of variables it reads and ``is_zero``
    tells whether it is the constant +0.0.
    """
    fn, free, value = _compile(e)
    fn.free = free
    fn.is_zero = value is not None and not (value or np.signbit(value))
    return fn


def eval_expr(e: Expr, bindings: dict):
    """Evaluate ``e`` at ``bindings`` (floats or broadcastable numpy arrays).

    Returns a ``np.float64`` scalar for scalar bindings, an ndarray otherwise.
    """
    return compile_expr(e)(bindings)


# ---------------------------------------------------------------------------
# printing


def _prec(e: Expr) -> int:
    if isinstance(e, Bin) and e.op in ("+", "-"):
        return _PREC_ADD
    if isinstance(e, Bin) and e.op in ("*", "/"):
        return _PREC_MUL
    if isinstance(e, Un) and e.op == "-":
        return _PREC_NEG
    if isinstance(e, Bin) and e.op == "^":
        return _PREC_POW
    return 100  # atoms and function calls never need parentheses


def _wrap(child: Expr, need_above: int) -> str:
    s = to_string(child)
    if _prec(child) < need_above:
        return f"({s})"
    return s


def to_string(e: Expr) -> str:
    """Print ``e`` so that ``parse_expr(to_string(e))`` recovers the tree.

    Note negative literals never arise from parsing (prefix ``-`` parses to a
    negation node), so literals are printed unsigned.
    """
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Un):
        if e.op == "-":
            return "-" + _wrap(e.a, _PREC_NEG)
        return f"{e.op}({to_string(e.a)})"
    if isinstance(e, Bin):
        if e.op in ("min", "max"):
            return f"{e.op}({to_string(e.a)},{to_string(e.b)})"
        bp = _prec(e)
        if e.op == "^":
            # right associative: parenthesize an exponent-left child
            return f"{_wrap(e.a, bp + 1)}^{_wrap(e.b, bp)}"
        return f"{_wrap(e.a, bp)}{e.op}{_wrap(e.b, bp + 1)}"
    raise ExprError(f"not an expression node: {e!r}")
