"""Initial-data expression language.

A small, sandboxed arithmetic DSL used to script initial conditions: numeric
literals, the coordinates x/y/z, random symbols X0..X{d-1}, the operators
``+ - * / ^`` (with unary minus), comparisons, a ternary conditional
``cond ? a : b``, a handful of math functions and the constant pi.

Precedence, loosest to tightest: ternary (right associative), comparisons,
additive, multiplicative, unary minus, power (right associative, binds
tighter than unary minus).  Evaluation is pure and vectorizes over numpy
arrays; comparisons yield 1.0/0.0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..equations import EULER, EquationModel, primitive_to_conserved, is_physical
from ..errors import ExprError, UnphysicalStateError
from ..grid import Field, GridSpec, field_from_interior


# --- abstract syntax -------------------------------------------------------


class InitExpr:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(InitExpr):
    value: float


@dataclass(frozen=True)
class Var(InitExpr):
    name: str  # x, y, z or pi


@dataclass(frozen=True)
class Rand(InitExpr):
    index: int


@dataclass(frozen=True)
class Unary(InitExpr):
    op: str
    operand: InitExpr


@dataclass(frozen=True)
class Binary(InitExpr):
    op: str
    left: InitExpr
    right: InitExpr


@dataclass(frozen=True)
class Ternary(InitExpr):
    cond: InitExpr
    then: InitExpr
    otherwise: InitExpr


@dataclass(frozen=True)
class Call(InitExpr):
    name: str
    args: tuple


_FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "abs": (1, np.abs),
    "sqrt": (1, np.sqrt),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

_COORDS = ("x", "y", "z")
_RAND_RE = re.compile(r"X(\d+)$")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|!=|[-+*/^<>()?:,]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprError(f"unexpected character {text[at]!r}", pos=at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.peek()
        if val != value:
            raise ExprError(f"expected {value!r}, found {val or 'end of input'!r}", pos=pos)
        return self.next()

    def parse(self) -> InitExpr:
        expr = self.ternary()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {val!r}", pos=pos)
        return expr

    def ternary(self) -> InitExpr:
        cond = self.comparison()
        if self.peek()[1] == "?":
            self.next()
            then = self.ternary()
            self.expect(":")
            otherwise = self.ternary()
            return Ternary(cond, then, otherwise)
        return cond

    def comparison(self) -> InitExpr:
        left = self.additive()
        while self.peek()[1] in ("<", "<=", ">", ">=", "==", "!="):
            op = self.next()[1]
            left = Binary(op, left, self.additive())
        return left

    def additive(self) -> InitExpr:
        left = self.multiplicative()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            left = Binary(op, left, self.multiplicative())
        return left

    def multiplicative(self) -> InitExpr:
        left = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            left = Binary(op, left, self.unary())
        return left

    def unary(self) -> InitExpr:
        if self.peek()[1] == "-":
            self.next()
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> InitExpr:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> InitExpr:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            if self.peek()[1] == "(":
                if val not in _FUNCTIONS:
                    raise ExprError(f"unknown function {val!r}", pos=pos)
                self.next()
                args = [self.ternary()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.ternary())
                self.expect(")")
                arity = _FUNCTIONS[val][0]
                if len(args) != arity:
                    raise ExprError(
                        f"{val} takes {arity} argument(s), got {len(args)}", pos=pos
                    )
                return Call(val, tuple(args))
            if val in _COORDS or val == "pi":
                return Var(val)
            m = _RAND_RE.match(val)
            if m:
                return Rand(int(m.group(1)))
            raise ExprError(f"unknown identifier {val!r}", pos=pos)
        if val == "(":
            expr = self.ternary()
            self.expect(")")
            return expr
        raise ExprError(f"unexpected {val or 'end of input'!r}", pos=pos)


def parse_expr(text: str) -> InitExpr:
    """Parse one expression into its AST."""
    return _Parser(text).parse()


# --- printing --------------------------------------------------------------

_PREC = {
    "?": 1,
    "<": 2, "<=": 2, ">": 2, ">=": 2, "==": 2, "!=": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "neg": 5,
    "^": 6,
}


def _print(node: InitExpr, parent_prec: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Rand):
        return f"X{node.index}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_print(a, 0) for a in node.args)})"
    if isinstance(node, Unary):
        s = "-" + _print(node.operand, _PREC["neg"])
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(node, Ternary):
        s = (
            f"{_print(node.cond, _PREC['?'] + 1)} ? "
            f"{_print(node.then, _PREC['?'])} : {_print(node.otherwise, _PREC['?'])}"
        )
        return f"({s})" if parent_prec > _PREC["?"] else s
    if isinstance(node, Binary):
        prec = _PREC[node.op]
        if node.op == "^":  # right associative
            s = f"{_print(node.left, prec + 1)} {node.op} {_print(node.right, prec)}"
        else:
            s = f"{_print(node.left, prec)} {node.op} {_print(node.right, prec + 1)}"
        return f"({s})" if parent_prec > prec else s
    raise TypeError(f"not an InitExpr node: {node!r}")


def print_expr(node: InitExpr) -> str:
    """Render an AST back to text; reparsing the result yields the same AST."""
    return _print(node, 0)


# --- evaluation ------------------------------------------------------------


def eval_expr(node: InitExpr, env: dict):
    """Evaluate with variables bound in ``env``; vectorizes over arrays."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "pi":
            return np.pi
        if node.name not in env:
            raise ExprError(f"coordinate {node.name!r} is not available here")
        return env[node.name]
    if isinstance(node, Rand):
        key = f"X{node.index}"
        if key not in env:
            raise ExprError(f"random symbol {key} exceeds the stochastic dimension")
        return env[key]
    if isinstance(node, Unary):
        return -eval_expr(node.operand, env)
    if isinstance(node, Call):
        arity, fn = _FUNCTIONS[node.name]
        return fn(*(eval_expr(a, env) for a in node.args))
    if isinstance(node, Ternary):
        cond = eval_expr(node.cond, env)
        a = eval_expr(node.then, env)
        b = eval_expr(node.otherwise, env)
        return np.where(np.asarray(cond) != 0.0, a, b)
    if isinstance(node, Binary):
        a = eval_expr(node.left, env)
        b = eval_expr(node.right, env)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        if op == "^":
            return np.power(a, b)
        table = {
            "<": np.less, "<=": np.less_equal,
            ">": np.greater, ">=": np.greater_equal,
            "==": np.equal, "!=": np.not_equal,
        }
        return table[op](a, b).astype(float)
    raise TypeError(f"not an InitExpr node: {node!r}")


def max_random_index(node: InitExpr) -> int:
    """Largest random-symbol index used, or -1 if none appear."""
    if isinstance(node, Rand):
        return node.index
    if isinstance(node, Unary):
        return max_random_index(node.operand)
    if isinstance(node, Binary):
        return max(max_random_index(node.left), max_random_index(node.right))
    if isinstance(node, Ternary):
        return max(
            max_random_index(node.cond),
            max_random_index(node.then),
            max_random_index(node.otherwise),
        )
    if isinstance(node, Call):
        return max((max_random_index(a) for a in node.args), default=-1)
    return -1


def _coordinate_env(grid: GridSpec) -> dict:
    """Cell-center coordinate arrays broadcast to the interior shape."""
    env = {}
    dim = grid.dim
    for axis in range(dim):
        centers = grid.cell_centers(axis)
        shape = [1] * dim
        shape[dim - 1 - axis] = grid.cells[axis]
        env[_COORDS[axis]] = centers.reshape(shape)
    return env


def eval_init(
    exprs,
    model: EquationModel,
    grid: GridSpec,
    random_vector=(),
    primitive: bool = True,
) -> Field:
    """Evaluate per-component expressions at every cell center.

    Cell averages use midpoint quadrature.  Euler data given in primitive
    variables (rho, v, p) is converted to conserved form; the result must be
    finite and physical everywhere.
    """
    if len(exprs) != model.ncomp:
        raise ExprError(
            f"need {model.ncomp} component expressions, got {len(exprs)}"
        )
    env = _coordinate_env(grid)
    for j, v in enumerate(random_vector):
        env[f"X{j}"] = float(v)
    values = np.empty((model.ncomp,) + grid.interior_shape)
    for c, expr in enumerate(exprs):
        v = eval_expr(expr, env)
        values[c] = np.broadcast_to(np.asarray(v, dtype=float), grid.interior_shape)
        if not np.isfinite(values[c]).all():
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(values[c]))[0])
            raise ExprError(
                f"component {c} evaluates to a non-finite value at cell {bad}: "
                f"{print_expr(expr)}"
            )
    if model.kind == EULER and primitive:
        values = primitive_to_conserved(model, values)
    if not is_physical(model, values):
        raise UnphysicalStateError("initial data is unphysical")
    return field_from_interior(grid, values)
