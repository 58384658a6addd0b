"""Arithmetic expressions in the variable t: parser, evaluator, printer.

Grammar (recursive descent, whitespace ignored):

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | 'pi' | 'e' | 't'
             | NAME '(' sum ')'           # sin cos exp log sqrt
             | '(' sum ')'

'^' binds tighter than unary minus, so "-2^2" means -(2^2).  Numeric
literals accept decimal and scientific notation in decimal digits; any
other digit character, such as "²", is a syntax error with a column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ExpressionError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class UnknownIdentifierError(ExpressionSyntaxError):
    pass


class EvaluationError(ExpressionError):
    def __init__(self, message: str, node: "Expression", t: float):
        super().__init__(f"{message} in '{node.to_text()}' at t = {t:g}")
        self.node = node
        self.t = t


def _check(node: "Expression", t, bad, message: str) -> None:
    """Raise EvaluationError at the first t where ``bad`` holds."""
    if bad.any():
        first = np.flatnonzero(bad)[0]
        raise EvaluationError(message, node, float(np.ravel(t)[first]))


def _finite(node: "Expression", t, result, message: str = "non-finite result"):
    finite = np.isfinite(result)
    if not finite.all():
        _check(node, t, ~finite, message)
    return result


class Expression:
    """Immutable expression tree node.

    ``evaluate`` takes a float or a numpy array of times and returns values
    of the same shape (a numpy float for a scalar t): one ufunc call per
    tree node, whatever the number of points; a constant is a read-only
    broadcast view, so no array is filled for it.  Domain errors and
    non-finite intermediate results raise EvaluationError naming the first
    offending t.
    """

    def evaluate(self, t):
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Number(Expression):
    value: float

    def evaluate(self, t):
        return np.broadcast_to(np.float64(self.value), np.shape(t))[()]

    def to_text(self):
        return repr(self.value)


@dataclass(frozen=True)
class TimeVar(Expression):
    def evaluate(self, t):
        return np.asarray(t, dtype=float)[()]

    def to_text(self):
        return "t"


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression

    def evaluate(self, t):
        return np.negative(self.operand.evaluate(t))

    def to_text(self):
        return f"(-{self.operand.to_text()})"


_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
              "^": np.power}


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def evaluate(self, t):
        a = self.left.evaluate(t)
        b = self.right.evaluate(t)
        if self.op == "/":
            _check(self, t, b == 0.0, "division by zero")
        with np.errstate(all="ignore"):
            result = _OPERATORS[self.op](a, b)
        return _finite(self, t, result, "invalid power" if self.op == "^" else
                       "non-finite result")

    def to_text(self):
        return f"({self.left.to_text()}{self.op}{self.right.to_text()})"


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str
    arg: Expression

    def evaluate(self, t):
        x = self.arg.evaluate(t)
        if self.name == "log":
            _check(self, t, x <= 0.0, "log of non-positive value")
        elif self.name == "sqrt":
            _check(self, t, x < 0.0, "sqrt of negative value")
        with np.errstate(all="ignore"):
            result = _FUNCTIONS[self.name](x)
        return _finite(self, t, result)

    def to_text(self):
        return f"{self.name}({self.arg.to_text()})"


def is_constant(node: Expression) -> bool:
    """Whether the tree has no ``t``, so that its value is the same at every time."""
    return not isinstance(node, TimeVar) and all(
        is_constant(child) for child in vars(node).values() if isinstance(child, Expression))


class _Token(NamedTuple):
    kind: str  # "number" | "name" | one of "+-*/^()" | "end"
    text: str
    position: int


# \d is the decimal digits float() reads; a digit that is not decimal, such
# as "²", is a letter of a name here and so a syntax error in the parser.
_TOKEN = re.compile(r"""
    \s*(?:
        (?P<number> (?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)? )
      | (?P<name> [^\W\d]\w* )
      | (?P<op> [-+*/^()] )
      | (?P<end> \Z )
    )""", re.VERBOSE)


def _tokenize(text: str) -> list[_Token]:
    tokens, pos = [], 0
    while not tokens or tokens[-1].kind != "end":
        match = _TOKEN.match(text, pos)
        if match is None:
            pos = len(text) - len(text[pos:].lstrip())
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        group, pos = match.lastgroup, match.end()
        token = match[group]
        tokens.append(_Token(token if group == "op" else group, token, match.start(group)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ExpressionSyntaxError(f"expected {kind!r}, found {found}", tok.position)
        return self.advance()

    def parse_sum(self) -> Expression:
        node = self.parse_product()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinaryOp(op, node, self.parse_product())
        return node

    def parse_product(self) -> Expression:
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinaryOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expression:
        if self.peek().kind == "-":
            self.advance()
            return Negate(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            # Right-associative; the exponent may carry its own sign.
            return BinaryOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExpressionSyntaxError(f"number {tok.text} is too large for a float",
                                            tok.position)
            return Number(value)
        if tok.kind == "name":
            self.advance()
            if tok.text == "t":
                return TimeVar()
            if tok.text in _CONSTANTS:
                return Number(_CONSTANTS[tok.text])
            if tok.text in _FUNCTIONS:
                self.expect("(")
                arg = self.parse_sum()
                self.expect(")")
                return FunctionCall(tok.text, arg)
            raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.position)
        if tok.kind == "(":
            self.advance()
            node = self.parse_sum()
            self.expect(")")
            return node
        found = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ExpressionSyntaxError(f"expected a value, found {found}", tok.position)


def parse(text: str) -> Expression:
    """Parse an expression string into an immutable tree."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_sum()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing input {tail.text!r}", tail.position)
    return node


ZERO = Number(0.0)
