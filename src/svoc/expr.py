"""Infix scalar expressions over (t, s, y, u) with exact symbolic derivatives.

Problem data (kernel integrand, running cost, free term, instant costs) is
declared as plain text such as ``"t*y*u"`` or ``"1 + t*sqrt(t)"``.  The
grammar is the usual infix one: ``+ - * /`` with standard precedence,
right-associative ``^`` for powers, unary minus, numeric literals (including
scientific notation) and the unary functions sqrt, exp, log, sin, cos, abs.

Expression trees are immutable.  Evaluation broadcasts over numpy arrays, so
one tree can be evaluated on a whole grid slice at a time.  ``differentiate``
returns a new tree with constant subtrees folded so that second derivatives
stay compact enough to read in reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

VARIABLES = ("t", "s", "y", "u")

FUNCTIONS: dict[str, Callable] = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
}


class ExpressionError(ValueError):
    """Malformed expression source or an unsupported expression request."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NonSmoothWarning(UserWarning):
    """Differentiation crossed a point of non-smoothness (abs at zero)."""


def _real(x):
    """A scalar operand as numpy float64, so that scalar division and powers
    give inf or nan like array ones instead of raising or going complex."""
    return x if isinstance(x, np.ndarray) else np.float64(x)


@dataclass(frozen=True)
class ScalarExpr:
    """Base expression node."""

    precedence: ClassVar[int] = 9

    def __post_init__(self):
        # a node's variables from its children's, once: free_vars never walks
        object.__setattr__(self, "_free", self._names())

    def evaluate(self, **env):
        raise NotImplementedError

    def diff(self, var: str) -> "ScalarExpr":
        """Partial derivative; exactly zero on a subtree that does not read var,
        even where its value overflows."""
        return self._diff(var) if var in self.free_vars() else Num(0.0)

    def _diff(self, var: str) -> "ScalarExpr":
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        """The variables the subtree reads."""
        return self._free

    def _names(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError

    def _paren(self, child: "ScalarExpr", tight: bool = False) -> str:
        p = child.precedence
        if isinstance(child, Num) and child.value < 0:
            p = 2  # a negative literal re-parses as a unary minus
        if p < self.precedence or (tight and p == self.precedence):
            return f"({child})"
        return str(child)


@dataclass(frozen=True)
class Num(ScalarExpr):
    value: float
    precedence: ClassVar[int] = 9

    def evaluate(self, **env):
        return self.value

    def __str__(self):
        if self.value < 0:
            # negative literal binds like a unary minus when re-parsed
            return repr(self.value)
        r = repr(self.value)
        return r[:-2] if r.endswith(".0") else r


@dataclass(frozen=True)
class Var(ScalarExpr):
    name: str
    precedence: ClassVar[int] = 9

    def evaluate(self, **env):
        try:
            value = env[self.name]
        except KeyError:
            raise ExpressionError(f"no value supplied for variable '{self.name}'") from None
        return value

    def _diff(self, var):
        return Num(1.0)

    def _names(self):
        return frozenset((self.name,))

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(ScalarExpr):
    child: ScalarExpr
    precedence: ClassVar[int] = 2

    def evaluate(self, **env):
        return -self.child.evaluate(**env)

    def _diff(self, var):
        return _neg(self.child.diff(var))

    def _names(self):
        return self.child.free_vars()

    def __str__(self):
        return f"-{self._paren(self.child, tight=True)}"


@dataclass(frozen=True)
class Add(ScalarExpr):
    left: ScalarExpr
    right: ScalarExpr
    precedence: ClassVar[int] = 1

    def evaluate(self, **env):
        return self.left.evaluate(**env) + self.right.evaluate(**env)

    def _diff(self, var):
        return _add(self.left.diff(var), self.right.diff(var))

    def _names(self):
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self):
        return f"{self._paren(self.left)} + {self._paren(self.right, tight=True)}"


@dataclass(frozen=True)
class Sub(ScalarExpr):
    left: ScalarExpr
    right: ScalarExpr
    precedence: ClassVar[int] = 1

    def evaluate(self, **env):
        return self.left.evaluate(**env) - self.right.evaluate(**env)

    def _diff(self, var):
        return _sub(self.left.diff(var), self.right.diff(var))

    def _names(self):
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self):
        return f"{self._paren(self.left)} - {self._paren(self.right, tight=True)}"


@dataclass(frozen=True)
class Mul(ScalarExpr):
    left: ScalarExpr
    right: ScalarExpr
    precedence: ClassVar[int] = 2

    def evaluate(self, **env):
        return self.left.evaluate(**env) * self.right.evaluate(**env)

    def _diff(self, var):
        return _add(
            _mul(self.left.diff(var), self.right),
            _mul(self.left, self.right.diff(var)),
        )

    def _names(self):
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self):
        return f"{self._paren(self.left)}*{self._paren(self.right, tight=True)}"


@dataclass(frozen=True)
class Div(ScalarExpr):
    left: ScalarExpr
    right: ScalarExpr
    precedence: ClassVar[int] = 2

    def evaluate(self, **env):
        return _real(self.left.evaluate(**env)) / self.right.evaluate(**env)

    def _diff(self, var):
        num = _sub(
            _mul(self.left.diff(var), self.right),
            _mul(self.left, self.right.diff(var)),
        )
        return _div(num, _pow(self.right, Num(2.0)))

    def _names(self):
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self):
        return f"{self._paren(self.left)}/{self._paren(self.right, tight=True)}"


@dataclass(frozen=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: ScalarExpr
    precedence: ClassVar[int] = 3

    def evaluate(self, **env):
        return _real(self.base.evaluate(**env)) ** self.exponent.evaluate(**env)

    def _diff(self, var):
        if isinstance(self.exponent, Num):
            # d(a^c) = c*a^(c-1)*a'
            c = self.exponent.value
            return _mul(
                _mul(Num(c), _pow(self.base, Num(c - 1.0))),
                self.base.diff(var),
            )
        # general rule via a^b = exp(b*log(a))
        return _mul(
            self,
            _add(
                _mul(self.exponent.diff(var), Call("log", self.base)),
                _mul(self.exponent, _div(self.base.diff(var), self.base)),
            ),
        )

    def _names(self):
        return self.base.free_vars() | self.exponent.free_vars()

    def __str__(self):
        # right-associative: parenthesize a compound base, not the exponent
        return f"{self._paren(self.base, tight=True)}^{self._paren(self.exponent)}"


@dataclass(frozen=True)
class Call(ScalarExpr):
    func: str
    arg: ScalarExpr
    precedence: ClassVar[int] = 9

    def evaluate(self, **env):
        return FUNCTIONS[self.func](self.arg.evaluate(**env))

    def _diff(self, var):
        inner = self.arg.diff(var)
        if self.func == "sqrt":
            outer = _div(Num(1.0), _mul(Num(2.0), Call("sqrt", self.arg)))
        elif self.func == "exp":
            outer = self
        elif self.func == "log":
            outer = _div(Num(1.0), self.arg)
        elif self.func == "sin":
            outer = Call("cos", self.arg)
        elif self.func == "cos":
            outer = _neg(Call("sin", self.arg))
        elif self.func == "abs":
            warnings.warn(
                "differentiating abs(...): derivative is undefined where the "
                "argument vanishes",
                NonSmoothWarning,
                stacklevel=4,
            )
            outer = _div(self.arg, self)
        else:  # pragma: no cover - parser rejects unknown functions
            raise ExpressionError(f"unknown function '{self.func}'")
        return _mul(outer, inner)

    def _names(self):
        return self.arg.free_vars()

    def __str__(self):
        return f"{self.func}({self.arg})"


# --- folding constructors used by differentiation -------------------------


def _is_num(e: ScalarExpr, value: float | None = None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def _add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def _pow(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        with np.errstate(all="ignore"):
            value = float(_real(a.value) ** b.value)
        if np.isfinite(value):  # an overflow or a complex power stays unfolded
            return Num(value)
    return Pow(a, b)


def _neg(a: ScalarExpr) -> ScalarExpr:
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


# --- tokenizer and recursive-descent parser --------------------------------

_OPS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_exp = False
            while j < n:
                cj = text[j]
                if cj.isdigit() or cj == ".":
                    j += 1
                elif cj in "eE" and not seen_exp:
                    # exponent must be followed by digits (optionally signed)
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        seen_exp = True
                        j = k + 1
                    else:
                        break
                else:
                    break
            try:
                float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad numeric literal '{text[i:j]}'", i) from None
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(("op", "^", i))
            i += 2
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ExpressionError(f"expected '{value}', found '{text or 'end of input'}'", pos)

    def parse(self) -> ScalarExpr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input '{text}'", pos)
        return e

    def expr(self) -> ScalarExpr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                e = Add(e, rhs) if text == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> ScalarExpr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.unary()
                e = Mul(e, rhs) if text == "*" else Div(e, rhs)
            else:
                return e

    def unary(self) -> ScalarExpr:
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.next()
            child = self.unary()
            return child if text == "+" else _neg(child)
        return self.power()

    def power(self) -> ScalarExpr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return Pow(base, self.unary())
        return base

    def atom(self) -> ScalarExpr:
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ExpressionError(f"unknown function '{text}'", pos)
                self.next()
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != 1:
                    raise ExpressionError(
                        f"function '{text}' takes 1 argument, got {len(args)}", pos
                    )
                return Call(text, args[0])
            if text in VARIABLES:
                return Var(text)
            if text in FUNCTIONS:
                raise ExpressionError(f"function '{text}' used without arguments", pos)
            raise ExpressionError(f"unknown identifier '{text}'", pos)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExpressionError(
            f"expected a value, found '{text or 'end of input'}'", pos
        )


def parse_expression(text: str) -> ScalarExpr:
    """Parse infix source into an immutable expression tree."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()


def differentiate(expression: ScalarExpr, var: str) -> ScalarExpr:
    """Exact partial derivative of ``expression`` with respect to y or u."""
    if var not in ("y", "u"):
        raise ExpressionError(f"can only differentiate with respect to y or u, not {var!r}")
    return expression.diff(var)


# --- separation of the outer time ------------------------------------------

_ONE = Num(1.0)


def _merge(terms) -> dict:
    """Sum terms (a, b) with equal a; a constant a moves into b, zero terms drop."""
    out: dict = {}
    for a, b in terms:
        if isinstance(a, Num):
            a, b = _ONE, _mul(a, b)
        if _is_num(b, 0.0):
            continue
        out[a] = _add(out[a], b) if a in out else b
    return out or {_ONE: Num(0.0)}


def _split(e: ScalarExpr) -> dict | None:
    names = e.free_vars()
    if "t" not in names:
        return {_ONE: e}
    if names == {"t"}:
        return {e: _ONE}
    if isinstance(e, Neg):
        inner = _split(e.child)
        return None if inner is None else {a: _neg(b) for a, b in inner.items()}
    if not isinstance(e, (Add, Sub, Mul, Div)):
        return None  # a power or call mixing t with other variables
    left, right = _split(e.left), _split(e.right)
    if left is None or right is None:
        return None
    if isinstance(e, Add):
        return _merge([*left.items(), *right.items()])
    if isinstance(e, Sub):
        return _merge([*left.items(), *((a, _neg(b)) for a, b in right.items())])
    if isinstance(e, Mul):
        return _merge([(_mul(a1, a2), _mul(b1, b2))
                       for a1, b1 in left.items() for a2, b2 in right.items()])
    if len(right) != 1:
        return None  # a quotient by a sum of t-dependent terms
    ((a2, b2),) = right.items()
    return _merge([(_div(a, a2), _div(b, b2)) for a, b in left.items()])


def separate(expression: ScalarExpr) -> tuple[tuple[ScalarExpr, ScalarExpr], ...] | None:
    """Terms (a_i, b_i) with expression = sum_i a_i * b_i, every a_i reading only
    t and every b_i free of t; None when the outer time does not separate.

    The split is built term by term over sums, differences, products and
    quotients by a single term; a power or call must be t-only or t-free as a
    whole, so ``sin(t*s)*y`` and ``exp(t*y)`` give None.  A t-free expression
    is the single term (1, expression).
    """
    terms = _split(expression)
    return None if terms is None else tuple(terms.items())
