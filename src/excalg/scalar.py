"""Exact scalars: rational numbers and Gaussian rationals.

Every computation in this package happens over Q or Q(i).  A Scalar is the
cleared integer triple (x, y, d), meaning (x + y i) / d, with d > 0 and
gcd(x, y, d) = 1: :func:`excalg.tensor.reduced` in dimension one.  Equal
values are equal triples, and each operation reduces its result by one gcd.
Purely rational values keep y == 0.  Values are immutable and hashable, so
they are safe to share between concurrent workers.

Serialization follows the convention "p/q" for rationals and
"(p1/q1)+(p2/q2)i" for Gaussian rationals, each part reduced on its own.
"""

from __future__ import annotations

from math import gcd
from typing import Union

ScalarLike = Union["Scalar", int, str]


class NeedsExtension(ValueError):
    """Raised when a construction or an eigen-decomposition leaves Q(i)."""


class Scalar:
    """An element of Q or Q(i), in canonical reduced form (x + y i) / d.

    The field tag is derived: a Scalar is RATIONAL when y == 0 and GAUSSIAN
    otherwise.  ``re`` and ``im`` read the parts as fractions.Fraction.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re=0, im=0):
        # re and im are exact rationals: ints or Fractions
        p, q = int(re.numerator), int(re.denominator)
        r, s = int(im.numerator), int(im.denominator)
        v = _make(p * s, r * q, q * s)
        _set_x(self, v.x)
        _set_y(self, v.y)
        _set_d(self, v.d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self):
        from fractions import Fraction

        return Fraction(self.x, self.d)

    @property
    def im(self):
        from fractions import Fraction

        return Fraction(self.y, self.d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, str):
            return Scalar.parse(value)
        return Scalar(value)

    @staticmethod
    def rational(num: int, den: int = 1) -> "Scalar":
        if not den:
            raise ZeroDivisionError(f"rational({num}, 0)")
        return _make(num, 0, den)

    @staticmethod
    def gaussian(re: ScalarLike, im: ScalarLike) -> "Scalar":
        a = Scalar.of(re)
        b = Scalar.of(im)
        if a.y or b.y:
            raise ValueError("gaussian() parts must be rational")
        return _gaussian((a.x, a.d), (b.x, b.d))

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q", "p", "(p1/q1)+(p2/q2)i", and light variants.

        Accepted shorthand: "i", "-i", "3i", "-1/2i", "2+3i", "1-i".  Only
        the coefficient of i may omit its digits; "", "()", "+" and "-"
        raise ValueError.  Digits are ASCII: every integer is [+-]?[0-9]+.
        """
        s = text.strip().replace(" ", "")
        # strip an outermost grouping pair: "(a+bi)" -> "a+bi"
        while s.startswith("(") and s.endswith(")"):
            depth = 0
            closes_at_end = True
            for k, ch in enumerate(s):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0 and k != len(s) - 1:
                        closes_at_end = False
                        break
            if not closes_at_end:
                break
            s = s[1:-1]
        if s.startswith("(") and s.endswith("i") and ")" in s:
            # canonical "(a)+(b)i" with optionally signed parenthesized parts
            body = s[:-1]
            if not body.endswith(")"):
                raise ValueError(f"bad scalar literal: {text!r}")
            depth = 0
            split = None
            for k, ch in enumerate(body):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif ch in "+-" and depth == 0 and k > 0:
                    split = k
            if split is None:
                raise ValueError(f"bad scalar literal: {text!r}")
            re_part = body[:split].strip("()")
            sign = -1 if body[split] == "-" else 1
            num, den = _parse_q(body[split + 1 :].strip("()"))
            return _gaussian(_parse_q(re_part), (sign * num, den))
        if s.endswith("i"):
            head = s[:-1]
            # split a trailing imaginary term off "a+bi" / "a-bi"
            for k in range(len(head) - 1, 0, -1):
                if head[k] in "+-" and head[k - 1] not in "+-/*(":
                    return _gaussian(_parse_q(head[:k]), _parse_unit(head[k:]))
            return _gaussian((0, 1), _parse_unit(head))
        return _gaussian(_parse_q(s), (0, 1))

    # -- predicates ----------------------------------------------------

    @property
    def field(self) -> str:
        return "RATIONAL" if not self.y else "GAUSSIAN"

    def is_zero(self) -> bool:
        return not self.x and not self.y

    def is_rational(self) -> bool:
        return not self.y

    # -- arithmetic ----------------------------------------------------

    def __add__(self, o):
        if type(o) is not Scalar:
            o = _coerce(o)
            if o is NotImplemented:
                return NotImplemented
        d, e = self.d, o.d
        if d == e:
            return _make(self.x + o.x, self.y + o.y, d)
        return _make(self.x * e + o.x * d, self.y * e + o.y * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.x, -self.y, self.d)

    def __sub__(self, o):
        if type(o) is not Scalar:
            o = _coerce(o)
            if o is NotImplemented:
                return NotImplemented
        d, e = self.d, o.d
        if d == e:
            return _make(self.x - o.x, self.y - o.y, d)
        return _make(self.x * e - o.x * d, self.y * e - o.y * d, d * e)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, o):
        if type(o) is not Scalar:
            o = _coerce(o)
            if o is NotImplemented:
                return NotImplemented
        a, b, c, e = self.x, self.y, o.x, o.y
        if not b and not e:
            return _make(a * c, 0, self.d * o.d)
        return _make(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        return _quotient(ONE, self)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _quotient(self, o)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _quotient(o, self)

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "Scalar":
        return _make(self.x, -self.y, self.d)

    # -- comparisons / hashing ------------------------------------------

    def __eq__(self, o):
        if type(o) is not Scalar:
            o = _coerce(o)
            if o is NotImplemented:
                return NotImplemented
        return self.x == o.x and self.y == o.y and self.d == o.d

    def __hash__(self):
        if self.d == 1 and not self.y:
            return hash(self.x)  # equal to the int it equals
        return hash((self.x, self.y, self.d))

    def __bool__(self):
        return not self.is_zero()

    # -- formatting ------------------------------------------------------

    def __str__(self):
        x, y, d = self.x, self.y, self.d
        if not y:
            return f"{x}/{d}"
        g, h = gcd(x, d), gcd(y, d)
        return f"({x // g}/{d // g})+({y // h}/{d // h})i"

    def __repr__(self):
        return f"Scalar({self})"


def _int(text: str) -> int:
    """The integer of an ASCII literal [+-]?[0-9]+."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer literal {text!r}")
    return int(text)


def _parse_q(text: str):
    """(p, q) of a rational literal "p/q" or "p"; q is nonzero, maybe
    negative."""
    num, slash, den = text.partition("/")
    p, q = _int(num), _int(den) if slash else 1
    if not q:
        raise ValueError(f"zero denominator in {text!r}")
    return p, q


def _parse_unit(text: str):
    """The coefficient of i, whose digits may be omitted: "", "+" and "-"
    read as 1, 1 and -1."""
    if text in ("", "+", "-"):
        return (-1 if text == "-" else 1), 1
    return _parse_q(text)


def _gaussian(re, im) -> Scalar:
    """The Scalar re + im i of two integer pairs (p, q) meaning p / q."""
    (p, q), (r, s) = re, im
    return _make(p * s, r * q, q * s)


_new = object.__new__
_set_x = Scalar.x.__set__
_set_y = Scalar.y.__set__
_set_d = Scalar.d.__set__


def _make(x: int, y: int, d: int) -> Scalar:
    """The Scalar (x + y i) / d for d != 0, reduced to d > 0 and
    gcd(x, y, d) = 1 by one gcd: the constructor of every result."""
    if d < 0:
        x, y, d = -x, -y, -d
    g = gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    s = _new(Scalar)
    _set_x(s, x)
    _set_y(s, y)
    _set_d(s, d)
    return s


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b: (a.x + a.y i)(b.x - b.y i) b.d / (a.d (b.x^2 + b.y^2))."""
    x, y = b.x, b.y
    if not y:
        if not x:
            raise ZeroDivisionError("division by zero scalar")
        return _make(a.x * b.d, a.y * b.d, a.d * x)
    return _make((a.x * x + a.y * y) * b.d, (a.y * x - a.x * y) * b.d, a.d * (x * x + y * y))


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return Scalar(value)
    return NotImplemented


ZERO = Scalar()
ONE = Scalar(1)
I = Scalar(0, 1)


def sc(value: ScalarLike) -> Scalar:
    """Shorthand coercion used throughout the package."""
    return Scalar.of(value)


def rand_scalar(rng, height: int, gaussian: bool = False) -> Scalar:
    """A bounded-height random scalar, reproducible from the caller's rng:
    a numerator and a denominator for each part, the real part first."""
    re = rng.randint(-height, height), rng.randint(1, height)
    im = (rng.randint(-height, height), rng.randint(1, height)) if gaussian else (0, 1)
    return _gaussian(re, im)
