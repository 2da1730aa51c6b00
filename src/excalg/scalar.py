"""Exact scalars: rational numbers and Gaussian rationals.

Every computation in this package happens over Q or Q(i).  A Scalar is a
pair (re, im) of exact rationals; purely rational values keep im == 0 and
take fast paths through the arithmetic.  Values are immutable and hashable,
so they are safe to share between concurrent workers.

Serialization follows the convention "p/q" for rationals and
"(p1/q1)+(p2/q2)i" for Gaussian rationals.
"""

from __future__ import annotations

from typing import Union

try:  # gmpy2.mpq is several times faster than fractions.Fraction
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

_Q0 = _Q(0)
_Q1 = _Q(1)

ScalarLike = Union["Scalar", int, str]


class NeedsExtension(ValueError):
    """Raised when a construction or an eigen-decomposition leaves Q(i)."""


class Scalar:
    """An element of Q or Q(i), in canonical reduced form.

    The field tag is derived: a Scalar is RATIONAL when im == 0 and
    GAUSSIAN otherwise.  Denominators are kept positive and reduced by the
    underlying rational type.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=_Q0, im=_Q0):
        # Arguments must already be exact rationals (mpq/Fraction/int).
        object.__setattr__(self, "re", _Q(re))
        object.__setattr__(self, "im", _Q(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int):
            return Scalar(_Q(value))
        if isinstance(value, str):
            return Scalar.parse(value)
        return Scalar(_Q(value))

    @staticmethod
    def rational(num: int, den: int = 1) -> "Scalar":
        return Scalar(_Q(num, den))

    @staticmethod
    def gaussian(re: ScalarLike, im: ScalarLike) -> "Scalar":
        a = Scalar.of(re)
        b = Scalar.of(im)
        if a.im != 0 or b.im != 0:
            raise ValueError("gaussian() parts must be rational")
        return Scalar(a.re, b.re)

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q", "p", "(p1/q1)+(p2/q2)i", and light variants.

        Accepted shorthand: "i", "-i", "3i", "-1/2i", "2+3i", "1-i".  Only
        the coefficient of i may omit its digits; "", "()", "+" and "-"
        raise ValueError.
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
            im_part = body[split + 1 :].strip("()")
            return Scalar(_parse_q(re_part), sign * _parse_q(im_part))
        if s.endswith("i"):
            head = s[:-1]
            # split a trailing imaginary term off "a+bi" / "a-bi"
            for k in range(len(head) - 1, 0, -1):
                if head[k] in "+-" and head[k - 1] not in "+-/*(":
                    return Scalar(_parse_q(head[:k]), _parse_unit(head[k:]))
            return Scalar(_Q0, _parse_unit(head))
        return Scalar(_parse_q(s))

    # -- predicates ----------------------------------------------------

    @property
    def field(self) -> str:
        return "RATIONAL" if self.im == 0 else "GAUSSIAN"

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_rational(self) -> bool:
        return self.im == 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, o):
        if type(o) is not Scalar:
            o = _coerce(o)
            if o is NotImplemented:
                return NotImplemented
        if not self.im and not o.im:
            return _make(self.re + o.re, _Q0)
        return _make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __sub__(self, o):
        if type(o) is not Scalar:
            o = _coerce(o)
            if o is NotImplemented:
                return NotImplemented
        if not self.im and not o.im:
            return _make(self.re - o.re, _Q0)
        return _make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(o.re - self.re, o.im - self.im)

    def __mul__(self, o):
        if type(o) is not Scalar:
            o = _coerce(o)
            if o is NotImplemented:
                return NotImplemented
        if not self.im and not o.im:
            return _make(self.re * o.re, _Q0)
        return _make(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.im == 0:
            return Scalar(1 / self.re)
        n = self.re * self.re + self.im * self.im
        return Scalar(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

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
        return Scalar(self.re, -self.im)

    # -- comparisons / hashing ------------------------------------------

    def __eq__(self, o):
        if type(o) is not Scalar:
            o = _coerce(o)
            if o is NotImplemented:
                return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    # -- formatting ------------------------------------------------------

    def __str__(self):
        if self.im == 0:
            return _fmt_q(self.re)
        return f"({_fmt_q(self.re)})+({_fmt_q(self.im)})i"

    def __repr__(self):
        return f"Scalar({self})"


def _parse_q(text: str):
    t = text.strip()
    if t in ("", "+", "-"):
        raise ValueError(f"scalar literal {text!r} has no digits")
    if "/" in t:
        num, den = (int(x) for x in t.split("/"))
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        return _Q(num, den)
    return _Q(int(t))


def _parse_unit(text: str):
    """The coefficient of i, whose digits may be omitted: "", "+" and "-"
    read as 1, 1 and -1."""
    if text in ("", "+", "-"):
        return -_Q1 if text == "-" else _Q1
    return _parse_q(text)


def _fmt_q(q) -> str:
    return f"{q.numerator}/{q.denominator}"


_new = object.__new__
_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _make(re, im) -> Scalar:
    """A Scalar from parts that already have the rational type _Q; unlike
    Scalar(re, im) it does not pass them through _Q again."""
    s = _new(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return Scalar(_Q(value))
    return NotImplemented


ZERO = Scalar()
ONE = Scalar(_Q1)
I = Scalar(_Q0, _Q1)


def sc(value: ScalarLike) -> Scalar:
    """Shorthand coercion used throughout the package."""
    return Scalar.of(value)


def rand_rational(rng, height: int):
    """A bounded-height random rational, reproducible from the caller's rng."""
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return _make(_Q(num, den), _Q0)


def rand_scalar(rng, height: int, gaussian: bool = False) -> Scalar:
    a = rand_rational(rng, height)
    if not gaussian:
        return a
    b = rand_rational(rng, height)
    return _make(a.re, b.re)
