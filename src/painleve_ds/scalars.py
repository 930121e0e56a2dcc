"""Exact scalar tower: rationals, one adjoined square root, dual numbers.

All higher layers are generic over the scalar type.  Formula code written
with ordinary ``+ - * /`` runs unchanged over ``Fraction``, ``ExtScalar``
(a rational times a power of one root symbol, such as ``s**2 = t``),
``Gradient`` values carrying their derivative along one direction, and
plain ``float``/``complex`` for the numeric backend.

An ``ExtScalar`` is homogeneous: c or c*s, never a + b*s.  The package's
formulas are graded by the root's parity, as the kernels ``tracing`` emits
are, so each value they form has one parity; a sum that would mix the two
raises :class:`GradingError` rather than widen to the whole field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC
from operator import add, sub

QQ = Fraction


class PoleError(ArithmeticError):
    """Division by a value that is zero in its ring."""


class GradingError(ValueError):
    """A sum of a nonzero even and a nonzero odd value of Q(sqrt b)."""


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def is_rational(x) -> bool:
    return isinstance(x, (int, _RationalABC)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Extension:
    """One square root s, s**2 = base, adjoined to Q for homogeneous values.

    The base is a nonzero rational fixed at construction time.  Its values
    are c and c*s, so every nonzero one is invertible, even where the base
    is a square.
    """

    symbol: str
    base: Fraction

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        if self.base == 0:
            raise ValueError(f"symbol {self.symbol}: base must be nonzero")

    def root(self) -> "ExtScalar":
        """The adjoined symbol s."""
        return ExtScalar(self, Fraction(1), odd=True)


class ExtScalar:
    """Value c * s**odd of an :class:`Extension`: a Fraction c and a parity.
    Zero takes either parity."""

    __slots__ = ("ext", "c", "odd")

    def __init__(self, ext: Extension, c, odd=False):
        self.ext, self.c, self.odd = ext, c, odd

    def _lift(self, other):
        """other's (c, odd) in this ring; None for a foreign type."""
        if isinstance(other, ExtScalar):
            if other.ext is not self.ext and other.ext != self.ext:
                raise ValueError("mixed extensions")
            return other.c, other.odd
        return (other, False) if is_rational(other) else None

    def _sum(self, other, op):
        if (lifted := self._lift(other)) is None:
            return NotImplemented
        c, odd = lifted
        if odd != self.odd and c and self.c:
            raise GradingError(f"{self!r} and {other!r} differ in parity")
        return ExtScalar(self.ext, op(self.c, c), self.odd if self.c else odd)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, sub)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return ExtScalar(self.ext, -self.c, self.odd)

    def __mul__(self, other):
        if (lifted := self._lift(other)) is None:
            return NotImplemented
        c, odd = lifted
        if odd and self.odd:  # s * s = base
            return ExtScalar(self.ext, self.c * c * self.ext.base)
        return ExtScalar(self.ext, self.c * c, self.odd or odd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (lifted := self._lift(other)) is None:
            return NotImplemented
        c, odd = lifted
        if not c:
            raise PoleError(f"division of {self!r} by zero in {self.ext!r}")
        if odd and not self.odd:  # x / (c s) = x s / (c base)
            c *= self.ext.base
        return ExtScalar(self.ext, self.c / c, self.odd != odd)

    def __rtruediv__(self, other):
        return ExtScalar(self.ext, Fraction(other)) / self if is_rational(other) else NotImplemented

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if (lifted := self._lift(other)) is None:
            return NotImplemented
        c, odd = lifted
        return self.c == c and (odd == self.odd or not c)

    __hash__ = None

    def __repr__(self):
        if not self.c:
            return "0"
        return f"{self.c}*{self.ext.symbol}^1" if self.odd else f"{self.c}"


class Gradient:
    """A dual number: a value and its tangent, the derivative along one
    direction, such as d/dt along a flow or a root's rate.

    The tangent may be any scalar; it follows the scalar type of the
    values it is combined with, so float inputs give a float tangent,
    rational or root-extension inputs an exact one, and recording scalars
    a tape.  A gradient of several variables takes one pass per direction.
    """

    __slots__ = ("value", "tangent")

    def __init__(self, value, tangent):
        self.value = value
        self.tangent = tangent

    def __add__(self, other):
        if isinstance(other, Gradient):
            return Gradient(self.value + other.value, self.tangent + other.tangent)
        return Gradient(self.value + other, self.tangent)

    __radd__ = __add__

    def __neg__(self):
        return Gradient(-self.value, -self.tangent)

    def __sub__(self, other):
        if isinstance(other, Gradient):
            return Gradient(self.value - other.value, self.tangent - other.tangent)
        return Gradient(self.value - other, self.tangent)

    def __rsub__(self, other):
        return Gradient(other - self.value, -self.tangent)

    def __mul__(self, other):
        if isinstance(other, Gradient):
            u, v = self.value, other.value
            return Gradient(u * v, u * other.tangent + self.tangent * v)
        return Gradient(self.value * other, self.tangent * other)

    __rmul__ = __mul__

    # a zero divisor fails on the value, before the tangent is computed

    def __truediv__(self, other):
        if isinstance(other, Gradient):
            # quotient rule (a/v)' = (a' - (a/v) v') / v, one reciprocal
            inv = _checked_div(1, other.value)
            value = self.value * inv
            return Gradient(value, (self.tangent - value * other.tangent) * inv)
        value = _checked_div(self.value, other)
        return Gradient(value, self.tangent / other)

    def __rtruediv__(self, other):
        inv = _checked_div(1, self.value)
        value = other * inv
        return Gradient(value, -(value * self.tangent) * inv)


def _checked_div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        raise PoleError("division by zero") from None


def value_of(x):
    """The value of a Gradient; any other scalar is its own value."""
    return x.value if isinstance(x, Gradient) else x


def tangent_of(x):
    """The tangent of a Gradient; 0 for a constant."""
    return x.tangent if isinstance(x, Gradient) else 0


def is_zero_scalar(x) -> bool:
    if isinstance(x, Gradient):
        return is_zero_scalar(x.value) and is_zero_scalar(x.tangent)
    return x == 0


def row_reduce(rows: list, n: int) -> list:
    """Gauss-Jordan elimination of the first n columns of ``rows``, exactly.

    Those columns must be rational; the columns after them may hold any
    scalar type that supports arithmetic with rationals, and ride along:
    with a right-hand side there, the first n rows end holding the
    solution.  A tall matrix is eliminated as it stands, pivoting over all
    rows: the first n rows of the result are the pivot rows, reduced to
    the identity in the first n columns, and the others are zero there.
    Zero entries of a pivot row are skipped.  A matrix without full
    column rank raises :class:`PoleError`.
    """
    a = [[*map(Fraction, row[:n]), *row[n:]] for row in rows]
    for col in range(n):
        pivot_row = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if pivot_row is None:
            raise PoleError("singular rational system")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv if v else v for v in a[col]]
        for r, row in enumerate(a):
            if r != col and row[col] != 0:
                factor = row[col]
                a[r] = [v - factor * w if w else v for v, w in zip(row, a[col])]
    return a
