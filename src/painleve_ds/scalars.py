"""Exact scalar tower: rationals, algebraic root extensions, forward-mode duals.

All higher layers are generic over the scalar type.  Formula code written
with ordinary ``+ - * /`` runs unchanged over ``Fraction``, ``ExtScalar``
(rationals extended by root symbols such as ``s**2 = t``), ``Dual`` pairs
carrying a derivative, and plain ``float``/``complex`` for the numeric
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC
from typing import Sequence, Union

QQ = Fraction

Scalar = Union[Fraction, int, "ExtScalar", "Dual", float, complex]


class PoleError(ArithmeticError):
    """Division by a value that is zero (or a zero divisor) in its ring."""


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def is_rational(x) -> bool:
    return isinstance(x, (int, _RationalABC)) and not isinstance(x, bool)


class Extension:
    """A commutative ring Q[s_1,..,s_m] with relations ``s_i**k_i = base_i``.

    Base values are nonzero rationals fixed at construction time (the sample
    value of ``t`` enters through them).  The ring has Q-dimension
    ``prod(k_i)``; inversion is a linear solve in that basis, and a singular
    multiplication map means the element is a genuine zero divisor, reported
    as a :class:`PoleError`.
    """

    def __init__(self, symbols: Sequence[tuple[str, int, Fraction]]):
        names = [name for name, _, _ in symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        for name, power, base in symbols:
            if power < 2:
                raise ValueError(f"symbol {name}: power must be >= 2")
            if Fraction(base) == 0:
                raise ValueError(f"symbol {name}: base must be nonzero")
        self.symbols = tuple((name, int(power), Fraction(base)) for name, power, base in symbols)
        self.names = tuple(names)
        self.powers = tuple(power for _, power, _ in self.symbols)
        self.bases = tuple(base for _, _, base in self.symbols)
        self.dimension = 1
        for k in self.powers:
            self.dimension *= k

    def zero_exps(self) -> tuple[int, ...]:
        return (0,) * len(self.symbols)

    def lift(self, value) -> "ExtScalar":
        value = Fraction(value)
        coeffs = {} if value == 0 else {self.zero_exps(): value}
        return ExtScalar(self, coeffs)

    def symbol(self, name: str) -> "ExtScalar":
        i = self.names.index(name)
        exps = [0] * len(self.symbols)
        exps[i] = 1
        return ExtScalar(self, {tuple(exps): Fraction(1)})

    def symbol_tangent(self, name: str, base_tangent) -> "ExtScalar":
        """d(s)/dt from the defining relation s**k = base(t).

        Implicit differentiation: k s**(k-1) s' = base', so
        s' = base' * s / (k * base).
        """
        i = self.names.index(name)
        k, base = self.powers[i], self.bases[i]
        return self.symbol(name) * base_tangent / (k * base)

    def basis_exponents(self) -> list[tuple[int, ...]]:
        exps = [()]
        for k in self.powers:
            exps = [e + (j,) for e in exps for j in range(k)]
        return exps

    def __eq__(self, other):
        return isinstance(other, Extension) and self.symbols == other.symbols

    def __repr__(self):
        rels = ", ".join(f"{n}^{k}={b}" for n, k, b in self.symbols)
        return f"Extension({rels})"


class ExtScalar:
    """Element of an :class:`Extension`, stored as reduced monomial coefficients."""

    __slots__ = ("ext", "coeffs")

    def __init__(self, ext: Extension, coeffs: dict):
        self.ext = ext
        self.coeffs = coeffs

    # -- construction and normal form ------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExtScalar):
            if other.ext != self.ext:
                raise ValueError("mixed extensions")
            return other
        if is_rational(other):
            return self.ext.lift(other)
        return None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational_value(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.coeffs)

    def rational_value(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if not self.is_rational_value():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[self.ext.zero_exps()]

    def _reduce_monomial(self, exps: tuple[int, ...], coeff: Fraction):
        out_exps = []
        for e, k, base in zip(exps, self.ext.powers, self.ext.bases):
            q, r = divmod(e, k)
            if q:
                coeff *= base**q
            out_exps.append(r)
        return tuple(out_exps), coeff

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            s = coeffs.get(exps, 0) + c
            if s:
                coeffs[exps] = s
            else:
                coeffs.pop(exps, None)
        return ExtScalar(self.ext, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return ExtScalar(self.ext, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exps, c = self._reduce_monomial(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                s = coeffs.get(exps, 0) + c
                if s:
                    coeffs[exps] = s
                else:
                    coeffs.pop(exps, None)
        return ExtScalar(self.ext, coeffs)

    __rmul__ = __mul__

    def inverse(self) -> "ExtScalar":
        """Multiplicative inverse by solving ``self * x = 1`` over Q."""
        if self.is_zero():
            raise PoleError("division by zero in extension")
        if self.is_rational_value():
            return self.ext.lift(1 / self.rational_value())
        basis = self.ext.basis_exponents()
        index = {e: i for i, e in enumerate(basis)}
        n = len(basis)
        # column j of the multiplication matrix is self * basis[j]
        mat = [[Fraction(0)] * n for _ in range(n)]
        for j, bexp in enumerate(basis):
            prod = self * ExtScalar(self.ext, {bexp: Fraction(1)})
            for exps, c in prod.coeffs.items():
                mat[index[exps]][j] = c
        rhs = [Fraction(0)] * n
        rhs[index[self.ext.zero_exps()]] = Fraction(1)
        try:
            sol = solve_rational_system(mat, rhs)
        except PoleError:
            raise PoleError(f"{self!r} is a zero divisor in {self.ext!r}") from None
        coeffs = {e: c for e, c in zip(basis, sol) if c}
        return ExtScalar(self.ext, coeffs)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ext.lift(1)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def evaluate(self, symbol_values: dict):
        """Numeric image under an assignment of symbol values (float or complex)."""
        total = 0
        for exps, c in self.coeffs.items():
            term = float(c)
            for name, e in zip(self.ext.names, exps):
                if e:
                    term = term * symbol_values[name] ** e
            total = total + term
        return total

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps in sorted(self.coeffs):
            c = self.coeffs[exps]
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n for n, e in zip(self.ext.names, exps) if e
            )
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(parts)


@dataclass
class Dual:
    """Forward-mode pair (value, tangent); tangent follows the chain rule.

    Components may themselves be any scalar, nested duals included.
    """

    value: Scalar
    tangent: Scalar

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        if other is NotImplemented or other is None:
            return None
        return Dual(other, 0)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Dual(self.value + other.value, self.tangent + other.tangent)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, -self.tangent)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Dual(self.value - other.value, self.tangent - other.tangent)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Dual(other.value - self.value, other.tangent - self.tangent)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Dual(
            self.value * other.value,
            self.value * other.tangent + self.tangent * other.value,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        q = _checked_div(self.value, other.value)
        return Dual(q, _checked_div(self.tangent - q * other.tangent, other.value))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (Dual(1, 0) / self) ** (-n)
        result = Dual(1, 0)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return bool(self.value == other.value) and bool(self.tangent == other.tangent)


def _checked_div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        raise PoleError("division by zero") from None


def value_of(x):
    """Strip one Dual layer if present."""
    return x.value if isinstance(x, Dual) else x


def tangent_of(x):
    return x.tangent if isinstance(x, Dual) else 0


def is_zero_scalar(x) -> bool:
    if isinstance(x, Dual):
        return is_zero_scalar(x.value) and is_zero_scalar(x.tangent)
    if isinstance(x, ExtScalar):
        return x.is_zero()
    return x == 0


def to_numeric(x, symbol_values: dict | None = None):
    """Map an exact scalar to float/complex; Duals map componentwise."""
    if isinstance(x, Dual):
        return Dual(to_numeric(x.value, symbol_values), to_numeric(x.tangent, symbol_values))
    if isinstance(x, ExtScalar):
        return x.evaluate(symbol_values or {})
    if is_rational(x):
        return float(x)
    return x


def solve_rational_system(matrix: list[list[Fraction]], rhs: list) -> list:
    """Solve ``matrix @ x = rhs`` exactly; the matrix must be rational.

    The right-hand side may hold any scalar type that supports arithmetic
    with rationals, so parameter reconstructions stay generic.  A singular
    matrix raises :class:`PoleError`.
    """
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    b = list(rhs)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise PoleError("singular rational system")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] = b[col] * inv
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
                b[r] = b[r] - factor * b[col]
    return b
