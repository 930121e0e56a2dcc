"""Exact scalar tower: rationals, single-root extensions, gradients."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from painleve_ds.scalars import (
    QQ,
    Extension,
    ExtScalar,
    Gradient,
    GradingError,
    PoleError,
    format_rational,
    is_zero_scalar,
    row_reduce,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


class TestRationals:
    def test_parse_and_format_roundtrip(self):
        # rationals cross the CLI boundary as Fraction("p/q") strings
        assert format_rational(QQ(6, 4)) == "3/2"
        assert format_rational(QQ(-5)) == "-5"
        assert Fraction(format_rational(QQ(-22, 7))) == QQ(-22, 7)

    def test_division_by_zero_is_a_pole(self):
        ext = sqrt2_ext()
        with pytest.raises(PoleError):
            lift(ext, 1) / lift(ext, 0)
        with pytest.raises(PoleError):
            Gradient(QQ(1), QQ(1)) / Gradient(QQ(0), QQ(1))

    @given(rationals, rationals)
    def test_arith_matches_fraction(self, a, b):
        # lifted rationals and constant gradients compute exactly as Fraction does
        ext = sqrt2_ext()
        assert lift(ext, a) + lift(ext, b) == a + b
        assert lift(ext, a) - lift(ext, b) == a - b
        assert lift(ext, a) * lift(ext, b) == a * b
        assert (Gradient(a, QQ(0)) * Gradient(b, QQ(0))).value == a * b
        if b != 0:
            assert lift(ext, a) / lift(ext, b) == a / b
            assert (Gradient(a, QQ(0)) / Gradient(b, QQ(0))).value == a / b


def lift(ext, value):
    """The rational value as an element of ext."""
    return ExtScalar(ext, QQ(value))


def sqrt2_ext():
    return Extension("s", QQ(2))


# a non-square base, a square one, and a negative one: a homogeneous value
# is invertible over each, since (c s)(s / (c base)) = 1
BASES = [QQ(2), QQ(5, 7), QQ(4), QQ(-6)]


def _image(x):
    """The complex number x stands for, with s the principal square root."""
    return float(x.c) * (cmath.sqrt(float(x.ext.base)) if x.odd else 1)


class TestExtension:
    def test_symbol_squares_to_base(self):
        s = sqrt2_ext().root()
        assert not (s * s).odd
        assert s * s == 2
        # equal coefficients of two parities differ; a zero of either is 0
        assert s != 1 and s * s != s * 2 and s * 0 == 0 == lift(s.ext, 0)

    def test_relation_must_have_nonzero_base(self):
        with pytest.raises(ValueError):
            Extension("s", QQ(0))

    def test_inverse_of_symbol(self):
        s = sqrt2_ext().root()
        inv = 1 / s
        assert s * inv == 1
        # 1/sqrt(2) = sqrt(2)/2
        assert inv == s * QQ(1, 2)

    def test_zero_has_no_inverse(self):
        # zero, of either parity, is the only value without one
        ext = sqrt2_ext()
        for zero in (lift(ext, 0), ext.root() * 0):
            with pytest.raises(PoleError):
                1 / zero
            with pytest.raises(PoleError):
                ext.root() / zero

    def test_power_negative_exponent(self):
        s = sqrt2_ext().root()
        assert 1 / (s * s) == QQ(1, 2)

    def test_ext_reduce_collapses_rational_values(self):
        # products come back graded: s*s is the even value 2, s*s*s the odd
        # value 2s, and the printed forms are c and c*s^1
        s = sqrt2_ext().root()
        assert ((s * s).c, (s * s).odd) == (QQ(2), False)
        assert ((s * s * s).c, (s * s * s).odd) == (QQ(2), True)
        assert [repr(s * s), repr(s * s * s * QQ(-1, 3)), repr(s - s)] == ["2", "-2/3*s^1", "0"]

    def test_mixed_rings_are_refused(self):
        with pytest.raises(ValueError):
            sqrt2_ext().root() + Extension("s", QQ(3)).root()

    def test_a_sum_of_mixed_parity_is_refused(self):
        s = Extension("s", QQ(4)).root()
        for mixed in (lambda: s + 1, lambda: 1 - s, lambda: s * s - s, lambda: -s + lift(s.ext, 2)):
            with pytest.raises(GradingError, match="differ in parity"):
                mixed()
        # zero takes either parity
        assert s + 0 == s and 0 - s == -s and (s * 0 + 1) == 1

    @given(st.sampled_from(BASES), rationals, st.booleans(), rationals, rationals, st.booleans())
    def test_graded_ring_axioms(self, base, a, x_odd, b, c, odd):
        # sums are taken within one parity
        ext = Extension("s", base)
        x, y, z = ExtScalar(ext, a, x_odd), ExtScalar(ext, b, odd), ExtScalar(ext, c, odd)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert y + z == z + y and (y + z) - z == y
        assert x * (y + z) == x * y + x * z
        if a:
            assert x * (1 / x) == 1
            assert y * x / x == y

    @given(rationals, st.booleans(), rationals, st.booleans(), rationals)
    def test_field_axioms_on_sqrt2(self, a, x_odd, b, y_odd, c):
        # the field axioms that hold on homogeneous values over s^2 = 2:
        # products of either parity, sums within one, inverses of nonzero values
        ext = sqrt2_ext()
        x, y, z = ExtScalar(ext, a, x_odd), ExtScalar(ext, b, y_odd), ExtScalar(ext, c, y_odd)
        assert (y + z) - z == lift(ext, 0) + y
        assert x * y == y * x
        if a:
            assert x * (1 / x) == 1

    @given(rationals, st.booleans(), rationals, rationals, st.booleans())
    def test_field_axioms_on_non_square_root(self, a, x_odd, b, c, odd):
        # the same over s^2 = 5/7, whose root is not rational
        ext = Extension("s", QQ(5, 7))
        x, y = ExtScalar(ext, a, x_odd), ExtScalar(ext, b, odd)
        z = ext.root() * ext.root() * ExtScalar(ext, c, odd)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if a:
            assert x * (1 / x) == 1
            assert y * x / x == y

    @given(st.sampled_from(BASES), rationals, st.booleans(), rationals, st.booleans())
    def test_each_operation_matches_the_number_it_stands_for(self, base, a, x_odd, b, y_odd):
        ext = Extension("s", base)
        x, y = ExtScalar(ext, a, x_odd), ExtScalar(ext, b, y_odd)
        assert _image(x * y) == pytest.approx(_image(x) * _image(y))
        if b:
            assert _image(x / y) == pytest.approx(_image(x) / _image(y))
        if x_odd == y_odd:
            assert _image(x - y) == pytest.approx(_image(x) - _image(y), abs=1e-12)


class TestDual:
    """A gradient is a dual number: a value and one tangent."""

    def test_cubic_derivative(self):
        # f(x) = x^3 - x at x = 2: value 6, derivative 11, and the
        # partial scales linearly so seed 5 gives 55
        def f(x):
            return x * x * x - x

        out = f(Gradient(QQ(2), QQ(5)))
        assert out.value == 6
        assert out.tangent == 55

    def test_quotient_rule(self):
        # f(x, y) = x / y at (1, 2) with tangents (0, 1):
        # value 1/2, derivative -x/y^2 = -1/4
        def f(x, y):
            return x / y

        out = f(Gradient(QQ(1), QQ(0)), Gradient(QQ(2), QQ(1)))
        assert out.value == QQ(1, 2)
        assert out.tangent == QQ(-1, 4)

    def test_division_pole_in_tangent_path(self):
        # a zero value fails before any partial, in either lane
        for zero in (QQ(0), 0.0):
            with pytest.raises(PoleError):
                Gradient(QQ(1), QQ(1)) / Gradient(zero, QQ(3))
            with pytest.raises(PoleError):
                QQ(1) / Gradient(zero, QQ(3))

    def test_dual_over_extension(self):
        # d/dt sqrt(t) at t = 9/4 is 1/(2 sqrt(t)) = s/(2t) = 2s/9 with s = sqrt(t)
        ext = Extension("s", QQ(9, 4))
        x = Gradient(ext.root(), ext.root() * QQ(2, 9))
        sq = x * x
        assert sq.value == QQ(9, 4)
        assert sq.tangent == QQ(1)
        # and 1/s has derivative -s'/s^2 = -1/(2 s^3) = -s/(2 t^2)
        inv = 1 / x
        assert inv.tangent == ext.root() * QQ(-8, 81)

    @given(rationals, rationals, rationals, rationals)
    def test_product_rule(self, a, da, b, db):
        z = Gradient(a, da) * Gradient(b, db)
        assert z.value == a * b
        assert z.tangent == a * db + da * b


def _along(point, direction):
    """The point as Gradients seeded along one coordinate: tangent 1
    there and 0 elsewhere."""
    return [Gradient(x, QQ(int(i == direction))) for i, x in enumerate(point)]


class TestGradient:
    def test_difference_and_negation(self):
        # x - y, x - 1/2, 7 - x and -y at (3, 5), one direction at a time
        outcomes = []
        for direction in (0, 1):
            x, y = _along((QQ(3), QQ(5)), direction)
            outcomes.append([(z.value, z.tangent) for z in (x - y, x - QQ(1, 2), 7 - x, -y)])
        assert outcomes == [
            [(-2, 1), (QQ(5, 2), 1), (4, -1), (-5, 0)],
            [(-2, -1), (QQ(5, 2), 0), (4, 0), (-5, -1)],
        ]

    @pytest.mark.parametrize("zero", [QQ(0), 0.0])
    def test_division_by_zero_is_a_pole(self, zero):
        with pytest.raises(PoleError):
            Gradient(QQ(1), QQ(1)) / zero

    def test_quotient_rule(self):
        # f(x, y) = x / y + 3 / x at (2, -5):
        # df/dx = 1/y - 3/x^2 = -19/20, df/dy = -x/y^2 = -2/25
        def f(x, y):
            return x / y + 3 / x

        outs = [f(*_along((QQ(2), QQ(-5)), direction)) for direction in (0, 1)]
        assert [out.value for out in outs] == [QQ(11, 10)] * 2
        assert [out.tangent for out in outs] == [QQ(-19, 20), QQ(-2, 25)]


class TestSolve:
    def test_exact_solution(self):
        rows = [[QQ(2), QQ(1), QQ(5)], [QQ(1), QQ(3), QQ(10)]]
        x = [row[2] for row in row_reduce(rows, 2)]
        assert x == [QQ(1), QQ(3)]

    def test_singular_raises(self):
        rows = [[QQ(1), QQ(2), QQ(1)], [QQ(2), QQ(4), QQ(1)]]
        with pytest.raises(PoleError):
            row_reduce(rows, 2)

    def test_extension_rhs(self):
        ext = sqrt2_ext()
        s = ext.root()
        rows = [[QQ(1), QQ(1), s], [QQ(1), QQ(-1), lift(ext, 0)]]
        x = [row[2] for row in row_reduce(rows, 2)]
        # x0 = x1 = s/2
        assert x[0] == s * QQ(1, 2)
        assert x[1] == s * QQ(1, 2)

    def test_a_tall_matrix_puts_the_pivot_rows_first(self):
        # the last row repeats the first, so it reduces to zero: its
        # right-hand column is its residual, 7 - 5
        rows = [[QQ(2), QQ(1), QQ(5)], [QQ(1), QQ(3), QQ(10)], [QQ(2), QQ(1), QQ(7)]]
        reduced = row_reduce(rows, 2)
        assert [row[2] for row in reduced] == [QQ(1), QQ(3), QQ(2)]
        assert reduced[2][:2] == [0, 0]


class TestNumeric:
    def test_is_zero_scalar(self):
        assert is_zero_scalar(QQ(0))
        assert not is_zero_scalar(QQ(1, 7))
        assert is_zero_scalar(lift(sqrt2_ext(), 0))
        assert is_zero_scalar(sqrt2_ext().root() * 0)
        assert not is_zero_scalar(sqrt2_ext().root())
        # a gradient is zero only when its value and its tangent are
        assert is_zero_scalar(Gradient(QQ(0), 0.0))
        assert not is_zero_scalar(Gradient(QQ(0), QQ(1)))
        assert not is_zero_scalar(Gradient(QQ(1), QQ(0)))
