"""The recording tape and the straight-line emitter behind both kernels."""

import inspect
import linecache
import operator
import traceback
from fractions import Fraction as QQ

import pytest

from painleve_ds import painleve, scalars
from painleve_ds.scalars import Extension, ExtScalar
from painleve_ds.tracing import GradingError, Traced, compile_kernel


def _leaves(*names):
    tape = {}
    return tape, [Traced(tape, name) for name in names]


def _kernel(outputs):
    """kernel(x, y) returning the outputs as a tuple, and its source lines."""
    returns = "(" + "{}, " * len(outputs) + ")"
    kernel = compile_kernel("test kernel", "kernel(x, y)", [], returns, outputs)[0]()
    return kernel, inspect.getsource(kernel).splitlines()


def _exact(outputs):
    """The integer-pair kernel(x, y) of the outputs, and its source lines."""
    returns = "(" + "{}, " * len(outputs) + ")"
    _, exact = compile_kernel("test kernel", "kernel(x, y)", [], returns, outputs)
    return exact(), inspect.getsource(exact()).splitlines()


class TestFolding:
    @pytest.mark.parametrize(
        "form", [lambda x: x + 0, lambda x: 0 + x, lambda x: x - 0, lambda x: x * 1, lambda x: 1 * x]
    )
    def test_an_identity_gives_back_x(self, form):
        tape, (x,) = _leaves("x")
        assert form(x) is x
        assert tape == {}

    @pytest.mark.parametrize("form", [lambda x: x * 0, lambda x: 0 * x, lambda x: x - x])
    def test_an_annihilator_gives_the_int_zero(self, form):
        tape, (x,) = _leaves("x")
        zero = form(x)
        assert type(zero) is int and zero == 0
        assert tape == {}


class TestSharing:
    @pytest.mark.parametrize("op", [operator.add, operator.mul])
    def test_either_operand_order_is_one_node(self, op):
        tape, (x, y) = _leaves("x", "y")
        assert op(x, y) is op(y, x)
        assert len(tape) == 1

    @pytest.mark.parametrize("op", [operator.sub, operator.truediv])
    def test_an_ordered_operation_records_each_order(self, op):
        tape, (x, y) = _leaves("x", "y")
        assert op(x, y) is not op(y, x)
        assert op(x, y) is op(x, y)
        assert len(tape) == 2

    def test_negation_is_zero_minus_x(self):
        tape, (x,) = _leaves("x")
        negated = -x
        assert (negated.op, negated.args[0].name, negated.args[1]) == ("-", "0", x)
        assert 0 - x is negated
        assert len(tape) == 1


class TestEmitter:
    def test_a_value_used_once_is_inlined(self):
        _, (x, y) = _leaves("x", "y")
        kernel, lines = _kernel([(x + y) * x])
        assert lines[1:] == ["    return (((x + y) * x), )"]
        assert kernel(2, 3) == (10,)

    def test_a_value_used_twice_is_assigned(self):
        _, (x, y) = _leaves("x", "y")
        total = x + y
        kernel, lines = _kernel([total * total, total * x])
        assert lines[1:] == ["    v0 = x + y", "    return ((v0 * v0), (v0 * x), )"]
        assert kernel(2, 3) == (25, 10)

    def test_an_exact_zero_divisor_raises(self):
        _, (x, y) = _leaves("x", "y")
        kernel, _ = _kernel([x / y])
        assert kernel(QQ(1), QQ(2)) == (QQ(1, 2),)
        with pytest.raises(ZeroDivisionError):
            kernel(QQ(1), QQ(0))

    def test_it_is_compiled_on_its_first_call_only(self):
        # a kernel that only runs over integer pairs never compiles this text
        _, (x, y) = _leaves("x", "y")
        generic, exact = compile_kernel("lazy generic kernel", "kernel(x, y)", [], "({}, )", [x - y])
        linecache.cache.pop("<lazy generic kernel>", None)
        exact()
        assert "<lazy generic kernel>" not in linecache.cache
        first = generic()
        assert "<lazy generic kernel>" in linecache.cache
        assert generic() is first


class TestIntegerEmission:
    def test_each_node_is_a_numerator_and_a_denominator(self):
        _, (x, y) = _leaves("x", "y")
        kernel, lines = _exact([(x + y) * x])
        assert lines[1:] == [
            "    x_n, x_d = x.numerator, x.denominator",
            "    y_n, y_d = y.numerator, y.denominator",
            "    v0_n = x_n * y_d + y_n * x_d",
            "    v0_d = x_d * y_d",
            "    v1_n = v0_n * x_n",
            "    v1_d = v0_d * x_d",
            "    return (Fraction(v1_n, v1_d), )",
        ]
        assert kernel(QQ(1, 2), QQ(1, 3)) == (QQ(5, 12),)

    def test_a_denominator_of_one_and_a_factor_one_fold_away(self):
        _, (x,) = _leaves("x")
        kernel, lines = _exact([2 * x - 1, 1 / x])
        assert lines[2:] == [
            "    v0_n = 2 * x_n",
            "    v1_n = v0_n - x_d",
            "    if not x_n: raise ZeroDivisionError('x')",
            "    return (Fraction(v1_n, x_d), Fraction(x_d, x_n), )",
        ]
        assert kernel(QQ(-3, 4), QQ(2)) == (QQ(-5, 2), QQ(-4, 3))

    def test_equal_denominators_add_without_a_product(self):
        _, (x, y) = _leaves("x", "y")
        kernel, lines = _exact([(x - 1) + (x + 2)])
        assert lines[2:] == [
            "    v0_n = x_n - x_d",
            "    v1_n = x_n + 2 * x_d",
            "    v2_n = v0_n + v1_n",
            "    return (Fraction(v2_n, x_d), )",
        ]
        assert kernel(QQ(2, 3), QQ(0)) == (QQ(7, 3),)

    def test_a_zero_divisor_raises_and_is_tested_once(self):
        _, (x, y) = _leaves("x", "y")
        kernel, lines = _exact([x / y, (x + 1) / y])
        assert lines.count("    if not y_n: raise ZeroDivisionError('y')") == 1
        assert kernel(QQ(1), 2) == (QQ(1, 2), QQ(1))
        with pytest.raises(ZeroDivisionError):
            kernel(QQ(1), QQ(0))

    def test_a_leaf_or_an_int_output_is_returned_as_given(self):
        _, (x, y) = _leaves("x", "y")
        kernel, lines = _exact([x, x * 0, x * y])
        assert lines[-1] == "    return (x, 0, Fraction(v0_n, v0_d), )"
        assert kernel(3, QQ(1, 2)) == (3, 0, QQ(3, 2))

    def test_the_pair_form_takes_and_returns_unreduced_pairs(self):
        # a leaf leaves as the very pair that came in; an int, a Fraction
        # literal and a node leave as (n, d), the node unreduced
        _, (x, y) = _leaves("x", "y")
        _, exact = compile_kernel("pair kernel", "kernel(x, y)", [], "({}, {}, {}, {}, )", [x, x * 0, QQ(1, 3), x * y],
                                  pairs=True)
        kernel = exact()
        assert inspect.getsource(kernel).splitlines()[1:] == [
            "    x_n, x_d = x",
            "    y_n, y_d = y",
            "    v0_n = x_n * y_n",
            "    v0_d = x_d * y_d",
            "    return (x, (0, 1), (1, 3), (v0_n, v0_d), )",
        ]
        x_pair = (2, 4)
        out = kernel(x_pair, (3, 6))
        assert out[0] is x_pair and out[1:] == ((0, 1), (1, 3), (6, 24))

    def test_an_integral_fraction_literal_enters_as_an_int_and_folds(self):
        tape, (x,) = _leaves("x")
        assert x * QQ(1) is x and QQ(0) + x is x and x - QQ(0) is x
        zero = QQ(0) * x
        assert type(zero) is int and zero == 0
        assert (QQ(4, 2) * x).args[0].name == "2"
        assert len(tape) == 1

    def test_a_fraction_literal_is_two_int_literals(self):
        _, (x, y) = _leaves("x", "y")
        outputs = [QQ(1, 3) * x - QQ(-2, 5), y / QQ(3, 4)]
        kernel, lines = _exact(outputs)
        assert lines[1:] == [
            "    x_n, x_d = x.numerator, x.denominator",
            "    v0_d = 3 * x_d",
            "    v1_n = x_n * 5 - -2 * v0_d",
            "    v1_d = v0_d * 5",
            "    y_n, y_d = y.numerator, y.denominator",
            "    v2_n = y_n * 4",
            "    v2_d = y_d * 3",
            "    return (Fraction(v1_n, v1_d), Fraction(v2_n, v2_d), )",
        ]
        generic, text = _kernel(outputs)
        assert text[1:] == ["    return (((Fraction(1, 3) * x) - Fraction(-2, 5)), (y / Fraction(3, 4)), )"]
        for args in [(QQ(1, 2), QQ(1, 3)), (1, -2), (QQ(0), QQ(7, 9))]:
            assert kernel(*args) == generic(*args) == (QQ(args[0], 3) + QQ(2, 5), QQ(4, 3) * args[1])

    def test_it_is_compiled_on_its_first_call_only(self):
        _, (x, y) = _leaves("x", "y")
        _, exact = compile_kernel("lazy kernel", "kernel(x, y)", [], "({}, )", [x - y])
        linecache.cache.pop("<lazy kernel over integer pairs>", None)
        first = exact()
        assert "<lazy kernel over integer pairs>" in linecache.cache
        assert exact() is first


class TestGradedEmission:
    """exact("u") with u odd: each node is c or c*sqrt(b), and the text keeps c."""

    def _both(self, outputs):
        returns = "(" + "{}, " * len(outputs) + ")"
        generic, exact = compile_kernel("graded test kernel", "kernel(x, u)", [], returns, outputs)
        return generic(), exact("u")

    def test_each_parity_rule_matches_extscalar_arithmetic(self):
        tape, (x, u) = _leaves("x", "u")
        outputs = [u * u, x / u, u / x, u / (x * u), 0 - u, u * u + x, (u + u * x) * u, x * x]
        generic, graded = self._both(outputs)
        ext = Extension("s", QQ(6, 5))
        for xv, c in [(QQ(3, 7), QQ(-2, 3)), (QQ(-5), QQ(9, 4))]:
            want = generic(xv, ExtScalar(ext, c, odd=True))
            got = graded(xv, c, ext)
            assert (got, repr(got)) == (want, repr(want))
        assert type(got[-1]) is QQ  # no odd leaf reaches x * x

    def test_the_base_enters_where_an_odd_square_does(self):
        tape, (x, u) = _leaves("x", "u")
        _, graded = self._both([u * u, x / u, x * u])
        lines = inspect.getsource(graded).splitlines()
        assert lines[0] == "def kernel(x, u, ext):"
        assert sum("extbase" in line for line in lines) == 1 + 2 + 2

    def test_an_odd_zero_divisor_raises(self):
        tape, (x, u) = _leaves("x", "u")
        _, graded = self._both([x / u])
        with pytest.raises(ZeroDivisionError, match="^u$"):
            graded(QQ(1), QQ(0), Extension("s", QQ(6)))

    def test_a_sum_of_mixed_parity_is_refused(self):
        tape, (u,) = _leaves("u")
        _, exact = compile_kernel("mixed parity", "kernel(u)", [], "({}, )", [u + 1])
        assert exact()(QQ(2)) == (QQ(3),)
        with pytest.raises(GradingError, match=r"v0 = u \+ 1 adds nodes of parity 1 and 0"):
            exact("u")

    def test_the_emitter_and_the_scalar_raise_one_error(self):
        # the generic kernel on an odd ExtScalar refuses the same sum
        tape, (u,) = _leaves("u")
        generic, _ = compile_kernel("mixed parity", "kernel(u)", [], "({}, )", [u + 1])
        with pytest.raises(scalars.GradingError, match="differ in parity"):
            generic()(Extension("s", QQ(6)).root())
        assert GradingError is scalars.GradingError


class TestSharedTape:
    def test_a_node_two_traces_use_is_assigned_once(self):
        # two formulas traced one after the other on fresh leaves of one
        # tape, then emitted by one call: the sum both build is one line
        tape = {}
        first = lambda x, y: (x + y) * x
        second = lambda x, y: (y + x) - y
        outputs = [form(Traced(tape, "x"), Traced(tape, "y")) for form in (first, second)]
        kernel, lines = _kernel(outputs)
        assert lines[1:] == ["    v0 = x + y", "    return ((v0 * x), (v0 - y), )"]
        assert kernel(2, 3) == (10, 2)


class TestGeneratedSource:
    def test_the_cp6_field_reads_back(self):
        # the cp6 field is the pair part of the (3,3) flow
        source = inspect.getsource(painleve._flow((3, 3))[0])
        assert source.startswith("def rhs(t, y, a, eta):\n    q0, p0, q1, p1, _, = y\n")
        assert source.splitlines()[-1].startswith("    return (")

    def test_a_traceback_shows_the_generated_line(self):
        rhs = painleve._flow((2, 2))[0]
        with pytest.raises(ZeroDivisionError) as info:
            rhs(QQ(1), (QQ(1), QQ(1), 0), (QQ(1),) * 5, None)
        (frame,) = [f for f in traceback.extract_tb(info.tb) if f.filename == "<right-hand side of 2,2>"]
        assert frame.line.startswith("return (")
