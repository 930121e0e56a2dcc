"""The recording tape and the straight-line emitter behind both kernels."""

import inspect
import operator
import traceback
from fractions import Fraction as QQ

import pytest

from painleve_ds import painleve
from painleve_ds.tracing import NESTING_CAP, Traced, compile_kernel


def _leaves(*names):
    tape = {}
    return tape, [Traced(tape, name) for name in names]


def _kernel(outputs):
    """kernel(x, y) returning the outputs as a tuple, and its source lines."""
    returns = "(" + "{}, " * len(outputs) + ")"
    kernel = compile_kernel("test kernel", "kernel(x, y)", [], returns, outputs)
    return kernel, inspect.getsource(kernel).splitlines()


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

    @pytest.mark.parametrize("depth", [NESTING_CAP, NESTING_CAP + 1])
    def test_a_chain_deeper_than_the_cap_is_assigned(self, depth):
        _, (x, y) = _leaves("x", "y")
        value = x
        for _ in range(depth):
            value = value * y
        kernel, lines = _kernel([value])
        assigned = [line for line in lines if " = " in line]
        assert len(assigned) == (depth > NESTING_CAP)
        assert kernel(2, 3) == (2 * 3**depth,)

    def test_an_exact_zero_divisor_raises(self):
        _, (x, y) = _leaves("x", "y")
        kernel, _ = _kernel([x / y])
        assert kernel(QQ(1), QQ(2)) == (QQ(1, 2),)
        with pytest.raises(ZeroDivisionError):
            kernel(QQ(1), QQ(0))


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
        source = inspect.getsource(painleve._traced_system("cp6", 2, 6)[0])
        assert source.startswith("def field(pairs, t, a, eta):\n    (q0, p0), (q1, p1), = pairs\n")
        assert source.splitlines()[-1].startswith("    return ((")

    def test_a_traceback_shows_the_generated_line(self):
        field = painleve._traced_system("p6", 1, 5)[0]
        with pytest.raises(ZeroDivisionError) as info:
            field(((QQ(1), QQ(1)),), QQ(1), (QQ(1),) * 5, None)
        (frame,) = [f for f in traceback.extract_tb(info.tb) if f.filename == "<vector field of p6>"]
        assert frame.line.startswith("return ((")
