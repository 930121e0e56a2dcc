"""The recording tape, the declared kernels and the straight-line emitter behind them."""

import hashlib
import inspect
import linecache
import operator
import random
import traceback
from fractions import Fraction as QQ

import pytest

from painleve_ds import lax, painleve, scalars, weyl
from painleve_ds.reductions import REDUCTIONS
from painleve_ds.scalars import Extension, ExtScalar, PoleError
from painleve_ds.tracing import GradingError, Traced, compile_kernel, trace


def _leaves(*names):
    tape = {}
    return tape, [Traced(tape, name) for name in names]


# the last two lines of every text: its zero divisor is the PoleError _pole names
RAISES = ["    except ZeroDivisionError as err:", "        raise PoleError(_pole(str(err))) from None"]


def _lines(text):
    """A text's source lines without the try line and the two except lines
    around its body, and the body dedented by four spaces."""
    lines = inspect.getsource(text).splitlines()
    start = lines.index("    try:")
    assert lines[-2:] == RAISES
    return [*lines[:start], *(line[4:] for line in lines[start + 1 : -2])]


def _kernel(outputs):
    """kernel(x, y) returning the outputs as a tuple, and its source lines
    without the try and except lines (``_lines``)."""
    returns = "(" + "{}, " * len(outputs) + ")"
    kernel = compile_kernel("test kernel", "kernel(x, y)", [], returns, outputs)[0]()
    return kernel, _lines(kernel)


def _exact(outputs):
    """The integer-pair kernel(x, y) of the outputs, and its ``_lines``."""
    returns = "(" + "{}, " * len(outputs) + ")"
    _, exact = compile_kernel("test kernel", "kernel(x, y)", [], returns, outputs)
    return exact(), _lines(exact())


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
        with pytest.raises(PoleError, match="^division by zero in the test kernel$"):
            kernel(QQ(1), QQ(0))

    def test_the_body_runs_in_one_try_after_the_unpack_lines(self):
        # the wrapper every text carries, around the body and not the unpack lines
        _, (x, y) = _leaves("x", "y")
        generic, exact = compile_kernel("wrapped kernel", "kernel(xy)", ["x, y, = xy"], "({}, )", [x / y])
        assert inspect.getsource(generic()).splitlines() == [
            "def kernel(xy):", "    x, y, = xy", "    try:", "        return ((x / y), )", *RAISES,
        ]
        assert inspect.getsource(exact()).splitlines()[:3] == ["def kernel(xy):", "    x, y, = xy", "    try:"]
        for text in (generic(), exact()):
            with pytest.raises(PoleError, match="^division by zero in the wrapped kernel$") as info:
                text((QQ(1), QQ(0)))
            assert info.value.__cause__ is None and type(info.value.__context__) is ZeroDivisionError

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
        with pytest.raises(PoleError, match="^division by zero in the test kernel$"):
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
        assert _lines(kernel)[1:] == [
            "    x_n, x_d = x",
            "    y_n, y_d = y",
            "    v0_n = x_n * y_n",
            "    v0_d = x_d * y_d",
            "    return (x, (0, 1), (1, 3), (v0_n, v0_d), )",
        ]
        x_pair = (2, 4)
        out = kernel(x_pair, (3, 6))
        assert out[0] is x_pair and out[1:] == ((0, 1), (1, 3), (6, 24))

    def test_the_pair_form_negates_a_node_a_leaf_and_a_literal(self):
        # ("-", x) leaves as (-n, d): a leaf is unpacked for it, a literal's d is 1
        def negated(x, y):
            return [("-", x * y), ("-", x), ("-", 3), ("-", QQ(-2, 5))]

        generic, exact = trace("negated kernel", negated, ("x", "y"), pairs=True)
        assert _lines(exact())[-1] == "    return ((-v0_n, v0_d), (-x_n, x_d), (-3, 1), (--2, 5), )"
        assert exact()((2, 4), (3, -6)) == ((-6, -24), (-2, 4), (-3, 1), (2, 5))
        assert generic()(QQ(1, 2), QQ(-1, 2)) == (QQ(1, 4), QQ(-1, 2), -3, QQ(2, 5))

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
        lines = _lines(graded)
        assert lines[0] == "def kernel(x, u, ext):"
        assert sum("extbase" in line for line in lines) == 1 + 2 + 2

    def test_an_odd_zero_divisor_raises(self):
        tape, (x, u) = _leaves("x", "u")
        _, graded = self._both([x / u])
        with pytest.raises(PoleError, match="^division by zero in the graded test kernel$"):
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
        lines = inspect.getsource(painleve._flow((3, 3))[0]).splitlines()
        assert lines[:4] == [
            "def rhs(t, y, a, eta):", "    q0, p0, q1, p1, _, = y", "    a0, a1, a2, a3, a4, a5, = a", "    try:",
        ]
        assert lines[-3].startswith("        return (") and lines[-2:] == RAISES

    def test_a_traceback_shows_the_generated_line(self):
        # the arithmetic line is in the traceback of the ZeroDivisionError the PoleError replaced
        rhs = painleve._flow((2, 2))[0]
        with pytest.raises(PoleError, match="^division by zero in the flow of 2,2$") as info:
            rhs(QQ(1), (QQ(1), QQ(1), 0), (QQ(1),) * 5, None)
        context = info.value.__context__
        (frame,) = [f for f in traceback.extract_tb(context.__traceback__) if f.filename == "<right-hand side of 2,2>"]
        assert frame.line.startswith("return (")


class TestDeclaredKernels:
    def test_a_shape_gives_the_signature_the_unpack_lines_and_the_template(self):
        def kernel(x, ys, w):
            (y0, _), y2 = ys
            return [x * y0, ("-", y2 / w)]

        generic, exact = trace("declared kernel", kernel, ("x", (("y0", None), "y2"), "w"))
        lines = _lines(generic())
        assert lines[:2] == ["def kernel(x, ys, w):", "    (y0, _, ), y2, = ys"]
        assert lines[-1] == "    return ((x * y0), -(y2 / w), )"
        assert generic()(2, ((3, None), 4), 8) == (6, -0.5)
        assert exact()(QQ(2), ((QQ(3), None), QQ(4)), QQ(8)) == (6, QQ(-1, 2))

    def test_a_tuple_returns_as_written_and_one_output_bare(self):
        def pair(t):
            return t * t, t

        def bare(t):
            return t + 1

        assert _lines(trace("pair kernel", pair, ("t",))[0]())[-1] == "    return ((t * t), t)"
        assert _lines(trace("bare kernel", bare, ("t",))[0]())[-1] == "    return (t + 1)"

    def test_a_text_names_a_guard_or_gives_the_kernel_s_message(self):
        guards = {}

        def inverse(x, y):
            guards[x - 1] = "pole at x = 1"
            return [1 / (x - 1), x / y]

        generic, exact = trace("guarded kernel", inverse, ("x", "y"), guards, pole="the kernel's message")
        for text, one, zero in ((generic(), 1.0, 0.0), (exact(), QQ(1), QQ(0))):
            with pytest.raises(PoleError, match="^pole at x = 1$"):
                text(one, one)
            with pytest.raises(PoleError, match="^the kernel's message$"):
                text(one + one, zero)
        assert exact()(QQ(3), QQ(2)) == (QQ(1, 2), QQ(3, 2))

        def reciprocal(t):
            return 1 / t

        with pytest.raises(PoleError, match="^division by zero in the reciprocal kernel$"):
            trace("reciprocal kernel", reciprocal, ("t",))[1]()(0)


class TestTextsNameTheirPoles:
    """Each text, called directly at a zero divisor, generic and over
    integer pairs, raises the PoleError its trace names: the guard's
    message, else the kernel's, and never a ZeroDivisionError.  The
    reflections' are in ``tests/test_weyl.py::TestNamedPoles``."""

    @pytest.mark.parametrize("parts", [parts for parts, record in REDUCTIONS.items() if record.system != "a4"])
    def test_a_flow_at_t_zero(self, parts):
        record = REDUCTIONS[parts]
        rhs, exact = painleve._flow(parts)
        y = [QQ(k + 2, 3) for k in range(2 * record.pair_count + len(record.gauge_names))]
        alpha, eta = tuple(QQ(1, 6) for _ in range(record.weight_count)), None if record.eta is None else QQ(1, 2)
        split = lambda xs: [x.as_integer_ratio() for x in xs]
        pairs = ((0, 1), split(y), split(alpha), None if eta is None else eta.as_integer_ratio())
        for text, args in ((rhs, (0.0, y, alpha, eta)), (rhs, (QQ(0), y, alpha, eta)), (exact(), pairs)):
            with pytest.raises(PoleError, match=f"^division by zero in the flow of {record.label}$"):
                text(*args)

    @pytest.mark.parametrize("parts", list(REDUCTIONS))
    def test_a_zero_curvature_text_at_a_zero_gauge(self, parts):
        record = REDUCTIONS[parts]
        point = lax.sample_point(parts, random.Random(5))
        u, du = lax._root_and_rate(record, point["t"], point["root"])
        y = [*(x for pair in point["pairs"] for x in pair), *(QQ(0) for _ in record.gauge_names)]
        args = (y, [QQ(1)] * len(y), point["t"], u, du, point["kappas"], point["rhos"])
        _, _, generic, exact = lax._residual_kernel(parts)
        floats = lambda xs: [float(x) for x in xs]
        calls = [(generic, (floats(y), floats(args[1]), float(point["t"]), 2.0, 1.0, *map(floats, args[5:])))]
        if type(u) is ExtScalar:
            calls.append((exact("u", "du"), (*args[:3], u.c, du.c, *args[5:], u.ext)))
        else:
            calls += [(generic, args), (exact(), args)]
        for text, values in calls:
            with pytest.raises(PoleError, match="^division by zero in the zero-curvature residual$"):
                text(*values)

    def test_the_m_at_w3_zero(self):
        pairs, t, u, _, kappas, rhos = weyl._draw_bridge(random.Random(3))
        _, generic, exact = weyl._m_kernel()
        for text in (generic(), exact()):
            with pytest.raises(PoleError, match="^division by zero in the M of 3,3$"):
                text(pairs, t, u, QQ(0), kappas, rhos)

    def test_the_cp6_root_at_t_zero(self):
        kernel = REDUCTIONS[(3, 3)].root.kernel
        for t in (0, QQ(0), 0.0):
            with pytest.raises(PoleError, match=r"^division by zero in the base of u\*\*3$"):
                kernel(t)


def _texts():
    """{name: text} for the 57 texts the suites and the float lane compile:
    per partition its flow's two, its zero-curvature kernel's two, its
    weight sum and its root kernel; (3,1)'s graded text; per generator the
    value text and the text with tangents, two texts each; the bridge M's two."""
    texts = {}
    for parts, record in REDUCTIONS.items():
        rhs, exact = painleve._flow(parts)
        _, _, residual, integer = lax._residual_kernel(parts)
        texts |= {f"flow {record.label}": rhs, f"flow {record.label} over pairs": exact(),
                  f"zero curvature {record.label}": residual, f"zero curvature {record.label} over pairs": integer(),
                  f"weight sum {record.label}": painleve._weight_sum_kernel(parts), f"root {record.label}": record.root.kernel}
    texts["zero curvature 3,1 graded"] = lax._residual_kernel((3, 1))[3]("u", "du")
    for index in weyl.GENERATORS:
        for dual in (False, True):
            generic, exact = weyl._reflection_kernel(index, dual)
            name = f"r{index}" + " with tangents" * dual
            texts |= {name: generic(), f"{name} over pairs": exact()}
    _, generic, exact = weyl._m_kernel()
    return texts | {"M": generic(), "M over pairs": exact()}


def _body(text) -> str:
    """A text's ``_lines`` after its def line and its unpack lines, each an
    assignment of a tuple from an argument; a pair leaf's own split,
    ``x_n, x_d = x``, is body."""
    lines = _lines(text)
    args = set(inspect.signature(text).parameters)
    start = 1
    for line in lines[1:]:
        targets, _, value = line.strip().rpartition(" = ")
        names = [name.strip("(), ") for name in targets.split(",") if name.strip("(), ")]
        if value not in args or names == [f"{value}_n", f"{value}_d"]:
            break
        start += 1
    return "\n".join(lines[start:])


class TestBodyPins:
    def test_every_generated_body_is_pinned(self):
        # a change to the emitter or a trace that moves one line of a body shows here
        digests = {name: hashlib.sha256(_body(text).encode()).hexdigest() for name, text in _texts().items()}
        assert len(digests) == 57
        assert digests == BODY_SHA256


# sha256 of each text's body, _body(text), by _texts()'s names
BODY_SHA256 = {
    'flow 3,3': '3a7f42f137c692987cec7fa5cec9a12cf3f411f50252909f48b911f2971d63d9',
    'flow 3,3 over pairs': '12a9f44719114ae6caaf79a49914cd5864b813fc4192e1ef0705e93daca0d7c7',
    'zero curvature 3,3': 'feefc057c78ca8be6e0d132c19f9b40f6fd4065638c4bc3d415b912a64b0c5b1',
    'zero curvature 3,3 over pairs': '3c53965ca73cf06139d2f3d5a24162c26cff2592e64929570fbcf6465ee30bf5',
    'weight sum 3,3': 'a8078557b8f57cc7a69ca1e250613e306c571186a9d6ba8ad8f712e8063e7e5c',
    'root 3,3': '0a749b2ea50604b5417326844ca7a3d6bbe6b28ce3fe92a4b6a7336785c3b2d3',
    'flow 2,2,1': 'd93d3d20450b57e23e12531a7d303258f36679a98ad8a7f2288319772d416cdd',
    'flow 2,2,1 over pairs': '837c5490a39167f4584f83dd360dd2b14d76d462fa8067ae9e9cfc6a79372481',
    'zero curvature 2,2,1': 'c4bb8bab857874396242069e77b97a56b10dd173825ce24c4dcd5b1d92f7ec4e',
    'zero curvature 2,2,1 over pairs': 'ba14baf8362baca3afac2d66cb12a1b29328b71d3daa6d51e6e11cbdfb90535a',
    'weight sum 2,2,1': '257892e15dd8ae48d8726fe3621c48ee811f36f7abea8ec0496e408f51d10245',
    'root 2,2,1': '1a3988e6b5353e8a3a18abd696fbc8303695a626ed3aa4b7d57bda0ab1ba7d0d',
    'flow 2,2': 'c6ad6fa05aef53f7c387d7d67b6ed9b437b0e2fe899a28c7a393d708a712bb8d',
    'flow 2,2 over pairs': '61f562c859680bc370e5964f1f7df4fe6f9d0284e5251aef44f9268b69725912',
    'zero curvature 2,2': '8c746a88fec601507b48d81ff266cd1df747151da4634aa272a7c5a053b576eb',
    'zero curvature 2,2 over pairs': '159310e1b4d8aad95d4d0d9fa20c61f4b9c5cb196319e3e3ec91896dd4dbf77d',
    'weight sum 2,2': '43da5c6b9decc22c37d12a035b43c8c1ef2408a7a8744644ae9d8f1f48d92d53',
    'root 2,2': '1a3988e6b5353e8a3a18abd696fbc8303695a626ed3aa4b7d57bda0ab1ba7d0d',
    'flow 3,1': 'c4d5830de53d938d23f1b5635c16c9ce630cbbfd3f137334d63971493b70e046',
    'flow 3,1 over pairs': '2ce2060291d122309be824c64c3c58b4088f2fcccb65a36bfe62c226b3979123',
    'zero curvature 3,1': '371fec95104d427b34da29c15f0cdffb8eb707848419512d26f95f102e1afa39',
    'zero curvature 3,1 over pairs': '326eaf926c0804a9670bfa54f553def5039b9ea966cd54cf8de442f3d6d71135',
    'weight sum 3,1': '2622cc6445a9c976310539b0fdb40706892021ef4583b146b67bc61db8650613',
    'root 3,1': '27c67ea1c0d8c5ec6d419bb089f170cfd7dec26787ec24110c03abc4064cded2',
    'flow 4,1': 'b5d5059334c073966cc8bf63e57bfa8fcac5b1b6bc05f228569b06db68682131',
    'flow 4,1 over pairs': '1ee8e1dcc74ad6cf76f80ba4ced038b2c0eda58d5ce0380ec5b18356849756b8',
    'zero curvature 4,1': '2e8cfa9a7eb687c7d6d5a88361bffd3fdc5b1a129133433152b307b50ddd9e15',
    'zero curvature 4,1 over pairs': 'ef5ecd7a2cea8760cf42fca8e36692ea6af3bbc864cf35dfde7c2b997e910321',
    'weight sum 4,1': '1b80c895d9d986a16aa84c439780f65bff73c9cf4be5f389411aede0218fff88',
    'root 4,1': '60dd75f01f5f9a79ebbad6cdfd7069a3d22c164181ec46f3909c5f93fd87af40',
    'zero curvature 3,1 graded': '429cc7e919ddb546fb60ba7c50391d493cd6e873aa796dede50357538cfbcb3a',
    'r0': '0541d33fa192eb55ce8604272b595d11caaab232620437bf252fc099860a54f5',
    'r0 over pairs': 'ae9fc9abe4589ddca4620ec823dc5cb5f3cb77a7bf008ac700a5064f4b7fa1e5',
    'r0 with tangents': '84ded2ea715d4e6c10ffc98c02a994ecd2e237fd6410b59c5d7c32a5e9229428',
    'r0 with tangents over pairs': '1178a8059c2aab5c37a1b116f50f21523116f5eb3a05a8eb2b1bf6b3d1418240',
    'r1': '86e2f68035572711b02a9e2f85a11468bb9a2ea97b1489ba6011ec36f94649f7',
    'r1 over pairs': '717a2d69dcc53d554d6c942e82240bafea506ce857dce5b8eff8c3883dca885b',
    'r1 with tangents': 'be43f7a9016eb26d75aaed36c3e5ad11fe1e86f3bc48953b66a6cb5882faf14a',
    'r1 with tangents over pairs': '76317c5ce346b77362acbeec9ff50bbe86bcdfe1ade879bb8f605aad37439b78',
    'r2': '6a138af07e345f1a3fee021c27d22d9a9d1a5f070b707f428e4c15cf6ebfe49f',
    'r2 over pairs': 'e0f29c31830a82eae9bae43d5bd4be56f4f918f1c0249777926aa1be9385af80',
    'r2 with tangents': '79b86550e1859a0ba1103212b3e917e17203504851b9f46fc91508d2c391f640',
    'r2 with tangents over pairs': 'd01dcb4ce3c81590391c577f9931b3a80187b5a098bd441c60647e947a4295fd',
    'r3': '3b0e503bddee8542fcd5af0a4bf310556a29f34ef989aedfa44f4ee430955185',
    'r3 over pairs': 'c0f77b392e64459c2722f4c6c3635158722ac7675ff8c45dc5e8f9d849895eb8',
    'r3 with tangents': '1eaa6f3976c50201243cf69ec6b74dcf1a7da477bf7be59cce37745209e4da2a',
    'r3 with tangents over pairs': '3d323b600be10e6718f0fbbf7eba61b49fc2dfad379b1687a4c481c48e15a112',
    'r4': '4e479346efeb90de3ca58655c3185b9656ae4e678911f34a4a04ef3813649204',
    'r4 over pairs': '6d458445d27da2407fb45e65093d87216911d3568e6db65b684346d10c58fb58',
    'r4 with tangents': 'ec90a44e75c13eda2f7a26d0cefb1861eeb316d441d2efc6851483ab5805106a',
    'r4 with tangents over pairs': 'e428d64118871c8cc55ad6784e8a19663012b59215a21c12db5b558b19be4746',
    'r5': '831e649802135598d5510415f1dc64dcb7ea97f70052291a3338de0847f3f496',
    'r5 over pairs': 'bfa987728f9b5d181a01270a58f51b8b7f64e45a7496bd2337cee7703a94b4fa',
    'r5 with tangents': '7064b38d68868c505cc5cfcdde4ae677426b932c0665981e632ef0e0e770cf52',
    'r5 with tangents over pairs': 'e614b8de8b811a4b21dc8ffcfa12baed813f1c3089c6f3ae4f2cf0214b19359d',
    'M': 'ed2a4a7e20ef071bd550bd8d2aff224c4c46d7a2e0af1bad8c2f091730b314ce',
    'M over pairs': 'f48ee33daf142e2e4fa6a35234f14f2b56058b3f051d5822fa5ece8fd6b83fb7',
}
