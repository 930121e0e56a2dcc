"""Straight-line kernels from one trace of generic formula code: ``trace``
runs it on ``Traced`` leaves laid out by each argument's declared shape,
each ``+ - * /`` recorded on a tape, and ``compile_kernel`` compiles on
demand what the outputs need, as plain arithmetic or over integer pairs,
also over Q(sqrt b) with a static parity per node, each naming its poles."""

from __future__ import annotations

import functools
import linecache
from collections import Counter
from fractions import Fraction

from .scalars import ExtScalar, GradingError, PoleError, is_zero_scalar, value_of

RATIONAL = (int, Fraction)  # the leaf types of an integer-pair kernel
_RATIONAL_TYPES = frozenset(RATIONAL)
_GLOBALS = dict(Fraction=Fraction, ExtScalar=ExtScalar, is_zero_scalar=is_zero_scalar, value_of=value_of)


class Traced:
    """A recording scalar: each operation on it is one node of a tape, keyed
    (op, operand names), so a repeated subexpression is recorded once, in
    either operand order for + and *.  Ints and Fractions enter as literals,
    an integral Fraction as an int, and -x is 0 - x; x + 0, 0 + x, x - 0,
    x * 1 and 1 * x record nothing, and x * 0 and x - x are the int 0.  As
    the value of a seeded ``Gradient`` it records the tangent beside the
    value, so a seed's 0 or 1 folds away."""

    __slots__ = ("tape", "name", "op", "args")

    def __init__(self, tape, name, op=None, args=()):
        self.tape, self.name, self.op, self.args = tape, name, op, args

    def _record(self, op, *args):
        if not all(isinstance(v, (Traced, *RATIONAL)) for v in args):
            return NotImplemented
        x, y = (v if isinstance(v, Traced) else Traced(self.tape, _literal(v)) for v in args)
        if (op, x.name) in (("+", "0"), ("*", "1")):
            return y
        if (op, y.name) in (("+", "0"), ("-", "0"), ("*", "1")):
            return x
        if op == "*" and "0" in (x.name, y.name) or op == "-" and x.name == y.name:
            return 0
        key = (op, *sorted((x.name, y.name))) if op in "+*" else (op, x.name, y.name)
        if key not in self.tape:
            self.tape[key] = Traced(self.tape, f"v{len(self.tape)}", op, (x, y))
        return self.tape[key]

    __add__ = lambda self, other: self._record("+", self, other)
    __radd__ = lambda self, other: self._record("+", other, self)
    __sub__ = lambda self, other: self._record("-", self, other)
    __rsub__ = lambda self, other: self._record("-", other, self)
    __mul__ = lambda self, other: self._record("*", self, other)
    __rmul__ = lambda self, other: self._record("*", other, self)
    __truediv__ = lambda self, other: self._record("/", self, other)
    __rtruediv__ = lambda self, other: self._record("/", other, self)
    __neg__ = lambda self: self._record("-", 0, self)


def _literal(value) -> str:
    """A rational literal's text: the int, or Fraction(n, d) when d > 1."""
    if value.denominator == 1:
        return repr(int(value))
    return f"Fraction({value.numerator}, {value.denominator})"


def rational(leaves) -> bool:
    """Whether every leaf is an int or a Fraction: a call on such leaves runs
    the integer-pair kernel.  Callers test t first, so that a float call
    pays for one check and builds nothing."""
    return _RATIONAL_TYPES.issuperset(map(type, leaves))


def trace(title: str, formula, shape: tuple, guards=None, pairs=False, pole=None):
    """``formula`` traced once on leaves laid out by ``shape``, per argument its
    name or a nested tuple of names (None where no output reads), and compiled
    under its name and arguments.  A list of outputs returns as ``(x, y, )``,
    a tuple as ``(x, y)``, one output bare, ("-", x) as -x, or as (-n, d) in
    the pair form.  Returns (generic, exact), whose poles are named by the
    messages the formula put in ``guards`` and by ``pole`` (see ``compile_kernel``)."""
    tape = {}
    result = formula(*(_leaves(tape, spec) for spec in shape))
    outputs = list(result) if isinstance(result, (list, tuple)) else [result]
    items = ", ".join("-{}" if type(x) is tuple else "{}" for x in outputs)
    names = formula.__code__.co_varnames[: formula.__code__.co_argcount]
    generic, exact = compile_kernel(
        title, f"{formula.__name__}({', '.join(names)})",
        [f"{_target(spec)}= {name}" for name, spec in zip(names, shape) if not isinstance(spec, str)],
        {list: "({}, )", tuple: "({})"}.get(type(result), "{}").format(items),
        [x[1] if type(x) is tuple else x for x in outputs], guards or {}, pairs, pole,
    )
    return generic, exact


def _leaves(tape, spec):
    return spec and (Traced(tape, spec) if isinstance(spec, str) else tuple(_leaves(tape, s) for s in spec))


def _target(spec) -> str:
    """A tuple shape as an unpack target: ``q0, p0, _, `` or ``(q1, p1, ), (q2, p2, ), ``."""
    return "".join((f"({_target(s)})" if type(s) is tuple else s or "_") + ", " for s in spec)


def compile_kernel(title: str, signature: str, unpack: list, returns: str, outputs: list, guards=(), pairs=False,
                   pole=None):
    """Compile ``def signature:``, the unpack lines, the nodes the outputs
    (nodes or rationals) need, then ``return`` the template filled with them.
    A node used once is written inline, in parentheses, where it is used;
    the others are assignments.  Each of ``guards``, denominators a trace
    recorded with their messages, is tested by value, a zero raising
    ZeroDivisionError(name).  The body after the unpack lines runs in one
    ``try`` that turns it into PoleError(_pole(name)): the message of the
    guard named, else ``pole``, by default "division by zero in the" title.

    Returns (generic, exact): each compiles its kernel on its first call
    and returns it.  ``exact()`` emits the same nodes over integer pairs
    (see ``_integer_lines``), on ints and Fractions, or with ``pairs`` on (n, d) pairs;
    ``exact(*odd)`` emits them over Q(sqrt b) with the named leaves odd,
    taking the c of each odd ``ExtScalar`` c*sqrt(b) and, last, the
    ``Extension`` ext: the rule ``ExtScalar`` follows, decided per node.
    Each source is cached under its title when it is compiled, so
    tracebacks and ``inspect.getsource`` show the generated lines.
    """
    uses = Counter(node for node in outputs if isinstance(node, Traced) and node.op)
    uses.update(node for node in guards if node.op)  # a guard names its node
    tape = list(next(iter(uses)).tape.values()) if uses else []
    for node in reversed(tape):
        if node in uses:
            uses.update(arg for arg in node.args if arg.op)
    nodes = [node for node in tape if node in uses]
    inline = {}  # the text of each node written inline

    text = lambda node: f"({inline[node]})" if node in inline else getattr(node, "name", repr(node))
    guard = lambda node: f"if is_zero_scalar(value_of({node.name})): raise ZeroDivisionError({node.name!r})"
    lines = [guard(node) for node in guards if not node.op]
    for node in nodes:
        x, y = node.args
        expression = f"{text(x)} {node.op} {text(y)}"
        if uses[node] == 1:
            inline[node] = expression
        else:
            lines.append(f"{node.name} = {expression}")
            lines += [guard(node)] if node in guards else []
    lines.append("return " + returns.format(*map(text, outputs)))
    # names only, so the tape is freed as before
    program = [(node.name, node.op, *(arg.name for arg in node.args)) for node in nodes]
    names = [getattr(node, "name", repr(node)) for node in outputs]
    integer = functools.partial(_integer_lines, returns, names, program, pairs=pairs)
    messages = {node.name: message for node, message in dict(guards).items()}
    _pole = lambda name: messages.get(name, pole or f"division by zero in the {title}")
    named = lambda heading, signature, body: _compile(heading, signature, [
        *unpack, "try:", *(f"    {line}" for line in body),
        "except ZeroDivisionError as err:", "    raise PoleError(_pole(str(err))) from None",
    ], PoleError=PoleError, _pole=_pole)

    @functools.cache
    def exact(*odd):
        if not odd:
            return named(f"{title} over integer pairs", signature, integer())
        graded = f"{title} over integer pairs with {' and '.join(odd)} odd"
        return named(graded, signature[:-1] + ", ext)", integer(odd))

    return functools.cache(lambda: named(title, signature, lines)), exact


def _integer_lines(returns, outputs, program, odd=(), pairs=False):
    """The program's nodes, (name, op, x, y) by name, as pairs of Python
    ints (n, d), never reduced: + and - cross-multiply, * multiplies across,
    and / first raises ZeroDivisionError on a zero divisor numerator; a
    denominator of 1 and a factor 1 fold away.  Each leaf is unpacked once,
    at its first use, and each output node is reduced once, as Fraction(n, d),
    except in the pair form, where each leaf and output is an (n, d) pair and -x is (-n, d).

    With odd leaves, each value is c or c*sqrt(b), b = ext.base, and the
    pair holds c: a node's parity is static, odd * odd multiplies c by b,
    and an even node over an odd one divides c by b, since 1/sqrt(b) =
    sqrt(b)/b.  A sum of mixed parity raises the GradingError an
    ExtScalar raises; a literal 0 takes either parity.  Each output an odd
    leaf reaches is an ExtScalar of its parity, as the generic kernel gives it."""
    lines, pair, checked, parity = [], {}, set(), dict.fromkeys(odd, 1)
    times = lambda *texts: "0" if "0" in texts else " * ".join(s for s in texts if s not in (None, "1")) or "1"

    def of(name):
        if name.startswith("Fraction("):  # a literal n/d
            return tuple(name[len("Fraction(") : -1].split(", "))
        if name not in pair and not name.lstrip("-").isdigit():  # a leaf
            var = "".join(filter(str.isalnum, name))
            lines.append(f"{var}_n, {var}_d = " + (name if pairs else f"{name}.numerator, {name}.denominator"))
            pair[name] = f"{var}_n", f"{var}_d"
        return pair.get(name, (name, None))

    for name, op, x, y in program:
        (xn, xd), (yn, yd) = of(x), of(y)
        bn = bd = None  # the base's factors, where sqrt(b) * sqrt(b) = b enters
        px, py = parity.get(x), parity.get(y)  # None where no odd leaf reaches
        if op in "+-" and "0" not in (x, y) and (px or 0) != (py or 0):
            raise GradingError(f"{name} = {x} {op} {y} adds nodes of parity {px or 0} and {py or 0}")
        if px is not None or py is not None:
            parity[name] = (px or 0) ^ (py or 0) if op in "*/" else px or py or 0
            if op in "*/" and py == 1 and (px == 1) == (op == "*"):
                bn, bd = of("ext.base")
        if op == "/":
            if yn.isidentifier() and yn not in checked:  # not a literal
                lines.append(f"if not {yn}: raise ZeroDivisionError({y!r})")
                checked.add(yn)
            n, d = times(xn, yd, bd), times(xd, yn, bn)
        elif op == "*":
            n, d = times(xn, yn, bn), times(xd, yd, bd)
        elif xd == yd:
            n, d = f"{xn} {op} {yn}", xd
        else:
            n, d = f"{times(xn, yd)} {op} {times(yn, xd)}", times(xd, yd)
        pair[name] = tuple(s if s.isidentifier() else f"{name}_{part}" for s, part in ((n, "n"), (d, "d")))
        lines += [f"{var} = {s}" for var, s in zip(pair[name], (n, d)) if var != s]
    nodes = {name for name, *_ in program}
    if pairs:  # a leaf leaves as it came, a node or a literal as its (n, d), and -x as (-n, d)
        def as_pair(name, sign):
            if sign or not name.isidentifier() or name in nodes:
                return "({}{}, {})".format(sign, *(s or "1" for s in of(name)))
            return name
        pieces = returns.split("{}")
        items = [as_pair(name, "-" * piece.endswith("-")) for piece, name in zip(pieces, outputs)]
        return [*lines, "return " + "{}".join(piece.removesuffix("-") for piece in pieces).format(*items)]
    reduced = lambda name: "Fraction({}, {})".format(*pair[name]) if name in nodes else name
    wrap = ("ExtScalar(ext, {})", "ExtScalar(ext, {}, odd=True)")
    out = lambda name: wrap[parity[name]].format(reduced(name)) if name in parity else reduced(name)
    return [*lines, "return " + returns.format(*map(out, outputs))]


def _compile(title, signature, lines, **names):
    # no mtime: linecache.checkcache keeps the entry; names join the globals
    lines = [f"def {signature}:", *(f"    {line}" for line in lines)]
    source, filename = "\n".join(lines) + "\n", f"<{title}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace := {**_GLOBALS, **names})
    return namespace[signature.partition("(")[0]]
