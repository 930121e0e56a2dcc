"""Straight-line kernels from one trace of generic formula code: run on
``Traced`` leaves, the code records each ``+ - * /`` on a tape, and
``compile_kernel`` compiles what some outputs need as plain arithmetic."""

from __future__ import annotations

import linecache
from collections import Counter

NESTING_CAP = 8  # the deepest parentheses one inlined expression may nest


class Traced:
    """A recording scalar: each operation on it is one node of a tape, keyed
    (op, operand names), so a repeated subexpression is recorded once, in
    either operand order for + and *.  Ints enter as literals and -x is 0 - x;
    x + 0, 0 + x, x - 0, x * 1 and 1 * x record nothing, and x * 0 and x - x
    are the int 0.  As the value of a seeded ``Gradient`` it records each
    partial beside the value, so the unit seeds' zeros and ones fold away."""

    __slots__ = ("tape", "name", "op", "args")

    def __init__(self, tape, name, op=None, args=()):
        self.tape, self.name, self.op, self.args = tape, name, op, args

    def _record(self, op, *args):
        if not all(isinstance(v, (Traced, int)) for v in args):
            return NotImplemented
        x, y = (v if isinstance(v, Traced) else Traced(self.tape, repr(v)) for v in args)
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


def compile_kernel(title: str, signature: str, unpack: list, returns: str, outputs: list):
    """Compile ``def signature:``, the unpack lines, the nodes the outputs
    (nodes or ints) need, then ``return`` the template filled with them.
    A node used once is written inline, in parentheses, where it is used,
    unless that nests deeper than NESTING_CAP; the others are assignments.
    The source is cached as ``<title>``, so tracebacks through the kernel
    and ``inspect.getsource`` show the generated lines.
    """
    uses = Counter(node for node in outputs if isinstance(node, Traced) and node.op)
    tape = list(next(iter(uses)).tape.values()) if uses else []
    for node in reversed(tape):
        if node in uses:
            uses.update(arg for arg in node.args if arg.op)
    inline, depth = {}, {}  # the text and nesting of each node written inline

    text = lambda node: f"({inline[node]})" if node in inline else getattr(node, "name", repr(node))
    lines = [f"def {signature}:", *(f"    {line}" for line in unpack)]
    for node in (node for node in tape if node in uses):
        x, y = node.args
        expression = f"{text(x)} {node.op} {text(y)}"
        nesting = 1 + max(depth.get(x, 0), depth.get(y, 0))
        if uses[node] == 1 and nesting <= NESTING_CAP:
            inline[node], depth[node] = expression, nesting
        else:
            lines.append(f"    {node.name} = {expression}")
    lines.append("    return " + returns.format(*map(text, outputs)))
    # no mtime: linecache.checkcache keeps the entry
    source, filename = "\n".join(lines) + "\n", f"<{title}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace := {})
    return namespace[signature.partition("(")[0]]
