"""Loop-algebra realization of the rank-n affine Lie algebra of type A.

Elements are Laurent polynomials in z with (n+1)x(n+1) matrix coefficients,
plus a central coordinate ``c_k``: the loop algebra with its central
extension, whose bracket is

    [z^k X, z^l Y] = z^(k+l) (XY - YX) + k delta(k+l, 0) tr(XY) K.

The scaling element d is not stored; the one derivation in use is the
gradation derivation theta, applied by ``apply_theta``.  The matrix part
is one flat map ``entries`` from ``(degree, row, col)`` to the
coefficient of z^degree E_row,col, the key the reduction records write.
The scalar type is generic.  The constructor is the only place that drops
zero coefficients: every operation hands it raw sums and products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import is_zero_scalar


def _accumulate_product(out: dict, a: dict, b: dict, subtract: bool = False):
    """out += a b, or out -= a b, over flat entries; cancelled entries stay as zeros."""
    rows_of_b: dict = {}
    for (deg, i, j), v in b.items():
        rows_of_b.setdefault(i, []).append((deg, j, v))
    for (d1, i, k), u in a.items():
        for d2, j, v in rows_of_b.get(k, ()):
            key = (d1 + d2, i, j)
            if subtract:
                out[key] = out[key] - u * v if key in out else -(u * v)
            else:
                out[key] = out[key] + u * v if key in out else u * v


class LoopElement:
    """z-graded matrix element with a central coordinate."""

    __slots__ = ("rank", "entries", "c_k")

    def __init__(self, rank: int, entries: dict | None = None, c_k=0):
        self.rank = rank
        self.entries = {
            key: v for key, v in (entries or {}).items() if not is_zero_scalar(v)
        }
        self.c_k = c_k

    @property
    def size(self) -> int:
        return self.rank + 1

    def support(self) -> tuple[int, ...]:
        return tuple(sorted({deg for deg, _, _ in self.entries}))

    def entry(self, deg: int, i: int, j: int):
        return self.entries.get((deg, i, j), 0)

    def is_zero(self) -> bool:
        return not self.entries and is_zero_scalar(self.c_k)

    def _check_same(self, other: "LoopElement"):
        if self.rank != other.rank:
            raise ValueError("mixed ranks")

    def __add__(self, other: "LoopElement") -> "LoopElement":
        self._check_same(other)
        entries = dict(self.entries)
        for key, v in other.entries.items():
            entries[key] = entries[key] + v if key in entries else v
        return LoopElement(self.rank, entries, self.c_k + other.c_k)

    def __neg__(self) -> "LoopElement":
        return self.scale(-1)

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return self + (-other)

    def scale(self, c) -> "LoopElement":
        entries = {key: c * v for key, v in self.entries.items()}
        return LoopElement(self.rank, entries, c * self.c_k)

    def z_shift(self, shift: int) -> "LoopElement":
        entries = {(deg + shift, i, j): v for (deg, i, j), v in self.entries.items()}
        return LoopElement(self.rank, entries, self.c_k)

    def mat_mul(self, other: "LoopElement") -> "LoopElement":
        """Associative matrix product (valid for evaluation-representation work)."""
        self._check_same(other)
        entries: dict = {}
        _accumulate_product(entries, self.entries, other.entries)
        return LoopElement(self.rank, entries)

    def power(self, k: int) -> "LoopElement":
        result = identity(self.rank)
        for _ in range(k):
            result = result.mat_mul(self)
        return result

    def __eq__(self, other):
        if not isinstance(other, LoopElement):
            return NotImplemented
        if self.rank != other.rank:
            return False
        diff = self - other
        return diff.is_zero()

    __hash__ = None

    def map_scalars(self, fn) -> "LoopElement":
        entries = {key: fn(v) for key, v in self.entries.items()}
        return LoopElement(self.rank, entries, fn(self.c_k))

    def render(self) -> str:
        """Plain-text dump, one z-degree block per line."""
        if self.is_zero():
            return "0"
        lines = []
        n = self.size
        for deg in self.support():
            rows = [[str(self.entry(deg, i, j)) for j in range(n)] for i in range(n)]
            widths = [max(len(rows[i][j]) for i in range(n)) for j in range(n)]
            body = "; ".join(
                "[" + ", ".join(rows[i][j].rjust(widths[j]) for j in range(n)) + "]"
                for i in range(n)
            )
            lines.append(f"z^{deg}: {body}")
        if not is_zero_scalar(self.c_k):
            lines.append(f"K: {self.c_k}")
        return "\n".join(lines)

    def __repr__(self):
        return f"LoopElement(rank={self.rank}, degrees={list(self.support())})"


def identity(rank: int) -> LoopElement:
    return LoopElement(rank, {(0, i, i): Fraction(1) for i in range(rank + 1)})


def single_entry(rank: int, deg: int, i: int, j: int) -> LoopElement:
    return LoopElement(rank, {(deg, i, j): Fraction(1)})


def chevalley(rank: int, i: int, kind: str) -> LoopElement:
    """Chevalley generator: kind 'e' or 'f', index 0..rank."""
    n = rank
    if not 0 <= i <= n:
        raise ValueError(f"index {i} out of range for rank {n}")
    if kind == "e":
        if i == 0:
            return single_entry(n, 1, n, 0)
        return single_entry(n, 0, i - 1, i)
    if kind == "f":
        if i == 0:
            return single_entry(n, -1, 0, n)
        return single_entry(n, 0, i, i - 1)
    raise ValueError(f"unknown generator kind {kind!r}")


def bracket(a: LoopElement, b: LoopElement) -> LoopElement:
    """Lie bracket with central term.

    The commutator is accumulated in one pass, +ab and -ba into the same
    entries; the constructor prunes the entries that cancel.  The central
    term pairs each entry z^k E_ij of a with the z^-k E_ji entry of b.
    """
    a._check_same(b)
    entries: dict = {}
    _accumulate_product(entries, a.entries, b.entries)
    _accumulate_product(entries, b.entries, a.entries, subtract=True)
    c_k = 0
    for (deg, i, j), u in a.entries.items():
        if deg and (-deg, j, i) in b.entries:
            c_k = c_k + deg * u * b.entries[-deg, j, i]
    return LoopElement(a.rank, entries, c_k)


@dataclass
class GradationSpec:
    """Gradation data: the derivation acts as scale * (z d/dz + ad eta).

    eta must be diagonal and of degree 0, with no central coordinate, so
    that every matrix unit z^k E_ij is an eigenvector.
    ``offsets[i, j]`` is scale * (eta_i - eta_j), held as an int when it is
    integral (it is for every Heisenberg gradation), so that scaling a
    float entry stays float arithmetic.
    """

    rank: int
    scale: int
    eta: LoopElement
    offsets: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eta = self.eta
        diagonal = all(deg == 0 and i == j for deg, i, j in eta.entries)
        if not (diagonal and is_zero_scalar(eta.c_k)):
            raise ValueError("gradation eta must be diagonal of degree 0 with c_k = 0")
        values = [eta.entry(0, i, i) for i in range(self.rank + 1)]
        self.offsets = {}
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                offset = Fraction(self.scale * (a - b))
                self.offsets[i, j] = int(offset) if offset.denominator == 1 else offset


def apply_theta(spec: GradationSpec, x: LoopElement) -> LoopElement:
    """Gradation derivation scale * (z dx/dz + [eta, x]), applied entrywise.

    With eta = diag(eta_0, ..., eta_n) in degree 0, z d/dz multiplies
    z^k E_ij by k and ad eta multiplies it by eta_i - eta_j, so the entry
    keyed (k, i, j) is weighted

        theta(z^k E_ij) = scale * (k + eta_i - eta_j) * z^k E_ij.

    Both terms kill K: z d/dz does by definition, and [eta, x] has no
    central term because eta sits in degree 0.  The image therefore has
    c_k = 0.  Theta is the one derivation in use, so no element stores a
    coordinate for it.
    """
    scale, offsets = spec.scale, spec.offsets
    entries = {
        (deg, i, j): (scale * deg + offsets[i, j]) * v
        for (deg, i, j), v in x.entries.items()
    }
    return LoopElement(x.rank, entries)


def theta_eigenvalue(spec: GradationSpec, x: LoopElement):
    """Degree of a homogeneous element; raises if x is not an eigenvector."""
    if not x.entries:
        raise ValueError("zero element has no degree")
    deg, i, j = next(iter(x.entries))
    lam = spec.scale * deg + spec.offsets[i, j]  # the weight of that entry
    if apply_theta(spec, x) != x.scale(lam):
        raise ValueError("element is not theta-homogeneous")
    return lam
