"""Loop-algebra realization of the rank-n affine Lie algebra of type A.

Elements are Laurent polynomials in z with (n+1)x(n+1) matrix coefficients,
plus a central coordinate ``c_k`` and a scaling coordinate ``c_d``.  The
bracket is

    [z^k X, z^l Y] = z^(k+l) (XY - YX) + k delta(k+l, 0) tr(XY) K

extended by the scaling element acting as z d/dz.  Matrix coefficients are
stored sparsely and the scalar type is generic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import is_zero_scalar

Matrix = dict  # {(row, col): scalar}, zero entries absent


def _mat_add(a: Matrix, b: Matrix) -> Matrix:
    out = dict(a)
    for key, v in b.items():
        s = out[key] + v if key in out else v
        if is_zero_scalar(s):
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _mat_scale(a: Matrix, c) -> Matrix:
    if is_zero_scalar(c):
        return {}
    out = {}
    for key, v in a.items():
        s = c * v
        if not is_zero_scalar(s):
            out[key] = s
    return out


def _accumulate_product(out: Matrix, a: Matrix, b: Matrix, subtract: bool = False):
    """out += a @ b, or out -= a @ b; entries that cancel stay as zeros."""
    rows_of_b: dict = {}
    for (i, j), v in b.items():
        rows_of_b.setdefault(i, []).append((j, v))
    for (i, k), u in a.items():
        for j, v in rows_of_b.get(k, ()):
            key = (i, j)
            if subtract:
                out[key] = out[key] - u * v if key in out else -(u * v)
            else:
                out[key] = out[key] + u * v if key in out else u * v


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    out: Matrix = {}
    _accumulate_product(out, a, b)
    return {key: v for key, v in out.items() if not is_zero_scalar(v)}


def _mat_trace_mul(a: Matrix, b: Matrix):
    """tr(a @ b), without forming the product."""
    total = 0
    for (i, j), u in a.items():
        v = b.get((j, i))
        if v is not None:
            total = total + u * v
    return total


class LoopElement:
    """z-graded matrix element with central and scaling coordinates."""

    __slots__ = ("rank", "parts", "c_k", "c_d")

    def __init__(self, rank: int, parts: dict | None = None, c_k=0, c_d=0):
        self.rank = rank
        self.parts = {}
        if parts:
            for deg, mat in parts.items():
                cleaned = {k: v for k, v in mat.items() if not is_zero_scalar(v)}
                if cleaned:
                    self.parts[deg] = cleaned
        self.c_k = c_k
        self.c_d = c_d

    @property
    def size(self) -> int:
        return self.rank + 1

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.parts))

    def entry(self, deg: int, i: int, j: int):
        return self.parts.get(deg, {}).get((i, j), 0)

    def matrix_entries(self):
        for deg, mat in self.parts.items():
            for (i, j), v in mat.items():
                yield deg, i, j, v

    def is_zero(self) -> bool:
        return not self.parts and is_zero_scalar(self.c_k) and is_zero_scalar(self.c_d)

    def matrix_is_zero(self) -> bool:
        return not self.parts

    def _check_same(self, other: "LoopElement"):
        if self.rank != other.rank:
            raise ValueError("mixed ranks")

    def __add__(self, other: "LoopElement") -> "LoopElement":
        self._check_same(other)
        parts = dict(self.parts)
        for deg, mat in other.parts.items():
            parts[deg] = _mat_add(parts.get(deg, {}), mat)
        return LoopElement(self.rank, parts, self.c_k + other.c_k, self.c_d + other.c_d)

    def __neg__(self) -> "LoopElement":
        return self.scale(-1)

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return self + (-other)

    def scale(self, c) -> "LoopElement":
        return LoopElement(
            self.rank,
            {deg: _mat_scale(mat, c) for deg, mat in self.parts.items()},
            c * self.c_k,
            c * self.c_d,
        )

    def z_shift(self, shift: int) -> "LoopElement":
        return LoopElement(
            self.rank, {deg + shift: mat for deg, mat in self.parts.items()}, self.c_k, self.c_d
        )

    def z_derivative(self) -> "LoopElement":
        """z d/dz on the matrix part; kills K and d."""
        return LoopElement(
            self.rank, {deg: _mat_scale(mat, deg) for deg, mat in self.parts.items()}
        )

    def mat_mul(self, other: "LoopElement") -> "LoopElement":
        """Associative matrix product (valid for evaluation-representation work)."""
        self._check_same(other)
        if not (is_zero_scalar(self.c_d) and is_zero_scalar(other.c_d)):
            raise ValueError("matrix product undefined with scaling coordinate")
        parts: dict = {}
        for d1, m1 in self.parts.items():
            for d2, m2 in other.parts.items():
                prod = _mat_mul(m1, m2)
                if prod:
                    parts[d1 + d2] = _mat_add(parts.get(d1 + d2, {}), prod)
        return LoopElement(self.rank, parts)

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
        parts = {
            deg: {key: fn(v) for key, v in mat.items()} for deg, mat in self.parts.items()
        }
        return LoopElement(self.rank, parts, fn(self.c_k), fn(self.c_d))

    def render(self) -> str:
        """Plain-text dump, one z-degree block per line."""
        if self.matrix_is_zero() and is_zero_scalar(self.c_k) and is_zero_scalar(self.c_d):
            return "0"
        lines = []
        n = self.size
        for deg in self.support():
            mat = self.parts[deg]
            rows = [[str(mat.get((i, j), 0)) for j in range(n)] for i in range(n)]
            widths = [max(len(rows[i][j]) for i in range(n)) for j in range(n)]
            body = "; ".join(
                "[" + ", ".join(rows[i][j].rjust(widths[j]) for j in range(n)) + "]"
                for i in range(n)
            )
            lines.append(f"z^{deg}: {body}")
        if not is_zero_scalar(self.c_k):
            lines.append(f"K: {self.c_k}")
        if not is_zero_scalar(self.c_d):
            lines.append(f"d: {self.c_d}")
        return "\n".join(lines)

    def __repr__(self):
        return f"LoopElement(rank={self.rank}, degrees={list(self.support())})"


def identity(rank: int) -> LoopElement:
    return LoopElement(rank, {0: {(i, i): Fraction(1) for i in range(rank + 1)}})


def single_entry(rank: int, deg: int, i: int, j: int, value=Fraction(1)) -> LoopElement:
    return LoopElement(rank, {deg: {(i, j): value}})


def chevalley(rank: int, i: int, kind: str) -> LoopElement:
    """Chevalley generator: kind 'e', 'f', or 'h' (the coroot), index 0..rank."""
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
    if kind == "h":
        if i == 0:
            out = LoopElement(n, {0: {(n, n): Fraction(1), (0, 0): Fraction(-1)}})
            out.c_k = Fraction(1)
            return out
        return LoopElement(n, {0: {(i - 1, i - 1): Fraction(1), (i, i): Fraction(-1)}})
    raise ValueError(f"unknown generator kind {kind!r}")


def bracket(a: LoopElement, b: LoopElement) -> LoopElement:
    """Lie bracket with central term and scaling-element action.

    The commutator of each pair of degree blocks is accumulated in one
    pass, +m1 m2 and -m2 m1 into the same block; the constructor prunes
    the entries that cancel.
    """
    a._check_same(b)
    parts: dict = {}
    c_k = 0
    for d1, m1 in a.parts.items():
        for d2, m2 in b.parts.items():
            out = parts.setdefault(d1 + d2, {})
            _accumulate_product(out, m1, m2)
            _accumulate_product(out, m2, m1, subtract=True)
            if d1 + d2 == 0 and d1 != 0:
                c_k = c_k + d1 * _mat_trace_mul(m1, m2)
    out = LoopElement(a.rank, parts, c_k)
    if not is_zero_scalar(a.c_d):
        out = out + b.z_derivative().scale(a.c_d)
    if not is_zero_scalar(b.c_d):
        out = out - a.z_derivative().scale(b.c_d)
    return out


@dataclass
class GradationSpec:
    """Gradation data: the derivation acts as scale * (z d/dz + ad eta).

    eta must be diagonal and of degree 0, with no central or scaling
    coordinate, so that every matrix unit z^k E_ij is an eigenvector.
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
        diagonal = set(eta.parts) <= {0} and all(i == j for i, j in eta.parts.get(0, {}))
        if not (diagonal and is_zero_scalar(eta.c_k) and is_zero_scalar(eta.c_d)):
            raise ValueError("gradation eta must be diagonal of degree 0 with c_k = c_d = 0")
        values = [eta.entry(0, i, i) for i in range(self.rank + 1)]
        self.offsets = {}
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                offset = Fraction(self.scale * (a - b))
                self.offsets[i, j] = int(offset) if offset.denominator == 1 else offset


def apply_theta(spec: GradationSpec, x: LoopElement) -> LoopElement:
    """Gradation derivation scale * (z dx/dz + [eta, x]), applied entrywise.

    With eta = diag(eta_0, ..., eta_n) in degree 0, z d/dz multiplies
    z^k E_ij by k and ad eta multiplies it by eta_i - eta_j, so

        theta(z^k E_ij) = scale * (k + eta_i - eta_j) * z^k E_ij.

    Both terms kill K and d: z d/dz does by definition, and [eta, x] has
    no central term because eta sits in degree 0 and no scaling term
    because eta has no d coordinate.  The image therefore has
    c_k = c_d = 0.
    """
    offsets = spec.offsets
    parts = {}
    for deg, mat in x.parts.items():
        block = {}
        for key, v in mat.items():
            weight = spec.scale * deg + offsets[key]
            if weight:
                block[key] = weight * v
        parts[deg] = block
    return LoopElement(x.rank, parts)


def theta_eigenvalue(spec: GradationSpec, x: LoopElement):
    """Degree of a homogeneous element; raises if x is not an eigenvector."""
    if x.matrix_is_zero():
        raise ValueError("zero element has no degree")
    image = apply_theta(spec, x)
    deg, i, j, _ = next(x.matrix_entries())
    lam = spec.scale * deg + spec.offsets[i, j]  # the weight of that entry
    if image != x.scale(lam):
        raise ValueError("element is not theta-homogeneous")
    return lam
