"""Heisenberg subalgebras of the A-type loop algebra, indexed by partitions.

A partition (n_1 >= ... >= n_s) of the matrix size m yields a block
decomposition.  Each block of size n_i > 1 carries a cyclic generator with
ones on its superdiagonal and z in its lower-left corner; block identities
combine into diagonal generators; and the block-wise half-integer ladder
gives the grading element eta.  A basis permutation sorts eta's diagonal
into weakly decreasing order (stable, preserving block order on ties),
which is the convention every explicit matrix in this package uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .loop import (
    GradationSpec,
    LoopElement,
    bracket,
    chevalley,
    theta_eigenvalue,
)
from .reporting import CheckReport


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts:
            raise ValueError("empty partition")
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("partition parts must be weakly decreasing")
        if sum(parts) < 2:
            raise ValueError("partition must sum to at least 2")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def rank(self) -> int:
        return self.total - 1

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    @staticmethod
    def parse(text: str) -> "Partition":
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition {text!r}") from exc
        return Partition(parts)


@dataclass
class HeisenbergData:
    partition: Partition
    lambdas: list[LoopElement]
    h_elements: list[LoopElement]
    eta: LoopElement
    scale: int
    s_vector: tuple[int, ...]
    sigma: tuple[int, ...]

    @property
    def gradation(self) -> GradationSpec:
        return GradationSpec(self.partition.rank, self.scale, self.eta)


def _block_starts(partition: Partition) -> list[int]:
    starts, acc = [], 0
    for p in partition.parts:
        starts.append(acc)
        acc += p
    return starts


def _block_cycle(rank: int, start: int, size: int) -> LoopElement:
    entries = {(1, start + size - 1, start): Fraction(1)}
    entries.update({(0, start + r, start + r + 1): Fraction(1) for r in range(size - 1)})
    return LoopElement(rank, entries)


def _block_identity(rank: int, start: int, size: int) -> LoopElement:
    return LoopElement(rank, {(0, start + r, start + r): Fraction(1) for r in range(size)})


def _eta_prime_diagonal(partition: Partition) -> list[Fraction]:
    diag = []
    for p in partition.parts:
        diag.extend(Fraction(p - 1 - 2 * a, 2 * p) for a in range(p))
    return diag


def sorting_permutation(partition: Partition) -> tuple[int, ...]:
    """new_index_of_old for the stable descending sort of the eta diagonal."""
    diag = _eta_prime_diagonal(partition)
    order = sorted(range(len(diag)), key=lambda r: (-diag[r], r))
    new_of_old = [0] * len(diag)
    for new, old in enumerate(order):
        new_of_old[old] = new
    return tuple(new_of_old)


def _permute(element: LoopElement, new_of_old: tuple[int, ...]) -> LoopElement:
    entries = {
        (deg, new_of_old[i], new_of_old[j]): v for (deg, i, j), v in element.entries.items()
    }
    return LoopElement(element.rank, entries, element.c_k)


def compute_N(partition: Partition) -> int:
    """Gradation scale: lcm of the parts, doubled when any pairwise parity fails.

    The parity condition asks N' * (1/n_i + 1/n_j) to be even for every pair
    of parts, pairs with i = j included.
    """
    n_prime = math.lcm(*partition.parts)
    for i, a in enumerate(partition.parts):
        for b in partition.parts[i:]:
            if (n_prime // a + n_prime // b) % 2 != 0:
                return 2 * n_prime
    return n_prime


def build_heisenberg(partition: Partition) -> HeisenbergData:
    rank = partition.rank
    starts = _block_starts(partition)
    sigma = sorting_permutation(partition)

    lambdas = [
        _permute(_block_cycle(rank, starts[i], p), sigma)
        for i, p in enumerate(partition.parts)
        if p > 1
    ]
    h_elements = []
    for j in range(len(partition.parts) - 1):
        n_j, n_j1 = partition.parts[j], partition.parts[j + 1]
        h = _block_identity(rank, starts[j], n_j).scale(Fraction(n_j1)) - _block_identity(
            rank, starts[j + 1], n_j1
        ).scale(Fraction(n_j))
        h_elements.append(_permute(h, sigma))

    eta_diag = _eta_prime_diagonal(partition)
    eta = _permute(LoopElement(rank, {(0, i, i): v for i, v in enumerate(eta_diag)}), sigma)
    scale = compute_N(partition)
    data = HeisenbergData(partition, lambdas, h_elements, eta, scale, (), sigma)
    data.s_vector = gradation_type(data)
    return data


def gradation_type(data: HeisenbergData) -> tuple[int, ...]:
    """Degrees of the Chevalley generators e_0..e_n under the gradation.

    A non-integer or negative degree means the construction is broken, so it
    raises rather than reporting.
    """
    spec = data.gradation
    out = []
    for i in range(data.partition.rank + 1):
        lam = theta_eigenvalue(spec, chevalley(data.partition.rank, i, "e"))
        lam = Fraction(lam)
        if lam.denominator != 1 or lam < 0:
            raise ArithmeticError(f"generator {i} has degree {lam}, not a nonnegative integer")
        out.append(int(lam))
    return tuple(out)


def verify_heisenberg(partition: Partition) -> CheckReport:
    """Exact structural checks for the constructed subalgebra."""
    data = build_heisenberg(partition)
    report = CheckReport(f"heisenberg {partition}")
    spec = data.gradation

    generators = []
    for i, lam in enumerate(data.lambdas):
        generators.append((f"lambda_{i + 1}", lam))
    for j, h in enumerate(data.h_elements):
        generators.append((f"z*h_{j + 1}", h.z_shift(1)))
        generators.append((f"h_{j + 1}/z", h.z_shift(-1)))

    commute = True
    witness = None
    for a, (name_a, ga) in enumerate(generators):
        for name_b, gb in generators[a:]:
            br = bracket(ga, gb)
            if br.entries:
                commute = False
                witness = f"[{name_a}, {name_b}] has nonzero matrix part"
                break
        if not commute:
            break
    report.add("pairwise brackets are central", commute, witness)

    homogeneous = True
    witness = None
    try:
        for name, g in generators:
            theta_eigenvalue(spec, g)
    except (ValueError, ArithmeticError) as exc:
        homogeneous = False
        witness = f"{name}: {exc}"
    report.add("generators are gradation-homogeneous", homogeneous, witness)

    powers_ok = True
    witness = None
    lam_index = 0
    for i, p in enumerate(partition.parts):
        if p <= 1:
            continue
        lam = data.lambdas[lam_index]
        lam_index += 1
        for k in range(1, 2 * p + 1):
            pw = lam.power(k)
            if k % p == 0:
                start = _block_starts(partition)[i]
                expected = _permute(
                    _block_identity(partition.rank, start, p), data.sigma
                ).z_shift(k // p)
                if pw != expected:
                    powers_ok = False
                    witness = f"lambda_{i + 1}^{k} is not the shifted block identity"
            elif not pw.entries:
                powers_ok = False
                witness = f"lambda_{i + 1}^{k} vanished"
    report.add("cycle powers behave like block roots of z", powers_ok, witness)

    s = data.s_vector
    report.add(
        "generator degrees are nonnegative integers",
        all(v >= 0 for v in s),
        {"s": list(s)},
    )

    parts = partition.parts
    uniform = len(set(parts)) == 1
    uniform_plus_one = len(set(parts)) == 2 and parts[-1] == 1 and len(set(parts[:-1])) == 1
    if (uniform or uniform_plus_one) and data.lambdas:
        d1 = int(Fraction(theta_eigenvalue(spec, data.lambdas[0])))
        report.add(
            "leading cycle degree divides the gradation scale",
            data.scale % d1 == 0,
            {"degree": d1, "scale": data.scale},
        )
    return report
