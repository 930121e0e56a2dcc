"""Painleve Hamiltonian systems attached to the loop-algebra reductions.

Each supported partition produces one of four canonical Hamiltonian systems:
a single sixth-Painleve equation, a coupled fourth-Painleve pair, a coupled
fifth-Painleve pair, or a coupled sixth-Painleve pair carrying an extra
weight eta.

Parameters enter twice: the reduction produces integration constants
(kappas and rhos), and the Hamiltonians are written in affine weights
(alphas, plus eta where applicable).  The bridge is an explicit linear map
per partition, kept in its record as exact coefficient rows so identities
between the weights can be checked symbolically and not merely at sampled
points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .reductions import REDUCTIONS, LinearForm, reduction
from .reporting import CheckReport
from .sampling import first_witness, random_rational
from .scalars import QQ, Gradient, PoleError, solve_rational_system

def h4(q, p, t, a, b):
    """Fourth-Painleve building block."""
    return q * p * (p - q - t) - a * q - b * p


def h5(q, p, t, a, b, c):
    """Fifth-Painleve building block."""
    return q * (q - 1) * p * (p + t) + a * t * q + b * p - c * q * p


def h6(q, p, t, a, b, c, d):
    """Sixth-Painleve building block."""
    return (
        q * (q - 1) * (q - t) * p * p
        - ((a - 1) * q * (q - 1) + b * q * (q - t) + c * (q - 1) * (q - t)) * p
        + d * q
    )


def _exact(x):
    """An int as a Fraction, so that int/int true division stays in Q."""
    return Fraction(x) if type(x) is int else x


@dataclass(frozen=True)
class SystemParameters:
    """Affine weights of a system; eta only for the coupled sixth system.

    Integer weights are held as Fractions: the formulas divide sums of
    weights by 3 or 4.
    """

    alpha: tuple
    eta: object = None

    def __post_init__(self):
        if int in map(type, (*self.alpha, self.eta)):
            object.__setattr__(self, "alpha", tuple(map(_exact, self.alpha)))
            object.__setattr__(self, "eta", _exact(self.eta))


def hamiltonian(system: str, pairs, t, params: SystemParameters):
    # every division meets t, so an exact t keeps int pairs exact
    t = _exact(t)
    a = params.alpha
    if system == "p6":
        ((q, p),) = pairs
        return h6(q, p, t, a[0], a[3], a[4], a[2] * (a[1] + a[2])) / (t * (t - 1))
    if system == "a4":
        (q1, p1), (q2, p2) = pairs
        return (
            h4(q1, p1, t, a[2], a[1])
            + h4(q2, p2, t, a[4], a[1] + a[3])
            + 2 * q1 * p1 * p2
        )
    if system == "a5":
        (q1, p1), (q2, p2) = pairs
        return (
            h5(q1, p1, t, a[2], a[1], a[1] + a[3] + a[5])
            + h5(q2, p2, t, a[4], a[1] + a[3], a[1] + a[3] + a[5])
            + 2 * q1 * p1 * (q2 - 1) * p2
        ) / t
    if system == "cp6":
        (q1, p1), (q2, p2) = pairs
        eta = params.eta
        return (
            h6(q1, p1, t, a[2], a[0] + a[4], a[3] + a[5] - eta, eta * a[1])
            + h6(q2, p2, t, a[0] + a[2], a[4], a[1] + a[3] - eta, eta * a[5])
            + (q1 - t) * (q2 - 1) * ((q1 * p1 + a[1]) * p2 + p1 * (p2 * q2 + a[5]))
        ) / (t * (t - 1))
    raise ValueError(f"unknown system {system!r}")


def vector_field(system: str, pairs, t, params: SystemParameters):
    """Canonical equations dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i.

    One forward pass: each phase coordinate is seeded with its unit
    vector, so the Hamiltonian comes back with its whole gradient.
    """
    size = 2 * len(pairs)
    unit = [tuple([int(i == j) for j in range(size)]) for i in range(size)]
    seeded = tuple(
        (Gradient(q, unit[2 * k]), Gradient(p, unit[2 * k + 1]))
        for k, (q, p) in enumerate(pairs)
    )
    grad = hamiltonian(system, seeded, t, params).grad
    return tuple((grad[2 * k + 1], -grad[2 * k]) for k in range(len(pairs)))


def reduction_parameters(parts: tuple, kappas, rhos) -> SystemParameters:
    """Affine weights of the target system from the integration constants."""
    record = reduction(parts)
    if len(kappas) != record.kappa_count or len(rhos) != record.rho_count:
        raise ValueError(
            f"{record.label} takes {record.kappa_count} kappas and {record.rho_count} rhos,"
            f" got {len(kappas)} and {len(rhos)}"
        )
    alpha = tuple(f(kappas, rhos) for f in record.alpha)
    eta = record.eta(kappas, rhos) if record.eta is not None else None
    return SystemParameters(alpha, eta)


def _weight_multiplicity(record) -> list:
    """How often each weight enters the weight sum: the single sixth
    Painleve system writes its doubled middle weight once."""
    mult = [1] * record.weight_count
    if record.system == "p6":
        mult[2] = 2
    return mult


def weight_sum_form(parts: tuple) -> LinearForm:
    """The weight sum as a symbolic linear form."""
    record = reduction(parts)
    forms = record.alpha
    mult = _weight_multiplicity(record)
    const = sum(m * f.const for m, f in zip(mult, forms))
    kappa = tuple(
        sum(m * f.kappa[j] for m, f in zip(mult, forms))
        for j in range(record.kappa_count)
    )
    rho = tuple(
        sum(m * f.rho[j] for m, f in zip(mult, forms))
        for j in range(record.rho_count)
    )
    return LinearForm(const, kappa, rho)


# how far float weights may sit off the image, relative to the largest weight
IMAGE_TOLERANCE = 1e-12


def reduction_constants(parts: tuple, params: SystemParameters):
    """Invert the parameter map, gauge-fixing the kappa sum to zero.

    The inverse is solved exactly, so the constants come back as
    rationals.  Rational weights must lie exactly in the image of the
    parameter map.  Weights that hold a float are taken at their binary
    value, and each equation of the map must hold to within
    IMAGE_TOLERANCE times the largest weight magnitude.  Raises
    ValueError when the map is degenerate or the weights are off its
    image.
    """
    record = reduction(parts)
    n_kappa = record.kappa_count
    n_rho = record.rho_count
    targets = list(record.alpha)
    weights = list(params.alpha)
    if record.eta is not None:
        targets.append(record.eta)
        weights.append(params.eta)

    rows = [[QQ(1)] * n_kappa + [QQ(0)] * n_rho]
    rhs = [QQ(0)]
    for f, w in zip(targets, weights):
        rows.append(list(f.kappa) + list(f.rho))
        rhs.append(QQ(w) - f.const)

    try:
        sol = solve_rational_system(rows, rhs)
    except PoleError:
        raise ValueError("parameter map is degenerate") from None
    tolerance = 0
    if any(isinstance(w, float) for w in weights):
        tolerance = IMAGE_TOLERANCE * max(abs(w) for w in weights)
    for row, value in zip(rows, rhs):
        if abs(sum(c * x for c, x in zip(row, sol)) - value) > tolerance:
            raise ValueError("weights are not in the image of the parameter map")
    return tuple(sol[:n_kappa]), tuple(sol[n_kappa:])


def gauge_log_derivatives(parts: tuple, pairs, t, params: SystemParameters):
    """d/dt of the logarithm of each gauge function, keyed by name.

    These close the Lax representation: the zero-curvature equations
    determine the gauge functions only up to these compatible first order
    equations, which are part of the package's verified claims.
    """
    return reduction(parts).gauge_log_derivatives(pairs, _exact(t), params)


def check_normalization(samples: int = 1000, seed: int = 0) -> CheckReport:
    """The weight sum of every parameter map is identically one.

    Checked twice per partition: symbolically, by summing the coefficient
    rows of the linear forms (constant one, every kappa and rho column
    zero), and by evaluating the full map at random rational constants.
    """
    report = CheckReport("weight-normalization")
    rng = random.Random(seed)
    for record in REDUCTIONS.values():
        label = record.label
        form = weight_sum_form(record.parts)
        symbolic = (
            form.const == 1
            and all(c == 0 for c in form.kappa)
            and all(c == 0 for c in form.rho)
        )
        report.add(
            f"({label}) symbolic weight sum",
            symbolic,
            None if symbolic else {"const": form.const, "kappa": form.kappa, "rho": form.rho},
        )
        multiplicity = _weight_multiplicity(record)

        def draw(rng):
            kappas = tuple(random_rational(rng) for _ in range(record.kappa_count))
            return kappas, tuple(random_rational(rng) for _ in range(record.rho_count))

        def examine(point):
            params = reduction_parameters(record.parts, *point)
            total = sum(m * a for m, a in zip(multiplicity, params.alpha))
            return None if total == 1 else {"kappas": point[0], "rhos": point[1], "sum": total}

        witness = first_witness(rng, samples, draw, examine, f"({label}) weight sum")
        report.add(f"({label}) sampled weight sum", witness is None, witness)
    return report
