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

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .reductions import REDUCTIONS, LinearForm, reduction
from .reporting import CheckReport
from .sampling import first_witness, random_rational
from .scalars import QQ, Gradient, PoleError, row_reduce
from .tracing import Traced, compile_kernel

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


@functools.cache
def _traced_system(system: str, pair_count: int, weight_count: int):
    """Straight-line code for one system, as (field, rhs by partition).

    ``hamiltonian`` runs once on recording scalars, each phase coordinate
    seeded as a ``Gradient`` along its own unit direction, so the tape
    records every partial beside the value.  From that tape come the
    canonical equations, ``field(pairs, t, a, eta)``, and for each
    partition that reduces to the system its flow ``rhs(t, y, a, eta)``:
    y is flat, each pair (q, p) then the log-gauges, and the slope is the
    canonical equations then the record's gauge log-derivatives, traced on
    the same tape, so a term they share is computed once.  One trace and
    one compile per system serve both lanes, whichever runs first.  The
    weights and eta stay arguments, so one compile serves every parameter
    set and every scalar type.
    """
    leaf = functools.partial(Traced, {})
    seed = lambda i, name: Gradient(leaf(name), tuple(int(i == j) for j in range(2 * pair_count)))
    coords = [(seed(2 * k, f"q{k}"), seed(2 * k + 1, f"p{k}")) for k in range(pair_count)]
    weights = tuple(leaf(f"a[{i}]") for i in range(weight_count))
    t, params = leaf("t"), SystemParameters(weights, leaf("eta"))
    grad = hamiltonian(system, coords, t, params).grad
    partials = [grad[2 * k + i] for k in range(pair_count) for i in (1, 0)]
    unpack = "".join(f"(q{k}, p{k}), " for k in range(pair_count))
    field = compile_kernel(
        f"vector field of {system}", "field(pairs, t, a, eta)", [f"{unpack}= pairs"],
        "(" + "({}, -{}), " * pair_count + ")", partials,
    )
    pairs, rhs = tuple((q.value, p.value) for q, p in coords), {}
    for record in REDUCTIONS.values():
        if (record.system, record.pair_count, record.weight_count) == (system, pair_count, weight_count):
            rates = record.gauge_log_derivatives(pairs, t, params)
            unpack = "".join(f"q{k}, p{k}, " for k in range(pair_count)) + "_, " * len(rates)
            rhs[record.parts] = compile_kernel(
                f"right-hand side of {record.label}", "rhs(t, y, a, eta)", [f"{unpack}= y"],
                "(" + "{}, -{}, " * pair_count + "{}, " * len(rates) + ")",
                [*partials, *(rates[name] for name in record.gauge_names)],
            )
    return field, rhs


def _traced_rhs(parts: tuple):
    """The generated flow of one partition (see ``_traced_system``)."""
    record = reduction(parts)
    return _traced_system(record.system, record.pair_count, record.weight_count)[1][record.parts]


def vector_field(system: str, pairs, t, params: SystemParameters):
    """Canonical equations dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i, by the code
    generated once per system; an exact zero divisor raises PoleError."""
    field, _ = _traced_system(system, len(pairs), len(params.alpha))
    try:
        return field(pairs, _exact(t), params.alpha, params.eta)
    except ZeroDivisionError:
        raise PoleError("division by zero in the vector field") from None


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


@functools.cache
def _parameter_map(parts: tuple):
    """(forms, inverse, checks): the weight forms, eta's last, and the map
    with the kappa sum fixed at zero, row-reduced once next to the
    identity.  Applied to a right-hand side, the inverse rows give the
    constants exactly as solving would, and the check rows the residual
    of each equation that is not a pivot.  Rows keep nonzero terms only."""
    record = reduction(parts)
    forms = (*record.alpha, *(() if record.eta is None else (record.eta,)))
    rows = [[1] * record.kappa_count + [0] * record.rho_count, *([*f.kappa, *f.rho] for f in forms)]
    n, size = len(rows[0]), range(len(rows))
    reduced = row_reduce([[*row, *(int(i == j) for j in size)] for i, row in enumerate(rows)], n)
    terms = lambda row: tuple((j, c) for j, c in enumerate(row[n:]) if c)
    return forms, tuple(map(terms, reduced[:n])), tuple(map(terms, reduced[n:]))


def reduction_constants(parts: tuple, params: SystemParameters):
    """Invert the parameter map, gauge-fixing the kappa sum to zero.

    The inverse is exact, so the constants come back as rationals.
    Rational weights must lie exactly in the image of the parameter map.
    Weights that hold a float are taken at their binary value, and each
    equation of the map must hold to within IMAGE_TOLERANCE times the
    largest weight magnitude.  Raises ValueError when the map is
    degenerate or the weights are off its image.
    """
    record = reduction(parts)
    weights = [*params.alpha, *(() if record.eta is None else (params.eta,))]
    try:
        forms, inverse, checks = _parameter_map(record.parts)
    except PoleError:
        raise ValueError("parameter map is degenerate") from None
    rhs = [QQ(0), *(QQ(w) - f.const for f, w in zip(forms, weights))]
    dot = lambda terms: sum(c * rhs[j] for j, c in terms)
    tolerance = 0
    if any(isinstance(w, float) for w in weights):
        tolerance = IMAGE_TOLERANCE * max(abs(w) for w in weights)
    if any(abs(dot(terms)) > tolerance for terms in checks):
        raise ValueError("weights are not in the image of the parameter map")
    sol = [dot(terms) for terms in inverse]
    return tuple(sol[: record.kappa_count]), tuple(sol[record.kappa_count :])


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
