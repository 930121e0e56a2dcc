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
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .reductions import REDUCTIONS, LinearForm, reduction
from .reporting import CheckReport
from .sampling import check_claims, draw_constants
from .scalars import QQ, Gradient, PoleError, row_reduce
from .tracing import RATIONAL, Traced, compile_kernel, rational

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
    """Straight-line code for one system, as (field, exact, rhs by partition).

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
    set and every scalar type; exact() is the field over integer pairs,
    compiled on its first call (see ``tracing.compile_kernel``).
    """
    leaf = functools.partial(Traced, {})
    seed = lambda i, name: Gradient(leaf(name), tuple(int(i == j) for j in range(2 * pair_count)))
    coords = [(seed(2 * k, f"q{k}"), seed(2 * k + 1, f"p{k}")) for k in range(pair_count)]
    weights = tuple(leaf(f"a[{i}]") for i in range(weight_count))
    t, params = leaf("t"), SystemParameters(weights, leaf("eta"))
    grad = hamiltonian(system, coords, t, params).grad
    partials = [grad[2 * k + i] for k in range(pair_count) for i in (1, 0)]
    unpack = "".join(f"(q{k}, p{k}), " for k in range(pair_count))
    field, exact = compile_kernel(
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
            )[0]()
    return field(), exact, rhs


def _traced_rhs(parts: tuple):
    """The generated flow of one partition (see ``_traced_system``)."""
    record = reduction(parts)
    return _traced_system(record.system, record.pair_count, record.weight_count)[2][record.parts]


def vector_field(system: str, pairs, t, params: SystemParameters):
    """Canonical equations dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i, by the code
    generated once per system, over integer pairs when every input is an int
    or a Fraction (t tested first); an exact zero divisor raises PoleError."""
    field, exact, _ = _traced_system(system, len(pairs), len(params.alpha))
    t, eta = _exact(t), params.eta
    if type(t) in RATIONAL and rational(chain(params.alpha, () if eta is None else (eta,), *pairs)):
        field = exact()
    try:
        return field(pairs, t, params.alpha, eta)
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


def weight_sum_form(parts: tuple) -> LinearForm:
    """The weight sum, each weight times its mark, as a symbolic linear form."""
    record = reduction(parts)
    total = lambda column: sum(m * c for m, c in zip(record.marks, column))
    forms = record.alpha
    return LinearForm(
        total(f.const for f in forms),
        tuple(map(total, zip(*(f.kappa for f in forms)))),
        tuple(map(total, zip(*(f.rho for f in forms)))),
    )


# how far float weights may sit off the image, relative to the largest weight
IMAGE_TOLERANCE = 1e-12


@functools.cache
def _parameter_map(parts: tuple):
    """(inverse, checks): the map with the kappa sum fixed at zero,
    row-reduced once next to its right-hand side, written as a row over
    (1, *weights), eta's last: zero for the kappa sum, and each weight
    minus its form's constant.  Applied to (1, *weights), the inverse
    rows give the constants exactly as solving would, and the check rows
    the residual of each equation that is not a pivot.  Each row is (d,
    terms): integer coefficients over one denominator d, nonzero only."""
    record = reduction(parts)
    forms = (*record.alpha, *(() if record.eta is None else (record.eta,)))
    n, size = record.kappa_count + record.rho_count, range(len(forms))
    rows = [[1] * record.kappa_count + [0] * (record.rho_count + 1 + len(forms))]
    rows += [[*f.kappa, *f.rho, -f.const, *(int(i == j) for j in size)] for i, f in enumerate(forms)]

    def integer(row):
        d = math.lcm(*(c.denominator for c in row[n:]))
        return d, tuple((j, c.numerator * (d // c.denominator)) for j, c in enumerate(row[n:]) if c)

    reduced = row_reduce(rows, n)
    return tuple(map(integer, reduced[:n])), tuple(map(integer, reduced[n:]))


def require_weights(record, params: SystemParameters):
    """Refuse weights that do not fit the record's system: its weight
    count, and an eta exactly when the system takes one."""
    if len(params.alpha) != record.weight_count or (params.eta is None) != (record.eta is None):
        eta = "and eta" if record.eta is not None else "and no eta"
        raise ValueError(f"the {record.system} system takes {record.weight_count} weights {eta}")


def reduction_constants(parts: tuple, params: SystemParameters):
    """Invert the parameter map, gauge-fixing the kappa sum to zero.

    The inverse is exact: each constant is one Fraction, from an integer
    row of ``_parameter_map`` and the weights over one denominator.
    Rational weights must lie exactly in the image of the parameter map.
    Weights that hold a float are taken at their binary value, and each
    equation of the map must hold to within IMAGE_TOLERANCE times the
    largest weight magnitude.  Raises ValueError when a weight is not
    finite, do not fit the system (``require_weights``), the map is
    degenerate or the weights are off its image.
    """
    record = reduction(parts)
    require_weights(record, params)
    weights = [*params.alpha, *(() if record.eta is None else (params.eta,))]
    for name, w in zip([*(f"alpha{i}" for i in range(len(params.alpha))), "eta"], weights):
        if isinstance(w, float) and not math.isfinite(w):
            raise ValueError(f"weight {name} = {w} is not finite")
    try:
        inverse, checks = _parameter_map(record.parts)
    except PoleError:
        raise ValueError("parameter map is degenerate") from None
    ratios = [QQ(w) for w in weights]
    common = math.lcm(*(r.denominator for r in ratios))
    rhs = [common, *(r.numerator * (common // r.denominator) for r in ratios)]
    dot = lambda row: Fraction(sum(c * rhs[j] for j, c in row[1]), row[0] * common)
    tolerance = 0
    if any(isinstance(w, float) for w in weights):
        tolerance = IMAGE_TOLERANCE * max(abs(w) for w in weights)
    if any(abs(dot(row)) > tolerance for row in checks):
        raise ValueError("weights are not in the image of the parameter map")
    sol = [dot(row) for row in inverse]
    return tuple(sol[: record.kappa_count]), tuple(sol[record.kappa_count :])


def gauge_log_derivatives(parts: tuple, pairs, t, params: SystemParameters):
    """d/dt of the logarithm of each gauge function, keyed by name.

    These close the Lax representation: the zero-curvature equations
    determine the gauge functions only up to these compatible first order
    equations, which are part of the package's verified claims.
    """
    return reduction(parts).gauge_log_derivatives(pairs, _exact(t), params)


def _symbolic_weight_sum(parts: tuple, _):
    form = weight_sum_form(parts)
    if form.const == 1 and not any(form.kappa) and not any(form.rho):
        return None
    return {"const": form.const, "kappa": form.kappa, "rho": form.rho}


def _marked_sum(record, kappas, rhos):
    params = reduction_parameters(record.parts, kappas, rhos)
    return sum(m * a for m, a in zip(record.marks, params.alpha))


@functools.cache
def _weight_sum_kernel(parts: tuple):
    """The marked weight sum of one partition over integer pairs,
    ``total(kappas, rhos)``, traced through ``reduction_parameters`` and
    compiled on its first call (see ``tracing.compile_kernel``).  Its only
    output is the total, so no weight is reduced on its own."""
    record = reduction(parts)
    leaf = functools.partial(Traced, {})
    kappas = tuple(leaf(f"k{j}") for j in range(record.kappa_count))
    rhos = tuple(leaf(f"r{j}") for j in range(record.rho_count))
    names = lambda leaves: "".join(f"{x.name}, " for x in leaves)
    unpack = [names(kappas) + "= kappas", names(rhos) + "= rhos"]
    _, exact = compile_kernel(
        f"weight sum of {record.label}", "total(kappas, rhos)", unpack, "{}", [_marked_sum(record, kappas, rhos)]
    )
    return exact()


def _sampled_weight_sum(record, point):
    total = _weight_sum_kernel(record.parts)(*point)
    return None if total == 1 else {"kappas": point[0], "rhos": point[1], "sum": total}


# per partition: the weight sum proved from the coefficient rows, then sampled
WEIGHT_SUMS = tuple(
    claim
    for record in REDUCTIONS.values()
    for claim in (
        (f"({record.label}) symbolic weight sum", None,
         functools.partial(_symbolic_weight_sum, record.parts)),
        (f"({record.label}) sampled weight sum", functools.partial(draw_constants, record),
         functools.partial(_sampled_weight_sum, record)),
    )
)


def check_normalization(samples: int = 1000, seed: int = 0) -> CheckReport:
    """The weight sum of every parameter map is identically one.

    Checked twice per partition: symbolically, by summing the coefficient
    rows of the linear forms (constant one, every kappa and rho column
    zero), and by evaluating the full map at random rational constants.
    """
    return check_claims("weight-normalization", WEIGHT_SUMS, samples, seed)
