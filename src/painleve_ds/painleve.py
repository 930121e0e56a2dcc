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
points; rational constants go through those rows written over integers.

Each partition's flow, its system's canonical equations with the
record's gauge log-derivatives attached, is compiled once (``_flow``),
and every lane calls that one text: through ``flow_slope``, or, in the
stepper, directly; either way a zero divisor raises the PoleError that
names the flow.  The hand-written formulas run only to be traced.
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
from .tracing import RATIONAL, rational, trace

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
def _flow(parts: tuple):
    """(rhs, exact): the flow of one partition as straight-line code.

    ``hamiltonian`` runs once per phase coordinate on recording scalars,
    that coordinate's ``Gradient`` seeded with tangent 1 and the others
    with 0, so each pass records one partial beside the value; all 2n
    passes and the record's gauge log-derivatives share one tape, so a
    value or a term they share is one node, computed once.  ``rhs``
    returns dq/dt = dH/dp, dp/dt = -dH/dq per pair, then each gauge's
    d log/dt.  It compiles here, as it is traced, so that no integrate
    call after an exact one compiles; exact() is its pair form, on (n, d)
    pairs (see ``tracing.trace``), each rate a node.  The weights and eta stay
    arguments, so one compile serves every parameter set and every scalar type.
    """
    record = reduction(parts)
    n = record.pair_count

    def rhs(t, y, a, eta):
        params, y = SystemParameters(a, eta), y[: 2 * n]
        pairs = lambda flat: tuple(zip(flat[::2], flat[1::2]))
        seeded = lambda i: pairs([Gradient(x, int(i == j)) for j, x in enumerate(y)])
        grad = [hamiltonian(record.system, seeded(i), t, params).tangent for i in range(2 * n)]
        rates = record.gauge_log_derivatives(pairs(y), t, params)
        return [*chain(*((grad[2 * k + 1], ("-", grad[2 * k])) for k in range(n))), *map(rates.get, record.gauge_names)]

    y = (*(f"{c}{k}" for k in range(n) for c in "qp"), *(None for _ in record.gauge_names))
    shape = ("t", y, tuple(f"a{i}" for i in range(record.weight_count)), "eta")
    pole = f"division by zero in the flow of {record.label}"
    generic, exact = trace(f"right-hand side of {record.label}", rhs, shape, pairs=True, pole=pole)
    return generic(), exact


def flow_slope(parts: tuple, t, y, params: SystemParameters) -> tuple:
    """The slope of ``_flow(parts)`` at (t, y): the call through which every
    lane but the stepper reads the flow.  It runs the pair form, each rate
    reduced, when t, tested first, and every other input is an int or a
    Fraction; a zero divisor raises the flow's PoleError."""
    rhs, exact = _flow(parts)
    t, eta = _exact(t), params.eta
    if type(t) in RATIONAL and rational(chain(params.alpha, () if eta is None else (eta,), y)):
        split = lambda xs: [x.as_integer_ratio() for x in xs]
        eta = None if eta is None else eta.as_integer_ratio()
        return tuple([Fraction(n, d) for n, d in exact()(t.as_integer_ratio(), split(y), split(params.alpha), eta)])
    return rhs(t, y, params.alpha, eta)


def _pair_slope(record, pairs, t, params):
    """The slope of the record's flow at pairs, a 0 in each gauge's place,
    once the weights and the pair count fit the system (``require_weights``)."""
    require_weights(record, params, pairs)
    return flow_slope(record.parts, t, [*chain(*pairs), *(0 for _ in record.gauge_names)], params)


def vector_field(system: str, pairs, t, params: SystemParameters):
    """Canonical equations dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i, as (dq, dp)
    per pair: the pair rates of the flow of the system's record (see
    ``reductions.reduction``), read through ``flow_slope``.  Weights or
    a pair count that do not fit the system raise ValueError."""
    slope, n = _pair_slope(reduction(system), pairs, t, params), 2 * len(pairs)
    return tuple(zip(slope[0:n:2], slope[1:n:2]))


def reduction_parameters(parts: tuple, kappas, rhos) -> SystemParameters:
    """Affine weights of the target system from the integration constants,
    by ``_weight_rows`` on ints and Fractions, else by each form's loop."""
    record = reduction(parts)
    if len(kappas) != record.kappa_count or len(rhos) != record.rho_count:
        raise ValueError(
            f"{record.label} takes {record.kappa_count} kappas and {record.rho_count} rhos,"
            f" got {len(kappas)} and {len(rhos)}"
        )
    if rational(chain(kappas, rhos)):
        weights = _dots(_weight_rows(record.parts), (1, *kappas, *rhos))
    else:
        weights = [f(kappas, rhos) for f in (*record.alpha, record.eta) if f is not None]
    return SystemParameters(tuple(weights[: record.weight_count]), weights[-1] if record.eta is not None else None)


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


def _integer_row(row) -> tuple:
    """(d, terms): the coefficients over one denominator d, (index, integer) where nonzero."""
    d = math.lcm(*(c.denominator for c in row))
    return d, tuple((j, c.numerator * (d // c.denominator)) for j, c in enumerate(row) if c)


def _dots(rows, values) -> list:
    """Each integer row applied to rational values put over one lcm: one Fraction per row."""
    common = math.lcm(*(x.denominator for x in values))
    scaled = [x.numerator * (common // x.denominator) for x in values]
    return [Fraction(sum(c * scaled[j] for j, c in terms), d * common) for d, terms in rows]


@functools.cache
def _weight_rows(parts: tuple) -> tuple:
    """Each weight's form, eta's last, as an integer row over (1, *kappas, *rhos)."""
    record = reduction(parts)
    return tuple(_integer_row((f.const, *f.kappa, *f.rho)) for f in (*record.alpha, record.eta) if f is not None)


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
    reduced = [_integer_row(row[n:]) for row in row_reduce(rows, n)]
    return tuple(reduced[:n]), tuple(reduced[n:])


def require_weights(record, params: SystemParameters, pairs=None):
    """Refuse weights that do not fit the record's system, its weight count
    and an eta exactly when it takes one, and any other count of pairs."""
    if len(params.alpha) != record.weight_count or (params.eta is None) != (record.eta is None):
        eta = "and eta" if record.eta is not None else "and no eta"
        raise ValueError(f"the {record.system} system takes {record.weight_count} weights {eta}")
    if pairs is not None and len(pairs) != record.pair_count:
        raise ValueError(f"the {record.system} system takes {record.pair_count} pair(s), got {len(pairs)}")


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
    dots = _dots((*checks, *inverse), (1, *map(QQ, weights)))
    tolerance = 0
    if any(isinstance(w, float) for w in weights):
        tolerance = IMAGE_TOLERANCE * max(abs(w) for w in weights)
    if any(abs(residual) > tolerance for residual in dots[: len(checks)]):
        raise ValueError("weights are not in the image of the parameter map")
    sol = dots[len(checks) :]
    return tuple(sol[: record.kappa_count]), tuple(sol[record.kappa_count :])


def gauge_log_derivatives(parts: tuple, pairs, t, params: SystemParameters):
    """d/dt of the logarithm of each gauge function, keyed by name: the
    gauge rates of the partition's flow, read through ``flow_slope``,
    after the checks ``vector_field`` makes.

    These close the Lax representation: the zero-curvature equations
    determine the gauge functions only up to these compatible first order
    equations, which are part of the package's verified claims.
    """
    record = reduction(parts)
    return dict(zip(record.gauge_names, _pair_slope(record, pairs, t, params)[2 * record.pair_count :]))


def _symbolic_weight_sum(parts: tuple, _):
    form = weight_sum_form(parts)
    if form.const == 1 and not any(form.kappa) and not any(form.rho):
        return None
    return {"const": form.const, "kappa": form.kappa, "rho": form.rho}


@functools.cache
def _weight_sum_kernel(parts: tuple):
    """The marked weight sum of one partition over integer pairs,
    ``total(kappas, rhos)``, traced through ``reduction_parameters`` and
    compiled on its first call (see ``tracing.trace``).  Its only output
    is the total, so no weight is reduced on its own."""
    record = reduction(parts)

    def total(kappas, rhos):
        return sum(m * a for m, a in zip(record.marks, reduction_parameters(parts, kappas, rhos).alpha))

    shape = (tuple(f"k{j}" for j in range(record.kappa_count)), tuple(f"r{j}" for j in range(record.rho_count)))
    return trace(f"weight sum of {record.label}", total, shape)[1]()


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
