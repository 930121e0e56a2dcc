"""Birational symmetries of the coupled sixth-Painleve system.

Six reflections act on the phase space by rational canonical shifts, on
the six affine weights by the degree-six cyclic Cartan action (both
neighbours gain alpha_i, alpha_i itself negates), and on the extra weight
eta by eta -> eta + (-1)^i alpha_i.  The eta shift is not optional: each
reflection is conjugation of the Lax pair by a unipotent gauge factor,
which moves the integration constants by kappa_i -> kappa_i + 3 alpha_i
while fixing the rho constant, and the parameter map of the reduction
carries that move precisely to the stated eta shift.  With eta held fixed
the third reflection is not even an involution; RESOLUTIONS.md works the
algebra out.  The reflections run only to be traced: rational input
runs a trace's integer text, other input its generic text.  A second
trace, on dual numbers, gives the equivariance claim each image with its
tangent.

The gauge side lives here too: the unipotent factors for the coupled
sixth Lax pair, read off its M together with the induced motion of the
gauge variable w3, and the conjugation residual that ties the two
pictures together exactly, with M read from one trace of its assembly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from itertools import chain

from .lax import _check_poles, canonical_to_ds, lax_matrices, time_root
from .loop import LoopElement, apply_theta, bracket, chevalley
from .painleve import SystemParameters, _flow, flow_slope, reduction_parameters, require_weights
from .reductions import reduction
from .reporting import CheckReport
from .sampling import SCALE, check_claims, draw_constants, rational_satisfying, scaled_rational
from .scalars import (
    QQ,
    Gradient,
    PoleError,
    is_zero_scalar,
    tangent_of,
    value_of,
)
from .tracing import RATIONAL, rational, trace

GENERATORS = (0, 1, 2, 3, 4, 5)

# the reduction whose Lax pair carries the gauge picture of the reflections
CP6 = reduction((3, 3))

# pairs (i, j) with i < j that are not neighbours on the 6-cycle
NON_ADJACENT = tuple(
    (i, j)
    for i in GENERATORS
    for j in GENERATORS
    if i < j and (j - i) not in (1, 5)
)


def _shifted_weights(alpha, index):
    out = list(alpha)
    gain = alpha[index]
    out[(index - 1) % 6] = out[(index - 1) % 6] + gain
    out[(index + 1) % 6] = out[(index + 1) % 6] + gain
    out[index] = -gain
    return tuple(out)


def _reflection(index, pairs, alpha, eta, t, require):
    """r_index's image (pairs, alpha, eta) at a nonzero gain alpha[index]:
    the formulas the kernels are traced from.  ``require(denominator,
    description)`` is given each denominator before it divides."""
    (q1, p1), (q2, p2) = pairs
    gain = alpha[index]
    if index == 0:
        gap = require(q1 - q2, "q1 - q2")
        out = ((q1, p1 - gain / gap), (q2, p2 + gain / gap))
    elif index == 1:
        require(p1, "p1")
        out = ((q1 + gain / p1, p1), (q2, p2))
    elif index == 2:
        gap = require(q1 - t, "q1 - t")
        out = ((q1, p1 - gain / gap), (q2, p2))
    elif index == 3:
        action = q1 * p1 + q2 * p2
        d_p = require(action + eta, "q1*p1 + q2*p2 + eta")
        d_q = require(action - gain + eta, "q1*p1 + q2*p2 - alpha3 + eta")
        out = (
            (q1 + gain * q1 / d_q, p1 - gain * p1 / d_p),
            (q2 + gain * q2 / d_q, p2 - gain * p2 / d_p),
        )
    elif index == 4:
        gap = require(q2 - 1, "q2 - 1")
        out = ((q1, p1), (q2, p2 - gain / gap))
    else:
        require(p2, "p2")
        out = ((q1, p1), (q2 + gain / p2, p2))
    sign = 1 if index % 2 == 0 else -1
    return out, _shifted_weights(alpha, index), eta + sign * gain


@cache
def _reflection_kernel(index, dual):
    """(generic, exact): one trace of ``_reflection`` (``tracing.trace``) whose
    texts test each denominator ``require`` records, a zero raising the
    PoleError ``require`` names; the integer text is the pair form, on
    unreduced (n, d) pairs.  Without tangents it returns the image of all
    but t.  Dual, each coordinate is a ``Gradient``, t one with tangent 1,
    d the (3,3) flow's slope (w3's rate unused); the image's values and
    tangents come flat, and each guard is the value of a denominator."""
    poles, names, weights = {}, ("q1", "p1", "q2", "p2"), tuple(f"a{i}" for i in GENERATORS)

    def require(denominator, description):
        poles[value_of(denominator)] = f"reflection pole: {description} = 0"
        return denominator

    if dual:
        def reflect(pairs, d, a, eta, t):
            y = [Gradient(x, dx) for x, dx in zip(chain(*pairs), d)]
            out, a, eta = _reflection(index, (y[:2], y[2:]), a, eta, Gradient(t, 1), require)
            return [*map(value_of, chain(*out)), *map(tangent_of, chain(*out)), *a, eta]
        shape = ((names[:2], names[2:]), (*("d" + x for x in names), None), weights, "eta", "t")
    else:
        def reflect(q1, p1, q2, p2, a0, a1, a2, a3, a4, a5, eta, t):
            out, a, eta = _reflection(index, ((q1, p1), (q2, p2)), (a0, a1, a2, a3, a4, a5), eta, t, require)
            return [*chain(*out), *a, eta]
        shape = (*names, *weights, "eta", "t")
    return trace(f"reflection r{index}" + " with tangents" * dual, reflect, shape, poles, pairs=True)


def apply_generator(index, pairs, params: SystemParameters, t):
    """One reflection on (pairs, params); t never moves.

    The generator's integer text runs on the inputs' (n, d) pairs when
    each is an int or a Fraction (t tested first), and each value it moved
    is reduced; other input runs the generic text, which any scalar, a
    ``Gradient`` too, can run.  The index, then the weights and pairs, are
    checked; a vanishing denominator raises :class:`PoleError` naming it.
    """
    _require_generators((index,))
    require_weights(CP6, params, pairs)
    if is_zero_scalar(params.alpha[index]):
        return pairs, params
    generic, exact = _reflection_kernel(index, False)
    leaves = (*pairs[0], *pairs[1], *params.alpha, params.eta)
    if type(t) in RATIONAL and rational(leaves):
        start = [x.as_integer_ratio() for x in leaves]
        out = _reduced(leaves, start, exact()(*start, t.as_integer_ratio()))
    else:
        out = generic()(*leaves, t)
    q1, p1, q2, p2, *weights, eta = out
    return ((q1, p1), (q2, p2)), SystemParameters(alpha=tuple(weights), eta=eta)


def _reduced(values, start, image):
    """The image of values, from their (n, d) pairs start: a moved pair reduced, a kept one's value."""
    return [x if y is s else Fraction(*y) for x, s, y in zip(values, start, image)]


def _require_generators(word):
    for index in word:
        if index not in GENERATORS:
            raise ValueError(f"generator index out of range: {index}")


def _singular(word, cut, message):
    return f"word singular after prefix ({','.join(map(str, word[:cut]))}): {message}"


def apply_word(word, pairs, params: SystemParameters, t):
    """Left-to-right composition; a singular step reports its prefix.
    Each letter reduces its image, since unreduced growth is exponential.
    Every index is checked before the first letter runs."""
    letters = tuple(word)
    _require_generators(letters)
    for cut, index in enumerate(letters, start=1):
        try:
            pairs, params = apply_generator(index, pairs, params, t)
        except PoleError as err:
            raise PoleError(_singular(letters, cut, err)) from err
    return pairs, params


def _unreduced_word(word, image, t):
    """``apply_word`` on a rational point's (n, d) pairs, flat, with no
    Fraction built and no gcd taken: a numerator is 0 where its value is.
    A letter's pole names its prefix, as in ``apply_word``; the word is a relation word."""
    for cut, index in enumerate(word, start=1):
        if image[4 + index][0]:
            try:
                image = _reflection_kernel(index, False)[1]()(*image, t)
            except PoleError as err:
                raise PoleError(_singular(word, cut, err)) from err
    return image


# -- group relations ---------------------------------------------------


def relation_words():
    """The defining relations, as (name, word) pairs of expected identities."""
    words = [(f"r{i}^2", (i, i)) for i in GENERATORS]
    for i in GENERATORS:
        j = (i + 1) % 6
        words.append((f"braid({i},{j})", (i, j, i, j, i, j)))
    for i, j in NON_ADJACENT:
        words.append((f"commute({i},{j})", (i, j, i, j)))
    return tuple(words)


def sample_weyl_point(rng: random.Random):
    """Random rational point with unit-sum weights, clear of every pole.

    The reflections are symmetries of the coupled system only on the
    locus where the six weights sum to one (both reduction parameter
    maps land there identically); off that locus the group relations
    still hold but equivariance with the flow does not.  The draw also
    avoids each generator's pole denominator so that any single
    reflection is defined at the returned point.
    """
    q1, k_q1 = scaled_rational(rng)
    q2, k_q2 = scaled_rational(rng, (k_q1, SCALE))
    p1, k_p1 = scaled_rational(rng, (0,))
    p2, k_p2 = scaled_rational(rng, (0,))
    t, _ = scaled_rational(rng, (0, SCALE, k_q1))
    tail, k_tail = zip(*(scaled_rational(rng) for _ in range(5)))
    alpha = (QQ(SCALE - sum(k_tail), SCALE), *tail)
    # over SCALE**2: action = q1 p1 + q2 p2, and eta avoids -action and alpha3 - action
    action = k_q1 * k_p1 + k_q2 * k_p2
    eta, _ = scaled_rational(rng, (-action, k_tail[2] * SCALE - action), SCALE)
    return ((q1, p1), (q2, p2)), SystemParameters(alpha=alpha, eta=eta), t


def _witness(point, **failed):
    """A failing Weyl point as a report witness: where, at which weights, and what failed."""
    pairs, params, t = point
    return {"point": {"pairs": pairs, "t": t}, "alpha": params.alpha, "eta": params.eta, **failed}


def _examine_relation(word, point):
    """The word's image of a rational point, unreduced, against the point:
    n/d = m/e exactly when n e = m d.  Only a failing image is reduced."""
    pairs, params, t = point
    require_weights(CP6, params)
    leaves = (*pairs[0], *pairs[1], *params.alpha, params.eta)
    start = [x.as_integer_ratio() for x in leaves]
    image = _unreduced_word(word, start, t.as_integer_ratio())
    if all(n * e == m * d for (n, d), (m, e) in zip(image, start)):
        return None
    q1, p1, q2, p2 = _reduced(leaves, start, image)[:4]
    return _witness(point, image_pairs=((q1, p1), (q2, p2)))


RELATIONS = tuple(
    (name, sample_weyl_point, partial(_examine_relation, word)) for name, word in relation_words()
)


def check_relations(samples: int = 100, seed: int = 0) -> CheckReport:
    """Exact identity checks for every defining relation at random points."""
    return check_claims("weyl-relations", RELATIONS, samples, seed)


# -- equivariance ------------------------------------------------------


def equivariance_residual(index, pairs, params: SystemParameters, t):
    """Jacobian-vector product of a reflection against the flow, minus the
    flow at the image: identically zero exactly when the reflection maps
    solutions to solutions.

    One forward pass along d/dt, run as the generator's text with tangents
    (``_reflection_kernel``): phase coordinates are seeded with the
    Hamiltonian vector field and the time coordinate with 1, so
    reflections whose formulas mention t explicitly contribute their time
    derivative.  Both fields are the pair rates of the (3,3) flow's slope,
    with w3's place and rate unused.  The index and the weights are checked
    first.  Rational input, t tested first, runs ``_unreduced_residual``,
    other input the generic texts; at a zero gain the image is the point
    and its tangent the slope.
    """
    _require_generators((index,))
    require_weights(CP6, params, pairs)
    alpha, eta = params.alpha, params.eta
    leaves = (*pairs[0], *pairs[1], *alpha, eta)
    if type(t) in RATIONAL and rational(leaves):
        start = [x.as_integer_ratio() for x in leaves]
        return _unreduced_residual(index, start, t.as_integer_ratio()) or (Fraction(0),) * 4
    slope = flow_slope(CP6.parts, t, (*leaves[:4], 0), params)
    if is_zero_scalar(alpha[index]):
        out = (*leaves[:4], *slope[:4], *alpha, eta)
    else:
        out = _reflection_kernel(index, True)[0]()(pairs, slope, alpha, eta, t)
    target = flow_slope(CP6.parts, t, (*out[:4], 0), SystemParameters(alpha=out[8:14], eta=out[14]))
    return tuple(x - rate for x, rate in zip(out[4:8], target))


def _unreduced_residual(index, start, t):
    """``equivariance_residual`` on a rational point's (n, d) pairs, flat as
    ``_unreduced_word`` takes them: None where each tangent n/d equals its rate
    m/e, n e = m d, with no Fraction built, else the four differences, reduced."""
    flow = _flow(CP6.parts)[1]()
    slope = flow(t, (*start[:4], None), start[4:10], start[10])
    if start[4 + index][0]:
        image = _reflection_kernel(index, True)[1]()((start[:2], start[2:4]), slope, start[4:10], start[10], t)
    else:
        image = (*start[:4], *slope[:4], *start[4:])
    sides = tuple(zip(image[4:8], flow(t, (*image[:4], None), image[8:14], image[14])))
    if all(n * e == m * d for (n, d), (m, e) in sides):
        return None
    return tuple(Fraction(n * e - m * d, d * e) for (n, d), (m, e) in sides)


def _examine_equivariance(index, point):
    """``_unreduced_residual`` at a drawn point, split and its weights checked once."""
    pairs, params, t = point
    require_weights(CP6, params)
    leaves = (*pairs[0], *pairs[1], *params.alpha, params.eta)
    residual = _unreduced_residual(index, [x.as_integer_ratio() for x in leaves], t.as_integer_ratio())
    return residual and _witness(point, residual=residual)


EQUIVARIANCE = tuple(
    (f"flow equivariance of r{i}", sample_weyl_point, partial(_examine_equivariance, i))
    for i in GENERATORS
)


def check_equivariance(samples: int = 100, seed: int = 0) -> CheckReport:
    """Exact vector-field equivariance for every reflection.

    Dr_i applied to the flow, compared with the flow at the image point
    and parameters: both sides must agree coefficient by coefficient."""
    return check_claims("weyl-equivariance", EQUIVARIANCE, samples, seed)


# -- gauge picture for the coupled sixth Lax pair ----------------------


def gauge_function(index, m: LoopElement):
    """phi_i, the denominator of r_i's gauge coefficient, read off the
    coupled sixth M as -M[e_i]/3.

    With x = (alpha_i/phi_i) f_i and [f_i, e_i] = -h_i, the bracket [x, M]
    moves the diagonal of M by -(alpha_i/phi_i) M[e_i] h_i = 3 alpha_i h_i:
    the kappa_i -> kappa_i + 3 alpha_i shift of the constants.
    """
    (key,) = chevalley(5, index, "e").entries
    return -m.entry(*key) / 3


@cache
def _m_kernel():
    """(keys, generic, exact): the texts of one trace of (3,3)'s M (see
    ``tracing.trace``), its entries in key order, then K; a zero divisor
    raises "division by zero in the M of 3,3"."""
    keys = []

    def lax_m(pairs, t, u, w3, k, r):
        m, _ = lax_matrices(canonical_to_ds(CP6.parts, pairs, t, {"w3": w3}, k, r, root=u))
        keys.extend(m.entries)
        return [*m.entries.values(), m.c_k]

    shape = ((("q1", "p1"), ("q2", "p2")), "t", "u", "w3", tuple(f"k{j}" for j in range(6)), ("r0",))
    generic, exact = trace(f"M of {CP6.label}", lax_m, shape)
    return tuple(keys), generic, exact


def _lax_m(pairs, t, u, w3, kappas, rhos) -> LoopElement:
    """(3,3)'s M after ``canonical_to_ds``'s pole checks: the integer text
    on ints and Fractions, t tested first, else the generic text."""
    _check_poles(CP6, t, (w3,))
    keys, generic, exact = _m_kernel()
    kernel = exact() if type(t) in RATIONAL and rational(chain((u, w3), kappas, rhos, *pairs)) else generic()
    *entries, c_k = kernel(pairs, t, u, w3, kappas, rhos)
    return LoopElement(5, dict(zip(keys, entries)), c_k)


def conjugation_residual(index, pairs, t, w3, kappas, rhos, root=None) -> LoopElement:
    """Gauge-conjugated M minus M at the reflected point; exactly zero.

    The conjugation is by exp(x) with x = (alpha_i/phi_i) f_i; x squares
    to zero in the evaluation representation, so the series exp(ad x) M
    stops at second order, and the grade-operator inhomogeneity is theta(x).
    The central coefficient moves through the bracket cocycle, matching
    the kappa_i -> kappa_i + 3 alpha_i shift of the constants.  root is
    the value of u, u**3 = 1/t, and defaults to ``time_root``'s.
    """
    _require_generators((index,))
    u = time_root(CP6.parts, t).value if root is None else root
    params = reduction_parameters(CP6.parts, kappas, rhos)
    m = _lax_m(pairs, t, u, w3, kappas, rhos)
    phi = gauge_function(index, m)
    if is_zero_scalar(value_of(phi)):
        raise PoleError(f"gauge function phi_{index} = 0")
    x = chevalley(5, index, "f").scale(params.alpha[index] / phi)
    xm = bracket(x, m)
    bridge = m + xm + bracket(x, xm).scale(QQ(1, 2)) + apply_theta(CP6.gradation, x)
    new_pairs, _ = apply_generator(index, pairs, params, t)
    new_kappas = list(kappas)
    new_kappas[index] += 3 * params.alpha[index]
    # r3 alone moves w3, by its gauge coefficient
    new_w3 = w3 - params.alpha[3] / phi if index == 3 else w3
    return _lax_m(new_pairs, t, u, new_w3, new_kappas, rhos) - bridge


def _draw_bridge(rng):
    pairs, _, _ = sample_weyl_point(rng)
    u = rational_satisfying(rng, lambda x: x != 0 and CP6.root.time(x) not in (1, pairs[0][0]))
    w3, _ = scaled_rational(rng, (0,))
    return pairs, CP6.root.time(u), u, w3, *draw_constants(CP6, rng)


def _examine_bridge(index, point):
    pairs, t, u, w3, kappas, rhos = point
    if conjugation_residual(index, pairs, t, w3, kappas, rhos, root=u).is_zero():
        return None
    return {"point": {"pairs": pairs, "t": t, "w3": w3}, "kappas": kappas, "rhos": rhos}


BRIDGES = tuple(
    (f"conjugation bridge of r{i}", _draw_bridge, partial(_examine_bridge, i)) for i in GENERATORS
)


def check_conjugation(samples: int = 25, seed: int = 0) -> CheckReport:
    """Exact gauge-conjugation bridge for every reflection.

    The unipotent conjugate of M, with the grade-operator inhomogeneity,
    must equal M rebuilt at the reflected point and shifted constants;
    the comparison includes the central coefficients."""
    return check_claims("gauge-conjugation", BRIDGES, samples, seed)
