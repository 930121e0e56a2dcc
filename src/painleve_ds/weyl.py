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
algebra out.

The gauge side lives here too: the unipotent factors for the coupled
sixth Lax pair, read off its M together with the induced motion of the
gauge variable w3, and the conjugation residual that ties the two
pictures together exactly.
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import chain

from .lax import canonical_to_ds, lax_matrices, time_root
from .loop import LoopElement, apply_theta, bracket, chevalley
from .painleve import SystemParameters, reduction_parameters, require_weights, vector_field
from .reductions import reduction
from .reporting import CheckReport
from .sampling import SCALE, check_claims, draw_constants, nonzero_rational, rational_satisfying, scaled_rational
from .scalars import (
    QQ,
    Gradient,
    PoleError,
    is_zero_scalar,
    tangent_of,
    value_of,
)
from .tracing import RATIONAL, Traced, compile_kernel, rational

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


def _pole(description):
    return PoleError(f"reflection pole: {description} = 0")


def _require_nonzero(denominator, description):
    if is_zero_scalar(value_of(denominator)):
        raise _pole(description)
    return denominator


def _shifted_weights(alpha, index):
    out = list(alpha)
    gain = alpha[index]
    out[(index - 1) % 6] = out[(index - 1) % 6] + gain
    out[(index + 1) % 6] = out[(index + 1) % 6] + gain
    out[index] = -gain
    return tuple(out)


def _reflection(index, pairs, alpha, eta, t, require=_require_nonzero):
    """r_index's image (pairs, alpha, eta) at a nonzero gain alpha[index]:
    the formulas that the generic path runs and the kernels are traced
    from.  ``require(denominator, description)`` guards each denominator."""
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
def _reflection_kernel(index):
    """(reflect, poles): ``_reflection`` for one generator over integer
    pairs, traced and compiled on its first call (see
    ``tracing.compile_kernel``), and each denominator's description keyed
    by the tape name that the kernel's ZeroDivisionError carries."""
    leaf, poles = partial(Traced, {}), {}

    def require(denominator, description):
        poles[denominator.name] = description
        return denominator

    pairs = ((leaf("q1"), leaf("p1")), (leaf("q2"), leaf("p2")))
    alpha = tuple(leaf(f"a{i}") for i in GENERATORS)
    out, weights, eta = _reflection(index, pairs, alpha, leaf("eta"), leaf("t"), require)
    _, exact = compile_kernel(
        f"reflection r{index}", "reflect(pairs, a, eta, t)",
        ["(q1, p1), (q2, p2) = pairs", "".join(f"a{i}, " for i in GENERATORS) + "= a"],
        "((({}, {}), ({}, {})), (" + "{}, " * len(GENERATORS) + "), {})",
        [*chain(*out), *weights, eta],
    )
    return exact(), poles


def apply_generator(index, pairs, params: SystemParameters, t):
    """One reflection on (pairs, params); t never moves.

    Scalars pass through generically, so gradients can ride along for
    Jacobian-vector products; when every input is an int or a Fraction
    (t tested first), the generator's kernel runs over integer pairs.
    The weights must fit the coupled sixth system.  Vanishing reflection
    denominators raise :class:`PoleError` naming the denominator.
    """
    if index not in GENERATORS:
        raise ValueError(f"generator index out of range: {index}")
    require_weights(CP6, params)
    alpha, eta = params.alpha, params.eta
    if is_zero_scalar(alpha[index]):
        return pairs, params
    if type(t) in RATIONAL and rational(chain(alpha, (eta,), *pairs)):
        reflect, poles = _reflection_kernel(index)
        try:
            out, weights, eta = reflect(pairs, alpha, eta, t)
        except ZeroDivisionError as err:
            raise _pole(poles[err.args[0]]) from None
    else:
        out, weights, eta = _reflection(index, pairs, alpha, eta, t)
    return out, SystemParameters(alpha=weights, eta=eta)


def apply_word(word, pairs, params: SystemParameters, t):
    """Left-to-right composition; a singular step reports its prefix."""
    letters = tuple(word)
    for cut, index in enumerate(letters, start=1):
        try:
            pairs, params = apply_generator(index, pairs, params, t)
        except PoleError as err:
            prefix = ",".join(str(i) for i in letters[:cut])
            raise PoleError(f"word singular after prefix ({prefix}): {err}") from err
    return pairs, params


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
    image = apply_word(word, *point)
    return None if image == point[:2] else _witness(point, image_pairs=image[0])


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

    One forward pass along d/dt: phase coordinates are seeded with the
    Hamiltonian vector field and the time coordinate with 1, so
    reflections whose formulas mention t explicitly contribute their time
    derivative.
    """
    flows = vector_field("cp6", pairs, t, params)
    lifted = tuple(
        (Gradient(q, (fq,)), Gradient(p, (fp,))) for (q, p), (fq, fp) in zip(pairs, flows)
    )
    out_pairs, out_params = apply_generator(index, lifted, params, Gradient(t, (QQ(1),)))
    # the weights never carry a partial, so out_params is already plain
    image = tuple((value_of(q), value_of(p)) for q, p in out_pairs)
    target = vector_field("cp6", image, t, out_params)
    residual = []
    for (q, p), (fq, fp) in zip(out_pairs, target):
        residual.append(tangent_of(q) - fq)
        residual.append(tangent_of(p) - fp)
    return tuple(residual)


def _examine_equivariance(index, point):
    residual = equivariance_residual(index, *point)
    return None if all(map(is_zero_scalar, residual)) else _witness(point, residual=residual)


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


def conjugation_residual(index, pairs, t, w3, kappas, rhos, root=None) -> LoopElement:
    """Gauge-conjugated M minus M at the reflected point; exactly zero.

    The conjugation is by exp(x) with x = (alpha_i/phi_i) f_i; x squares
    to zero in the evaluation representation, so the series exp(ad x) M
    stops at second order, and the grade-operator inhomogeneity is theta(x).
    The central coefficient moves through the bracket cocycle, matching
    the kappa_i -> kappa_i + 3 alpha_i shift of the constants.  root is
    the value of u, u**3 = 1/t, and defaults to ``time_root``'s.
    """
    u = time_root(CP6.parts, t).value if root is None else root
    params = reduction_parameters(CP6.parts, kappas, rhos)
    state = canonical_to_ds(CP6.parts, pairs, t, {"w3": w3}, kappas, rhos, root=u)
    m, _ = lax_matrices(state)
    phi = gauge_function(index, m)
    if is_zero_scalar(value_of(phi)):
        raise PoleError(f"gauge function phi_{index} = 0")
    x = chevalley(5, index, "f").scale(params.alpha[index] / phi)
    bridge = (
        m
        + bracket(x, m)
        + bracket(x, bracket(x, m)).scale(QQ(1, 2))
        + apply_theta(CP6.gradation, x)
    )
    new_pairs, _ = apply_generator(index, pairs, params, t)
    new_kappas = list(kappas)
    new_kappas[index] += 3 * params.alpha[index]
    # r3 alone moves w3, by its gauge coefficient
    new_w3 = w3 - params.alpha[3] / phi if index == 3 else w3
    new_state = canonical_to_ds(CP6.parts, new_pairs, t, {"w3": new_w3}, new_kappas, rhos, root=u)
    return lax_matrices(new_state)[0] - bridge


def _draw_bridge(rng):
    pairs, _, _ = sample_weyl_point(rng)
    u = rational_satisfying(rng, lambda x: x != 0 and CP6.root.time(x) not in (1, pairs[0][0]))
    w3 = nonzero_rational(rng)
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
