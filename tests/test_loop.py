"""Loop algebra layer: bracket, invariant form, gradations."""

import random
from fractions import Fraction as QQ

import pytest

from painleve_ds.loop import (
    GradationSpec,
    LoopElement,
    apply_theta,
    bracket,
    chevalley,
    identity,
    single_entry,
    theta_eigenvalue,
)
from painleve_ds.reductions import REDUCTIONS
from painleve_ds.scalars import is_zero_scalar


def invariant_form(a, b):
    """Standard invariant symmetric form: the trace pairing of residues.

    K pairs only with the scaling element d, which the algebra leaves out,
    so the central coordinate does not enter.
    """
    total = 0
    for (deg, i, j), u in a.entries.items():
        total = total + u * b.entry(-deg, j, i)
    return total


def reference_theta(spec, x):
    """The gradation derivation in its defining form, scale * (z d/dz + ad eta)."""
    z_derivative = LoopElement(x.rank, {key: key[0] * v for key, v in x.entries.items()})
    return (z_derivative + bracket(spec.eta, x)).scale(QQ(spec.scale))


def _rational(rng):
    return QQ(rng.randint(-9, 9), rng.randint(1, 4))


def _largest(element):
    """The largest absolute coefficient of an element."""
    return max(abs(v) for v in (*element.entries.values(), element.c_k))


def random_element(rank, rng, degrees=(-2, -1, 0, 1, 2), density=0.4, value=_rational):
    entries = {}
    n = rank + 1
    for deg in degrees:
        for i in range(n):
            for j in range(n):
                if rng.random() < density:
                    entries[deg, i, j] = value(rng)
    return LoopElement(rank, entries, c_k=QQ(rng.randint(-3, 3)))


class TestStructure:
    def test_simple_root_triple(self):
        # [e_i, f_i] recovers the coroot, including the central term at i = 0
        n = 3
        for i in range(n + 1):
            e = chevalley(n, i, "e")
            f = chevalley(n, i, "f")
            if i == 0:
                h = LoopElement(n, {(0, n, n): QQ(1), (0, 0, 0): QQ(-1)}, c_k=QQ(1))
            else:
                h = LoopElement(n, {(0, i - 1, i - 1): QQ(1), (0, i, i): QQ(-1)})
            assert bracket(e, f) == h

    def test_nested_ad_word(self):
        # [e_2, e_3] lands on a single matrix unit
        assert bracket(chevalley(3, 2, "e"), chevalley(3, 3, "e")) == single_entry(3, 0, 1, 3)

    def test_power_of_shifted_cycle(self):
        lam = single_entry(3, 0, 0, 1) + single_entry(3, 0, 1, 2) + single_entry(
            3, 0, 2, 3
        ) + single_entry(3, 1, 3, 0)
        assert lam.power(4) == identity(3).z_shift(1)
        assert lam.power(8) == identity(3).z_shift(2)

    def test_invariant_form_pairs_opposite_degrees(self):
        a = single_entry(2, 2, 0, 1)
        b = single_entry(2, -2, 1, 0)
        assert invariant_form(a, b) == 1
        assert invariant_form(a, single_entry(2, -1, 1, 0)) == 0
        central = LoopElement(2, c_k=QQ(1))
        assert invariant_form(central, central) == 0

    def test_central_extension_cocycle(self):
        # [z X, z^-1 Y] picks up tr(XY) K
        x = single_entry(2, 1, 0, 1)
        y = single_entry(2, -1, 1, 0)
        br = bracket(x, y)
        assert br.c_k == 1
        assert br.entry(0, 0, 0) == 1
        assert br.entry(0, 1, 1) == -1


class TestLieAxioms:
    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(7)
        for _ in range(12):
            a = random_element(2, rng)
            b = random_element(2, rng)
            c = random_element(2, rng)
            assert bracket(a, b) == bracket(b, a).scale(QQ(-1))
            jac = (
                bracket(a, bracket(b, c))
                + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))
            )
            assert jac.is_zero()

    def test_form_invariance(self):
        # ([a,b] | c) + (b | [a,c]) = 0
        rng = random.Random(11)
        for _ in range(12):
            a = random_element(2, rng)
            b = random_element(2, rng)
            c = random_element(2, rng)
            lhs = invariant_form(bracket(a, b), c) + invariant_form(b, bracket(a, c))
            assert lhs == 0

    def test_bracket_bilinear(self):
        rng = random.Random(13)
        a = random_element(3, rng)
        b = random_element(3, rng)
        c = random_element(3, rng)
        s = QQ(3, 5)
        assert bracket(a.scale(s) + b, c) == bracket(a, c).scale(s) + bracket(b, c)


class TestStorage:
    def test_no_result_stores_a_zero_coefficient(self):
        # the constructor is the only place that drops zeros, so every
        # operation must hand its cancellations to it
        spec = REDUCTIONS[(2, 2)].gradation
        x = single_entry(3, 0, 0, 0) + single_entry(3, 0, 0, 1)
        y = single_entry(3, 0, 0, 0) - single_entry(3, 0, 1, 0)
        assert x.mat_mul(y).entry(0, 0, 0) == 0  # E00 E00 - E01 E10 cancels
        rng = random.Random(29)
        for _ in range(8):
            a = random_element(3, rng)
            b = random_element(3, rng)
            # b minus half of a: the sum a + half cancels entries pairwise
            half = LoopElement(3, {key: -v for key, v in list(a.entries.items())[::2]})
            plain_a, plain_b = LoopElement(3, a.entries), LoopElement(3, b.entries)
            results = [
                a + b, a + half, a - a, a - b, a.scale(0), a.scale(QQ(-2, 3)),
                a.z_shift(2), bracket(a, b), bracket(a, a), bracket(a, half),
                plain_a.mat_mul(plain_b), x.mat_mul(y), apply_theta(spec, a),
                apply_theta(spec, identity(3)),
            ]
            for result in results:
                assert not any(is_zero_scalar(v) for v in result.entries.values())
            assert not (a - a).entries and not a.scale(0).entries


class TestGradation:
    def spec(self):
        # principal-type eta for 2x2: diag(1/4, -1/4), scale 2
        eta = LoopElement(1, {(0, 0, 0): QQ(1, 4), (0, 1, 1): QQ(-1, 4)})
        return GradationSpec(1, 2, eta)

    def test_theta_on_generators(self):
        spec = self.spec()
        assert theta_eigenvalue(spec, chevalley(1, 1, "e")) == 1
        assert theta_eigenvalue(spec, chevalley(1, 0, "e")) == 1
        assert theta_eigenvalue(spec, chevalley(1, 1, "f")) == -1

    def test_theta_is_a_derivation(self):
        spec = self.spec()
        rng = random.Random(3)
        for _ in range(8):
            a = random_element(1, rng, degrees=(-1, 0, 1))
            b = random_element(1, rng, degrees=(-1, 0, 1))
            lhs = apply_theta(spec, bracket(a, b))
            rhs = bracket(apply_theta(spec, a), b) + bracket(a, apply_theta(spec, b))
            assert lhs == rhs

    def test_entrywise_theta_matches_the_definition(self):
        # every gradation in use, on Fraction and on float entries; the
        # float entries are rounded in another order, hence the tolerance
        specs = [self.spec()] + [record.gradation for record in REDUCTIONS.values()]
        rng = random.Random(19)
        for spec in specs:
            for _ in range(6):
                exact = random_element(spec.rank, rng)
                assert apply_theta(spec, exact) == reference_theta(spec, exact)
                real = random_element(spec.rank, rng, value=lambda r: r.uniform(-9, 9))
                reference = reference_theta(spec, real)
                gap = _largest(apply_theta(spec, real) - reference)
                assert gap <= 1e-12 * _largest(reference)

    def test_eta_off_the_diagonal_is_refused(self):
        for eta in (
            single_entry(1, 0, 0, 1),
            single_entry(1, 1, 0, 0),
            LoopElement(1, c_k=QQ(1)),
        ):
            with pytest.raises(ValueError, match="diagonal of degree 0"):
                GradationSpec(1, 2, eta)

    def test_inhomogeneous_element_rejected(self):
        spec = self.spec()
        mixed = chevalley(1, 1, "e") + chevalley(1, 1, "f")
        with pytest.raises(ValueError):
            theta_eigenvalue(spec, mixed)

    def test_the_zero_element_has_no_degree(self):
        with pytest.raises(ValueError, match="^zero element has no degree$"):
            theta_eigenvalue(self.spec(), LoopElement(1, {}))


class TestRefusals:
    @pytest.mark.parametrize("i, kind, refusal", [
        (3, "e", "index 3 out of range for rank 2"),
        (-1, "f", "index -1 out of range for rank 2"),
        (1, "h", "unknown generator kind 'h'"),
    ])
    def test_chevalley_refuses_an_index_or_a_kind(self, i, kind, refusal):
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            chevalley(2, i, kind)

    @pytest.mark.parametrize("combine", [lambda a, b: a + b, bracket], ids=["add", "bracket"])
    def test_elements_of_mixed_ranks_are_refused(self, combine):
        with pytest.raises(ValueError, match="^mixed ranks$"):
            combine(chevalley(1, 1, "e"), chevalley(2, 1, "e"))


class TestRendering:
    def test_render_mentions_each_degree(self):
        el = single_entry(1, 0, 0, 1) + single_entry(1, 2, 1, 0) + LoopElement(1, c_k=QQ(1))
        text = el.render()
        assert "z^0" in text
        assert "z^2" in text
        assert "K" in text

    def test_zero_is_zero(self):
        assert LoopElement(4).is_zero()
        assert not identity(4).is_zero()
