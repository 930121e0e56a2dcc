"""Heisenberg subalgebra construction against independently known data."""

from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_ds.heisenberg import (
    Partition,
    build_heisenberg,
    compute_N,
    gradation_type,
    sorting_permutation,
    verify_heisenberg,
)
from painleve_ds.loop import bracket, identity, theta_eigenvalue

FIVE = [(2, 2), (3, 1), (4, 1), (2, 2, 1), (3, 3)]


def _trace0(element):
    """Trace of the z^0 coefficient."""
    return sum(v for (deg, i, j), v in element.entries.items() if deg == 0 and i == j)

# scale and generator degrees, known independently for the five cases
KNOWN = {
    (2, 2): (2, (1, 0, 1, 0)),
    (3, 1): (3, (1, 1, 0, 1)),
    (4, 1): (8, (2, 2, 1, 1, 2)),
    (2, 2, 1): (4, (2, 0, 1, 1, 0)),
    (3, 3): (3, (1, 0, 1, 0, 1, 0)),
}

KNOWN_ETA = {
    (2, 2): [QQ(1, 4), QQ(1, 4), QQ(-1, 4), QQ(-1, 4)],
    (3, 1): [QQ(1, 3), 0, 0, QQ(-1, 3)],
    (4, 1): [QQ(3, 8), QQ(1, 8), 0, QQ(-1, 8), QQ(-3, 8)],
    (2, 2, 1): [QQ(1, 4), QQ(1, 4), 0, QQ(-1, 4), QQ(-1, 4)],
    (3, 3): [QQ(1, 3), QQ(1, 3), 0, 0, QQ(-1, 3), QQ(-1, 3)],
}


class TestPartition:
    def test_parse(self):
        assert Partition.parse("3,2,2,1").parts == (3, 2, 2, 1)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_rank(self):
        assert Partition((3, 3)).rank == 5


class TestKnownCases:
    @pytest.mark.parametrize("parts", FIVE)
    def test_scale_and_type(self, parts):
        scale, s = KNOWN[parts]
        data = build_heisenberg(Partition(parts))
        assert data.scale == scale
        assert data.s_vector == s
        assert compute_N(Partition(parts)) == scale

    @pytest.mark.parametrize("parts", FIVE)
    def test_eta_diagonal(self, parts):
        data = build_heisenberg(Partition(parts))
        n = data.partition.total
        diag = [data.eta.entry(0, i, i) for i in range(n)]
        assert diag == KNOWN_ETA[parts]

    @pytest.mark.parametrize("parts", FIVE)
    def test_verify_report_passes(self, parts):
        assert verify_heisenberg(Partition(parts)).passed

    def test_doubling_rule_examples(self):
        # lcm alone when every pairwise sum of lcm-ratios is even
        assert compute_N(Partition((3, 3))) == 3
        assert compute_N(Partition((5,))) == 5
        # a single part always passes its own parity check
        assert compute_N(Partition((2,))) == 2
        assert compute_N(Partition((2, 2))) == 2
        # doubled when some pair of lcm-ratios has odd sum
        assert compute_N(Partition((2, 1))) == 4
        assert compute_N(Partition((4, 2))) == 8
        assert compute_N(Partition((3, 2))) == 12

    def test_sigma_for_two_two_one(self):
        # raw diagonal (1/4,-1/4 | 1/4,-1/4 | 0) sorts to (1/4,1/4,0,-1/4,-1/4)
        assert sorting_permutation(Partition((2, 2, 1))) == (0, 3, 1, 4, 2)


class TestStructuralProperties:
    @pytest.mark.parametrize("parts", FIVE)
    def test_cycle_powers_sum_to_shifted_identity(self, parts):
        # for partitions without size-one parts the block roots of z tile
        # the whole identity; size-one blocks are missing from the sum
        data = build_heisenberg(Partition(parts))
        if any(p == 1 for p in parts):
            pytest.skip("size-one parts carry no cycle")
        total = zip(data.lambdas, parts)
        acc = None
        for lam, p in total:
            acc = lam.power(p) if acc is None else acc + lam.power(p)
        assert acc == identity(data.partition.rank).z_shift(1)

    @pytest.mark.parametrize("parts", FIVE)
    def test_eta_traceless(self, parts):
        data = build_heisenberg(Partition(parts))
        assert _trace0(data.eta) == 0

    @pytest.mark.parametrize("parts", FIVE)
    def test_h_elements_traceless_and_commuting(self, parts):
        data = build_heisenberg(Partition(parts))
        for h in data.h_elements:
            assert _trace0(h) == 0
        for a in data.h_elements:
            for b in data.h_elements:
                assert bracket(a, b).is_zero()

    @pytest.mark.parametrize("parts", FIVE)
    def test_lambda_degree_is_scale_over_part(self, parts):
        data = build_heisenberg(Partition(parts))
        spec = data.gradation
        sizes = [p for p in parts if p > 1]
        for lam, p in zip(data.lambdas, sizes):
            assert theta_eigenvalue(spec, lam) == QQ(data.scale, p)


partitions = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
).filter(lambda xs: sum(xs) >= 2)


@settings(max_examples=40, deadline=None)
@given(partitions)
def test_arbitrary_partition_verifies(parts):
    assert verify_heisenberg(Partition(parts)).passed


@settings(max_examples=40, deadline=None)
@given(partitions)
def test_scale_divisible_by_every_part(parts):
    n = compute_N(Partition(parts))
    for p in parts:
        assert n % p == 0
