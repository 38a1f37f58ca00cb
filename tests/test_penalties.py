import numpy as np
import pytest

from gapshrink.certify import check_gap_nonnegativity
from gapshrink.errors import DimensionError, UnsupportedPenaltyError
from gapshrink.penalties import (
    GeneralizedL1,
    GroupL2,
    Halfspace,
    L1,
    NormBall,
    Nuclear,
    Quadratic,
    Sum,
    conjugate_value,
    operator_norm,
    penalty_value,
)


class TestPenaltyValue:
    def test_l1(self):
        assert penalty_value(L1(2.0), [1.0, -1.0]) == 4.0

    def test_generalized_l1_fused_pair(self):
        spec = GeneralizedL1([[1.0, -1.0]], 1.0)
        assert penalty_value(spec, [0.5, 0.5]) == 0.0
        assert penalty_value(spec, [1.0, 0.0]) == 1.0

    def test_ball_indicator(self):
        ball = NormBall("l1", 1.0)
        assert penalty_value(ball, [0.8, 0.5]) == np.inf
        assert penalty_value(ball, [0.5, 0.5]) == 0.0

    def test_group_l2_indicator(self):
        spec = GroupL2(((0, 1), (2,)), (1.0, 2.0))
        assert penalty_value(spec, [0.6, 0.6, 0.0]) == 0.0
        assert penalty_value(spec, [1.0, 1.0, 0.0]) == np.inf

    def test_quadratic(self):
        spec = Quadratic(np.diag([2.0, 4.0]))
        assert penalty_value(spec, [1.0, 1.0]) == pytest.approx(3.0)

    def test_nuclear_is_singular_value_sum(self):
        spec = Nuclear(2.0, (2, 2))
        assert penalty_value(spec, np.diag([3.0, 1.0])) == pytest.approx(8.0)

    def test_sum_adds_parts_and_propagates_inf(self):
        spec = Sum((L1(1.0), NormBall("linf", 1.0)))
        assert penalty_value(spec, [0.5, -0.5]) == pytest.approx(1.0)
        assert penalty_value(spec, [2.0, 0.0]) == np.inf

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            penalty_value(Quadratic(np.eye(2)), [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            penalty_value(Nuclear(1.0, (2, 3)), np.zeros((3, 2)))

    def test_non_penalty_rejected(self):
        for spec in (object(), "l1", None):
            with pytest.raises(UnsupportedPenaltyError):
                penalty_value(spec, [1.0, 2.0])
            with pytest.raises(UnsupportedPenaltyError):
                conjugate_value(spec, [1.0, 2.0])


class TestConjugate:
    def test_l1_box(self):
        assert conjugate_value(L1(2.0), [2.0, 0.0]) == 0.0
        assert conjugate_value(L1(2.0), [3.0, 0.0]) == np.inf

    def test_quadratic(self):
        assert conjugate_value(Quadratic(np.eye(2)), [2.0, 0.0]) == pytest.approx(2.0)

    def test_ball_gives_support(self):
        assert conjugate_value(NormBall("l1", 1.0), [3.0, -1.0]) == pytest.approx(3.0)

    def test_nuclear_operator_ball(self):
        spec = Nuclear(2.0, (2, 2))
        assert conjugate_value(spec, np.diag([2.0, 1.0])) == 0.0
        assert conjugate_value(spec, np.diag([2.5, 0.0])) == np.inf

    def test_sum_unsupported(self):
        with pytest.raises(UnsupportedPenaltyError):
            conjugate_value(Sum((L1(1.0), L1(1.0))), [0.0, 0.0])

    def test_generalized_l1_unsupported(self):
        with pytest.raises(UnsupportedPenaltyError):
            conjugate_value(GeneralizedL1([[1.0, -1.0]], 1.0), [0.0, 0.0])


class TestSupportFunction:
    """The conjugate of a ball indicator is its support function."""

    def test_l1_ball_dual_is_linf(self):
        assert conjugate_value(NormBall("l1", 1.0), [3.0, -1.0]) == pytest.approx(3.0)

    def test_l2_ball(self):
        assert conjugate_value(NormBall("l2", 2.0), [3.0, 4.0]) == pytest.approx(10.0)

    def test_group_l2_single_group(self):
        spec = GroupL2(((0, 1),), (1.0,))
        assert conjugate_value(spec, [3.0, 4.0]) == pytest.approx(5.0)

    def test_group_l2_partition_sums(self):
        spec = GroupL2(((0, 1), (2,)), (1.0, 2.0))
        assert conjugate_value(spec, [3.0, 4.0, -1.0]) == pytest.approx(7.0)

    def test_overlapping_groups_rejected(self):
        spec = GroupL2(((0, 1), (1, 2)), (1.0, 1.0))
        with pytest.raises(UnsupportedPenaltyError, match="overlapping"):
            conjugate_value(spec, [1.0, 1.0, 1.0])

    def test_uncovered_index_named(self):
        # disjoint groups that skip index 1 do not overlap
        spec = GroupL2(((0,), (2, 3)), (1.0, 1.0))
        with pytest.raises(UnsupportedPenaltyError, match=r"indices \[1\] lie in no group"):
            conjugate_value(spec, [1.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("groups, radii, message", [
        ((), (), "at least one index"),
        (((),), (1.0,), "at least one index"),
        (((-1,),), (1.0,), "nonnegative"),
        (((0, 1), (-2,)), (1.0, 1.0), "nonnegative"),
    ], ids=["no-groups", "empty-group", "negative", "negative-in-second"])
    def test_bad_indices_rejected_at_construction(self, groups, radii, message):
        with pytest.raises(ValueError, match=message):
            GroupL2(groups, radii)


class TestHalfspaceSupport:
    def test_cone_direction(self):
        hs = Halfspace([1.0, 0.0], 0.5)
        assert conjugate_value(hs, [2.0, 0.0]) == pytest.approx(1.0)
        assert conjugate_value(hs, [0.0, 0.0]) == 0.0

    def test_off_cone_is_infinite(self):
        hs = Halfspace([1.0, 0.0], 0.5)
        assert conjugate_value(hs, [0.0, 1.0]) == np.inf
        assert conjugate_value(hs, [-1.0, 0.0]) == np.inf

    def test_indicator_value(self):
        hs = Halfspace([[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        np.testing.assert_array_equal(
            penalty_value(hs, [[0.5, 3.0], [0.3, 0.3]]), [0.0, np.inf]
        )
        with pytest.raises(DimensionError):
            penalty_value(hs, [[0.5, 3.0, 0.0], [0.3, 0.3, 0.0]])


class TestOperatorNorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            M = rng.normal(size=(5, 4))
            top = np.linalg.svd(M, compute_uv=False)[0]
            assert operator_norm(M) == pytest.approx(top, rel=1e-7)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_top_right_singular_vector_orthogonal_to_ones(self):
        M = np.array([[3.0, -3.0], [1.0, 1.0]])
        assert operator_norm(M) == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-12)

    def test_nuclear_duals_scaled_feasible(self):
        # a seed whose nuclear cases include a dual that an inexact
        # operator norm would scale outside the operator-norm ball
        res = check_gap_nonnegativity(seed=8938848260009)
        assert res["min_gap"] >= -1e-10

    def test_nuclear_dual_scaled_onto_ball_feasible(self):
        # the matrix on which a power iteration from the ones vector stopped
        # at 0.826: its top right singular vector is (1, -1)/sqrt(2)
        M = np.array([[-0.6322, 1.5181], [-1.6308, 0.8686]])
        assert operator_norm(M) == pytest.approx(2.331, abs=1e-3)
        lam = 1.7
        u = M * (lam / operator_norm(M))
        spec = Nuclear(lam, (2, 2))
        assert conjugate_value(spec, u) == 0.0
        assert conjugate_value(spec, 1.01 * u) == np.inf
        # the same two duals inside a stack of random ones
        rng = np.random.default_rng(0)
        stack = rng.normal(0, 0.1, (20, 2, 2))
        stack[3], stack[11] = u, 1.01 * u
        out = conjugate_value(Nuclear(np.full(20, lam), (2, 2)), stack)
        assert out[3] == 0.0 and out[11] == np.inf
        np.testing.assert_array_equal(np.delete(out, 11), 0.0)


class TestValidation:
    def test_negative_scalars_rejected(self):
        with pytest.raises(ValueError):
            L1(-1.0)
        with pytest.raises(ValueError):
            NormBall("l2", -0.5)

    def test_nan_parameters_rejected(self):
        # NaN passed a `< 0` test: L1(nan) gave a NaN penalty and a NaN
        # radius put every point outside the ball
        nan = float("nan")
        for make in (lambda: L1(nan), lambda: L1(np.array([1.0, nan])),
                     lambda: NormBall("l2", nan)):
            with pytest.raises(ValueError, match="nonnegative"):
                make()

    def test_asymmetric_quadratic_rejected(self):
        with pytest.raises(ValueError):
            Quadratic([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("Q", [
        -np.eye(2),
        np.zeros((2, 2)),
        np.stack([np.eye(2), np.diag([1.0, -1.0])]),
    ])
    def test_quadratic_not_positive_definite_rejected(self, Q):
        # at -I the penalty and conjugate at (1, 0) both read -0.5, and a
        # singular Q failed only later, inside the conjugate's solve
        with pytest.raises(ValueError, match="positive definite"):
            Quadratic(Q)

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            Sum(())
