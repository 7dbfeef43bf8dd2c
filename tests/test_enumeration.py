"""Index-set enumeration, certification, deduplication, distances."""

import numpy as np
import pytest

from pcpkit import (
    CertificationError,
    ComplexityGuardError,
    InputError,
    PcpInstance,
    PolyMap,
    Polynomial,
    SolveConfig,
    certify_solution,
    distance_to_solutions,
    enumerate_solutions,
    min_abs_subsystem_determinant,
    natural_map,
    solve_subsystem,
)
from pcpkit.enumeration import damped_newton

FAST = SolveConfig(starts_per_subsystem=60)


class TestSolveSubsystem:
    def test_linear_subsystem(self, affine_shift):
        roots = solve_subsystem(affine_shift, (), FAST)  # solve g = 0
        assert roots.shape == (1, 2)
        assert np.allclose(roots[0], [1.0, 1.0], atol=1e-9)

    def test_inconsistent_subsystem(self, unsolvable_pair):
        roots = solve_subsystem(unsolvable_pair, (0, 1), FAST)  # x = 0, xy = 1
        assert len(roots) == 0

    def test_hyperbola_full_set(self, hyperbola_pair):
        roots = solve_subsystem(hyperbola_pair, (0, 1), FAST)
        assert any(np.allclose(r, [1.0, 1.0], atol=1e-8) for r in roots)

    def test_bad_index(self, affine_shift):
        with pytest.raises(InputError):
            solve_subsystem(affine_shift, (3,), FAST)

    def test_monotone_in_starts(self, hyperbola_pair):
        # doubling the start budget must keep every previously found root
        small = SolveConfig(starts_per_subsystem=50)
        large = SolveConfig(starts_per_subsystem=100)
        for subset in ((), (0,), (1,), (0, 1)):
            few = solve_subsystem(hyperbola_pair, subset, small)
            many = solve_subsystem(hyperbola_pair, subset, large)
            for root in few:
                assert any(
                    np.linalg.norm(root - other) <= small.dedupe_radius
                    for other in many
                )


class TestDampedNewton:
    @staticmethod
    def cubic(target):
        # x^3 = target, one variable, rows of a batch independent
        return (lambda x: x**3 - target), (lambda x: 3.0 * x[:, :, None] ** 2)

    def test_converges_and_counts_steps(self):
        values, jacobian = self.cubic(8.0)
        result = damped_newton(values, jacobian, np.array([[1.0], [2.0], [5.0]]), 1e-12, 50)
        assert result.alive.all() and not result.escaped.any()
        assert np.allclose(result.points[:, 0], 2.0)
        assert np.all(result.norms <= 1e-12)
        # the start at the root takes no step
        assert result.steps[1] == 0
        assert result.steps[0] > 0 and result.steps[2] > 0

    def test_escape_ball(self):
        values, jacobian = self.cubic(1e21)
        result = damped_newton(values, jacobian, np.array([[1e5]]), 1e-6, 50, escape_norm=1e6)
        assert result.escaped[0] and not result.alive[0]
        assert np.linalg.norm(result.points[0]) > 1e6

    def test_singular_jacobian_abandons_row(self):
        values, jacobian = self.cubic(8.0)
        result = damped_newton(values, jacobian, np.array([[0.0], [1.0]]), 1e-12, 50)
        assert list(result.alive) == [False, True]
        assert not result.escaped.any()

    def test_backtrack_takes_first_improving_scale(self):
        # from x = 2 the full arctan Newton step overshoots; scale 1/2 is the
        # first to improve and scale 1/4 would improve more
        values = np.arctan
        jacobian = lambda x: (1.0 / (1.0 + x**2))[:, :, None]  # noqa: E731
        step = -np.arctan(2.0) * 5.0
        residual = lambda s: abs(np.arctan(2.0 + s * step))  # noqa: E731
        assert residual(1.0) >= np.arctan(2.0) > residual(0.5) > residual(0.25)
        result = damped_newton(values, jacobian, np.array([[2.0]]), 1e-12, max_iters=1)
        assert result.points[0, 0] == 2.0 + 0.5 * step
        assert result.steps[0] == 1 and result.alive[0]

    def test_exhausted_backtracking_abandons_row(self):
        # x^2 + 1 has no real root; near its minimum no scale down to 2^-30
        # of the huge Newton step lowers the residual
        values = lambda x: x**2 + 1.0  # noqa: E731
        jacobian = lambda x: 2.0 * x[:, :, None]  # noqa: E731
        result = damped_newton(values, jacobian, np.array([[1e-12]]), 1e-12, 50)
        assert not result.alive[0] and not result.escaped[0]
        assert result.steps[0] == 0
        assert result.points[0, 0] == 1e-12


class TestEnumerate:
    def test_hyperbola_unique_solution(self, hyperbola_pair):
        sols = enumerate_solutions(hyperbola_pair, FAST)
        assert len(sols) == 1
        assert np.allclose(sols.points[0], [1.0, 1.0], atol=1e-8)

    def test_unsolvable_pair_empty(self, unsolvable_pair):
        sols = enumerate_solutions(unsolvable_pair, FAST)
        assert len(sols) == 0

    def test_affine_hand_enumeration(self, affine_shift):
        # only the empty index set admits a feasible root
        sols = enumerate_solutions(affine_shift, FAST)
        assert len(sols) == 1
        assert np.allclose(sols.points[0], [1.0, 1.0], atol=1e-9)
        assert sols.certificates[0].active_set == ()

    def test_every_point_certified(self, hyperbola_pair):
        sols = enumerate_solutions(hyperbola_pair, FAST)
        for cert in sols.certificates:
            m = natural_map(hyperbola_pair, cert.point)
            assert np.linalg.norm(m) <= FAST.newton_tol
            assert np.all(hyperbola_pair.f.evaluate(cert.point) >= -FAST.feasibility_tol)
            assert np.all(hyperbola_pair.g.evaluate(cert.point) >= -FAST.feasibility_tol)

    def test_pairwise_separated(self):
        # three scalar solutions: f = x, g = (x - 1)(x - 2)
        inst = PcpInstance(
            PolyMap((Polynomial(1, {(1,): 1.0}),)),
            PolyMap((Polynomial(1, {(2,): 1.0, (1,): -3.0, (0,): 2.0}),)),
        )
        sols = enumerate_solutions(inst, FAST)
        pts = sols.points[:, 0]
        assert np.allclose(sorted(pts), [0.0, 1.0, 2.0], atol=1e-8)
        gaps = np.diff(sorted(pts))
        assert np.all(gaps > FAST.dedupe_radius)

    def test_determinism(self, hyperbola_pair):
        a = enumerate_solutions(hyperbola_pair, FAST)
        b = enumerate_solutions(hyperbola_pair, FAST)
        assert a.to_dict() == b.to_dict()

    def test_complexity_guard(self):
        inst = PcpInstance(PolyMap.identity(25), PolyMap.identity(25))
        with pytest.raises(ComplexityGuardError):
            enumerate_solutions(inst, FAST)


class TestCertify:
    def test_accept_strict(self, affine_shift):
        cert = certify_solution(affine_shift, [1.0, 1.0], FAST)
        assert cert.strict_complementarity  # f + g = (1, 1) > 0
        assert cert.residual_norm <= FAST.newton_tol

    def test_accept_degenerate(self, hyperbola_pair):
        cert = certify_solution(hyperbola_pair, [1.0, 1.0], FAST)
        assert not cert.strict_complementarity  # f = g vanishes
        assert cert.min_abs_det_jac == pytest.approx(1.0)

    def test_reject_with_residual(self, hyperbola_pair):
        with pytest.raises(CertificationError) as info:
            certify_solution(hyperbola_pair, [0.0, 0.0], FAST)
        assert info.value.residual_norm == pytest.approx(np.sqrt(2.0))

    def test_min_det_identity(self, affine_shift):
        # every index-set Jacobian of (Id, x - 1) is the identity
        assert min_abs_subsystem_determinant(affine_shift, [1.0, 1.0]) == pytest.approx(1.0)

    def test_min_det_degenerate(self):
        inst = PcpInstance(
            PolyMap.identity(2),
            PolyMap(
                (
                    Polynomial(2, {(2, 0): 1.0}),
                    Polynomial(2, {(0, 1): 1.0}),
                )
            ),
        )
        assert min_abs_subsystem_determinant(inst, [0.0, 0.0]) == pytest.approx(0.0)


class TestDistance:
    def test_empty_set_is_one(self, unsolvable_pair):
        sols = enumerate_solutions(unsolvable_pair, FAST)
        assert distance_to_solutions(sols, [7.0, -3.0]) == 1.0
        batch = distance_to_solutions(sols, np.zeros((4, 2)))
        assert np.all(batch == 1.0)

    def test_member_and_offset(self, hyperbola_pair):
        sols = enumerate_solutions(hyperbola_pair, FAST)
        assert distance_to_solutions(sols, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-8)
        assert distance_to_solutions(sols, [0.0, 0.0]) == pytest.approx(
            np.sqrt(2.0), abs=1e-8
        )

    def test_batch_matches_single(self, hyperbola_pair):
        sols = enumerate_solutions(hyperbola_pair, FAST)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, size=(20, 2))
        batch = distance_to_solutions(sols, pts)
        singles = [distance_to_solutions(sols, p) for p in pts]
        assert np.allclose(batch, singles)


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            SolveConfig(newton_tol=-1.0)
        with pytest.raises(InputError):
            SolveConfig(dedupe_radius=1e-12)  # must exceed newton_tol
        with pytest.raises(InputError):
            SolveConfig(starts_per_subsystem=0)


class TestDedupe:
    def test_keeps_smallest_residual(self):
        from pcpkit.enumeration import _dedupe_points

        points = np.array([[1.0, 1.0], [1.0 + 1e-8, 1.0], [5.0, 5.0]])
        residuals = np.array([1e-12, 1e-15, 1e-13])
        kept, largest = _dedupe_points(points, residuals, radius=1e-6)
        assert len(kept) == 2
        assert any(np.array_equal(row, points[1]) for row in kept)
        assert largest == 2

    def test_lexicographic_tie_break(self):
        from pcpkit.enumeration import _dedupe_points

        points = np.array([[2.0, 0.0], [1.0, 3.0], [1.0, 2.0]])
        residuals = np.zeros(3)
        kept, _ = _dedupe_points(points, residuals, radius=1.5)
        # ties in residual resolve by coordinate order: (1, 2) survives
        # its cluster with (1, 3); (2, 0) is separated from both
        assert np.array_equal(kept[0], [1.0, 2.0])

    def test_greedy_not_transitive(self):
        from pcpkit.enumeration import _dedupe_points

        # 0.9 joins the cluster of 0; 1.8 is within the radius of 0.9 only,
        # so it starts its own cluster rather than chaining onto the first
        points = np.array([[0.0], [0.9], [1.8]])
        kept, largest = _dedupe_points(points, np.zeros(3), radius=1.0)
        assert np.array_equal(kept, [[0.0], [1.8]])
        assert largest == 2

    def test_large_cluster_counted(self):
        from pcpkit.enumeration import _dedupe_points

        rng = np.random.default_rng(0)
        cloud = rng.normal(scale=1e-9, size=(150, 2))
        kept, largest = _dedupe_points(cloud, np.zeros(150), radius=1e-6)
        assert len(kept) == 1
        assert largest == 150
