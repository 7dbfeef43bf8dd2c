"""Index-set enumeration, certification, deduplication, distances."""

import numpy as np
import pytest
from scipy.stats import qmc

from pcpkit import enumeration
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
    min_phi,
    natural_map,
    natural_residual_norm,
    solve_subsystem,
)
from pcpkit.enumeration import _dedupe_points, _start_cloud, damped_newton
from pcpkit.genericity import random_instance

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
        return (lambda x, rows: x**3 - target), (lambda x, rows: 3.0 * x[:, :, None] ** 2)

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
        values = lambda x, rows: np.arctan(x)  # noqa: E731
        jacobian = lambda x, rows: (1.0 / (1.0 + x**2))[:, :, None]  # noqa: E731
        step = -np.arctan(2.0) * 5.0
        residual = lambda s: abs(np.arctan(2.0 + s * step))  # noqa: E731
        assert residual(1.0) >= np.arctan(2.0) > residual(0.5) > residual(0.25)
        result = damped_newton(values, jacobian, np.array([[2.0]]), 1e-12, max_iters=1)
        assert result.points[0, 0] == 2.0 + 0.5 * step
        assert result.steps[0] == 1 and result.alive[0]

    def test_exhausted_backtracking_abandons_row(self):
        # x^2 + 1 has no real root; near its minimum no scale down to 2^-30
        # of the huge Newton step lowers the residual
        values = lambda x, rows: x**2 + 1.0  # noqa: E731
        jacobian = lambda x, rows: 2.0 * x[:, :, None]  # noqa: E731
        result = damped_newton(values, jacobian, np.array([[1e-12]]), 1e-12, 50)
        assert not result.alive[0] and not result.escaped[0]
        assert result.steps[0] == 0
        assert result.points[0, 0] == 1e-12


def halton_cloud(n, cfg, mask):
    """A freshly drawn start cloud, as the enumerator draws it."""
    seed = np.random.SeedSequence(entropy=[cfg.rng_seed, mask])
    engine = qmc.Halton(d=n, scramble=True, seed=np.random.default_rng(seed))
    return (2.0 * engine.random(cfg.starts_per_subsystem) - 1.0) * cfg.start_box_radius


def reference_sweep(inst, masks, cfg, x_ref):
    """Per-subset sweep: one PolyMap and one Newton call per index set."""
    roots = []
    for mask in masks:
        system = PolyMap(tuple(
            inst.f.components[i] if mask >> i & 1 else inst.g.components[i]
            for i in range(inst.n)
        ))
        extra = [np.zeros(inst.n)] + ([np.asarray(x_ref, dtype=float)] if x_ref is not None else [])
        starts = np.vstack([halton_cloud(inst.n, cfg, mask), *extra])
        result = damped_newton(
            lambda x, rows: system.evaluate(x), lambda x, rows: system.jacobian(x),
            starts, cfg.newton_tol * 1e-2, cfg.max_newton_iters,
        )
        found = result.points[result.alive & (result.norms <= cfg.newton_tol)]
        residuals = np.linalg.norm(system.evaluate(found), axis=1)
        unique, _ = _dedupe_points(found, residuals, cfg.dedupe_radius)
        roots.append(unique[np.lexsort(unique.T[::-1])])
    return roots


def assert_same_points(got, want):
    assert np.array_equal(got, want)


class TestBatchedSweep:
    """The (subset, start) batch against the per-subset reference sweep."""

    def check(self, inst, cfg, x_ref, monkeypatch):
        masks = range(1 << inst.n)
        got_roots = enumeration._solve_subsystems(inst, masks, cfg, x_ref)
        want_roots = reference_sweep(inst, masks, cfg, x_ref)
        for got, want in zip(got_roots, want_roots, strict=True):
            assert_same_points(got, want)
        # the rest of the enumeration, once on each sweep's roots
        solution_sets = []
        for roots in (got_roots, want_roots):
            monkeypatch.setattr(enumeration, "_solve_subsystems", lambda *args: roots)
            solution_sets.append(enumerate_solutions(inst, cfg, x_ref))
        monkeypatch.undo()
        got, want = solution_sets
        assert got.completeness_claim == want.completeness_claim
        assert_same_points(got.points, want.points)

    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize(
        "fixture",
        ["hyperbola_pair", "unsolvable_pair", "affine_shift", "identity_pair",
         "swapped_linear", "scalar_shift"],
    )
    def test_fixtures(self, request, monkeypatch, fixture, with_ref):
        inst = request.getfixturevalue(fixture)
        x_ref = np.full(inst.n, 0.5) if with_ref else None
        self.check(inst, FAST, x_ref, monkeypatch)

    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_instances(self, monkeypatch, n, with_ref):
        cfg = SolveConfig(starts_per_subsystem=40)
        for seed in range(2):
            inst = random_instance(n, [2] * n, [2] * n, 100 * n + seed)
            x_ref = np.linspace(-1.0, 1.0, n) if with_ref else None
            self.check(inst, cfg, x_ref, monkeypatch)

    def test_several_chunks(self, monkeypatch):
        # 8 subsets of 401 rows: two subsets per chunk, so four kernel calls
        cfg = SolveConfig(starts_per_subsystem=400)
        inst = random_instance(3, [2] * 3, [2] * 3, 7)
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return damped_newton(*args, **kwargs)

        monkeypatch.setattr(enumeration, "damped_newton", counted)
        got = enumeration._solve_subsystems(inst, range(8), cfg, None)
        assert calls == [802] * 4
        for roots, want in zip(got, reference_sweep(inst, range(8), cfg, None), strict=True):
            assert_same_points(roots, want)

    def test_one_kernel_call_per_chunk(self, monkeypatch, hyperbola_pair):
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return damped_newton(*args, **kwargs)

        monkeypatch.setattr(enumeration, "damped_newton", counted)
        enumerate_solutions(hyperbola_pair)
        assert calls == [4 * 201]

    def test_cached_cloud_is_read_only_and_fresh(self):
        cfg = SolveConfig(starts_per_subsystem=50, rng_seed=3, start_box_radius=2.5)
        for n, mask in ((1, 1), (3, 5), (4, 0)):
            cloud = _start_cloud(n, cfg.rng_seed, mask, cfg.starts_per_subsystem,
                                 cfg.start_box_radius)
            assert not cloud.flags.writeable
            with pytest.raises(ValueError):
                cloud[0, 0] = 1.0
            assert np.array_equal(cloud, halton_cloud(n, cfg, mask))
            assert _start_cloud(n, cfg.rng_seed, mask, cfg.starts_per_subsystem,
                                cfg.start_box_radius) is cloud

    def test_alternating_configs_match_fresh_calls(self, hyperbola_pair):
        first = SolveConfig(starts_per_subsystem=30, rng_seed=1)
        second = SolveConfig(starts_per_subsystem=45, rng_seed=2, start_box_radius=4.0)
        alternating = [
            enumerate_solutions(hyperbola_pair, cfg).to_dict()
            for cfg in (first, second, first, second)
        ]
        fresh = []
        for cfg in (first, second):
            _start_cloud.cache_clear()
            fresh.append(enumerate_solutions(hyperbola_pair, cfg).to_dict())
        assert alternating == fresh * 2


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


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_min_det_equals_loop(self, n):
        rng = np.random.default_rng(n)
        for seed in range(3):
            inst = random_instance(n, [2] * n, [3] * n, 10 * n + seed)
            x = rng.standard_normal(n)
            _, _, jac_f, jac_g = inst.evaluate_pair(x, jacobians=True)
            best = np.inf
            rows = np.empty_like(jac_f)
            for mask in range(1 << n):
                for i in range(n):
                    rows[i] = jac_f[i] if mask & (1 << i) else jac_g[i]
                best = min(best, abs(float(np.linalg.det(rows))))
            assert min_abs_subsystem_determinant(inst, x) == best

    def test_min_det_chunks(self, monkeypatch):
        inst = random_instance(5, [2] * 5, [2] * 5, 3)
        x = np.linspace(-1.0, 1.0, 5)
        whole = min_abs_subsystem_determinant(inst, x)
        monkeypatch.setattr(enumeration, "DETERMINANT_CHUNK_MASKS", 3)
        assert min_abs_subsystem_determinant(inst, x) == whole

    @pytest.mark.parametrize("n", [2, 3])
    def test_fields_equal_standalone_functions(self, n):
        for seed in range(3):
            inst = random_instance(n, [2] * n, [2] * n, 50 * n + seed)
            for cert in enumerate_solutions(inst, FAST).certificates:
                point = cert.point
                assert cert.residual_norm == natural_residual_norm(inst, point)
                assert cert.active_set == min_phi(inst, point).argmin
                assert cert.min_abs_det_jac == min_abs_subsystem_determinant(inst, point)
                fx, gx = inst.evaluate_pair(point)
                assert cert.strict_complementarity == bool(np.min(fx + gx) > FAST.feasibility_tol)


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
