"""Hypothesis probes: witnesses must re-evaluate as genuine violations."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pcpkit import (
    DegenerateInputError,
    EmptyRegionError,
    InputError,
    PcpInstance,
    PolyMap,
    Polynomial,
    SolveConfig,
    coercivity_probe,
    enumerate_solutions,
    jacobian_degeneracy_scan,
    karamardian_coercivity_probe,
    leading_min_map,
    natural_map,
    p_function_probe,
    r0_shifted_pair_probe,
    r0_test,
    random_instance,
    xref_boundedness_probe,
)

CFG = SolveConfig(starts_per_subsystem=60)


class TestR0:
    def test_affine_pass(self, affine_shift):
        report = r0_test(affine_shift)
        assert report.passed
        assert report.statistics["min_residual_on_sphere"] == pytest.approx(1.0, abs=1e-6)

    def test_swapped_counterexample(self, swapped_linear):
        report = r0_test(swapped_linear)
        assert report.verdict == "counterexample"
        witness = np.array(report.witness["point"])
        # the witness re-evaluates as a near-zero of the leading min map
        assert np.linalg.norm(leading_min_map(swapped_linear, witness)) <= 1e-8
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-9)

    def test_hyperbola_counterexample(self, hyperbola_pair):
        report = r0_test(hyperbola_pair)
        assert report.verdict == "counterexample"
        witness = np.array(report.witness["point"])
        assert np.linalg.norm(leading_min_map(hyperbola_pair, witness)) <= 1e-8
        # axis directions solve the leading pair; the witness sits on one
        assert min(abs(witness[0]), abs(witness[1])) <= 1e-6

    def test_scale_invariance(self, affine_shift, swapped_linear):
        for inst, expected in ((affine_shift, True), (swapped_linear, False)):
            for lam, mu in ((0.5, 3.0), (10.0, 0.1)):
                scaled = PcpInstance(
                    PolyMap(tuple(c.scaled(lam) for c in inst.f.components)),
                    PolyMap(tuple(c.scaled(mu) for c in inst.g.components)),
                )
                assert r0_test(scaled).passed is expected

    def test_zero_leading_refused(self):
        # leading extraction refuses the zero map via the constant component
        with pytest.raises((DegenerateInputError, InputError)):
            inst = PcpInstance(
                PolyMap((Polynomial.constant(1, 1.0),)), PolyMap.identity(1)
            )
            r0_test(inst)

    def test_componentwise_convention(self):
        # mixed degrees: componentwise leading keeps the affine row alive
        inst = PcpInstance(
            PolyMap(
                (
                    Polynomial(2, {(1, 0): 1.0, (0, 0): 2.0}),
                    Polynomial(2, {(0, 2): 1.0, (0, 0): -1.0}),
                )
            ),
            PolyMap.identity(2),
        )
        assert r0_test(inst, componentwise=True).passed

    def test_shifted_pair_wrapper(self, affine_shift, swapped_linear):
        assert r0_shifted_pair_probe(affine_shift).passed
        report = r0_shifted_pair_probe(swapped_linear)
        assert report.verdict == "counterexample"


def rescaled(inst, factors):
    """Each f_i scaled by factors[i] and each g_i by factors[n + i]."""
    n = inst.n
    return PcpInstance(
        PolyMap(tuple(p.scaled(c) for p, c in zip(inst.f.components, factors[:n]))),
        PolyMap(tuple(p.scaled(c) for p, c in zip(inst.g.components, factors[n:]))),
    )


# four factors cover n <= 2; rescaled uses the first 2n
POSITIVE_FACTORS = st.lists(st.floats(0.01, 100.0), min_size=4, max_size=4)


class TestR0Metamorphic:
    """Positive componentwise rescaling keeps the componentwise R0 verdict."""

    @pytest.mark.parametrize(
        "fixture",
        [
            "hyperbola_pair",
            "unsolvable_pair",
            "affine_shift",
            "identity_pair",
            pytest.param("swapped_linear", marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="f scaled by 100 and g by 0.01 leaves ||m|| flat at 0.01 on the "
                "positive quadrant, and the sphere search misses the 1e-4 wide basin "
                "of the zero at (1, 0)",
            )),
            "scalar_shift",
        ],
    )
    @given(factors=POSITIVE_FACTORS)
    @example(factors=[100.0, 100.0, 0.01, 0.01])
    # the fixtures build immutable instances, so sharing one across examples is safe
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_conftest_fixtures(self, request, fixture, factors):
        inst = request.getfixturevalue(fixture)
        verdict = r0_test(inst, componentwise=True).verdict
        assert r0_test(rescaled(inst, factors), componentwise=True).verdict == verdict

    @given(seed=st.integers(0, 2**32 - 1), factors=POSITIVE_FACTORS)
    @settings(max_examples=30, deadline=None)
    def test_random_instances(self, seed, factors):
        # a sphere minimum between the two regimes could flip under scaling
        # without either verdict being wrong, so only clear cases are kept
        inst = random_instance(2, [2, 2], [2, 2], seed)
        report = r0_test(inst, componentwise=True)
        minimum = report.statistics["min_residual_on_sphere"]
        assume(minimum > 1e-4 or minimum < 1e-12)
        assert r0_test(rescaled(inst, factors), componentwise=True).verdict == report.verdict


class TestCoercivity:
    def test_identity_exact_growth(self, identity_pair):
        report = coercivity_probe(identity_pair, [1.0, 2.0, 4.0, 8.0])
        assert report.passed
        assert report.statistics["fitted_alpha"] == pytest.approx(1.0, abs=1e-6)
        assert report.statistics["fitted_c"] == pytest.approx(1.0, abs=1e-6)

    def test_affine_linear_growth(self, affine_shift):
        report = coercivity_probe(affine_shift, [10.0, 20.0, 40.0, 80.0])
        assert report.statistics["fitted_alpha"] == pytest.approx(1.0, abs=0.15)
        assert not report.statistics["no_coercive_growth"]

    def test_hyperbola_bounded_residual_flagged(self, hyperbola_pair):
        # the residual stays bounded along the hyperbola valley, so the
        # fitted growth exponent collapses toward zero and gets flagged
        report = coercivity_probe(
            hyperbola_pair, [5.0, 10.0, 20.0, 50.0], samples_per_radius=800
        )
        assert report.statistics["no_coercive_growth"]
        assert report.statistics["fitted_alpha"] <= 0.25
        assert max(report.statistics["phi_by_radius"]) <= 2.0

    def test_reported_norms_are_single_point_values(self, monkeypatch):
        # phi(R) and a witness residual are re-evaluated single-point norms,
        # not a row of the batch evaluation; without refinement steps the
        # sampled point itself is often the best
        from pcpkit import probes, random_instance
        from pcpkit.probes import _refine_on_sphere
        from pcpkit.residuals import natural_residual_norm, unit_sphere

        radii = [1.0, 2.0, 4.0]
        monkeypatch.setattr(probes, "COERCIVITY_REFINE_ITERS", 0)
        for seed in range(10):
            inst = random_instance(3, [2] * 3, [2] * 3, 100 + seed)
            report = coercivity_probe(inst, radii, samples_per_radius=256, seed=seed)
            rng = np.random.default_rng(seed)
            for radius, phi in zip(radii, report.statistics["phi_by_radius"]):
                points = unit_sphere(rng, 256, 3) * radius
                best = points[int(np.argmin(natural_residual_norm(inst, points)))]
                refined = _refine_on_sphere(inst, best[None], np.array([radius]), 0)[0]
                assert phi == min(
                    natural_residual_norm(inst, best), natural_residual_norm(inst, refined)
                )
        monkeypatch.undo()
        # f = g = (x - y, x - y) vanishes on the diagonal: a witness is reported
        diagonal = Polynomial(2, {(1, 0): 1.0, (0, 1): -1.0})
        valley = PcpInstance(PolyMap((diagonal, diagonal)), PolyMap((diagonal, diagonal)))
        report = coercivity_probe(valley, [1.0, 2.0])
        witness = report.witness
        assert report.verdict == "counterexample"
        assert witness["residual_norm"] == natural_residual_norm(
            valley, np.array(witness["point"])
        )

    def test_refined_rows_equal_single_row_calls(self):
        # rows of mixed radii descend together exactly as they do alone
        from pcpkit import random_instance
        from pcpkit.probes import _refine_on_sphere
        from pcpkit.residuals import unit_sphere

        for n in (2, 3, 4, 5):
            inst = random_instance(n, [2] * n, [2] * n, 7 * n)
            rng = np.random.default_rng(n)
            radii = rng.choice([0.25, 1.0, 3.0, 10.0], size=12)
            starts = unit_sphere(rng, 12, n) * rng.uniform(0.5, 2.0, size=(12, 1))
            stacked = _refine_on_sphere(inst, starts, radii, 40)
            for k in range(12):
                alone = _refine_on_sphere(inst, starts[k : k + 1], radii[k : k + 1], 40)
                assert np.array_equal(stacked[k], alone[0])

    def test_radii_validation(self, identity_pair):
        with pytest.raises(InputError):
            coercivity_probe(identity_pair, [1.0])
        with pytest.raises(InputError):
            coercivity_probe(identity_pair, [2.0, 1.0])


class TestXrefBoundedness:
    def test_identity_pass(self, identity_pair):
        report = xref_boundedness_probe(identity_pair, [0.0, 0.0], 5.0)
        assert report.passed
        assert report.statistics["min_pairing"] == pytest.approx(25.0, rel=1e-9)

    def test_hyperbola_counterexample(self, hyperbola_pair):
        k = 5.0
        radius = float(np.hypot(k, 1.0 / k))
        # direct check at the valley point, then the sampled probe
        z = np.array([k, 1.0 / k])
        assert z @ natural_map(hyperbola_pair, z) == pytest.approx(1.0 - k)
        report = xref_boundedness_probe(hyperbola_pair, [0.0, 0.0], radius)
        assert report.verdict == "counterexample"
        witness = np.array(report.witness["point"])
        assert witness @ natural_map(hyperbola_pair, witness) <= 0.0

    def test_affine_large_sphere(self, affine_shift):
        report = xref_boundedness_probe(affine_shift, [2.0, 2.0], 100.0)
        assert report.passed

    def test_leading_variant(self, affine_shift):
        report = xref_boundedness_probe(
            affine_shift, [0.0, 0.0], 3.0, use_leading=True
        )
        assert report.passed  # leading min map is x itself


class TestKaramardian:
    def test_identity_equality_case(self, identity_pair):
        assert karamardian_coercivity_probe(identity_pair, 1.0).passed

    def test_identity_too_large_constant(self, identity_pair):
        report = karamardian_coercivity_probe(identity_pair, 2.0)
        assert report.verdict == "counterexample"
        witness = np.array(report.witness["point"])
        margin = witness @ (
            natural_map(identity_pair, witness) - natural_map(identity_pair, np.zeros(2))
        ) - 2.0 * witness @ witness
        assert margin < 0.0

    def test_affine_pass(self, affine_shift):
        assert karamardian_coercivity_probe(affine_shift, 0.5).passed

    def test_bad_constant(self, identity_pair):
        with pytest.raises(InputError):
            karamardian_coercivity_probe(identity_pair, 0.0)


class TestDegeneracyScan:
    def test_regular_solutions(self, affine_shift):
        sols = enumerate_solutions(affine_shift, CFG)
        report = jacobian_degeneracy_scan(affine_shift, sols)
        assert report.passed
        assert report.statistics["min_abs_det_by_solution"] == [pytest.approx(1.0)]

    def test_hyperbola_regular(self, hyperbola_pair):
        sols = enumerate_solutions(hyperbola_pair, CFG)
        report = jacobian_degeneracy_scan(hyperbola_pair, sols)
        assert report.passed  # |det| = 1 at (1, 1)

    def test_flags_rank_drop(self):
        inst = PcpInstance(
            PolyMap.identity(2),
            PolyMap(
                (
                    Polynomial(2, {(2, 0): 1.0}),
                    Polynomial(2, {(0, 1): 1.0}),
                )
            ),
        )
        sols = enumerate_solutions(inst, CFG)
        assert len(sols) == 1
        report = jacobian_degeneracy_scan(inst, sols)
        assert report.verdict == "counterexample"
        assert report.witness["flagged"][0]["min_abs_det_jac"] <= 1e-8


class TestPFunction:
    def test_identity_pass(self, identity_pair):
        region = [[-1.0, 1.0], [-1.0, 1.0]]
        assert p_function_probe(identity_pair, region, pairs=2000).passed

    def test_unsolvable_pair_is_p_function(self, unsolvable_pair):
        region = [[0.0, 10.0], [0.0, 10.0]]
        report = p_function_probe(unsolvable_pair, region, pairs=10_000)
        assert report.passed

    def test_anticorrelated_counterexample(self):
        # f = Id, g = 10 - x: every product is -(x_i - y_i)^2 <= 0
        inst = PcpInstance(
            PolyMap.identity(2),
            PolyMap(
                (
                    Polynomial(2, {(1, 0): -1.0, (0, 0): 10.0}),
                    Polynomial(2, {(0, 1): -1.0, (0, 0): 10.0}),
                )
            ),
        )
        report = p_function_probe(inst, [[-2.0, 12.0], [-2.0, 12.0]], pairs=50)
        assert report.verdict == "counterexample"
        x = np.array(report.witness["x"])
        y = np.array(report.witness["y"])
        products = (inst.f.evaluate(x) - inst.f.evaluate(y)) * (
            inst.g.evaluate(x) - inst.g.evaluate(y)
        )
        assert np.max(products) <= 1e-9

    def test_degenerate_feasible_set_errors(self):
        # f = Id, g = -Id: the feasible set is the origin alone, so the
        # sampler cannot produce distinct pairs and reports the region empty
        inst = PcpInstance(
            PolyMap.identity(2),
            PolyMap(
                (
                    Polynomial(2, {(1, 0): -1.0}),
                    Polynomial(2, {(0, 1): -1.0}),
                )
            ),
        )
        with pytest.raises(EmptyRegionError):
            p_function_probe(inst, [[-1.0, 1.0], [-1.0, 1.0]], pairs=10)

    def test_solution_pair_consistency(self):
        # f = x, g = (x - 1)(x - 2): solutions 0, 1, 2; any solution pair
        # must trip the probe even if random pairs would pass
        inst = PcpInstance(
            PolyMap((Polynomial(1, {(1,): 1.0}),)),
            PolyMap((Polynomial(1, {(2,): 1.0, (1,): -3.0, (0,): 2.0}),)),
        )
        sols = enumerate_solutions(inst, CFG)
        assert len(sols) == 3
        report = p_function_probe(
            inst, [[-0.5, 2.5]], pairs=100, solutions=sols
        )
        assert report.verdict == "counterexample"
        assert report.witness["note"] == "solution pair"
