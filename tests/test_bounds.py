"""Exponent arithmetic and empirical error-bound verification."""

import numpy as np
import pytest

from pcpkit import (
    InputError,
    SolveConfig,
    empirical_exponent_fit,
    enumerate_solutions,
    exponent_R,
    holder_exponent,
    naive_exponent,
    natural_map,
    r0_test,
    random_instance,
    verify_global_bound,
    verify_local_bound,
)

CFG = SolveConfig(starts_per_subsystem=60)


class TestExponentR:
    def test_values(self):
        assert exponent_R(2, 2) == 6
        assert exponent_R(5, 3) == 3 * 6**4 == 3888
        assert exponent_R(8, 4) == 4 * 9**7 == 19131876
        assert exponent_R(6, 5) == 5 * 12**5 == 1244160
        assert exponent_R(3, 3) == 108

    def test_degree_one_branch(self):
        for n in range(1, 11):
            assert exponent_R(n, 1) == 1

    def test_quadratic_closed_form(self):
        for n in range(1, 30):
            assert exponent_R(n, 2) == 2 * 3 ** (n - 1)

    def test_arbitrary_precision(self):
        value = exponent_R(50, 10)
        assert value == 10 * 27**49
        assert isinstance(value, int)

    def test_validation(self):
        with pytest.raises(InputError):
            exponent_R(0, 2)
        with pytest.raises(InputError):
            exponent_R(2, 0)


class TestInstanceExponents:
    def test_holder(self, hyperbola_pair, affine_shift):
        assert holder_exponent(hyperbola_pair) == (3888, False)
        # affine n = 2: R(5, 2) with the degree-one global branch flagged
        assert holder_exponent(affine_shift) == (2 * 3**4, True)

    def test_scalar_affine(self, scalar_shift):
        result = holder_exponent(scalar_shift)
        assert result.alpha == exponent_R(2, 2) == 6
        assert result.global_alpha_is_one

    def test_cubic(self):
        inst = random_instance(3, (3, 3, 3), (3, 3, 3), seed=0)
        assert holder_exponent(inst).alpha == exponent_R(8, 4) == 19131876

    def test_naive(self, hyperbola_pair, scalar_shift):
        assert naive_exponent(hyperbola_pair) == exponent_R(6, 5) == 1244160
        assert naive_exponent(scalar_shift) == exponent_R(3, 3) == 108

    def test_naive_dominates_holder(self):
        for n in range(1, 7):
            for d in range(1, 7):
                assert exponent_R(3 * n, 2 * d + 1) >= exponent_R(3 * n - 1, d + 1)


class TestExponentFit:
    def test_exact_linear(self):
        pairs = [(d, d) for d in np.linspace(0.01, 2.0, 40)]
        fit = empirical_exponent_fit(pairs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_quadratic(self):
        pairs = [(d, d**2) for d in np.linspace(0.01, 2.0, 40)]
        assert empirical_exponent_fit(pairs).slope == pytest.approx(2.0, abs=1e-12)

    def test_median_filtered_outlier(self):
        # the oracle: synthetic residual = dist^1.5 with one planted outlier;
        # removing it by a median filter restores the clean slope
        rng = np.random.default_rng(0)
        dists = rng.uniform(0.01, 1.0, size=200)
        residuals = dists**1.5
        clean = empirical_exponent_fit(np.column_stack([dists, residuals]))
        residuals_bad = residuals.copy()
        residuals_bad[17] *= 1e6
        ratio = np.log(residuals_bad) - 1.5 * np.log(dists)
        keep = np.abs(ratio - np.median(ratio)) < 5.0
        filtered = empirical_exponent_fit(
            np.column_stack([dists[keep], residuals_bad[keep]])
        )
        assert abs(filtered.slope - clean.slope) <= 0.05

    def test_validation(self):
        with pytest.raises(InputError):
            empirical_exponent_fit([(1.0, 1.0)])
        with pytest.raises(InputError):
            empirical_exponent_fit([(0.0, 1.0), (1.0, 1.0)])
        with pytest.raises(InputError):
            empirical_exponent_fit([(1.0, 1.0), (1.0, 2.0)])


class TestLocalBound:
    def test_identity_exact(self, identity_pair):
        sols = enumerate_solutions(identity_pair, CFG)
        report = verify_local_bound(
            identity_pair, sols, [[-1.0, 1.0], [-1.0, 1.0]], 4000, alpha=1
        )
        assert report.c_best == pytest.approx(1.0, rel=1e-9)
        assert report.fitted.slope == pytest.approx(1.0, abs=1e-9)
        assert not report.violations

    def test_affine_lipschitz_fit(self, affine_shift):
        sols = enumerate_solutions(affine_shift, CFG)
        report = verify_local_bound(
            affine_shift, sols, [[-2.0, 3.0], [-2.0, 3.0]], 10_000, alpha=1
        )
        assert 0.9 <= report.fitted.slope <= 1.1
        assert report.fitted.r_squared >= 0.95

    def test_hyperbola_positive_constant(self, hyperbola_pair):
        sols = enumerate_solutions(hyperbola_pair, CFG)
        report = verify_local_bound(
            hyperbola_pair, sols, [[0.0, 2.0], [0.0, 2.0]], 4000, alpha=1
        )
        assert report.c_best > 0.0

    def test_huge_exponent_no_underflow(self, hyperbola_pair):
        sols = enumerate_solutions(hyperbola_pair, CFG)
        alpha = holder_exponent(hyperbola_pair).alpha  # 3888
        # every point of [0.5, 1.5]^2 is within distance 1 of the solution,
        # so dist^3888 underflows linear floats; log space must survive it
        report = verify_local_bound(
            hyperbola_pair, sols, [[0.5, 1.5], [0.5, 1.5]], 2000, alpha=alpha
        )
        assert np.isfinite(report.log10_c_best)
        assert report.log10_c_best > 100

    def test_no_violations_at_c_best(self, affine_shift):
        sols = enumerate_solutions(affine_shift, CFG)
        report = verify_local_bound(
            affine_shift, sols, [[-2.0, 3.0], [-2.0, 3.0]], 2000, alpha=1
        )
        recheck = verify_local_bound(
            affine_shift, sols, [[-2.0, 3.0], [-2.0, 3.0]], 2000, alpha=1,
            claimed_c=report.c_best,
        )
        assert not recheck.violations

    def test_per_sample_bound_holds(self, affine_shift):
        sols = enumerate_solutions(affine_shift, CFG)
        report = verify_local_bound(
            affine_shift, sols, [[-2.0, 3.0], [-2.0, 3.0]], 2000, alpha=1
        )
        for dist, residual in report.pairs:
            assert residual >= report.c_best * dist * (1 - 1e-12)
        assert "pairs" not in report.to_dict()  # the pairs go to --csv only


class TestGlobalBound:
    def test_identity_constant_one(self, identity_pair):
        sols = enumerate_solutions(identity_pair, CFG)
        report = verify_global_bound(
            identity_pair, sols, [0.5, 1.0, 5.0, 25.0], 2000, alpha=1
        )
        assert report.c_best == pytest.approx(1.0, rel=1e-9)

    def test_hyperbola_failure_flagged(self, hyperbola_pair):
        sols = enumerate_solutions(hyperbola_pair, CFG)
        probes = np.array([[k, 1.0 / k] for k in (10.0, 100.0, 1000.0)])
        report = verify_global_bound(
            hyperbola_pair, sols, [1.0, 5.0, 20.0], 2000, alpha=1,
            extra_points=probes, claimed_c=0.02,
        )
        assert report.c_best < 0.02
        assert report.violations  # the valley points breach the claim

    @pytest.mark.parametrize("extra", [5.0, np.zeros((1, 2, 2)), [1.0, 2.0, 3.0]])
    def test_bad_extra_points(self, affine_shift, extra):
        sols = enumerate_solutions(affine_shift, CFG)
        with pytest.raises(InputError):
            verify_global_bound(affine_shift, sols, [1.0], 10, alpha=1, extra_points=extra)

    def test_affine_stable_constant(self, affine_shift):
        sols = enumerate_solutions(affine_shift, CFG)
        report = verify_global_bound(
            affine_shift, sols, [1.0, 10.0, 100.0], 3000, alpha=1
        )
        assert report.c_best > 0.2

    def test_two_regime_consistency(self, hyperbola_pair):
        # for dist <= 1 and alpha >= 1 the two-regime lhs is dist^alpha
        sols = enumerate_solutions(hyperbola_pair, CFG)
        alpha = 3
        report = verify_global_bound(
            hyperbola_pair, sols, [0.5, 1.5], 500, alpha=alpha
        )
        for dist, _ in report.pairs:
            if 0 < dist <= 1:
                assert min(dist, dist**alpha) == dist**alpha

    def test_residual_growth_trend_under_r0(self, affine_shift):
        # with a regular leading pair the ratio ||m|| / ||x|| on spheres
        # stays bounded below; the min ratio must not decay across radii
        assert r0_test(affine_shift).passed
        rng = np.random.default_rng(0)
        radii = [5.0, 10.0, 20.0, 40.0, 80.0]
        ratios = []
        for radius in radii:
            pts = rng.standard_normal((3000, 2))
            pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * radius
            norms = np.linalg.norm(natural_map(affine_shift, pts), axis=1)
            ratios.append(float(np.min(norms)) / radius)
        for earlier, later in zip(ratios, ratios[1:]):
            assert later >= earlier * 0.9


def refuse_sampling(*args, **kwargs):
    raise AssertionError("sampled before refusing the settings")


class TestSettingsRefused:
    """A non-finite or out-of-range setting is refused before any sampling."""

    @pytest.mark.parametrize("call, name", [
        (lambda inst, sols: verify_global_bound(inst, sols, [float("nan")], 10, 1), "radii"),
        (lambda inst, sols: verify_global_bound(inst, sols, [1.0, float("inf")], 10, 1), "radii"),
        (lambda inst, sols: verify_global_bound(inst, sols, [1.0, 5.0], 10, -1.0), "alpha"),
        (lambda inst, sols: verify_local_bound(inst, sols, [[0, 1], [0, 1]], 10, float("nan")),
         "alpha"),
        (lambda inst, sols: verify_local_bound(inst, sols, [[0, 1], [0, 1]], 10, 1,
                                               claimed_c=float("nan")), "claimed_c"),
        (lambda inst, sols: verify_global_bound(inst, sols, [1.0], 10, 1, claimed_c=-1.0),
         "claimed_c"),
    ], ids=["global-radii-nan", "global-radii-inf", "global-alpha-negative", "local-alpha-nan",
            "local-claim-nan", "global-claim-negative"])
    def test_refused(self, monkeypatch, affine_shift, call, name):
        from pcpkit import bounds

        sols = enumerate_solutions(affine_shift, CFG)
        monkeypatch.setattr(bounds, "unit_sphere", refuse_sampling)
        monkeypatch.setattr(bounds, "sample_box", refuse_sampling)
        with pytest.raises(InputError, match=f"^{name} must be finite and positive"):
            call(affine_shift, sols)
