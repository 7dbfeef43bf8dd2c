"""Continuation traces: exact starts, convergence, honest failure."""

import numpy as np
import pytest

from pcpkit import (
    InputError,
    PcpInstance,
    PolyMap,
    Polynomial,
    SolveConfig,
    certify_solution,
    natural_map,
    natural_residual_norm,
    random_instance,
    trial_instance,
    track_leading_homotopy,
    track_natural_homotopy,
    xref_boundedness_probe,
)
from pcpkit.homotopy import _blend
from pcpkit.residuals import active_branch, natural_jacobian

CFG = SolveConfig(starts_per_subsystem=60)
CORRECTOR_TOL = 1e-8


class TestNaturalHomotopy:
    def test_exact_root_at_start(self, hyperbola_pair):
        trace = track_natural_homotopy(hyperbola_pair, [2.0, 2.0], CFG)
        first = trace.checkpoints[0]
        assert first.t == 0.0
        assert np.array_equal(first.x, [2.0, 2.0])
        assert first.residual == 0.0

    def test_affine_convergence(self, affine_shift):
        trace = track_natural_homotopy(affine_shift, [2.0, 2.0], CFG)
        assert trace.converged
        assert np.allclose(trace.point, [1.0, 1.0], atol=1e-8)
        cert = certify_solution(affine_shift, trace.point, CFG)
        assert cert.residual_norm <= CFG.newton_tol

    def test_unsolvable_never_converges(self, unsolvable_pair):
        trace = track_natural_homotopy(unsolvable_pair, [1.0, 1.0], CFG)
        assert trace.outcome in ("diverged", "stalled")

    def test_checkpoints_within_corrector_tol(self, affine_shift):
        trace = track_natural_homotopy(affine_shift, [3.0, -1.0], CFG)
        ts = [c.t for c in trace.checkpoints]
        assert ts[0] == 0.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert ts[-1] <= 1.0
        for checkpoint in trace.checkpoints:
            assert checkpoint.residual <= CORRECTOR_TOL

    def test_wrong_shape_x_ref_refused(self, affine_shift):
        with pytest.raises(InputError, match=r"x_ref has shape \(3,\), expected \(2,\)"):
            track_natural_homotopy(affine_shift, [1.0, 2.0, 3.0], CFG)

    def test_subnormal_reference_tracked(self, affine_shift):
        # x_ref enters only through the start pair x - x_ref, never as a
        # polynomial coefficient, so a subnormal coordinate is not refused
        trace = track_natural_homotopy(affine_shift, [1e-310, 0.5], CFG)
        assert trace.checkpoints[0].residual == 0.0
        assert trace.converged

    def test_converged_path_stays_in_probed_ball(self, affine_shift):
        radius = 100.0
        probe = xref_boundedness_probe(affine_shift, [2.0, 2.0], radius, samples=4000)
        assert probe.passed
        trace = track_natural_homotopy(affine_shift, [2.0, 2.0], CFG)
        assert trace.converged
        assert trace.max_point_norm < radius


def reference_start(reference, n):
    """The natural homotopy's start pair p = q = x - x_ref, with Jacobians I."""
    eye = np.eye(n)

    def start(x, jacobians):
        shift = x - reference
        return (shift, shift, eye, eye) if jacobians else (shift, shift)

    return start


class TestBlend:
    """min of the blend of p = q = x - x_ref is (1 - t)(x - x_ref) + t m(x)."""

    @pytest.mark.parametrize("t", [1e-12, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("n, k", [(2, 0), (2, 7), (3, 2)])
    def test_values_equal_reference_formula_bit_for_bit(self, n, k, t):
        inst = trial_instance(n, (2,) * n, 0, k)
        x = 3.0 * np.random.default_rng(k).standard_normal((500, n))
        reference = np.full(n, 0.5)
        blended = np.minimum(*_blend(reference_start(reference, n), inst, x, t, False))
        formula = (1.0 - t) * (x - reference) + t * natural_map(inst, x)
        assert np.array_equal(blended.view(np.int64), formula.view(np.int64))

    @pytest.mark.parametrize("t", [1e-12, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("n, k", [(2, 0), (2, 7), (3, 2)])
    def test_jacobian_equals_reference_formula_off_ties(self, n, k, t):
        # the rows differ only where the blended values tie while f_i > g_i
        inst = trial_instance(n, (2,) * n, 0, k)
        x = 3.0 * np.random.default_rng(k).standard_normal((500, n))
        fb, gb, jac_f, jac_g = _blend(reference_start(np.full(n, 0.5), n), inst, x, t, True)
        blended = active_branch(fb, gb, jac_f, jac_g)[1]
        formula = (1.0 - t) * np.eye(n) + t * natural_jacobian(inst, x)
        untied = fb != gb
        assert np.count_nonzero(untied) > 0.9 * untied.size
        assert np.array_equal(blended[untied].view(np.int64), formula[untied].view(np.int64))


class TestExits:
    """Each terminal outcome of both homotopies, with its message and last t."""

    @pytest.mark.parametrize(
        "fixture, x_ref, outcome, message, final_t",
        [
            ("hyperbola_pair", (0.5, 0.5), "converged", "", 1.0),
            ("unsolvable_pair", (0.5, 0.5), "stalled", "step size hit the floor",
             0.9999856382608413),
            ("swapped_linear", (2.0, -1.0), "diverged", "path norm exceeded 1e+06",
             0.9999992370605468),
        ],
    )
    def test_outcome_message_and_final_t(
        self, request, fixture, x_ref, outcome, message, final_t
    ):
        trace = track_natural_homotopy(request.getfixturevalue(fixture), x_ref, CFG)
        assert trace.outcome == outcome
        assert trace.message == message
        assert trace.final_t == pytest.approx(final_t, rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "fixture, outcome, message, final_t",
        [
            ("hyperbola_pair", "stalled", "step size hit the floor", 7.070775609463454e-09),
            ("unsolvable_pair", "stalled", "step size hit the floor", 9.998620953410866e-09),
            ("swapped_linear", "converged", "", 1.0),
        ],
    )
    def test_leading_outcome_message_and_final_t(
        self, request, fixture, outcome, message, final_t
    ):
        trace = track_leading_homotopy(request.getfixturevalue(fixture), CFG)
        assert trace.outcome == outcome
        assert trace.message == message
        assert trace.final_t == pytest.approx(final_t, rel=0, abs=1e-12)


class TestEndpointResidual:
    """The t = 1 checkpoint of a converged path carries its natural residual norm."""

    def assert_endpoint_residuals(self, inst, x_ref):
        converged = 0
        for trace in (track_natural_homotopy(inst, x_ref, CFG), track_leading_homotopy(inst, CFG)):
            if trace.converged:
                last = trace.checkpoints[-1]
                assert last.t == 1.0
                assert np.array_equal(last.x, trace.point)
                assert last.residual == natural_residual_norm(inst, trace.point)
                converged += 1
        return converged

    @pytest.mark.parametrize(
        "fixture",
        ["hyperbola_pair", "unsolvable_pair", "affine_shift", "identity_pair",
         "swapped_linear", "scalar_shift"],
    )
    def test_fixtures(self, request, fixture):
        inst = request.getfixturevalue(fixture)
        self.assert_endpoint_residuals(inst, np.full(inst.n, 0.5))

    def test_criterion_10_instances(self):
        converged = sum(
            self.assert_endpoint_residuals(trial_instance(2, (2, 2), 0, k), (0.5, 0.5))
            for k in range(30)
        )
        assert converged >= 10


class TestLeadingHomotopy:
    def test_homogeneous_instance_constant_path(self, identity_pair):
        trace = track_leading_homotopy(identity_pair, CFG)
        assert trace.converged
        assert np.allclose(trace.point, [0.0, 0.0], atol=1e-12)
        for checkpoint in trace.checkpoints:
            assert np.linalg.norm(checkpoint.x) <= 1e-10

    def test_affine_convergence(self, affine_shift):
        trace = track_leading_homotopy(affine_shift, CFG)
        assert trace.converged
        assert np.allclose(trace.point, [1.0, 1.0], atol=1e-8)

    def test_r0_failure_recorded_not_asserted(self, swapped_linear):
        # leading pair admits nonzero solutions; just record the outcome
        trace = track_leading_homotopy(swapped_linear, CFG)
        assert trace.outcome in ("converged", "diverged", "stalled")

    def test_lower_order_perturbations(self):
        # the t = 0 system ignores lower-degree perturbations, so tracking
        # the perturbed instance still starts at 0 and ends at a solution
        rng = np.random.default_rng(6)
        base = random_instance(2, (2, 2), (2, 2), seed=1234)
        converged = 0
        for k in range(6):
            p = PolyMap(
                tuple(
                    Polynomial(
                        2,
                        {
                            (1, 0): float(rng.standard_normal()),
                            (0, 1): float(rng.standard_normal()),
                            (0, 0): float(rng.standard_normal()),
                        },
                    )
                    for _ in range(2)
                )
            )
            perturbed = PcpInstance(base.f + p, base.g)
            assert perturbed.leading_pair.f == base.leading_pair.f
            trace = track_leading_homotopy(perturbed, CFG)
            if trace.converged:
                converged += 1
                m = natural_map(perturbed, trace.point)
                assert np.linalg.norm(m) <= CFG.newton_tol
        assert converged >= 1  # existence evidence, not a universal claim

    def test_trace_serialization(self, affine_shift):
        trace = track_natural_homotopy(affine_shift, [2.0, 2.0], CFG)
        payload = trace.to_dict()
        assert payload["outcome"] == "converged"
        assert payload["checkpoints"][0]["t"] == 0.0
