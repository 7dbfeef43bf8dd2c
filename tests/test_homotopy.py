"""Continuation traces: exact starts, convergence, honest failure."""

import hashlib
import json

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
import pcpkit.homotopy as homotopy_module
from pcpkit.homotopy import _blend, _track
from pcpkit.residuals import active_branch, natural_jacobian, pack_pair

from test_lemke import affine_instance, pd_lcp

CFG = SolveConfig(starts_per_subsystem=60)
CORRECTOR_TOL = 1e-8
FIXTURES = ["hyperbola_pair", "unsolvable_pair", "affine_shift", "identity_pair",
            "swapped_linear", "scalar_shift"]
# sha256 of json.dumps(trace.to_dict()) for the natural homotopy from x_ref = 0.5 * 1
# and the leading homotopy, as the one-path tracker wrote them (numpy 2.4, x86-64);
# c10-k is trial_instance(2, (2, 2), 0, k), lcp6-s the n = 6 PD LCP
# affine_instance(*pd_lcp(6, s))
TRACE_DIGESTS = {
    "c10-0": ("3339facc1474112d6baeca3d90ea07b0636085fa7d2fde9a5ccadc5b3cbea508",
              "8ae6f481335925bc203ab570835ae77a1ea8f413463c3ff16c90a834563b02c7"),
    "c10-1": ("c00346a3afda1796df662b5985986320d68055c1a1bf83c36eb185084017a095",
              "5345f991c77092c7c4d7ac559df16f7ae7aee15a95468d131a8f1a2efd62a68b"),
    "c10-2": ("ed882cec2147f7ce2f8cd062797527cf1a0ccf6e81404aba9e3e0e4f4c4df40c",
              "fd3325ba7c7b56f334a99e85e4cb27949ab84d2e2fc2252bc59568d2a990f5d1"),
    "c10-3": ("285c0bb2c275159e09236868f16706a1a8f8646a7baaec2d65e0ce218833cda8",
              "ac61b4acf88081a26d714267529c68fdbfca95c48d428b89e770040c5382bb86"),
    "c10-4": ("53b06e520fb06043369cbcfa58c8a631c10131331c262b80210ba4e962346e90",
              "81570a011f08e29ef76af637cf7e14f0814395ff2550dddd83783594e4c9f06c"),
    "c10-5": ("e4961f92464622c4af8d6c5066990049ad8cd907ea4dbe7294c9e8a3c508ceac",
              "99972d329d4046c3da5d81837689fec4822532c0d6121833cfda076b03f68151"),
    "c10-6": ("9fbe02cf3f2d5a456d27bf3ed4d3de68232f4b0876ae2432ea0c349de6e28868",
              "1d12b323d148cd2a6be827795167133aa194b946a44a2cb299b2ddd782cdbed3"),
    "c10-7": ("9885b7ed40591120d8ca24dbb89bb4eb141f4f981bd878c5cadb8067803a5a36",
              "7370fce924781ebcdd1e7eb4df17e9e9b1f571d2e333cfc35a5b9fd2c12832a2"),
    "c10-8": ("9f3c8d6f1670a5c1cba6aaead761a073860e4958e092dd515cf4c98046b4a796",
              "5d078b4f902460c8d14504722dcea518af9d5f716e970d275541e1f383010fe8"),
    "c10-9": ("1e797979b2de11b12cfe426c097a40a96eaf1e31ed97942e6497836407b4140b",
              "a84c4b5a430e33acef29e4d429b0d109583c61e276b0a0136555da8720d8cfb4"),
    "hyperbola_pair": ("99aedef8c19a7fd3997372319ba16177ede736e3511abb6bf2212626fbd6ef8e",
                       "2b1c444fb88c8c49cd5e7d0e348da2ada8c1e44e7fac957e7c81584855905675"),
    "unsolvable_pair": ("e0369e54a5ce830bdafff8311f35bd13a986a48e1bc23063e28ba8bbe4e626ac",
                        "d4afe7cf4623784f969bdea7990147f0ceacac4d0c71e5815b6fcb15ed93bebf"),
    "affine_shift": ("2947e6f7b249b55733ad20d46a7dda2ec026b7977831148ab3924d62b74efed5",
                     "145792c1c830fef1f8346a15b81f7f9499f7d683176a6f5f67d7206e8f124ee6"),
    "identity_pair": ("1b056ac9863bc38aa4c0e80ab86da08ca4963af39783e0c0ce7e66dd99e8918b",
                      "b5d73d405c86bb76896f0fc669165f7d44033d04e0ec941d6b50ca5f12638e09"),
    "swapped_linear": ("2947e6f7b249b55733ad20d46a7dda2ec026b7977831148ab3924d62b74efed5",
                       "145792c1c830fef1f8346a15b81f7f9499f7d683176a6f5f67d7206e8f124ee6"),
    "scalar_shift": ("7f89261c6d7bb225a7c54864beebc24a44004fe7b5a120344608c42dcc5b118e",
                     "c68464bc7cd56cb4574ed45e557faefb4cd0958bbedca53fbd2bcaddacbf0a9c"),
    "lcp6-6": ("f0f6cc04d62dabdff126996aaab433387a71a1a2629fec9a685b307cf2670c16",
               "7d3c7630b21e6e2401004267a7f5ac0691d24364c0e36d946d51bf85e7774d56"),
    "lcp6-7": ("eb17bdea96d2a3b1f1b26ca240f4a6e50da13adecfa706ab2f47bb8732f2b4a0",
               "5aac038ce06c010d0d51368f57f9c37b50050e6f5b129e9ca9470b500d9bc1cc"),
}


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
        return pack_pair(shift, shift, eye, eye) if jacobians else pack_pair(shift, shift)

    return start


class TestBlend:
    """min of the blend of p = q = x - x_ref is (1 - t)(x - x_ref) + t m(x)."""

    @staticmethod
    def t_column(rng):
        """A different t on each of 500 rows, the ends of [0, 1] included."""
        return np.r_[[1e-12, 0.05, 0.5, 1.0], rng.uniform(size=496)][:, None]

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

    @pytest.mark.parametrize("n, k", [(2, 0), (2, 7), (3, 2)])
    def test_values_with_t_column_bit_for_bit(self, n, k):
        inst = trial_instance(n, (2,) * n, 0, k)
        rng = np.random.default_rng(k)
        x = 3.0 * rng.standard_normal((500, n))
        t = self.t_column(rng)
        reference = np.full(n, 0.5)
        start = reference_start(reference, n)
        blended = np.minimum(*_blend(start, inst, x, t, False))
        formula = (1.0 - t) * (x - reference) + t * natural_map(inst, x)
        assert np.array_equal(blended.view(np.int64), formula.view(np.int64))
        # each row equals that row blended alone at its own t
        for i in range(0, 500, 50):
            alone = np.minimum(*_blend(start, inst, x[i : i + 1], float(t[i, 0]), False))
            assert np.array_equal(alone[0].view(np.int64), blended[i].view(np.int64))

    @pytest.mark.parametrize("n, k", [(2, 0), (2, 7), (3, 2)])
    def test_jacobian_with_t_column_off_ties(self, n, k):
        inst = trial_instance(n, (2,) * n, 0, k)
        rng = np.random.default_rng(k)
        x = 3.0 * rng.standard_normal((500, n))
        t = self.t_column(rng)
        start = reference_start(np.full(n, 0.5), n)
        fb, gb, jac_f, jac_g = _blend(start, inst, x, t, True)
        blended = active_branch(fb, gb, jac_f, jac_g)[1]
        tj = t[:, :, None]
        formula = (1.0 - tj) * np.eye(n) + tj * natural_jacobian(inst, x)
        untied = fb != gb
        assert np.count_nonzero(untied) > 0.9 * untied.size
        assert np.array_equal(blended[untied].view(np.int64), formula[untied].view(np.int64))
        for i in range(0, 500, 50):
            alone = _blend(start, inst, x[i : i + 1], float(t[i, 0]), True)
            for part, whole in zip(alone, (fb, gb, jac_f, jac_g)):
                assert np.array_equal(part[0].view(np.int64), whole[i].view(np.int64))


class TestTraceDigests:
    """Both traces are pinned byte for byte on criterion-10 instances and the fixtures."""

    @staticmethod
    def digests(inst):
        traces = (track_natural_homotopy(inst, np.full(inst.n, 0.5), CFG),
                  track_leading_homotopy(inst, CFG))
        return tuple(hashlib.sha256(json.dumps(trace.to_dict()).encode()).hexdigest()
                     for trace in traces)

    @pytest.mark.parametrize("k", range(10))
    def test_criterion_10_instances(self, k):
        assert self.digests(trial_instance(2, (2, 2), 0, k)) == TRACE_DIGESTS[f"c10-{k}"]

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_fixtures(self, request, fixture):
        assert self.digests(request.getfixturevalue(fixture)) == TRACE_DIGESTS[fixture]

    @pytest.mark.parametrize("seed", [6, 7])
    def test_pd_lcps(self, seed):
        # n = 6, the shape of the benchmark's affine oracles
        assert self.digests(affine_instance(*pd_lcp(6, seed))) == TRACE_DIGESTS[f"lcp6-{seed}"]


class TestRows:
    """Paths tracked as rows of one call equal their one-row calls bit for bit."""

    @pytest.mark.parametrize(
        "fixture, x_ref, outcomes",
        [
            ("hyperbola_pair", (0.5, 0.5), ("converged", "stalled")),
            ("unsolvable_pair", (0.5, 0.5), ("stalled", "stalled")),
            ("swapped_linear", (2.0, -1.0), ("diverged", "converged")),
        ],
    )
    @pytest.mark.parametrize("order", [(0, 1), (1, 0, 1)], ids=["natural-leading",
                                                                "leading-natural-leading"])
    def test_both_paths_share_rounds(self, request, fixture, x_ref, outcomes, order):
        inst = request.getfixturevalue(fixture)
        reference = np.array(x_ref)
        starts = (reference_start(reference, inst.n), inst.leading_pair.pair_table)
        points = (reference, np.zeros(inst.n))
        singles = (track_natural_homotopy(inst, x_ref, CFG), track_leading_homotopy(inst, CFG))
        rows = _track([starts[i] for i in order], inst, [points[i] for i in order], CFG)
        assert tuple(single.outcome for single in singles) == outcomes
        for row, i in zip(rows, order):
            single = singles[i]
            assert json.dumps(row.to_dict()) == json.dumps(single.to_dict())
            assert (row.point is None) == (single.point is None)
            if row.point is not None:
                assert row.point.tobytes() == single.point.tobytes()
            assert [c.x.tobytes() for c in row.checkpoints] == [
                c.x.tobytes() for c in single.checkpoints
            ]


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

    @pytest.mark.parametrize("budget, outcome, message, final_t", [
        (4, "stalled", "step attempt budget exhausted", 0.75),
        # t reaches 1 on the last attempt: the budget is spent before the polish
        (5, "stalled", "step attempt budget exhausted", 1.0),
        (6, "converged", "", 1.0),
    ])
    def test_step_attempt_budget(
        self, monkeypatch, affine_shift, budget, outcome, message, final_t
    ):
        monkeypatch.setattr(homotopy_module, "MAX_STEP_ATTEMPTS", budget)
        trace = track_natural_homotopy(affine_shift, (0.5, 0.5), CFG)
        assert (trace.outcome, trace.message, trace.final_t) == (outcome, message, final_t)


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

    @pytest.mark.parametrize("fixture", FIXTURES)
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
