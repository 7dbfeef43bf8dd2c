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
from pcpkit.enumeration import MAX_NEWTON_ITERS, damped_newton
from pcpkit.homotopy import _blend, _track
from pcpkit.residuals import active_branch, natural_jacobian, pack_pair

from test_lemke import affine_instance, pd_lcp

CFG = SolveConfig(starts_per_subsystem=60)
CORRECTOR_TOL = 1e-8
FIXTURES = ["hyperbola_pair", "unsolvable_pair", "affine_shift", "identity_pair",
            "swapped_linear", "scalar_shift"]
# sha256 of json.dumps(trace.to_dict()) for the natural homotopy from x_ref = 0.5 * 1
# and the leading homotopy, with each checkpoint's corrector steps and each trace's
# rejected rounds (numpy 2.4, x86-64);
# c10-k is trial_instance(2, (2, 2), 0, k), lcp6-s the n = 6 PD LCP
# affine_instance(*pd_lcp(6, s)), and the deg f != deg g instances of MIXED_DEGREES
TRACE_DIGESTS = {
    "c10-0": ("67f4b553b631bc7b5d8ebd70ea138b9867a25b3e828f0434d50c7f69f9861998",
              "f9e31535c1136ac47c3e6cd679ca4961e904d5a83ef0d458f85ac0a7ed696719"),
    "c10-1": ("12d9e94008af695718532d39526bd81b19e8b11ed00cf51fe1ad40531c05ed69",
              "53905fad129a593a7ae065eca594810d4d800ae27ca59b56f3ae2d1d70631952"),
    "c10-2": ("afc015663da5dbb61591f75c39d1df4df53c49149573e44771d97c26a84683b5",
              "05bd6af4e7bdb5a6e743c505a7ea1662dd3cd1a9d8ce5ae699c3188934388438"),
    "c10-3": ("d190168b69a99a5dcae1b0b63e925d7546ce244dda299898b42c76e90e3526cb",
              "f21a75f4c8afad060b52b068290da65f664e30768daaae23e2d4b237f5cac5b3"),
    "c10-4": ("3c0afc1b6e85f74fc5df038b51b862ce81f95839a78f3c049b10059ac6c3dcc2",
              "f7171f45f4367c3147f8e0046db9dfebe9c2893877d111b7e4b8f66d464c55c2"),
    "c10-5": ("a08797099cf6294c8d8f6e1d4d570785fd388468c8b7e2197297d82bbd1dcf96",
              "3be4013b3539dd4192e67981d37fa6a8d553095e07b30ce035569b61cb82c6ac"),
    "c10-6": ("78da52d14868208738fded1aee3456f7f93c72a30581a5b906b01b4fd5b977ea",
              "9aa7e9e43c54683ff887436f0f6b0fd3a4df75ab5394ba87ea09999ffcb2757e"),
    "c10-7": ("3a0eb0391f956f686923ec8ac6e0423c73e8fb05b0b7905bcead7f699c5ea4fe",
              "31af2446b100fcf2be4032485b83d0b6d5a680ace37488f262aa03e30460b553"),
    "c10-8": ("6aa8ed1a7c32629857684a623198494616d1d5060a9421fe22e8cff9323f2419",
              "d913dc4ba85e92ba01adc0d77003dc98f9d8e2248f80ea1cf5d0cfc90903f425"),
    "c10-9": ("705548056dbc086e90d0a7c4f6acd769e55b9fb83bd6cfd5b131da919f290f6b",
              "cc6932b80ed8ae00e63d31ea1d164d5fc18e5b76c7ba8a6ec57212cff8db4554"),
    "hyperbola_pair": ("cfda985dc2bc33f79a441e5657b19ceb4a639218dba366e32ca4d34ca7f751d9",
                       "76fee2052713607aa3cf140783390a3482ce06fb9ccf557d7334939e508b71d7"),
    "unsolvable_pair": ("2e5971e85b129f91f6bc7016917cdc4002a2e0644140ef29627dae0ba5034253",
                        "1313572e0241871dd9b9ec6a1939544e1c37238720d4e6339bf5bcf62109ede1"),
    "affine_shift": ("cdcce2f1baced85449969785d23c16ba6bd3098836602ec0b4884fb73b29fc7f",
                     "39037ed46fd3b680bc2922db5af913dc3785cb4df2e8f10369f55c5b650e484a"),
    "identity_pair": ("8683f0ddec963b95a7a0724ba7fbb55091571cbe0931c1dd2187b188bf9334f3",
                      "ea03539b2d8013c7b74f0b33f5fa6a9cc497931fc860c56b6230f3c0b02e61cf"),
    "swapped_linear": ("cdcce2f1baced85449969785d23c16ba6bd3098836602ec0b4884fb73b29fc7f",
                       "39037ed46fd3b680bc2922db5af913dc3785cb4df2e8f10369f55c5b650e484a"),
    "scalar_shift": ("a92a4efe6a717d6bf5aa689de85ce0d26138d7fa56895a8b95e88bd534c9766d",
                     "dd4d0bfa7f429af66c1ba9368d98fbed74100f4da5230768f36bd4f563c0d2fe"),
    "lcp6-6": ("c0429a1327c52d9364f2033519127911bad153e03a9f24b6f3bd7ea8b8cf64cd",
               "9131953f22b766f8009e021015924ce2cfa4285477379bb17771339c1f9fa999"),
    "lcp6-7": ("6f6de4f9ade745eac239010360e91696ffd58083f52a8afd57eb93f6399ac254",
               "2c9b42ab5a74a7da75f87711334efd4146408e3ccd484a22c936e95773ff909f"),
    "mixed3-0": ("e0ea2f405622909aee5e7691ebd50f70a14402ce89ecd5f9d472de94dd08cf8d",
                 "8fa4dc5453a14953ab14fe3ac1f5b57494a6b00b999be11e81a01ef5a9ec9cd7"),
    "mixed2-4": ("d8bb67a5d71e328febe17da72659e8975e6750269675629b28a0c0c63c95c69b",
                 "297c0d01e283762e1ec6f47af8ec47eedddaf26e757850b09b0f60332ad08561"),
}
# (n, degrees of f, degrees of g, seed) of random_instance: the leading pair cuts
# f and g at different degrees; both leading paths converge, mixed2-4's with no polish
MIXED_DEGREES = {"mixed3-0": (3, (1, 1, 1), (2, 2, 2), 0),
                 "mixed2-4": (2, (3, 3), (1, 2), 4)}


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

    @pytest.mark.parametrize("x_ref", [[np.nan, 0.0], [np.inf, 0.0], [0.5, -np.inf]])
    def test_non_finite_x_ref_refused(self, affine_shift, x_ref):
        with pytest.raises(InputError, match=r"x_ref must hold finite numbers, got \["):
            track_natural_homotopy(affine_shift, x_ref, CFG)

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

    @pytest.mark.parametrize("key", MIXED_DEGREES)
    def test_mixed_degrees(self, key):
        assert self.digests(random_instance(*MIXED_DEGREES[key])) == TRACE_DIGESTS[key]


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
             0.99998779296875),
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


class TestCounters:
    """Each checkpoint's corrector steps and each trace's rejected rounds."""

    @pytest.mark.parametrize("budget", [10, 20, 40])
    def test_every_round_is_accepted_or_rejected(self, monkeypatch, unsolvable_pair, budget):
        monkeypatch.setattr(homotopy_module, "MAX_STEP_ATTEMPTS", budget)
        trace = track_natural_homotopy(unsolvable_pair, (0.5, 0.5), CFG)
        assert trace.message == "step attempt budget exhausted"
        assert trace.rejected_rounds > 0
        assert len(trace.checkpoints) - 1 + trace.rejected_rounds == budget

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_steps_within_corrector_budgets(self, request, fixture):
        inst = request.getfixturevalue(fixture)
        for trace in (track_natural_homotopy(inst, np.full(inst.n, 0.5), CFG),
                      track_leading_homotopy(inst, CFG)):
            payload = trace.to_dict()
            assert payload["rejected_rounds"] == trace.rejected_rounds >= 0
            steps = [c["steps"] for c in payload["checkpoints"]]
            assert steps[0] == 0
            assert all(0 <= s <= homotopy_module.CORRECTOR_ITERS for s in steps[1:-1])
            assert 0 <= steps[-1] <= MAX_NEWTON_ITERS


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


class TestSecantStart:
    """Each corrector round starts at the secant through the row's last two checkpoints."""

    def test_one_checkpoint_starts_at_it(self):
        path = [homotopy_module.Checkpoint(0.0, np.array([1.0, 2.0]), 0.0, 0)]
        assert homotopy_module._secant_start(path, 0.05) is path[-1].x

    def test_secant_extrapolates_last_two(self):
        path = [homotopy_module.Checkpoint(0.25, np.array([1.0, -1.0]), 0.0, 0),
                homotopy_module.Checkpoint(0.5, np.array([2.0, 1.0]), 0.0, 0)]
        # (t - t_k) / (t_k - t_{k-1}) = 2 at t = 1
        assert np.array_equal(homotopy_module._secant_start(path, 1.0), [4.0, 5.0])

    def test_round_at_the_last_t_starts_at_last_checkpoint(self):
        # the t = 1 polish refines the t = 1 checkpoint from its own point
        path = [homotopy_module.Checkpoint(0.75, np.array([1.0, -1.0]), 0.0, 0),
                homotopy_module.Checkpoint(1.0, np.array([-0.0, 1.0]), 0.0, 0)]
        assert homotopy_module._secant_start(path, 1.0) is path[-1].x

    def test_prediction_outside_the_ball_starts_at_last_checkpoint(self):
        # the corrector, not the prediction, decides that a path left the ball
        path = [homotopy_module.Checkpoint(0.5, np.array([0.0]), 0.0, 0),
                homotopy_module.Checkpoint(0.75, np.array([9e5]), 0.0, 0)]
        assert homotopy_module._secant_start(path, 1.0) is path[-1].x

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 6, 7])
    def test_exact_on_the_affine_leading_ray(self, seed):
        # min{Ax + t a, Mx + t q} is positively homogeneous in (x, t): the
        # leading path is the ray t z, which the secant lands on exactly
        trace = track_leading_homotopy(affine_instance(*pd_lcp(6, seed)), CFG)
        assert trace.converged
        assert trace.rejected_rounds == 0
        assert len(trace.checkpoints) > 3
        assert all(c.steps == 0 for c in trace.checkpoints[2:])
        for c in trace.checkpoints[1:]:
            on_ray = c.t * trace.point
            assert np.linalg.norm(c.x - on_ray) <= 1e-12 * np.linalg.norm(on_ray)


class TestPolishSkip:
    """A row already within newton_tol at t = 1 ends there with no polish call."""

    @staticmethod
    def polish_calls(monkeypatch):
        # the polish is the one corrector call at newton_tol and MAX_NEWTON_ITERS
        calls = []

        def counted(values_fn, jacobian_fn, starts, tol, max_iters, **kwargs):
            if (tol, max_iters) == (CFG.newton_tol, MAX_NEWTON_ITERS):
                calls.append(len(starts))
            return damped_newton(values_fn, jacobian_fn, starts, tol, max_iters, **kwargs)

        monkeypatch.setattr(homotopy_module, "damped_newton", counted)
        return calls

    @pytest.mark.parametrize("seed", [6, 7])
    def test_affine_endpoints_skip_the_polish(self, monkeypatch, seed):
        calls = self.polish_calls(monkeypatch)
        inst = affine_instance(*pd_lcp(6, seed))
        for trace in (track_natural_homotopy(inst, np.ones(6), CFG),
                      track_leading_homotopy(inst, CFG)):
            last = trace.checkpoints[-1]
            assert trace.converged and last.t == 1.0 and last.steps == 0
            assert last.residual <= CFG.newton_tol
            assert trace.point.tobytes() == last.x.tobytes()
            assert trace.point is not last.x
        assert calls == []

    def test_endpoint_above_newton_tol_is_polished(self, monkeypatch):
        # this leading path's t = 1 corrector ends above newton_tol
        calls = self.polish_calls(monkeypatch)
        trace = track_leading_homotopy(random_instance(*MIXED_DEGREES["mixed3-0"]), CFG)
        assert calls == [1]
        assert trace.converged and trace.checkpoints[-1].steps >= 1
        assert trace.checkpoints[-1].residual <= CFG.newton_tol


class TestLeadingHomotopy:
    def test_leading_pair_not_built(self):
        # the start pair is read off the instance's own compiled table
        inst = random_instance(*MIXED_DEGREES["mixed2-4"])
        assert track_leading_homotopy(inst, CFG).converged
        assert "leading_pair" not in inst.__dict__

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
