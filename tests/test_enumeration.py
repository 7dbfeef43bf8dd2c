"""Index-set enumeration, certification, deduplication, distances."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from pcpkit import enumeration, homotopy
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
    lemke_lcp,
    min_abs_subsystem_determinant,
    min_phi,
    natural_map,
    natural_residual_norm,
    solve_subsystem,
)
from pcpkit.enumeration import (
    DEDUPE_RADIUS,
    FEASIBILITY_TOL,
    JACOBIAN_CONDITION_LIMIT,
    MAX_NEWTON_ITERS,
    STALL_FACTOR,
    STALL_WINDOW,
    STEP_SCALES,
    NewtonResult,
    NewtonStatus,
    _dedupe_points,
    _start_cloud,
    damped_newton,
    one_norms,
)
from pcpkit.genericity import random_instance, trial_instance
from pcpkit.residuals import MAX_SUBSET_DIMENSION

from test_lemke import affine_instance, pd_lcp

FAST = SolveConfig(starts_per_subsystem=60)
# sha256 of every subset's roots from _solve_subsystems (shape then bytes, in mask
# order) and of json.dumps(enumerate_solutions(inst).to_dict()) at the default
# SolveConfig, as the subset-major kernel wrote them (numpy 2.4, x86-64);
# trial-n-k is trial_instance(n, (2,) * n, 3, k), dense-s is a dense n = 2, d = 3
# random_instance on seed s, lcp-n is the PD LCP affine_instance(*pd_lcp(n, n)),
# mixed-s is random_instance(3, (1, 1, 1), (1, 2, 1), s)
SWEEP_DIGESTS = {
    "trial-1-0": ("4c1088467881a66a4d1dbd56c3a9cbb2ccae66b8824e9d1cccb80b6548f4829b",
                 "a7e75d27f6ec0c489bd747e11fa716be9dcf9c300f479ba9caaca1a49fb48cbb"),
    "trial-1-3": ("657be3a4310554907001358f3804076d8859483267cb5065d78f07c0da4baf07",
                 "25c697850f02b24758bee5711e119ed2cfba556d24715fb77d5013d2bf83c663"),
    "trial-2-0": ("68e86942a8843b9905c35e9c555413b07b1dba4dd6df961c085dc80815fad643",
                 "554d2984ffbd40b802ecf7277c6a86fda45c2ae2cb88c49c76e8b94043063ec8"),
    "trial-2-3": ("74c5b5a5e1b25e91874de5732a57f980d9dbacabab2c13f8c4fd49d732338f05",
                 "7e529ba13e0c4bceb9cb92798b8aa55c83069eb6af0a0f494ac1e415ebc8b7b7"),
    "trial-3-0": ("a3bf174e90b40da7dc6928bb968c9a40ce4d832b682a86c9cc4702dcb5e88f77",
                 "bc3fe94c046756a45ce09ee3a4e6b2fa9e050480462c794cb953f550936f55e9"),
    "trial-3-3": ("52a2d2c99a20f6c311a573083040ea1b460b124d38497ff0e6832a28be395cdb",
                 "f09bc8cc9bf28ac16b6b079d3dbea258919b1254d8c6df657cbdc1fd04416d3a"),
    "trial-4-0": ("70374f6dd0102d6b6f5e3a3a514a4fa4f11176b48e35191c478c726120a8a20e",
                 "4af7d59921726d20d0aeee55aa7162ca8222ad749b039b7384ef25c08397a8c7"),
    "trial-4-3": ("dab2cb0a38da9e474c8b64e8a613a66f31a9f8ff165797ae6ef1925aee86e8d8",
                 "47419031a466ede7f331cef88157a99c4c9d2a68600789695bb812ebca9db102"),
    "trial-5-0": ("423c3327e458545796c09ca41d12f1e926af4b037fa2b6bbfee2c75e64226ca9",
                 "50b360094eec2204555168a2a9e7b41b375b31fdb152b19919a244a7b105a9e9"),
    "trial-5-3": ("58899bcde9962cb43c21380a6c53381745f8e0c13de59eaf0e04910d13e2b22f",
                 "1e746e95a7357c8e549492b8f5d4b4ed0298979164852cd4056f110ee7b17447"),
    "dense-1": ("8a875b897a8fc4b7655a090950ed1e875961799382ba7130b2a16dcf0313caca",
               "592d691cb3248685ee2097786985f87aa6b620d553c23fa05e4ebcbcac9ff56e"),
    "dense-2": ("d7ac8a75b3b84f1fb734219ce0fdfc4bfda09ab330a34909a2dfc4b8fd06b2c2",
               "6c459b218354aebb78e622f2f75a7023b55862e663ad25bfa3a7c6fbf6df0147"),
    "lcp-2": ("71bbf22565456a77f5622bae4356e87e03daef204e9612d99689b602dd3ef29e",
              "655d253fa6dc51a033c6bce03482d41fa86a3a8a4154b107fd3b387a3ad0e236"),
    "lcp-4": ("799ddf094c8845700774f17f10f3842712792772f52dc652f324a169889eaf1d",
              "6b5e55fb06ebdae19c7be4f74db705600cdc8d024255c99dcd09261f917d8b14"),
    "lcp-6": ("386fccb1a3ae7861ba5162f23623f57bb1513909439f0dfb7bf060294a5f2e5c",
              "1dc7ddcd7e9f1037668026b1194905382eda2062214e5e1894b2aa357514f43e"),
    "mixed-1": ("559abd8da6602c012253d14fe8565ba4fff8d981e2cd15c76ef063af0d01b5aa",
                "554d2984ffbd40b802ecf7277c6a86fda45c2ae2cb88c49c76e8b94043063ec8"),
    "mixed-2": ("1af21a3b9624dfecdb9265d007864138dc1b77537906b952b198c665f084d6ba",
                "b86f7643c663284be3f3b74b1366865b810fa10dd7d3e8e00abeac9e4d5f7e5e"),
}


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
                    np.linalg.norm(root - other) <= DEDUPE_RADIUS
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
        assert result.alive.all() and not (result.status == NewtonStatus.ESCAPED).any()
        assert np.all(result.status == NewtonStatus.CONVERGED)
        assert np.allclose(result.points[:, 0], 2.0)
        assert np.all(result.norms <= 1e-12)
        # the start at the root takes no step
        assert result.steps[1] == 0
        assert result.steps[0] > 0 and result.steps[2] > 0

    def test_iteration_cap(self):
        values, jacobian = self.cubic(8.0)
        result = damped_newton(values, jacobian, np.array([[5.0], [2.0]]), 1e-12, max_iters=1)
        assert list(result.status) == [NewtonStatus.ITERATION_CAP, NewtonStatus.CONVERGED]
        assert result.alive.all() and result.norms[0] > 1e-12

    def test_non_finite_residual(self):
        values, jacobian = self.cubic(8.0)
        result = damped_newton(values, jacobian, np.array([[np.inf], [1.0]]), 1e-12, 50)
        assert list(result.status) == [NewtonStatus.NON_FINITE, NewtonStatus.CONVERGED]
        assert list(result.alive) == [False, True]
        assert not (result.status == NewtonStatus.ESCAPED).any()

    def test_escape_ball(self):
        values, jacobian = self.cubic(1e21)
        result = damped_newton(values, jacobian, np.array([[1e5]]), 1e-6, 50, escape_norm=1e6)
        assert result.status[0] == NewtonStatus.ESCAPED
        assert not result.alive[0]
        assert np.linalg.norm(result.points[0]) > 1e6

    @pytest.mark.parametrize("escape_norm, status", [
        (np.inf, NewtonStatus.NON_FINITE), (1e6, NewtonStatus.ESCAPED),
    ])
    def test_overflowing_norm_is_inf_without_warning(self, escape_norm, status):
        # F(x) = x at 1e200: finite values whose squares overflow
        identity = (lambda x, rows: x), (lambda x, rows: np.broadcast_to(np.eye(3), (len(x), 3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = damped_newton(*identity, np.full((1, 3), 1e200), 1e-12, 50, escape_norm)
        assert result.norms[0] == np.inf and result.status[0] == status

    def test_overflowing_ladder_is_no_descent_without_warning(self):
        # x^2 - 1 from 1e-100: every rung of the step towards 5e99 has finite
        # values whose squares overflow, so none lowers the residual
        values = lambda x, rows: x**2 - 1.0  # noqa: E731
        jacobian = lambda x, rows: 2.0 * x[:, :, None]  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = damped_newton(values, jacobian, np.array([[1e-100]]), 1e-12, 50)
        assert result.status[0] == NewtonStatus.NO_DESCENT and result.steps[0] == 0

    def test_singular_jacobian_abandons_row(self):
        values, jacobian = self.cubic(8.0)
        result = damped_newton(values, jacobian, np.array([[0.0], [1.0]]), 1e-12, 50)
        assert list(result.status) == [NewtonStatus.ILL_CONDITIONED, NewtonStatus.CONVERGED]
        assert list(result.alive) == [False, True]
        assert not (result.status == NewtonStatus.ESCAPED).any()

    def test_singular_row_in_a_batch(self):
        # x_i^3 = 8 at n = 3: the Jacobian at the origin is exactly 0, which
        # a batched inverse of all rows would reject with LinAlgError
        values = lambda x, rows: x**3 - 8.0  # noqa: E731
        jacobian = lambda x, rows: 3.0 * np.einsum("ri,ij->rij", x**2, np.eye(3))  # noqa: E731
        starts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [2.5, 1.0, 1.5]])
        result = damped_newton(values, jacobian, starts, 1e-12, 50)
        assert list(result.status) == [
            NewtonStatus.CONVERGED, NewtonStatus.ILL_CONDITIONED, NewtonStatus.CONVERGED
        ]
        assert np.allclose(result.points[[0, 2]], 2.0)
        assert np.array_equal(result.points[1], starts[1]) and result.steps[1] == 0

    def test_condition_limit_is_the_one_norm_condition(self):
        # diagonal systems with condition 1e13 and 1e15 on either side of the limit
        conds = np.array([1e13, 1e15])
        assert conds[0] < JACOBIAN_CONDITION_LIMIT < conds[1]
        matrices = np.stack([np.diag([1.0, 1.0 / c, 1.0]) for c in conds])
        assert np.allclose(np.linalg.cond(matrices, 1), conds)
        # row r solves matrices[r] (x - 1) = 0
        values = lambda x, rows: np.einsum("rij,rj->ri", matrices[rows], x - 1.0)  # noqa: E731
        jacobian = lambda x, rows: matrices[rows]  # noqa: E731
        result = damped_newton(values, jacobian, np.zeros((2, 3)), 1e-12, 50)
        assert list(result.status) == [NewtonStatus.CONVERGED, NewtonStatus.ILL_CONDITIONED]
        assert np.allclose(result.points[0], 1.0) and result.steps[0] == 1
        assert result.steps[1] == 0

    def test_condition_is_taken_in_the_one_norm(self):
        # this matrix has 1-norm condition about 6 / eps, above the limit, and
        # inf-norm condition about 2 / eps, below it; its transpose has them
        # the other way round
        matrix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 3e-14]])
        assert np.linalg.cond(matrix, 1) > JACOBIAN_CONDITION_LIMIT > np.linalg.cond(matrix, np.inf)
        matrices = np.stack([matrix, matrix.T])
        values = lambda x, rows: np.einsum("rij,rj->ri", matrices[rows], x - 1.0)  # noqa: E731
        jacobian = lambda x, rows: matrices[rows]  # noqa: E731
        result = damped_newton(values, jacobian, np.zeros((2, 3)), 1e-12, 50)
        assert list(result.status) == [NewtonStatus.ILL_CONDITIONED, NewtonStatus.CONVERGED]

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
        assert result.status[0] == NewtonStatus.ITERATION_CAP

    def test_exhausted_backtracking_abandons_row(self):
        # x^2 + 1 has no real root; near its minimum no scale down to 2^-30
        # of the huge Newton step lowers the residual
        values = lambda x, rows: x**2 + 1.0  # noqa: E731
        jacobian = lambda x, rows: 2.0 * x[:, :, None]  # noqa: E731
        result = damped_newton(values, jacobian, np.array([[1e-12]]), 1e-12, 50)
        assert result.status[0] == NewtonStatus.NO_DESCENT
        assert not result.alive[0] and result.status[0] != NewtonStatus.ESCAPED
        assert result.steps[0] == 0
        assert result.points[0, 0] == 1e-12

    def test_steady_row_is_not_retired(self):
        # x^2 from x = 1: each step halves x and quarters the residual, so
        # every window more than halves it; 4^-20 is the first power below 1e-12
        values = lambda x, rows: x**2  # noqa: E731
        jacobian = lambda x, rows: 2.0 * x[:, :, None]  # noqa: E731
        result = damped_newton(values, jacobian, np.array([[1.0]]), 1e-12, 100)
        assert result.status[0] == NewtonStatus.CONVERGED
        assert result.steps[0] == 20 > 2 * STALL_WINDOW

    def test_stuck_row_is_retired(self):
        # x^2 + 1 from x = 0.3 creeps towards its minimum 1 at x = 0: its
        # residual does not halve over the first window
        values = lambda x, rows: x**2 + 1.0  # noqa: E731
        jacobian = lambda x, rows: 2.0 * x[:, :, None]  # noqa: E731
        result = damped_newton(values, jacobian, np.array([[0.3]]), 1e-12, 100)
        assert result.status[0] == NewtonStatus.STALLED
        assert result.steps[0] == STALL_WINDOW
        assert result.norms[0] == pytest.approx(1.0, abs=1e-5)
        assert not result.alive[0] and result.status[0] != NewtonStatus.ESCAPED


def reference_damped_newton(values_fn, jacobian_fn, starts, tol, max_iters, escape_norm=np.inf):
    """The kernel as it was first written: a slogdet screen before every inverse,
    np.linalg.norm for every norm and the condition number, np.delete for the
    pending rows."""
    def row_norms(a, axis):
        with np.errstate(over="ignore"):
            return np.linalg.norm(a, axis=axis)

    pts = np.array(starts, dtype=float)
    values = values_fn(pts, np.arange(len(pts)))
    norms = row_norms(values, axis=1)
    running = int(NewtonStatus.ITERATION_CAP)
    status = np.full(len(pts), running, dtype=np.int8)
    steps = np.zeros(len(pts), dtype=int)
    checkpoint = np.full(len(pts), np.inf)
    for iteration in range(max_iters):
        working = np.flatnonzero((status == running) & ~(norms <= tol))
        if working.size == 0:
            break
        escaped = row_norms(pts[working], axis=1) > escape_norm
        status[working[escaped]] = NewtonStatus.ESCAPED
        working = working[~escaped]
        finite = np.isfinite(norms[working])
        status[working[~finite]] = NewtonStatus.NON_FINITE
        working = working[finite]
        if iteration % STALL_WINDOW == 0:
            halved = norms[working] <= STALL_FACTOR * checkpoint[working]
            status[working[~halved]] = NewtonStatus.STALLED
            working = working[halved]
            checkpoint[working] = norms[working]
        if working.size == 0:
            continue
        jac = jacobian_fn(pts[working], working)
        finite = np.isfinite(jac).all(axis=(1, 2))
        status[working[~finite]] = NewtonStatus.NON_FINITE
        working, jac = working[finite], jac[finite]
        regular = np.linalg.slogdet(jac)[0] != 0
        status[working[~regular]] = NewtonStatus.ILL_CONDITIONED
        working, jac = working[regular], jac[regular]
        with np.errstate(all="ignore"):
            inverse = np.linalg.inv(jac)
            cond = np.linalg.norm(jac, 1, axis=(1, 2)) * np.linalg.norm(inverse, 1, axis=(1, 2))
        good = cond < JACOBIAN_CONDITION_LIMIT
        status[working[~good]] = NewtonStatus.ILL_CONDITIONED
        working = working[good]
        if working.size == 0:
            continue
        newton_steps = -np.einsum("rij,rj->ri", inverse[good], values[working])
        base = pts[working]
        pending = np.arange(working.size)
        for scales in (STEP_SCALES[:1], STEP_SCALES[1:]):
            ladder = base[pending, None] + scales[:, None] * newton_steps[pending, None]
            ladder_values = values_fn(
                ladder.reshape(-1, pts.shape[1]), np.repeat(working[pending], len(scales))
            ).reshape(ladder.shape)
            ladder_norms = row_norms(ladder_values, axis=2)
            lower = np.isfinite(ladder_norms) & (ladder_norms < norms[working[pending]][:, None])
            found = np.flatnonzero(lower.any(axis=1))
            rung = lower[found].argmax(axis=1)
            rows = working[pending[found]]
            pts[rows] = ladder[found, rung]
            values[rows] = ladder_values[found, rung]
            norms[rows] = ladder_norms[found, rung]
            steps[rows] += 1
            pending = np.delete(pending, found)
            if pending.size == 0:
                break
        status[working[pending]] = NewtonStatus.NO_DESCENT
    status[(status == running) & (norms <= tol)] = NewtonStatus.CONVERGED
    return NewtonResult(pts, norms, status, steps)


def mixed_batch(n, count, rng):
    """Rows of F_r(x) = A_r x + c_r x^3 + e_r x^2 - b_r with starts of every kind.

    Kinds: 0 converging, 1 exactly singular Jacobian at the start (a zero
    coordinate of x^3 - 8, or a rank-deficient integer A_r), 2 condition
    number 1e15, 3 non-finite (an inf or NaN coordinate, or values whose
    squares overflow), 4 escaping from 1e5 towards x^3 = 1e21, 5 stalling
    on x^2 + 1, which has no real root.
    """
    kind = rng.integers(0, 6, count)
    kind[:6] = np.arange(6)
    a = np.zeros((count, n, n))
    c, e, b = np.zeros((3, count, n))
    starts = rng.uniform(-2.0, 2.0, (count, n))
    eye = np.eye(n)
    for r, k in enumerate(kind):
        if k == 0:
            a[r] = rng.standard_normal((n, n)) + n * eye
            c[r], b[r] = 0.1, rng.standard_normal(n)
        elif k == 1 and rng.random() < 0.5:
            c[r], b[r] = 1.0, 8.0
            starts[r, rng.integers(n)] = 0.0
        elif k == 1:  # rank n - 1
            a[r] = rng.integers(-3, 4, (n, n - 1)) @ rng.integers(-3, 4, (n - 1, n))
            b[r] = rng.standard_normal(n)
        elif k == 2:  # at n = 1 the lone 1e-15 is perfectly conditioned
            a[r] = np.diag(np.r_[1.0, np.full(n - 1, 1e-15)]) if n > 1 else 1e-15
            b[r] = a[r] @ np.ones(n)
        elif k == 3:
            a[r] = eye
            starts[r, rng.integers(n)] = rng.choice([np.inf, -np.inf, np.nan, 1e200])
        elif k == 4:
            c[r], b[r] = 1.0, 1e21
            starts[r] = 1e5
        else:
            e[r], b[r] = 1.0, -1.0
            starts[r] = rng.uniform(0.1, 0.5, n)

    def values(x, rows):
        with np.errstate(all="ignore"):
            return np.einsum("rij,rj->ri", a[rows], x) + c[rows] * x**3 + e[rows] * x**2 - b[rows]

    def jacobian(x, rows):
        with np.errstate(all="ignore"):
            return a[rows] + np.einsum("ri,ij->rij", 3.0 * c[rows] * x**2 + 2.0 * e[rows] * x, eye)

    return values, jacobian, starts


def assert_same_result(got, want):
    for name, g, w in zip(NewtonResult._fields, got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


class TestOneNorms:
    """The kernel's 1-norm against np.linalg.norm, byte for byte."""

    @pytest.mark.parametrize("rows", [1, 2, 37])
    @pytest.mark.parametrize("n", range(1, 25))
    def test_equals_linalg_norm(self, n, rows):
        rng = np.random.default_rng([n, rows])
        stack = rng.standard_normal((rows, n, n)) * 10.0 ** rng.integers(-3, 4, (rows, n, n))
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 1e-300]
        hit = rng.random((rows, n, n)) < 0.1
        stack[hit] = rng.choice(special, hit.sum())
        # whole columns of huge entries overflow the column sum to inf
        stack[rows // 2, :, 0] = 1e308
        for a in (stack, np.asfortranarray(stack), stack.transpose(0, 2, 1)):
            with np.errstate(over="ignore"):
                want = np.linalg.norm(a, 1, axis=(1, 2))
                got = one_norms(a)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBranchPick:
    """The sweep's callbacks equal the subset's own PolyMap bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_values_and_jacobians(self, monkeypatch, n):
        inst = random_instance(n, [2] * n, [3] * n, 40 + n)
        rng = np.random.default_rng(n)
        points = rng.standard_normal((23, n)) * 3.0
        callbacks = []

        def captured(values_fn, jacobian_fn, starts, *args):
            callbacks.append((values_fn, jacobian_fn, len(starts)))
            return damped_newton(values_fn, jacobian_fn, starts, *args)

        monkeypatch.setattr(enumeration, "damped_newton", captured)
        for mask in range(1 << n):
            index_set = [i for i in range(n) if mask >> i & 1]
            solve_subsystem(inst, index_set, SolveConfig(starts_per_subsystem=5))
            values_fn, jacobian_fn, count = callbacks.pop()
            system = PolyMap(tuple(
                inst.f.components[i] if mask >> i & 1 else inst.g.components[i]
                for i in range(n)
            ))
            rows = rng.integers(0, count, len(points))
            for pts in (points, np.asfortranarray(points)):
                for got, want in ((values_fn(pts, rows), system.evaluate(points)),
                                  (jacobian_fn(pts, rows), system.jacobian(points))):
                    assert got.shape == want.shape
                    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


class TestKernelReference:
    """The kernel against its first formulation, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("escape_norm", [np.inf, 1e6])
    def test_mixed_batches(self, monkeypatch, n, escape_norm):
        screens = []
        slogdet = np.linalg.slogdet
        statuses = set()
        for seed in range(4):
            values, jacobian, starts = mixed_batch(n, 48, np.random.default_rng([n, seed]))
            want = reference_damped_newton(
                values, jacobian, starts, 1e-12, MAX_NEWTON_ITERS, escape_norm
            )
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "slogdet", lambda a: screens.append(len(a)) or slogdet(a))
                got = damped_newton(values, jacobian, starts, 1e-12, MAX_NEWTON_ITERS, escape_norm)
            assert_same_result(got, want)
            statuses |= set(got.status.tolist())
        # every outcome occurs, and singular rows sent the kernel down its slogdet screen
        assert screens
        expected = {NewtonStatus.CONVERGED, NewtonStatus.ILL_CONDITIONED, NewtonStatus.NON_FINITE}
        assert expected <= statuses
        assert statuses & {NewtonStatus.STALLED, NewtonStatus.NO_DESCENT}
        assert (NewtonStatus.ESCAPED in statuses) == (escape_norm < np.inf)

    def test_sweeps_match(self, monkeypatch):
        # every kernel call of a sweep and a homotopy, through the real callbacks
        calls = []

        def paired(*args, **kwargs):
            got = damped_newton(*args, **kwargs)
            assert_same_result(got, reference_damped_newton(*args, **kwargs))
            calls.append(len(args[2]))
            return got

        monkeypatch.setattr(enumeration, "damped_newton", paired)
        monkeypatch.setattr(homotopy, "damped_newton", paired)
        for k in range(3):
            inst = trial_instance(2, (2, 2), 0, k)
            enumerate_solutions(inst, FAST)
            homotopy.track_natural_homotopy(inst, np.full(2, 0.5), FAST)
        enumerate_solutions(random_instance(3, [3] * 3, [2] * 3, 5), FAST)
        assert len(calls) > 10

    def test_inverse_raises_exactly_on_slogdet_sign_zero(self):
        # rank-deficient integer matrices: LU pivoting meets an exact zero on
        # some of them and a rounded nonzero on others; inv and slogdet agree
        rng = np.random.default_rng(2024)
        raised = []
        for _ in range(10_000):
            n = int(rng.integers(2, 8))
            rank = int(rng.integers(1, n))
            matrix = (rng.integers(-3, 4, (n, rank)) @ rng.integers(-3, 4, (rank, n))).astype(float)
            try:
                with np.errstate(all="ignore"):
                    np.linalg.inv(matrix)
                raised.append(False)
            except np.linalg.LinAlgError:
                raised.append(True)
            assert raised[-1] == (np.linalg.slogdet(matrix)[0] == 0)
        assert 0 < sum(raised) < len(raised)


class TestStallRule:
    """Retiring stalled rows keeps every solution the sweep finds."""

    @staticmethod
    def check(monkeypatch, instances, cfg=None):
        with_rule = [enumerate_solutions(inst, cfg).to_dict() for inst in instances]
        # a window longer than the iteration budget never retires a row
        monkeypatch.setattr(enumeration, "STALL_WINDOW", MAX_NEWTON_ITERS + 1)
        assert [enumerate_solutions(inst, cfg).to_dict() for inst in instances] == with_rule

    @pytest.mark.parametrize("n, count", [(2, 40), (3, 10)])
    def test_trial_instances(self, monkeypatch, n, count):
        self.check(monkeypatch, [trial_instance(n, (2,) * n, 0, k) for k in range(count)])

    def test_dense_cubic(self, monkeypatch):
        # a window of 6 retires every row that reaches one of its 3 solutions
        inst = random_instance(2, [3, 3], [3, 3], np.random.SeedSequence([8, 1]))
        self.check(monkeypatch, [inst], SolveConfig(rng_seed=8))


def halton_cloud(n, cfg, mask):
    """A freshly drawn start cloud, as the enumerator draws it."""
    seed = np.random.SeedSequence(entropy=[cfg.rng_seed, mask])
    engine = qmc.Halton(d=n, scramble=True, seed=np.random.default_rng(seed))
    return (2.0 * engine.random(cfg.starts_per_subsystem) - 1.0) * cfg.start_box_radius


def reference_sweep(inst, masks, cfg):
    """Per-subset sweep: one PolyMap and one Newton call per index set."""
    roots = []
    for mask in masks:
        system = PolyMap(tuple(
            inst.f.components[i] if mask >> i & 1 else inst.g.components[i]
            for i in range(inst.n)
        ))
        starts = np.vstack([halton_cloud(inst.n, cfg, mask), np.zeros(inst.n)])
        result = damped_newton(
            lambda x, rows: system.evaluate(x), lambda x, rows: system.jacobian(x),
            starts, cfg.newton_tol * 1e-2, MAX_NEWTON_ITERS,
        )
        found = result.points[result.alive & (result.norms <= cfg.newton_tol)]
        residuals = np.linalg.norm(system.evaluate(found), axis=1)
        unique = _dedupe_points(found, residuals, DEDUPE_RADIUS)
        roots.append(unique[np.lexsort(unique.T[::-1])])
    return roots


def assert_same_points(got, want):
    assert np.array_equal(got, want)


def sweep(inst, masks, cfg, alone):
    """The sweep's roots of each subset: all in one batch, or one solve_subsystem call each."""
    if not alone:
        return enumeration._solve_subsystems(inst, masks, cfg)
    return [solve_subsystem(inst, [i for i in range(inst.n) if mask >> i & 1], cfg)
            for mask in masks]


@pytest.fixture
def kernel_rows(monkeypatch):
    """Rows of each damped-Newton call the enumerator makes, in order."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return damped_newton(*args, **kwargs)

    monkeypatch.setattr(enumeration, "damped_newton", counted)
    return calls


class TestBatchedSweep:
    """The (subset, start) batch against the per-subset reference sweep."""

    def check(self, inst, cfg, alone, monkeypatch):
        masks = range(1 << inst.n)
        got_roots = sweep(inst, masks, cfg, alone)
        want_roots = reference_sweep(inst, masks, cfg)
        for got, want in zip(got_roots, want_roots, strict=True):
            assert_same_points(got, want)
        # the rest of the enumeration, once on each sweep's roots
        solution_sets = []
        for roots in (got_roots, want_roots):
            monkeypatch.setattr(enumeration, "_solve_subsystems", lambda *args: roots)
            solution_sets.append(enumerate_solutions(inst, cfg))
        monkeypatch.undo()
        got, want = solution_sets
        assert got.completeness_claim == want.completeness_claim
        assert_same_points(got.points, want.points)

    @pytest.mark.parametrize("alone", [False, True])
    @pytest.mark.parametrize(
        "fixture",
        ["hyperbola_pair", "unsolvable_pair", "affine_shift", "identity_pair",
         "swapped_linear", "scalar_shift"],
    )
    def test_fixtures(self, request, monkeypatch, fixture, alone):
        self.check(request.getfixturevalue(fixture), FAST, alone, monkeypatch)

    @pytest.mark.parametrize("alone", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_instances(self, monkeypatch, n, alone):
        cfg = SolveConfig(starts_per_subsystem=40)
        for seed in range(2):
            inst = random_instance(n, [2] * n, [2] * n, 100 * n + seed)
            self.check(inst, cfg, alone, monkeypatch)

    def test_several_chunks(self, monkeypatch):
        # 8 subsets of 401 rows in slices of 1024: subsets 2, 5 and 7 span two slices
        cfg = SolveConfig(starts_per_subsystem=400)
        inst = random_instance(3, [2] * 3, [2] * 3, 7)
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return damped_newton(*args, **kwargs)

        monkeypatch.setattr(enumeration, "damped_newton", counted)
        got = enumeration._solve_subsystems(inst, range(8), cfg)
        assert calls == [1024, 1024, 1024, 136]
        for roots, want in zip(got, reference_sweep(inst, range(8), cfg), strict=True):
            assert_same_points(roots, want)

    @pytest.mark.parametrize("cap", [7, 333])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_slice_size_changes_nothing(self, monkeypatch, n, cap):
        # each row's path is its own, so any slicing gives the same bytes; with
        # 41-row subsets neither cap is a multiple of a subset, so slices split subsets
        cfg = SolveConfig(starts_per_subsystem=40)
        masks = range(1 << n)
        for seed in range(2):
            inst = random_instance(n, [2] * n, [2] * n, 50 * n + seed)
            want_roots = enumeration._solve_subsystems(inst, masks, cfg)
            want = enumerate_solutions(inst, cfg).to_dict()
            with monkeypatch.context() as patch:
                patch.setattr(enumeration, "SWEEP_CHUNK_ROWS", cap)
                got_roots = enumeration._solve_subsystems(inst, masks, cfg)
                got = enumerate_solutions(inst, cfg).to_dict()
            for roots, want_subset in zip(got_roots, want_roots, strict=True):
                assert roots.shape == want_subset.shape
                assert roots.tobytes() == want_subset.tobytes()
            assert got == want
            assert sum(map(len, want_roots)) > 0

    def test_kernel_calls_stay_under_the_cap(self, kernel_rows):
        # 4 subsets of 2001 rows: no call may take a whole subset past the cap
        inst = random_instance(2, [2, 2], [2, 2], 3)
        enumeration._solve_subsystems(inst, range(4), SolveConfig(starts_per_subsystem=2000))
        assert max(kernel_rows) <= enumeration.SWEEP_CHUNK_ROWS
        assert sum(kernel_rows) == 4 * 2001

    def test_one_kernel_call_per_chunk(self, monkeypatch, hyperbola_pair):
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return damped_newton(*args, **kwargs)

        monkeypatch.setattr(enumeration, "damped_newton", counted)
        enumerate_solutions(hyperbola_pair)
        assert calls == [4 * 201]

    def test_affine_subsets_start_at_origin(self, kernel_rows):
        # every subset of an LCP is affine: one start each
        enumerate_solutions(affine_instance(*pd_lcp(3, 0)))
        assert kernel_rows == [8]

    def test_only_affine_subsets_drop_the_cloud(self, kernel_rows):
        # f = Id, g quadratic: only the all-f subset is affine
        g = PolyMap((
            Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0, (0, 0): -2.0}),
            Polynomial(2, {(1, 1): 1.0, (0, 0): -1.0}),
        ))
        inst = PcpInstance(PolyMap.identity(2), g)
        got = enumeration._solve_subsystems(inst, range(4), SolveConfig())
        assert kernel_rows == [3 * 201 + 1]
        for roots, want in zip(got, reference_sweep(inst, range(4), SolveConfig()), strict=True):
            assert_same_points(roots, want)

    def test_status_counts_sum_to_starts(self, monkeypatch):
        # every (subset, start) row of one sweep ends with exactly one status
        inst = random_instance(3, [2] * 3, [2] * 3, 2)
        counts = np.zeros(len(NewtonStatus), dtype=int)

        def counted(*args, **kwargs):
            result = damped_newton(*args, **kwargs)
            counts[:] += np.bincount(result.status, minlength=len(NewtonStatus))
            return result

        monkeypatch.setattr(enumeration, "damped_newton", counted)
        sols = enumerate_solutions(inst)
        assert counts.sum() == 8 * 201
        assert counts[NewtonStatus.CONVERGED] >= len(sols) > 0

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


class TestSweepDigests:
    """Every subset's roots and the report are pinned byte for byte."""

    @staticmethod
    def digests(inst, monkeypatch):
        sweeps = []
        solve = enumeration._solve_subsystems
        monkeypatch.setattr(enumeration, "_solve_subsystems",
                            lambda *args: sweeps.append(solve(*args)) or sweeps[-1])
        report = enumerate_solutions(inst).to_dict()
        roots = hashlib.sha256()
        for subset_roots in sweeps[0]:
            roots.update(np.array(subset_roots.shape).tobytes())
            roots.update(subset_roots.tobytes())
        return roots.hexdigest(), hashlib.sha256(json.dumps(report).encode()).hexdigest()

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_trial_instances(self, monkeypatch, n, k):
        inst = trial_instance(n, (2,) * n, 3, k)
        assert self.digests(inst, monkeypatch) == SWEEP_DIGESTS[f"trial-{n}-{k}"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dense_cubics(self, monkeypatch, seed):
        inst = random_instance(2, (3, 3), (3, 3), seed)
        assert self.digests(inst, monkeypatch) == SWEEP_DIGESTS[f"dense-{seed}"]

    # a one-start subset's rows, whole and in slices of 7 rows, where one-start
    # subsets follow a subset split across slices
    @pytest.mark.parametrize("cap", [None, 7], ids=["whole", "slices-of-7"])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_pd_lcps(self, monkeypatch, n, cap):
        if cap:
            monkeypatch.setattr(enumeration, "SWEEP_CHUNK_ROWS", cap)
        inst = affine_instance(*pd_lcp(n, n))
        assert self.digests(inst, monkeypatch) == SWEEP_DIGESTS[f"lcp-{n}"]

    @pytest.mark.parametrize("cap", [None, 7], ids=["whole", "slices-of-7"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_mixed_degrees(self, monkeypatch, seed, cap):
        # the subsets with bit 1 set are affine, so one-start and cloud subsets interleave
        if cap:
            monkeypatch.setattr(enumeration, "SWEEP_CHUNK_ROWS", cap)
        inst = random_instance(3, (1, 1, 1), (1, 2, 1), seed)
        assert self.digests(inst, monkeypatch) == SWEEP_DIGESTS[f"mixed-{seed}"]


class TestStartCloud:
    """The in-package draw against scipy's scrambled Halton as the oracle."""

    @pytest.mark.parametrize("n", [*range(1, 9), 12, MAX_SUBSET_DIMENSION])
    def test_equals_scipy_halton_bit_for_bit(self, n):
        masks = sorted({0, 1, 2 ** n - 1, 2 ** (n // 2), 2 ** n // 3, 5 * 2 ** n // 7})
        for rng_seed in range(6):
            for mask in masks:
                for count in (1, 80, 200, 397):
                    cfg = SolveConfig(starts_per_subsystem=count, rng_seed=rng_seed)
                    cloud = _start_cloud(n, rng_seed, mask, count, cfg.start_box_radius)
                    want = halton_cloud(n, cfg, mask)
                    assert np.array_equal(cloud.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 100), (5, 200), (24, 40)])
    def test_first_k_starts_of_2k_are_the_k_start_cloud(self, n, k):
        for mask in (0, 3, 2 ** n - 1):
            short = _start_cloud(n, 4, mask, k, 10.0)
            long = _start_cloud(n, 4, mask, 2 * k, 10.0)
            assert np.array_equal(long[:k].view(np.int64), short.view(np.int64))

    def test_import_loads_no_scipy(self):
        code = (
            "import sys, pcpkit, pcpkit.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert done.stdout.strip() == "[]"


class TestAffineSweep:
    """Affine subsets start from the origin alone; the cloud finds nothing more."""

    @pytest.mark.parametrize("alone", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pd_lcp_matches_reference_and_lemke(self, n, alone):
        cfg = SolveConfig()
        for seed in range(2):
            M, q = pd_lcp(n, 10 * n + seed)
            inst = affine_instance(M, q)
            masks = range(1 << n)
            got_roots = sweep(inst, masks, cfg, alone)
            for got, want in zip(got_roots, reference_sweep(inst, masks, cfg), strict=True):
                # non-integer coefficients: the root may move in its last bits
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            sols = enumerate_solutions(inst, cfg)
            assert len(sols) == 1
            assert np.linalg.norm(sols.points[0] - lemke_lcp(M, q).z) <= 1e-8

    @pytest.mark.parametrize("q, singular_roots", [
        ((-1.0, -1.0), []),
        ((0.0, 0.0), [(0.0, 0.0)]),
    ])
    def test_rank_deficient_subset(self, q, singular_roots):
        # M = [[1, 1], [1, 1]]: the all-g subset is singular, so its one row
        # keeps the origin if the origin is a root and is abandoned otherwise
        inst = affine_instance([[1.0, 1.0], [1.0, 1.0]], q)
        cfg = SolveConfig()
        got = enumeration._solve_subsystems(inst, range(4), cfg)
        for roots, want in zip(got, reference_sweep(inst, range(4), cfg), strict=True):
            assert_same_points(roots, want)
        assert_same_points(got[0], np.reshape(singular_roots, (-1, 2)))


@st.composite
def pd_lcp_instances(draw):
    n = draw(st.integers(1, 4))
    return affine_instance(*pd_lcp(n, draw(st.integers(0, 2**32 - 1))))


def assert_same_solution_sets(got, want, radius):
    assert len(got) == len(want)
    for point in got.points:
        assert np.min(np.linalg.norm(want.points - point, axis=1)) <= radius


class TestMetamorphic:
    """Transformations of a PD LCP that leave its solution set unchanged."""

    @given(pd_lcp_instances())
    @settings(max_examples=30, deadline=None)
    def test_swap_f_and_g(self, inst):
        cfg = SolveConfig()
        assert_same_solution_sets(
            enumerate_solutions(PcpInstance(inst.g, inst.f), cfg),
            enumerate_solutions(inst, cfg),
            DEDUPE_RADIUS,
        )

    @given(pd_lcp_instances(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_positive_rescaling(self, inst, data):
        cfg = SolveConfig()
        factors = st.lists(st.floats(0.01, 100.0), min_size=2 * inst.n, max_size=2 * inst.n)
        scale = data.draw(factors)
        scaled = PcpInstance(
            PolyMap(tuple(p.scaled(c) for p, c in zip(inst.f.components, scale[: inst.n]))),
            PolyMap(tuple(p.scaled(c) for p, c in zip(inst.g.components, scale[inst.n :]))),
        )
        assert_same_solution_sets(
            enumerate_solutions(scaled, cfg), enumerate_solutions(inst, cfg), DEDUPE_RADIUS
        )

    @given(pd_lcp_instances(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_permutation(self, inst, data):
        # y_k = x_perm[k] and component k of the new pair is component perm[k]
        # of the old, so every solution x maps to x[perm]
        cfg = SolveConfig()
        perm = data.draw(st.permutations(range(inst.n)))

        def permuted(poly_map):
            return PolyMap(tuple(
                Polynomial(inst.n, {tuple(e[p] for p in perm): c
                                    for e, c in poly_map.components[i].terms.items()})
                for i in perm
            ))

        want = enumerate_solutions(inst, cfg)
        got = enumerate_solutions(PcpInstance(permuted(inst.f), permuted(inst.g)), cfg)
        assert len(got) == len(want)
        for point in got.points:
            assert np.min(np.linalg.norm(want.points[:, perm] - point, axis=1)) <= DEDUPE_RADIUS


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
            assert np.all(hyperbola_pair.f.evaluate(cert.point) >= -FEASIBILITY_TOL)
            assert np.all(hyperbola_pair.g.evaluate(cert.point) >= -FEASIBILITY_TOL)

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
        assert np.all(gaps > DEDUPE_RADIUS)

    def test_feasible_candidate_failing_certification_is_dropped(self, monkeypatch):
        # f = x, g = x^2 + (5e-9 - 1) x - 5e-9: the candidate 0 passes the sign
        # filter, as g(0) = -5e-9 is within FEASIBILITY_TOL, but its residual
        # 5e-9 is above newton_tol, so certification refuses it
        inst = PcpInstance(
            PolyMap((Polynomial(1, {(1,): 1.0}),)),
            PolyMap((Polynomial(1, {(2,): 1.0, (1,): 5e-9 - 1, (0,): -5e-9}),)),
        )
        rejected = []

        def certify(inst, point, cfg):
            try:
                return certify_solution(inst, point, cfg)
            except CertificationError:
                rejected.append(point.tolist())
                raise

        monkeypatch.setattr(enumeration, "certify_solution", certify)
        sols = enumerate_solutions(inst)
        assert sols.points.tolist() == [[1.0]]
        assert rejected == [[0.0]]
        assert -FEASIBILITY_TOL <= inst.g.evaluate([0.0])[0] < 0

    def test_determinism(self, hyperbola_pair):
        a = enumerate_solutions(hyperbola_pair, FAST)
        b = enumerate_solutions(hyperbola_pair, FAST)
        assert a.to_dict() == b.to_dict()

    def test_complexity_guard(self):
        inst = PcpInstance(PolyMap.identity(25), PolyMap.identity(25))
        with pytest.raises(ComplexityGuardError):
            enumerate_solutions(inst, FAST)

    def test_solution_circle_denies_completeness(self):
        # f = (q, x1 q) with q = x1^2 + x2^2 - 1 and g = x + 10 > 0 near the
        # circle: every point of the unit circle is a solution
        f = PolyMap((
            Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}),
            Polynomial(2, {(3, 0): 1.0, (1, 2): 1.0, (1, 0): -1.0}),
        ))
        g = PolyMap((
            Polynomial(2, {(1, 0): 1.0, (0, 0): 10.0}),
            Polynomial(2, {(0, 1): 1.0, (0, 0): 10.0}),
        ))
        sols = enumerate_solutions(PcpInstance(f, g))
        assert np.allclose(np.linalg.norm(sols.points, axis=1), 1.0)
        assert not sols.completeness_claim
        # the all-f subset's square system (f1, f2) has Bezout number 2 * 3 = 6
        assert sols.warnings == (
            "non-isolated solutions suspected: subset {0, 1} holds 16 roots, "
            "above its Bezout number 6",
        )

    def test_zero_component_denies_completeness(self):
        # f1 = 0: the ray {x2 = -10, x1 >= -10} solves the instance, yet every
        # subset holding f1 has a zero Jacobian row, so Newton finds no root there
        f = PolyMap((Polynomial(2, {}), Polynomial(2, {(0, 1): 1.0, (0, 0): 20.0})))
        g = PolyMap((
            Polynomial(2, {(1, 0): 1.0, (0, 0): 10.0}),
            Polynomial(2, {(0, 1): 1.0, (0, 0): 10.0}),
        ))
        inst = PcpInstance(f, g)
        assert np.array_equal(natural_map(inst, [5.0, -10.0]), [0.0, 0.0])
        sols = enumerate_solutions(inst)
        assert np.array_equal(sols.points, [[-10.0, -10.0]])
        assert not sols.completeness_claim
        assert sols.warnings == (
            "non-isolated solutions suspected: component 0 of f is identically zero",
        )

    def test_nonzero_constant_component_keeps_completeness(self):
        # a nonzero constant component has no root, so it hides no continuum
        f = PolyMap((Polynomial(2, {(0, 0): 1.0}), Polynomial(2, {(0, 1): 1.0})))
        sols = enumerate_solutions(PcpInstance(f, PolyMap.identity(2)))
        assert np.array_equal(sols.points, [[0.0, 0.0]])
        assert sols.completeness_claim and sols.warnings == ()

    @pytest.mark.parametrize(
        "fixture",
        ["hyperbola_pair", "unsolvable_pair", "affine_shift", "identity_pair",
         "swapped_linear", "scalar_shift"],
    )
    def test_fixtures_claim_completeness(self, request, fixture):
        # every subset of these isolated-root instances stays within its Bezout number
        sols = enumerate_solutions(request.getfixturevalue(fixture))
        assert sols.completeness_claim and sols.warnings == ()


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

    def test_reject_nan_point(self, affine_shift):
        with pytest.raises(CertificationError) as info:
            certify_solution(affine_shift, [np.nan, 0.0], FAST)
        assert np.isnan(info.value.residual_norm)

    def test_reject_overflow_to_nan(self):
        # f_1 = x_1^2 - x_2^2 is inf - inf = nan at (1e200, 1e200)
        inst = PcpInstance(
            PolyMap(
                (
                    Polynomial(2, {(2, 0): 1.0, (0, 2): -1.0}),
                    Polynomial(2, {(0, 1): 1.0}),
                )
            ),
            PolyMap.identity(2),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CertificationError) as info:
                certify_solution(inst, [1e200, 1e200], FAST)
        assert np.isnan(info.value.residual_norm)

    def test_subset_guard(self):
        inst = PcpInstance(PolyMap.identity(25), PolyMap.identity(25))
        with pytest.raises(ComplexityGuardError):
            certify_solution(inst, np.zeros(25), FAST)

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
                assert cert.strict_complementarity == bool(np.min(fx + gx) > FEASIBILITY_TOL)


class TestDistance:
    def test_empty_set_is_one(self, unsolvable_pair):
        sols = enumerate_solutions(unsolvable_pair, FAST)
        assert distance_to_solutions(sols, [7.0, -3.0]) == 1.0
        batch = distance_to_solutions(sols, np.zeros((4, 2)))
        assert np.all(batch == 1.0)

    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [0.5], np.zeros((3, 1)), 0.5],
                             ids=["long", "short", "narrow-batch", "scalar"])
    def test_empty_set_refuses_misshapen_points(self, unsolvable_pair, x):
        sols = enumerate_solutions(unsolvable_pair, FAST)
        assert len(sols) == 0 and sols.points.shape == (0, 2)
        with pytest.raises(InputError):
            distance_to_solutions(sols, x)

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

    @pytest.mark.parametrize("x", [[0.5], [1.0, 1.0, 1.0], np.zeros((3, 1)), 0.5],
                             ids=["short", "long", "narrow-batch", "scalar"])
    def test_misshapen_points_refused(self, x):
        # two solutions in the plane: a length-1 point would broadcast against them
        sols = enumerate_solutions(affine_instance([[-1.0, 0.0], [0.0, 1.0]], [1.0, -1.0]))
        assert len(sols) == 2
        with pytest.raises(InputError):
            distance_to_solutions(sols, x)


class TestSolveConfig:
    def test_validation(self, hyperbola_pair):
        with pytest.raises(InputError):
            SolveConfig(newton_tol=-1.0)
        with pytest.raises(InputError):
            SolveConfig(starts_per_subsystem=0)
        # numpy's generators refuse negative seeds
        with pytest.raises(InputError, match="^rng_seed must be >= 0"):
            SolveConfig(rng_seed=-1)
        # the sweep, which dedupes, needs newton_tol below the dedupe radius
        with pytest.raises(InputError, match="^dedupe_radius must exceed newton_tol$"):
            enumerate_solutions(hyperbola_pair, SolveConfig(newton_tol=DEDUPE_RADIUS))

    @pytest.mark.parametrize("field", ["newton_tol", "start_box_radius"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_setting_named(self, field, value):
        # a NaN tolerance or an infinite radius would certify nothing and
        # still claim completeness
        with pytest.raises(InputError, match=f"^{field} must be finite and positive"):
            SolveConfig(**{field: value})


class TestDedupe:
    def test_at_most_one_point_is_kept_as_is(self):
        for points in (np.zeros((0, 3)), np.array([[1.0, -2.0, 3.0]])):
            kept = _dedupe_points(points, np.zeros(len(points)), radius=1e-6)
            assert np.array_equal(kept, points) and kept.shape == points.shape

    def test_keeps_smallest_residual(self):
        from pcpkit.enumeration import _dedupe_points

        points = np.array([[1.0, 1.0], [1.0 + 1e-8, 1.0], [5.0, 5.0]])
        residuals = np.array([1e-12, 1e-15, 1e-13])
        kept = _dedupe_points(points, residuals, radius=1e-6)
        assert len(kept) == 2
        assert any(np.array_equal(row, points[1]) for row in kept)

    def test_lexicographic_tie_break(self):
        from pcpkit.enumeration import _dedupe_points

        points = np.array([[2.0, 0.0], [1.0, 3.0], [1.0, 2.0]])
        residuals = np.zeros(3)
        kept = _dedupe_points(points, residuals, radius=1.5)
        # ties in residual resolve by coordinate order: (1, 2) survives
        # its cluster with (1, 3); (2, 0) is separated from both
        assert np.array_equal(kept[0], [1.0, 2.0])

    def test_greedy_not_transitive(self):
        from pcpkit.enumeration import _dedupe_points

        # 0.9 joins the cluster of 0; 1.8 is within the radius of 0.9 only,
        # so it starts its own cluster rather than chaining onto the first
        points = np.array([[0.0], [0.9], [1.8]])
        kept = _dedupe_points(points, np.zeros(3), radius=1.0)
        assert np.array_equal(kept, [[0.0], [1.8]])

    def test_large_cluster_counted(self):
        from pcpkit.enumeration import _dedupe_points

        rng = np.random.default_rng(0)
        cloud = rng.normal(scale=1e-9, size=(150, 2))
        kept = _dedupe_points(cloud, np.zeros(150), radius=1e-6)
        assert len(kept) == 1
