"""Natural map, index-set residuals, and the scalar min inequality."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpkit import (
    ComplexityGuardError,
    InputError,
    PcpInstance,
    PolyMap,
    Polynomial,
    enumerate_solutions,
    leading_min_map,
    min_phi,
    min_phi_values,
    natural_jacobian,
    natural_map,
    natural_residual_norm,
    p_function_probe,
    phi_residual,
    r_residual,
    random_instance,
    scalar_min_bound,
    verify_local_bound,
)
from pcpkit.residuals import MAX_SUBSET_DIMENSION, residual_norms

from conftest import scalar_instance


def exhaustive_min_phi(inst, x):
    """Independent oracle: literally walk all 2^n index sets."""
    fx = inst.f.evaluate(x)
    gx = inst.g.evaluate(x)
    n = inst.n
    best = np.inf
    best_set = None
    for mask in range(1 << n):
        total = 0.0
        for i in range(n):
            if mask & (1 << i):
                total += abs(fx[i]) + max(-gx[i], 0.0)
            else:
                total += max(-fx[i], 0.0) + abs(gx[i])
        subset = tuple(i for i in range(n) if mask & (1 << i))
        key = (total, len(subset), subset)
        if best_set is None or key < (best, len(best_set), best_set):
            best, best_set = total, subset
    return best, best_set


class TestNaturalMap:
    def test_equal_maps(self, hyperbola_pair):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=2)
            assert np.allclose(
                natural_map(hyperbola_pair, x), hyperbola_pair.f.evaluate(x)
            )

    def test_scalar_example(self, scalar_shift):
        assert natural_map(scalar_shift, [0.5]) == pytest.approx(-0.5)

    def test_hyperbola_sequence(self, hyperbola_pair):
        for k in (2.0, 5.0, 50.0):
            value = natural_map(hyperbola_pair, [k, 1.0 / k])
            assert np.allclose(value, [1.0 / k - 1.0, 0.0])

    def test_zero_iff_solution(self, affine_shift):
        m_sol = natural_map(affine_shift, [1.0, 1.0])
        assert np.all(m_sol == 0.0)
        fx = affine_shift.f.evaluate([1.0, 1.0])
        gx = affine_shift.g.evaluate([1.0, 1.0])
        assert np.all(fx >= 0) and np.all(gx >= 0) and fx @ gx == 0.0
        assert np.any(natural_map(affine_shift, [0.5, 0.5]) != 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_norm_batch_rows_equal_single_points(self, n):
        rng = np.random.default_rng(n)
        for seed in range(3):
            inst = random_instance(n, [2] * n, [2] * n, 30 * n + seed)
            points = rng.uniform(-2.0, 2.0, size=(500, n))
            norms = natural_residual_norm(inst, points)
            assert [natural_residual_norm(inst, p) for p in points] == norms.tolist()


def wide_range_rows(rng, shape):
    """Signed entries of magnitude 1e-300 to 1e300, with some inf, -inf and NaN."""
    rows = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)
    special = rng.random(shape) < 0.03
    rows[special] = rng.choice([np.inf, -np.inf, np.nan], special.sum())
    return rows


def in_order_norms(rows):
    """sqrt(((x_0^2 + x_1^2) + x_2^2) + ...), one component at a time."""
    squares = rows * rows
    total = squares[..., 0].copy()
    for k in range(1, rows.shape[-1]):
        total = total + squares[..., k]
    return np.sqrt(total)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestResidualNorms:
    """The one row-norm rule: squares added in index order over the last axis."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_numpy_norm_up_to_seven_components(self, n):
        rng = np.random.default_rng(n)
        for shape in ((500, n), (40, 31, n), (1, n), (n,)):
            rows = wide_range_rows(rng, shape)
            with np.errstate(over="ignore"):
                assert_same_bits(residual_norms(rows), np.linalg.norm(np.atleast_2d(rows), axis=-1))

    @pytest.mark.parametrize("n", range(1, MAX_SUBSET_DIMENSION + 1))
    def test_one_norm_per_row_in_any_layout(self, n):
        rng = np.random.default_rng(100 + n)
        # moderate magnitudes too: there the order of the additions shows in the last digits
        moderate = rng.standard_normal((60, n)) * 10.0 ** rng.uniform(-2.0, 2.0, (60, n))
        rows = np.vstack([wide_range_rows(rng, (60, n)), moderate])
        wide = np.zeros((240, 3 * n))
        wide[::2, ::3] = rows
        with np.errstate(over="ignore"):
            want = in_order_norms(rows)
            assert_same_bits(residual_norms(rows), want)
            assert_same_bits(residual_norms(np.asfortranarray(rows)), want)
            assert_same_bits(residual_norms(wide[::2, ::3]), want)
            assert_same_bits(residual_norms(rows[:, None, :]), want[:, None])
            assert_same_bits(residual_norms(rows.reshape(12, 10, n)), want.reshape(12, 10))
            for k, row in enumerate(rows):
                assert_same_bits(residual_norms(row), want[k : k + 1])
                assert_same_bits(residual_norms(rows[k : k + 1]), want[k : k + 1])
                assert_same_bits(residual_norms(rows[k : k + 1, None]), want[k : k + 1, None])

    def test_empty_batch(self):
        assert residual_norms(np.zeros((0, 3))).shape == (0,)


class TestNaturalJacobian:
    def test_active_branch_with_tie_to_f(self, swapped_linear):
        # f = Id, g = (x2 - 1, x1 - 1); at (1, 0): row 0 takes g, row 1 ties
        expected = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(natural_jacobian(swapped_linear, [1.0, 0.0]), expected)

    def test_batch_matches_single(self, swapped_linear):
        pts = np.array([[1.0, 0.0], [3.0, -2.0], [0.5, 0.5]])
        batch = natural_jacobian(swapped_linear, pts)
        for k, row in enumerate(pts):
            assert np.array_equal(batch[k], natural_jacobian(swapped_linear, row))


class TestPhi:
    def test_scalar_examples(self, scalar_shift):
        assert phi_residual(scalar_shift, (), [0.5]) == pytest.approx(0.5)
        assert phi_residual(scalar_shift, (0,), [0.5]) == pytest.approx(1.0)

    def test_zero_at_solution_with_active_set(self, affine_shift):
        # at (1, 1): f = (1, 1) > 0 and g = 0, so the empty set fits
        assert phi_residual(affine_shift, (), [1.0, 1.0]) == 0.0

    def test_index_out_of_range(self, affine_shift):
        with pytest.raises(InputError):
            phi_residual(affine_shift, (5,), [0.0, 0.0])

    def test_batch_refused(self):
        # Phi_I is one point's residual: a batch is refused, as min_phi refuses it,
        # rather than summed over its rows into one number
        inst = random_instance(2, (2, 2), (2, 2), 1)
        batch = np.array([[0.5, -1.0], [1.0, 2.0], [-3.0, 0.25]])
        with pytest.raises(InputError, match=r"x has shape \(3, 2\), expected \(2,\)"):
            phi_residual(inst, (0,), batch)
        assert all(phi_residual(inst, (0,), row) >= 0.0 for row in batch)

    def test_min_phi_scalar(self, scalar_shift):
        value, argmin = min_phi(scalar_shift, [0.5])
        assert value == pytest.approx(0.5)
        assert argmin == ()

    def test_min_phi_at_solution(self, affine_shift):
        value, argmin = min_phi(affine_shift, [1.0, 1.0])
        assert value == 0.0
        assert argmin == ()

    def test_min_phi_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            n = int(rng.integers(1, 4))
            inst = random_instance(n, [2] * n, [2] * n, seed)
            for _ in range(50):
                x = rng.uniform(-3, 3, size=n)
                value, argmin = min_phi(inst, x)
                oracle_value, oracle_set = exhaustive_min_phi(inst, x)
                assert value == pytest.approx(oracle_value, rel=1e-12, abs=1e-12)
                assert argmin == oracle_set

    def test_min_phi_guard(self):
        inst = PcpInstance(PolyMap.identity(25), PolyMap.identity(25))
        with pytest.raises(ComplexityGuardError):
            min_phi(inst, np.zeros(25))

    def test_sandwich_on_random_samples(self):
        # ||m|| <= min_phi <= 2 sqrt(n) ||m||, checked against the
        # exhaustive oracle values on 10^4 points
        rng = np.random.default_rng(123)
        inst = random_instance(3, [2, 1, 2], [1, 2, 2], 99)
        pts = rng.uniform(-4, 4, size=(10_000, 3))
        values = min_phi_values(inst, pts)
        m_norms = np.linalg.norm(natural_map(inst, pts), axis=1)
        assert np.all(m_norms <= values + 1e-12)
        assert np.all(values <= 2.0 * np.sqrt(3) * m_norms + 1e-12)
        # oracle agreement on a slice
        for x in pts[:100]:
            oracle_value, _ = exhaustive_min_phi(inst, x)
            value, _ = min_phi(inst, x)
            assert value == pytest.approx(oracle_value, rel=1e-12, abs=1e-12)


class TestRResidual:
    def test_solution_point(self, hyperbola_pair):
        assert r_residual(hyperbola_pair, [1.0, 1.0]) == 0.0

    def test_scalar_example(self, scalar_shift):
        # 0 + 0.5 + sqrt(0.25) = 1.0
        assert r_residual(scalar_shift, [0.5]) == pytest.approx(1.0)

    def test_dominates_natural_norm(self):
        rng = np.random.default_rng(5)
        inst = random_instance(2, [2, 2], [2, 2], 31)
        pts = rng.uniform(-5, 5, size=(10_000, 2))
        r = r_residual(inst, pts)
        m = np.linalg.norm(natural_map(inst, pts), axis=1)
        assert np.all(r >= m)


class TestScalarMinBound:
    def test_examples(self):
        assert scalar_min_bound(1.0, -2.0) == (2.0, 4.0)
        assert scalar_min_bound(0.0, 0.0) == (0.0, 0.0)

    def test_exhaustive_grid(self):
        grid = np.round(np.arange(-5.0, 5.0 + 0.05, 0.1), 10)
        violations = 0
        for a in grid:
            for b in grid:
                lhs, rhs = scalar_min_bound(a, b)
                violations += lhs > rhs
        assert violations == 0

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    @settings(max_examples=500)
    def test_property(self, a, b):
        lhs, rhs = scalar_min_bound(a, b)
        assert lhs <= rhs


class TestLeadingMinMap:
    def test_affine(self, affine_shift):
        # both leading terms are Id, so the leading min map is x
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=2)
            assert np.allclose(leading_min_map(affine_shift, x), x)

    def test_hyperbola(self, hyperbola_pair):
        # leading pair is (0, xy) twice
        assert np.allclose(leading_min_map(hyperbola_pair, [2.0, 3.0]), [0.0, 6.0])

    def test_homogeneous_fixed_point(self, identity_pair):
        x = np.array([0.5, -1.5])
        assert np.allclose(
            leading_min_map(identity_pair, x), natural_map(identity_pair, x)
        )


class TestLeadingPairTable:
    """``leading_pair_table`` equals ``leading_pair.pair_table`` bit for bit."""

    # degrees of f and of g at dimension n; "mixed" has components below their map's degree
    DEGREES = {
        "equal": lambda n: ((2,) * n, (2,) * n),
        "unequal": lambda n: ((1,) * n, (3,) * n),
        "mixed": lambda n: (tuple(1 + i % 3 for i in range(n)), tuple(3 - i % 2 for i in range(n))),
    }

    @staticmethod
    def assert_same_tables(inst, seed):
        batch = np.random.default_rng(seed).uniform(-2, 2, size=(9, inst.n))
        batch[1] = 0.0
        for x in (batch[0], batch, np.asfortranarray(batch)):
            for jacobians in (False, True):
                got = inst.leading_pair_table(x, jacobians)
                want = inst.leading_pair.pair_table(x, jacobians)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", DEGREES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_random_instances(self, n, case):
        for seed in range(3):
            self.assert_same_tables(random_instance(n, *self.DEGREES[case](n), seed), seed)

    def test_zero_component(self):
        inst = random_instance(3, (2, 1, 2), (1, 3, 1), 5)
        f = PolyMap((inst.f.components[0], Polynomial.zero(3), inst.f.components[2]))
        self.assert_same_tables(PcpInstance(f, inst.g), 5)


class TestInstanceValidation:
    def test_arity_mismatch(self):
        with pytest.raises(InputError):
            PcpInstance(PolyMap.identity(2), PolyMap.identity(3))

    def test_constant_map_rejected(self):
        const = PolyMap((Polynomial.constant(1, 1.0),))
        with pytest.raises(InputError):
            PcpInstance(const, PolyMap.identity(1))

    def test_cached_degrees(self, hyperbola_pair):
        assert hyperbola_pair.n == 2
        assert hyperbola_pair.degree_f == 2
        assert hyperbola_pair.degree_g == 2
        assert hyperbola_pair.degree == 2

    def test_scalar_instance_helper(self):
        inst = scalar_instance({(1,): 1.0}, {(2,): 1.0, (0,): -1.0})
        assert inst.n == 1 and inst.degree == 2


@pytest.mark.parametrize(
    "check",
    [
        lambda inst, region: verify_local_bound(inst, enumerate_solutions(inst), region, 10, 1.0),
        lambda inst, region: p_function_probe(inst, region),
    ],
    ids=["verify_local_bound", "p_function_probe"],
)
def test_one_region_rule(identity_pair, check):
    # both callers refuse a box that is not (n, 2) or has an empty side
    for region in ([[-1.0, 0.0, 1.0]] * 2, [[0.5, 0.5], [-1.0, 1.0]]):
        with pytest.raises(InputError):
            check(identity_pair, region)


def test_one_residual_norm_rule(tmp_path, capsys):
    # certify_solution and `pcpkit residual` report natural_residual_norm bit
    # for bit: a point's norm is the norm of its one-row batch
    from pcpkit import CertificationError, certify_solution, serialize_instance
    from pcpkit.cli import run_command

    checked = 0
    for n, seed in ((2, 0), (2, 1), (3, 2), (3, 3)):
        inst = random_instance(n, [2] * n, [2] * n, seed)
        path = tmp_path / f"inst{seed}.json"
        path.write_text(serialize_instance(inst))
        for x in np.random.default_rng(seed).uniform(-2.0, 2.0, (60, n)):
            want = natural_residual_norm(inst, x)
            try:
                got = certify_solution(inst, x).residual_norm
            except CertificationError as rejection:
                got = rejection.residual_norm
            assert got == want
            point = ",".join(repr(float(v)) for v in x)
            assert run_command(["residual", str(path), f"--point={point}"]) == 0
            payload = json.loads(capsys.readouterr().out)["payload"]
            assert payload["natural_residual_norm"] == want
            checked += 1
    assert checked == 240
