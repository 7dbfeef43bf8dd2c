"""Polynomial representation, evaluation, differentiation, leading parts."""

import numpy as np
import pytest

from pcpkit import DegenerateInputError, InputError, PolyMap, Polynomial
from pcpkit.polynomials import CompiledTerms, as_point


def finite_difference_jacobian(poly_map, x, step=1e-5):
    """Central differences, the independent oracle for exact Jacobians."""
    n = poly_map.arity
    jac = np.empty((n, n))
    for j in range(n):
        forward = np.array(x, dtype=float)
        backward = np.array(x, dtype=float)
        forward[j] += step
        backward[j] -= step
        jac[:, j] = (poly_map.evaluate(forward) - poly_map.evaluate(backward)) / (2 * step)
    return jac


def random_map(n, degree, rng):
    from pcpkit import random_instance

    return random_instance(n, [degree] * n, [degree] * n, rng).f


class TestPolynomial:
    def test_zero_polynomial(self):
        z = Polynomial.zero(3)
        assert z.is_zero
        assert z.degree == 0
        assert z.evaluate([1.0, 2.0, 3.0]) == 0.0

    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 1.0, (0, 1): 0.0})
        assert (0, 1) not in p.terms
        assert p.degree == 1

    def test_subnormal_coefficient_rejected(self):
        with pytest.raises(InputError):
            Polynomial(1, {(1,): 1e-310})

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InputError):
            Polynomial(2, {(1, 0, 0): 1.0})

    def test_negative_exponent_rejected(self):
        with pytest.raises(InputError):
            Polynomial(2, {(-1, 0): 1.0})

    def test_graded_lex_term_order(self):
        p = Polynomial(2, {(2, 0): 1.0, (0, 0): 3.0, (0, 1): 2.0, (1, 1): 4.0})
        assert list(p.terms) == [(0, 0), (0, 1), (1, 1), (2, 0)]

    def test_partial_derivative(self):
        # d/dx (x^2 y + 3x) = 2xy + 3
        p = Polynomial(2, {(2, 1): 1.0, (1, 0): 3.0})
        dp = p.partial(0)
        assert dp.terms == {(1, 1): 2.0, (0, 0): 3.0}

    def test_evaluate_batch_matches_single(self):
        p = Polynomial(2, {(2, 1): 1.5, (0, 0): -2.0})
        pts = np.array([[1.0, 2.0], [-1.0, 3.0], [0.0, 0.0]])
        batch = p.evaluate(pts)
        singles = [p.evaluate(row) for row in pts]
        assert np.array_equal(batch, singles)

    def test_negative_base_integer_power(self):
        p = Polynomial(1, {(3,): 1.0})
        assert p.evaluate([-2.0]) == -8.0


class TestPolyMapEvaluation:
    def test_evaluate_examples(self):
        # f = (y - 1, xy - 1) at (1, 1) and f = (x, xy - 1) at (2, 3)
        y1 = Polynomial(2, {(0, 1): 1.0, (0, 0): -1.0})
        xy1 = Polynomial(2, {(1, 1): 1.0, (0, 0): -1.0})
        f = PolyMap((y1, xy1))
        assert np.allclose(f.evaluate([1.0, 1.0]), [0.0, 0.0])
        g = PolyMap((Polynomial(2, {(1, 0): 1.0}), xy1))
        assert np.allclose(g.evaluate([2.0, 3.0]), [2.0, 5.0])

    def test_zero_map_evaluates_to_zero(self):
        z = PolyMap((Polynomial.zero(2), Polynomial.zero(2)))
        assert np.allclose(z.evaluate([3.0, -4.0]), [0.0, 0.0])

    def test_dimension_mismatch(self):
        f = PolyMap.identity(2)
        with pytest.raises(InputError):
            f.evaluate([1.0, 2.0, 3.0])

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            PolyMap((Polynomial.variable(2, 0),))


class TestJacobian:
    def test_hand_example(self):
        # f = (x, xy - 1) at (2, 3) -> [[1, 0], [3, 2]]
        f = PolyMap(
            (
                Polynomial(2, {(1, 0): 1.0}),
                Polynomial(2, {(1, 1): 1.0, (0, 0): -1.0}),
            )
        )
        assert np.allclose(f.jacobian([2.0, 3.0]), [[1.0, 0.0], [3.0, 2.0]])

    def test_identity_map(self):
        f = PolyMap.identity(3)
        assert np.allclose(f.jacobian([0.3, -2.0, 5.0]), np.eye(3))

    def test_against_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            degree = int(rng.integers(1, 4))
            f = random_map(n, degree, rng.integers(0, 2**31))
            for _ in range(5):
                x = rng.uniform(-2.0, 2.0, size=n)
                exact = f.jacobian(x)
                approx = finite_difference_jacobian(f, x)
                scale = max(1.0, np.linalg.norm(exact))
                assert np.linalg.norm(exact - approx) / scale <= 1e-6

    def test_batch_jacobian(self):
        rng = np.random.default_rng(3)
        f = random_map(2, 3, 17)
        pts = rng.uniform(-1, 1, size=(6, 2))
        batch = f.jacobian(pts)
        for k, row in enumerate(pts):
            assert np.allclose(batch[k], f.jacobian(row))


def per_component_reference(poly_map, x):
    """Values and Jacobian from Polynomial.evaluate of each component and partial."""
    values = np.stack([c.evaluate(x) for c in poly_map.components], axis=-1)
    rows = [np.stack([c.partial(i).evaluate(x) for i in range(c.arity)], axis=-1)
            for c in poly_map.components]
    return values, np.stack(rows, axis=-2)


def reference_compile(components):
    """CompiledTerms' blocks and exponents, with each partial a Polynomial.partial."""
    rows = {}

    def block(polys):
        depth = max(1, *(len(p.terms) for p in polys))
        index = np.full((depth, len(polys)), -1, dtype=np.intp)
        coefficients = np.ones((depth, len(polys)))
        for k, p in enumerate(polys):
            index[: len(p.terms), k] = [rows.setdefault(key, len(rows)) for key in p.terms]
            coefficients[: len(p.terms), k] = list(p.terms.values())
        return index, coefficients[..., None]

    n = components[0].arity
    values = block(components)
    jacobian = block([c.partial(i) for c in components for i in range(n)])
    exponents = np.array(list(rows), dtype=np.intp).reshape(len(rows), n).T
    return values, jacobian, exponents


def assert_compiles_as_reference(components):
    compiled = CompiledTerms(components)
    values, jacobian, exponents = reference_compile(components)
    for got, want in zip((*compiled.values, *compiled.jacobian), (*values, *jacobian)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(compiled.exponents, exponents)


def assert_bit_identical(poly_map, x):
    values, jacobian = per_component_reference(poly_map, x)
    assert np.array_equal(poly_map.evaluate(x), values)
    assert np.array_equal(poly_map.jacobian(x), jacobian)


class TestCompiledEvaluation:
    """PolyMap's shared monomial table reproduces Polynomial.evaluate exactly."""

    def test_random_dense_maps(self):
        from pcpkit import random_instance

        rng = np.random.default_rng(7)
        for n in range(2, 6):
            for degree in range(1, 5):
                inst = random_instance(n, [degree] * n, [degree] * n, int(rng.integers(2**31)))
                lead = inst.componentwise_leading_pair
                for poly_map in (inst.f, inst.g, lead.f, lead.g):
                    batch = rng.uniform(-3.0, 3.0, size=(9, n))
                    assert_bit_identical(poly_map, batch)
                    assert_bit_identical(poly_map, np.asfortranarray(batch))
                    assert_bit_identical(poly_map, batch[0])

    def test_identity_and_zero_component(self):
        rng = np.random.default_rng(8)
        mixed = PolyMap(
            (
                Polynomial(3, {(2, 1, 0): 1.5, (0, 0, 1): -2.0}),
                Polynomial.zero(3),
                Polynomial(3, {(0, 0, 3): 0.5, (1, 0, 0): 4.0, (0, 0, 0): 1.0}),
            )
        )
        for poly_map in (PolyMap.identity(3), mixed):
            assert_bit_identical(poly_map, rng.uniform(-2.0, 2.0, size=(5, 3)))
            assert_bit_identical(poly_map, rng.uniform(-2.0, 2.0, size=3))

    def test_overflowing_term_stays_in_its_component(self):
        # x^3 overflows at x = 1e200; y + 3 and its partials must stay exact,
        # which a zero-padded coefficient matrix (0 * inf = nan) would break
        f = PolyMap(
            (
                Polynomial(2, {(3, 0): 1.0, (0, 0): 1.0}),
                Polynomial(2, {(0, 1): 1.0, (0, 0): 3.0}),
            )
        )
        x = np.array([1e200, 1.0])
        with np.errstate(over="ignore"):
            values = f.evaluate(x)
            jacobian = f.jacobian(x)
            assert_bit_identical(f, x)
        assert values[0] == np.inf and values[1] == 4.0
        assert jacobian[0, 0] == np.inf
        assert np.array_equal(jacobian[1], [0.0, 1.0])

    def test_pair_matches_per_component(self):
        from pcpkit import random_instance

        rng = np.random.default_rng(9)
        for n, degrees_f, degrees_g in ((2, 3, 2), (3, 1, 4), (4, 2, 3)):
            inst = random_instance(
                n, [degrees_f] * n, [degrees_g] * n, int(rng.integers(2**31))
            )
            for rows in (1, 3, 16, 81):
                batch = rng.uniform(-3.0, 3.0, size=(rows, n))
                for x in (batch, np.asfortranarray(batch), batch[0]):
                    f_values, f_jacobian = per_component_reference(inst.f, x)
                    g_values, g_jacobian = per_component_reference(inst.g, x)
                    fx, gx = inst.evaluate_pair(x)
                    assert np.array_equal(fx, f_values) and np.array_equal(gx, g_values)
                    pair = inst.evaluate_pair(x, jacobians=True)
                    for got, want in zip(pair, (f_values, g_values, f_jacobian, g_jacobian)):
                        assert got.shape == want.shape and np.array_equal(got, want)

    def test_rows_independent_of_batch(self):
        from pcpkit import random_instance

        rng = np.random.default_rng(12)
        for n in range(1, 6):
            for degree in range(1, 5):
                degrees_g = [max(degree - 1, 1)] * n
                inst = random_instance(n, [degree] * n, degrees_g, 40 * n + degree)
                batch = rng.standard_normal((37, n)) * 3.0
                order = rng.permutation(len(batch))
                whole = inst.evaluate_pair(batch, jacobians=True)
                shuffled = inst.evaluate_pair(batch[order], jacobians=True)
                for got, again in zip(whole, shuffled):
                    assert np.array_equal(got[order], again)
                for k, row in enumerate(batch):
                    for got, single in zip(whole, inst.evaluate_pair(row, jacobians=True)):
                        assert np.array_equal(got[k], single)

    def test_dense_scalar_maps(self):
        # n = 1: every power comes from one variable's ladder; at a single
        # point and 8 or more terms, np.add.reduce would sum pairwise
        from pcpkit import random_instance

        rng = np.random.default_rng(10)
        for degree in range(1, 10):
            inst = random_instance(1, [degree], [degree], 10 + degree)
            batch = rng.uniform(-3.0, 3.0, size=(200, 1))
            assert_bit_identical(inst.f, batch)
            assert_bit_identical(inst.f, batch[0])

    def test_ladder_edge_values(self):
        # the ladder's rungs 0 and 1 are 1.0 and x themselves: they must match
        # the reference's products at NaN, inf and 0, and so must x^5
        poly_map = PolyMap(
            (
                Polynomial(3, {(1, 0, 0): 1.5, (0, 1, 1): 2.0, (0, 0, 0): -0.5}),
                Polynomial(3, {(5, 0, 0): 1.0, (0, 2, 1): -3.0, (0, 0, 1): 1.0}),
                Polynomial(3, {(1, 1, 1): 1.0, (0, 3, 0): 4.0, (2, 0, 0): 0.25}),
            )
        )
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.7, -2.3]
        x = np.array(
            [[a, b, c] for a in specials for b in specials for c in specials[::2]]
        )
        with np.errstate(all="ignore"):
            for batch in (x, np.asfortranarray(x), x[5]):
                values, jacobian = per_component_reference(poly_map, batch)
                assert np.array_equal(poly_map.evaluate(batch), values, equal_nan=True)
                assert np.array_equal(poly_map.jacobian(batch), jacobian, equal_nan=True)

    def test_compiled_partials_match_reference(self):
        from pcpkit import random_instance

        rng = np.random.default_rng(13)
        for n in range(1, 5):
            for degree in range(1, 5):
                degrees = [int(d) for d in rng.integers(1, degree + 1, size=n)]
                inst = random_instance(n, [degree] * n, degrees, int(rng.integers(2**31)))
                lead = inst.componentwise_leading_pair
                for poly_map in (inst.f, inst.g, lead.f, lead.g):
                    assert_compiles_as_reference(poly_map.components)

    def test_compiled_partials_of_constant_and_overflowing_terms(self):
        # a constant component has only empty partials; 1.5e308 * 2 overflows
        # to inf in the partial in x, as in Polynomial.partial
        components = (
            Polynomial.constant(2, 3.0),
            Polynomial(2, {(2, 0): 1.5e308, (0, 1): -1.0, (0, 0): 2.0}),
        )
        assert_compiles_as_reference(components)
        assert_compiles_as_reference(components[:1] + (Polynomial.constant(2, -1.0),))
        assert CompiledTerms(components).jacobian[1][0, 2, 0] == np.inf

    def test_single_term_scalar_maps_close(self):
        # n = 1 with one term
        f = PolyMap((Polynomial(1, {(3,): 1.7}),))
        assert_bit_identical(f, np.linspace(-2.0, 2.0, 33)[:, None])


class TestLeadingTerms:
    def test_map_level_leading(self):
        y1 = Polynomial(2, {(0, 1): 1.0, (0, 0): -1.0})
        xy1 = Polynomial(2, {(1, 1): 1.0, (0, 0): -1.0})
        lead = PolyMap((y1, xy1)).leading_term_map()
        assert lead.components[0].is_zero
        assert lead.components[1].terms == {(1, 1): 1.0}

    def test_identity_already_homogeneous(self):
        f = PolyMap.identity(2)
        assert f.leading_term_map() == f

    def test_component_mix(self):
        # (x^2 + x, y^2 - 1) -> (x^2, y^2)
        f = PolyMap(
            (
                Polynomial(2, {(2, 0): 1.0, (1, 0): 1.0}),
                Polynomial(2, {(0, 2): 1.0, (0, 0): -1.0}),
            )
        )
        lead = f.leading_term_map()
        assert lead.components[0].terms == {(2, 0): 1.0}
        assert lead.components[1].terms == {(0, 2): 1.0}

    def test_zero_map_refused(self):
        z = PolyMap((Polynomial.zero(2), Polynomial.zero(2)))
        with pytest.raises(DegenerateInputError):
            z.leading_term_map()

    def test_componentwise_leading(self):
        y1 = Polynomial(2, {(0, 1): 1.0, (0, 0): -1.0})
        xy1 = Polynomial(2, {(1, 1): 1.0, (0, 0): -1.0})
        lead = PolyMap((y1, xy1)).leading_terms_componentwise()
        assert lead.components[0].terms == {(0, 1): 1.0}
        assert lead.components[1].terms == {(1, 1): 1.0}

    def test_componentwise_homogeneous_fixed_point(self):
        f = PolyMap.identity(3)
        assert f.leading_terms_componentwise() == f

    def test_componentwise_can_vanish(self):
        # the constant component has no degree-1 part; map degree must stay
        # >= 1, so pair it with a live second component
        f = PolyMap(
            (
                Polynomial.constant(2, 1.0),
                Polynomial(2, {(0, 3): 1.0, (1, 0): 2.0}),
            )
        )
        lead = f.leading_terms_componentwise()
        assert lead.components[0].is_zero
        assert lead.components[1].terms == {(0, 3): 1.0}

    def test_homogeneity_identity(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            f = random_map(2, int(rng.integers(1, 5)), seed)
            lead = f.leading_term_map()
            d = f.degree
            for _ in range(10):
                x = rng.uniform(-2, 2, size=2)
                t = float(rng.uniform(0.2, 3.0))
                left = lead.evaluate(t * x)
                right = (t**d) * lead.evaluate(x)
                scale = max(1.0, np.linalg.norm(right))
                assert np.linalg.norm(left - right) / scale <= 1e-9


class TestArithmetic:
    def test_add_and_subtract(self):
        p = Polynomial(1, {(2,): 1.0, (0,): 1.0})
        q = Polynomial(1, {(2,): -1.0, (1,): 2.0})
        s = p + q
        assert s.terms == {(1,): 2.0, (0,): 1.0}
        assert (s - q).terms == p.terms

    def test_map_plus_constant(self):
        f = PolyMap.identity(2).plus_constant([1.0, -2.0])
        assert np.allclose(f.evaluate([0.0, 0.0]), [1.0, -2.0])
        assert np.allclose(f.evaluate([3.0, 4.0]), [4.0, 2.0])

    def test_map_plus_constant_wrong_shape(self):
        with pytest.raises(InputError, match=r"shift has shape \(3,\), expected \(2,\)"):
            PolyMap.identity(2).plus_constant([1.0, 2.0, 3.0])


class TestAsPoint:
    def test_point_as_float(self):
        point = as_point([1, 2], 2, "x")
        assert point.dtype == float
        assert np.array_equal(point, [1.0, 2.0])

    @pytest.mark.parametrize("x, shape", [([1.0], "(1,)"), ([[1.0, 2.0]], "(1, 2)"), (1.0, "()")])
    def test_wrong_shape_named(self, x, shape):
        with pytest.raises(InputError) as info:
            as_point(x, 2, "x_ref")
        assert str(info.value) == f"x_ref has shape {shape}, expected (2,)"
