"""Complementary pivoting against the index-set enumeration oracle."""

import numpy as np
import pytest

from pcpkit import (
    InputError,
    PcpInstance,
    PivotBudgetError,
    PolyMap,
    Polynomial,
    SolveConfig,
    enumerate_solutions,
    lemke_lcp,
)
from pcpkit.lemke import _lexico_ratio_row


def affine_instance(M, q):
    """The complementarity instance with f = Id and g = Mx + q."""
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    n = len(q)
    components = []
    for i in range(n):
        terms = {}
        for j in range(n):
            if M[i, j] != 0.0:
                key = tuple(1 if k == j else 0 for k in range(n))
                terms[key] = M[i, j]
        if q[i] != 0.0:
            terms[(0,) * n] = q[i]
        components.append(Polynomial(n, terms))
    return PcpInstance(PolyMap.identity(n), PolyMap(tuple(components)))


def pd_lcp(n, seed):
    """(M, q) with M = A A^T / n + 0.1 I positive definite: one LCP solution."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.1 * np.eye(n), rng.standard_normal(n)


class TestLemke:
    def test_identity_matrix(self):
        # oracle: enumeration of the equivalent complementarity instance
        result = lemke_lcp(np.eye(2), [-1.0, -1.0])
        assert result.status == "solution"
        assert np.allclose(result.z, [1.0, 1.0], atol=1e-9)
        sols = enumerate_solutions(
            affine_instance(np.eye(2), [-1.0, -1.0]), SolveConfig(starts_per_subsystem=40)
        )
        assert len(sols) == 1
        assert np.allclose(sols.points[0], result.z, atol=1e-8)

    def test_trivial_when_q_nonnegative(self):
        result = lemke_lcp([[3.0, 1.0], [-2.0, 4.0]], [1.0, 2.0])
        assert result.status == "trivial"
        assert np.allclose(result.z, [0.0, 0.0])

    def test_ray_termination(self):
        # w = -z + q with q < 0 is infeasible for every z >= 0
        result = lemke_lcp(-np.eye(2), [-1.0, -1.0])
        assert result.status == "ray"
        assert result.z is None

    def test_solution_quality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            M = rng.standard_normal((n, n))
            q = rng.standard_normal(n)
            result = lemke_lcp(M, q)
            if not result.solved:
                continue
            z = result.z
            w = M @ z + q
            assert np.all(z >= -1e-9)
            assert np.all(w >= -1e-9)
            assert abs(z @ w) <= 1e-9 * max(1.0, np.linalg.norm(z) * np.linalg.norm(w))

    def test_agreement_with_enumeration(self):
        rng = np.random.default_rng(21)
        cfg = SolveConfig(starts_per_subsystem=40)
        solved = 0
        for _ in range(25):
            M = rng.standard_normal((3, 3))
            q = rng.standard_normal(3)
            result = lemke_lcp(M, q)
            if not result.solved:
                continue
            solved += 1
            sols = enumerate_solutions(affine_instance(M, q), cfg)
            assert len(sols) >= 1
            gaps = np.linalg.norm(sols.points - result.z[None, :], axis=1)
            assert np.min(gaps) <= 1e-6
        assert solved >= 5  # random LCPs are solvable often enough to test

    def test_input_validation(self):
        with pytest.raises(InputError):
            lemke_lcp(np.ones((2, 3)), [1.0, 2.0])
        with pytest.raises(InputError):
            lemke_lcp(np.eye(2), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("M, q", [
        ([["a"]], [1.0]),
        ([[1.0, 0.0], [1.0]], [-1.0, -1.0]),
        ([[1.0]], ["x"]),
        ([[np.inf]], [-1.0]),
        ([[1.0]], [np.nan]),
    ], ids=["non-numeric-M", "ragged-M", "non-numeric-q", "infinite-M", "nan-q"])
    def test_refuses_what_it_cannot_pivot_on(self, M, q):
        # an infinite M once reported z = w = 0 as a solution, although w = -1
        with pytest.raises(InputError, match="^M and q must "):
            lemke_lcp(M, q)

    def test_overflowing_pivot_is_refused_without_warning(self):
        # the pivot divides -1e300 by -1e-11; the suite turns RuntimeWarnings into errors
        with pytest.raises(PivotBudgetError, match="inconsistent basis"):
            lemke_lcp([[1e-11]], [-1e300])

    def test_p_matrix_always_solvable(self):
        # diagonally dominant positive matrices admit a solution for any q
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 4
            M = rng.standard_normal((n, n))
            M = M @ M.T + n * np.eye(n)
            q = rng.standard_normal(n) * 5
            result = lemke_lcp(M, q)
            assert result.solved


class TestLexicoRatioRow:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_tuple_minimum(self, n):
        # small integer tableaux tie often, in the ratio and in its tail
        rng = np.random.default_rng(n)
        for _ in range(300):
            tableau = rng.integers(0, 3, (n, 2 * n + 2)).astype(float)
            column = rng.integers(-1, 3, n).astype(float)
            eligible = column > 1e-12
            if not eligible.any():
                continue
            rows = np.flatnonzero(eligible)

            def ratio(i):
                return (tableau[i, -1] / column[i], *(tableau[i, :n] / column[i]))

            want = min(rows, key=ratio)
            assert _lexico_ratio_row(tableau, column, eligible, n) == want
