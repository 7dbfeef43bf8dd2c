"""Complementarity residuals built on the natural (componentwise-min) map.

For an instance with maps f, g the natural residual is

    m(x) = min{f(x), g(x)}            (componentwise),

whose zero set is exactly the solution set of the complementarity
problem f(x) >= 0, g(x) >= 0, <f(x), g(x)> = 0.  This module also
provides the per-index-set residual Phi_I, its exact minimum over all
index sets, the square-root residual r, and the elementary scalar
inequality min{|a| + [-b]_+, [-a]_+ + |b|} <= 2|min{a, b}| that links
them.  [-a]_+ is computed exactly as max(-a, 0); nothing is smoothed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .exceptions import ComplexityGuardError, InputError
from .polynomials import CompiledTerms, PolyMap, as_point

# Cap for anything that walks all 2^n index subsets.
MAX_SUBSET_DIMENSION = 24


def check_subset_dimension(n: int, walk: str) -> None:
    """Refuse ``walk`` over all 2^n index subsets when n is above the cap."""
    if n > MAX_SUBSET_DIMENSION:
        raise ComplexityGuardError(
            f"{walk} over 2^{n} index subsets refused (cap {MAX_SUBSET_DIMENSION})"
        )


def check_positive(name: str, value: float) -> None:
    """Refuse ``value`` unless it is finite and positive; a NaN fails both comparisons."""
    if not 0 < value < np.inf:
        raise InputError(f"{name} must be finite and positive, got {value}")


def unit_sphere(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` seeded directions on the unit sphere in R^n, one per row."""
    points = rng.standard_normal((count, n))
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    tiny = norms[:, 0] < 1e-12
    if np.any(tiny):
        points[tiny] = np.eye(n)[0]
        norms[tiny] = 1.0
    return points / norms


def as_region(region, n: int) -> np.ndarray:
    """``region`` as an (n, 2) box of [low, high] rows with low < high."""
    box = np.asarray(region, dtype=float)
    if box.shape != (n, 2):
        raise InputError(f"region must have shape ({n}, 2), got {box.shape}")
    if np.any(box[:, 1] <= box[:, 0]):
        raise InputError("region bounds must satisfy low < high")
    return box


def sample_box(rng: np.random.Generator, region: np.ndarray, count: int) -> np.ndarray:
    """``count`` seeded uniform points of the (n, 2) box ``region``, one per row."""
    low = region[:, 0]
    span = region[:, 1] - region[:, 0]
    return low + span * rng.random((count, region.shape[0]))


def negative_part(a):
    """[-a]_+ = max(-a, 0), elementwise and exact."""
    return np.maximum(-np.asarray(a, dtype=float), 0.0)


@dataclass(frozen=True)
class PcpInstance:
    """Problem data for a complementarity problem over a pair of maps.

    Both maps must share the arity n and have positive degree.  Degrees
    are cached on construction.
    """

    f: PolyMap
    g: PolyMap

    def __post_init__(self):
        if self.f.arity != self.g.arity:
            raise InputError(
                f"f has arity {self.f.arity} but g has arity {self.g.arity}"
            )
        if self.f.degree < 1:
            raise InputError("f must have degree >= 1")
        if self.g.degree < 1:
            raise InputError("g must have degree >= 1")

    @property
    def n(self) -> int:
        return self.f.arity

    @property
    def degree_f(self) -> int:
        return self.f.degree

    @property
    def degree_g(self) -> int:
        return self.g.degree

    @property
    def degree(self) -> int:
        return max(self.degree_f, self.degree_g)

    @cached_property
    def _pair_terms(self) -> CompiledTerms:
        return CompiledTerms(self.f.components + self.g.components)

    def pair_table(self, x, jacobians: bool = False) -> np.ndarray:
        """f(x) and g(x), plus Jf(x) and Jg(x) with ``jacobians``, packed; batch aware.

        One row of :func:`split_pair`'s layout per point, from one monomial table.
        """
        terms = self._pair_terms
        return terms.evaluate(x, *((terms.values, terms.jacobian) if jacobians else (terms.values,)))

    def evaluate_pair(self, x, jacobians: bool = False) -> tuple[np.ndarray, ...]:
        """(f(x), g(x)), plus (Jf(x), Jg(x)) with ``jacobians``; batch aware.

        Views of :meth:`pair_table`, equal bit for bit to ``f.evaluate``,
        ``g.evaluate``, ``f.jacobian`` and ``g.jacobian``.
        """
        return split_pair(self.pair_table(x, jacobians), self.n)

    @cached_property
    def _leading_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``_pair_terms``' values and Jacobian blocks cut to the leading pair's terms.

        As in ``PolyMap.leading_term_map``, each map keeps the terms of its
        own degree d and a Jacobian entry the partial terms of degree d - 1;
        every other term points at the padding row (index -1, coefficient 1.0).
        """
        terms, n = self._pair_terms, self.n
        # a monomial row's degree; the padding row, index -1, gets -1
        degrees = np.append(terms.exponents.sum(axis=0), -1)
        top = np.repeat([self.degree_f, self.degree_g], n)

        def cut(block: tuple[np.ndarray, np.ndarray], degree: np.ndarray) -> tuple:
            rows, coefficients = block
            keep = degrees[rows] == degree
            return np.where(keep, rows, -1), np.where(keep[..., None], coefficients, 1.0)

        return cut(terms.values, top), cut(terms.jacobian, np.repeat(top - 1, n))

    def leading_pair_table(self, x, jacobians: bool = False) -> np.ndarray:
        """``leading_pair.pair_table(x, jacobians)`` bit for bit, from this instance's compile.

        The cut-off terms add the padding row's -0.0, which changes no sum,
        so neither ``leading_pair`` nor its compile is built.
        """
        return self._pair_terms.evaluate(x, *self._leading_blocks[: 1 + jacobians])

    @cached_property
    def leading_pair(self) -> "PcpInstance":
        """Instance formed by the map-level leading terms of f and g."""
        return PcpInstance(self.f.leading_term_map(), self.g.leading_term_map())

    @cached_property
    def componentwise_leading_pair(self) -> "PcpInstance":
        """Instance of per-component top-degree parts (realized degrees)."""
        return PcpInstance(
            self.f.leading_terms_componentwise(), self.g.leading_terms_componentwise()
        )


def split_pair(table: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Views (f, g), plus (Jf, Jg) if it holds them, of a packed pair table.

    The table's last axis holds f_1..f_n, g_1..g_n and then, with
    Jacobians, the rows of Jf and of Jg: 2n or 2n + 2n^2 entries, the
    layout of ``CompiledTerms.evaluate`` on the pair's components.
    """
    parts = (table[..., :n], table[..., n : 2 * n])
    if table.shape[-1] > 2 * n:
        jac = table[..., 2 * n :].reshape(table.shape[:-1] + (2, n, n))
        parts += (jac[..., 0, :, :], jac[..., 1, :, :])
    return parts


def pack_pair(*parts: np.ndarray) -> np.ndarray:
    """The packed pair table of (f, g) or (f, g, Jf, Jg); Jacobians may broadcast."""
    fx = parts[0]
    n = fx.shape[-1]
    table = np.empty(fx.shape[:-1] + (2 * n + 2 * n * n * (len(parts) > 2),))
    for view, part in zip(split_pair(table, n), parts):
        view[...] = part
    return table


def natural_map(inst: PcpInstance, x) -> np.ndarray:
    """m(x) = min{f(x), g(x)} componentwise; batch aware."""
    return np.minimum(*inst.evaluate_pair(x))


def active_branch(fx, gx, jac_f, jac_g) -> tuple[np.ndarray, np.ndarray]:
    """min{f, g} and its active-branch generalized Jacobian; batch aware.

    Row i of the Jacobian is the gradient of f_i where f_i <= g_i (ties
    go to f) and of g_i elsewhere.
    """
    return np.minimum(fx, gx), np.where((fx <= gx)[..., None], jac_f, jac_g)


def natural_jacobian(inst: PcpInstance, x) -> np.ndarray:
    """Active-branch generalized Jacobian of m (see :func:`active_branch`)."""
    return active_branch(*inst.evaluate_pair(x, jacobians=True))[1]


def residual_norms(m) -> np.ndarray:
    """Euclidean norms over the last axis of ``m``; a point is one row, shape (1,).

    Squares are added in index order, in any batch and memory layout; up to
    7 components this is ``np.linalg.norm(m, axis=-1)`` bit for bit.  A lone
    row is accumulated, as ``add.reduce`` would sum it pairwise.
    """
    squares = np.square(np.atleast_2d(m).T, order="C")  # one component-major copy
    lone = squares.size == len(squares)
    return np.sqrt(np.add.accumulate(squares)[-1] if lone else np.add.reduce(squares)).T


def sign_feasible(fx, gx, tol: float):
    """f >= -tol and g >= -tol in every component; one flag per row of a batch."""
    return np.all(fx >= -tol, axis=-1) & np.all(gx >= -tol, axis=-1)


def natural_residual_norm(inst: PcpInstance, x) -> float | np.ndarray:
    """Euclidean norm of the natural residual; scalar or (m,) for a batch."""
    m = natural_map(inst, x)
    norms = residual_norms(m)
    return float(norms[0]) if m.ndim == 1 else norms


def check_indices(indices: Iterable[int], n: int) -> frozenset[int]:
    idx = frozenset(int(i) for i in indices)
    for i in idx:
        if not 0 <= i < n:
            raise InputError(f"index {i} out of range for dimension {n}")
    return idx


def _phi_costs(fx: np.ndarray, gx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-index costs: in-set cost |f_i| + [-g_i]_+, out cost [-f_i]_+ + |g_i|."""
    inside = np.abs(fx) + negative_part(gx)
    outside = negative_part(fx) + np.abs(gx)
    return inside, outside


def phi_residual(inst: PcpInstance, indices: Iterable[int], x) -> float:
    """Index-set residual Phi_I(x) at one point x for a 0-based index set I.

    Sum of |f_i| + [-g_i]_+ over i in I plus [-f_i]_+ + |g_i| over the
    complement.  Zero exactly when x solves the complementarity system
    with equalities f_i = 0 on I and g_i = 0 off I.
    """
    idx = check_indices(indices, inst.n)
    inside, outside = _phi_costs(*inst.evaluate_pair(as_point(x, inst.n, "x")))
    mask = np.zeros(inst.n, dtype=bool)
    mask[list(idx)] = True
    return float(np.sum(np.where(mask, inside, outside)))


class MinPhi(NamedTuple):
    value: float
    argmin: tuple[int, ...]


def min_phi(inst: PcpInstance, x) -> MinPhi:
    """Exact minimum of Phi_I(x) over all 2^n index sets, with a witness.

    Phi_I is separable across indices, so the exact minimum over all
    subsets is the sum of the per-index minima; the graded-lex smallest
    witnessing subset keeps exactly the indices whose in-set cost is
    strictly smaller.  Refuses n above the subset-enumeration cap, which
    this operation shares contract-wise with the exhaustive walkers.
    """
    check_subset_dimension(inst.n, "minimum")
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 1:
        raise InputError("min_phi takes a single point; see min_phi_values for batches")
    return min_phi_of_values(*inst.evaluate_pair(pts))


def min_phi_of_values(fx: np.ndarray, gx: np.ndarray) -> MinPhi:
    """:func:`min_phi` from the values f(x) and g(x) at one point."""
    inside, outside = _phi_costs(fx, gx)
    value = float(np.sum(np.minimum(inside, outside)))
    argmin = tuple(int(i) for i in np.flatnonzero(inside < outside))
    return MinPhi(value, argmin)


def min_phi_values(inst: PcpInstance, xs) -> np.ndarray:
    """Vectorized min_phi values (no witnesses) for a batch of points."""
    check_subset_dimension(inst.n, "minimum")
    pts = np.asarray(xs, dtype=float)
    if pts.ndim != 2:
        raise InputError("min_phi_values takes a batch of points")
    inside, outside = _phi_costs(*inst.evaluate_pair(pts))
    return np.sum(np.minimum(inside, outside), axis=1)


def r_residual(inst: PcpInstance, x) -> float | np.ndarray:
    """Square-root residual r(x) = sum_i([-f_i]_+ + [-g_i]_+ + sqrt|f_i g_i|).

    Vanishes exactly on the solution set and dominates ||m(x)||.
    """
    fx, gx = inst.evaluate_pair(x)
    terms = negative_part(fx) + negative_part(gx) + np.sqrt(np.abs(fx * gx))
    if terms.ndim == 1:
        return float(np.sum(terms))
    return np.sum(terms, axis=1)


def scalar_min_bound(a: float, b: float) -> tuple[float, float]:
    """Both sides of min{|a| + [-b]_+, [-a]_+ + |b|} <= 2|min{a, b}|.

    Returns (lhs, rhs); lhs <= rhs holds for every real pair.
    """
    a = float(a)
    b = float(b)
    lhs = min(abs(a) + max(-b, 0.0), max(-a, 0.0) + abs(b))
    rhs = 2.0 * abs(min(a, b))
    return lhs, rhs


def leading_min_map(inst: PcpInstance, x) -> np.ndarray:
    """Natural residual of the map-level leading pair; batch aware."""
    return natural_map(inst.leading_pair, x)
