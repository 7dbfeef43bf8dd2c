"""Sparse multivariate polynomials and square polynomial maps.

A polynomial in n variables is a finite map from exponent vectors to
float coefficients,

    p(x) = sum_kappa  c_kappa * x^kappa,     x^kappa = prod_i x_i^kappa_i,

stored as a dict keyed by exponent tuples.  Terms are kept in graded
lexicographic order (total degree first, then lexicographic on the
exponent tuple), so iteration, equality and serialization are
deterministic.  The zero polynomial has an empty term dict, degree 0 and
``is_zero == True``.

Evaluation follows one rule, with elementwise IEEE multiplies and adds
only: ``x_i^e`` is ``x_i * x_i * ... * x_i`` left to right, a monomial
multiplies its variables' powers in variable order, and a value is
``0.0 + c_1 m_1 + c_2 m_2 + ...`` in grlex term order.  A row's value
thus does not depend on the batch size, its position or memory order.

A :class:`PolyMap` bundles n polynomials of common arity n into a square
map R^n -> R^n with vectorized evaluation and exact symbolic Jacobians.
It compiles its components and partials once (:class:`CompiledTerms`),
which reproduces ``Polynomial.evaluate``, the reference of the rule, bit
for bit from one monomial table per batch.  All values are immutable
after construction; every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .exceptions import DegenerateInputError, InputError

Exponents = tuple[int, ...]

# Coefficients smaller than this in magnitude are refused outright: they
# sit in (or next to) the subnormal range where products silently flush.
COEFFICIENT_FLOOR = 1e-300


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key for graded lexicographic term order."""
    return (sum(exponents), exponents)


def as_point(x, n: int, name: str) -> np.ndarray:
    """``x`` as one float point of shape (n,); ``name`` labels the refusal."""
    point = np.asarray(x, dtype=float)
    if point.shape != (n,):
        raise InputError(f"{name} has shape {point.shape}, expected ({n},)")
    return point


def finite_point(x, n: int, name: str) -> np.ndarray:
    """:func:`as_point`, also refusing a NaN or infinite coordinate."""
    point = as_point(x, n, name)
    if not np.isfinite(point).all():
        raise InputError(f"{name} must hold finite numbers, got {point.tolist()}")
    return point


def _as_points(x, arity: int) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to a (m, arity) float array; report whether it was 1-D."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return as_point(pts, arity, "point")[None, :], True
    if pts.ndim != 2 or pts.shape[1] != arity:
        raise InputError(f"points have shape {pts.shape}, expected (m, {arity})")
    return pts, False


@dataclass(frozen=True)
class Polynomial:
    """A sparse real polynomial in ``arity`` variables.

    ``terms`` maps exponent tuples to nonzero float coefficients.  The
    constructor canonicalizes: exact zero coefficients are dropped,
    exponent tuples are validated against ``arity``, and the dict is
    rebuilt in graded lexicographic order.
    """

    arity: int
    terms: Mapping[Exponents, float]

    def __post_init__(self):
        if self.arity < 1:
            raise InputError(f"arity must be >= 1, got {self.arity}")
        cleaned: dict[Exponents, float] = {}
        for exponents, coefficient in self.terms.items():
            key = tuple(int(e) for e in exponents)
            if len(key) != self.arity:
                raise InputError(
                    f"exponent vector {key} has length {len(key)}, expected {self.arity}"
                )
            if any(e < 0 for e in key):
                raise InputError(f"negative exponent in {key}")
            value = float(coefficient)
            if value == 0.0:
                continue
            if abs(value) < COEFFICIENT_FLOOR:
                raise InputError(
                    f"coefficient {value!r} for {key} is below the magnitude floor "
                    f"{COEFFICIENT_FLOOR}"
                )
            cleaned[key] = value
        ordered = dict(sorted(cleaned.items(), key=lambda item: grlex_key(item[0])))
        object.__setattr__(self, "terms", ordered)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value: float) -> "Polynomial":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Polynomial":
        """The coordinate polynomial x_index."""
        if not 0 <= index < arity:
            raise InputError(f"variable index {index} out of range for arity {arity}")
        exponents = [0] * arity
        exponents[index] = 1
        return cls(arity, {tuple(exponents): 1.0})

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial (see ``is_zero``)."""
        if not self.terms:
            return 0
        return max(sum(k) for k in self.terms)

    # -- evaluation and calculus --------------------------------------

    def evaluate(self, x) -> float | np.ndarray:
        """Value at a point (n,) or a batch (m, n), by the module's rule."""
        pts, single = _as_points(x, self.arity)
        values = np.zeros(pts.shape[0])
        for exponents, coefficient in self.terms.items():
            monomial = np.ones(pts.shape[0])
            for column, e in zip(pts.T, exponents):
                power = np.ones(pts.shape[0])
                for _ in range(e):
                    power = power * column
                monomial = monomial * power
            values = values + coefficient * monomial
        return float(values[0]) if single else values

    def partial(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.arity:
            raise InputError(f"variable index {index} out of range for arity {self.arity}")
        terms: dict[Exponents, float] = {}
        for exponents, coefficient in self.terms.items():
            e = exponents[index]
            if e == 0:
                continue
            lowered = list(exponents)
            lowered[index] = e - 1
            key = tuple(lowered)
            terms[key] = terms.get(key, 0.0) + coefficient * e
        return Polynomial(self.arity, terms)

    def homogeneous_part(self, degree: int) -> "Polynomial":
        """The sum of all terms of total degree exactly ``degree``."""
        if degree < 0:
            raise InputError(f"degree must be >= 0, got {degree}")
        return Polynomial(
            self.arity,
            {k: c for k, c in self.terms.items() if sum(k) == degree},
        )

    # -- arithmetic (used for building instances, not for heavy algebra)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.arity != self.arity:
            raise InputError("cannot add polynomials of different arity")
        terms = dict(self.terms)
        for key, value in other.terms.items():
            terms[key] = terms.get(key, 0.0) + value
        return Polynomial(self.arity, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.arity, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def scaled(self, factor: float) -> "Polynomial":
        if factor == 0.0:
            return Polynomial.zero(self.arity)
        return Polynomial(self.arity, {k: factor * c for k, c in self.terms.items()})


class CompiledTerms:
    """Polynomials of one arity compiled onto one shared monomial table.

    ``values`` and ``jacobian`` are padded blocks ``(rows, coefficients)``
    of shapes (depth, entries) and (depth, entries, 1): entry k is a
    component, or an exact partial (row-major), and column k lists its
    terms' rows in the monomial table and their coefficients, in that
    polynomial's own term order.  Partials are compiled from the
    components' term lists and equal ``Polynomial.partial``, their
    reference, bit for bit.  Short columns are padded with the table's
    last row, the constant -0.0, and coefficient 1.0: ``x + -0.0 == x``
    for every float x, so padding never changes a sum, and no zero
    coefficient meets another entry's overflowing monomial (``0 * inf``).
    """

    def __init__(self, components: Sequence[Polynomial]):
        self.arity = arity = components[0].arity
        rows: dict[Exponents, int] = {}

        def block(entries: Sequence[Mapping[Exponents, float]]) -> tuple[np.ndarray, np.ndarray]:
            depth = max(1, *(len(terms) for terms in entries))
            index = np.full((depth, len(entries)), -1, dtype=np.intp)
            coefficients = np.ones((depth, len(entries)))
            for k, terms in enumerate(entries):
                index[: len(terms), k] = [rows.setdefault(key, len(rows)) for key in terms]
                coefficients[: len(terms), k] = list(terms.values())
            return index, coefficients[..., None]

        def partial(terms: Mapping[Exponents, float], i: int) -> dict[Exponents, float]:
            # (kappa - e_i, c * kappa_i) in the component's term order: lowering
            # one exponent keeps grlex order and distinct terms distinct, and
            # c * kappa_i is neither 0 nor below COEFFICIENT_FLOOR, so this is
            # Polynomial.partial(i).terms without a Polynomial built
            return {key[:i] + (key[i] - 1,) + key[i + 1 :]: c * key[i]
                    for key, c in terms.items() if key[i]}

        self.values = block([c.terms for c in components])
        self.jacobian = block([partial(c.terms, i) for c in components for i in range(arity)])
        self.exponents = np.array(list(rows), dtype=np.intp).reshape(len(rows), arity).T
        # the power ladder's length (x^0 and x^1 at least) and its variable column
        self.powers = int(self.exponents.max(initial=1)) + 1
        self.variables = np.arange(arity)[:, None]

    def monomials(self, pts: np.ndarray) -> np.ndarray:
        """The (terms + 1, m) monomial table, by the module's rule; its last row is -0.0."""
        columns = pts.T
        ladder = np.empty((self.powers,) + columns.shape)
        ladder[0] = 1.0
        ladder[1] = columns
        for e in range(2, self.powers):
            np.multiply(ladder[e - 1], columns, out=ladder[e])
        table = np.empty((self.exponents.shape[1] + 1, pts.shape[0]))
        np.multiply.reduce(ladder[self.exponents, self.variables], axis=0, out=table[:-1])
        table[-1] = -0.0
        return table

    def fold(self, pts: np.ndarray, block: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """One block's entries at a batch (m, arity) of points, component-major: (entries, m)."""
        return _fold(self.monomials(pts), *block)

    def evaluate(self, x, *blocks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The blocks' entries side by side, at a point or a batch (m, entries)."""
        pts, single = _as_points(x, self.arity)
        table = self.monomials(pts)
        out = np.empty((pts.shape[0], sum(rows.shape[1] for rows, _ in blocks)))
        start = 0
        for rows, coefficients in blocks:
            out[:, start : start + rows.shape[1]] = _fold(table, rows, coefficients).T
            start += rows.shape[1]
        return out[0] if single else out


def _fold(table: np.ndarray, rows: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """The (entries, m) sums ``0.0 + t_1 + t_2 + ...`` of a block's terms.

    Term t is ``table[rows[t]] * coefficients[t]``, added one term position
    at a time: ``np.add.reduce`` sums pairwise when the batch is one point.
    The terms are freed before the caller's next block.
    """
    terms = table[rows]
    terms *= coefficients
    sums = terms[0]
    sums += 0.0  # 0.0 + t_1 turns -0.0 into 0.0, as in the reference
    for term in terms[1:]:
        sums += term
    return sums


@dataclass(frozen=True)
class PolyMap:
    """A square polynomial map R^n -> R^n given by n component polynomials."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        components = tuple(self.components)
        object.__setattr__(self, "components", components)
        if not components:
            raise InputError("a polynomial map needs at least one component")
        arity = components[0].arity
        if any(c.arity != arity for c in components):
            raise InputError("all components must share one arity")
        if len(components) != arity:
            raise InputError(
                f"square map expected: {len(components)} components with arity {arity}"
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, arity: int) -> "PolyMap":
        return cls(tuple(Polynomial.variable(arity, i) for i in range(arity)))

    # -- structure ----------------------------------------------------

    @property
    def arity(self) -> int:
        return self.components[0].arity

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    @property
    def degree(self) -> int:
        """Map degree: max over component degrees (0 for the zero map)."""
        return max(c.degree for c in self.components)

    @cached_property
    def component_degrees(self) -> tuple[int, ...]:
        return tuple(c.degree for c in self.components)

    # -- evaluation ---------------------------------------------------

    @cached_property
    def _compiled(self) -> "CompiledTerms":
        return CompiledTerms(self.components)

    def evaluate(self, x) -> np.ndarray:
        """Value at a point (n,) -> (n,), or a batch (m, n) -> (m, n)."""
        compiled = self._compiled
        return compiled.evaluate(x, compiled.values)

    def jacobian(self, x) -> np.ndarray:
        """Exact Jacobian at a point (n, n), or a batch (m, n, n)."""
        compiled = self._compiled
        jac = compiled.evaluate(x, compiled.jacobian)
        return jac.reshape(jac.shape[:-1] + (self.arity, self.arity))

    # -- leading structure --------------------------------------------

    def leading_term_map(self) -> "PolyMap":
        """Homogeneous part of the whole map at its top degree.

        Components of lower degree become zero.  Refuses the identically
        zero map, whose leading part is undefined.
        """
        if self.is_zero:
            raise DegenerateInputError("the zero map has no leading term")
        d = self.degree
        return PolyMap(tuple(c.homogeneous_part(d) for c in self.components))

    def leading_terms_componentwise(self) -> "PolyMap":
        """Per-component homogeneous parts, each at its component's own degree.

        The degree is floored at 1, so a constant component (whose part of
        degree 1 is empty) becomes zero.
        """
        return PolyMap(tuple(c.homogeneous_part(max(c.degree, 1)) for c in self.components))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if not isinstance(other, PolyMap):
            return NotImplemented
        if other.arity != self.arity:
            raise InputError("cannot add maps of different arity")
        return PolyMap(tuple(a + b for a, b in zip(self.components, other.components)))

    def plus_constant(self, shift) -> "PolyMap":
        """The map x -> self(x) + shift for a constant vector ``shift``."""
        vec = as_point(shift, self.arity, "shift")
        return PolyMap(
            tuple(
                c + Polynomial.constant(self.arity, v)
                for c, v in zip(self.components, vec)
            )
        )
