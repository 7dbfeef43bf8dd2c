"""Sparse multivariate polynomials and square polynomial maps.

A polynomial in n variables is a finite map from exponent vectors to
float coefficients,

    p(x) = sum_kappa  c_kappa * x^kappa,     x^kappa = prod_i x_i^kappa_i,

stored as a dict keyed by exponent tuples.  Terms are kept in graded
lexicographic order (total degree first, then lexicographic on the
exponent tuple), so iteration, equality and serialization are
deterministic.  The zero polynomial has an empty term dict, degree 0 and
``is_zero == True``.

A :class:`PolyMap` bundles n polynomials of common arity n into a square
map R^n -> R^n with vectorized evaluation and exact symbolic Jacobians.
It compiles its components and their partials once
(:class:`CompiledTerms`) and evaluates them from one monomial table per
batch, built from a power ladder; ``Polynomial.evaluate`` is the
per-term reference that the compiled path reproduces bit for bit.  All
values are immutable after construction; every operation is pure.
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


def _as_points(x, arity: int) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to a (m, arity) float array; report whether it was 1-D."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != arity:
            raise InputError(f"point has dimension {pts.shape[0]}, expected {arity}")
        return pts[None, :], True
    if pts.ndim == 2:
        if pts.shape[1] != arity:
            raise InputError(f"points have dimension {pts.shape[1]}, expected {arity}")
        return pts, False
    raise InputError(f"expected a point or a batch of points, got ndim={pts.ndim}")


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

    @cached_property
    def _exponent_matrix(self) -> np.ndarray:
        if not self.terms:
            return np.zeros((0, self.arity), dtype=np.int64)
        return np.array(list(self.terms.keys()), dtype=np.int64)

    @cached_property
    def _coefficients(self) -> np.ndarray:
        return np.array(list(self.terms.values()), dtype=float)

    # -- evaluation and calculus --------------------------------------

    def evaluate(self, x) -> float | np.ndarray:
        """Value at a point (n,) or a batch of points (m, n)."""
        pts, single = _as_points(x, self.arity)
        if not self.terms:
            values = np.zeros(pts.shape[0])
        else:
            monomials = np.prod(
                pts[:, None, :] ** self._exponent_matrix[None, :, :], axis=2
            )
            values = monomials @ self._coefficients
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

    @cached_property
    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.partial(i) for i in range(self.arity))

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

    ``values`` and ``jacobian`` list, for each component and for each exact
    partial (row-major), its term rows in the union exponent table and its
    ``_coefficients``, in that polynomial's own term order: one gather and
    one dot product per entry repeat ``Polynomial.evaluate`` bit for bit.
    A zero-padded coefficient matrix would reorder the sums and let one
    entry's overflowing term turn another's zero coefficient into NaN.
    """

    def __init__(self, components: Sequence[Polynomial]):
        self.arity = arity = components[0].arity
        rows: dict[Exponents, int] = {}

        def entry(p: Polynomial) -> tuple[np.ndarray, np.ndarray]:
            index = [rows.setdefault(key, len(rows)) for key in p.terms]
            return np.array(index, dtype=np.intp), p._coefficients

        self.values = tuple(entry(c) for c in components)
        self.jacobian = tuple(entry(part) for c in components for part in c.gradient)
        exponents = np.array(list(rows), dtype=np.intp).reshape(len(rows), arity)
        # the power ladder's rows: 1.0, then x_0 .. x_{n-1}, then x_i ** e for
        # e = 2 .. top, variable by variable
        top = int(exponents.max(initial=1))
        self.rungs = top - 1
        self.powers = np.tile(np.arange(2.0, top + 1), arity)[:, None]
        e = exponents.T
        variable = np.arange(arity)[:, None]
        self.ladder_rows = np.where(
            e == 0, 0, np.where(e == 1, 1 + variable, 1 + arity + variable * self.rungs + e - 2)
        )

    def monomials(self, pts: np.ndarray) -> np.ndarray:
        """The (m, terms) monomial table, in the memory order of ``pts``.

        A power ladder: ``x_i ** 0`` is 1.0 and ``x_i ** 1`` is x_i, both
        exact; only e >= 2 goes through ``np.power``, and with a contiguous
        float64 base and a contiguous float64 exponent of the same shape.
        That is the (SIMD, not correctly rounded) path that the broadcast
        ``pts ** exponents`` of ``Polynomial.evaluate`` takes; ``x * x``,
        which numpy also substitutes for a scalar-like exponent 2, rounds
        differently.  Each monomial multiplies its variables' rows in
        variable order, as ``np.prod`` does.
        """
        m = pts.shape[0]
        columns = pts.T
        powered = np.power(
            np.repeat(columns, self.rungs, axis=0),
            np.repeat(self.powers, m, axis=1),
        )
        ladder = np.concatenate((np.ones((1, m)), columns, powered))
        table = np.multiply.reduce(ladder[self.ladder_rows], axis=0)
        # the broadcast table of Polynomial.evaluate is column-major exactly
        # when the batch is, with more than one row and column
        if m > 1 and pts.shape[1] > 1 and pts.strides[0] < pts.strides[1]:
            return table.T
        return np.ascontiguousarray(table.T)

    def evaluate(self, x, entries: tuple) -> np.ndarray:
        """Compiled entries at a point (len,) or a batch (m, len)."""
        pts, single = _as_points(x, self.arity)
        monomials = self.monomials(pts)
        # Gather in the table's memory order: the dot product takes another
        # BLAS path, and rounds differently, on the other one.
        column_major = monomials.strides[0] < monomials.strides[1]
        out = np.zeros((pts.shape[0], len(entries)))
        for k, (index, coefficients) in enumerate(entries):
            if index.size:
                block = monomials[:, index] if column_major else monomials.take(index, axis=1)
                out[:, k] = block @ coefficients
        return out[0] if single else out


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

    @property
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

    def leading_terms_componentwise(self, degrees: Sequence[int]) -> "PolyMap":
        """Per-component homogeneous parts at the given degrees.

        ``degrees[i]`` must be at least the actual degree of component i;
        the result component is then the degree-``degrees[i]`` part of it
        (possibly zero).
        """
        degrees = tuple(int(d) for d in degrees)
        if len(degrees) != self.arity:
            raise InputError(
                f"expected {self.arity} degrees, got {len(degrees)}"
            )
        parts = []
        for i, (component, d) in enumerate(zip(self.components, degrees)):
            if d < 1:
                raise InputError(f"degrees must be positive, got {d} at index {i}")
            if d < component.degree:
                raise InputError(
                    f"degrees[{i}] = {d} is below the component degree "
                    f"{component.degree}"
                )
            parts.append(component.homogeneous_part(d))
        return PolyMap(tuple(parts))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if not isinstance(other, PolyMap):
            return NotImplemented
        if other.arity != self.arity:
            raise InputError("cannot add maps of different arity")
        return PolyMap(tuple(a + b for a, b in zip(self.components, other.components)))

    def plus_constant(self, shift) -> "PolyMap":
        """The map x -> self(x) + shift for a constant vector ``shift``."""
        vec = np.asarray(shift, dtype=float)
        if vec.shape != (self.arity,):
            raise InputError(f"shift has shape {vec.shape}, expected ({self.arity},)")
        return PolyMap(
            tuple(
                c + Polynomial.constant(self.arity, v)
                for c, v in zip(self.components, vec)
            )
        )
