"""Explicit error-bound exponents and their empirical verification.

The driving quantity is the exact integer

    growth_exponent(n, d) = d (3d - 3)^(n - 1)   for d >= 2,   1 for d = 1,

which controls distance-to-solution-set estimates for polynomial
systems.  For an instance of dimension n and degree d the natural-map
error bound uses alpha = growth_exponent(3n - 1, d + 1); the cruder
route through the defining inequalities would need
growth_exponent(3n, 2d + 1).  These theoretical exponents are
astronomically loose, so verification reports always carry both the
certified constant at the requested exponent and a fitted empirical
exponent from samples near the solution set.  All exponent arithmetic is
exact (Python integers); powers dist^alpha are handled in log space so
huge exponents cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .enumeration import SolutionSet, distance_to_solutions
from .exceptions import InputError
from .polynomials import _as_points
from .residuals import (
    PcpInstance, as_region, check_positive, natural_residual_norm, sample_box, unit_sphere,
)


def exponent_R(n: int, d: int) -> int:
    """The exact growth exponent d(3d - 3)^(n - 1), with value 1 for d = 1."""
    n = int(n)
    d = int(d)
    if n < 1 or d < 1:
        raise InputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if d == 1:
        return 1
    return d * (3 * d - 3) ** (n - 1)


class HolderExponent(NamedTuple):
    """Local exponent plus the degree-one branch flag of the global bound."""

    alpha: int
    global_alpha_is_one: bool


def holder_exponent_for(n: int, d: int) -> HolderExponent:
    """Exponent growth_exponent(3n - 1, d + 1) for the natural-map bound.

    The flag reports the global two-regime branch: for affine instances
    (d = 1) the global bound holds with exponent 1 instead.
    """
    return HolderExponent(alpha=exponent_R(3 * n - 1, d + 1), global_alpha_is_one=d == 1)


def holder_exponent(inst: PcpInstance) -> HolderExponent:
    """``holder_exponent_for`` at the instance's dimension and degree."""
    return holder_exponent_for(inst.n, inst.degree)


def naive_exponent_for(n: int, d: int) -> int:
    """Exponent growth_exponent(3n, 2d + 1) of the unimproved route.

    Always at least ``holder_exponent_for`` for d >= 1; the gap is the
    payoff of measuring violations through the min map.
    """
    return exponent_R(3 * n, 2 * d + 1)


def naive_exponent(inst: PcpInstance) -> int:
    """``naive_exponent_for`` at the instance's dimension and degree."""
    return naive_exponent_for(inst.n, inst.degree)


class ExponentFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def empirical_exponent_fit(pairs: Sequence[tuple[float, float]]) -> ExponentFit:
    """Least-squares fit of log residual against log distance.

    Pairs with nonpositive distance or residual are refused; at least two
    usable pairs are required.
    """
    data = np.asarray(pairs, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise InputError("pairs must be a sequence of (dist, residual) tuples")
    if len(data) < 2:
        raise InputError("need at least two pairs")
    if np.any(data <= 0.0):
        raise InputError("pairs must have positive distance and residual")
    log_d = np.log(data[:, 0])
    log_r = np.log(data[:, 1])
    if np.ptp(log_d) == 0.0:
        raise InputError("distances are all equal; slope is undefined")
    slope, intercept = np.polyfit(log_d, log_r, deg=1)
    predicted = slope * log_d + intercept
    ss_res = float(np.sum((log_r - predicted) ** 2))
    ss_tot = float(np.sum((log_r - np.mean(log_r)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(float(slope), float(intercept), float(r_squared))


@dataclass(frozen=True)
class BoundReport:
    """Empirical verification record for one error-bound check.

    ``c_best`` is the largest constant with zero violations on the
    sample (the minimum of residual / lhs over the sample, with the
    left-hand side dist^alpha locally or min{dist, dist^alpha}
    globally).  ``log10_c_best`` stays meaningful when c_best underflows.
    ``violations`` lists samples breaching a caller-claimed constant.
    The (dist, residual) ``pairs`` stay out of :meth:`to_dict`; ``pcpkit
    bounds --csv`` prints them.
    """

    alpha: float
    c_best: float
    log10_c_best: float
    fitted: ExponentFit | None
    violations: tuple[dict, ...]
    samples: int
    domain: dict
    completeness_claim: bool
    pairs: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        def jsonable(value: float):
            return value if np.isfinite(value) else None

        return {
            "alpha": self.alpha,
            # c_best overflows doubles at huge exponents; log10 stays exact
            "c_best": jsonable(self.c_best),
            "log10_c_best": jsonable(self.log10_c_best),
            "fitted": None if self.fitted is None else self.fitted._asdict(),
            "violations": list(self.violations),
            "samples": self.samples,
            "domain": self.domain,
            "completeness_claim": self.completeness_claim,
        }


NEAR_SOLUTION_DISTANCE = 0.1


def _bound_statistics(
    points: np.ndarray,
    dists: np.ndarray,
    residuals: np.ndarray,
    alpha: float,
    global_form: bool,
    claimed_c: float | None,
) -> tuple[float, float, tuple[dict, ...]]:
    """c_best and violations in log space; exact at any exponent size."""
    usable = np.flatnonzero(dists > 0.0)
    if not len(usable):
        return np.inf, np.inf, ()
    log_d = np.log(dists[usable])
    res = residuals[usable]
    log_res = np.where(res > 0.0, np.log(np.maximum(res, 1e-320)), -np.inf)
    log_lhs = np.minimum(log_d, alpha * log_d) if global_form else alpha * log_d
    log_c_best = float(np.min(log_res - log_lhs))
    with np.errstate(over="ignore"):
        c_best = float(np.exp(log_c_best)) if np.isfinite(log_c_best) else 0.0
    log10_c_best = log_c_best / np.log(10.0) if np.isfinite(log_c_best) else -np.inf
    breach = () if claimed_c is None else usable[log_res < np.log(claimed_c) + log_lhs]
    violations = tuple(
        {
            "point": [float(v) for v in points[k]],
            "dist": float(dists[k]),
            "residual": float(residuals[k]),
        }
        for k in breach
    )
    return c_best, float(log10_c_best), violations


def _near_solution_fit(dists: np.ndarray, residuals: np.ndarray) -> ExponentFit | None:
    mask = (dists > 0.0) & (dists <= NEAR_SOLUTION_DISTANCE) & (residuals > 0.0)
    if mask.sum() < 2 or np.ptp(np.log(dists[mask])) == 0.0:
        return None
    return empirical_exponent_fit(np.column_stack([dists[mask], residuals[mask]]))


def check_bound_settings(samples: int, alpha: float, claimed_c: float | None) -> None:
    """Refuse a verification's settings before it samples (and before any sweep)."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    check_positive("alpha", alpha)
    if claimed_c is not None:
        check_positive("claimed_c", claimed_c)


def _bound_report(
    inst: PcpInstance,
    sols: SolutionSet,
    points: np.ndarray,
    alpha: float,
    global_form: bool,
    claimed_c: float | None,
    domain: dict,
) -> BoundReport:
    """Distances, residuals, statistics and fit of ``points``, as one report."""
    dists = np.atleast_1d(distance_to_solutions(sols, points))
    residuals = natural_residual_norm(inst, points)
    c_best, log10_c_best, violations = _bound_statistics(
        points, dists, residuals, alpha, global_form, claimed_c
    )
    return BoundReport(
        alpha=alpha,
        c_best=c_best,
        log10_c_best=log10_c_best,
        fitted=_near_solution_fit(dists, residuals),
        violations=violations,
        samples=len(points),
        domain=domain,
        completeness_claim=sols.completeness_claim,
        pairs=tuple(zip(dists.tolist(), residuals.tolist())),
    )


def verify_local_bound(
    inst: PcpInstance,
    sols: SolutionSet,
    region,
    samples: int,
    alpha: float,
    seed: int = 0,
    claimed_c: float | None = None,
) -> BoundReport:
    """Sample a box and compare residuals against c * dist^alpha.

    ``sols`` should come from an enumeration whose start box covers the
    region; an undiscovered solution inflates distances, which keeps
    c_best conservative but can corrupt the fitted exponent (carried via
    the completeness flag).
    """
    check_bound_settings(samples, alpha, claimed_c)
    box = as_region(region, inst.n)
    rng = np.random.default_rng(seed)
    points = sample_box(rng, box, samples)
    domain = {"region": [[float(a), float(b)] for a, b in box], "seed": seed}
    return _bound_report(inst, sols, points, alpha, global_form=False, claimed_c=claimed_c,
                         domain=domain)


def verify_global_bound(
    inst: PcpInstance,
    sols: SolutionSet,
    radii: Sequence[float],
    samples: int,
    alpha: float,
    seed: int = 0,
    claimed_c: float | None = None,
    extra_points=None,
) -> BoundReport:
    """Compare residuals against c * min{dist, dist^alpha} on spheres.

    ``samples`` points are drawn on every listed radius; ``extra_points``
    lets callers inject adversarial probe sequences.
    """
    check_bound_settings(samples, alpha, claimed_c)
    radii = [float(r) for r in radii]
    if not radii:
        raise InputError("need at least one radius")
    for r in radii:
        check_positive("radii", r)
    rng = np.random.default_rng(seed)
    shells = [unit_sphere(rng, samples, inst.n) * r for r in radii]
    points = np.vstack(shells)
    if extra_points is not None:
        points = np.vstack([points, _as_points(extra_points, inst.n)[0]])
    domain = {"radii": radii, "seed": seed, "extra_points": len(points) - samples * len(radii)}
    return _bound_report(inst, sols, points, alpha, global_form=True, claimed_c=claimed_c,
                         domain=domain)
