"""Solution-set enumeration by index-set decomposition.

Every solution of the complementarity problem satisfies, for some index
set I, the square polynomial system {f_i = 0 on I, g_j = 0 off I}.  The
enumerator therefore sweeps all 2^n subsets, solves each square system
by multi-start damped Newton from a low-discrepancy start cloud (the
same :func:`damped_newton` kernel runs the homotopy corrector), filters
the roots by sign feasibility, deduplicates, and certifies the
survivors.  Roots outside the start box can be missed; reports carry the
box so the completeness claim stays honest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np
from scipy.stats import qmc

from .exceptions import CertificationError, InputError
from .polynomials import PolyMap
from .residuals import (
    PcpInstance,
    check_indices,
    check_subset_dimension,
    min_phi,
    natural_residual_norm,
)

JACOBIAN_CONDITION_LIMIT = 1e14
MAX_BACKTRACK_HALVINGS = 30
# the step scales tried after a rejected full Newton step, in order
BACKTRACK_SCALES = 0.5 ** np.arange(1, MAX_BACKTRACK_HALVINGS + 1)
NON_ISOLATED_CLUSTER_SIZE = 100


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and budgets for enumeration and path tracking."""

    newton_tol: float = 1e-10
    max_newton_iters: int = 100
    starts_per_subsystem: int = 200
    start_box_radius: float = 10.0
    dedupe_radius: float = 1e-6
    feasibility_tol: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("newton_tol", "start_box_radius", "dedupe_radius", "feasibility_tol"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        if self.max_newton_iters < 1 or self.starts_per_subsystem < 1:
            raise InputError("iteration and start counts must be >= 1")
        if self.dedupe_radius <= self.newton_tol:
            raise InputError("dedupe_radius must exceed newton_tol")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolutionCertificate:
    """A certified solution point with its local diagnostics.

    ``active_set`` is the graded-lex smallest index set witnessing
    min_phi; ``min_abs_det_jac`` is the minimum over all index sets of
    |det Jac_I| at the point, the degeneracy statistic tied to
    unbounded solution sets.
    """

    point: np.ndarray
    active_set: tuple[int, ...]
    residual_norm: float
    strict_complementarity: bool
    min_abs_det_jac: float

    def to_dict(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "active_set": list(self.active_set),
            "residual_norm": self.residual_norm,
            "strict_complementarity": self.strict_complementarity,
            "min_abs_det_jac": self.min_abs_det_jac,
        }


@dataclass(frozen=True)
class SolutionSet:
    """Certified, deduplicated solutions found by the enumerator."""

    certificates: tuple[SolutionCertificate, ...]
    config: SolveConfig
    completeness_claim: bool
    warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.certificates)

    @property
    def points(self) -> np.ndarray:
        if not self.certificates:
            return np.zeros((0, 0))
        return np.array([c.point for c in self.certificates])

    def to_dict(self) -> dict:
        return {
            "solutions": [c.to_dict() for c in self.certificates],
            "count": len(self.certificates),
            "completeness_claim": self.completeness_claim,
            "warnings": list(self.warnings),
            "config": self.config.to_dict(),
        }


# ----------------------------------------------------------------------
# square subsystem machinery


class NewtonResult(NamedTuple):
    """Per-row outcome of :func:`damped_newton`.

    ``alive`` is False for rows that were abandoned or escaped;
    ``steps`` counts the accepted Newton steps of each row.
    """

    points: np.ndarray
    norms: np.ndarray
    alive: np.ndarray
    escaped: np.ndarray
    steps: np.ndarray


def damped_newton(
    values_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    starts: np.ndarray,
    tol: float,
    max_iters: int,
    escape_norm: float = np.inf,
) -> NewtonResult:
    """Damped Newton on a square system from every start row at once.

    ``values_fn`` maps a (m, n) batch to (m, n) values and
    ``jacobian_fn`` to (m, n, n) Jacobians.  A row stops once its
    residual norm is at most ``tol``.  It is abandoned when its residual
    is not finite, its Jacobian condition estimate exceeds the limit, or
    backtracking cannot decrease its residual; it escapes (and stops)
    when its norm exceeds ``escape_norm`` before a step.
    """
    pts = np.array(starts, dtype=float)
    values = values_fn(pts)
    norms = np.linalg.norm(values, axis=1)
    alive = np.ones(len(pts), dtype=bool)
    escaped = np.zeros(len(pts), dtype=bool)
    steps = np.zeros(len(pts), dtype=int)

    for _ in range(max_iters):
        working = np.flatnonzero(alive & ~(norms <= tol))
        if working.size == 0:
            break
        escaped[working] = np.linalg.norm(pts[working], axis=1) > escape_norm
        stopped = escaped[working] | ~np.isfinite(norms[working])
        alive[working[stopped]] = False
        working = working[~stopped]
        if working.size == 0:
            continue
        jac = jacobian_fn(pts[working])
        finite = np.isfinite(jac).all(axis=(1, 2))
        with np.errstate(all="ignore"):
            cond = np.full(len(working), np.inf)
            if finite.any():
                cond[finite] = np.linalg.cond(jac[finite])
        good = cond < JACOBIAN_CONDITION_LIMIT
        alive[working[~good]] = False
        working = working[good]
        if working.size == 0:
            continue
        newton_steps = np.linalg.solve(jac[good], -values[working][..., None])[..., 0]

        # backtracking: a row takes the first of the scales 1, 1/2, ..., 2^-30
        # whose residual is finite and below its current one.  The shorter
        # scales are evaluated together, and only for the rows the full
        # step did not improve: most steps are accepted at full length.
        base = pts[working]
        pending = np.arange(working.size)
        for scales in (np.ones(1), BACKTRACK_SCALES):
            ladder = base[pending, None] + scales[:, None] * newton_steps[pending, None]
            ladder_values = values_fn(ladder.reshape(-1, pts.shape[1])).reshape(ladder.shape)
            ladder_norms = np.linalg.norm(ladder_values, axis=2)
            improves = np.isfinite(ladder_norms) & (ladder_norms < norms[working[pending], None])
            pick = np.arange(pending.size), improves.argmax(axis=1)
            found = improves[pick]
            rows = working[pending[found]]
            pts[rows] = ladder[pick][found]
            values[rows] = ladder_values[pick][found]
            norms[rows] = ladder_norms[pick][found]
            steps[rows] += 1
            pending = pending[~found]
            if pending.size == 0:
                break
        alive[working[pending]] = False

    return NewtonResult(pts, norms, alive, escaped, steps)


def _dedupe_points(
    points: np.ndarray, priorities: np.ndarray, radius: float
) -> tuple[np.ndarray, int]:
    """Merge points within ``radius``; keep the smallest priority per cluster.

    Ties in priority fall back to lexicographic order of coordinates.
    In that order, the first pending point becomes a representative and
    takes every pending point within ``radius`` into its cluster; a
    pending point is never that close to an earlier representative.
    Returns the representatives and the largest merged cluster size.
    """
    pending = points[np.lexsort(np.vstack([points.T[::-1], priorities]))]
    kept = []
    largest = 0
    while len(pending):
        near = np.linalg.norm(pending - pending[0], axis=1) <= radius
        kept.append(pending[0])
        largest = max(largest, int(near.sum()))
        pending = pending[~near]
    return np.reshape(kept, (-1, points.shape[1])), largest


def _subsystem_starts(
    inst: PcpInstance, index_set: frozenset[int], cfg: SolveConfig, x_ref
) -> np.ndarray:
    """Low-discrepancy start cloud in the start box, plus origin and x_ref.

    The Halton engine is seeded from (rng_seed, subset) only, so the
    first k starts are a prefix of the first 2k: growing the budget never
    loses previously found roots.
    """
    mask = sum(1 << i for i in index_set)
    seed = np.random.SeedSequence(entropy=[cfg.rng_seed, mask])
    engine = qmc.Halton(d=inst.n, scramble=True, seed=np.random.default_rng(seed))
    cloud = (2.0 * engine.random(cfg.starts_per_subsystem) - 1.0) * cfg.start_box_radius
    extra = [np.zeros(inst.n)]
    if x_ref is not None:
        extra.append(np.asarray(x_ref, dtype=float))
    return np.vstack([cloud, *extra])


def solve_subsystem(
    inst: PcpInstance,
    index_set: Iterable[int],
    cfg: SolveConfig | None = None,
    x_ref=None,
) -> np.ndarray:
    """Roots of the square system {f_i = 0 on I, g_j = 0 off I}.

    Multi-start damped Newton; returns deduplicated roots with subsystem
    residual below ``newton_tol``, sorted lexicographically.  An empty
    array means no root was found (which is not a certificate of
    emptiness).
    """
    cfg = cfg or SolveConfig()
    idx = check_indices(index_set, inst.n)
    system = PolyMap(tuple(
        inst.f.components[i] if i in idx else inst.g.components[i] for i in range(inst.n)
    ))
    starts = _subsystem_starts(inst, idx, cfg, x_ref)
    # drive well below tol so certification at tol has slack
    result = damped_newton(
        system.evaluate, system.jacobian, starts, cfg.newton_tol * 1e-2, cfg.max_newton_iters
    )
    roots = result.points[result.alive & (result.norms <= cfg.newton_tol)]
    residuals = np.linalg.norm(system.evaluate(roots), axis=1)
    unique, _ = _dedupe_points(roots, residuals, cfg.dedupe_radius)
    order = np.lexsort(unique.T[::-1])
    return unique[order]


def enumerate_solutions(
    inst: PcpInstance, cfg: SolveConfig | None = None, x_ref=None
) -> SolutionSet:
    """Sweep all 2^n index subsets and certify the feasible roots found."""
    cfg = cfg or SolveConfig()
    n = inst.n
    check_subset_dimension(n, "enumeration")

    points = np.vstack([
        solve_subsystem(inst, frozenset(i for i in range(n) if mask & (1 << i)), cfg, x_ref)
        for mask in range(1 << n)
    ])
    fx, gx = inst.evaluate_pair(points)
    feasible = np.all(fx >= -cfg.feasibility_tol, axis=1) & np.all(
        gx >= -cfg.feasibility_tol, axis=1
    )
    residuals = np.linalg.norm(np.minimum(fx, gx)[feasible], axis=1)
    points, largest_cluster = _dedupe_points(points[feasible], residuals, cfg.dedupe_radius)
    warnings: list[str] = []
    if largest_cluster > NON_ISOLATED_CLUSTER_SIZE:
        warnings.append(
            "non-isolated solutions suspected: a dedupe cluster merged "
            f"{largest_cluster} points"
        )
    certificates: list[SolutionCertificate] = []
    for point in points:
        try:
            certificates.append(certify_solution(inst, point, cfg))
        except CertificationError:
            continue
    certificates.sort(key=lambda c: tuple(c.point))

    return SolutionSet(
        certificates=tuple(certificates),
        config=cfg,
        completeness_claim=not warnings,
        warnings=tuple(warnings),
    )


def min_abs_subsystem_determinant(inst: PcpInstance, x) -> float:
    """min over all index sets I of |det Jac_I(x)| with rows f_i on I, g_i off I."""
    n = inst.n
    check_subset_dimension(n, "determinant scan")
    _, _, jac_f, jac_g = inst.evaluate_pair(x, jacobians=True)
    best = np.inf
    rows = np.empty_like(jac_f)
    for mask in range(1 << n):
        for i in range(n):
            rows[i] = jac_f[i] if mask & (1 << i) else jac_g[i]
        best = min(best, abs(float(np.linalg.det(rows))))
    return best


def certify_solution(
    inst: PcpInstance, x, cfg: SolveConfig | None = None
) -> SolutionCertificate:
    """Accept ``x`` iff its natural-residual norm is within ``newton_tol``.

    The certificate records the active index set, strict complementarity
    (min_i f_i + g_i above the feasibility tolerance) and the Jacobian
    degeneracy statistic.  Rejection raises :class:`CertificationError`
    carrying the residual norm.
    """
    cfg = cfg or SolveConfig()
    point = np.asarray(x, dtype=float)
    if point.shape != (inst.n,):
        raise InputError(f"point has shape {point.shape}, expected ({inst.n},)")
    residual_norm = natural_residual_norm(inst, point)
    if residual_norm > cfg.newton_tol:
        raise CertificationError(
            f"natural residual {residual_norm:.3e} exceeds {cfg.newton_tol:.3e}",
            residual_norm=residual_norm,
        )
    _, active = min_phi(inst, point)
    fx, gx = inst.evaluate_pair(point)
    strict = bool(np.min(fx + gx) > cfg.feasibility_tol)
    return SolutionCertificate(
        point=point.copy(),
        active_set=active,
        residual_norm=residual_norm,
        strict_complementarity=strict,
        min_abs_det_jac=min_abs_subsystem_determinant(inst, point),
    )


def distance_to_solutions(sols: SolutionSet, x) -> float | np.ndarray:
    """Euclidean distance from x to the listed points; exactly 1 when empty.

    Batch aware: a (m, n) input yields a (m,) vector of distances.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if len(sols) == 0:
        return 1.0 if single else np.ones(pts.shape[0])
    solutions = sols.points
    if single:
        return float(np.min(np.linalg.norm(solutions - pts[None, :], axis=1)))
    deltas = pts[:, None, :] - solutions[None, :, :]
    return np.min(np.linalg.norm(deltas, axis=2), axis=1)
