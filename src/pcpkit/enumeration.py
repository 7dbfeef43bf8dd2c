"""Solution-set enumeration by index-set decomposition.

Every solution of the complementarity problem solves, for some index set
I, the square system S_I = {f_i = 0 on I, g_j = 0 off I}.  The sweep
solves all 2^n of them by multi-start damped Newton from a start cloud
(:func:`damped_newton` also runs the homotopy corrector), then filters
the roots by sign, deduplicates and certifies them.  The Bezout number
B_I, the product of S_I's degrees, is the one rule per subset: B_I <= 1
starts from the origin alone, which reaches an affine root in one step
wherever it lies, and more than B_I roots, or a zero component, deny
the completeness claim with a warning.  Roots outside the start box can
be missed; reports carry the box so the claim stays honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .documents import record_dict
from .exceptions import CertificationError, InputError
from .polynomials import _as_points, as_point
from .residuals import (
    PcpInstance, check_indices, check_positive, check_subset_dimension, min_phi_of_values,
    residual_norms, sign_feasible,
)

# a working row is abandoned unless its Jacobian J is finite, not exactly
# singular, and ||J||_1 * ||J^-1||_1 (its 1-norm condition number, taken
# from the inverse that also gives the Newton step) is below this limit
JACOBIAN_CONDITION_LIMIT = 1e14
# every STALL_WINDOW iterations, a working row whose residual norm did not
# fall to STALL_FACTOR times its norm at the previous check stops; a
# working row takes one accepted step per iteration, so the window spans
# its last STALL_WINDOW accepted steps.  On dense n = 2, d = 3 systems 0.9%
# of subsystem roots need more than 8 steps from their fastest start, which
# still halves its residual in every window; a window of 6 loses a root.
STALL_WINDOW = 8
STALL_FACTOR = 0.5
# the step scales of every descent ladder, in the order they are tried:
# 1, 1/2, ..., 2^-30
STEP_SCALES = 0.5 ** np.arange(31)
MAX_NEWTON_ITERS = 100
# roots of the sweep closer than this are merged; it must exceed newton_tol
DEDUPE_RADIUS = 1e-6
FEASIBILITY_TOL = 1e-8
# the most (subset, start) rows per damped-Newton call of the sweep, which
# runs the subsets' starts, end to end, in consecutive slices of this many rows;
# the transient peak is a slice's 30-rung backtracking ladder, evaluated in one
# call (303 MB under tracemalloc for a quadratic n = 10 sweep; 1024 rows alone take 12 MB)
SWEEP_CHUNK_ROWS = 1024
# cached start clouds; covers every subset of one configuration up to n = 8
START_CLOUD_CACHE_SIZE = 256
# index sets per stacked determinant call: 1024 * 24^2 doubles at the cap
DETERMINANT_CHUNK_MASKS = 1024


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and budgets for enumeration and path tracking."""

    newton_tol: float = 1e-10
    starts_per_subsystem: int = 200
    start_box_radius: float = 10.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("newton_tol", "start_box_radius"):
            check_positive(name, getattr(self, name))
        if self.starts_per_subsystem < 1:
            raise InputError("starts_per_subsystem must be >= 1")
        if self.rng_seed < 0:
            raise InputError(f"rng_seed must be >= 0, got {self.rng_seed}")

    def to_dict(self) -> dict:
        # every setting and the three module constants, in the reports' fixed key order
        return {"newton_tol": self.newton_tol, "max_newton_iters": MAX_NEWTON_ITERS,
                "starts_per_subsystem": self.starts_per_subsystem,
                "start_box_radius": self.start_box_radius, "dedupe_radius": DEDUPE_RADIUS,
                "feasibility_tol": FEASIBILITY_TOL, "rng_seed": self.rng_seed}


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
        return record_dict(self)


@dataclass(frozen=True)
class SolutionSet:
    """Certified, deduplicated solutions of an instance in n variables."""

    certificates: tuple[SolutionCertificate, ...]
    n: int
    config: SolveConfig
    completeness_claim: bool
    warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.certificates)

    @property
    def points(self) -> np.ndarray:
        """The (len(self), n) solution points."""
        return np.array([c.point for c in self.certificates]).reshape(-1, self.n)

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


class NewtonStatus(IntEnum):
    """Why :func:`damped_newton` stopped a row."""

    CONVERGED = 0        # residual norm at most tol
    ITERATION_CAP = 1    # still working after max_iters iterations
    NON_FINITE = 2       # residual or Jacobian not finite
    ILL_CONDITIONED = 3  # Jacobian exactly singular or above the condition limit
    NO_DESCENT = 4       # no backtracking scale lowered the residual
    ESCAPED = 5          # norm above escape_norm before a step
    STALLED = 6          # norm did not halve over the last STALL_WINDOW steps


class NewtonResult(NamedTuple):
    """Per-row outcome of :func:`damped_newton`.

    ``status`` holds one :class:`NewtonStatus` code per row; ``steps``
    counts the accepted Newton steps of each row.
    """

    points: np.ndarray
    norms: np.ndarray
    status: np.ndarray
    steps: np.ndarray

    @property
    def alive(self) -> np.ndarray:
        """Rows neither abandoned nor escaped: converged or at the iteration cap."""
        return self.status <= NewtonStatus.ITERATION_CAP

    @property
    def escaped(self) -> np.ndarray:
        return self.status == NewtonStatus.ESCAPED


def first_lowering(trial_norms: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a (rows, rungs) ladder with a finite rung below ``norms``, and that rung.

    Returns a mask of the rows that have such a rung and, for each of
    them, its first such rung; the other rows found no lower rung.
    """
    lower = np.isfinite(trial_norms) & (trial_norms < norms[:, None])
    rows = lower.any(axis=1)
    return rows, lower[rows].argmax(axis=1)


def one_norms(a: np.ndarray) -> np.ndarray:
    """The 1-norm of each matrix of an (m, n, n) stack: its largest column sum of |a|.

    From one component-major copy of |a|, its rows are added in order into
    the (n, m) column sums and a running maximum is taken over the columns,
    so no numpy loop runs over an axis of length n; this is
    ``np.linalg.norm(a, 1, axis=(1, 2))`` bit for bit, NaN, inf and
    overflow included.
    """
    rows = np.abs(a.transpose(1, 2, 0), order="C")
    return np.maximum.reduce(np.add.reduce(rows, axis=0), axis=0)


def damped_newton(
    values_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    starts: np.ndarray,
    tol: float,
    max_iters: int,
    escape_norm: float = np.inf,
) -> NewtonResult:
    """Damped Newton on a square system from every start row at once.

    ``values_fn(points, rows)`` maps a (m, n) batch to (m, n) values and
    ``jacobian_fn(points, rows)`` to (m, n, n) Jacobians; ``rows`` holds
    the index into ``starts`` of each point, so one call can serve rows
    of different systems.  A row stops once its residual norm is at most
    ``tol``.  It is abandoned when its residual or Jacobian is not
    finite, its Jacobian is exactly singular or has 1-norm condition
    number ``||J||_1 ||J^-1||_1`` at or above JACOBIAN_CONDITION_LIMIT,
    or backtracking cannot decrease its residual; it escapes (and stops)
    when its norm exceeds ``escape_norm`` before a step.  Every
    STALL_WINDOW iterations, a working row whose residual norm did not
    fall to STALL_FACTOR times its norm at the previous check is retired
    as stalled, and the other working rows record their norm for the
    next check; a row that is not retired takes one accepted step per
    iteration, so a kept row follows the same path as without the rule.
    One batched inverse of the finite Jacobians gives both the condition
    numbers (:func:`one_norms` of J and J^-1) and the Newton steps
    ``-J^-1 F``; only if it raises on an exactly singular row does a
    ``slogdet`` screen drop the rows of sign 0 before a second inverse.
    Each row then tries its full step ``x + s`` and, if that does not
    lower its norm, the other STEP_SCALES together, built component by
    component; the callbacks take points in either memory order.  Norms
    are :func:`residual_norms` with floating-point overflow ignored: a row
    whose norm overflows to inf is abandoned as non-finite, with no
    warning.  ``status`` says why rows stop.
    """
    pts = np.array(starts, dtype=float)
    values = values_fn(pts, np.arange(len(pts)))
    with np.errstate(over="ignore"):
        norms = residual_norms(values)
    # ITERATION_CAP (a plain int: arrays compare with it ~4x faster than with the
    # enum member) marks the running rows; converged rows are relabelled at the end
    running = int(NewtonStatus.ITERATION_CAP)
    status = np.full(len(pts), running, dtype=np.int8)
    steps = np.zeros(len(pts), dtype=int)
    checkpoint = np.full(len(pts), np.inf)

    for iteration in range(max_iters):
        working = np.flatnonzero((status == running) & ~(norms <= tol))
        if working.size == 0:
            break
        if escape_norm < np.inf:  # no norm is above inf
            with np.errstate(over="ignore"):
                escaped = residual_norms(pts[working]) > escape_norm
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
        with np.errstate(all="ignore"):
            try:
                inverse = np.linalg.inv(jac)
            except np.linalg.LinAlgError:
                # a batched inv raises on any exactly singular row; slogdet's sign
                # finds them without the underflow that det's product can show
                regular = np.linalg.slogdet(jac)[0] != 0
                status[working[~regular]] = NewtonStatus.ILL_CONDITIONED
                working, jac = working[regular], jac[regular]
                inverse = np.linalg.inv(jac)
            cond = one_norms(jac) * one_norms(inverse)
        good = cond < JACOBIAN_CONDITION_LIMIT
        status[working[~good]] = NewtonStatus.ILL_CONDITIONED
        working = working[good]
        if working.size == 0:
            continue
        newton_steps = -np.einsum("rij,rj->ri", inverse[good], values[working])

        # backtracking: a row takes the first of the STEP_SCALES whose
        # residual is finite and below its current one.  Scale 1 is the full
        # step base + step (1.0 * s == s), and as the rows' norms are finite,
        # "finite and below" is "below".  The shorter scales are evaluated
        # together, and only for the rows the full step did not improve: most
        # steps are accepted at full length.  Both rebind the ladder's names,
        # so no earlier iteration's rungs outlive their use.
        base = pts[working]
        ladder = base + newton_steps
        ladder_values = values_fn(ladder, working)
        with np.errstate(over="ignore"):
            ladder_norms = residual_norms(ladder_values)
        found = ladder_norms < norms[working]
        rows = working[found]
        pts[rows], values[rows] = ladder[found], ladder_values[found]
        norms[rows] = ladder_norms[found]
        steps[rows] += 1
        pending = np.flatnonzero(~found)
        if pending.size == 0:
            continue
        # the shorter rungs as (component, row, scale): one component's rungs at a time
        scales = STEP_SCALES[1:]
        ladder = base[pending].T[:, :, None] + newton_steps[pending].T[:, :, None] * scales
        ladder_values = values_fn(
            ladder.reshape(len(ladder), -1).T, np.repeat(working[pending], len(scales))
        ).reshape(pending.size, len(scales), -1)
        with np.errstate(over="ignore"):
            ladder_norms = residual_norms(ladder_values)
        found, rung = first_lowering(ladder_norms, norms[working[pending]])
        rows = working[pending[found]]
        pts[rows], values[rows] = ladder[:, found, rung].T, ladder_values[found, rung]
        norms[rows] = ladder_norms[found, rung]
        steps[rows] += 1
        status[working[pending[~found]]] = NewtonStatus.NO_DESCENT

    status[(status == running) & (norms <= tol)] = NewtonStatus.CONVERGED
    return NewtonResult(pts, norms, status, steps)


def _dedupe_points(points: np.ndarray, priorities: np.ndarray, radius: float) -> np.ndarray:
    """Merge points within ``radius``; keep the smallest priority per cluster.

    Ties in priority fall back to lexicographic order of coordinates.
    In that order, the first pending point becomes a representative and
    takes every pending point within ``radius`` into its cluster; a
    pending point is never that close to an earlier representative.
    Returns the representatives.
    """
    pending = points[np.lexsort(np.vstack([points.T[::-1], priorities]))]
    kept = []
    while len(pending):
        near = np.linalg.norm(pending - pending[0], axis=1) <= radius
        kept.append(pending[0])
        pending = pending[~near]
    return np.reshape(kept, (-1, points.shape[1]))


def _mask_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """(len(masks), n) booleans: bit i of each mask, i.e. i is in the index set."""
    return ((np.asarray(masks)[:, None] >> np.arange(n)) & 1).astype(bool)


def _bezout_numbers(inst: PcpInstance, masks: Sequence[int]) -> np.ndarray:
    """Each index set's Bezout number B_I: deg f_i on I times deg g_i off I, as floats."""
    degrees = inst.f.component_degrees, inst.g.component_degrees
    return np.where(_mask_bits(masks, inst.n), *degrees).prod(axis=1, dtype=float)


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _scrambled_halton(n: int, seed: np.random.SeedSequence, count: int) -> np.ndarray:
    """The first ``count`` points of a randomized Halton sequence in [0, 1)^n.

    Coordinate k is the van der Corput sequence in the k-th prime base b
    with every digit j put through its own random permutation of
    range(b), for each j with b^-(j+1) > 2^-54 (A. B. Owen, "A randomized
    Halton algorithm in R", arXiv:1706.02808, 2017).  The permutations
    come from a generator on the first child of ``seed``, drawn base by
    base and digit by digit, and each point sums its digits in order, so
    the result equals ``scipy.stats.qmc.Halton(d=n, scramble=True,
    seed=np.random.default_rng(seed)).random(count)`` bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(seed.spawn(1)[0]))
    columns = []
    for base in _first_primes(n):
        permutations = np.tile(np.arange(base), (math.ceil(54 / math.log2(base)) - 1, 1))
        for permutation in permutations:
            rng.shuffle(permutation)
        column = np.zeros(count)
        quotient = np.arange(count)
        weight = 1.0 / base
        for permutation in permutations:
            column += permutation[quotient % base] * weight
            quotient //= base
            weight /= base
        columns.append(column)
    return np.stack(columns, axis=1)


@lru_cache(maxsize=START_CLOUD_CACHE_SIZE)
def _start_cloud(n: int, rng_seed: int, mask: int, count: int, radius: float) -> np.ndarray:
    """Read-only scrambled Halton cloud in the box [-radius, radius]^n.

    The cloud is drawn in-package by :func:`_scrambled_halton`, equal bit
    for bit to scipy's scrambled ``qmc.Halton`` on the same seed.  The
    sequence is seeded from (rng_seed, mask) only, so the first k starts
    are a prefix of the first 2k: growing the budget never loses
    previously found roots.  The cloud depends on no instance data, so it
    is cached; at most START_CLOUD_CACHE_SIZE clouds are kept, which at
    200 starts and n = 8 is about 3.3 MB (count * n * 8 bytes each).  A
    sweep over more subsets than that draws them again.
    """
    seed = np.random.SeedSequence(entropy=[rng_seed, mask])
    cloud = (2.0 * _scrambled_halton(n, seed, count) - 1.0) * radius
    cloud.flags.writeable = False
    return cloud


def _solve_subsystems(
    inst: PcpInstance, masks: Sequence[int], cfg: SolveConfig
) -> list[np.ndarray]:
    """Roots of each index set's square system, in the order of ``masks``.

    A subset starts from its start cloud then the origin, or from the
    origin alone if its Bezout number is at most 1 (affine: one full step
    reaches its one root; a constant component: a singular Jacobian).  Damped Newton
    runs all subsets' starts end to end in slices of at most
    SWEEP_CHUNK_ROWS rows, each built as it runs; a row's result does not
    depend on its slice.  A cloud subset's converged rows are deduped
    (smallest subsystem residual first) and sorted once its last row has
    run; a one-start subset is never split, and its root is its converged
    row, a view of the kernel's result (none if the row did not converge).
    """
    if DEDUPE_RADIUS <= cfg.newton_tol:
        raise InputError("dedupe_radius must exceed newton_tol")
    n = inst.n
    on_f_sets = _mask_bits(masks, n)
    sizes = np.where(_bezout_numbers(inst, masks) <= 1, 0, cfg.starts_per_subsystem) + 1
    ends = np.cumsum(sizes)
    begins = ends - sizes

    terms = inst._pair_terms

    # each callback folds one block of the f/g table component-major and picks
    # f_i or g_i per row with one np.where on its (n, rows) branch table; the
    # fresh pick, not the fold, is transposed to the kernel's row-major shape
    def values(points, rows, on_f):  # on_f: the slice's f/g table, one column per start
        sums = terms.fold(points, terms.values)  # f_1..f_n, g_1..g_n
        return np.where(np.take(on_f, rows, axis=1), sums[:n], sums[n:]).T

    def jacobians(points, rows, on_f):
        sums = terms.fold(points, terms.jacobian).reshape(2, n, n, -1)  # (f/g, i, j, row)
        return np.where(np.take(on_f, rows, axis=1)[:, None], sums[0], sums[1]).transpose(2, 0, 1)

    def start_rows(k, low, high):  # rows low:high of the start table, all in subset k
        if sizes[k] == 1:
            return np.zeros((1, n))
        cloud = _start_cloud(n, cfg.rng_seed, int(masks[k]), sizes[k] - 1, cfg.start_box_radius)
        return np.vstack([cloud, np.zeros((1, n))])[low - begins[k]:high - begins[k]]

    roots, pending = [], []
    for first in range(0, ends[-1], SWEEP_CHUNK_ROWS):
        stop = min(first + SWEEP_CHUNK_ROWS, ends[-1])
        subsets = range(np.searchsorted(ends, first, "right"), np.searchsorted(begins, stop))
        lows, highs = np.maximum(begins[subsets], first), np.minimum(ends[subsets], stop)
        starts = np.vstack([start_rows(*bounds) for bounds in zip(subsets, lows, highs)])
        on_f = np.repeat(on_f_sets[subsets].T, highs - lows, axis=1)
        # drive well below tol so certification at tol has slack
        result = damped_newton(partial(values, on_f=on_f), partial(jacobians, on_f=on_f),
                               starts, cfg.newton_tol * 1e-2, MAX_NEWTON_ITERS)
        converged = result.alive & (result.norms <= cfg.newton_tol)
        for k, low, high in zip(subsets, lows - first, highs - first):
            if sizes[k] == 1:  # never split; a dedupe and sort of <= 1 row change nothing
                roots.append(result.points[low:high if converged[low] else low])
                continue
            keep = converged[low:high]
            pending.append((result.points[low:high][keep], result.norms[low:high][keep]))
            if first + high == ends[k]:
                points, norms = pending[0] if len(pending) == 1 else map(np.concatenate, zip(*pending))
                unique = _dedupe_points(points, norms, DEDUPE_RADIUS)
                roots.append(unique[np.lexsort(unique.T[::-1])])
                pending = []
    return roots


def solve_subsystem(
    inst: PcpInstance,
    index_set: Iterable[int],
    cfg: SolveConfig | None = None,
) -> np.ndarray:
    """Roots of the square system {f_i = 0 on I, g_j = 0 off I}.

    Multi-start damped Newton; returns deduplicated roots with subsystem
    residual below ``newton_tol``, sorted lexicographically.  An empty
    array means no root was found (which is not a certificate of
    emptiness).
    """
    mask = sum(1 << i for i in check_indices(index_set, inst.n))
    return _solve_subsystems(inst, [mask], cfg or SolveConfig())[0]


def enumerate_solutions(inst: PcpInstance, cfg: SolveConfig | None = None) -> SolutionSet:
    """Sweep all 2^n index subsets and certify the feasible roots found."""
    cfg = cfg or SolveConfig()
    n = inst.n
    check_subset_dimension(n, "enumeration")

    roots = _solve_subsystems(inst, range(1 << n), cfg)
    counts, bezout = np.array([len(r) for r in roots]), _bezout_numbers(inst, range(1 << n))
    # a zero component leaves n - 1 equations in each subset that holds it
    warnings = [f"non-isolated solutions suspected: component {i} of {name} is identically zero"
                for name, pmap in (("f", inst.f), ("g", inst.g))
                for i, component in enumerate(pmap.components) if component.is_zero]
    for k in np.flatnonzero(counts > bezout):  # a subset's isolated roots number at most B_I
        subset = ", ".join(str(i) for i in range(n) if k >> i & 1)
        warnings.append(f"non-isolated solutions suspected: subset {{{subset}}} holds "
                        f"{counts[k]} roots, above its Bezout number {bezout[k]:.0f}")
    points = np.vstack(roots)
    fx, gx = inst.evaluate_pair(points)
    feasible = sign_feasible(fx, gx, FEASIBILITY_TOL)
    residuals = residual_norms(np.minimum(fx, gx)[feasible])
    points = _dedupe_points(points[feasible], residuals, DEDUPE_RADIUS)
    certificates: list[SolutionCertificate] = []
    for point in points:
        try:
            certificates.append(certify_solution(inst, point, cfg))
        except CertificationError:
            continue
    certificates.sort(key=lambda c: tuple(c.point))

    return SolutionSet(tuple(certificates), n, cfg, completeness_claim=not warnings,
                       warnings=tuple(warnings))


def _min_abs_determinant(jac_f: np.ndarray, jac_g: np.ndarray) -> float:
    """min over index sets I of |det| of the rows jac_f on I, jac_g off I.

    The row-selected matrices of DETERMINANT_CHUNK_MASKS index sets are
    stacked into one determinant call.  NaN determinants are skipped.
    """
    n = len(jac_f)
    check_subset_dimension(n, "determinant scan")
    best = np.inf
    for first in range(0, 1 << n, DETERMINANT_CHUNK_MASKS):
        masks = np.arange(first, min(first + DETERMINANT_CHUNK_MASKS, 1 << n))
        matrices = np.where(_mask_bits(masks, n)[..., None], jac_f, jac_g)
        best = np.fmin.reduce(np.abs(np.linalg.det(matrices)), initial=best)
    return float(best)


def min_abs_subsystem_determinant(inst: PcpInstance, x) -> float:
    """min over all index sets I of |det Jac_I(x)| with rows f_i on I, g_i off I."""
    _, _, jac_f, jac_g = inst.evaluate_pair(x, jacobians=True)
    return _min_abs_determinant(jac_f, jac_g)


def certify_solution(
    inst: PcpInstance, x, cfg: SolveConfig | None = None
) -> SolutionCertificate:
    """Accept ``x`` iff its natural-residual norm is within ``newton_tol``.

    A NaN norm is rejected.  The certificate records the active index
    set, strict complementarity (min_i f_i + g_i above the feasibility
    tolerance) and the Jacobian degeneracy statistic, all from one
    evaluation of f, g and their Jacobians at ``x``.  Rejection raises
    :class:`CertificationError` carrying the residual norm.
    """
    cfg = cfg or SolveConfig()
    point = as_point(x, inst.n, "point")
    fx, gx, jac_f, jac_g = inst.evaluate_pair(point, jacobians=True)
    residual_norm = float(residual_norms(np.minimum(fx, gx))[0])
    if not residual_norm <= cfg.newton_tol:
        raise CertificationError(
            f"natural residual {residual_norm:.3e} exceeds {cfg.newton_tol:.3e}",
            residual_norm=residual_norm,
        )
    return SolutionCertificate(
        point=point.copy(),
        active_set=min_phi_of_values(fx, gx).argmin,
        residual_norm=residual_norm,
        strict_complementarity=bool(np.min(fx + gx) > FEASIBILITY_TOL),
        min_abs_det_jac=_min_abs_determinant(jac_f, jac_g),
    )


def distance_to_solutions(sols: SolutionSet, x) -> float | np.ndarray:
    """Euclidean distance from x to the listed points; exactly 1 when empty.

    Batch aware: a (m, n) input yields a (m,) vector of distances.  Points
    whose length is not the set's dimension n raise InputError, also when
    the set is empty.
    """
    pts, single = _as_points(x, sols.n)
    if len(sols) == 0:
        distances = np.ones(len(pts))
    else:
        gaps = np.linalg.norm(pts[:, None, :] - sols.points[None, :, :], axis=2)
        distances = np.min(gaps, axis=1)
    return float(distances[0]) if single else distances
