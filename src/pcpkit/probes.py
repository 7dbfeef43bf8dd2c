"""Probes for the asymptotic hypotheses behind solvability.

Each probe checks a universally quantified hypothesis and returns a
:class:`ProbeReport`.  The R0 test first decides the hypothesis exactly
by a rank test of each subset's Macaulay matrix; where that test
certifies, its pass is a proof up to the stated rounding threshold, and
the report names the certificate.  Everything else is decided by seeded
sampling (plus local refinement where it pays off), and a passing
verdict of a sampled probe is *evidence*, never proof.  A counterexample
verdict carries a witness that has been re-evaluated against the probed
predicate before being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import empirical_exponent_fit
from .documents import record_dict
from .enumeration import STEP_SCALES, SolutionSet, _mask_bits, first_lowering
from .exceptions import EmptyRegionError, InputError
from .polynomials import degree_columns, exponents_of_degree, finite_point, macaulay_rows
from .residuals import (
    PcpInstance,
    active_branch,
    as_region,
    check_positive,
    natural_map,
    natural_residual_norm,
    residual_norms,
    sample_box,
    sign_feasible,
    unit_sphere,
)

R0_TOL = 1e-8
# a subset's Macaulay matrix has full rank when sigma_min / sigma_max exceeds
# R0_RANK_FACTOR * max(rows, columns) * eps (see _rank_test)
R0_RANK_FACTOR = 10.0
# the rank test runs while the 2^n subset matrices hold at most this many columns in all
R0_RANK_MAX_COLUMNS = 1000
# r0_shifted_pair_probe adds this to every component of g_inf
R0_SHIFT = 1.0
# the sphere radii r0_shifted_pair_probe scans: the shifted condition is not scale invariant
R0_SHIFT_RADII = (0.25, 0.5, 1.0, 2.0, 4.0)
# karamardian_coercivity_probe samples radii up to this multiple of max(1, ||m(0)||/c)
KARAMARDIAN_RADIUS_FACTOR = 10.0
DEGENERACY_TOL = 1e-8
COERCIVITY_VANISH_TOL = 1e-10
# projected-descent iterations per sphere minimum of coercivity_probe
COERCIVITY_REFINE_ITERS = 60
# fitted growth exponents at or below this are flagged as "no coercive growth"
GROWTH_FLAG_THRESHOLD = 0.25
P_FUNCTION_POSITIVE_TOL = 1e-9
MAX_REJECTIONS = 10**6


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one hypothesis probe.

    ``verdict`` is ``"evidence-pass"`` or ``"counterexample"``; in the
    latter case ``witness`` holds the violating point(s) and the
    re-evaluated violating value.  ``statistics`` carries probe-specific
    summaries (minima, fitted exponents, flags) and ``config`` echoes
    everything needed to reproduce the run.
    """

    probe: str
    verdict: str
    witness: dict | None
    samples_used: int
    statistics: dict
    config: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "evidence-pass"

    def to_dict(self) -> dict:
        return record_dict(self)


def _report(
    probe: str, witness: dict | None, samples_used: int, statistics: dict, config: dict
) -> ProbeReport:
    """A report whose verdict follows its witness: none means a pass."""
    verdict = "evidence-pass" if witness is None else "counterexample"
    return ProbeReport(probe, verdict, witness, samples_used, statistics, config)


def _refine_on_sphere(
    pair: PcpInstance, starts: np.ndarray, radii: np.ndarray, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent for ||min{f, g}||^2, row k on the sphere radii[k].

    Returns the refined points and the ||m|| the descent tracks for them.
    Each row steps along its tangential gradient by the first of
    step * STEP_SCALES whose projected point lowers ||m||; the step
    starts at 0.1 * R and grows by 1.5 when taken.  A row stops at a
    gradient norm below 1e-16 or when no scale lowers ||m||.  All rows,
    and all of a row's scales, are evaluated together: the full step
    seldom lowers ||m|| here, so trying it first would only add a call.
    """
    x = starts * (radii / residual_norms(starts))[:, None]
    value = natural_residual_norm(pair, x)
    step = 0.1 * radii
    live = np.arange(len(x))
    for _ in range(iters):
        points, radius = x[live], radii[live]
        m, jac = active_branch(*pair.evaluate_pair(points, jacobians=True))
        gradient = 2.0 * np.einsum("kij,ki->kj", jac, m)
        # tangential component only: stay on the sphere
        gradient -= (np.einsum("kj,kj->k", gradient, points) / radius**2)[:, None] * points
        norm = residual_norms(gradient)
        moving = norm >= 1e-16
        live, points, radius = live[moving], points[moving], radius[moving]
        if not live.size:
            break
        direction = gradient[moving] / norm[moving, None]
        steps = step[live, None] * STEP_SCALES
        trials = points[:, None, :] - steps[..., None] * direction[:, None, :]
        trials *= (radius[:, None] / residual_norms(trials))[..., None]
        trial_values = natural_residual_norm(pair, trials.reshape(-1, pair.n)).reshape(steps.shape)
        pick = first_lowering(trial_values, value[live])
        live = live[pick[0]]
        x[live], value[live], step[live] = trials[pick], trial_values[pick], 1.5 * steps[pick]
    return x, value


def _sphere_minima(
    pair: PcpInstance, radii: Sequence[float], samples: int, keep: int, iters: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least ||m|| found on each sphere: (points, values, every sample's norm).

    Every radius's samples come from one ``unit_sphere`` draw, the same
    stream as one draw per radius.  The ``keep`` lowest samples of every
    radius are refined in one :func:`_refine_on_sphere` call; a radius
    reports its best sample unless a refined point is strictly lower.
    """
    radii = np.asarray(radii, dtype=float)
    count, n = len(radii), pair.n
    points = unit_sphere(rng, count * samples, n).reshape(count, samples, n) * radii[:, None, None]
    norms = natural_residual_norm(pair, points.reshape(-1, n)).reshape(count, samples)
    order = np.argsort(norms, axis=1, kind="stable")[:, :keep]
    starts = np.take_along_axis(points, order[..., None], axis=1)
    keep = order.shape[1]
    refined, phi = _refine_on_sphere(pair, starts.reshape(-1, n), np.repeat(radii, keep), iters)
    refined, phi = refined.reshape(count, keep, n), phi.reshape(count, keep)
    rows, best = np.arange(count), np.argmin(phi, axis=1)
    sampled = norms[rows, order[:, 0]]
    lower = phi[rows, best] < sampled
    values = np.where(lower, phi[rows, best], sampled)
    return np.where(lower[:, None], refined[rows, best], starts[:, 0]), values, norms


def _macaulay_matrices(pair: PcpInstance, on_f: np.ndarray) -> np.ndarray:
    """Row-normalised Macaulay matrices of subsets whose picked forms share their degrees.

    Row k of ``on_f`` picks f_i (True) or g_i per component i.  Subset k's
    matrix stacks the picked forms' :func:`macaulay_rows` at degree
    D = sum(d_i - 1) + 1, in component order.  Every row of a form holds
    exactly its coefficients, so dividing by their norm gives unit rows
    (``math.hypot``, which neither overflows nor underflows).
    Each used form's rows are built once; one ``np.where`` picks them for
    every subset, as ``enumeration._min_abs_determinant`` picks its rows.
    """
    degrees = np.where(on_f[0], pair.f.component_degrees, pair.g.component_degrees)
    total = int(degrees.sum()) - len(degrees) + 1

    def rows(form):
        return macaulay_rows(form, total) / math.hypot(*form.terms.values())

    f_rows, g_rows = [], []
    for f, g, f_used, g_used in zip(
        pair.f.components, pair.g.components, on_f.any(axis=0), ~on_f.all(axis=0)
    ):
        # a component that every subset picks one way gets that form's rows on both sides
        block_f = rows(f) if f_used else None
        block_g = rows(g) if g_used else block_f
        f_rows.append(block_g if block_f is None else block_f)
        g_rows.append(block_g)
    owner = np.repeat(np.arange(len(f_rows)), [len(block) for block in f_rows])
    return np.where(on_f[:, owner, None], np.vstack(f_rows), np.vstack(g_rows))


def _null_direction(matrix: np.ndarray, n: int, total: int) -> np.ndarray:
    """The zero z, up to scale, of a subset system whose Macaulay matrix has nullity 1.

    Its null vector v is then the monomial vector (z^beta) of one simple
    real zero, since a complex zero would bring its conjugate.  With
    beta* = argmax |v| and j with beta*_j > 0, z_k = v[beta* - e_j + e_k]
    up to the factor z_j.  Returned with norm 1 and z_j > 0.
    """
    v = np.linalg.svd(matrix)[2][-1]
    top = np.array(exponents_of_degree(n, total)[int(np.argmax(np.abs(v)))])
    j = int(np.argmax(top > 0))
    unit = np.eye(n, dtype=top.dtype)
    z = v[degree_columns(top - unit[j] + unit, total)]
    return z * (np.sign(z[j]) / np.linalg.norm(z)) + 0.0  # + 0.0 turns -0.0 into 0.0


def _ray_witness(pair: PcpInstance, point: np.ndarray, norm: float) -> dict | None:
    """The R0 witness rule: a unit point with ||min{f, g}|| <= R0_TOL and feasible signs."""
    if norm <= R0_TOL and sign_feasible(*pair.evaluate_pair(point), R0_TOL):
        return {
            "point": [float(v) for v in point],
            "residual_norm": norm,
            "note": "scales to a nonzero solution ray of the leading pair",
        }
    return None


def _rank_test(pair: PcpInstance) -> tuple[str, float | None, dict | None]:
    """The resultant test of R0 on a leading pair: (outcome, least margin, witness).

    Subset I's system {f_i on I, g_i off I} is n forms in n variables.  It
    has a nonzero complex zero exactly when its resultant vanishes, that
    is when its homogeneous Macaulay matrix (:func:`_macaulay_matrices`)
    loses column rank (Macaulay 1902; Cox, Little and O'Shea, *Using
    Algebraic Geometry*, Ch. 3).  The margin of a subset is
    sigma_min / sigma_max of its matrix; scaling a form scales no unit
    row, so margins do not see positive rescaling.  The SVD is backward
    stable: its singular values are those of the matrix plus a
    perturbation of norm about p(rows, cols) * eps * sigma_max with p a
    modest multiple of max(rows, cols); the rounding of the unit rows
    adds at most eps per entry.  A margin above R0_RANK_FACTOR *
    max(rows, cols) * eps thus proves full rank with a factor-10 safety
    margin over that bound.

    The outcome is ``"resultant"`` when every subset has full rank: then
    no nonzero complex point solves any subset system, and the leading
    pair has only the trivial solution.  It is ``"resultant null
    vector"`` when a subset of nullity 1 gives a direction (see
    :func:`_null_direction`) that passes :func:`_ray_witness`, tried with
    both signs, subsets in mask order.  Otherwise it names why the test
    is inconclusive: a zero leading form (every subset holding it is
    rank deficient by construction and is not built), a rank-deficient
    subset with no witness, or the column cap R0_RANK_MAX_COLUMNS.
    """
    n = pair.n
    # every subset matrix has at least n columns: refuse before building 2^n masks
    if (1 << n) * n > R0_RANK_MAX_COLUMNS:
        return "above the column cap", None, None
    on_f = _mask_bits(np.arange(1 << n), n)
    zero = [[p.is_zero for p in side.components] for side in (pair.f, pair.g)]
    masks = np.flatnonzero(~np.where(on_f, *zero).any(axis=1))
    degrees = np.where(on_f[masks], pair.f.component_degrees, pair.g.component_degrees)
    patterns, groups = np.unique(degrees, axis=0, return_inverse=True)
    groups = groups.reshape(-1)
    totals = patterns.sum(axis=1) - n + 1
    columns = sum(np.count_nonzero(groups == k) * math.comb(int(t) + n - 1, n - 1)
                  for k, t in enumerate(totals))
    if columns > R0_RANK_MAX_COLUMNS:
        return "above the column cap", None, None

    margins, deficient = np.empty(len(masks)), []
    for k, total in enumerate(totals):
        group = np.flatnonzero(groups == k)
        matrices = _macaulay_matrices(pair, on_f[masks[group]])
        sigma = np.linalg.svd(matrices, compute_uv=False)
        threshold = R0_RANK_FACTOR * max(matrices.shape[1:]) * np.finfo(float).eps
        margins[group] = sigma[:, -1] / sigma[:, 0]
        nullity = np.count_nonzero(sigma <= threshold * sigma[:, :1], axis=1)
        deficient += [(masks[m], matrix, int(total), nullity_m)
                      for m, matrix, nullity_m in zip(group, matrices, nullity) if nullity_m]
    least = float(margins.min()) if len(masks) else None
    built_all = len(masks) == 1 << n
    if built_all and not deficient:
        return "resultant", least, None
    for _, matrix, total, nullity in sorted(deficient, key=lambda entry: entry[0]):
        if nullity == 1:
            z = _null_direction(matrix, n, total)
            for point in (z, -z):
                witness = _ray_witness(pair, point, natural_residual_norm(pair, point))
                if witness is not None:
                    return "resultant null vector", least, witness
    return ("rank deficient" if built_all else "a zero leading form"), least, None


def r0_test(
    inst: PcpInstance,
    samples: int = 2048,
    refine_iters: int = 200,
    seed: int = 0,
    componentwise: bool = False,
) -> ProbeReport:
    """Decide whether the leading pair admits only the trivial solution.

    The resultant test (:func:`_rank_test`) runs first, with no sampling.
    When every subset system of the leading pair has a full-rank Macaulay
    matrix, the pass is certified: ``statistics["certificate"]`` is
    ``"resultant"`` with the least margin, and ``samples_used`` is 0.
    When a subset of nullity 1 yields a witness direction, that is the
    counterexample (``"resultant null vector"``).  Both verdicts are
    invariant under positive rescaling of f and g.

    Otherwise (``"resultant inconclusive"``, with the reason) the sampled
    search decides: it minimizes ||min{f_inf, g_inf}|| over the unit
    sphere by seeded sampling and projected gradient refinement of the
    best candidates.  A sphere point with residual norm at most R0_TOL
    and feasible signs is a counterexample witness (it scales to a
    nonzero solution ray of the leading pair); otherwise the attained
    minimum is the pass evidence.  This search can miss a witness once
    the scales of f and g differ by a factor of 1e3 or more.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if refine_iters < 0:
        raise InputError("refine_iters must be >= 0")
    pair = inst.componentwise_leading_pair if componentwise else inst.leading_pair
    config = {
        "samples": samples,
        "refine_iters": refine_iters,
        "seed": seed,
        "componentwise": componentwise,
        "tol": R0_TOL,
    }
    outcome, margin, witness = _rank_test(pair)
    if outcome in ("resultant", "resultant null vector"):
        statistics = {"certificate": outcome, "min_margin": margin}
        return _report("r0", witness, 0, statistics, config)

    rng = np.random.default_rng(seed)
    points, values, norms = _sphere_minima(pair, [1.0], samples, 16, refine_iters, rng)
    best_point, best_norm = points[0], float(values[0])
    statistics = {
        "certificate": "resultant inconclusive",
        "inconclusive_reason": outcome,
        "min_margin": margin,
        "min_residual_on_sphere": best_norm,
        "max_sampled_residual": float(norms.max()),
    }
    return _report("r0", _ray_witness(pair, best_point, best_norm), samples, statistics, config)


def r0_shifted_pair_probe(
    inst: PcpInstance,
    samples: int = 2048,
    refine_iters: int = 200,
    seed: int = 0,
    componentwise: bool = False,
) -> ProbeReport:
    """Combined check: leading pair alone and with a positive shift of g.

    Runs the trivial-solution probe on (f_inf, g_inf) and then scans
    the spheres of radii R0_SHIFT_RADII for nonzero solutions of the
    inhomogeneous pair (f_inf, g_inf + R0_SHIFT).  The shifted condition
    is not scale invariant, hence the multi-radius scan.
    """
    base = r0_test(inst, samples, refine_iters, seed, componentwise)
    pair = inst.componentwise_leading_pair if componentwise else inst.leading_pair
    shift = np.full(inst.n, R0_SHIFT)
    shifted = PcpInstance(pair.f, pair.g.plus_constant(shift))

    rng = np.random.default_rng(seed + 1)
    points, values, _ = _sphere_minima(shifted, R0_SHIFT_RADII, samples, 1, refine_iters, rng)
    k = int(np.argmin(values))
    best_point, best_norm = points[k], float(values[k])
    total = samples * len(R0_SHIFT_RADII)

    config = {
        "samples": samples,
        "refine_iters": refine_iters,
        "seed": seed,
        "componentwise": componentwise,
        "shift": [float(v) for v in shift],
        "radii": [float(r) for r in R0_SHIFT_RADII],
    }
    statistics = {
        "base_verdict": base.verdict,
        "base_certificate": base.statistics["certificate"],
        "shifted_min_residual": best_norm,
    }
    witness = base.witness
    if witness is None and best_norm <= R0_TOL:
        witness = {
            "point": [float(v) for v in best_point],
            "residual_norm": best_norm,
            "note": "nonzero solution of the positively shifted leading pair",
        }
    return _report("r0-shifted-pair", witness, base.samples_used + total, statistics, config)


def coercivity_probe(
    inst: PcpInstance,
    radii: Sequence[float],
    samples_per_radius: int = 512,
    seed: int = 0,
) -> ProbeReport:
    """Estimate the growth of the sphere minimum of the natural residual.

    For each radius R the probe estimates phi(R) = min over the sphere of
    ||m(x)|| (sampling, then COERCIVITY_REFINE_ITERS refinement steps) and
    fits log phi against log R, reporting the fitted constant and exponent.
    A radius where phi collapses below 1e-10 is a counterexample (the
    residual nearly vanishes far out); a fitted exponent at or below the
    growth-flag threshold marks the absence of coercive growth.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 2:
        raise InputError("need at least two radii")
    for r in radii:
        check_positive("radii", r)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly increasing")
    if samples_per_radius < 1:
        raise InputError("samples_per_radius must be >= 1")
    rng = np.random.default_rng(seed)
    points, phi, _ = _sphere_minima(
        inst, radii, samples_per_radius, 1, COERCIVITY_REFINE_ITERS, rng
    )
    witness = None
    vanished = np.flatnonzero(phi <= COERCIVITY_VANISH_TOL)
    if vanished.size:
        k = int(vanished[0])
        witness = {
            "radius": radii[k],
            "point": [float(v) for v in points[k]],
            "residual_norm": float(phi[k]),
        }

    # radii are positive and increasing and phi is floored: the fit refuses nothing
    fit = empirical_exponent_fit(np.column_stack([radii, np.maximum(phi, 1e-300)]))
    fitted_c = float(np.exp(fit.intercept))
    fitted_alpha = fit.slope

    config = {
        "radii": radii,
        "samples_per_radius": samples_per_radius,
        "seed": seed,
        "refine_iters": COERCIVITY_REFINE_ITERS,
    }
    statistics = {
        "phi_by_radius": [float(v) for v in phi],
        "fitted_c": fitted_c,
        "fitted_alpha": fitted_alpha,
        "no_coercive_growth": bool(fitted_alpha <= GROWTH_FLAG_THRESHOLD),
    }
    return _report("coercivity", witness, samples_per_radius * len(radii), statistics, config)


def xref_boundedness_probe(
    inst: PcpInstance,
    x_ref,
    radius: float,
    samples: int = 2048,
    use_leading: bool = False,
    seed: int = 0,
) -> ProbeReport:
    """Check <x - x_ref, m(x)> > 0 on a sampled sphere of the given radius.

    With ``use_leading`` the leading-pair min map replaces m.  A non-finite
    x_ref is refused; any sample with a nonpositive pairing is a witness.
    """
    check_positive("radius", radius)
    if samples < 1:
        raise InputError("samples must be >= 1")
    reference = finite_point(x_ref, inst.n, "x_ref")
    pair = inst.leading_pair if use_leading else inst
    rng = np.random.default_rng(seed)

    points = unit_sphere(rng, samples, inst.n) * radius
    values = np.einsum("ij,ij->i", points - reference[None, :], natural_map(pair, points))
    worst = int(np.argmin(values))

    config = {
        "x_ref": [float(v) for v in reference],
        "radius": float(radius),
        "samples": samples,
        "use_leading": use_leading,
        "seed": seed,
    }
    statistics = {
        "min_pairing": float(values[worst]),
        "max_pairing": float(values.max()),
    }
    witness = None
    if values[worst] <= 0.0:
        point = points[worst]
        # re-evaluate the witness against the predicate before reporting
        pairing = float((point - reference) @ natural_map(pair, point))
        witness = {"point": [float(v) for v in point], "pairing": pairing}
    return _report("xref-boundedness", witness, samples, statistics, config)


def karamardian_coercivity_probe(
    inst: PcpInstance,
    c: float,
    samples: int = 10_000,
    seed: int = 0,
) -> ProbeReport:
    """Check <x, m(x) - m(0)> >= c||x||^2 outside the ball ||x|| <= ||m(0)||/c.

    Samples log-spaced radii in (||m(0)||/c, KARAMARDIAN_RADIUS_FACTOR *
    max(1, .)] with random directions.  A sample violating the inequality
    beyond the relative float guard is a counterexample witness.
    """
    check_positive("c", c)
    if samples < 1:
        raise InputError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = inst.n
    m0 = natural_map(inst, np.zeros(n))
    inner_radius = float(np.linalg.norm(m0)) / c
    low = inner_radius * (1.0 + 1e-9) if inner_radius > 0 else 1e-6
    high = max(1.0, inner_radius) * KARAMARDIAN_RADIUS_FACTOR

    directions = unit_sphere(rng, samples, n)
    radii = np.exp(rng.uniform(np.log(low), np.log(high), size=samples))
    points = directions * radii[:, None]
    margins = (
        np.einsum("ij,ij->i", points, natural_map(inst, points) - m0[None, :])
        - c * radii**2
    )
    guard = 1e-9 * np.maximum(1.0, c * radii**2)
    worst = int(np.argmin(margins + guard))

    config = {
        "c": float(c),
        "samples": samples,
        "seed": seed,
        "radius_factor": KARAMARDIAN_RADIUS_FACTOR,
        "inner_radius": inner_radius,
    }
    statistics = {
        "min_margin": float(margins[worst]),
        "max_margin": float(margins.max()),
    }
    witness = None
    if margins[worst] < -guard[worst]:
        point = points[worst]
        margin = float(point @ (natural_map(inst, point) - m0) - c * (point @ point))
        witness = {"point": [float(v) for v in point], "margin": margin}
    return _report("karamardian-coercivity", witness, samples, statistics, config)


def jacobian_degeneracy_scan(sols: SolutionSet) -> ProbeReport:
    """Scan a solution set's certificates for a vanishing index-set Jacobian determinant.

    A solution where min_I |det Jac_I| falls at or below DEGENERACY_TOL is
    degeneracy evidence (the necessary condition for an unbounded
    solution set fires there) and is reported as a counterexample to
    nondegeneracy.
    """
    values = []
    flagged = []
    for certificate in sols.certificates:
        value = certificate.min_abs_det_jac
        values.append(value)
        if value <= DEGENERACY_TOL:
            flagged.append(
                {
                    "point": [float(v) for v in certificate.point],
                    "min_abs_det_jac": value,
                }
            )
    config = {"threshold": DEGENERACY_TOL, "solutions": len(sols)}
    statistics = {
        "min_abs_det_by_solution": values,
        "flagged_count": len(flagged),
    }
    witness = {"flagged": flagged} if flagged else None
    return _report("jacobian-degeneracy", witness, len(sols), statistics, config)


def _feasible_region_samples(
    inst: PcpInstance, region: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Rejection-sample points of the region with f >= 0 and g >= 0."""
    accepted: list[np.ndarray] = []
    total = 0
    rejected = 0
    batch = max(256, count)
    while total < count:
        draw = sample_box(rng, region, batch)
        fx, gx = inst.evaluate_pair(draw)
        kept = draw[sign_feasible(fx, gx, 0.0)]
        rejected += batch - len(kept)
        if rejected > MAX_REJECTIONS:
            raise EmptyRegionError(
                f"no feasible region samples after {MAX_REJECTIONS} rejections"
            )
        if len(kept):
            accepted.append(kept)
            total += len(kept)
    return np.vstack(accepted)[:count]


def p_function_probe(
    inst: PcpInstance,
    region,
    pairs: int = 1000,
    seed: int = 0,
) -> ProbeReport:
    """Probe the pairwise sign condition behind uniqueness of solutions.

    Samples pairs (x, y) of distinct feasible points (f >= 0, g >= 0) of
    the region and checks that some index i has
    (f_i(x) - f_i(y))(g_i(x) - g_i(y)) > 0 beyond the float guard.  A
    pair with no such index is a counterexample: two solutions could then
    coexist.
    """
    if pairs < 1:
        raise InputError("pairs must be >= 1")
    box = as_region(region, inst.n)
    rng = np.random.default_rng(seed)
    xs = _feasible_region_samples(inst, box, pairs, rng)
    ys = _feasible_region_samples(inst, box, pairs, rng)
    identical = np.all(xs == ys, axis=1)
    if np.any(identical):
        ys[identical] = _feasible_region_samples(inst, box, int(identical.sum()), rng)
    (fx, gx), (fy, gy) = inst.evaluate_pair(xs), inst.evaluate_pair(ys)
    max_products = np.max((fx - fy) * (gx - gy), axis=1)
    failing = np.flatnonzero(max_products <= P_FUNCTION_POSITIVE_TOL)

    config = {
        "region": [[float(a), float(b)] for a, b in box],
        "pairs": pairs,
        "seed": seed,
        "positive_tol": P_FUNCTION_POSITIVE_TOL,
    }
    statistics = {
        "checked_pairs": pairs,
        "min_of_max_products": float(max_products.min()),
    }
    witness = None
    if failing.size:
        k = int(failing[0])
        witness = {
            "x": [float(v) for v in xs[k]],
            "y": [float(v) for v in ys[k]],
            "max_product": float(max_products[k]),
        }
    return _report("p-function", witness, 2 * pairs, statistics, config)
