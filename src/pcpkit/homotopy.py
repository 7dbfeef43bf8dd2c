"""Continuation solvers for the natural map's existence homotopies.

One homotopy is tracked, from a start pair (p, q) to the instance (f, g):

    H(x, t) = min{(1 - t) p(x) + t f(x), (1 - t) q(x) + t g(x)},

so H(., 1) is the natural residual m.  The reference homotopy starts at
x_ref with p = q = x - x_ref; the leading-term homotopy starts at 0 with
the leading pair (f_inf, g_inf), whose min has only the root 0 when the
leading pair has only the trivial solution, read off the instance's
own compiled table (``PcpInstance.leading_pair_table``).  Paths are the
rows of one tracker, which takes H as one callback: a round makes one
active-branch semismooth Newton call (ties pick f) over the live rows,
each at its own t.  Each row's corrector starts at the secant through
its last two checkpoints, x_k + (t - t_k) / (t_k - t_{k-1}) (x_k - x_{k-1});
a row with one checkpoint, and the t = 1 polish, start at the last
point.  On an affine instance the leading homotopy is positively
homogeneous in (x, t), so its path is a ray and the secant lands on it
exactly.  A prediction outside the DIVERGENCE_NORM ball starts at the
last checkpoint instead: only the corrector's own points decide that a
path diverged.  The rows that reach t = 1 are polished in one call at
``newton_tol``; a row whose t = 1 checkpoint is already within
``newton_tol`` makes no call and ends there with 0 steps, as the polish
would.  H returns its values, and its Jacobians when asked, packed as
``PcpInstance.pair_table`` packs (f, g); so does a start pair, and the
existence homotopy is one weighted sum of two such tables.
Tracking failure is recorded as evidence, never as a certificate of
nonexistence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .documents import record_dict
from .enumeration import MAX_NEWTON_ITERS, NewtonStatus, SolveConfig, damped_newton
from .polynomials import finite_point
from .residuals import PcpInstance, active_branch, pack_pair, split_pair

CORRECTOR_TOL = 1e-8
DIVERGENCE_NORM = 1e6
STEP_INITIAL = 0.05
STEP_FLOOR = 1e-12
MAX_STEP_ATTEMPTS = 20_000
CORRECTOR_ITERS = 25


@dataclass(frozen=True)
class Checkpoint:
    """A point of the path at t, its residual and the corrector steps that reached it."""

    t: float
    x: np.ndarray
    residual: float
    steps: int

    def to_dict(self) -> dict:
        return record_dict(self)


@dataclass(frozen=True)
class HomotopyTrace:
    """Accepted checkpoints plus the terminal outcome of one tracked path.

    ``outcome`` is ``"converged"`` (t reached 1 and the natural residual
    came under ``newton_tol``), ``"diverged"`` (the path left the ball of
    radius 1e6) or ``"stalled"`` (step size hit the floor first).
    ``rejected_rounds`` counts the corrector rounds whose point was not
    accepted, the failed endpoint polish included.
    """

    # field order is the report's key order
    outcome: str
    point: np.ndarray | None
    final_t: float
    max_point_norm: float
    message: str
    rejected_rounds: int
    checkpoints: tuple[Checkpoint, ...]

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    def to_dict(self) -> dict:
        return record_dict(self)


# (p, q) at x, plus (Jp, Jq) when asked, packed as PcpInstance.pair_table packs (f, g)
StartPair = Callable[[np.ndarray, bool], np.ndarray]
# H(x, t) at the points x of the paths rows, plus H_x when asked, packed the same way
Homotopy = Callable[[np.ndarray, object, object, bool], np.ndarray]


def _existence(start: StartPair, inst: PcpInstance) -> Homotopy:
    """The existence homotopy (1 - t)(p, q) + t(f, g); t is a float or a column.

    One blend of the two packed tables weighs values and Jacobians alike.
    At t = 0, which the tracker passes as a float, it is the start pair
    alone: the instance's values are left out, as 0 * inf is nan.
    """
    def homotopy(x: np.ndarray, rows, t, jacobians: bool) -> np.ndarray:
        if isinstance(t, float) and t == 0.0:
            return start(x, jacobians)
        return (1.0 - t) * start(x, jacobians) + t * inst.pair_table(x, jacobians)
    return homotopy


def _secant_start(path: list[Checkpoint], t: float) -> np.ndarray:
    """The corrector's start at t: the secant through the path's last two checkpoints.

    A path with one checkpoint, or a round at its last checkpoint's t
    (the t = 1 polish), starts at the last point, and so does a
    prediction outside the DIVERGENCE_NORM ball: only the corrector's own
    points decide that a path diverged.
    """
    if len(path) < 2 or t == path[-1].t:
        return path[-1].x
    prev, last = path[-2], path[-1]
    guess = last.x + (t - last.t) / (last.t - prev.t) * (last.x - prev.x)
    return guess if math.sqrt(guess.dot(guess)) <= DIVERGENCE_NORM else last.x


def _track(homotopy: Homotopy, x0, cfg: SolveConfig | None) -> list:
    """Track one path per row: path r starts at t = 0 from x0[r], a root of H(., 0).

    ``homotopy(x, rows, t, jacobians)`` is H at the points x, whose paths
    are ``rows``: an array with one path per point, or one path for all of
    them.  t is a float when every point shares it (a one-row round, and
    t = 0) and a column with one t per point otherwise.  The rows that
    reach t = 1 share one polish call at ``newton_tol``; a row whose t = 1
    checkpoint residual is already at most ``newton_tol`` is left out of
    it and converges at that checkpoint, re-recorded with 0 steps: the
    polish would re-evaluate the same point at t = 1 and stop.
    """
    x, newton_tol = np.array(x0, dtype=float), (cfg or SolveConfig()).newton_tol
    n = x.shape[1]
    # math.sqrt(v.dot(v)) is np.linalg.norm's own formula for a vector, minus its dispatch
    h0 = np.minimum(*split_pair(homotopy(x, np.arange(len(x)), 0.0, False), n))
    checkpoints = [[Checkpoint(0.0, xr.copy(), math.sqrt(hr.dot(hr)), 0)] for xr, hr in zip(x, h0)]
    # a row's last checkpoint holds its x and t; ``done`` maps a finished row to its end
    max_norm, step, done = [math.sqrt(xr.dot(xr)) for xr in x], [STEP_INITIAL] * len(x), {}
    rejected = [0] * len(x)

    def advance(rows: list[int], polish: bool) -> None:
        # one corrector call over the rows, each at its own next t, then each row's step rule
        t_rows = [1.0 if polish else min(1.0, checkpoints[r][-1].t + step[r]) for r in rows]
        tol, iters = (newton_tol, MAX_NEWTON_ITERS) if polish else (CORRECTOR_TOL, CORRECTOR_ITERS)

        def at_t(pts, at, jacobians):  # a one-row round passes its path and t for every point
            paths_t = ((rows[0], t_rows[0]) if len(rows) == 1
                       else (np.take(rows, at), np.array(t_rows)[at, None]))
            return split_pair(homotopy(pts, *paths_t, jacobians), n)
        result = damped_newton(lambda pts, at: np.minimum(*at_t(pts, at, False)),
                               lambda pts, at: active_branch(*at_t(pts, at, True))[1],
                               np.array([_secant_start(checkpoints[r], t)
                                         for r, t in zip(rows, t_rows)]), tol, iters,
                               escape_norm=DIVERGENCE_NORM)
        for r, t_row, point, residual, code, iterations in zip(
                rows, t_rows, result.points, *(a.tolist() for a in result[1:])):
            if code == NewtonStatus.ESCAPED:
                max_norm[r] = max(max_norm[r], math.sqrt(point.dot(point)))
                done[r] = ("diverged", None, f"endpoint polish left the {DIVERGENCE_NORM:.0e} ball"
                           if polish else f"path norm exceeded {DIVERGENCE_NORM:.0e}")
            elif code != NewtonStatus.CONVERGED:
                rejected[r] += 1
                step[r] *= 0.5
                if polish or step[r] < STEP_FLOOR:
                    done[r] = ("stalled", None, "endpoint polish failed" if polish
                               else "step size hit the floor")
            else:
                max_norm[r] = max(max_norm[r], math.sqrt(point.dot(point)))
                if polish:  # the polish refines the t = 1 checkpoint in place
                    checkpoints[r].pop()
                    done[r] = ("converged", point.copy(), "")
                checkpoints[r].append(Checkpoint(t_row, point.copy(), residual, iterations))
                step[r] *= 2.0 if iterations <= 3 else 1.0

    for _attempt in range(MAX_STEP_ATTEMPTS):
        if not (live := [r for r, c in enumerate(checkpoints) if r not in done and c[-1].t < 1]):
            break
        advance(live, polish=False)
    else:
        for r in live:
            done.setdefault(r, ("stalled", None, "step attempt budget exhausted"))
    # polish the endpoints down to the certification tolerance; H(., 1) is m,
    # so a converged polish has natural residual norm at most newton_tol.  A
    # polish from a checkpoint already within it would re-evaluate that point
    # at t = 1 and stop at once, so the row ends there with 0 steps instead.
    for r in range(len(x)):
        if r not in done and (last := checkpoints[r][-1]).residual <= newton_tol:
            checkpoints[r][-1] = replace(last, steps=0)
            done[r] = ("converged", last.x.copy(), "")
    if rows := [r for r in range(len(x)) if r not in done]:
        advance(rows, polish=True)
    return [HomotopyTrace(*done[r][:2], c[-1].t, max_norm[r], done[r][2], rejected[r], tuple(c))
            for r, c in enumerate(checkpoints)]


def track_natural_homotopy(
    inst: PcpInstance, x_ref, cfg: SolveConfig | None = None
) -> HomotopyTrace:
    """Track (1 - t)(x - x_ref) + t m(x) from its exact root at t = 0.

    The start pair is p = q = x - x_ref, and a non-finite x_ref is
    refused with :class:`InputError`.  Convergence of the path is
    evidence for solvability under the reference-point boundedness
    hypothesis; divergence is evidence against the hypothesis, not a
    proof of nonexistence.
    """
    reference = finite_point(x_ref, inst.n, "x_ref")
    eye = np.eye(inst.n)

    def start(x: np.ndarray, jacobians: bool) -> np.ndarray:
        shift = x - reference
        return pack_pair(shift, shift, eye, eye) if jacobians else pack_pair(shift, shift)

    return _track(_existence(start, inst), [reference], cfg)[0]


def track_leading_homotopy(
    inst: PcpInstance, cfg: SolveConfig | None = None
) -> HomotopyTrace:
    """Deform the leading-pair min map into the natural map, from x = 0.

    The start pair is (f_inf, g_inf), whose min has the trivial root;
    under the leading-pair regularity hypothesis the zero paths stay
    bounded and the endpoint solves the full problem.  Lower-order
    perturbations of the instance leave the t = 0 system unchanged.  The
    pair is ``inst.leading_pair_table``, equal bit for bit to
    ``inst.leading_pair.pair_table``, so ``leading_pair`` is neither
    built nor compiled.
    """
    return _track(_existence(inst.leading_pair_table, inst), [np.zeros(inst.n)], cfg)[0]
