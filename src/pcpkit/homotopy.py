"""Continuation solvers for the natural map's existence homotopies.

One homotopy is tracked, from a start pair (p, q) to the instance (f, g):

    H(x, t) = min{(1 - t) p(x) + t f(x), (1 - t) q(x) + t g(x)},

so H(., 1) is the natural residual m.  The two existence paths differ
only in their start pair and start point: the reference homotopy takes
p = q = x - x_ref from x_ref (H is then (1 - t)(x - x_ref) + t m(x)),
and the leading-term homotopy takes the leading pair (f_inf, g_inf) from
0, the unique root of min{f_inf, g_inf} when the leading pair has only
the trivial solution.  The corrector is an active-branch semismooth
Newton step on the blended pair (ties pick the f side).  Tracking
failure is recorded as evidence, never as a certificate of nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .enumeration import MAX_NEWTON_ITERS, NewtonStatus, SolveConfig, damped_newton
from .polynomials import as_point
from .residuals import PcpInstance, active_branch

CORRECTOR_TOL = 1e-8
DIVERGENCE_NORM = 1e6
STEP_INITIAL = 0.05
STEP_FLOOR = 1e-12
MAX_STEP_ATTEMPTS = 20_000
CORRECTOR_ITERS = 25


@dataclass(frozen=True)
class Checkpoint:
    t: float
    x: np.ndarray
    residual: float

    def to_dict(self) -> dict:
        return {"t": self.t, "x": [float(v) for v in self.x], "residual": self.residual}


@dataclass(frozen=True)
class HomotopyTrace:
    """Accepted checkpoints plus the terminal outcome of one tracked path.

    ``outcome`` is ``"converged"`` (t reached 1 and the natural residual
    came under ``newton_tol``), ``"diverged"`` (the path left the ball of
    radius 1e6) or ``"stalled"`` (step size hit the floor first).
    """

    checkpoints: tuple[Checkpoint, ...]
    outcome: str
    point: np.ndarray | None
    final_t: float
    max_point_norm: float
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "point": None if self.point is None else [float(v) for v in self.point],
            "final_t": self.final_t,
            "max_point_norm": self.max_point_norm,
            "message": self.message,
            "checkpoints": [c.to_dict() for c in self.checkpoints],
        }


# (p, q) at x, plus (Jp, Jq) when asked, as PcpInstance.evaluate_pair returns them
StartPair = Callable[[np.ndarray, bool], tuple[np.ndarray, ...]]


def _blend(start: StartPair, inst: PcpInstance, x: np.ndarray, t: float,
           jacobians: bool) -> list[np.ndarray]:
    """(1-t)(p, q) + t(f, g) at x, plus their Jacobians with ``jacobians``."""
    pairs = zip(start(x, jacobians), inst.evaluate_pair(x, jacobians))
    return [(1.0 - t) * a + t * b for a, b in pairs]


def _correct(start: StartPair, inst: PcpInstance, x: np.ndarray, t: float, tol: float,
             max_iters: int) -> tuple[np.ndarray, float, int, NewtonStatus]:
    """Semismooth Newton on H(., t): the point, its residual, accepted steps, status."""
    result = damped_newton(
        lambda pts, rows: np.minimum(*_blend(start, inst, pts, t, False)),
        lambda pts, rows: active_branch(*_blend(start, inst, pts, t, True))[1],
        x[None, :], tol, max_iters, escape_norm=DIVERGENCE_NORM,
    )
    return (result.points[0], float(result.norms[0]), int(result.steps[0]),
            NewtonStatus(result.status[0]))


def _track(start: StartPair, inst: PcpInstance, x0: np.ndarray,
           cfg: SolveConfig) -> HomotopyTrace:
    x = np.asarray(x0, dtype=float).copy()
    # H(., 0) is min{p, q}; the instance's values are left out, as 0 * inf is nan
    checkpoints = [Checkpoint(0.0, x.copy(), float(np.linalg.norm(np.minimum(*start(x, False)))))]
    max_norm = float(np.linalg.norm(x))
    t = 0.0
    step = STEP_INITIAL

    def finish(outcome: str, point=None, message: str = "") -> HomotopyTrace:
        return HomotopyTrace(
            checkpoints=tuple(checkpoints),
            outcome=outcome,
            point=point,
            final_t=t,
            max_point_norm=max_norm,
            message=message,
        )

    for _attempt in range(MAX_STEP_ATTEMPTS):
        if t >= 1.0:
            break
        t_next = min(1.0, t + step)
        point, residual, iterations, status = _correct(
            start, inst, x, t_next, CORRECTOR_TOL, CORRECTOR_ITERS
        )
        if status == NewtonStatus.ESCAPED:
            max_norm = max(max_norm, float(np.linalg.norm(point)))
            return finish("diverged", message=f"path norm exceeded {DIVERGENCE_NORM:.0e}")
        if status != NewtonStatus.CONVERGED:
            step *= 0.5
            if step < STEP_FLOOR:
                return finish("stalled", message="step size hit the floor")
            continue
        x, t = point, t_next
        max_norm = max(max_norm, float(np.linalg.norm(x)))
        checkpoints.append(Checkpoint(t, x.copy(), residual))
        if iterations <= 3:
            step *= 2.0
    else:
        return finish("stalled", message="step attempt budget exhausted")

    # polish the endpoint down to the certification tolerance; H(., 1) is m,
    # so a converged polish has natural residual norm at most newton_tol
    point, residual, _, status = _correct(start, inst, x, 1.0, cfg.newton_tol, MAX_NEWTON_ITERS)
    if status == NewtonStatus.ESCAPED:
        max_norm = max(max_norm, float(np.linalg.norm(point)))
        return finish("diverged", message=f"endpoint polish left the {DIVERGENCE_NORM:.0e} ball")
    if status != NewtonStatus.CONVERGED:
        return finish("stalled", message="endpoint polish failed")
    max_norm = max(max_norm, float(np.linalg.norm(point)))
    # the last checkpoint is at t = 1; the polish refines it in place (t stays
    # strictly increasing)
    checkpoints[-1] = Checkpoint(1.0, point.copy(), residual)
    return finish("converged", point=point.copy())


def track_natural_homotopy(
    inst: PcpInstance, x_ref, cfg: SolveConfig | None = None
) -> HomotopyTrace:
    """Track (1 - t)(x - x_ref) + t m(x) from its exact root at t = 0.

    The start pair is p = q = x - x_ref.  Convergence of the path is
    evidence for solvability under the reference-point boundedness
    hypothesis; divergence is evidence against the hypothesis, not a
    proof of nonexistence.
    """
    reference = as_point(x_ref, inst.n, "x_ref")
    eye = np.eye(inst.n)

    def start(x: np.ndarray, jacobians: bool) -> tuple[np.ndarray, ...]:
        shift = x - reference
        return (shift, shift, eye, eye) if jacobians else (shift, shift)

    return _track(start, inst, reference, cfg or SolveConfig())


def track_leading_homotopy(
    inst: PcpInstance, cfg: SolveConfig | None = None
) -> HomotopyTrace:
    """Deform the leading-pair min map into the natural map, from x = 0.

    The start pair is (f_inf, g_inf), whose min has the trivial root;
    under the leading-pair regularity hypothesis the zero paths stay
    bounded and the endpoint solves the full problem.  Lower-order
    perturbations of the instance leave the t = 0 system unchanged.
    """
    return _track(inst.leading_pair.evaluate_pair, inst, np.zeros(inst.n), cfg or SolveConfig())
