"""Lemke's complementary pivoting for linear complementarity problems.

Solves: find z >= 0 with w = Mz + q >= 0 and <z, w> = 0.  The covering
vector is all ones and ties in the ratio test are broken
lexicographically (the inverse-basis columns carried in the tableau act
as the perturbation), which rules out cycling on any data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, PivotBudgetError

COMPLEMENTARITY_TOL = 1e-9
# pivot budget of one lemke_lcp run
MAX_PIVOTS = 10_000


@dataclass(frozen=True)
class LcpResult:
    """Outcome of a Lemke run.

    ``status`` is one of ``"solution"``, ``"trivial"`` (q >= 0, z = 0) or
    ``"ray"`` (secondary ray termination, no conclusion about solvability
    in general).  ``z`` and ``w`` are set unless the run ended on a ray.
    """

    status: str
    z: np.ndarray | None
    w: np.ndarray | None
    pivots: int

    @property
    def solved(self) -> bool:
        return self.status in ("solution", "trivial")


def _lexico_ratio_row(tableau: np.ndarray, column: np.ndarray, eligible: np.ndarray,
                      n: int) -> int:
    """Row index winning the lexicographic minimum ratio test.

    Compares (rhs_i, B^-1 row_i) / column_i lexicographically over the
    eligible rows; the carried inverse-basis columns are the first n
    columns of the tableau.  The sort is stable, so ties go to the lowest
    row.
    """
    rows = np.flatnonzero(eligible)
    # ratio vectors: rhs first, then the inverse-basis block
    ratios = np.column_stack(
        [tableau[rows, -1] / column[rows], tableau[rows, :n] / column[rows, None]]
    )
    # lexsort's last key is its primary one
    return int(rows[np.lexsort(ratios.T[::-1])[0]])


def lemke_lcp(M, q) -> LcpResult:
    """Solve LCP(M, q) by Lemke's method with the all-ones covering vector.

    Returns a trivial solution z = 0 when q >= 0.  Otherwise pivots until
    the artificial variable leaves the basis (solution) or the entering
    column has no positive entry (ray termination).  Exceeding MAX_PIVOTS
    raises :class:`PivotBudgetError`; lexicographic tie-breaking makes
    this unreachable on non-degenerate data.
    """
    try:
        M, q = np.asarray(M, dtype=float), np.asarray(q, dtype=float)
    except (TypeError, ValueError):
        raise InputError("M and q must be rectangular arrays of numbers") from None
    if not (np.isfinite(M).all() and np.isfinite(q).all()):
        raise InputError("M and q must hold finite numbers")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"M must be square, got shape {M.shape}")
    n = M.shape[0]
    if q.shape != (n,):
        raise InputError(f"q has shape {q.shape}, expected ({n},)")

    if np.all(q >= 0.0):
        z = np.zeros(n)
        return LcpResult(status="trivial", z=z, w=q.copy(), pivots=0)

    # a pivot on extreme data may overflow; the basis check then refuses the
    # run with PivotBudgetError, whatever the caller's warning filters
    with np.errstate(over="ignore", invalid="ignore"):
        return _pivot(M, q)


def _pivot(M: np.ndarray, q: np.ndarray) -> LcpResult:
    """Lemke's pivots on LCP(M, q) with q not nonnegative; see :func:`lemke_lcp`."""
    n = len(q)
    # Tableau for w - Mz - z0*e = q with basis columns carried in place:
    # columns [w_1..w_n | z_1..z_n | z0 | rhs].
    tableau = np.hstack([np.eye(n), -M, -np.ones((n, 1)), q[:, None]])
    basis = list(range(n))  # column index of the basic variable per row
    z0_col = 2 * n

    # z0 enters; the most negative rhs row leaves so the rhs turns nonnegative.
    leaving_row = int(np.argmin(q))
    entering = z0_col

    pivots = 0
    while True:
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise PivotBudgetError(f"exceeded {MAX_PIVOTS} pivots")

        # pivot: make `entering` basic in `leaving_row`
        pivot_value = tableau[leaving_row, entering]
        tableau[leaving_row] /= pivot_value
        for i in range(n):
            if i != leaving_row and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leaving_row]
        left_variable = basis[leaving_row]
        basis[leaving_row] = entering

        if left_variable == z0_col:
            break  # artificial variable left: complementary solution found

        # drive in the complement of whatever just left the basis
        entering = left_variable + n if left_variable < n else left_variable - n

        column = tableau[:, entering]
        eligible = column > 1e-12
        if not np.any(eligible):
            return LcpResult(status="ray", z=None, w=None, pivots=pivots)
        leaving_row = _lexico_ratio_row(tableau, column, eligible, n)

    # basic variables take their rhs, the others 0; columns are [w | z | z0]
    values = np.zeros(2 * n + 1)
    values[basis] = tableau[:, -1]
    w, z = values[:n], values[n : 2 * n]
    # internal sanity: complementary basic solutions satisfy the system
    residual = np.linalg.norm(M @ z + q - w)
    gap = abs(float(z @ w))
    # a NaN gap or residual fails its comparison
    if not (gap <= COMPLEMENTARITY_TOL and residual <= 1e-7 * (1.0 + np.linalg.norm(q))):
        raise PivotBudgetError(
            f"pivoting finished with inconsistent basis (gap {gap:.2e})"
        )
    return LcpResult(status="solution", z=z, w=w, pivots=pivots)
