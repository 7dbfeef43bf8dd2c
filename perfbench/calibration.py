"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same unit of work can take 40% longer for tens of
seconds at a time while other tenants load the cores.  The benchmark
times this kernel right before and after each unit and scales the unit's
wall time by ``NOMINAL_S / kernel time``, so its timings read as seconds
on a host where the kernel takes ``NOMINAL_S``.

The kernel imports nothing from pcpkit: a change to pcpkit leaves it
untouched, so the scaled timings still show every change to the program.
It does the same kind of work the workloads do (batched polynomial
evaluation with small numpy arrays, a Python loop per component, batched
linear solves and dictionary bookkeeping), so host slowdowns hit it
about as hard as they hit pcpkit.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on the host the benchmark was built on, in a
# quiet moment (2 vCPU, Python 3.11, numpy 2.4); a fixed constant, so it
# only sets the scale of the reported seconds
NOMINAL_S = 0.045

_N = 2
_DEGREE = 3
_STARTS = 64
_ITERATIONS = 60


def _system():
    rng = np.random.default_rng(20190801)
    exponents = np.array(
        [(a, b) for a in range(_DEGREE + 1) for b in range(_DEGREE + 1 - a)], dtype=float
    )
    coefficients = rng.standard_normal((_N, len(exponents)))
    return exponents, coefficients


_EXPONENTS, _COEFFICIENTS = _system()
_DERIVATIVES = []
for _j in range(_N):
    _lowered = _EXPONENTS.copy()
    _lowered[:, _j] = np.maximum(_lowered[:, _j] - 1.0, 0.0)
    _DERIVATIVES.append((_lowered, _COEFFICIENTS * _EXPONENTS[:, _j]))


def _evaluate(points: np.ndarray, exponents: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    monomials = np.prod(points[:, None, :] ** exponents[None, :, :], axis=2)
    return monomials @ coefficients


def kernel() -> float:
    """One fixed batch of damped Newton runs; returns a checksum."""
    points = np.linspace(-1.5, 1.5, _STARTS * _N).reshape(_STARTS, _N)
    seen: dict[tuple, int] = {}
    for _ in range(_ITERATIONS):
        values = np.empty((_STARTS, _N))
        jacobian = np.empty((_STARTS, _N, _N))
        for i in range(_N):
            values[:, i] = _evaluate(points, _EXPONENTS, _COEFFICIENTS[i])
            for j, (lowered, scaled) in enumerate(_DERIVATIVES):
                jacobian[:, i, j] = _evaluate(points, lowered, scaled[i])
        jacobian += 1e-3 * np.eye(_N)
        step = np.linalg.solve(jacobian, values[:, :, None])[:, :, 0]
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        points = points - step / np.maximum(1.0, norms)
        for row in np.round(points, 3):
            key = tuple(row.tolist())
            seen[key] = seen.get(key, 0) + 1
    return float(np.sum(points)) + len(seen)


def timed_kernel() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
