"""Random instances and Monte Carlo validation of the generic picture.

Generic instances have finitely many solutions (at most (2d)^n), each
strictly complementary, a leading pair with only the trivial solution,
and a global Lipschitz error bound.  None of this is provable by
sampling, so the lab draws seeded random instances, runs the full
pipeline on each, and aggregates pass rates; every failing trial records
enough seed material to reproduce it in isolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import verify_global_bound
from .documents import record_dict
from .enumeration import DEDUPE_RADIUS, SolveConfig, distance_to_solutions, enumerate_solutions
from .exceptions import InputError, PcpError
from .lemke import lemke_lcp
from .polynomials import Exponents, PolyMap, Polynomial
from .probes import r0_test
from .residuals import PcpInstance

# pass threshold for the per-trial global Lipschitz constant; generic
# desk-scale instances sit orders of magnitude above it
LIPSCHITZ_C_MIN = 1e-3
LIPSCHITZ_RADII = (1.25, 2.5, 5.0, 10.0, 20.0)
BOUND_SAMPLES = 400  # per radius
R0_SAMPLES = 512
R0_REFINE_ITERS = 80


def monomials_up_to(n: int, degree: int) -> list[Exponents]:
    """All exponent vectors with total degree <= degree, graded-lex order."""
    if n < 1 or degree < 0:
        raise InputError("need n >= 1 and degree >= 0")
    # stars and bars: the gaps between n - 1 bars among total + n - 1 slots;
    # bars in lexicographic order give the exponent vectors in that order
    return [
        tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + n - 1)))
        for total in range(degree + 1)
        for bars in itertools.combinations(range(total + n - 1), n - 1)
    ]


def random_polynomial(n: int, degree: int, rng: np.random.Generator) -> Polynomial:
    """Every coefficient with |kappa| <= degree drawn i.i.d. standard normal."""
    terms = {kappa: float(rng.standard_normal()) for kappa in monomials_up_to(n, degree)}
    return Polynomial(n, terms)


def random_instance(
    n: int,
    degrees_f: Sequence[int],
    degrees_g: Sequence[int],
    seed,
) -> PcpInstance:
    """Draw a dense-support random instance, deterministic under the seed.

    ``seed`` may be anything accepted by ``numpy.random.default_rng``
    (an int or a SeedSequence).  Coefficients are consumed in a fixed
    order (f components first, graded-lex within each), so equal seeds
    give identical instances.
    """
    degrees_f = tuple(int(d) for d in degrees_f)
    degrees_g = tuple(int(d) for d in degrees_g)
    if len(degrees_f) != n or len(degrees_g) != n:
        raise InputError("one degree per component is required")
    if any(d < 1 for d in degrees_f + degrees_g):
        raise InputError("degrees must be >= 1")
    rng = np.random.default_rng(seed)
    f = PolyMap(tuple(random_polynomial(n, d, rng) for d in degrees_f))
    g = PolyMap(tuple(random_polynomial(n, d, rng) for d in degrees_g))
    return PcpInstance(f, g)


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo trial; ``spawn_index`` with the master seed reproduces it."""

    spawn_index: int
    solution_count: int
    strict_ok: bool
    r0_ok: bool
    lipschitz_ok: bool
    lipschitz_c: float
    lemke_status: str | None = None
    lemke_agrees: bool | None = None

    def to_dict(self) -> dict:
        return record_dict(self)


@dataclass(frozen=True)
class TrialSummary:
    """Aggregated Monte Carlo results with reproduction seeds."""

    # field order is the report's key order
    n: int
    degrees: tuple[int, ...]
    trials: int
    master_seed: int
    cardinality_bound: int
    counts: tuple[int, ...]
    max_count: int
    strict_rate: float
    r0_rate: float
    lipschitz_rate: float
    failures: tuple[dict, ...]
    skipped: int
    records: tuple[TrialRecord, ...]

    def to_dict(self) -> dict:
        return record_dict(self)

    def csv_rows(self) -> list[dict]:
        return [r.to_dict() for r in self.records]


def trial_seed(master_seed: int, spawn_index: int) -> np.random.SeedSequence:
    """The per-trial seed; pure function of (master seed, index)."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(spawn_index,))


def trial_instance(
    n: int, degrees: Sequence[int], master_seed: int, spawn_index: int
) -> PcpInstance:
    """Reproduce the instance of one trial in isolation.

    Affine trials (all degrees 1) substitute the identity for f and use
    the random draw for g only, matching the LCP oracle setting.
    """
    degrees = tuple(int(d) for d in degrees)
    seed = trial_seed(master_seed, spawn_index)
    if all(d == 1 for d in degrees):
        rng = np.random.default_rng(seed)
        g = PolyMap(tuple(random_polynomial(n, 1, rng) for _ in range(n)))
        return PcpInstance(PolyMap.identity(n), g)
    return random_instance(n, degrees, degrees, seed)


def _affine_lcp_data(inst: PcpInstance) -> tuple[np.ndarray, np.ndarray]:
    """Extract (M, q) from an affine g via exact evaluation."""
    _, q, _, M = inst.evaluate_pair(np.zeros(inst.n), jacobians=True)
    return M, q


def genericity_trial(
    n: int,
    degrees: Sequence[int],
    trials: int,
    seed: int,
    cfg: SolveConfig | None = None,
) -> TrialSummary:
    """Run the generic-claims pipeline over ``trials`` random instances.

    Per trial: enumerate the solutions and compare the count against
    (2d)^n; check strict complementarity at every solution; probe the
    componentwise leading pair for nonzero solutions; verify the global
    Lipschitz bound (exponent 1) over sphere shells spanning the
    radius-20 ball, passing when the certified constant stays above
    LIPSCHITZ_C_MIN.  Affine trials additionally cross-check
    solvability against complementary pivoting.  Identical arguments
    give identical summaries; per-trial seeds are spawned from the
    master seed by index, so execution order cannot matter.
    """
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != n or any(d < 1 for d in degrees):
        raise InputError("need one positive degree per component")
    if trials < 1:
        raise InputError("trials must be >= 1")
    cfg = cfg or SolveConfig()
    d = max(degrees)
    bound = (2 * d) ** n
    affine = all(deg == 1 for deg in degrees)

    records: list[TrialRecord] = []
    failures: list[dict] = []
    skipped = 0

    for index in range(trials):
        inst = trial_instance(n, degrees, seed, index)
        try:
            sols = enumerate_solutions(inst, cfg)
        except PcpError as error:
            skipped += 1
            failures.append(
                {"spawn_index": index, "stage": "enumerate", "error": str(error)}
            )
            continue

        count = len(sols)
        strict_ok = all(c.strict_complementarity for c in sols.certificates)

        r0_ok = r0_test(inst, samples=R0_SAMPLES, refine_iters=R0_REFINE_ITERS, seed=index,
                        componentwise=True).passed

        bound_report = verify_global_bound(
            inst, sols, LIPSCHITZ_RADII, BOUND_SAMPLES, alpha=1, seed=index
        )
        lipschitz_c = bound_report.c_best
        lipschitz_ok = bool(lipschitz_c >= LIPSCHITZ_C_MIN)

        lemke_status = None
        lemke_agrees = None
        if affine:
            M, q = _affine_lcp_data(inst)
            try:
                result = lemke_lcp(M, q)
                lemke_status = result.status
                if result.solved:
                    lemke_agrees = bool(distance_to_solutions(sols, result.z) <= DEDUPE_RADIUS)
            except PcpError as error:
                lemke_status = "budget-error"
                failures.append(
                    {"spawn_index": index, "stage": "lemke", "error": str(error)}
                )

        record = TrialRecord(
            spawn_index=index,
            solution_count=count,
            strict_ok=strict_ok,
            r0_ok=r0_ok,
            lipschitz_ok=lipschitz_ok,
            lipschitz_c=lipschitz_c,
            lemke_status=lemke_status,
            lemke_agrees=lemke_agrees,
        )
        records.append(record)
        if count > bound or not strict_ok or not r0_ok or not lipschitz_ok \
                or lemke_agrees is False:
            failures.append(
                {
                    "spawn_index": index,
                    "stage": "checks",
                    "count": count,
                    "strict_ok": strict_ok,
                    "r0_ok": r0_ok,
                    "lipschitz_ok": lipschitz_ok,
                    "lemke_agrees": lemke_agrees,
                }
            )

    counts = tuple(r.solution_count for r in records)
    completed = len(records)

    def rate(flags) -> float:
        return float(sum(flags) / completed) if completed else 0.0

    return TrialSummary(
        n=n,
        degrees=degrees,
        trials=trials,
        master_seed=seed,
        cardinality_bound=bound,
        counts=counts,
        max_count=max(counts) if counts else 0,
        strict_rate=rate(r.strict_ok for r in records),
        r0_rate=rate(r.r0_ok for r in records),
        lipschitz_rate=rate(r.lipschitz_ok for r in records),
        records=tuple(records),
        failures=tuple(failures),
        skipped=skipped,
    )
