"""Random instances and Monte Carlo validation of the generic picture.

Generic instances have finitely many solutions (at most (2d)^n), each
strictly complementary, a leading pair with only the trivial solution,
and a global Lipschitz error bound.  None of this is provable by
sampling, so the lab draws seeded random instances, runs the full
pipeline on each, and aggregates pass rates; every failing trial records
enough seed material to reproduce it in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import verify_global_bound
from .documents import record_dict
from .enumeration import DEDUPE_RADIUS, SolveConfig, distance_to_solutions, enumerate_solutions
from .exceptions import InputError, PcpError
from .lemke import lemke_lcp
from .polynomials import Exponents, PolyMap, Polynomial, exponents_of_degree
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
    return [kappa for total in range(degree + 1) for kappa in exponents_of_degree(n, total)]


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
    if len(degrees) == n and all(d == 1 for d in degrees):  # random_instance refuses other lengths
        rng = np.random.default_rng(seed)
        g = PolyMap(tuple(random_polynomial(n, 1, rng) for _ in range(n)))
        return PcpInstance(PolyMap.identity(n), g)
    return random_instance(n, degrees, degrees, seed)


def genericity_trial(
    n: int,
    degrees: Sequence[int],
    trials: int,
    seed: int,
    cfg: SolveConfig | None = None,
) -> TrialSummary:
    """Run the generic-claims pipeline over ``trials`` random instances.

    Per trial: enumerate the solutions and compare the count against
    (2d)^n; check strict complementarity at every solution; decide whether
    the componentwise leading pair has nonzero solutions (``r0_test``: the
    resultant rank test, and the sphere search only where that test is
    inconclusive, with the R0_SAMPLES and R0_REFINE_ITERS budgets); verify the global
    Lipschitz bound (exponent 1) over sphere shells spanning the
    radius-20 ball, passing when the certified constant stays above
    LIPSCHITZ_C_MIN.  Affine trials additionally cross-check
    solvability against complementary pivoting.  Identical arguments
    give identical summaries; per-trial seeds are spawned from the
    master seed by index, so execution order cannot matter.
    """
    degrees = tuple(int(d) for d in degrees)
    if n < 1 or len(degrees) != n or any(d < 1 for d in degrees):
        raise InputError("need n >= 1 and one positive degree per component")
    if trials < 1:
        raise InputError("trials must be >= 1")
    cfg = cfg or SolveConfig()
    bound = (2 * max(degrees)) ** n
    affine = all(deg == 1 for deg in degrees)

    records: list[TrialRecord] = []
    failures: list[dict] = []

    def fail(index: int, stage: str, **fields) -> None:
        failures.append({"spawn_index": index, "stage": stage, **fields})

    for index in range(trials):
        inst = trial_instance(n, degrees, seed, index)
        try:
            sols = enumerate_solutions(inst, cfg)
        except PcpError as error:
            fail(index, "enumerate", error=str(error))
            continue

        r0_ok = r0_test(inst, samples=R0_SAMPLES, refine_iters=R0_REFINE_ITERS, seed=index,
                        componentwise=True).passed

        lipschitz_c = verify_global_bound(
            inst, sols, LIPSCHITZ_RADII, BOUND_SAMPLES, alpha=1, seed=index
        ).c_best

        lemke_status = lemke_agrees = None
        if affine:
            # g is affine, so its value and Jacobian at the origin are q and M
            _, q, _, M = inst.evaluate_pair(np.zeros(n), jacobians=True)
            try:
                result = lemke_lcp(M, q)
                lemke_status = result.status
                if result.solved:
                    lemke_agrees = bool(distance_to_solutions(sols, result.z) <= DEDUPE_RADIUS)
            except PcpError as error:
                lemke_status = "budget-error"
                fail(index, "lemke", error=str(error))

        record = TrialRecord(
            spawn_index=index,
            solution_count=len(sols),
            strict_ok=all(c.strict_complementarity for c in sols.certificates),
            r0_ok=r0_ok,
            lipschitz_ok=bool(lipschitz_c >= LIPSCHITZ_C_MIN),
            lipschitz_c=lipschitz_c,
            lemke_status=lemke_status,
            lemke_agrees=lemke_agrees,
        )
        records.append(record)
        checks = {f: getattr(record, f) for f in ("strict_ok", "r0_ok", "lipschitz_ok", "lemke_agrees")}
        if record.solution_count > bound or False in checks.values():  # lemke_agrees None passes
            fail(index, "checks", count=record.solution_count, **checks)

    counts = tuple(r.solution_count for r in records)

    def rate(field: str) -> float:
        return float(sum(getattr(r, field) for r in records) / len(records)) if records else 0.0

    return TrialSummary(
        n=n,
        degrees=degrees,
        trials=trials,
        master_seed=seed,
        cardinality_bound=bound,
        counts=counts,
        max_count=max(counts, default=0),
        strict_rate=rate("strict_ok"),
        r0_rate=rate("r0_ok"),
        lipschitz_rate=rate("lipschitz_ok"),
        records=tuple(records),
        failures=tuple(failures),
        skipped=trials - len(records),
    )
