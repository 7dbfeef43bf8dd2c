"""Workload inputs, units of work, outcome records and oracle checks.

Every workload turns ``--seed`` into a pool of inputs; unit k of a run
uses pool entry k mod the pool size, so a faster program cycles the same
pool.  Each pool entry is derived from ``SeedSequence([seed, k])`` alone.
A unit builds its ``PcpInstance`` afresh (or parses it from its file),
so the lazy per-instance set-up inside pcpkit is paid on every unit, as
it is in a fresh CLI call.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import pcpkit
from pcpkit import PcpInstance, PolyMap, Polynomial, SolveConfig, cli

# about the units one 30 s run completes on the unmodified code; a run that
# gets further cycles the pool
POOL = {"solve": 48, "trial": 64, "affine": 64}
SOLVE_SHAPE = (2, 3)          # (n, d) of the dense solve instances
TRIAL_SHAPE = (2, (2, 2))     # criterion-10 trials
TRIAL_STARTS = 80
AFFINE_N = 6
POINT_TOL = 1e-6              # the default dedupe_radius
RELATIVE_TOL = 1e-6
# outcome fields left out of the reference record: the oracles already hold
# them to the enumerated point, which the record keeps
UNRECORDED = ("lemke_z", "natural_point", "leading_point")


def _entry_seed(seed: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, k])


def generate(workload: str, seed: int, workdir: Path) -> list:
    """The pool of inputs for one workload and seed."""
    if workload == "solve":
        n, d = SOLVE_SHAPE
        workdir.mkdir(parents=True, exist_ok=True)
        files = []
        for k in range(POOL["solve"]):
            inst = pcpkit.random_instance(n, [d] * n, [d] * n, _entry_seed(seed, k))
            path = workdir / f"solve-{seed}-{k}.json"
            path.write_text(pcpkit.serialize_instance(inst), encoding="utf-8")
            files.append(str(path))
        return files
    if workload == "trial":
        return [int(_entry_seed(seed, k).generate_state(1)[0]) for k in range(POOL["trial"])]
    if workload == "affine":
        pool = []
        for k in range(POOL["affine"]):
            rng = np.random.default_rng(_entry_seed(seed, k))
            a = rng.standard_normal((AFFINE_N, AFFINE_N))
            m = a @ a.T / AFFINE_N + 0.1 * np.eye(AFFINE_N)
            pool.append((m, rng.standard_normal(AFFINE_N)))
        return pool
    raise ValueError(f"unknown workload {workload!r}")


def affine_instance(m: np.ndarray, q: np.ndarray) -> PcpInstance:
    """f = Id, g = Mx + q; M is positive definite, so the solution is unique."""
    n = len(q)
    rows = []
    for i in range(n):
        terms = {(0,) * n: float(q[i])}
        for j in range(n):
            terms[tuple(int(j == v) for v in range(n))] = float(m[i, j])
        rows.append(Polynomial(n, terms))
    return PcpInstance(PolyMap.identity(n), PolyMap(tuple(rows)))


def run_unit(workload: str, seed: int, entry):
    """One unit of work; returns the raw public results.

    Entry points are looked up on their modules at call time, so the
    tracer's in-memory wrappers see every call.
    """
    if workload == "solve":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run_command(["solve", entry, "--seed", str(seed)])
        return code, out.getvalue()
    if workload == "trial":
        n, degrees = TRIAL_SHAPE
        return pcpkit.genericity_trial(
            n, degrees, 1, entry, SolveConfig(starts_per_subsystem=TRIAL_STARTS)
        )
    m, q = entry
    inst = affine_instance(m, q)
    sols = pcpkit.enumerate_solutions(inst)
    lcp = pcpkit.lemke_lcp(m, q)
    natural = pcpkit.track_natural_homotopy(inst, np.ones(len(q)))
    leading = pcpkit.track_leading_homotopy(inst)
    return sols, lcp, natural, leading


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def outcome(workload: str, result) -> dict:
    """The reference-comparable record of one unit's result."""
    if workload == "solve":
        code, text = result
        payload = json.loads(text)["payload"] if code == 0 else {}
        return {
            "exit_code": code,
            "count": payload.get("count"),
            "completeness_claim": payload.get("completeness_claim"),
            "points": [s["point"] for s in payload.get("solutions", [])],
        }
    if workload == "trial":
        record = result.records[0].to_dict() if result.records else {}
        return {
            "count": record.get("solution_count"),
            "strict_ok": record.get("strict_ok"),
            "r0_ok": record.get("r0_ok"),
            "lipschitz_ok": record.get("lipschitz_ok"),
            "lipschitz_c": record.get("lipschitz_c"),
            "skipped": result.skipped,
            "failure_stages": [f["stage"] for f in result.failures],
        }
    sols, lcp, natural, leading = result
    return {
        "count": len(sols),
        "points": [_floats(c.point) for c in sols.certificates],
        "lemke_status": lcp.status,
        "lemke_pivots": lcp.pivots,
        "lemke_z": None if lcp.z is None else _floats(lcp.z),
        "natural_outcome": natural.outcome,
        "natural_point": None if natural.point is None else _floats(natural.point),
        "leading_outcome": leading.outcome,
        "leading_point": None if leading.point is None else _floats(leading.point),
    }


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _points_close(a, b) -> bool:
    return len(a) == len(b) and all(_close(p, q, POINT_TOL) for p, q in zip(a, b))


def mismatches(got: dict, want: dict) -> list[str]:
    """Fields where a unit's record differs from its reference record."""
    bad = []
    for key, expected in want.items():
        value = got.get(key)
        if key == "points":
            same = _points_close(value, expected)
        elif key in ("lemke_z", "natural_point", "leading_point"):
            same = _close(value, expected, POINT_TOL)
        elif key == "lipschitz_c" and expected is not None and value is not None:
            same = abs(value - expected) <= RELATIVE_TOL * max(abs(expected), 1e-300)
        else:
            same = value == expected
        if not same:
            bad.append(key)
    return bad


def oracle_failures(workload: str, got: dict) -> list[str]:
    """Checks that need no reference record."""
    bad = []
    if workload == "solve":
        n, d = SOLVE_SHAPE
        if got["exit_code"] != 0:
            bad.append("exit_code")
        elif got["count"] != len(got["points"]) or got["count"] > (2 * d) ** n:
            bad.append("count")
        elif got["points"] != sorted(got["points"]):
            bad.append("points-order")
    elif workload == "trial":
        if got["skipped"] or got["count"] is None or got["count"] > 16:
            bad.append("count")
        if {"enumerate", "r0", "lemke"} & set(got["failure_stages"]):
            bad.append("stage-error")
    else:
        if not affine_oracle_agrees(got):
            bad.append("lemke-oracle")
        for path in ("natural", "leading"):
            if got[f"{path}_outcome"] == "converged" and not _close(
                got[f"{path}_point"], got["lemke_z"], POINT_TOL
            ):
                bad.append(f"{path}-endpoint")
    return bad


def affine_oracle_agrees(got: dict) -> bool:
    """The single enumerated solution lies within 1e-6 of Lemke's z."""
    return (
        got["count"] == 1
        and got["lemke_z"] is not None
        and _close(got["points"][0], got["lemke_z"], POINT_TOL)
    )

