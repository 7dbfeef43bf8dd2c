"""Command-line surface tying the toolkit together.

Subcommands: solve, residual, certify, homotopy, probe, bounds,
exponent, generate, trial, lemke.  Every run prints one JSON report
document to stdout (diagnostics go to stderr) and all randomness is
controlled by --seed, so identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 counterexample/rejection under
--assert, 2 input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import probes as probes_mod
from .documents import parse_instance_document, report_document, serialize_instance
from .enumeration import (
    SolveConfig,
    certify_solution,
    enumerate_solutions,
)
from .exceptions import CertificationError, PcpError
from .genericity import genericity_trial, random_instance
from .homotopy import track_leading_homotopy, track_natural_homotopy
from .lemke import lemke_lcp
from .residuals import min_phi, natural_map, r_residual


def _floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not np.isfinite(values).all():
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _region(values: list[float], n: int) -> np.ndarray:
    if len(values) == 2:
        values = values * n
    if len(values) != 2 * n:
        raise PcpError(
            f"--region needs 2 or {2 * n} numbers (low,high per coordinate)"
        )
    return np.asarray(values, dtype=float).reshape(n, 2)


def _config(args) -> SolveConfig:
    kwargs = {"rng_seed": args.seed}
    if getattr(args, "tol", None) is not None:
        kwargs["newton_tol"] = args.tol
    if getattr(args, "starts", None) is not None:
        kwargs["starts_per_subsystem"] = args.starts
    if getattr(args, "box", None) is not None:
        kwargs["start_box_radius"] = args.box
    return SolveConfig(**kwargs)


def _load_instance(path: str):
    return parse_instance_document(Path(path).read_text(encoding="utf-8"))


def _print_report(command: str, config: dict, payload: dict) -> None:
    sys.stdout.write(report_document(command, config, payload))


def _csv_pairs(report) -> None:
    sys.stdout.write("dist,residual\n")
    for dist, residual in report.pairs:
        sys.stdout.write(f"{dist!r},{residual!r}\n")


# ----------------------------------------------------------------------
# subcommand handlers; each returns the exit code


def _cmd_solve(args) -> int:
    document = _load_instance(args.instance)
    cfg = _config(args)
    sols = enumerate_solutions(document.instance, cfg)
    _print_report("solve", {"instance": args.instance, **cfg.to_dict()}, sols.to_dict())
    return 0


def _cmd_residual(args) -> int:
    document = _load_instance(args.instance)
    inst = document.instance
    point = np.asarray(args.point, dtype=float)
    m = natural_map(inst, point)
    value, argmin = min_phi(inst, point)
    payload = {
        "point": [float(v) for v in point],
        "natural_map": [float(v) for v in m],
        "natural_residual_norm": float(np.linalg.norm(m)),
        "min_phi": value,
        "min_phi_argmin": list(argmin),
        "r_residual": r_residual(inst, point),
    }
    _print_report("residual", {"instance": args.instance}, payload)
    return 0


def _cmd_certify(args) -> int:
    document = _load_instance(args.instance)
    cfg = _config(args)
    point = np.asarray(args.point, dtype=float)
    config = {"instance": args.instance, **cfg.to_dict()}
    try:
        certificate = certify_solution(document.instance, point, cfg)
    except CertificationError as rejection:
        payload = {
            "accepted": False,
            "residual_norm": rejection.residual_norm,
            "point": [float(v) for v in point],
        }
        _print_report("certify", config, payload)
        return 1 if args.assert_ else 0
    _print_report("certify", config, {"accepted": True, **certificate.to_dict()})
    return 0


def _cmd_homotopy(args) -> int:
    document = _load_instance(args.instance)
    cfg = _config(args)
    config = {"instance": args.instance, "leading": args.leading, **cfg.to_dict()}
    if args.leading:
        trace = track_leading_homotopy(document.instance, cfg)
    else:
        if args.xref is None:
            raise PcpError("homotopy needs --xref unless --leading is given")
        config["xref"] = args.xref
        trace = track_natural_homotopy(document.instance, args.xref, cfg)
    _print_report("homotopy", config, trace.to_dict())
    return 0


def _cmd_probe(args) -> int:
    document = _load_instance(args.instance)
    inst = document.instance
    name = args.name
    if name == "r0":
        report = probes_mod.r0_test(
            inst, samples=args.samples, refine_iters=args.refine,
            seed=args.seed, componentwise=args.componentwise,
        )
    elif name == "r0-shifted":
        report = probes_mod.r0_shifted_pair_probe(
            inst, samples=args.samples, refine_iters=args.refine,
            seed=args.seed, componentwise=args.componentwise,
        )
    elif name == "coercivity":
        if args.radii is None:
            raise PcpError("probe coercivity needs --radii")
        report = probes_mod.coercivity_probe(
            inst, args.radii, samples_per_radius=args.samples, seed=args.seed
        )
    elif name == "xref":
        if args.xref is None or args.radius is None:
            raise PcpError("probe xref needs --xref and --radius")
        report = probes_mod.xref_boundedness_probe(
            inst, args.xref, args.radius, samples=args.samples,
            use_leading=args.leading, seed=args.seed,
        )
    elif name == "karamardian":
        if args.c is None:
            raise PcpError("probe karamardian needs --c")
        report = probes_mod.karamardian_coercivity_probe(
            inst, args.c, samples=args.samples, seed=args.seed
        )
    elif name == "jacobian":
        cfg = _config(args)
        sols = enumerate_solutions(inst, cfg)
        report = probes_mod.jacobian_degeneracy_scan(inst, sols)
    elif name == "pfunction":
        if args.pfn_region is None:
            raise PcpError("probe pfunction needs --region")
        region = _region(args.pfn_region, inst.n)
        report = probes_mod.p_function_probe(
            inst, region, pairs=args.pairs, seed=args.seed
        )
    else:  # unreachable behind argparse choices
        raise PcpError(f"unknown probe {name}")
    _print_report("probe", {"instance": args.instance, "probe": name, "seed": args.seed},
                  report.to_dict())
    if args.assert_ and not report.passed:
        return 1
    return 0


def _cmd_bounds(args) -> int:
    document = _load_instance(args.instance)
    inst = document.instance
    cfg = _config(args)
    sols = enumerate_solutions(inst, cfg)
    if args.global_:
        if args.radii is None:
            raise PcpError("bounds --global needs --radii")
        report = bounds_mod.verify_global_bound(
            inst, sols, args.radii, args.samples, args.alpha,
            seed=args.seed, claimed_c=args.claim,
        )
        domain = {"radii": args.radii}
    else:
        if args.bounds_region is None:
            raise PcpError("bounds needs --region (or --global with --radii)")
        region = _region(args.bounds_region, inst.n)
        report = bounds_mod.verify_local_bound(
            inst, sols, region, args.samples, args.alpha,
            seed=args.seed, claimed_c=args.claim,
        )
        domain = {"region": [[float(a), float(b)] for a, b in region]}
    if args.csv:
        _csv_pairs(report)
    else:
        config = {
            "instance": args.instance, "alpha": args.alpha, "samples": args.samples,
            "claim": args.claim, "seed": args.seed, **domain, **cfg.to_dict(),
        }
        _print_report("bounds", config, report.to_dict(include_pairs=False))
    if args.assert_ and report.violations:
        return 1
    return 0


def _cmd_exponent(args) -> int:
    n, d = args.n, args.d
    growth = bounds_mod.exponent_R(n, d)
    holder = bounds_mod.holder_exponent_for(n, d)
    payload = {
        "n": n,
        "d": d,
        "R": growth,
        "holder_exponent": holder.alpha,
        "naive_exponent": bounds_mod.naive_exponent_for(n, d),
        "global_alpha_is_one": holder.global_alpha_is_one,
    }
    _print_report("exponent", {"n": n, "d": d}, payload)
    return 0


def _cmd_generate(args) -> int:
    degrees_f = args.degrees_f or args.degrees
    degrees_g = args.degrees_g or args.degrees
    if degrees_f is None or degrees_g is None:
        raise PcpError("generate needs --degrees (or --degrees-f and --degrees-g)")
    if len(degrees_f) == 1:
        degrees_f = degrees_f * args.n
    if len(degrees_g) == 1:
        degrees_g = degrees_g * args.n
    inst = random_instance(args.n, degrees_f, degrees_g, args.seed)
    metadata = {"name": args.name} if args.name else None
    sys.stdout.write(serialize_instance(inst, metadata))
    return 0


def _cmd_trial(args) -> int:
    if args.degrees is None:
        raise PcpError("trial needs --degrees")
    degrees = args.degrees * args.n if len(args.degrees) == 1 else args.degrees
    cfg = _config(args)
    summary = genericity_trial(args.n, degrees, args.trials, args.seed, cfg)
    if args.csv:
        rows = summary.csv_rows()
        if rows:
            header = list(rows[0].keys())
            sys.stdout.write(",".join(header) + "\n")
            for row in rows:
                sys.stdout.write(",".join(json.dumps(row[key]) for key in header) + "\n")
        return 0
    config = {
        "n": args.n, "degrees": degrees, "trials": args.trials, "seed": args.seed,
        **cfg.to_dict(),
    }
    _print_report("trial", config, summary.to_dict())
    return 0


def _cmd_lemke(args) -> int:
    raw = json.loads(Path(args.problem).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or "M" not in raw or "q" not in raw:
        raise PcpError("lemke input must be a JSON object with keys 'M' and 'q'")
    result = lemke_lcp(raw["M"], raw["q"])
    payload = {
        "status": result.status,
        "z": None if result.z is None else [float(v) for v in result.z],
        "w": None if result.w is None else [float(v) for v in result.w],
        "pivots": result.pivots,
    }
    _print_report("lemke", {"problem": args.problem}, payload)
    return 0


# ----------------------------------------------------------------------
# parser assembly


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, help="Newton residual tolerance")
    parser.add_argument("--starts", type=int, help="starts per subsystem")
    parser.add_argument("--box", type=float, help="start box radius")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcpkit",
        description="Polynomial complementarity problems: solve, probe, verify bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        return p

    p = common(sub.add_parser("solve", help="enumerate the solution set"))
    p.add_argument("instance")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_solve)

    p = common(sub.add_parser("residual", help="evaluate residuals at a point"))
    p.add_argument("instance")
    p.add_argument("--point", type=_floats, required=True)
    p.set_defaults(handler=_cmd_residual)

    p = common(sub.add_parser("certify", help="certify a candidate solution"))
    p.add_argument("instance")
    p.add_argument("--point", type=_floats, required=True)
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 1 on rejection")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_certify)

    p = common(sub.add_parser("homotopy", help="track a continuation path"))
    p.add_argument("instance")
    p.add_argument("--xref", type=_floats, help="reference point")
    p.add_argument("--leading", action="store_true",
                   help="start from the leading-pair deformation at x = 0")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_homotopy)

    p = common(sub.add_parser("probe", help="run a hypothesis probe"))
    p.add_argument("name", choices=["r0", "r0-shifted", "coercivity", "xref",
                                    "karamardian", "jacobian", "pfunction"])
    p.add_argument("instance")
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--refine", type=int, default=200)
    p.add_argument("--componentwise", action="store_true")
    p.add_argument("--radii", type=_floats)
    p.add_argument("--radius", type=float)
    p.add_argument("--xref", type=_floats)
    p.add_argument("--leading", action="store_true")
    p.add_argument("--c", type=float)
    p.add_argument("--region", dest="pfn_region", type=_floats)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 1 on a counterexample verdict")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_probe)

    p = common(sub.add_parser("bounds", help="verify an error bound empirically"))
    p.add_argument("instance")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--region", dest="bounds_region", type=_floats)
    p.add_argument("--global", dest="global_", action="store_true")
    p.add_argument("--radii", type=_floats)
    p.add_argument("--claim", type=float, help="claimed constant to test")
    p.add_argument("--csv", action="store_true", help="dump dist,residual pairs as CSV")
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 1 when the claimed constant is violated")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("exponent", help="print the error-bound exponents")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_exponent)

    p = common(sub.add_parser("generate", help="draw a random instance"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", type=_ints)
    p.add_argument("--degrees-f", dest="degrees_f", type=_ints)
    p.add_argument("--degrees-g", dest="degrees_g", type=_ints)
    p.add_argument("--name")
    p.set_defaults(handler=_cmd_generate)

    p = common(sub.add_parser("trial", help="Monte Carlo over random instances"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", type=_ints, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="per-trial rows as CSV")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_trial)

    p = sub.add_parser("lemke", help="solve an LCP by complementary pivoting")
    p.add_argument("problem", help="JSON file with keys 'M' and 'q'")
    p.set_defaults(handler=_cmd_lemke)

    return parser


def run_command(argv) -> int:
    """Parse argv, run the subcommand, print the report; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        # values that overflow to inf or nan still exit 2 in report_document
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"error: invalid JSON: {error}", file=sys.stderr)
        return 2
    except PcpError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
