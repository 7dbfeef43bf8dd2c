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
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import probes as probes_mod
from .documents import parse_instance_document, record_dict, report_document, serialize_instance
from .enumeration import (
    SolveConfig,
    certify_solution,
    enumerate_solutions,
)
from .exceptions import CertificationError, PcpError
from .genericity import genericity_trial, random_instance
from .homotopy import track_leading_homotopy, track_natural_homotopy
from .lemke import lemke_lcp
from .residuals import min_phi, natural_map, r_residual, residual_norms


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


def _seed(text: str) -> int:
    """A non-negative integer: numpy's generators refuse negative seeds."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _region(values: list[float], n: int) -> np.ndarray:
    if len(values) == 2:
        values = values * n
    if len(values) != 2 * n:
        raise PcpError(
            f"--region needs 2 or {2 * n} numbers (low,high per coordinate)"
        )
    return np.asarray(values, dtype=float).reshape(n, 2)


def _per_component(values: list[int], n: int) -> list[int]:
    """One value broadcasts to all n components."""
    return values * n if len(values) == 1 else values


# solver flag -> SolveConfig field
SOLVER_FLAGS = {"tol": "newton_tol", "starts": "starts_per_subsystem",
                "box": "start_box_radius", "seed": "rng_seed"}


def _config(args) -> SolveConfig:
    """The solver config of the solver flags a subcommand declares; unset flags keep defaults."""
    settings = {field: getattr(args, flag, None) for flag, field in SOLVER_FLAGS.items()}
    return SolveConfig(**{k: v for k, v in settings.items() if v is not None})


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
        "natural_residual_norm": float(residual_norms(m)[0]),
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
        config["xref"] = args.xref
        trace = track_natural_homotopy(document.instance, args.xref, cfg)
    _print_report("homotopy", config, trace.to_dict())
    return 0


def _probe_jacobian(inst, args):
    cfg = _config(args)
    sols = enumerate_solutions(inst, cfg)
    return probes_mod.jacobian_degeneracy_scan(sols), cfg.to_dict()


def _cmd_probe(args) -> int:
    document = _load_instance(args.instance)
    report, settings = args.run(document.instance, args)
    config = {"instance": args.instance, "probe": args.name, "seed": args.seed, **settings}
    _print_report("probe", config, report.to_dict())
    return 1 if args.assert_ and not report.passed else 0


def _cmd_bounds(args) -> int:
    document = _load_instance(args.instance)
    inst = document.instance
    cfg = _config(args)
    bounds_mod.check_bound_settings(args.samples, args.alpha, args.claim)  # before the sweep
    sols = enumerate_solutions(inst, cfg)
    if args.radii is not None:
        report = bounds_mod.verify_global_bound(
            inst, sols, args.radii, args.samples, args.alpha,
            seed=args.seed, claimed_c=args.claim,
        )
        domain = {"radii": args.radii}
    else:
        region = _region(args.region, inst.n)
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
        _print_report("bounds", config, report.to_dict())
    if args.assert_ and report.violations:
        return 1
    return 0


# Python's default int_max_str_digits: no longer integer can be printed
MAX_EXPONENT_DIGITS = 4300


def _cmd_exponent(args) -> int:
    n, d = args.n, args.d
    # digits of the largest exponent, naive_exponent_for(n, d) = (2d + 1)(6d)^(3n - 1),
    # from logarithms: no big integer is built before the refusal
    digits = int(math.log10(2 * d + 1) + (3 * n - 1) * math.log10(6 * d)) + 1 if d >= 1 else 0
    if digits > MAX_EXPONENT_DIGITS:
        raise PcpError(f"naive exponent has {digits} digits; reports print at most "
                       f"{MAX_EXPONENT_DIGITS}")
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
    inst = random_instance(args.n, _per_component(degrees_f, args.n),
                           _per_component(degrees_g, args.n), args.seed)
    metadata = {"name": args.name} if args.name else None
    sys.stdout.write(serialize_instance(inst, metadata))
    return 0


def _cmd_trial(args) -> int:
    degrees = _per_component(args.degrees, args.n)
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
    _print_report("lemke", {"problem": args.problem}, record_dict(lemke_lcp(raw["M"], raw["q"])))
    return 0


# ----------------------------------------------------------------------
# parser assembly


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, help="Newton residual tolerance")
    parser.add_argument("--starts", type=int, help="starts per subsystem")
    parser.add_argument("--box", type=float, help="start box radius")


class _Parser(argparse.ArgumentParser):
    """A parser that reads no prefix of a flag as the flag, nor do its sub-parsers.

    Sub-parsers are made of the parser's own class, so every subcommand and
    probe refuses ``--c`` rather than read it as some longer flag.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse's negative-number rule, widened to lists and inf/nan: -1,0 is a value
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.

    Parsing leaves the parser as it was, so every ``run_command`` shares
    it.  Handlers and probe runners look up the pcpkit functions they
    call when they run, so a function replaced later is the one called.
    """
    parser = _Parser(
        prog="pcpkit",
        description="Polynomial complementarity problems: solve, probe, verify bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--seed", type=_seed, default=0, help="RNG seed >= 0 (default 0)")
        return p

    p = common(sub.add_parser("solve", help="enumerate the solution set"))
    p.add_argument("instance")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_solve, parser=p)

    p = sub.add_parser("residual", help="evaluate residuals at a point")
    p.add_argument("instance")
    p.add_argument("--point", type=_floats, required=True)
    p.set_defaults(handler=_cmd_residual, parser=p)

    p = sub.add_parser("certify", help="certify a candidate solution")
    p.add_argument("instance")
    p.add_argument("--point", type=_floats, required=True)
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 1 on rejection")
    p.add_argument("--tol", type=float, help="Newton residual tolerance")
    p.set_defaults(handler=_cmd_certify, parser=p)

    p = sub.add_parser("homotopy", help="track a continuation path")
    p.add_argument("instance")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--xref", type=_floats, help="reference point")
    start.add_argument("--leading", action="store_true",
                       help="start from the leading-pair deformation at x = 0")
    p.add_argument("--tol", type=float, help="Newton residual tolerance")
    p.set_defaults(handler=_cmd_homotopy, parser=p)

    p = sub.add_parser("probe", help="run a hypothesis probe")
    p.set_defaults(handler=_cmd_probe, parser=p)
    probes = p.add_subparsers(dest="name", required=True)
    # each probe declares the flags its run(inst, args) reads; run returns the
    # report and the header settings beyond instance, probe and seed
    shared = common(argparse.ArgumentParser(add_help=False))
    shared.add_argument("instance")
    shared.add_argument("--assert", dest="assert_", action="store_true",
                        help="exit 1 on a counterexample verdict")
    sampled = argparse.ArgumentParser(add_help=False, parents=[shared])
    sampled.add_argument("--samples", type=int, default=2048)

    def probe(name: str, parent: argparse.ArgumentParser, run) -> argparse.ArgumentParser:
        q = probes.add_parser(name, parents=[parent])
        q.set_defaults(run=run, parser=q)
        return q

    for name, call in (("r0", "r0_test"), ("r0-shifted", "r0_shifted_pair_probe")):
        q = probe(name, sampled, lambda inst, a, call=call: (getattr(probes_mod, call)(
            inst, samples=a.samples, refine_iters=a.refine, seed=a.seed,
            componentwise=a.componentwise), {}))
        q.add_argument("--refine", type=int, default=200)
        q.add_argument("--componentwise", action="store_true")

    q = probe("coercivity", sampled, lambda inst, a: (probes_mod.coercivity_probe(
        inst, a.radii, samples_per_radius=a.samples, seed=a.seed), {}))
    q.add_argument("--radii", type=_floats, required=True)

    q = probe("xref", sampled, lambda inst, a: (probes_mod.xref_boundedness_probe(
        inst, a.xref, a.radius, samples=a.samples, use_leading=a.leading, seed=a.seed), {}))
    q.add_argument("--xref", type=_floats, required=True)
    q.add_argument("--radius", type=float, required=True)
    q.add_argument("--leading", action="store_true")

    q = probe("karamardian", sampled, lambda inst, a: (probes_mod.karamardian_coercivity_probe(
        inst, a.c, samples=a.samples, seed=a.seed), {}))
    q.add_argument("--c", type=float, required=True)

    _add_solver_flags(probe("jacobian", shared, _probe_jacobian))

    q = probe("pfunction", shared, lambda inst, a: (probes_mod.p_function_probe(
        inst, _region(a.region, inst.n), pairs=a.pairs, seed=a.seed), {}))
    q.add_argument("--region", type=_floats, required=True)
    q.add_argument("--pairs", type=int, default=1000)

    p = common(sub.add_parser("bounds", help="verify an error bound empirically"))
    p.add_argument("instance")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=10_000)
    domain = p.add_mutually_exclusive_group(required=True)
    domain.add_argument("--region", type=_floats, help="box lo,hi[,lo,hi...]: the local bound")
    domain.add_argument("--radii", type=_floats, help="sphere radii: the global bound")
    p.add_argument("--claim", type=float, help="claimed constant to test")
    p.add_argument("--csv", action="store_true", help="dump dist,residual pairs as CSV")
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 1 when the claimed constant is violated")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_bounds, parser=p)

    p = sub.add_parser("exponent", help="print the error-bound exponents")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_exponent, parser=p)

    p = common(sub.add_parser("generate", help="draw a random instance"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", type=_ints)
    p.add_argument("--degrees-f", dest="degrees_f", type=_ints)
    p.add_argument("--degrees-g", dest="degrees_g", type=_ints)
    p.add_argument("--name")
    p.set_defaults(handler=_cmd_generate, parser=p)

    p = common(sub.add_parser("trial", help="Monte Carlo over random instances"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", type=_ints, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="per-trial rows as CSV")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_trial, parser=p)

    p = sub.add_parser("lemke", help="solve an LCP by complementary pivoting")
    p.add_argument("problem", help="JSON file with keys 'M' and 'q'")
    p.set_defaults(handler=_cmd_lemke, parser=p)

    return parser


def run_command(argv) -> int:
    """Parse argv, run the subcommand, print the report; return the exit code."""
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # refused by the innermost subcommand, whose usage lists its own flags
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
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
