"""pcpkit: solve and analyze polynomial complementarity problems.

Find x with f(x) >= 0, g(x) >= 0 and <f(x), g(x)> = 0 for polynomial
maps f, g: enumerate the solution set, probe the asymptotic hypotheses
behind existence and compactness, track existence homotopies, and verify
explicit-exponent error bounds against brute-force distances.
"""

from .bounds import (
    BoundReport,
    ExponentFit,
    HolderExponent,
    empirical_exponent_fit,
    exponent_R,
    holder_exponent,
    naive_exponent,
    verify_global_bound,
    verify_local_bound,
)
from .documents import (
    InstanceDocument,
    parse_instance,
    parse_instance_document,
    report_document,
    serialize_instance,
)
from .enumeration import (
    SolutionCertificate,
    SolutionSet,
    SolveConfig,
    certify_solution,
    distance_to_solutions,
    enumerate_solutions,
    min_abs_subsystem_determinant,
    solve_subsystem,
)
from .exceptions import (
    CertificationError,
    ComplexityGuardError,
    DegenerateInputError,
    EmptyRegionError,
    InputError,
    ParseError,
    PcpError,
    PivotBudgetError,
)
from .genericity import (
    TrialRecord,
    TrialSummary,
    genericity_trial,
    monomials_up_to,
    random_instance,
    trial_instance,
)
from .homotopy import HomotopyTrace, track_leading_homotopy, track_natural_homotopy
from .lemke import LcpResult, lemke_lcp
from .polynomials import PolyMap, Polynomial
from .probes import (
    ProbeReport,
    coercivity_probe,
    jacobian_degeneracy_scan,
    karamardian_coercivity_probe,
    p_function_probe,
    r0_shifted_pair_probe,
    r0_test,
    xref_boundedness_probe,
)
from .residuals import (
    MinPhi,
    PcpInstance,
    leading_min_map,
    min_phi,
    min_phi_values,
    natural_jacobian,
    natural_map,
    natural_residual_norm,
    phi_residual,
    r_residual,
    scalar_min_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CertificationError",
    "ComplexityGuardError",
    "DegenerateInputError",
    "EmptyRegionError",
    "ExponentFit",
    "HolderExponent",
    "HomotopyTrace",
    "InputError",
    "InstanceDocument",
    "LcpResult",
    "MinPhi",
    "ParseError",
    "PcpError",
    "PcpInstance",
    "PivotBudgetError",
    "PolyMap",
    "Polynomial",
    "ProbeReport",
    "SolutionCertificate",
    "SolutionSet",
    "SolveConfig",
    "TrialRecord",
    "TrialSummary",
    "certify_solution",
    "coercivity_probe",
    "distance_to_solutions",
    "empirical_exponent_fit",
    "enumerate_solutions",
    "exponent_R",
    "genericity_trial",
    "holder_exponent",
    "jacobian_degeneracy_scan",
    "karamardian_coercivity_probe",
    "leading_min_map",
    "lemke_lcp",
    "min_abs_subsystem_determinant",
    "min_phi",
    "min_phi_values",
    "monomials_up_to",
    "naive_exponent",
    "natural_jacobian",
    "natural_map",
    "natural_residual_norm",
    "p_function_probe",
    "parse_instance",
    "parse_instance_document",
    "phi_residual",
    "r_residual",
    "r0_shifted_pair_probe",
    "r0_test",
    "random_instance",
    "report_document",
    "scalar_min_bound",
    "serialize_instance",
    "solve_subsystem",
    "track_leading_homotopy",
    "track_natural_homotopy",
    "trial_instance",
    "verify_global_bound",
    "verify_local_bound",
]
