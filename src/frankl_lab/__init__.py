"""frankl-lab: exact combinatorics and LP toolkit for the union-closed
sets (Frankl) conjecture.

Core objects: bitmask set families (`families`), extremal searches for
f(n,a) and g(n,m) (`search`), the node, pivot and wall-clock limits both
of those and the LP solver accept (`budget`), the rational dual
certificate and its closed-form bound (`certificate`), the exact LP
relaxation and dual verification (`lp`), and mechanical theorem checkers
(`theorems`).
"""

from .budget import SearchBudget
from .certificate import (BoundTable, CertificateReport, DualCertificate,
                          bar_f, bar_f_diag, bound_table, make_certificate,
                          verify_certificate)
from .families import (MaxFrequency, SetFamily, complement, family_from_json,
                       family_to_json, frankl_witness, frequencies,
                       is_union_closed, max_frequency, random_union_closed,
                       union_closure)
from .lp import (DualInfeasibleError, LpProblem, LpSolution, build_relaxation,
                 certificate_dual_bound, certificate_to_dual,
                 lift_symmetric_primal, problem_to_text,
                 prove_diagonal_relaxation_value, solve_exact,
                 symmetric_relaxation_value, verify_dual_bound)
from .reports import VerificationReport
from .search import (SearchResult, compute_f, compute_g,
                     enumerate_union_closed)
from .theorems import (CLAIMS, check_fg_duality, check_missing_covering,
                       check_missing_subsets, powerset_minus_singletons,
                       run_claim, verify_f_theorem, verify_g_theorem,
                       verify_monotonicity)

__version__ = "0.1.0"

__all__ = [
    "BoundTable", "CertificateReport", "DualCertificate", "DualInfeasibleError",
    "LpProblem", "LpSolution", "MaxFrequency", "SearchBudget", "SearchResult",
    "SetFamily", "VerificationReport",
    "CLAIMS", "bar_f", "bar_f_diag", "bound_table", "build_relaxation",
    "certificate_dual_bound", "certificate_to_dual", "check_fg_duality",
    "check_missing_covering", "check_missing_subsets", "complement",
    "compute_f", "compute_g", "enumerate_union_closed", "family_from_json",
    "family_to_json", "frankl_witness", "frequencies", "is_union_closed",
    "lift_symmetric_primal", "make_certificate", "max_frequency",
    "powerset_minus_singletons", "problem_to_text",
    "prove_diagonal_relaxation_value", "random_union_closed", "run_claim",
    "solve_exact", "symmetric_relaxation_value", "union_closure",
    "verify_certificate", "verify_dual_bound", "verify_f_theorem",
    "verify_g_theorem", "verify_monotonicity",
]
