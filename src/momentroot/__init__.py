"""momentroot: exact analysis of kappa-th roots of finitely atomic
Stieltjes moment sequences.

Decides with certificates whether the kappa-th root of such a sequence is
again a Stieltjes moment sequence, recovers the root's representing
measure, computes product supports and holes, evaluates the hole-transfer
criteria on concrete instances, and synthesizes witnesses for the (M, N)
square-root feasibility characterization.  All verdicts are exact; dyadic
approximations appear only in reports.
"""

from .exact import (
    GuardExceeded,
    Radical,
    UsageError,
    bigfloat_root,
    floor_log_ratio,
    format_rational,
    parse_rational,
)
from .measures import (
    AtomicMeasure,
    Hole,
    find_holes,
    kappa_power_measure,
    load_measure,
    product_support,
)
from .decide import (
    Certificate,
    CertificateKind,
    NuRepresentation,
    RootDecision,
    Verdict,
    approx_root_moments,
    decide_root,
    verify_representation,
)
from .holes import (
    RootPair,
    TheoremReport,
    TripleParams,
    check_root_order_membership,
    check_top_of_support,
    check_hole_forward,
    check_hole_backward,
    check_lower_support,
    check_iota_hole_criteria,
    kappa_dependence_scan,
    iota_dagger_relations,
    iota_relations,
    iota_star_witness,
    triple_params,
)
from .feasibility import (
    FeasibilityWitness,
    InfeasiblePair,
    class_membership,
    feasible,
    n_minus,
    n_plus,
    product_count,
    witness,
)
from .generate import GenParams, random_atomic_measure
from .fuzz import FuzzSummary, run_suite

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "Certificate",
    "CertificateKind",
    "FeasibilityWitness",
    "FuzzSummary",
    "GenParams",
    "GuardExceeded",
    "Hole",
    "InfeasiblePair",
    "NuRepresentation",
    "Radical",
    "RootDecision",
    "RootPair",
    "TheoremReport",
    "TripleParams",
    "UsageError",
    "Verdict",
    "approx_root_moments",
    "bigfloat_root",
    "check_root_order_membership",
    "check_top_of_support",
    "check_hole_forward",
    "check_hole_backward",
    "check_lower_support",
    "check_iota_hole_criteria",
    "class_membership",
    "decide_root",
    "feasible",
    "find_holes",
    "floor_log_ratio",
    "format_rational",
    "kappa_power_measure",
    "load_measure",
    "n_minus",
    "n_plus",
    "parse_rational",
    "kappa_dependence_scan",
    "product_count",
    "product_support",
    "random_atomic_measure",
    "run_suite",
    "iota_dagger_relations",
    "iota_relations",
    "iota_star_witness",
    "triple_params",
    "verify_representation",
    "witness",
]
