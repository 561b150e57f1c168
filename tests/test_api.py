"""Pins the public API: adding or removing a name in momentroot.__all__
must show up as a change to this list."""

import momentroot

PUBLIC = [
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
    "check_hole_backward",
    "check_hole_forward",
    "check_iota_hole_criteria",
    "check_lower_support",
    "check_root_order_membership",
    "check_top_of_support",
    "class_membership",
    "decide_root",
    "feasible",
    "find_holes",
    "floor_log_ratio",
    "format_rational",
    "iota_dagger_relations",
    "iota_relations",
    "iota_star_witness",
    "kappa_dependence_scan",
    "kappa_power_measure",
    "load_measure",
    "n_minus",
    "n_plus",
    "parse_rational",
    "product_count",
    "product_support",
    "random_atomic_measure",
    "run_suite",
    "triple_params",
    "verify_representation",
    "witness",
]


def test_public_names_are_pinned():
    assert sorted(momentroot.__all__) == PUBLIC
    assert len(PUBLIC) == len(set(PUBLIC)) == 47


def test_public_names_resolve():
    for name in PUBLIC:
        assert getattr(momentroot, name) is not None, name
