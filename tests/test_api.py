"""The public API is pinned: adding a name to ``trifrac.__all__`` or taking
one away is a deliberate edit of this list."""

import trifrac

PUBLIC = [
    "AuditInstance", "AuditReport", "BaseTriple", "DecisionOutcome", "DegreeReport",
    "FamilySolution", "KlEvidence", "ParamSet", "PolyTriple", "RationalPoly",
    "ResidueClass", "RoleTriple", "ScanReport", "ScanRow", "admissible_residues",
    "analyze_degrees", "audit_condition_i", "audit_corollary3", "audit_corollary4",
    "construct_solution", "decide", "divisors", "enumerate_base_solutions", "enumerate_kl", "gcd",
    "identity_holds", "minus_family", "plus_family", "primes_up_to", "residual", "scan_residues",
    "verify_identity",
]


def test_public_api_is_pinned():
    assert sorted(trifrac.__all__) == PUBLIC
    namespace = {}
    exec("from trifrac import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(trifrac, name)
