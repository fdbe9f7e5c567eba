"""trifrac: integer polynomial solutions of m/(n0 + n1*t) = 1/x + 1/y + 1/z."""

from .base_solutions import BaseTriple, enumerate_base_solutions
from .families import FamilySolution, RoleTriple, minus_family, plus_family
from .intmath import divisors, gcd, primes_up_to
from .qpoly import RationalPoly
from .scan_audit import (
    AuditInstance,
    AuditReport,
    ScanReport,
    ScanRow,
    audit_condition_i,
    audit_corollary3,
    audit_corollary4,
    scan_residues,
)
from .theorem import (
    DecisionOutcome,
    DegreeReport,
    KlEvidence,
    ParamSet,
    PolyTriple,
    ResidueClass,
    admissible_residues,
    analyze_degrees,
    construct_solution,
    decide,
    enumerate_kl,
    identity_holds,
    residual,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "AuditInstance",
    "AuditReport",
    "BaseTriple",
    "DecisionOutcome",
    "DegreeReport",
    "FamilySolution",
    "KlEvidence",
    "ParamSet",
    "PolyTriple",
    "RationalPoly",
    "ResidueClass",
    "RoleTriple",
    "ScanReport",
    "ScanRow",
    "admissible_residues",
    "analyze_degrees",
    "audit_condition_i",
    "audit_corollary3",
    "audit_corollary4",
    "construct_solution",
    "decide",
    "divisors",
    "enumerate_base_solutions",
    "enumerate_kl",
    "gcd",
    "identity_holds",
    "minus_family",
    "plus_family",
    "primes_up_to",
    "residual",
    "scan_residues",
    "verify_identity",
]
