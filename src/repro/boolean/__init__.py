"""Boolean reasoning substrates used by the formal verification engines.

* :mod:`repro.boolean.expr` — Boolean expression nodes with light-weight
  structural simplification.
* :mod:`repro.boolean.bitblast` — word-level HDL expressions to per-bit
  Boolean functions.
* :mod:`repro.boolean.cnf` — clause databases and Tseitin transformation.
* :mod:`repro.boolean.sat` — a CDCL SAT solver built for persistent reuse
  on a flat clause arena with blocker-literal watch lists (VSIDS,
  first-UIP learning, phase saving, restarts, compacting learned-clause
  database reduction, per-solve instrumentation).
* :mod:`repro.boolean.certify` — reverse-unit-propagation checking of
  the solver's learned-clause derivations (UNSAT certificates).
* :mod:`repro.boolean.incremental` — a persistent CnfBuilder/SatSolver
  pair with activation-literal queries, the substrate of the incremental
  BMC engine.
* :mod:`repro.boolean.bdd` — a reduced ordered BDD package with the
  operations symbolic reachability needs.
"""

from repro.boolean.bdd import BDD
from repro.boolean.certify import CertificateError, check_rup_proof, rup_implied
from repro.boolean.cnf import CnfBuilder, Clause, canonical_clause
from repro.boolean.incremental import IncrementalSolver, ReuseCounters
from repro.boolean.expr import (
    FALSE,
    TRUE,
    BoolExpr,
    and_,
    iff,
    implies,
    ite,
    not_,
    or_,
    var,
    xor_,
)
from repro.boolean.sat import SatResult, SatSolver, solve_clauses, solve_expr

__all__ = [
    "BDD",
    "BoolExpr",
    "CertificateError",
    "Clause",
    "CnfBuilder",
    "FALSE",
    "IncrementalSolver",
    "ReuseCounters",
    "SatResult",
    "SatSolver",
    "TRUE",
    "and_",
    "canonical_clause",
    "check_rup_proof",
    "iff",
    "implies",
    "ite",
    "not_",
    "or_",
    "rup_implied",
    "solve_clauses",
    "solve_expr",
    "var",
    "xor_",
]
