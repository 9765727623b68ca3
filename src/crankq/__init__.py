"""Exact q-series arithmetic and a congruence verification harness.

The package revolves around four layers:

* :mod:`crankq.series` -- truncated Laurent series over exact integers,
  the value type everything else computes with;
* :mod:`crankq.etaq` -- the named generating functions: products of
  sparse theta factors, among them the closed theta-style sums;
* :mod:`crankq.kalgebra` -- the symbolic Laurent algebra in the
  parameter K and the P(m,n) recurrence system, cross-validated against
  direct series evaluation;
* :mod:`crankq.congruence` and :mod:`crankq.tasks` -- combinatorial
  counting oracles, arithmetic-progression congruence scans, the table
  of identities the paper rests on and the registry of verification
  tasks behind the ``crankq`` command line tool.
"""

from .errors import (CrankqError, EnumerationCapExceeded, InexactDivision,
                     NonUnitLeadingCoefficient, OrderExceeded)
from .series import Series
from .etaq import (EtaQuotientSpec, SeriesName, ThetaKind, eta_quotient, eta_series,
                   named_series, parse_quotient, rr_series, rr_stretch, theta_sum)
from .kalgebra import (K, KPolynomial, PmnIndex, eval_at_K, eval_at_K_many, pmn,
                       pmn_series, pmn_series_grid, verify_combo_identity,
                       verify_recurrences, verify_series_agreement)
from .congruence import (CongruenceFamily, check_progression,
                         colored_partition_oracle, cooper_hirschhorn_check,
                         crank_parity_oracle, solve_24n_condition, weighted_sum)
from .report import CheckReport
from . import tasks

__version__ = "0.1.0"

__all__ = [
    "CrankqError", "EnumerationCapExceeded", "InexactDivision",
    "NonUnitLeadingCoefficient", "OrderExceeded",
    "Series",
    "EtaQuotientSpec", "SeriesName",
    "ThetaKind", "eta_quotient", "eta_series", "named_series",
    "parse_quotient", "rr_series", "rr_stretch", "theta_sum",
    "K", "KPolynomial", "PmnIndex", "eval_at_K", "eval_at_K_many", "pmn",
    "pmn_series", "pmn_series_grid",
    "verify_combo_identity", "verify_recurrences", "verify_series_agreement",
    "CongruenceFamily", "check_progression",
    "colored_partition_oracle", "cooper_hirschhorn_check",
    "crank_parity_oracle", "solve_24n_condition", "weighted_sum",
    "CheckReport", "tasks",
    "__version__",
]
