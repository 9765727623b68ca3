"""Exact q-series arithmetic and a congruence verification harness.

The package revolves around four layers:

* :mod:`crankq.series` -- truncated Laurent series over exact integers,
  the value type everything else computes with;
* :mod:`crankq.etaq` and :mod:`crankq.theta` -- the named generating
  functions (products of sparse theta factors, closed theta-style sums)
  and the classical identities relating them;
* :mod:`crankq.kalgebra` -- the symbolic Laurent algebra in the
  parameter K and the P(m,n) recurrence system, cross-validated against
  direct series evaluation;
* :mod:`crankq.congruence` and :mod:`crankq.tasks` -- enumeration
  oracles, arithmetic-progression congruence scans and the registry of
  verification tasks behind the ``crankq`` command line tool.
"""

from .errors import (CrankqError, EnumerationCapExceeded, InexactDivision,
                     NonUnitLeadingCoefficient, OrderExceeded)
from .series import Series
from .etaq import (EtaQuotientSpec, SeriesName, binomial_congruence_check,
                   eta_quotient, eta_series, named_series, parse_quotient,
                   rr_series, rr_stretch)
from .theta import (ThetaKind, theta_sum, verify_5dissections,
                    verify_K_identities, verify_theta_identity)
from .kalgebra import (K, KPolynomial, PmnIndex, eval_at_K, pmn, pmn_series,
                       verify_combo_identity, verify_recurrences,
                       verify_series_agreement)
from .congruence import (CongruenceFamily, Partition, WeightKind,
                         check_progression, check_theorem,
                         colored_partition_oracle, cooper_hirschhorn_check,
                         crank, crank_parity_oracle, partitions,
                         solve_24n_condition, weighted_sum)
from .report import CheckReport
from . import tasks

__version__ = "0.1.0"

__all__ = [
    "CrankqError", "EnumerationCapExceeded", "InexactDivision",
    "NonUnitLeadingCoefficient", "OrderExceeded",
    "Series",
    "EtaQuotientSpec", "SeriesName",
    "binomial_congruence_check", "eta_quotient", "eta_series", "named_series",
    "parse_quotient", "rr_series", "rr_stretch",
    "ThetaKind", "theta_sum", "verify_5dissections", "verify_K_identities",
    "verify_theta_identity",
    "K", "KPolynomial", "PmnIndex", "eval_at_K", "pmn", "pmn_series",
    "verify_combo_identity", "verify_recurrences", "verify_series_agreement",
    "CongruenceFamily", "Partition", "WeightKind", "check_progression",
    "check_theorem", "colored_partition_oracle", "cooper_hirschhorn_check",
    "crank", "crank_parity_oracle", "partitions", "solve_24n_condition",
    "weighted_sum",
    "CheckReport", "tasks",
    "__version__",
]
