"""Exact q-series arithmetic and a congruence verification harness.

The package revolves around five layers:

* :mod:`crankq.series` -- truncated Laurent series over exact integers,
  the value type everything else computes with;
* :mod:`crankq.etaq` -- the named generating functions: products of
  sparse theta factors, among them the closed theta-style sums;
* :mod:`crankq.kalgebra` -- the symbolic Laurent algebra in the
  parameter K and the P(m,n) recurrence system, and the direct
  evaluation of P(m,n) from the R-series;
* :mod:`crankq.congruence` -- combinatorial counting oracles and
  arithmetic-progression congruence scans;
* :mod:`crankq.tasks` -- the table of identities the paper rests on and
  the registry of verification tasks behind the ``crankq`` command line
  tool, each check with its one body there.
"""

from .errors import (CrankqError, EnumerationCapExceeded, InexactDivision,
                     NonUnitLeadingCoefficient, OrderExceeded)
from .series import Series
from .etaq import (EtaQuotientSpec, SeriesName, ThetaKind, eta_quotient, eta_series,
                   named_series, parse_quotient, rr_series, rr_stretch, theta_sum)
from .kalgebra import (K, KPolynomial, PmnIndex, eval_at_K, eval_at_K_many, pmn,
                       pmn_series, pmn_series_grid)
from .congruence import (CongruenceFamily, check_progression, colored_partition_oracle,
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
    "CongruenceFamily", "check_progression", "colored_partition_oracle",
    "crank_parity_oracle", "solve_24n_condition", "weighted_sum",
    "CheckReport", "tasks",
    "__version__",
]
