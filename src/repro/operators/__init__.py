"""The temporal query operators (Sections 6–7 of the paper).

================  =========================================================
Operator          Module
================  =========================================================
PatternScan       :mod:`repro.operators.patternscan`
TPatternScan      :mod:`repro.operators.tpatternscan`
TPatternScanAll   :mod:`repro.operators.tpatternscan`
DocHistory        :mod:`repro.operators.history`
ElementHistory    :mod:`repro.operators.history`
CreTime, DelTime  :mod:`repro.operators.lifetime`
PreviousTS etc.   :mod:`repro.operators.navigation`
Reconstruct       :mod:`repro.operators.reconstruct`
Diff              :mod:`repro.operators.diffop`
traditional ops   :mod:`repro.operators.relational`
================  =========================================================

Operators follow a uniform calling convention: construct with their inputs,
then ``run()`` or iterate.  The pattern-scan family streams: ``run()`` and
``teids()`` return lazy iterators over the structural join, so early-exit
consumers (LIMIT) never drain the full match set — wrap in ``list()`` to
materialize.  History operators return lists.  Scalar operators (CreTime,
the version-navigation family) expose ``value()`` instead.
"""

from .patternscan import PatternScan
from .tpatternscan import TPatternScan, TPatternScanAll
from .history import DocHistory, ElementHistory
from .lifetime import CreTime, DelTime
from .navigation import current_ts, next_ts, previous_ts
from .reconstruct import Reconstruct
from .diffop import Diff
from .relational import (
    Coalesce,
    Distinct,
    GroupedAggregate,
    Join,
    Project,
    Select,
)

__all__ = [
    "PatternScan",
    "TPatternScan",
    "TPatternScanAll",
    "DocHistory",
    "ElementHistory",
    "CreTime",
    "DelTime",
    "previous_ts",
    "next_ts",
    "current_ts",
    "Reconstruct",
    "Diff",
    "Select",
    "Project",
    "Join",
    "Distinct",
    "GroupedAggregate",
    "Coalesce",
]
