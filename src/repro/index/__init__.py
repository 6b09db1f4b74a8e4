"""Index structures (Section 7.2 of the paper).

* :class:`~repro.index.fti.TemporalFullTextIndex` — **alternative 1**, the
  paper's choice: index the contents of every version, postings carry
  validity intervals.  Supports the three basic operations
  ``FTI_lookup`` / ``FTI_lookup_T`` / ``FTI_lookup_H``.
  Alternatives 2 (index the delta operations) and 3 (both) are the
  references in ``benchmarks/ablation/fti_alternatives.py`` (benchmark E6).
* :class:`~repro.index.lifetime.LifetimeIndex` — the auxiliary EID →
  (create time, delete time) index of Section 7.3.6.

All indexes are store observers: subscribe them with
``store.subscribe(index)`` and they stay current with every commit.
"""

from .postings import Posting, occurrences, tokenize
from .fti import TemporalFullTextIndex
from .lifetime import LifetimeIndex
from .relevance import ScoredDoc, TemporalKeywordScorer
from .stats import IndexStats, JoinStats

__all__ = [
    "Posting",
    "occurrences",
    "tokenize",
    "TemporalFullTextIndex",
    "LifetimeIndex",
    "ScoredDoc",
    "TemporalKeywordScorer",
    "IndexStats",
    "JoinStats",
]
