"""The stratum baseline (Section 1).

"The easiest way to realize this is to store all versions of all documents
in the database, and use a middleware layer to convert temporal query
language statements into conventional statements, executed by an underlying
database system (also called a stratum approach).  Although this approach
makes the introduction of temporal support easier, it can be difficult to
achieve good performance."

:class:`~.store.StratumStore` stores every version as a
complete document (no deltas, no persistent element identity);
:class:`~.translator.StratumQueryProcessor` runs TXQL against
it by middleware translation.  Benchmarks E7/E8 compare this baseline with
the native system on space and query cost.
"""

from .store import StratumStore
from .translator import StratumQueryProcessor, UnsupportedInStratumError

__all__ = ["StratumStore", "StratumQueryProcessor", "UnsupportedInStratumError"]
