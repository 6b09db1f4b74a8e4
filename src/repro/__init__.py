"""repro — temporal query operators for XML databases.

A from-scratch reproduction of Kjetil Nørvåg, *Algorithms for Temporal
Query Operators in XML Databases* (EDBT 2002 Workshops): a transaction-time
XML database with versioned storage (current version + completed deltas +
snapshots), a temporal full-text index, the TPatternScan operator family,
and the TXQL query language.

Quickstart::

    from repro import TemporalXMLDatabase

    db = TemporalXMLDatabase()
    db.put("guide.com", "<guide>...</guide>")
    db.query('SELECT R FROM doc("guide.com")/restaurant R')

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced experiments.
"""

from .clock import (
    Interval,
    LogicalClock,
    Timestamp,
    UNTIL_CHANGED,
    format_timestamp,
    parse_date,
)
from .db import TemporalXMLDatabase
from .errors import TemporalXMLError
from .model.identifiers import EID, TEID
from .query import QueryEngine, ResultSet, parse_query
from .storage import TemporalDocumentStore
from .xmlcore import Element, Path, Text, element, parse, serialize

__version__ = "0.1.0"

__all__ = [
    "TemporalXMLDatabase",
    "TemporalDocumentStore",
    "QueryEngine",
    "ResultSet",
    "parse_query",
    "EID",
    "TEID",
    "Interval",
    "LogicalClock",
    "Timestamp",
    "UNTIL_CHANGED",
    "parse_date",
    "format_timestamp",
    "Element",
    "Text",
    "element",
    "parse",
    "serialize",
    "Path",
    "TemporalXMLError",
    "__version__",
]
