"""TXQL: the paper's temporal XML query language (Section 5).

A Lorel/Xyleme/XQuery-flavoured ``SELECT / FROM / WHERE`` dialect with the
temporal extensions the paper introduces:

* a timestamp qualifier on document sources — ``doc("url")[26/01/2001]`` —
  selecting the snapshot valid at that time,
* ``doc("url")[EVERY]`` selecting *all* versions,
* ``TIME(R)``, ``CREATE TIME(R)``, ``DELETE TIME(R)``,
* ``PREVIOUS(R)`` / ``NEXT(R)`` / ``CURRENT(R)`` version navigation,
* ``DIFF(R1, R2)`` returning edit scripts as XML,
* time arithmetic: ``NOW - 14 DAYS``, ``26/01/2001 + 2 WEEKS``,
* the three equality regimes ``=`` (value), ``==`` (identity), ``~``
  (similarity).

Entry points: :func:`parse_query` (text → AST) and
:class:`~repro.query.executor.QueryEngine` (AST → results over a store and
its indexes).  Most applications use :class:`repro.db.TemporalXMLDatabase`,
which wires everything together.
"""

from .ast import Query
from .lexer import tokenize_query
from .parser import parse_query
from .executor import QueryEngine, ResultSet

__all__ = [
    "Query",
    "tokenize_query",
    "parse_query",
    "QueryEngine",
    "ResultSet",
]
