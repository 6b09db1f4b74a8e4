"""Workload generators.

* :mod:`repro.workload.restaurant` — the paper's running example: the exact
  Figure 1 version sequence, plus a scalable synthetic restaurant guide
  with ground-truth identity tracking (for the Section 7.4 equality
  experiments).
* :mod:`repro.workload.tdocgen` — a TDocGen-style synthetic temporal
  document generator: random trees evolved version by version with
  configurable update/insert/delete rates.
* :mod:`repro.workload.words` — Zipf-distributed vocabulary shared by the
  generators.
* :mod:`repro.workload.ingest` — :class:`BatchingWriter`, group-commit
  ingestion through a store's commit groups.
* :mod:`repro.workload.keyword` — the temporal keyword-search query
  stream with tracer-measured latencies.

Everything is deterministic under a seed.
"""

from .words import Vocabulary
from .restaurant import (
    FIGURE1_DATES,
    RestaurantGuideGenerator,
    figure1_versions,
    load_figure1,
)
from .tdocgen import TDocGenerator, build_collection
from .ingest import BatchingWriter
from .keyword import KeywordQuery, KeywordRunReport, KeywordWorkload

__all__ = [
    "Vocabulary",
    "figure1_versions",
    "load_figure1",
    "FIGURE1_DATES",
    "RestaurantGuideGenerator",
    "TDocGenerator",
    "build_collection",
    "BatchingWriter",
    "KeywordQuery",
    "KeywordRunReport",
    "KeywordWorkload",
]
