"""Temporal keyword search with tf-idf relevance over the FTI.

The interval postings of the
:class:`~repro.index.fti.TemporalFullTextIndex` carry everything a
classic ranked keyword search needs — term frequency is the number of
postings a document holds for a term, document frequency is the number
of distinct documents holding any — *plus* transaction time, which the
XML IR literature (the survey in PAPERS.md) adds as a first-class
dimension.  :class:`TemporalKeywordScorer` exposes the two query shapes
a temporal document warehouse issues:

``search_t(terms, ts)``
    ranked documents *as of* an instant: postings from ``lookup_t``,
    integer term frequencies.

``search_window(terms, start, end)``
    ranked documents over a time window: postings from ``lookup_w``
    clipped to the window, each weighted by the **fraction of the
    window it was valid for** — a term that held for the whole window
    counts as a full occurrence, one that flickered in briefly counts
    proportionally.  This is the natural sequenced generalization of tf
    and reduces to ``search_t`` as the window shrinks to an instant.

Scoring is the smoothed tf-idf family used by most IR engines::

    idf(t)      = ln((1 + N) / (1 + df(t))) + 1
    score(d)    = sum_t  ln(1 + tf(t, d)) * idf(t)

with ``N`` the corpus size (pass ``n_docs``; by default the number of
distinct documents matched by any query term, which keeps the scorer
self-contained and the *ranking* well-defined).  Ties break on doc_id,
so rankings are fully deterministic — the xml/cas differential test
depends on that.

Two planner-era optimizations, both ranking-preserving:

* query terms are deduplicated and retrieved **rarest first** (by the
  index's history posting counts), so conjunctive queries shrink their
  candidate set as early as possible;
* ``search_window`` reads windowed posting lists (``lookup_w``) — only
  postings overlapping the window are ever scanned, instead of the full
  history list per term.  ``FullHistoryLookup`` in
  ``benchmarks/ablation/fti_alternatives.py`` wraps an index to measure
  what that saves.

``match_all=True`` turns either search conjunctive: each term's lookup is
restricted (via the ``docs=`` pushdown) to the documents that matched all
rarer terms before it, with an early exit once the intersection empties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .postings import tokenize


@dataclass(frozen=True)
class ScoredDoc:
    """One ranked result: a document and its relevance score."""

    doc_id: int
    score: float
    matched_terms: int  # how many distinct query terms the document holds


class TemporalKeywordScorer:
    """Ranked keyword search over a temporal full-text index."""

    def __init__(self, fti):
        self.fti = fti

    # -- query shapes ---------------------------------------------------------

    def search_t(self, query, ts, n_docs=None, limit=None, match_all=False):
        """Ranked documents as of instant ``ts``.

        ``query`` is free text (tokenized like indexed content) or a
        pre-tokenized term list.  Returns :class:`ScoredDoc` rows sorted
        by descending score (doc_id breaks ties).  ``match_all=True``
        keeps only documents holding *every* query term."""
        terms = self._terms(query)
        tfs = {}
        docs = None
        for term in terms:
            per_doc = {}
            for posting in self.fti.lookup_t(term, ts, docs=docs):
                per_doc[posting.doc_id] = per_doc.get(posting.doc_id, 0) + 1
            tfs[term] = per_doc
            if match_all:
                docs = set(per_doc)
                if not docs:
                    return []
        return self._rank(tfs, n_docs, limit, require_all=match_all)

    def search_window(self, query, start, end, n_docs=None, limit=None,
                      match_all=False):
        """Ranked documents over the window ``[start, end)``.

        Each posting contributes its temporal coverage of the window
        (clipped overlap / window length) to the term frequency, so
        long-lived occurrences outrank transient ones."""
        if start >= end:
            raise ValueError(f"empty search window [{start}, {end})")
        terms = self._terms(query)
        span = end - start
        tfs = {}
        docs = None
        for term in terms:
            per_doc = {}
            for posting in self.fti.lookup_w(term, start, end, docs=docs):
                if posting.start >= end or posting.end <= start:
                    continue
                overlap = min(posting.end, end) - max(posting.start, start)
                coverage = overlap / span
                per_doc[posting.doc_id] = (
                    per_doc.get(posting.doc_id, 0.0) + coverage
                )
            tfs[term] = per_doc
            if match_all:
                docs = set(per_doc)
                if not docs:
                    return []
        return self._rank(tfs, n_docs, limit, require_all=match_all)

    # -- scoring --------------------------------------------------------------

    def _terms(self, query):
        """Deduplicated query terms, rarest first.

        Duplicates never changed the score (the per-term tf map collapsed
        them), so dropping them is pure savings; the rarest-first order
        makes the ``match_all`` intersection shrink fastest.  Both are
        ranking-neutral — scores sum over terms commutatively."""
        if isinstance(query, str):
            tokens = tokenize(query)
        else:
            tokens = [t for term in query for t in tokenize(term)]
        unique = list(dict.fromkeys(tokens))
        return sorted(unique, key=lambda term: self.fti.term_stats(term)[0])

    @staticmethod
    def _rank(tfs, n_docs, limit, require_all=False):
        matched = set()
        for per_doc in tfs.values():
            matched.update(per_doc)
        if require_all:
            for per_doc in tfs.values():
                matched &= set(per_doc)
        if not matched:
            return []
        corpus = n_docs if n_docs is not None else len(matched)
        scores = dict.fromkeys(matched, 0.0)
        hits = dict.fromkeys(matched, 0)
        for per_doc in tfs.values():
            df = len(per_doc)
            if not df:
                continue
            idf = math.log((1 + corpus) / (1 + df)) + 1.0
            for doc_id, tf in per_doc.items():
                if doc_id not in scores:
                    continue
                scores[doc_id] += math.log1p(tf) * idf
                hits[doc_id] += 1
        ranked = sorted(
            (
                ScoredDoc(doc_id, scores[doc_id], hits[doc_id])
                for doc_id in matched
            ),
            key=lambda s: (-s.score, s.doc_id),
        )
        return ranked[:limit] if limit is not None else ranked
