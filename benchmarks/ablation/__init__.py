"""The paper's Section 7 alternatives, kept beside the engine as references.

The paper chooses one design per layer and argues about the others in
prose; ``src/repro`` ships only the chosen ones.  The alternatives live
here so their equivalence tests and E-series benchmarks keep something to
compare against:

* :mod:`.fti_alternatives` — the delta-operation and hybrid indexes
  (§7.2 alternatives 2 and 3; E6), and the full-history lookup adapter;
* :mod:`.stratum` — full-version storage plus middleware translation
  (§1; E7, E8);
* :mod:`.joins` — the backtracking nested-loop structural join
  (§7.3.1–7.3.2; E1b, E2b);
* :mod:`.reconstruct` — backward-only reconstruction (§7.3.3; E3c);
* :mod:`.lifetime` — CreTime/DelTime by delta traversal (§7.3.6; E5);
* :mod:`.disk` — the paged-disk simulator behind every "pages" and "seeks"
  column, attached to a store from outside (§7.2 clustered vs. unclustered
  delta placement; E1, E7, E8, E9).

Bench scripts import these as ``ablation.<module>`` (their directory is on
the path), tests as ``benchmarks.ablation.<module>``; nothing under
``src/repro`` imports them (``tests/test_layout.py`` checks).
"""
