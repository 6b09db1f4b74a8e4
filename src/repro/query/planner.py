"""FROM-clause execution: index scans vs. navigational scans.

For every FROM item the engine's :class:`~repro.query.optimizer.Optimizer`
builds one :class:`~repro.query.optimizer.FromItemPlan` — the single
source of truth that :func:`bind_planned` executes and EXPLAIN describes,
so the reported plan can never drift from the executed one.  Everything
decided per item (documents, strategy, pattern and pushdowns, snapshot
instant or version range, lookup bounds) is read from the plan here;
nothing is re-derived at run time.  Two strategies compete:

**Index scan** (the paper's intended execution): compile the item's path —
plus the pushable value predicates from the WHERE clause — into a pattern
tree and run ``TPatternScan`` (snapshot) or ``TPatternScanAll`` (EVERY)
over the temporal FTI.  Only the matching rows' documents are ever
reconstructed, and aggregate-only queries like Q2 may reconstruct nothing
at all ("this is important, and shows that in many cases the storage of
only deltas ... does not create performance problems").

**Navigational scan** (fallback and baseline): reconstruct the relevant
document version(s) and walk the path.  Used when the engine has no FTI
(benchmark E8's stratum-style execution), the path is empty or contains
wildcards — or when the cost model prices reconstruction below the
index's posting scans.

A pushed-down predicate is only a pre-filter: the WHERE clause is always
re-evaluated, so pushing a conjunct can never change results, only costs.
"""

from __future__ import annotations

from fnmatch import fnmatch

from ..errors import NoSuchDocumentError
from ..model.identifiers import TEID
from ..operators.history import DocHistory
from ..index.postings import tokenize
from ..operators.tpatternscan import TPatternScan, TPatternScanAll
from ..pattern.tree import Pattern, PatternNode
from ..xmlcore.path import CHILD, Path
from .ast import BinOp, Literal, VarPath
from .values import BoundElement


def bind_planned(engine, plan):
    """Execute one FROM-item plan: a traced, lazy binding iterator."""
    if plan.strategy == "empty" or not plan.doc_ids:
        return []
    item = plan.item
    attrs = {"variable": item.var, "source": item.label()}
    if plan.est_rows is not None:
        attrs["est_rows"] = plan.est_rows
    if plan.strategy == "index":
        return engine.tracer.traced_iter(
            plan.operator, _index_bindings(engine, plan), **attrs
        )
    source = _deferred(_nav_bindings, engine, plan)
    if plan.sorted_nav:
        # Cost flip over an eligible index scan: emit in the index path's
        # canonical order so the flip never reorders rows.
        unsorted = source
        source = _deferred(
            lambda: sorted(
                unsorted,
                key=lambda b: (b.teid.doc_id, b.teid.timestamp, b.teid.xid),
            )
        )
    return engine.tracer.traced_iter("NavScan", source, **attrs)


def _deferred(fn, *args):
    """Delay ``fn``'s (eager) work until the first ``next()``, so a traced
    iterator charges it to the operator's span instead of the planner's."""
    yield from fn(*args)


# -- document resolution ---------------------------------------------------------


def _resolve_documents(store, url, as_of=None):
    """Doc ids named by ``url``; ``*``/``?`` make it a glob over all names.

    ``as_of`` (a pinned session's snapshot timestamp) resolves names
    against the bindings that existed *at the pin*: documents created
    after it are invisible (not even resolvable to an empty result), and
    since a deleted name can be reused with fresh identity, the pinned
    view picks the newest record of that name created at or before the
    pin — exactly what a quiesced store at the pin would hold."""
    is_glob = any(ch in url for ch in "*?[")
    if as_of is not None:
        return _resolve_as_of(store, url, as_of, is_glob)
    if is_glob:
        return [
            store.doc_id(name)
            for name in store.documents(include_deleted=True)
            if fnmatch(name, url)
        ]
    try:
        return [store.doc_id(url)]
    except NoSuchDocumentError:
        raise NoSuchDocumentError(
            f"query references unknown document {url!r}"
        ) from None


def _resolve_as_of(store, url, as_of, is_glob):
    # Walk records in doc-id (creation) order; the first record of each
    # name fixes the name's enumeration position — matching the store's
    # insertion-ordered name table — while the newest record created at
    # or before the pin is the name's binding at the pin.  A record with
    # no versions yet (a concurrent put() mid-commit) never binds.
    bindings = {}  # name -> doc_id of the newest record created <= as_of
    for record in store.repository.records():
        name = record.name
        if not (fnmatch(name, url) if is_glob else name == url):
            continue
        bindings.setdefault(name, None)
        entries = record.dindex.entries
        if entries and entries[0].timestamp <= as_of:
            bindings[name] = record.doc_id  # later records shadow earlier
    doc_ids = [doc_id for doc_id in bindings.values() if doc_id is not None]
    if not doc_ids and not is_glob:
        raise NoSuchDocumentError(
            f"query references unknown document {url!r}"
        )
    return doc_ids


# -- index strategy ----------------------------------------------------------------


def _index_bindings(engine, plan):
    """Bindings through the pattern index of an already-compiled plan.

    The scan's own :meth:`project` maps the anchored matches to element
    versions: at the snapshot instant, or over the planned version range
    (see :meth:`~repro.operators.tpatternscan.TPatternScan.project` for
    the row order of each).  This is a generator, so the scan's FTI
    lookups and join run under the operator's span, not at plan time, and
    an early-exiting consumer (LIMIT) stops a snapshot join mid-flight.
    """
    steps = Path(plan.item.path).steps
    projected = plan.pattern.projected_index()
    if plan.versions is not None:
        scan = TPatternScanAll(engine.fti, plan.pattern, engine.store,
                               docs=plan.doc_ids, stats=engine.join_stats,
                               tracer=engine.tracer, window=plan.scan_bounds)
        bounds = plan.versions
    else:
        scan = TPatternScan(engine.fti, plan.pattern, plan.timestamp,
                            engine.store, docs=plan.doc_ids,
                            stats=engine.join_stats, tracer=engine.tracer)
        bounds = ()
    matches = (match for match in scan.run()
               if _anchored(match.postings[projected].path, steps))
    for teid, interval in scan.project(matches, *bounds):
        yield BoundElement(engine.store, teid, interval,
                           cache=engine.active_cache)


def _build_pattern(from_steps, pushdowns=()):
    """Pattern tree: the FROM path chain (last step projected — that is the
    element the variable binds to) with optional predicate chains and their
    value words hanging below it.

    Every ``(path_steps, value)`` pair of ``pushdowns`` becomes a branch
    under the projected node, so the containment pre-filter is the
    conjunction of all pushed predicates."""
    nodes = [
        PatternNode(
            step.tag,
            "element",
            "child" if step.axis == CHILD else "descendant",
        )
        for step in from_steps
    ]
    for parent, child in zip(nodes, nodes[1:]):
        parent.add(child)
    nodes[-1].projected = True

    for pred_steps, value in pushdowns:
        anchor = nodes[-1]
        for step in pred_steps:
            anchor = anchor.add(
                PatternNode(
                    step.tag,
                    "element",
                    "child" if step.axis == CHILD else "descendant",
                )
            )
        for word in tokenize(str(value)):
            anchor.add(PatternNode(word, "word", "contains"))
    return Pattern(nodes[0])


def _pushable_values(var, where):
    """Every ``R/path = literal`` conjunct of the WHERE clause, in clause
    order, each as ``(path_steps, literal)`` — safe to push into the
    pattern as containment (the WHERE clause re-verifies exactly, so these
    are only pre-filters).  The optimizer decides how many to push and in
    which order."""
    out = []
    if where is None:
        return out
    for conjunct in _conjuncts(where):
        if not isinstance(conjunct, BinOp) or conjunct.op != "=":
            continue
        sides = [conjunct.left, conjunct.right]
        for this, other in (sides, reversed(sides)):
            if (
                isinstance(this, VarPath)
                and this.var == var
                and "*" not in this.path
                and isinstance(other, Literal)
                and tokenize(str(other.value))
            ):
                out.append((Path(this.path).steps if this.path else [],
                            other.value))
                break
    return out


def _conjuncts(expr):
    if isinstance(expr, BinOp) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _anchored(tag_path, steps):
    """Does the posting's root-to-element tag path match the FROM path?

    ``tag_path`` includes the document root segment; the steps are relative
    to the root.  The pattern join already guarantees the steps *below* the
    projected element, so this check anchors the element at the right depth
    (a bare FTI match could sit anywhere in the document).
    """
    segments = tag_path.split("/")
    return _match_segments(segments, 1, steps, 0)


def _match_segments(segments, seg_index, steps, step_index):
    if step_index == len(steps):
        return seg_index == len(segments)
    step = steps[step_index]
    if step.axis == CHILD:
        return (
            seg_index < len(segments)
            and (step.tag == "*" or segments[seg_index] == step.tag)
            and _match_segments(segments, seg_index + 1, steps, step_index + 1)
        )
    for j in range(seg_index, len(segments)):
        if step.tag == "*" or segments[j] == step.tag:
            if _match_segments(segments, j + 1, steps, step_index + 1):
                return True
    return False


# -- navigational strategy ----------------------------------------------------------------


def _nav_bindings(engine, plan):
    item = plan.item
    path = Path(item.path) if item.path else None
    if plan.versions is not None:
        return _nav_every(engine, plan.doc_ids, path, *plan.versions)

    ts = plan.timestamp
    bindings = []
    for doc_id in plan.doc_ids:
        tree = engine.active_cache.document_at(doc_id, ts)
        if tree is None:
            continue
        dindex = engine.store.delta_index(doc_id)
        interval = dindex.validity(dindex.version_at(ts))
        bindings.extend(_bind_tree(engine, doc_id, tree, path, interval))
    return bindings


def _nav_every(engine, doc_ids, path, start, end):
    """Stream EVERY bindings one version at a time.

    Yields in the established navigational order — documents in reverse
    resolution order, versions oldest first (a forward delta sweep: one
    anchor plus one delta per further version), elements in reverse
    document order within each version — identical to the materialize-
    then-``reverse()`` implementation it replaces, but lazily, so a LIMIT
    stops the sweep instead of paying for the whole history."""
    for doc_id in reversed(doc_ids):
        history = DocHistory(engine.store, doc_id, start, end,
                             tracer=engine.tracer, newest_first=False)
        dindex = engine.store.delta_index(doc_id)
        for teid, tree in history:
            interval = dindex.validity(dindex.version_at(teid.timestamp))
            yield from reversed(_bind_tree(engine, doc_id, tree, path, interval))


def _bind_tree(engine, doc_id, tree, path, interval):
    """The elements ``path`` selects in ``tree``, the document's version
    valid over ``interval``, bound at that version's commit time."""
    elements = [tree] if path is None else path.select(tree)
    return [
        BoundElement(
            engine.store,
            TEID(doc_id, element.xid, interval.start),
            interval,
            tree=element,
            cache=engine.active_cache,
        )
        for element in elements
    ]
