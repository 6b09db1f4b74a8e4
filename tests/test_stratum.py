"""Tests for the stratum baseline: store, translator, native equivalence."""

import pytest

from benchmarks.ablation.stratum import (
    StratumQueryProcessor,
    StratumStore,
    UnsupportedInStratumError,
)
from repro import TemporalXMLDatabase
from repro.errors import (
    DocumentDeletedError,
    NoSuchDocumentError,
    StorageError,
)
from repro.workload import load_figure1
from repro.xmlcore import Path

from tests.conftest import JAN_01, JAN_15, JAN_26, JAN_31


@pytest.fixture
def stratum():
    store = StratumStore()
    load_figure1(store)
    return store, StratumQueryProcessor(store)


class TestStratumStore:
    def test_stores_full_versions(self, stratum):
        store, _ = stratum
        doc = store.document("guide.com")
        assert [v.number for v in doc.versions] == [1, 2, 3]
        assert all(v.nbytes > 0 for v in doc.versions)

    def test_snapshot(self, stratum):
        store, _ = stratum
        tree = store.snapshot("guide.com", JAN_26)
        assert len(Path("restaurant").select(tree)) == 2
        assert store.snapshot("guide.com", JAN_01 - 5) is None

    def test_snapshot_costs_one_read(self, stratum):
        store, _ = stratum
        store.version_reads = 0
        store.snapshot("guide.com", JAN_26)
        assert store.version_reads == 1

    def test_all_versions(self, stratum):
        store, _ = stratum
        versions = store.all_versions("guide.com")
        assert [ts for ts, _tree in versions] == [JAN_01, JAN_15, JAN_31]

    def test_no_element_identity(self, stratum):
        # Stratum trees are unstamped: that is the whole point.
        store, _ = stratum
        tree = store.current("guide.com")
        assert all(n.xid is None for n in tree.iter())

    def test_delete_semantics(self, stratum):
        store, _ = stratum
        store.delete("guide.com", ts=JAN_31 + 100)
        assert store.snapshot("guide.com", JAN_31 + 200) is None
        assert store.snapshot("guide.com", JAN_26) is not None
        with pytest.raises(DocumentDeletedError):
            store.current("guide.com")

    def test_duplicate_and_missing(self, stratum):
        store, _ = stratum
        with pytest.raises(StorageError):
            store.put("guide.com", "<guide/>")
        with pytest.raises(NoSuchDocumentError):
            store.snapshot("ghost", JAN_01)

    def test_space_grows_with_every_version(self, stratum):
        store, _ = stratum
        total = store.storage_bytes()["total"]
        doc = store.document("guide.com")
        assert total == sum(v.nbytes for v in doc.versions)


class TestTranslator:
    def test_q1(self, stratum):
        _, processor = stratum
        result = processor.execute(
            'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert len(result) == 2

    def test_q2(self, stratum):
        _, processor = stratum
        result = processor.execute(
            'SELECT SUM(R) FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert result.scalar() == 2

    def test_q3(self, stratum):
        _, processor = stratum
        result = processor.execute(
            'SELECT TIME(R), R/price '
            'FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name="Napoli"'
        )
        assert [int(r["TIME(R)"]) for r in result] == [JAN_01, JAN_15, JAN_31]

    def test_every_reads_all_versions(self, stratum):
        store, processor = stratum
        store.version_reads = 0
        processor.execute(
            'SELECT COUNT(R) FROM doc("guide.com")[EVERY]/restaurant R'
        )
        assert store.version_reads == 3

    def test_untranslatable_functions(self, stratum):
        _, processor = stratum
        for bad in (
            'SELECT PREVIOUS(R) FROM doc("guide.com")/restaurant R',
            'SELECT CURRENT(R) FROM doc("guide.com")/restaurant R',
            'SELECT R FROM doc("guide.com")/restaurant R '
            "WHERE CREATE TIME(R) > 01/01/2001",
            'SELECT DIFF(R, R) FROM doc("guide.com")/restaurant R',
        ):
            with pytest.raises(UnsupportedInStratumError):
                processor.execute(bad)

    def test_identity_equality_untranslatable(self, stratum):
        _, processor = stratum
        with pytest.raises(UnsupportedInStratumError):
            processor.execute(
                'SELECT R1 FROM doc("guide.com")[01/01/2001]/restaurant R1, '
                'doc("guide.com")/restaurant R2 WHERE R1 == R2'
            )

    def test_distinct_and_similarity(self, stratum):
        _, processor = stratum
        result = processor.execute(
            'SELECT DISTINCT R/name FROM doc("guide.com")[EVERY]/restaurant R'
        )
        assert len(result) == 2
        result = processor.execute(
            'SELECT R2/price FROM doc("guide.com")[01/01/2001]/restaurant R1, '
            'doc("guide.com")[31/01/2001]/restaurant R2 WHERE R1 ~ R2'
        )
        assert len(result) == 1


class TestNativeEquivalence:
    """Stratum and native engines must agree on translatable queries."""

    QUERIES = (
        'SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R',
        'SELECT SUM(R) FROM doc("guide.com")[15/01/2001]/restaurant R',
        'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
        'WHERE R/name="Napoli"',
        'SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R '
        "WHERE R/price < 14",
        'SELECT DISTINCT R/name FROM doc("guide.com")[EVERY]/restaurant R',
        'SELECT P FROM doc("guide.com")[26/01/2001]//price P',
    )

    @pytest.mark.parametrize("query", QUERIES)
    def test_same_results(self, stratum, query):
        _, processor = stratum
        native = TemporalXMLDatabase()
        load_figure1(native)
        assert str(processor.execute(query)) == str(native.query(query))


class TestStratumDoctime:
    """DOCTIME is content-derived, so the stratum *can* translate it —
    unlike the identity/navigation functions."""

    def test_doctime_agrees_with_native(self):
        from repro.clock import parse_date

        native = TemporalXMLDatabase()
        stratum_store = StratumStore()
        for target in (native, stratum_store):
            target.put(
                "n.xml",
                "<news><pubdate>10/01/2001</pubdate><h>x</h></news>",
                ts=parse_date("12/01/2001"),
            )
        processor = StratumQueryProcessor(stratum_store)
        query = 'SELECT DOCTIME(N) FROM doc("n.xml") N WHERE DOCTIME(N) < TIME(N)'
        assert str(processor.execute(query)) == str(native.query(query))
