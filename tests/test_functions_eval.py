"""Edge-case tests for the expression evaluator and errors module."""

import pytest

from repro.errors import (
    DeltaApplicationError,
    NoSuchDocumentError,
    QueryPlanError,
    QuerySyntaxError,
    TemporalXMLError,
    TimeError,
    XMLSyntaxError,
)
from repro.query.parser import parse_query



class TestErrorHierarchy:
    def test_all_derive_from_base(self):
        for exc in (
            XMLSyntaxError("x"),
            QuerySyntaxError("q"),
            QueryPlanError("p"),
            NoSuchDocumentError("d"),
            DeltaApplicationError("a"),
            TimeError("t"),
        ):
            assert isinstance(exc, TemporalXMLError)

    def test_xml_error_location_formatting(self):
        exc = XMLSyntaxError("bad", line=3, column=7)
        assert "line 3" in str(exc) and "column 7" in str(exc)
        assert str(XMLSyntaxError("bad")) == "bad"

    def test_query_error_position(self):
        exc = QuerySyntaxError("bad", position=12)
        assert "position 12" in str(exc)
        assert exc.position == 12


class TestFunctionEdgeCases:
    def test_time_of_non_variable_rejected(self, figure1_db):
        with pytest.raises(QueryPlanError):
            figure1_db.query(
                'SELECT TIME(R/name) FROM doc("guide.com")/restaurant R'
            )

    def test_unknown_function_rejected_at_parse(self):
        # FROBNICATE is not a function, so it parses as a variable followed
        # by junk and fails.
        with pytest.raises(QuerySyntaxError):
            parse_query(
                'SELECT FROBNICATE(R) FROM doc("g")/restaurant R'
            )

    def test_diff_with_missing_side_is_none(self, figure1_db):
        # PREVIOUS of the first version is None -> DIFF returns None.
        result = figure1_db.query(
            'SELECT DIFF(PREVIOUS(R), R) '
            'FROM doc("guide.com")[01/01/2001]/restaurant R'
        )
        assert result.rows[0]["DIFF(PREVIOUS(R), R)"] is None

    def test_diff_arity(self, figure1_db):
        with pytest.raises(QueryPlanError):
            figure1_db.query(
                'SELECT DIFF(R) FROM doc("guide.com")/restaurant R'
            )

    def test_similarity_function_returns_score(self, figure1_db):
        result = figure1_db.query(
            'SELECT SIMILARITY(R, R) FROM doc("guide.com")/restaurant R'
        )
        assert result.rows[0]["SIMILARITY(R, R)"] == pytest.approx(1.0)

    def test_exists_function(self, figure1_db):
        result = figure1_db.query(
            'SELECT EXISTS(R/price) FROM doc("guide.com")/restaurant R'
        )
        assert result.rows[0]["EXISTS(R/price)"] is True
        result = figure1_db.query(
            'SELECT EXISTS(R/phone) FROM doc("guide.com")/restaurant R'
        )
        assert result.rows[0]["EXISTS(R/phone)"] is False

    def test_next_of_current_is_none(self, figure1_db):
        result = figure1_db.query(
            'SELECT NEXT(R) FROM doc("guide.com")/restaurant R'
        )
        assert result.rows[0]["NEXT(R)"] is None

    def test_current_of_deleted_document_is_none(self, figure1_db):
        figure1_db.delete("guide.com")
        result = figure1_db.query(
            'SELECT CURRENT(R) '
            'FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert all(row["CURRENT(R)"] is None for row in result)

    def test_navigation_skips_vanished_elements(self, figure1_db):
        # Akropolis has no NEXT version containing it (deleted on 31/01).
        result = figure1_db.query(
            'SELECT NEXT(R) FROM doc("guide.com")[15/01/2001]/restaurant R '
            'WHERE R/name = "Akropolis"'
        )
        assert result.rows[0]["NEXT(R)"] is None


class TestComparisonEdgeCases:
    def test_none_comparisons_false(self, figure1_db):
        # DELETE TIME of a live element is None; comparisons with None fail.
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")/restaurant R '
            "WHERE DELETE TIME(R) < 01/01/2002"
        )
        assert len(result) == 0

    def test_mixed_type_ordering_false(self, figure1_db):
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")/restaurant R '
            'WHERE R/name < 10'
        )
        assert len(result) == 0

    def test_string_ordering(self, figure1_db):
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R '
            'WHERE R/name < "Nap"'
        )
        rows = [v.node.text for r in result for v in r["R/name"]]
        assert rows == ["Akropolis"]

    def test_empty_node_set_comparisons_false(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")/restaurant R '
            "WHERE R/phone = 5"
        )
        assert len(result) == 0

    def test_arithmetic_on_non_numeric_is_none(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")/restaurant R '
            "WHERE R/name + 1 > 0"
        )
        assert len(result) == 0

    def test_numeric_plus_in_where(self, figure1_db):
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")/restaurant R '
            "WHERE R/price + 2 = 20"
        )
        assert len(result) == 1

    def test_identity_against_scalar_false(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")/restaurant R WHERE R == 5'
        )
        assert len(result) == 0


class TestEngineConfiguration:
    def test_engine_without_lifetime_index_traverses(self, figure1_db):
        from repro.query import QueryEngine

        query = (
            'SELECT CREATE TIME(R) '
            'FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        engine = QueryEngine(figure1_db.store, fti=figure1_db.fti)
        result = engine.execute(query)
        assert len(result) == 2
        assert str(result) == str(figure1_db.query(query))
        counters = engine.optimizer.counters
        assert counters.auto_lifetime_traverse == 2
        assert counters.auto_lifetime_index == 0

    def test_engine_without_fti_navigates(self, figure1_db):
        from repro.query import QueryEngine

        engine = QueryEngine(figure1_db.store)
        result = engine.execute(
            'SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert len(result) == 2
