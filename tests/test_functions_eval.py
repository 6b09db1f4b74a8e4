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

from tests.conftest import JAN_01, JAN_31


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

    def test_current_pinned_at_the_tip_agrees_with_unpinned(self, figure1_db):
        query = ('SELECT R/name, CURRENT(R) '
                 'FROM doc("guide.com")[EVERY]/restaurant R')
        unpinned = str(figure1_db.query(query))
        figure1_db.engine.pinned_now = figure1_db.store.clock.now()
        assert str(figure1_db.query(query)) == unpinned
        # Napoli's every version shows its current one; Akropolis is gone.
        assert unpinned.count("<price>18</price>") == 3

    def test_current_under_a_pin_before_the_element_is_none(self, figure1_db):
        # Akropolis was created on 15/01: a session pinned on 01/01 binds
        # it through the explicit 26/01 snapshot, but it has no version at
        # the pin, while Napoli's is the 01/01 one.
        figure1_db.engine.pinned_now = JAN_01
        rows = figure1_db.query(
            'SELECT R/name, CURRENT(R), CURRENT(R)/price '
            'FROM doc("guide.com")[26/01/2001]/restaurant R'
        ).rows
        by_name = {row["R/name"][0].node.text: row for row in rows}
        assert by_name["Akropolis"]["CURRENT(R)"] is None
        napoli = by_name["Napoli"]
        assert napoli["CURRENT(R)"] is not None
        assert [p.node.text for p in napoli["CURRENT(R)/price"]] == ["15"]

    def test_navigation_skips_vanished_elements(self, figure1_db):
        # Akropolis has no NEXT version containing it (deleted on 31/01).
        result = figure1_db.query(
            'SELECT NEXT(R) FROM doc("guide.com")[15/01/2001]/restaurant R '
            'WHERE R/name = "Akropolis"'
        )
        assert result.rows[0]["NEXT(R)"] is None

    @pytest.mark.parametrize("pin", [None, JAN_31])
    @pytest.mark.parametrize("function", ["PREVIOUS", "NEXT"])
    def test_akropolis_has_no_neighbouring_version(self, figure1_db,
                                                   function, pin):
        # Akropolis lives in the 15/01 version only, which both neighbours
        # of Napoli's 15/01 version lack; the tip pin changes nothing.
        figure1_db.engine.pinned_now = pin
        rows = figure1_db.query(
            f'SELECT R/name, {function}(R) '
            'FROM doc("guide.com")[15/01/2001]/restaurant R'
        ).rows
        found = {row["R/name"][0].node.text: row[f"{function}(R)"]
                 for row in rows}
        assert found["Akropolis"] is None
        assert found["Napoli"] is not None


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
    def test_engine_without_lifetime_index_refuses_lifetime_functions(
        self, figure1_db
    ):
        from repro.errors import QueryPlanError
        from repro.query import QueryEngine

        engine = QueryEngine(figure1_db.store, fti=figure1_db.fti)
        for function in ("CREATE TIME", "DELETE TIME"):
            query = (
                f'SELECT {function}(R) '
                'FROM doc("guide.com")[26/01/2001]/restaurant R'
            )
            assert len(figure1_db.query(query)) == 2
            with pytest.raises(QueryPlanError, match="lifetime index"):
                engine.execute(query)

    def test_engine_without_fti_navigates(self, figure1_db):
        from repro.query import QueryEngine

        engine = QueryEngine(figure1_db.store)
        result = engine.execute(
            'SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert len(result) == 2


class TestScalarBuckets:
    """DAY/WEEK/MONTH/YEAR(R) outside GROUP BY floor the version time to
    its bucket start (docs/TXQL.md), in SELECT and in WHERE alike."""

    UNITS = ("DAY", "WEEK", "MONTH", "YEAR")

    def test_select_floors_each_version_time(self, figure1_db):
        from repro.clock import bucket_floor, parse_date

        columns = ", ".join(f"{unit}(R)" for unit in self.UNITS)
        result = figure1_db.query(
            f'SELECT TIME(R), {columns} '
            'FROM doc("guide.com")[EVERY]/restaurant R'
        )
        times = [row["TIME(R)"] for row in result.rows]
        assert sorted(set(times)) == [parse_date(d) for d in
                                      ("01/01/2001", "15/01/2001",
                                       "31/01/2001")]
        for row in result.rows:
            for unit in self.UNITS:
                assert row[f"{unit}(R)"] == bucket_floor(row["TIME(R)"], unit)
        # Pinned against the calendar: epoch weeks start on Thursdays.
        first = result.rows[0]
        assert [str(first[f"{unit}(R)"]) for unit in self.UNITS] == [
            "01/01/2001", "28/12/2000", "01/01/2001", "01/01/2001",
        ]
        assert {str(row["WEEK(R)"]) for row in result.rows} == {
            "28/12/2000", "11/01/2001", "25/01/2001",
        }

    def test_where_compares_bucket_starts(self, figure1_db):
        def times(where):
            result = figure1_db.query(
                'SELECT TIME(R) FROM doc("guide.com")[EVERY]/restaurant R '
                f"WHERE {where}"
            )
            return [str(row["TIME(R)"]) for row in result.rows]

        assert times("DAY(R) > 14/01/2001") == [
            "15/01/2001", "15/01/2001", "31/01/2001",
        ]
        assert times("WEEK(R) = 11/01/2001") == ["15/01/2001"] * 2
        assert times("WEEK(R) < 11/01/2001") == ["01/01/2001"]
        assert len(times("MONTH(R) = 01/01/2001")) == 4
        assert times("YEAR(R) > 01/01/2001") == []
