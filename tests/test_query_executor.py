"""End-to-end TXQL execution tests on the Figure 1 database."""

import datetime

import pytest

from repro.clock import format_timestamp
from repro.errors import NoSuchDocumentError, QueryPlanError
from repro.query import QueryEngine
from repro.xmlcore import Path, serialize

from tests.conftest import JAN_01, JAN_15, JAN_31


def _texts(result, column, path):
    out = []
    for row in result:
        value = row[column]
        nodes = value if isinstance(value, list) else [value]
        for node in nodes:
            tree = getattr(node, "tree", None)
            if tree is None:
                tree = getattr(node, "node", node)
            selected = Path(path).select(tree) if path else [tree]
            out.extend(s.text_content() for s in selected)
    return out


class TestPaperQueries:
    def test_q1_snapshot(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert len(result) == 2
        assert sorted(_texts(result, "R", "name")) == ["Akropolis", "Napoli"]

    def test_q2_sum(self, figure1_db):
        result = figure1_db.query(
            'SELECT SUM(R) FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert result.scalar() == 2

    def test_q2_needs_no_reconstruction(self, figure1_db):
        repo = figure1_db.store.repository
        repo.delta_reads = 0
        repo.current_reads = 0
        figure1_db.query(
            'SELECT COUNT(R) FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert repo.delta_reads == 0
        assert repo.current_reads == 0

    def test_q3_price_history(self, figure1_db):
        result = figure1_db.query(
            'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name="Napoli"'
        )
        times = [int(row["TIME(R)"]) for row in result]
        prices = _texts(result, "R/price", "")
        assert times == [JAN_01, JAN_15, JAN_31]
        assert prices == ["15", "15", "18"]

    def test_results_envelope(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")[01/01/2001]/restaurant R'
        )
        xml = result.to_xml()
        assert xml.tag == "results"
        assert [c.tag for c in xml.child_elements()] == ["result"]
        assert "<name>Napoli</name>" in serialize(xml)


class TestTimeQualifiers:
    def test_default_is_current(self, figure1_db):
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")/restaurant R'
        )
        assert _texts(result, "R/name", "") == ["Napoli"]

    def test_now_minus_interval(self, figure1_db):
        figure1_db.store.clock.advance_to(JAN_31)
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")[NOW - 14 DAYS]/restaurant R'
        )
        assert sorted(_texts(result, "R/name", "")) == ["Akropolis", "Napoli"]

    def test_date_plus_interval(self, figure1_db):
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")[01/01/2001 + 1 WEEKS]/restaurant R'
        )
        assert _texts(result, "R/name", "") == ["Napoli"]

    def test_before_creation_is_empty(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")[01/01/1999]/restaurant R'
        )
        assert len(result) == 0

    @pytest.mark.parametrize("qualifier", ["R", "TIME(S)", "R/price"])
    @pytest.mark.parametrize("prefix", ["", "EXPLAIN ", "EXPLAIN ANALYZE "])
    def test_qualifier_naming_a_variable_is_a_plan_error(
        self, figure1_db, prefix, qualifier
    ):
        """A FROM time qualifier is evaluated before any row exists; a
        variable in it used to escape as a raw ``KeyError``."""
        with pytest.raises(QueryPlanError, match="cannot reference a variable"):
            figure1_db.query(
                f'{prefix}SELECT R FROM doc("guide.com")[{qualifier}]'
                "/restaurant R"
            )


class TestExplainRejectsWhatExecuteRejects:
    """Validation lives in ``plan()``, so EXPLAIN and execution raise the
    same error with the same message."""

    @pytest.mark.parametrize("query, message", [
        ('SELECT R/name, COUNT(R) FROM doc("guide.com")[EVERY]/restaurant R',
         "cannot mix aggregate and non-aggregate SELECT items"),
        ('SELECT SUM(R, R) FROM doc("guide.com")[EVERY]/restaurant R',
         "SUM takes exactly one argument"),
        ('SELECT R FROM doc("guide.com")["x"]/restaurant R',
         "time qualifier did not evaluate to a timestamp"),
    ])
    def test_same_error_either_way(self, figure1_db, query, message):
        errors = []
        for prefix in ("", "EXPLAIN ", "EXPLAIN ANALYZE "):
            with pytest.raises(QueryPlanError, match=message) as caught:
                figure1_db.query(prefix + query)
            errors.append(str(caught.value))
        with pytest.raises(QueryPlanError, match=message):
            figure1_db.engine.explain(query)
        assert len(set(errors)) == 1


class TestTemporalFunctions:
    def test_create_time_filter(self, figure1_db):
        result = figure1_db.query(
            'SELECT DISTINCT R/name FROM doc("guide.com")[EVERY]/restaurant R '
            "WHERE CREATE TIME(R) >= 11/01/2001"
        )
        assert _texts(result, "R/name", "") == ["Akropolis"]

    def test_delete_time(self, figure1_db):
        result = figure1_db.query(
            'SELECT DELETE TIME(R) FROM doc("guide.com")[15/01/2001]/restaurant R '
            'WHERE R/name="Akropolis"'
        )
        assert int(result.rows[0]["DELETE TIME(R)".replace("DELETE TIME", "DELETE_TIME")]) == JAN_31

    def test_previous_and_current(self, figure1_db):
        result = figure1_db.query(
            'SELECT PREVIOUS(R) FROM doc("guide.com")/restaurant R'
        )
        previous = result.rows[0]["PREVIOUS(R)"]
        assert previous.teid.timestamp == JAN_15
        result = figure1_db.query(
            'SELECT CURRENT(R) FROM doc("guide.com")[01/01/2001]/restaurant R'
        )
        current = result.rows[0]["CURRENT(R)"]
        assert current.teid.timestamp == JAN_31

    def test_previous_of_first_version_is_none(self, figure1_db):
        result = figure1_db.query(
            'SELECT PREVIOUS(R) FROM doc("guide.com")[01/01/2001]/restaurant R'
        )
        assert result.rows[0]["PREVIOUS(R)"] is None

    def test_diff_between_versions(self, figure1_db):
        result = figure1_db.query(
            'SELECT DIFF(PREVIOUS(R), R) FROM doc("guide.com")/restaurant R'
        )
        delta = result.rows[0]["DIFF(PREVIOUS(R), R)"]
        assert delta.tag == "delta"
        text = serialize(delta)
        assert "15" in text and "18" in text

    def test_time_of_version(self, figure1_db):
        result = figure1_db.query(
            'SELECT TIME(R) FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert {int(row["TIME(R)"]) for row in result} == {JAN_15}
        assert format_timestamp(JAN_15) in str(result)

    @pytest.mark.timeout(5)
    def test_a_far_future_instant_renders_at_once(self, figure1_db):
        """Rendering walked the calendar one year at a time: this line held
        its thread for longer than anyone waited.  The Gregorian calendar
        repeats every 146 097 days (400 years), which gives the date."""
        result = figure1_db.query(
            "SELECT TIME(R) + 400000000000 DAYS "
            'FROM doc("guide.com")[01/01/2001]/restaurant R'
        )
        eras, rest = divmod(400_000_000_000, 146_097)
        day = datetime.date(2001, 1, 1) + datetime.timedelta(days=rest)
        assert [line.strip() for line in str(result).splitlines()[2:]] == [
            f"{day.day:02d}/{day.month:02d}/{day.year + 400 * eras}"
        ]


class TestEqualityRegimes:
    def test_identity_join_across_versions(self, figure1_db):
        result = figure1_db.query(
            'SELECT R1/name FROM doc("guide.com")[01/01/2001]/restaurant R1, '
            'doc("guide.com")[31/01/2001]/restaurant R2 '
            "WHERE R1 == R2 AND R1/price < R2/price"
        )
        assert _texts(result, "R1/name", "") == ["Napoli"]

    def test_value_equality_numeric(self, figure1_db):
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R '
            "WHERE R/price = 13"
        )
        assert _texts(result, "R/name", "") == ["Akropolis"]

    def test_similarity_operator(self, figure1_db):
        result = figure1_db.query(
            'SELECT R2/price FROM doc("guide.com")[01/01/2001]/restaurant R1, '
            'doc("guide.com")[31/01/2001]/restaurant R2 WHERE R1 ~ R2'
        )
        assert _texts(result, "R2/price", "") == ["18"]

    def test_not_and_or(self, figure1_db):
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R '
            'WHERE NOT R/name = "Napoli" OR R/price > 14'
        )
        assert sorted(_texts(result, "R/name", "")) == ["Akropolis", "Napoli"]


class TestPlannerBehaviour:
    def test_index_and_nav_agree(self, figure1_db):
        queries = [
            'SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R',
            'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name="Napoli"',
            'SELECT COUNT(R) FROM doc("guide.com")[15/01/2001]/restaurant R',
        ]
        navigating = QueryEngine(figure1_db.store)  # no FTI: NavScan only
        for text in queries:
            indexed = figure1_db.engine.execute(text)
            scanned = navigating.execute(text)
            assert str(indexed) == str(scanned), text

    def test_wildcard_path_falls_back(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")[26/01/2001]/*/name R'
        )
        # `*` forces the navigational plan; R binds the two name elements.
        assert sorted(_texts(result, "R", "")) == ["Akropolis", "Napoli"]

    def test_descendant_from_path(self, figure1_db):
        result = figure1_db.query(
            'SELECT P FROM doc("guide.com")[26/01/2001]//price P'
        )
        assert sorted(_texts(result, "P", "")) == ["13", "15"]

    def test_doc_glob(self, figure1_db):
        figure1_db.put(
            "other.org", "<guide><restaurant><name>Solo</name></restaurant></guide>"
        )
        result = figure1_db.query('SELECT R/name FROM doc("*")/restaurant R')
        assert sorted(_texts(result, "R/name", "")) == ["Napoli", "Solo"]

    def test_unknown_document(self, figure1_db):
        with pytest.raises(NoSuchDocumentError):
            figure1_db.query('SELECT R FROM doc("ghost.com")/r R')


class TestResultSet:
    def test_scalars_and_errors(self, figure1_db):
        result = figure1_db.query(
            'SELECT COUNT(R) FROM doc("guide.com")/restaurant R'
        )
        assert result.scalars() == [1]
        multi = figure1_db.query(
            'SELECT R, TIME(R) FROM doc("guide.com")/restaurant R'
        )
        with pytest.raises(QueryPlanError):
            multi.scalar()

    def test_mixing_aggregates_rejected(self, figure1_db):
        with pytest.raises(QueryPlanError):
            figure1_db.query(
                'SELECT R, COUNT(R) FROM doc("guide.com")/restaurant R'
            )

    def test_distinct_collapses(self, figure1_db):
        result = figure1_db.query(
            'SELECT DISTINCT R/name FROM doc("guide.com")[EVERY]/restaurant R'
        )
        assert len(result) == 2

    def test_distinct_count_dedups_before_aggregation(self, figure1_db):
        # Regression: SELECT DISTINCT COUNT(...) used to ignore DISTINCT
        # (the single aggregate row is trivially distinct).  It now has
        # SQL COUNT(DISTINCT ...) semantics: dedup the aggregate's
        # arguments, then count.
        plain = figure1_db.query(
            'SELECT COUNT(R/name) FROM doc("guide.com")[EVERY]/restaurant R'
        )
        distinct = figure1_db.query(
            'SELECT DISTINCT COUNT(R/name) '
            'FROM doc("guide.com")[EVERY]/restaurant R'
        )
        assert plain.scalar() == 4
        assert distinct.scalar() == 2

    def test_distinct_count_over_empty_input_is_zero(self, figure1_db):
        result = figure1_db.query(
            'SELECT DISTINCT COUNT(R/name) '
            'FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name = "nomatch"'
        )
        assert result.scalar() == 0

    def test_table_rendering(self, figure1_db):
        result = figure1_db.query(
            'SELECT R/name, R/price FROM doc("guide.com")/restaurant R'
        )
        text = str(result)
        assert "R/name" in text and "Napoli" in text


class TestLimit:
    def test_limit_truncates(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R LIMIT 1'
        )
        assert len(result) == 1

    def test_limit_zero(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R LIMIT 0'
        )
        assert len(result) == 0

    def test_limit_beyond_rows_is_noop(self, figure1_db):
        with_limit = figure1_db.query(
            'SELECT TIME(R) FROM doc("guide.com")[EVERY]/restaurant R LIMIT 99'
        )
        without = figure1_db.query(
            'SELECT TIME(R) FROM doc("guide.com")[EVERY]/restaurant R'
        )
        assert len(with_limit) == len(without) == 4

    def test_limit_applies_after_distinct(self, figure1_db):
        result = figure1_db.query(
            'SELECT DISTINCT R/name '
            'FROM doc("guide.com")[EVERY]/restaurant R LIMIT 1'
        )
        assert len(result) == 1

    def test_limit_on_aggregate_row(self, figure1_db):
        result = figure1_db.query(
            'SELECT COUNT(R) FROM doc("guide.com")/restaurant R LIMIT 0'
        )
        assert len(result) == 0

    def test_limit_preserves_order(self, figure1_db):
        full = figure1_db.query(
            'SELECT TIME(R) FROM doc("guide.com")[EVERY]/restaurant R'
        )
        limited = figure1_db.query(
            'SELECT TIME(R) FROM doc("guide.com")[EVERY]/restaurant R LIMIT 2'
        )
        assert [r["TIME(R)"] for r in limited] == [
            r["TIME(R)"] for r in full
        ][:2]

    def test_limit_stops_the_join_early(self, figure1_db):
        # Snapshot scans stream end-to-end: LIMIT must stop the structural
        # join before it emits (or even probes) the matches never taken.
        query = 'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R'
        full = figure1_db.query(query).stats
        result = figure1_db.query(query + " LIMIT 1")
        assert len(result) == 1
        assert result.stats["join.matches_emitted"] < full["join.matches_emitted"]
        assert result.stats["join.candidates_probed"] < full["join.candidates_probed"]


class TestPathApply:
    """The paper's Section 6.1 syntax: a path applied to a function result."""

    def test_current_r_name(self, figure1_db):
        result = figure1_db.query(
            'SELECT DISTINCT CURRENT(R)/name '
            'FROM doc("guide.com")[EVERY]/restaurant R'
        )
        names = [
            value.node.text_content()
            for row in result
            for value in (row["CURRENT(R)/name"] or [])
        ]
        assert names == ["Napoli"]  # Akropolis has no current version

    def test_previous_r_price(self, figure1_db):
        result = figure1_db.query(
            'SELECT PREVIOUS(R)/price FROM doc("guide.com")/restaurant R'
        )
        prices = [
            value.node.text_content()
            for row in result
            for value in row["PREVIOUS(R)/price"]
        ]
        assert prices == ["15"]

    def test_path_on_missing_navigation_is_empty(self, figure1_db):
        result = figure1_db.query(
            'SELECT PREVIOUS(R)/price '
            'FROM doc("guide.com")[01/01/2001]/restaurant R'
        )
        assert result.rows[0]["PREVIOUS(R)/price"] == []

    def test_path_apply_in_where(self, figure1_db):
        result = figure1_db.query(
            'SELECT R/name FROM doc("guide.com")[01/01/2001]/restaurant R '
            "WHERE CURRENT(R)/price > 15"
        )
        names = [
            value.node.text_content()
            for row in result
            for value in row["R/name"]
        ]
        assert names == ["Napoli"]

    def test_identity_via_path_apply(self, figure1_db):
        # Sub-elements reached through PathApply still carry identity.
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")/restaurant R '
            "WHERE CURRENT(R)/name == R/name"
        )
        assert len(result) == 1

    def test_label_round_trips(self):
        from repro.query.parser import parse_query

        q = parse_query(
            'SELECT CURRENT(R)/name FROM doc("g")/restaurant R'
        )
        assert q.select_items[0].label() == "CURRENT(R)/name"
        again = parse_query(q.label())
        assert again.label() == q.label()
