"""Tests for the command-line interface and plan explanation."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.storage.journal import FORMAT_VERSION

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def guide_files(tmp_path):
    v1 = tmp_path / "v1.xml"
    v1.write_text(
        "<guide><restaurant><name>Napoli</name><price>15</price>"
        "</restaurant></guide>"
    )
    v2 = tmp_path / "v2.xml"
    v2.write_text(
        "<guide><restaurant><name>Napoli</name><price>18</price>"
        "</restaurant></guide>"
    )
    return tmp_path / "db.xml", v1, v2


class TestLifecycle:
    def test_put_update_query(self, guide_files):
        archive, v1, v2 = guide_files
        code, out = _run("put", "-a", str(archive), "guide.com", str(v1),
                         "--ts", "01/01/2001")
        assert code == 0 and "created guide.com" in out
        code, out = _run("update", "-a", str(archive), "guide.com", str(v2),
                         "--ts", "31/01/2001")
        assert code == 0 and "version 2" in out
        code, out = _run(
            "query", "-a", str(archive),
            'SELECT TIME(R), R/price '
            'FROM doc("guide.com")[EVERY]/restaurant R',
        )
        assert code == 0
        assert "01/01/2001" in out and "18" in out

    def test_query_xml_envelope(self, guide_files):
        archive, v1, _v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1))
        code, out = _run(
            "query", "-a", str(archive), "--xml",
            'SELECT R FROM doc("guide.com")/restaurant R',
        )
        assert code == 0
        assert out.startswith("<results>")

    def test_history_and_ls(self, guide_files):
        archive, v1, v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1),
             "--ts", "01/01/2001")
        _run("update", "-a", str(archive), "guide.com", str(v2),
             "--ts", "31/01/2001")
        code, out = _run("history", "-a", str(archive), "guide.com")
        assert code == 0
        assert "v1  01/01/2001" in out
        assert "(current)" in out
        code, out = _run("ls", "-a", str(archive))
        assert "guide.com  2 versions  live" in out

    def test_delete(self, guide_files):
        archive, v1, _v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1),
             "--ts", "01/01/2001")
        code, out = _run("delete", "-a", str(archive), "guide.com",
                         "--ts", "05/02/2001")
        assert code == 0
        code, out = _run("ls", "-a", str(archive))
        assert "deleted 05/02/2001" in out

    def test_stats(self, guide_files):
        archive, v1, v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1),
             "--ts", "01/01/2001")
        _run("update", "-a", str(archive), "guide.com", str(v2),
             "--ts", "31/01/2001")
        code, out = _run("stats", "-a", str(archive))
        assert code == 0
        assert "delta_reads:" in out
        assert "range_scans:" in out
        # Every anchor kind is a fixed counter, chosen yet or not.
        for kind in ("current", "snapshot_after", "snapshot_before"):
            assert f"anchor[{kind}]:" in out
        # Removed with the version cache and the backward-only pricing,
        # and said so in `stats --help`.
        assert "version cache:" not in out and "hit_rate:" not in out
        assert "delta_reads_saved" not in out
        assert "lifetime entries" in out

    def test_stats_exercise_scans_history(self, guide_files):
        archive, v1, v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1),
             "--ts", "01/01/2001")
        _run("update", "-a", str(archive), "guide.com", str(v2),
             "--ts", "31/01/2001")
        code, out = _run("stats", "-a", str(archive),
                         "--exercise", "guide.com")
        assert code == 0
        assert "range_scans: 1" in out
        # The sweep chose an anchor and applied at least one chain.
        assert "anchor[" in out

    def test_stats_exercise_unknown_document(self, guide_files):
        archive, v1, _v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1))
        code, out = _run("stats", "-a", str(archive),
                         "--exercise", "ghost.com")
        assert code == 1
        assert "error:" in out


class TestErrors:
    def test_missing_archive(self, tmp_path):
        code, out = _run(
            "query", "-a", str(tmp_path / "nope.xml"),
            'SELECT R FROM doc("x") R',
        )
        assert code == 1
        assert "does not exist" in out

    def test_bad_query(self, guide_files):
        archive, v1, _v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1))
        code, out = _run("query", "-a", str(archive), "SELECT FROM nope")
        assert code == 1
        assert "error:" in out

    def test_unknown_document(self, guide_files):
        archive, v1, _v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1))
        code, out = _run("history", "-a", str(archive), "ghost.com")
        assert code == 1


class TestArchiveOnly:
    """``-a`` names an XML archive.  A database directory (or its
    checkpoint pointer) is refused by every ``-a`` command with a typed
    error naming ``open()``, never read without its journal."""

    QUERY = 'SELECT R FROM doc("a.xml") R'

    @pytest.fixture
    def directory(self, tmp_path):
        from repro import TemporalXMLDatabase

        db = TemporalXMLDatabase.open(tmp_path / "db", durability="fsync")
        db.put("a.xml", "<a>1</a>")
        db.checkpoint()
        db.update("a.xml", "<a>2</a>")
        db.put("b.xml", "<b/>")
        db.close()
        return tmp_path / "db"

    def _commands(self, source, tmp_path):
        xml = tmp_path / "c.xml"
        xml.write_text("<c/>")
        return [
            ("query", "-a", source, self.QUERY),
            ("explain", "-a", source, self.QUERY),
            ("trace", "-a", source, self.QUERY),
            ("put", "-a", source, "c.xml", str(xml)),
            ("update", "-a", source, "a.xml", str(xml)),
            ("delete", "-a", source, "a.xml"),
            ("history", "-a", source, "a.xml"),
            ("ls", "-a", source),
            ("stats", "-a", source),
            ("serve", "-a", source, "--serve-for", "0"),
        ]

    def test_every_command_refuses_a_directory(self, directory, tmp_path):
        from tests.faults import tree_digest

        before = tree_digest(directory)
        pointer = str(directory / "checkpoint.cas")
        for source in (str(directory), pointer):
            for argv in self._commands(source, tmp_path):
                code, out = _run(*argv)
                assert code == 1, argv
                assert out.startswith("error: "), argv
                assert "open()" in out, argv
                assert not os.path.exists(source + ".tmp"), argv
        assert tree_digest(directory) == before

    def test_no_traceback_from_a_fresh_process(self, directory, tmp_path):
        xml = tmp_path / "c.xml"
        xml.write_text("<c/>")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "put", "-a", str(directory),
             "c.xml", str(xml)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("error: ")
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_the_directory_reads_through_open(self, directory):
        """What ``-a`` refused, ``open()`` reads, journal included."""
        from repro import TemporalXMLDatabase

        db = TemporalXMLDatabase.open(directory, durability="none")
        assert db.documents() == ["a.xml", "b.xml"]
        assert "<a>2</a>" in db.query(self.QUERY).to_xml_string()


class TestDemo:
    def test_demo_runs_paper_queries(self):
        code, out = _run("demo")
        assert code == 0
        assert "Q1" in out and "Q2" in out and "Q3" in out
        assert "Akropolis" in out


class TestRecover:
    def _durable_db(self, tmp_path):
        from repro import TemporalXMLDatabase

        db = TemporalXMLDatabase.open(tmp_path / "db", durability="journal")
        db.put(
            "guide.com",
            "<guide><restaurant><name>Napoli</name><price>15</price>"
            "</restaurant></guide>",
        )
        db.checkpoint()
        db.update(
            "guide.com",
            "<guide><restaurant><name>Napoli</name><price>18</price>"
            "</restaurant></guide>",
        )
        db.close()
        return tmp_path / "db"

    def test_recover_reports_and_checkpoints(self, tmp_path):
        directory = self._durable_db(tmp_path)
        code, out = _run("recover", "-d", str(directory))
        assert code == 0
        assert "recovered 1 document(s)" in out
        assert "checkpoint used: checkpoint" in out
        assert "journal records:" in out
        assert f"journal.bin.prev: format v{FORMAT_VERSION}, 1 record(s)" in out
        assert f"journal.bin: format v{FORMAT_VERSION}, 1 record(s)" in out
        # The journal tail was folded into a fresh checkpoint and rolled.
        code, out = _run("recover", "-d", str(directory))
        assert code == 0
        assert "0 replayed" in out

    def test_recover_truncates_torn_tail(self, tmp_path):
        directory = self._durable_db(tmp_path)
        journal = directory / "journal.bin"
        data = journal.read_bytes()
        journal.write_bytes(data[:-5])
        code, out = _run(
            "recover", "-d", str(directory), "--no-checkpoint"
        )
        assert code == 0
        assert "torn tail" in out

    def test_recover_missing_directory(self, tmp_path):
        code, out = _run("recover", "-d", str(tmp_path / "fresh"))
        assert code == 0
        assert "recovered 0 document(s)" in out


class TestExplain:
    def test_cli_explain(self, guide_files):
        archive, v1, _v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1))
        code, out = _run(
            "explain", "-a", str(archive),
            'SELECT R FROM doc("guide.com")/restaurant R',
        )
        assert code == 0
        assert "strategy: index" in out

    def test_engine_explain_shapes(self, figure1_db):
        plans = figure1_db.engine.explain(
            'SELECT R FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name = "Napoli" AND TIME(R) >= 15/01/2001'
        )
        info = plans[0]
        assert info["strategy"] == "index"
        assert info["operator"] == "TPatternScanAll"
        assert info["pattern"] == ["restaurant", "name", "napoli"]
        assert info["pushdown"] == "Napoli"
        assert "15/01/2001" in info["window"]

    def test_explain_navigate_reasons(self, figure1_db):
        plans = figure1_db.engine.explain(
            'SELECT D FROM doc("guide.com") D'
        )
        assert plans[0]["strategy"] == "navigate"
        assert "no path" in plans[0]["reason"]
        plans = figure1_db.engine.explain(
            'SELECT R FROM doc("guide.com")/*/name R'
        )
        assert plans[0]["strategy"] == "navigate"
        assert "wildcard" in plans[0]["reason"]

    def test_explain_empty_window(self, figure1_db):
        plans = figure1_db.engine.explain(
            'SELECT R FROM doc("guide.com")[EVERY]/restaurant R '
            "WHERE TIME(R) > 01/01/2002 AND TIME(R) < 01/01/2001"
        )
        assert plans[0]["strategy"] == "empty"

    def test_explain_unknown_document(self, figure1_db):
        plans = figure1_db.engine.explain(
            'SELECT R FROM doc("ghost.com")/r R'
        )
        assert plans[0]["strategy"] == "error"

    def test_explain_does_not_execute(self, figure1_db):
        figure1_db.store.repository.delta_reads = 0
        figure1_db.engine.explain(
            'SELECT R FROM doc("guide.com")[EVERY]/restaurant R'
        )
        assert figure1_db.store.repository.delta_reads == 0


class TestTrace:
    QUERY = 'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R'

    def _archive(self, guide_files):
        archive, v1, v2 = guide_files
        _run("put", "-a", str(archive), "guide.com", str(v1),
             "--ts", "01/01/2001")
        _run("update", "-a", str(archive), "guide.com", str(v2),
             "--ts", "15/01/2001")
        return archive

    def test_trace_renders_operator_tree(self, guide_files):
        archive = self._archive(guide_files)
        code, out = _run("trace", "-a", str(archive), self.QUERY)
        assert code == 0
        for needle in ("Query", "TPatternScanAll", "Project", "rows: 2"):
            assert needle in out

    def test_trace_json_and_out_file(self, guide_files, tmp_path):
        import json

        archive = self._archive(guide_files)
        target = tmp_path / "trace.json"
        code, out = _run(
            "trace", "-a", str(archive), "--json", "-o", str(target),
            self.QUERY,
        )
        assert code == 0
        printed = json.loads(out)
        on_disk = json.loads(target.read_text())
        assert printed == on_disk
        assert printed["row_count"] == 2
        assert printed["trace"]["name"] == "Query"

    def test_query_explain_prefix_prints_report(self, guide_files):
        archive = self._archive(guide_files)
        code, out = _run(
            "query", "-a", str(archive), "--xml",
            "EXPLAIN ANALYZE " + self.QUERY,
        )
        assert code == 0
        # reports have no XML envelope; the CLI falls back to text
        assert "Query" in out
        assert "total:" in out


class TestStorageCLI:
    """Recovering and migrating directories, ``stats -d``, and replica
    auto-tailing."""

    def _durable_db(self, tmp_path):
        from repro import TemporalXMLDatabase

        db = TemporalXMLDatabase.open(tmp_path / "db", durability="journal")
        db.put(
            "guide.com",
            "<guide><restaurant><name>Napoli</name><price>15</price>"
            "</restaurant></guide>",
        )
        db.checkpoint()
        db.update(
            "guide.com",
            "<guide><restaurant><name>Napoli</name><price>18</price>"
            "</restaurant></guide>",
        )
        db.close()
        return tmp_path / "db"

    def test_recover_cas_directory(self, tmp_path):
        directory = self._durable_db(tmp_path)
        code, out = _run("recover", "-d", str(directory))
        assert code == 0
        assert "recovered 1 document(s)" in out
        assert "(storage: cas)" in out

    def test_recover_migrates_a_legacy_directory(self, tmp_path):
        from tests.legacy_dirs import make_legacy

        directory = make_legacy(self._durable_db(tmp_path))
        # Recovery reads the older release's XML checkpoint; the fresh
        # checkpoint is CAS and retires the XML files.
        code, out = _run("recover", "-d", str(directory))
        assert code == 0
        assert "checkpoint used: checkpoint (storage: xml)" in out
        assert "fresh checkpoint written" in out
        assert (directory / "checkpoint.cas").exists()
        assert not (directory / "checkpoint.xml").exists()
        assert not (directory / "checkpoint.xml.prev").exists()
        code, out = _run("stats", "-d", str(directory))
        assert "storage backend: cas (checkpoint read: cas)" in out
        # Nothing was lost across the migration.
        code, out = _run("recover", "-d", str(directory), "--no-checkpoint")
        assert code == 0
        assert "recovered 1 document(s)" in out
        assert "(storage: cas)" in out

    def test_stats_dir_prints_backend_breakdown(self, tmp_path):
        directory = self._durable_db(tmp_path)
        code, out = _run("stats", "-d", str(directory))
        assert code == 0
        assert "storage backend: cas" in out
        assert "objects:" in out
        assert "kind[first]" in out
        assert "dedup ratio" in out
        assert (
            "  delta ops: 5  StampOp: 4 (80%)  UpdateTextOp: 1 (20%)\n" in out
        )
        # Six words in v1; v2 closes "15" and opens "18" on <price>.
        assert (
            "indexes: 7 postings (6 open on 4 elements), 12 interned "
            "contexts, 6 lifetime entries\n" in out
        )
        assert (
            "  held in memory: 5 stored operations, 0 packed payloads "
            "of 0 bytes\n" in out
        )

    def test_stats_dir_json_breakdown(self, tmp_path):
        import json

        directory = self._durable_db(tmp_path)
        code, out = _run("stats", "-d", str(directory), "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["reads"]) == {
            "delta_reads", "snapshot_reads", "current_reads", "subtree_reads",
            "ops_applied", "ops_skipped", "subtree_fallbacks", "anchors",
        }
        storage = payload["storage"]
        backend = storage["backend"]
        disk = backend["disk_by_kind"]
        assert set(disk) >= {"first", "pack", "checkpoint"}
        for kind in ("pack", "checkpoint"):
            assert disk[kind]["stored_bytes"] > 0
            assert disk[kind]["objects"] > 0
        # The streams' ranges account for every raw byte of the packs.
        assert disk["first"]["ranges"] > 0
        assert sum(
            counters["raw_bytes"] for counters in disk.values()
            if "ranges" in counters
        ) == disk["pack"]["raw_bytes"]
        assert backend["disk_bytes"] > 0
        assert storage["logical"]["total"] > 0
        assert storage["logical"]["delta_ops"] == {
            "StampOp": 4, "UpdateTextOp": 1,
        }
        assert storage["indexes"] == {
            "postings": 7, "open_postings": 6, "open_elements": 4,
            "interned": 12, "lifetime_entries": 6,
        }
        assert storage["held"] == {
            "ops": 5, "payloads": 0, "payload_bytes": 0,
        }
        journals = payload["durability"]["recovery"]["journals"]
        assert [j["file"] for j in journals] == ["journal.bin.prev", "journal.bin"]
        assert all(
            j["version"] == FORMAT_VERSION and j["raw_bytes"] > 0
            for j in journals
        )

    def test_stats_dir_xml_backend(self, tmp_path):
        """``stats -d`` reads an older release's XML directory and leaves
        it as it is."""
        from tests.legacy_dirs import make_legacy

        directory = make_legacy(self._durable_db(tmp_path))
        before = sorted(path.name for path in directory.iterdir())
        code, out = _run("stats", "-d", str(directory))
        assert code == 0
        assert "storage backend: cas (checkpoint read: xml)" in out
        assert "  objects: 0 written" in out
        assert "journal files:" in out
        assert f"journal.bin: format v{FORMAT_VERSION}, 1 record(s)" in out
        assert "before deflate" in out
        assert sorted(path.name for path in directory.iterdir()) == before

    def test_replica_follow_for_tails_and_exits(self, tmp_path):
        directory = self._durable_db(tmp_path)
        code, out = _run(
            "replica", "-d", str(directory),
            "--follow", "0.01", "--follow-for", "0.05",
        )
        assert code == 0
        assert "following" in out
        assert "replica of" in out
        assert "1 document(s)" in out
