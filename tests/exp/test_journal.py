"""Run journals: crash-resumable sweep bookkeeping.

Covers the journal file format (header + fsynced done records), torn-
tail tolerance, precise rejection of every other corruption, and the
end-to-end contract: a journaled run that dies mid-sweep resumes with
``SweepRunner.resume`` and produces results bit-identical to an
uninterrupted run, recomputing only the missing points.
"""

import json

import pytest

from repro.errors import SweepError
from repro.exp import (
    JOURNAL_SCHEMA,
    ResultCache,
    RunJournal,
    SweepPoint,
    SweepRunner,
    journal_path,
    runs_dir,
)
from repro.exp.families import register_family

pytestmark = pytest.mark.durability


def _square(params, seed):
    return {"value": params["x"] * params["x"] + seed}


@pytest.fixture(autouse=True)
def _family():
    register_family("journal-square", _square)


def points(n=4):
    return [
        SweepPoint(family="journal-square", params={"x": i}, seed=11)
        for i in range(n)
    ]


def runner(tmp_path, **kwargs):
    return SweepRunner(cache=ResultCache(str(tmp_path / "cache")), **kwargs)


class TestJournalFile:
    def test_header_written_before_any_point(self, tmp_path):
        pts = points()
        keys = [p.key() for p in pts]
        with RunJournal.open("run-a", pts, keys) as journal:
            assert journal.done == set()
        lines = open(journal_path("run-a"), encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["keys"] == keys
        assert [p["params"] for p in header["points"]] == [p.params for p in pts]

    def test_done_records_round_trip(self, tmp_path):
        pts = points()
        keys = [p.key() for p in pts]
        with RunJournal.open("run-b", pts, keys) as journal:
            journal.record_done(2, keys[2])
            journal.record_done(0, keys[0])
            journal.record_done(2, keys[2])  # idempotent
        loaded = RunJournal.load("run-b")
        assert loaded.done == {0, 2}
        assert loaded.keys == keys

    def test_torn_final_line_tolerated(self, tmp_path):
        pts = points()
        keys = [p.key() for p in pts]
        with RunJournal.open("run-c", pts, keys) as journal:
            journal.record_done(0, keys[0])
            journal.record_done(1, keys[1])
        with open(journal_path("run-c"), "a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "ind')  # crash mid-append
        loaded = RunJournal.load("run-c")
        assert loaded.done == {0, 1}

    @pytest.mark.parametrize(
        "whole", [False, True], ids=["half-record", "record-without-newline"]
    )
    def test_resume_cuts_torn_tail(self, tmp_path, whole):
        """A run killed mid-append must stay resumable after its resume
        appends: reopening cuts the torn line, so the next record is not
        glued onto it and a second load still succeeds."""
        pts = points()
        keys = [p.key() for p in pts]
        expected = runner(tmp_path / "ref").run(pts)
        cache = ResultCache(str(tmp_path / "cache"))
        with RunJournal.open("run-torn", pts, keys) as journal:
            cache.put(keys[0], _square(pts[0].params, pts[0].seed))
            journal.record_done(0, keys[0])
        fragment = '{"type": "done", "ind'  # crash mid-append
        if whole:  # every byte but the newline reached the disk
            fragment = json.dumps({"type": "done", "index": 1, "key": keys[1]})
        with open(journal_path("run-torn"), "a", encoding="utf-8") as handle:
            handle.write(fragment)
        assert RunJournal.load("run-torn").done == {0}
        assert SweepRunner(cache=cache).resume("run-torn") == expected
        assert RunJournal.load("run-torn").done == {0, 1, 2, 3}
        text = open(journal_path("run-torn"), encoding="utf-8").read()
        assert fragment not in text
        assert len(text.splitlines()) == 1 + 4 and text.endswith("\n")

    def test_corrupt_interior_line_rejected(self, tmp_path):
        pts = points()
        keys = [p.key() for p in pts]
        with RunJournal.open("run-d", pts, keys) as journal:
            journal.record_done(0, keys[0])
        path = journal_path("run-d")
        lines = open(path, encoding="utf-8").read().splitlines()
        lines.insert(1, "{garbage")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(SweepError, match="not a torn tail"):
            RunJournal.load("run-d")

    def test_unknown_done_index_rejected(self, tmp_path):
        pts = points()
        keys = [p.key() for p in pts]
        RunJournal.open("run-e", pts, keys).close()
        with open(journal_path("run-e"), "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "done", "index": 99, "key": "x"}) + "\n")
        with pytest.raises(SweepError, match="unknown"):
            RunJournal.load("run-e")

    def test_schema_bump_rejected(self, tmp_path):
        pts = points()
        keys = [p.key() for p in pts]
        RunJournal.open("run-f", pts, keys).close()
        path = journal_path("run-f")
        lines = open(path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        header["schema"] = JOURNAL_SCHEMA + 1
        lines[0] = json.dumps(header)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(SweepError, match="schema version"):
            RunJournal.load("run-f")

    def test_missing_journal_names_run_id(self, tmp_path):
        with pytest.raises(SweepError, match="nothing to resume"):
            RunJournal.load("run-never")

    def test_reopen_with_different_points_rejected(self, tmp_path):
        pts = points(4)
        RunJournal.open("run-g", pts, [p.key() for p in pts]).close()
        other = points(3)
        with pytest.raises(SweepError, match="different point list"):
            RunJournal.open("run-g", other, [p.key() for p in other])

    @pytest.mark.parametrize("bad", ["", "a/b", "..sneaky", ".hidden"])
    def test_invalid_run_ids_rejected(self, bad):
        with pytest.raises(SweepError, match="invalid run id"):
            journal_path(bad)

    def test_runs_dir_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "elsewhere"))
        assert runs_dir() == str(tmp_path / "elsewhere")
        assert journal_path("run-h").startswith(str(tmp_path / "elsewhere"))


class TestJournaledRuns:
    def test_journaled_run_records_every_point(self, tmp_path):
        results = runner(tmp_path).run(points(), run_id="run-full")
        assert [r["value"] for r in results] == [11, 12, 15, 20]
        assert RunJournal.load("run-full").done == {0, 1, 2, 3}

    def test_resume_merges_bit_identically(self, tmp_path):
        pts = points()
        expected = runner(tmp_path / "ref").run(pts)

        # Simulate a crash: journal + cache know about points 0 and 2 only.
        cache = ResultCache(str(tmp_path / "cache"))
        keys = [p.key() for p in pts]
        with RunJournal.open("run-part", pts, keys) as journal:
            for index in (0, 2):
                cache.put(keys[index], _square(pts[index].params, pts[index].seed))
                journal.record_done(index, keys[index])

        run = SweepRunner(cache=cache)
        hits_before = cache.hits
        resumed = run.resume("run-part")
        assert resumed == expected
        assert cache.hits - hits_before == 2  # done points never recomputed
        assert RunJournal.load("run-part").done == {0, 1, 2, 3}

    def test_resume_of_complete_run_is_all_hits(self, tmp_path):
        run = runner(tmp_path)
        first = run.run(points(), run_id="run-done")
        misses_before = run.cache.misses
        again = run.resume("run-done")
        assert again == first
        assert run.cache.misses == misses_before

    def test_journaled_run_requires_cache(self):
        run = SweepRunner()  # no cache
        with pytest.raises(SweepError, match="requires a result cache"):
            run.run(points(), run_id="run-nocache")

    def test_resume_with_changed_flags_rejected(self, tmp_path):
        run = runner(tmp_path)
        run.run(points(4), run_id="run-flags")
        with pytest.raises(SweepError, match="different point list"):
            run.run(points(3), run_id="run-flags")
