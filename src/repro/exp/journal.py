"""Append-only run journals: crash-resumable sweep bookkeeping.

A *run journal* is a JSONL file recording what a journaled sweep set out
to do and which points have durably completed, so a run killed at any
moment — SIGKILL, OOM, power loss — can be resumed and re-execute only
the missing work:

- Line 1 is the **header**: the journal schema version, the run id, and
  the full point list (family / params / seed) with their content
  hashes.  It is written and fsynced before any point executes, so a
  resumable description of the run exists from the first instant.
- Every subsequent line is a **done record** ``{"type": "done",
  "index", "key"}``, appended and fsynced the moment a fresh result has
  been stored in the :class:`~repro.exp.cache.ResultCache`.  The cache
  is the durable result store; the journal is the durable *intent*
  store — together a resume recomputes only points that never reached
  the cache, and merges bit-identically (done points resolve as cache
  hits, which are JSON round-trips of the original results).

Torn tails are expected: a crash mid-append leaves a final line without
its newline.  :func:`RunJournal.load` ignores that line (the point it
would have recorded is simply recomputed), and :meth:`RunJournal.open`
cuts it before appending, so a journal stays readable however often its
run is killed and resumed.  Any other malformed content is an error — a
journal is never silently reinterpreted.

Journals live under ``$REPRO_RUNS_DIR`` or ``.repro-runs/`` as
``<run_id>.jsonl``.
"""

from __future__ import annotations

import json
import os
from typing import List, Sequence, Set

from ..errors import SweepError

__all__ = ["JOURNAL_SCHEMA", "runs_dir", "journal_path", "RunJournal"]

#: Journal file schema; bump on incompatible layout changes.
JOURNAL_SCHEMA = 1


def runs_dir() -> str:
    """The directory run journals live in."""
    return os.environ.get("REPRO_RUNS_DIR") or ".repro-runs"


def journal_path(run_id: str) -> str:
    """The on-disk path of *run_id*'s journal."""
    if not run_id or "/" in run_id or os.sep in run_id or run_id.startswith("."):
        raise SweepError(f"invalid run id {run_id!r}")
    return os.path.join(runs_dir(), run_id + ".jsonl")


class RunJournal:
    """One run's append-only journal, open for recording completions."""

    def __init__(self, run_id: str, path: str, points: List[dict], keys: List[str], done: Set[int]):
        self.run_id = run_id
        self.path = path
        self.points = points  # [{"family", "params", "seed"}, ...]
        self.keys = keys
        self.done = done
        self._handle = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def open(cls, run_id: str, points: Sequence, keys: Sequence[str]) -> "RunJournal":
        """Open (creating if needed) the journal for *run_id*.

        *points* are :class:`~repro.exp.runner.SweepPoint`-likes with
        ``family`` / ``params`` / ``seed`` attributes; *keys* their
        content hashes, aligned.  An existing journal must describe the
        same point list (verified by content hash) — anything else means
        the caller changed flags between run and resume, which is
        rejected rather than silently merged.
        """
        path = journal_path(run_id)
        specs = [
            {"family": p.family, "params": p.params, "seed": p.seed} for p in points
        ]
        keys = list(keys)
        if os.path.exists(path):
            journal = cls.load(run_id)
            if journal.keys != keys:
                raise SweepError(
                    f"run journal {path!r} was recorded for a different "
                    f"point list ({len(journal.keys)} point(s), this run has "
                    f"{len(keys)}) — flags changed between run and resume?"
                )
            journal._open_append()
            return journal
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = {
            "type": "header",
            "schema": JOURNAL_SCHEMA,
            "run_id": run_id,
            "points": specs,
            "keys": keys,
        }
        journal = cls(run_id, path, specs, keys, set())
        journal._handle = open(path, "w", encoding="utf-8")
        try:
            journal._append(header)
        except BaseException:
            journal.close()
            raise
        return journal

    @classmethod
    def load(cls, run_id: str) -> "RunJournal":
        """Read *run_id*'s journal: header plus the set of done indices.

        Ignores a torn final line — one without its newline, the
        signature of a crash mid-append.  The returned journal is
        *closed*; reopen for appending via :meth:`_open_append` (done by
        :meth:`open`).
        """
        path = journal_path(run_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                # Every record ends with its newline; the text after the
                # last one (usually empty) is a torn tail.
                lines = handle.read().split("\n")[:-1]
        except FileNotFoundError:
            raise SweepError(
                f"no run journal for run id {run_id!r} (looked at {path!r}); "
                f"nothing to resume"
            ) from None
        except OSError as exc:
            raise SweepError(f"cannot read run journal {path!r}: {exc}") from exc
        if not lines:
            raise SweepError(f"run journal {path!r} has no complete header")
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise SweepError(
                f"run journal {path!r} has an unreadable header: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("type") != "header":
            raise SweepError(f"run journal {path!r} does not start with a header")
        schema = header.get("schema")
        if schema != JOURNAL_SCHEMA:
            raise SweepError(
                f"run journal {path!r} has schema version {schema!r}; this "
                f"build reads version {JOURNAL_SCHEMA}"
            )
        points = header.get("points")
        keys = header.get("keys")
        if (
            not isinstance(points, list)
            or not isinstance(keys, list)
            or len(points) != len(keys)
        ):
            raise SweepError(f"run journal {path!r} has a malformed header")
        done: Set[int] = set()
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise SweepError(
                    f"run journal {path!r} line {lineno} is corrupt "
                    f"(not a torn tail)"
                ) from None
            if not isinstance(record, dict) or record.get("type") != "done":
                raise SweepError(
                    f"run journal {path!r} line {lineno} is not a done record"
                )
            index = record.get("index")
            if (
                not isinstance(index, int)
                or not 0 <= index < len(keys)
                or record.get("key") != keys[index]
            ):
                raise SweepError(
                    f"run journal {path!r} line {lineno} names an unknown "
                    f"point"
                )
            done.add(index)
        return cls(run_id, path, points, keys, done)

    # -- appending -------------------------------------------------------------

    def _open_append(self) -> None:
        """Open for appending, first cutting a torn final line, so the
        next record starts a line of its own instead of being glued
        onto the fragment."""
        with open(self.path, "rb+") as handle:
            data = handle.read()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                handle.truncate(end)
                os.fsync(handle.fileno())
        self._handle = open(self.path, "a", encoding="utf-8")

    def _append(self, record: dict) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_done(self, index: int, key: str) -> None:
        """Durably record that point *index* is stored in the cache."""
        if index in self.done or self._handle is None:
            return
        self._append({"type": "done", "index": index, "key": key})
        self.done.add(index)

    def close(self) -> None:
        """Close the append handle (recorded state stays on disk)."""
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
