"""Parallel sweep execution with deterministic, cache-aware merging.

:class:`SweepRunner` executes a declarative list of
:class:`SweepPoint`\\ s — ``(family, params, seed)`` triples resolved
against the :mod:`repro.exp.families` registry — and returns their
JSON-safe results **in input order**, regardless of how the work was
scheduled.  Execution composes three layers:

1. **Cache resolution.**  With a :class:`repro.exp.cache.ResultCache`
   attached, every point's content hash is looked up first and only
   misses are computed; fresh results are stored back.  Because the
   cold path round-trips fresh results through JSON before returning
   them, a warm rerun is bit-identical to the cold run that filled the
   cache.
2. **Seed batching.**  Misses of the *same* (family, params) whose
   family implements ``run_batch`` are grouped into one task, so the
   family builds its per-config setup (for ``sorn_sim``: layout,
   schedule, router and flow population) once for all R seeds.  The
   batching contract — ``run_batch`` bit-identical to per-seed ``run``
   — keeps the merge equal to serial execution.
3. **Process fan-out.**  With ``workers > 1``, tasks are sharded over a
   ``concurrent.futures.ProcessPoolExecutor`` by one supervised loop.
   Ordinary exceptions inside a family are caught *inside* the worker
   and returned tagged, so they never poison the pool; they surface as
   :class:`repro.errors.SweepError` naming the point's family and
   content hash, after ``retries`` in-process retries.  A worker that
   stops heartbeating (``hang_timeout``) is killed with its pool and
   its point requeued into a fresh pool.  A worker that dies without
   raising (``os._exit``, OOM kill, segfault) breaks the pool — the
   runner then re-executes the unfinished tasks one by one in fresh
   single-worker pools to identify the culprit and raises
   :class:`repro.errors.SweepWorkerCrash` naming its family and content
   hash, never a bare ``BrokenProcessPool``.  Every pool is stopped the
   same way — SIGKILL its workers, then join it — so none of its
   threads is alive when the next pool forks or when the run returns.

Determinism: the task list, its order, and the result merge depend only
on the input points, so serial (``workers=0``) and parallel runs return
identical lists (``tests/exp/test_runner.py`` proves it
differentially).  Workers resolve families by name from the registry.
Pools use the fork start method (Linux), so a worker inherits the
registry as it stood when its pool forked and test-local registrations
resolve too; because each pool is joined before the next one forks, the
runner forks only while no thread of its own is running.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
import shutil
import tempfile
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SweepError, SweepTimeout, SweepWorkerCrash, SweepWorkerHang
from .cache import ResultCache, canonical_json, point_key
from .families import get_family
from .journal import RunJournal

__all__ = ["SweepPoint", "SweepRunner"]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: a family name, its params, and a seed."""

    family: str
    params: dict
    seed: object = 0

    def key(self) -> str:
        """The point's content hash (includes the family's version)."""
        return point_key(
            self.family, self.params, self.seed, version=get_family(self.family).version
        )


def _roundtrip(result):
    """JSON round-trip a fresh result so cold == warm bit-identically."""
    return json.loads(json.dumps(result))


def _touch(path: str) -> None:
    """Write a heartbeat: create *path* if missing, bump its mtime."""
    try:
        with open(path, "a"):
            os.utime(path, None)
    except OSError:
        pass  # a lost beat is indistinguishable from a slow one


def _heartbeat_thread(path: str, interval: float, stop: threading.Event):
    """Beat *path* every *interval* seconds until *stop* is set.

    Runs as a daemon thread in the worker process, so the beats prove
    the *process* is alive and scheduled — a preempted, frozen, or
    SIGSTOPped worker stops beating, which is exactly what the parent's
    watchdog looks for.
    """
    while not stop.wait(interval):
        _touch(path)


def _execute_task(task: Tuple[str, dict, tuple, bool]):
    """Worker entry point: compute one task, never raise.

    *task* is ``(family, params, seeds, batched)``, optionally extended
    with a fifth element ``(heartbeat_path, interval)`` that starts a
    daemon heartbeat thread for the duration of the task.  Returns
    ``("ok", [result, ...])`` — one result per seed — or
    ``("err", exc_type_name, message)`` for ordinary exceptions, so a
    failing point degrades into a tagged value instead of breaking the
    process pool.  Top-level (picklable) by design.
    """
    family_name, params, seeds, batched = task[:4]
    stop = None
    if len(task) > 4:
        hb_path, interval = task[4]
        _touch(hb_path)
        stop = threading.Event()
        threading.Thread(
            target=_heartbeat_thread,
            args=(hb_path, interval, stop),
            daemon=True,
        ).start()
    try:
        family = get_family(family_name)
        if batched:
            results = family.run_batch(params, list(seeds))
            if len(results) != len(seeds):
                raise SweepError(
                    f"family {family_name!r} run_batch returned "
                    f"{len(results)} results for {len(seeds)} seeds"
                )
        else:
            results = [family.run(params, seed) for seed in seeds]
        return ("ok", results)
    except Exception as exc:  # noqa: BLE001 - tagged and re-raised by the runner
        return ("err", type(exc).__name__, str(exc))
    finally:
        if stop is not None:
            stop.set()


@dataclasses.dataclass
class _Task:
    """Internal unit of scheduling: one or more points of one config."""

    family: str
    params: dict
    seeds: list
    batched: bool
    indices: list  # positions in the input point list
    keys: list  # content hashes, aligned with seeds/indices
    hangs: int = 0  # times a watchdog killed this task's worker

    def spec(self, heartbeat=None) -> tuple:
        """The picklable payload handed to :func:`_execute_task`, plus
        the optional ``(heartbeat_path, interval)``."""
        spec = (self.family, self.params, tuple(self.seeds), self.batched)
        return spec if heartbeat is None else spec + (heartbeat,)

    def describe(self) -> str:
        """``family=... hash=...`` of the task's first point, for errors."""
        return f"family={self.family!r} hash={self.keys[0]}"


class SweepRunner:
    """Executes sweep points serially or across worker processes.

    Parameters
    ----------
    workers:
        Process count; ``0`` or ``1`` runs everything in-process in
        input order (the reference behavior parallel runs must match).
    cache:
        Optional :class:`~repro.exp.cache.ResultCache`; hits skip
        computation, fresh results are stored back.
    timeout:
        Per-task wall-clock bound in seconds (parallel mode only —
        serial execution cannot preempt a running point).  Exceeding it
        raises :class:`~repro.errors.SweepTimeout` naming the point.
    retries:
        Additional in-process attempts for a point whose family raised
        an ordinary exception, before giving up with
        :class:`~repro.errors.SweepError`.
    batch_seeds:
        Group same-config misses into one ``run_batch`` task when the
        family supports it (bit-identical by the batching contract);
        disable to force one task per point.
    hang_timeout:
        Watchdog deadline in seconds (parallel mode only).  Workers
        heartbeat through per-task files six times per deadline; a
        worker whose heartbeat goes stale past this deadline — a
        preempted, frozen, or SIGSTOPped process — is killed with its
        pool and its points requeued under the same ``retries`` budget,
        surfacing as :class:`~repro.errors.SweepWorkerHang` (never a
        bare pool error) once the budget is spent.  ``None`` means no
        worker beats and none is ever declared hung; the parallel loop
        is the same.
    telemetry:
        Optional :class:`repro.sim.telemetry.TelemetryHub`; watchdog
        lifecycle events (``heartbeat`` / ``hang`` / ``requeue``) are
        emitted on its ``sweep`` stream, keyed by the point's content
        hash, alongside the cache's own events.
    """

    def __init__(
        self,
        workers: int = 0,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        batch_seeds: bool = True,
        hang_timeout: Optional[float] = None,
        telemetry=None,
    ):
        if workers < 0:
            raise SweepError(f"workers must be >= 0, got {workers}")
        if retries < 0:
            raise SweepError(f"retries must be >= 0, got {retries}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise SweepError(f"hang_timeout must be > 0, got {hang_timeout}")
        self.workers = int(workers)
        self.cache = cache
        self.timeout = timeout
        self.retries = int(retries)
        self.batch_seeds = bool(batch_seeds)
        self.hang_timeout = None if hang_timeout is None else float(hang_timeout)
        self.telemetry = telemetry
        self._journal: Optional[RunJournal] = None

    def _emit(self, event: str, key: str) -> None:
        if self.telemetry is not None and self.telemetry.wants_sweeps:
            self.telemetry.record_sweep(event, key)

    # -- planning ------------------------------------------------------------

    def _plan(
        self, points: Sequence[SweepPoint], keys: Sequence[str], out: list
    ) -> List[_Task]:
        """Resolve cache hits into *out*; group the misses into tasks.

        *keys* are the points' content hashes, aligned with *points*.
        """
        tasks: List[_Task] = []
        by_config: Dict[Tuple[str, str], _Task] = {}
        for index, (point, key) in enumerate(zip(points, keys)):
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    out[index] = hit
                    continue
            groupable = self.batch_seeds and get_family(point.family).run_batch is not None
            if groupable:
                config = (point.family, canonical_json(point.params))
                task = by_config.get(config)
                if task is not None:
                    task.seeds.append(point.seed)
                    task.indices.append(index)
                    task.keys.append(key)
                    continue
            task = _Task(
                family=point.family,
                params=dict(point.params),
                seeds=[point.seed],
                batched=groupable,
                indices=[index],
                keys=[key],
            )
            tasks.append(task)
            if groupable:
                by_config[(point.family, canonical_json(point.params))] = task
        for task in tasks:
            # A single-seed "batch" gains nothing; run it through the
            # plain path so worker-side behavior is the simplest one.
            if task.batched and len(task.seeds) == 1:
                task.batched = False
        return tasks

    # -- execution -----------------------------------------------------------

    def _attempt_serially(self, task: _Task):
        """One in-process execution of *task* (also the retry path)."""
        return _execute_task(task.spec())

    def _settle(self, task: _Task, payload, out: list) -> None:
        """Unpack a task payload into *out*, retrying tagged errors."""
        attempts = 0
        while payload[0] == "err" and attempts < self.retries:
            attempts += 1
            payload = self._attempt_serially(task)
        if payload[0] == "err":
            raise SweepError(
                f"sweep point {task.describe()} failed after "
                f"{attempts + 1} attempt(s): {payload[1]}: {payload[2]}"
            )
        results = payload[1]
        for position, index in enumerate(task.indices):
            result = _roundtrip(results[position])
            if self.cache is not None:
                self.cache.put(task.keys[position], result)
                if self._journal is not None:
                    # Only after the cache store is durable: a done
                    # record promises resume will find the result.
                    self._journal.record_done(index, task.keys[position])
            out[index] = result

    @staticmethod
    def _stop_pool(pool) -> None:
        """Stop *pool* for good: SIGKILL its workers, then join it.

        SIGKILL also reaches a stopped worker (a SIGTERM would stay
        pending) and ends one stuck inside a long point.  A worker
        killed while sending its result leaves half a message in the
        result pipe; closing the parent's own write end lets the pool's
        manager thread read end-of-file there instead of waiting for the
        rest forever.  The join returns once the manager and
        queue-feeder threads have exited.
        """
        for process in list(pool._processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):
                pass
        pool._result_queue._writer.close()
        pool.shutdown(wait=True, cancel_futures=True)

    def _run_parallel(self, tasks: List[_Task], out: list) -> None:
        """Run *tasks* on pools of ``workers`` processes, then isolate
        the tasks a dying worker left unfinished, one pool each."""
        beats = None
        if self.hang_timeout is not None:
            beats = tempfile.mkdtemp(prefix="repro-heartbeat-")
        try:
            for task in self._supervise(tasks, self.workers, beats, out):
                if self._supervise([task], 1, beats, out):
                    raise SweepWorkerCrash(
                        f"worker process died while computing sweep point "
                        f"{task.describe()} (killed without raising — "
                        f"os._exit, OOM kill, or segfault)"
                    )
        finally:
            if beats is not None:
                shutil.rmtree(beats, ignore_errors=True)

    def _supervise(
        self, tasks: List[_Task], workers: int, beats: Optional[str], out: list
    ) -> List[_Task]:
        """Settle *tasks* in order from a pool of *workers* processes.

        Each task's worker beats a private file under *beats* (none
        when ``hang_timeout`` is ``None``).  A beat stale past
        ``hang_timeout`` means the worker process is no longer being
        scheduled (preempted, frozen, SIGSTOPped): every completed but
        unsettled payload is settled, the pool is stopped, and the
        unfinished tasks are requeued into a fresh pool — charging an
        attempt only to the task that hung.  A task whose hang attempts
        exceed ``retries`` raises :class:`~repro.errors.SweepWorkerHang`
        naming its family and content hash.  Returns, unsettled, the
        tasks whose pool broke under them.
        """
        if beats is None:
            # No beat to watch: each wait ends at the timeout (or never).
            interval, poll = None, self.timeout
        else:
            interval = self.hang_timeout / 6.0
            poll = max(0.05, min(interval / 2.0, 0.5))
        broken: List[_Task] = []
        pending = list(tasks)
        while pending:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            try:
                submitted = []
                for task in pending:
                    beat = heartbeat = None
                    if beats is not None:
                        beat = os.path.join(beats, f"{uuid.uuid4().hex}.beat")
                        heartbeat = (beat, interval)
                    future = pool.submit(_execute_task, task.spec(heartbeat))
                    submitted.append((task, future, beat))
                for position, (task, future, beat) in enumerate(submitted):
                    try:
                        payload = self._await(task, future, beat, poll)
                    except concurrent.futures.process.BrokenProcessPool:
                        broken.append(task)
                        continue
                    if payload is None:
                        pending = self._requeue(task, submitted[position + 1 :], out)
                        break
                    self._settle(task, payload, out)
                else:
                    pending = []
            finally:
                self._stop_pool(pool)
        return broken

    def _requeue(self, hung: _Task, rest: list, out: list) -> List[_Task]:
        """The tasks to rerun after *hung*'s worker stopped beating.

        *rest* holds the ``(task, future, beat)`` submissions after
        *hung*; the completed ones are settled before the pool dies, so
        finished work survives, and the others are requeued behind
        *hung*.
        """
        requeue = [hung]
        for task, future, _ in rest:
            if future.done() and future.exception() is None:
                self._settle(task, future.result(), out)
            else:
                requeue.append(task)
        self._emit("hang", hung.keys[0])
        hung.hangs += 1
        if hung.hangs > self.retries:
            raise SweepWorkerHang(
                f"sweep worker stopped heartbeating while computing point "
                f"{hung.describe()} (no beat for {self.hang_timeout}s); "
                f"killed after {hung.hangs} attempt(s)"
            )
        for task in requeue:
            self._emit("requeue", task.keys[0])
        return requeue

    def _await(self, task: _Task, future, beat: Optional[str], poll):
        """*future*'s payload, or ``None`` once its worker stops beating.

        Polls every *poll* seconds: past ``timeout`` raises
        :class:`~repro.errors.SweepTimeout`; with a *beat* file, a beat
        unchanged for longer than ``hang_timeout`` on the parent's own
        monotonic clock returns ``None``.  A broken pool propagates as
        ``BrokenProcessPool``.
        """
        start = time.monotonic()
        seen_mtime = seen_at = None
        while True:
            try:
                return future.result(timeout=poll)
            except concurrent.futures.TimeoutError:
                pass
            now = time.monotonic()
            if self.timeout is not None and now - start >= self.timeout:
                raise SweepTimeout(
                    f"sweep point {task.describe()} exceeded the "
                    f"{self.timeout}s per-point timeout"
                ) from None
            if beat is None:
                continue
            try:
                mtime = os.stat(beat).st_mtime
            except OSError:
                continue  # not started yet: no judgment
            if mtime != seen_mtime:
                seen_mtime, seen_at = mtime, now
                self._emit("heartbeat", task.keys[0])
            elif now - seen_at > self.hang_timeout:
                return None

    def run(self, points: Sequence[SweepPoint], run_id: Optional[str] = None) -> list:
        """Execute *points*; returns their results in input order.

        The returned list contains JSON-safe plain data (whatever the
        families produced, post JSON round-trip) and is bit-identical
        across ``workers`` settings and cache temperature.

        With *run_id*, the run is **journaled**: a
        :class:`~repro.exp.journal.RunJournal` records the full point
        list up front and each fresh completion durably, so a killed
        run can be re-executed with the same *run_id* (or via
        :meth:`resume`) and only the missing points recompute — the
        merge is bit-identical because completed points resolve as
        cache hits.  Journaling requires a cache; an existing journal
        must describe the same point list.
        """
        points = list(points)
        if run_id is not None and self.cache is None:
            raise SweepError(
                f"journaled run {run_id!r} requires a result cache — "
                f"the journal records completions, the cache holds the "
                f"results a resume replays"
            )
        keys = [point.key() for point in points]
        journal = None
        if run_id is not None:
            journal = RunJournal.open(run_id, points, keys)
        out: list = [None] * len(points)
        self._journal = journal
        try:
            tasks = self._plan(points, keys, out)
            if not tasks:
                return out
            if self.workers <= 1:
                for task in tasks:
                    self._settle(task, self._attempt_serially(task), out)
            else:
                self._run_parallel(tasks, out)
            return out
        finally:
            self._journal = None
            if journal is not None:
                journal.close()

    def resume(self, run_id: str) -> list:
        """Re-execute run *run_id* from its journal.

        Rebuilds the point list from the journal header and runs it
        under the same *run_id*: points whose results already reached
        the cache resolve as hits (bit-identical by the cache's JSON
        round-trip contract), and only missing or in-flight points
        recompute.  Raises :class:`~repro.errors.SweepError` when no
        journal exists for *run_id*.
        """
        journal = RunJournal.load(run_id)
        points = [
            SweepPoint(family=p["family"], params=p["params"], seed=p["seed"])
            for p in journal.points
        ]
        return self.run(points, run_id=run_id)
