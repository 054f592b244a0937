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
   ``concurrent.futures.ProcessPoolExecutor``.  Ordinary exceptions
   inside a family are caught *inside* the worker and returned tagged,
   so they never poison the pool; they surface as
   :class:`repro.errors.SweepError` naming the point's family and
   content hash, after ``retries`` in-process retries.  A worker that
   dies without raising (``os._exit``, OOM kill, segfault) breaks the
   pool — the runner then re-executes the unfinished tasks one by one
   in fresh single-worker pools to identify the culprit and raises
   :class:`repro.errors.SweepWorkerCrash` naming its family and content
   hash, never a bare ``BrokenProcessPool``.

Determinism: the task list, its order, and the result merge depend only
on the input points, so serial (``workers=0``) and parallel runs return
identical lists (``tests/exp/test_runner.py`` proves it
differentially).  Workers resolve families by name from the registry;
families registered at module import time work everywhere, while
test-local registrations rely on fork-start worker processes (Linux).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
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

    def spec(self) -> Tuple[str, dict, tuple, bool]:
        """The picklable payload handed to :func:`_execute_task`."""
        return (self.family, self.params, tuple(self.seeds), self.batched)

    def parallel_spec(self, heartbeat=None):
        """The payload for pool submission: spec plus the optional
        heartbeat file."""
        if heartbeat is None:
            return self.spec()
        return self.spec() + (heartbeat,)

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
        heartbeat through per-task files; a worker whose heartbeat goes
        stale past this deadline — a preempted, frozen, or SIGSTOPped
        process — is killed and its points requeued under the same
        ``retries`` budget, surfacing as
        :class:`~repro.errors.SweepWorkerHang` (never a bare pool
        error) once the budget is spent.  ``None`` disables the
        watchdog.
    heartbeat_interval:
        Seconds between worker heartbeats when the watchdog is active.
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
        heartbeat_interval: float = 1.0,
        telemetry=None,
    ):
        if workers < 0:
            raise SweepError(f"workers must be >= 0, got {workers}")
        if retries < 0:
            raise SweepError(f"retries must be >= 0, got {retries}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise SweepError(f"hang_timeout must be > 0, got {hang_timeout}")
        if heartbeat_interval <= 0:
            raise SweepError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.workers = int(workers)
        self.cache = cache
        self.timeout = timeout
        self.retries = int(retries)
        self.batch_seeds = bool(batch_seeds)
        self.hang_timeout = None if hang_timeout is None else float(hang_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.telemetry = telemetry
        self._journal: Optional[RunJournal] = None

    def _emit(self, event: str, key: str) -> None:
        if self.telemetry is not None and self.telemetry.wants_sweeps:
            self.telemetry.record_sweep(event, key)

    # -- planning ------------------------------------------------------------

    def _plan(self, points: Sequence[SweepPoint], out: list) -> List[_Task]:
        """Resolve cache hits into *out*; group the misses into tasks."""
        tasks: List[_Task] = []
        by_config: Dict[Tuple[str, str], _Task] = {}
        for index, point in enumerate(points):
            family = get_family(point.family)
            key = point_key(
                point.family, point.params, point.seed, version=family.version
            )
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    out[index] = hit
                    continue
            groupable = self.batch_seeds and family.run_batch is not None
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
    def _abandon(pool) -> None:
        """Tear a pool down without joining its (possibly stuck) workers.

        A plain ``shutdown(wait=True)`` — what the context-manager exit
        does — would block on a worker that is still inside a
        long-running point, defeating the timeout.  Terminating the
        worker processes first makes the teardown prompt.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def _timeout_error(self, task: _Task) -> SweepTimeout:
        return SweepTimeout(
            f"sweep point {task.describe()} exceeded the "
            f"{self.timeout}s per-point timeout"
        )

    def _run_parallel(self, tasks: List[_Task], out: list) -> None:
        """Shard *tasks* across a process pool; settle in task order."""
        if self.hang_timeout is not None:
            self._run_parallel_watchdog(tasks, out)
            return
        broken: List[_Task] = []
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        try:
            futures = [
                pool.submit(_execute_task, task.parallel_spec()) for task in tasks
            ]
            for task, future in zip(tasks, futures):
                try:
                    payload = future.result(timeout=self.timeout)
                except concurrent.futures.TimeoutError:
                    raise self._timeout_error(task) from None
                except concurrent.futures.process.BrokenProcessPool:
                    broken.append(task)
                    continue
                self._settle(task, payload, out)
        except SweepTimeout:
            self._abandon(pool)
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        self._isolate_broken(broken, out)

    def _isolate_broken(self, broken: List[_Task], out: list) -> None:
        """Re-run pool-breaking tasks one by one to name the culprit.

        Each unfinished task gets a fresh single-worker pool.  Innocent
        victims of someone else's crash complete here; the culprit
        breaks its own pool and is named — family and content hash,
        never a bare BrokenProcessPool.
        """
        for task in broken:
            solo = concurrent.futures.ProcessPoolExecutor(max_workers=1)
            try:
                payload = solo.submit(_execute_task, task.parallel_spec()).result(
                    timeout=self.timeout
                )
            except concurrent.futures.TimeoutError:
                self._abandon(solo)
                raise self._timeout_error(task) from None
            except concurrent.futures.process.BrokenProcessPool:
                raise SweepWorkerCrash(
                    f"worker process died while computing sweep point "
                    f"{task.describe()} (killed without raising — "
                    f"os._exit, OOM kill, or segfault)"
                ) from None
            finally:
                solo.shutdown(wait=False, cancel_futures=True)
            self._settle(task, payload, out)

    # -- watchdog execution ----------------------------------------------------

    @staticmethod
    def _kill_pool(pool) -> None:
        """Hard-kill a pool's workers (SIGKILL reaches stopped processes,
        which a SIGTERM would leave suspended with the signal pending)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_parallel_watchdog(self, tasks: List[_Task], out: list) -> None:
        """Parallel execution with heartbeat supervision.

        Each task's worker beats a private file; the parent, while
        waiting on a task, watches its beat mtime with the parent's own
        monotonic clock.  A beat stale past ``hang_timeout`` means the
        worker process is no longer being scheduled (preempted, frozen,
        SIGSTOPped): the whole pool is killed, every completed-but-
        unsettled payload is flushed, and the unfinished tasks are
        requeued into a fresh pool — charging an attempt only to the
        task that hung.  A task whose hang attempts exceed ``retries``
        raises :class:`~repro.errors.SweepWorkerHang` naming its family
        and content hash.
        """
        pending = list(tasks)
        hang_attempts: Dict[int, int] = {}
        broken: List[_Task] = []
        poll = max(0.05, min(self.heartbeat_interval / 2.0, 0.5))
        hb_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")
        try:
            while pending:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers
                )
                hb_paths: Dict[int, str] = {}
                futures: Dict[int, concurrent.futures.Future] = {}
                for task in pending:
                    hb = os.path.join(hb_dir, f"{uuid.uuid4().hex}.beat")
                    hb_paths[id(task)] = hb
                    futures[id(task)] = pool.submit(
                        _execute_task,
                        task.parallel_spec((hb, self.heartbeat_interval)),
                    )
                settled_ids: set = set()
                hung: Optional[_Task] = None
                try:
                    for task in pending:
                        future = futures[id(task)]
                        hb = hb_paths[id(task)]
                        waited = 0.0
                        seen_mtime: Optional[float] = None
                        seen_at: Optional[float] = None
                        while True:
                            try:
                                payload = future.result(timeout=poll)
                                break
                            except concurrent.futures.TimeoutError:
                                waited += poll
                                if self.timeout is not None and waited >= self.timeout:
                                    self._kill_pool(pool)
                                    raise self._timeout_error(task) from None
                                try:
                                    mtime = os.stat(hb).st_mtime
                                except OSError:
                                    continue  # not started yet: no judgment
                                now = time.monotonic()
                                if mtime != seen_mtime:
                                    seen_mtime = mtime
                                    seen_at = now
                                    self._emit("heartbeat", task.keys[0])
                                elif now - seen_at > self.hang_timeout:
                                    hung = task
                                    break
                            except concurrent.futures.process.BrokenProcessPool:
                                payload = None
                                broken.append(task)
                                break
                        if hung is not None:
                            break
                        if payload is not None:
                            self._settle(task, payload, out)
                        settled_ids.add(id(task))
                    if hung is None:
                        pending = []
                        continue
                    # Flush every completed-but-unsettled payload before
                    # killing the pool, so finished work survives.
                    remaining: List[_Task] = []
                    for task in pending:
                        if task is hung or id(task) in settled_ids:
                            continue
                        future = futures[id(task)]
                        if future.done() and future.exception() is None:
                            self._settle(task, future.result(), out)
                        else:
                            remaining.append(task)
                    self._emit("hang", hung.keys[0])
                    attempts = hang_attempts.get(id(hung), 0) + 1
                    hang_attempts[id(hung)] = attempts
                    if attempts > self.retries:
                        raise SweepWorkerHang(
                            f"sweep worker stopped heartbeating while "
                            f"computing point {hung.describe()} (no beat for "
                            f"{self.hang_timeout}s); killed after "
                            f"{attempts} attempt(s)"
                        )
                    pending = [hung] + remaining
                    for task in pending:
                        self._emit("requeue", task.keys[0])
                finally:
                    self._kill_pool(pool)
            self._isolate_broken(broken, out)
        finally:
            try:
                for name in os.listdir(hb_dir):
                    os.remove(os.path.join(hb_dir, name))
                os.rmdir(hb_dir)
            except OSError:
                pass

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
        journal = None
        if run_id is not None:
            if self.cache is None:
                raise SweepError(
                    f"journaled run {run_id!r} requires a result cache — "
                    f"the journal records completions, the cache holds the "
                    f"results a resume replays"
                )
            keys = [point.key() for point in points]
            journal = RunJournal.open(run_id, points, keys)
        out: list = [None] * len(points)
        self._journal = journal
        try:
            tasks = self._plan(points, out)
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
