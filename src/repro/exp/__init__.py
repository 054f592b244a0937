"""Sweep execution: parallel fan-out, content-addressed caching, batching.

The experiment layer turns "run this grid of configs × seeds" from an
ad-hoc loop in every CLI subcommand and benchmark into one subsystem:

- :mod:`families` — the registry of named sweep families; each maps
  ``(params, seed)`` to a JSON-safe result dict, optionally with a
  ``run_batch`` that computes many seeds of one config on one shared
  setup.
- :mod:`cache` — canonical-JSON → SHA-256 content addressing and the
  on-disk :class:`ResultCache` (``.repro-cache/``), with hit/miss/
  store/invalidate counters surfaced through the telemetry ``sweep``
  stream.
- :mod:`runner` — :class:`SweepRunner`, the
  ``ProcessPoolExecutor``-based executor with deterministic point
  ordering, per-point timeout/retry, crash isolation that names the
  failing point's content hash, and a merge bit-identical to serial
  execution.
- :mod:`journal` — append-only run journals (``.repro-runs/``) that
  make journaled sweeps crash-resumable: a killed run re-executed under
  the same run id recomputes only the points that never reached the
  cache and merges bit-identically.
- :mod:`schedcache` — the compiled-schedule cache: content-addressed
  on-disk destination tables and circuit-up masks, memory-mapped
  read-only by every process that compiles the same fabric.
- :mod:`factory` — memoized construction of schedules, routers, and
  traffic matrices shared by sweep families, benchmarks, and tests.

Typical use::

    from repro.exp import ResultCache, SweepPoint, SweepRunner

    points = [SweepPoint("sorn_sim", {"nodes": 32, ...}, seed=s)
              for s in range(8)]
    results = SweepRunner(workers=4, cache=ResultCache()).run(points)
"""

from . import factory
from .cache import SCHEMA_VERSION, ResultCache, canonical_json, point_key
from .families import (
    Family,
    drifting_locality_flows,
    family_names,
    get_family,
    register_family,
)
from .journal import JOURNAL_SCHEMA, RunJournal, journal_path, runs_dir
from .runner import SweepPoint, SweepRunner
from .schedcache import SCHED_SCHEMA_VERSION, ScheduleCache, schedule_key

__all__ = [
    "SCHEMA_VERSION",
    "ResultCache",
    "canonical_json",
    "point_key",
    "Family",
    "register_family",
    "get_family",
    "family_names",
    "drifting_locality_flows",
    "JOURNAL_SCHEMA",
    "RunJournal",
    "journal_path",
    "runs_dir",
    "SweepPoint",
    "SweepRunner",
    "SCHED_SCHEMA_VERSION",
    "ScheduleCache",
    "schedule_key",
    "factory",
]
