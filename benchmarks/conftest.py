"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure from the paper (or one
ablation from DESIGN.md), times the computation via pytest-benchmark, and
*prints* the regenerated rows/series so ``pytest benchmarks/
--benchmark-only -s | tee bench_output.txt`` records the reproduction
alongside the timings.  Assertions pin the qualitative shape (who wins,
by roughly what factor) — the pass/fail signal of the reproduction.

Two suite-wide axes:

- ``--engine {reference,vectorized,both}`` parametrizes every benchmark
  that requests the ``engine`` fixture, so any simulation benchmark can
  be timed under either simulator engine (default: both).
- ``--smoke`` shrinks problem sizes and relaxes performance assertions
  for CI smoke runs; the full-scale thresholds (e.g. the >= 20x speedup
  floor and the baseline gate in ``bench_kernel.py``) apply only
  without it.

All collected benchmark items carry the ``bench`` marker (registered in
``pyproject.toml``) so they can be selected or excluded with ``-m``.
"""

import os
import platform
import sys

import pytest


def bench_environment():
    """Host metadata stamped into every ``BENCH_*.json`` payload.

    CI compares measurements across runners; without the python/numpy
    versions and core count recorded alongside the numbers, a
    cross-runner delta is uninterpretable.
    """
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_count_physical": _physical_cpu_count(),
        "platform": platform.platform(),
    }


def _physical_cpu_count():
    """Physical core count (SMT siblings collapsed), or None if unknown.

    ``os.cpu_count()`` reports *logical* CPUs; throughput baselines on a
    hyperthreaded runner are not comparable to the same logical count of
    real cores, so both numbers are stamped.  Parsed from
    ``/proc/cpuinfo`` (Linux); other platforms report None rather than
    guessing.
    """
    try:
        physical = set()
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            package = core = None
            for line in handle:
                if line.startswith("physical id"):
                    package = line.split(":", 1)[1].strip()
                elif line.startswith("core id"):
                    core = line.split(":", 1)[1].strip()
                elif not line.strip():
                    if package is not None and core is not None:
                        physical.add((package, core))
                    package = core = None
            if package is not None and core is not None:
                physical.add((package, core))
        return len(physical) or None
    except OSError:
        return None


def pytest_addoption(parser):
    """Register the benchmark suite's engine and smoke-scale options."""
    parser.addoption(
        "--engine",
        action="store",
        default="both",
        choices=("reference", "vectorized", "both"),
        help="simulator engine axis for benchmarks using the `engine` fixture",
    )
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="shrink benchmark scale for CI smoke runs (relaxed assertions)",
    )


def pytest_generate_tests(metafunc):
    """Parametrize the ``engine`` fixture from the --engine option."""
    if "engine" in metafunc.fixturenames:
        choice = metafunc.config.getoption("--engine")
        engines = ["reference", "vectorized"] if choice == "both" else [choice]
        metafunc.parametrize("engine", engines)


def pytest_collection_modifyitems(config, items):
    """Tag every benchmark with the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture
def smoke(request):
    """Whether --smoke was passed (CI-scale runs)."""
    return request.config.getoption("--smoke")


def emit(title, lines):
    """Print a regenerated table to real stdout (survives pytest capture)."""
    stream = sys.stdout
    print(f"\n=== {title} ===", file=stream)
    for line in lines:
        print(line, file=stream)
    stream.flush()


@pytest.fixture
def report():
    """The emit helper as a fixture."""
    return emit
