"""Smoke-run every script in ``examples/`` as a subprocess.

Examples are the first code a reader runs, so they must keep working as
the library evolves; each one is executed end-to-end here (tiny sizes
where the script accepts them) and must exit 0.  The whole module is
``slow``-marked — it belongs to the weekly CI lane, deselect locally
with ``-m "not slow"``; the PR-time ``chaos`` job also runs the
``adaptive_datacenter`` and ``failure_drill`` cases.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

# Scripts that accept size flags get tiny arguments; the rest have
# fixed (already modest) built-in sizes.
EXAMPLE_ARGS = {
    "compare_systems.py": ["--nodes", "16", "--cliques", "4", "--slots", "200"],
    "locality_sweep.py": ["--nodes", "32", "--cliques", "4"],
}

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))

pytestmark = pytest.mark.slow


def test_every_example_is_covered():
    """A new example script must be added to this smoke suite."""
    assert ALL_EXAMPLES, "examples/ directory is empty or missing"
    unknown = set(EXAMPLE_ARGS) - set(ALL_EXAMPLES)
    assert not unknown, f"EXAMPLE_ARGS names missing scripts: {sorted(unknown)}"


@pytest.mark.parametrize("script", ALL_EXAMPLES)
def test_example_runs_clean(script, tmp_path):
    env = dict(os.environ)
    src = str(EXAMPLES_DIR.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)] + EXAMPLE_ARGS.get(script, []),
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, (
        f"{script} exited {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout[-2000:]}\n"
        f"--- stderr ---\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{script} printed nothing"
