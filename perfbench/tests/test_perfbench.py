"""Tests of the benchmark's own code: span arithmetic, digests, smoke runs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import SPAN_METRIC, TIME_METRICS, Span, Tracer, layer_times, self_times
from workloads import digest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _span(index, name, start, end, parent=-1):
    return Span(index, name, start, end, parent, "test")


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "exp.run", 0.0, 10.0),
        _span(1, "exp.family", 1.0, 9.0, 0),
        _span(2, "sim.start", 1.5, 2.5, 1),
        _span(3, "sim.advance", 3.0, 8.0, 1),
        _span(4, "routing.paths_batch", 4.0, 5.0, 3),
        _span(5, "traffic.generate", 12.0, 13.0),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 1.0, 1.0])


def test_layer_times_and_other_add_up_to_wall():
    spans = [
        _span(0, "exp.run", 0.0, 10.0),
        _span(1, "sim.advance", 1.0, 4.0, 0),
        _span(2, "sim.advance", 2.0, 3.0, 1),  # a nested call of one layer
        _span(3, "schedules.dest_table", 5.0, 6.0, 0),
        _span(4, "schedules.build_sorn_schedule", 11.0, 11.5),
    ]
    times = layer_times(spans, wall_s=15.0)
    assert times["exp.runner_self_s"] == pytest.approx(6.0)
    assert times["sim.advance_s"] == pytest.approx(3.0)
    assert times["schedules.compile_s"] == pytest.approx(1.5)
    assert times["other_s"] == pytest.approx(4.5)  # 15 - 10 - 0.5
    assert sum(times[m] for m in TIME_METRICS) + times["other_s"] == pytest.approx(15.0)


def test_tracer_records_parents_and_counts_outermost_calls_once():
    tracer = Tracer("t")

    def generate(depth):
        return generate_traced(depth - 1) if depth else [1, 2, 3]

    generate_traced = tracer.span(
        "traffic.generate", tracer._bump("traffic.flows", lambda a, r: len(r))
    )(generate)
    advance = tracer.span("sim.advance")(lambda: generate_traced(2))
    advance()
    assert [s.name for s in tracer.spans] == ["sim.advance"] + ["traffic.generate"] * 3
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 2]
    assert tracer.counts["traffic.flows"] == 3  # the recursion counts once
    assert all(s.end >= s.start for s in tracer.spans)


def test_every_span_name_has_one_layer_metric():
    assert set(SPAN_METRIC.values()) == set(TIME_METRICS)
    with pytest.raises(KeyError):
        Tracer("t").span("not.a.layer")


def test_digest_check_fails_on_a_perturbed_result(tmp_path):
    outputs = {"points": [{"fluid": 0.3333333333333333, "simulated": 0.3325}]}
    perturbed = json.loads(json.dumps(outputs))
    perturbed["points"][0]["simulated"] = math.nextafter(0.3325, 1.0)
    store = tmp_path / "digests.json"
    assert digest(outputs) != digest(perturbed)
    assert run.check_digest(store, "w/seed1", digest(outputs)) is None
    assert run.check_digest(store, "w/seed1", digest(outputs)) is None
    assert "differs" in run.check_digest(store, "w/seed1", digest(perturbed))


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit(name)) for name in run.PER_LAYER
    ]


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_measured_run(workload):
    result = _result(
        _bench("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", "0", "--scale", "smoke")
    )
    assert list(result["metrics"]) == list(run.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run_accounts_for_its_wall_time(workload):
    result = _result(
        _bench("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", "1", "--scale", "smoke")
    )
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(values) == run.PER_LAYER
    covered = sum(values[m] for m in TIME_METRICS) + values["other_s"]
    assert covered == pytest.approx(values["trace.wall_s"], abs=1e-6)
    assert values["trace.overhead_s"] == pytest.approx(
        values["trace.wall_s"] - values["trace.untraced_wall_s"]
    )
    assert values["sim.slots"] > 0 and values["trace.spans"] > 0
    assert values["exp.cache_hit_ratio"] == 0  # every run starts from an empty cache


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2f-n128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
