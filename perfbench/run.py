"""The repository benchmark: three in-process workloads, end to end and per layer.

Measured run (the end-to-end metrics, tracing off)::

    python3 perfbench/run.py --workload paper-n4096 --seed 1 --seconds 42 --trace 0

Traced run (the per-layer metrics and the tracing overhead)::

    python3 perfbench/run.py --workload paper-n4096 --seed 1 --seconds 42 --trace 1

Stability mode (sets of measured runs; medians, quartiles, set gaps)::

    python3 perfbench/run.py --stability --sets 2 --runs 5 --seconds 42

Every repetition runs in a fresh process (``child.py``) with ``src`` on
``PYTHONPATH``, fresh empty ``REPRO_CACHE_DIR``/``REPRO_RUNS_DIR``,
BLAS/OpenMP threads capped at the CPUs this process may use, and no
schedule cache.  A measured run repeats its workload until ``--seconds``
is spent (at least twice) and reports per-metric medians; a traced run
makes one untraced and one traced repetition.  The last line of standard
output is the JSON result; run records, spans and output digests go to
``.perfbench-out/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
CHILD = HERE / "child.py"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper-n4096", "fig2f-n128", "adaptive-drift")
END_TO_END = {"wall_s": "s", "setup_s": "s", "slots_per_s": "1/s", "peak_rss_mib": "MiB"}
TRACE_METRICS = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans"]
PER_LAYER = LAYER_METRICS + TRACE_METRICS

MIN_REPS = 2
MAX_REPS = 20
#: Every run must end within 180 s; no repetition starts past this.
RUN_LIMIT_S = 165.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def unit(metric: str) -> str:
    """The unit of an end-to-end or per-layer metric."""
    if metric in END_TO_END:
        return END_TO_END[metric]
    for suffix, name in (
        ("_mib", "MiB"),
        ("us_per_slot", "us"),
        ("ns_per_cell", "ns"),
        ("_per_s", "1/s"),
        ("_ratio", "ratio"),
        ("_s", "s"),
    ):
        if metric.endswith(suffix):
            return name
    return "count"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    """Host stamp recorded with every run, so a disturbed set can be spotted."""

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "numba": pkg("numba") if importlib.util.find_spec("numba") else None,
        "nproc": nproc(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def source_hash() -> str:
    """Digest of the simulator and benchmark sources, to key stored digests."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(store: Path, key: str, digest: str):
    """Compare *digest* with the one an earlier run stored under *key*.

    The first run of a key stores its digest.  Returns a problem string
    on a mismatch, else None.
    """
    known = json.loads(store.read_text()) if store.exists() else {}
    previous = known.get(key)
    if previous is None:
        known[key] = digest
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
        return None
    if previous != digest:
        return f"output digest {digest[:12]} differs from {previous[:12]} of an earlier run"
    return None


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["REPRO_RUNS_DIR"] = str(work / "runs")
    env["TMPDIR"] = str(work / "tmp")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def run_rep(args, trace: bool, deadline: float) -> dict:
    """One repetition in a fresh process; returns its result record."""
    work = OUT / "work" / uuid.uuid4().hex[:12]
    (work / "tmp").mkdir(parents=True)
    result = work / "result.json"
    log = work / "child.log"
    cmd = [
        sys.executable, str(CHILD),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--trace", str(int(trace)),
        "--out", str(result),
    ]
    if trace:
        spans = OUT / "spans" / f"{args.workload}-{args.scale}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    rep = {"trace": trace, "load1_before": os.getloadavg()[0]}
    started = time.monotonic()
    try:
        with open(log, "w", encoding="utf-8") as fh:
            code = subprocess.run(
                cmd,
                cwd=ROOT,
                env=child_env(work),
                stdout=fh,
                stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - started),
            ).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    rep["elapsed_s"] = time.monotonic() - started
    rep["load1_after"] = os.getloadavg()[0]
    rep["code"] = code
    if code == 0 and result.exists():
        rep.update(json.loads(result.read_text()))
    else:
        rep["error"] = log.read_text()[-2000:] if log.exists() else ""
    shutil.rmtree(work, ignore_errors=True)
    return rep


def measure(args) -> list:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if args.trace:
        return [run_rep(args, False, deadline), run_rep(args, True, deadline)]
    reps = []
    while len(reps) < MAX_REPS:
        reps.append(run_rep(args, False, deadline))
        elapsed = time.monotonic() - start
        longest = max(rep["elapsed_s"] for rep in reps)
        if elapsed + longest > RUN_LIMIT_S:
            break
        if len(reps) >= MIN_REPS and elapsed + longest > args.seconds:
            break
    return reps


def summarize(args, reps: list) -> dict:
    attempted = failed = 0
    problems = []
    for rep in reps:
        if rep["code"] != 0:
            attempted += 1
            failed += 1
            problems.append(f"repetition exited with {rep['code']}: {rep['error'][-300:]}")
            continue
        attempted += len(rep["ops"])
        for op in rep["ops"]:
            if not op["ok"]:
                failed += 1
                problems.append(f"{op['name']}: {'; '.join(op['problems'])}")
        problems.extend(rep["problems"])
    ok = [rep for rep in reps if rep["code"] == 0]
    digests = sorted({rep["digest"] for rep in ok})
    if len(digests) > 1:
        problems.append("output digest differs between repetitions of one seed")
    elif digests:
        key = f"{args.workload}/{args.scale}/seed{args.seed}/src-{source_hash()}"
        OUT.mkdir(parents=True, exist_ok=True)
        mismatch = check_digest(OUT / "digests.json", key, digests[0])
        if mismatch:
            problems.append(mismatch)

    if args.trace:
        names = PER_LAYER
        values = {}
        if len(ok) == 2:
            untraced, traced = ok
            values = dict(traced["layers"])
            values["trace.wall_s"] = traced["wall_s"]
            values["trace.untraced_wall_s"] = untraced["wall_s"]
            values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            values["trace.spans"] = traced["spans"]
    else:
        names = list(END_TO_END)
        values = {}
        for name in names:
            samples = [rep[name] for rep in ok if rep.get(name) is not None]
            if samples:
                values[name] = statistics.median(samples)
        missing = [name for name in names if name not in values]
        if missing:
            problems.append(f"no value for {', '.join(missing)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name), "unit": unit(name)} for name in names
        },
        "problems": problems,
    }


def _shown(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_run(args, reps: list, summary: dict, env: dict) -> None:
    mode = "traced" if args.trace else "measured"
    print(
        f"perfbench {args.workload} seed={args.seed} scale={args.scale} {mode}: "
        f"{len(reps)} repetitions, {summary['attempted']} operations, "
        f"{summary['failed']} failed"
    )
    for i, rep in enumerate(reps, 1):
        if rep["code"] != 0:
            print(f"  rep {i}: exit {rep['code']}")
            continue
        timings = "  ".join(f"{name} {_shown(rep[name])}" for name in END_TO_END)
        print(
            f"  rep {i}{' (traced)' if rep['trace'] else ''}: {timings}  "
            f"load1 {rep['load1_before']:.2f}->{rep['load1_after']:.2f}  "
            f"digest {rep['digest'][:12]}"
        )
    for name, metric in summary["metrics"].items():
        print(f"  {name:28s} {_shown(metric['value']):>14} {metric['unit']}")
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}")
    print("env: " + json.dumps(env, sort_keys=True))


def run_once(args) -> int:
    env = environment()
    reps = measure(args)
    summary = summarize(args, reps)
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "reps": [{k: v for k, v in rep.items() if k != "ops"} for rep in reps],
        "summary": summary,
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print_run(args, reps, summary, env)
    result = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0


def _bounds() -> dict:
    if not SPEC.exists():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(SPEC.read_text())["end_to_end"]}


def spread(values: list):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes it."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def stability(args) -> int:
    """Run sets of measured runs and report per-metric spread and set gaps."""
    workloads = args.workloads.split(",")
    seeds = list(range(args.seed, args.seed + args.runs))
    records = []
    for set_index in range(args.sets):
        for workload in workloads:
            for seed in seeds:
                cmd = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                    "--scale", args.scale,
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
                records.append(
                    {"set": set_index, "workload": workload, "seed": seed, "result": result}
                )
                values = {k: v["value"] for k, v in result["metrics"].items()}
                print(
                    f"set {set_index} {workload} seed {seed}: correct={result['correct']} "
                    + " ".join(f"{k}={v:.6g}" for k, v in values.items() if v is not None),
                    flush=True,
                )
    bounds = _bounds()
    table = []
    print()
    print(
        f"{'workload':16s} {'metric':14s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
        f"{'spread':>7s} {'bound':>6s} {'set gap':>8s}"
    )
    for workload in workloads:
        for metric in END_TO_END:
            per_set = [
                [
                    r["result"]["metrics"][metric]["value"]
                    for r in records
                    if r["workload"] == workload and r["set"] == s
                    and r["result"]["metrics"].get(metric, {}).get("value") is not None
                ]
                for s in range(args.sets)
            ]
            pooled = [v for values in per_set for v in values]
            if not pooled:
                continue
            median, q1, q3, rel = spread(pooled)
            medians = [statistics.median(v) for v in per_set if v]
            gap = max(medians) / min(medians) - 1.0 if len(medians) > 1 else 0.0
            bound = bounds.get(metric)
            row = {
                "workload": workload, "metric": metric, "median": median,
                "q1": q1, "q3": q3, "spread": rel, "bound": bound,
                "set_gap": gap, "set_medians": medians,
            }
            table.append(row)
            flag = "" if bound is None or rel <= bound / 3 else "  wide"
            print(
                f"{workload:16s} {metric:14s} {median:11.5g} {q1:11.5g} {q3:11.5g} "
                f"{rel:7.3%} {'-' if bound is None else format(bound, '.2f'):>6s} "
                f"{gap:8.3%}{flag}"
            )
    all_correct = all(r["result"]["correct"] for r in records)
    print(f"\nall runs correct: {all_correct}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "stability.json").write_text(
        json.dumps(
            {"env": environment(), "seconds": args.seconds, "seeds": seeds,
             "table": table, "runs": records},
            indent=1,
        )
    )
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="'smoke' runs the same code paths at a tiny scale (tests only)",
    )
    parser.add_argument("--stability", action="store_true",
                        help="run --sets sets of --runs seeds per workload")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.stability:
        return stability(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    raise SystemExit(main())
