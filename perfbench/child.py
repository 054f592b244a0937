"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, with ``src`` on
``PYTHONPATH`` and fresh cache and journal directories::

    python3 perfbench/child.py --workload fig2f-n128 --seed 1 --scale full \\
        --trace 0 --out result.json [--spans spans.jsonl]

The clock starts before ``import repro``.  The result — timings, peak
RSS, operation verdicts, the output digest and, when traced, the
per-layer metrics — is written as JSON to ``--out``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    import workloads  # the first ``import repro``
    from spans import Probe, Tracer

    probe = Probe().install()
    tracer = Tracer(f"{args.workload}-seed{args.seed}").install() if args.trace else None
    try:
        outcome = workloads.run(args.workload, args.seed, args.scale)
        digest = workloads.digest(outcome.outputs)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.uninstall()

    wall = end - T0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ran =probe.first_start is not None and probe.last_finish is not None
    result = {
        "wall_s": wall,
        "setup_s": probe.first_start - T0 if ran else None,
        "slots_per_s": (
            probe.slots / (probe.last_finish - probe.first_start) if ran else None
        ),
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "ops": outcome.ops,
        "problems": outcome.problems,
        "digest": digest,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
