"""Run one benchmark workload on the live cluster and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpcb-fastdisk --seed 1 --seconds 15 --trace 0

``--trace 0`` sets the cluster up ``SETUPS`` times (``setup_s`` is the
median), measures one untraced window and prints the end-to-end metrics.
``--trace 1`` measures an untraced window and then a traced one on a fresh
cluster, writes the trace to ``perfbench/out/`` and prints the per-layer
metrics derived from it, with the tracing overhead.  Every window is
followed by the output checks.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A whole run must end well inside three minutes; the alarm turns a wedged
#: cluster into an error exit.  It raises ``SystemExit``, which no handler in
#: the driver catches and asyncio propagates, so the cluster context
#: managers still reap every node on the way out.
RUN_DEADLINE_S = 170


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def _expired(signum, frame):
    raise SystemExit(f"benchmark run exceeded {RUN_DEADLINE_S}s")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "live").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import bench

    spec = bench.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(RUN_DEADLINE_S)
    out_dir = ROOT / "perfbench" / "out"

    setups = []
    if not args.trace:
        setups = [bench.setup_only(spec, args.seed, out_dir)
                  for _ in range(bench.SETUPS - 1)]
    run = bench.measured_run(spec, args.seed, args.seconds, out_dir, traced=False)
    runs = [run]
    start, end = run.driver.window
    untraced_tps = run.driver.committed / (end - start)
    if args.trace:
        traced = bench.measured_run(spec, args.seed, args.seconds, out_dir,
                                    traced=True)
        runs.append(traced)
        doc = bench.trace_document(traced, spec, args.seed, untraced_tps)
        doc["series"] = bench.time_series(doc)
        path = out_dir / f"trace-{spec.name}-seed{args.seed}.json"
        bench.write_trace(doc, path)
        with open(path, encoding="utf-8") as handle:
            metrics = bench.per_layer_metrics(json.load(handle))
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        metrics = bench.end_to_end_metrics(
            run, [r.setup_s for r in setups] + [run.setup_s])
    signal.alarm(0)

    failures = [f for r in setups + runs
                for f in r.driver.failures + r.check_failures]
    for r in runs:
        d = r.driver
        print(json.dumps({
            "traced": d.traced, "attempted": d.attempted, "committed": d.committed,
            "txn_samples": len(d.txn_s), "commit_samples": len(d.commit_s),
            "ro_txn_samples": len(d.ro_txn_s),
            "ro_txn_p50_ms": bench.percentile(d.ro_txn_s, 0.50) * 1e3
            if d.ro_txn_s else None,
            "ro_txn_p95_ms": bench.percentile(d.ro_txn_s, 0.95) * 1e3
            if d.ro_txn_s else None,
            "aborts": dict(d.aborts),
            "setup_s": round(r.setup_s, 3), "driver_threads": d.threads_seen,
            "host_steal_frac": round(d.host_steal_frac, 4),
            "check_failures": r.check_failures, "failures": d.failures[:5]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": max(len(failures),
                         sum(r.driver.attempted for r in setups + runs)),
        "failed": len(failures),
        "metrics": _metrics(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
