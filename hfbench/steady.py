#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 hfbench/steady.py                      # one run per workload, full reports
    python3 hfbench/steady.py --runs 10            # steadiness check, seeds 1..10
    python3 hfbench/steady.py --runs 5 --workload wide --first-seed 11

Each run is ``run.py --workload W --seed S --seconds <run_seconds>``
from ``BENCHMARK.json``. For every end-to-end metric the script prints
the median over runs, the spread (distance between the first and third
quartiles, as ``statistics.quantiles(values, n=4)`` gives them, over the
median) and the bound, flagging spreads above a third of the bound.
``--trace 1`` reports the per-layer metrics instead, without bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "hfbench"))

import clock  # noqa: E402
import run  # noqa: E402


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--baseline", help="merge medians and quartiles, with machine facts, into this JSON file"
    )
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    record: dict[str, list[dict]] = {}
    bad = False
    for name in names:
        record[name] = []
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                      f"{proc.stderr[-2000:]}")
                bad = True
                continue
            result = json.loads(lines[-1])
            record[name].append(result)
            if args.runs == 1:  # the run's own report: units, sample counts, checks
                print("\n".join(lines[:-1]), flush=True)
                continue
            vals = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                            for m in metrics[:8])
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} {vals}",
                  flush=True)

    print()
    print(f"{'workload':11s} {'metric':44s} {'median':>12s} {'unit':6s} "
          f"{'spread':>7s} {'bound':>6s}  runs")
    for name in names:
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in record[name]]
            if not values:
                continue
            s = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None and s is not None and s >= bound / 3:
                flag = " above bound/3" if m["name"] != "setup_s" else " (setup_s: not gated)"
            print(f"{name:11s} {m['name']:44s} {statistics.median(values):12.6g} "
                  f"{m['unit']:6s} {'-' if s is None else f'{s:.4f}':>7s} "
                  f"{'-' if bound is None else bound:>6}  {len(values)}{flag}")
    if args.baseline:
        write_baseline(Path(args.baseline), record, metrics, args, bench["run_seconds"])
    return 1 if bad else 0


def write_baseline(path: Path, record: dict, metrics: list[dict], args, seconds) -> None:
    """Merge [q1, median, q3] per workload and metric (the value alone for a
    single run) into ``path``, with the run settings and machine facts."""
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc["default_seed"] = run.DEFAULT_SEED
    doc["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "reference_probe_s": clock.PROBE_REF_S,
    }
    section = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
    section.update(runs=args.runs, first_seed=args.first_seed, seconds=seconds)
    for name, results in record.items():
        rows = section.setdefault("workloads", {})[name] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if len(values) > 1:
                q1, med, q3 = statistics.quantiles(values, n=4)
                rows[m["name"]] = [q1, statistics.median(values), q3]
            elif values:
                rows[m["name"]] = values[0]
    text = json.dumps(doc, indent=1)
    # one line per quartile triple
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda hit: "[" + " ".join(hit.group(1).split()) + "]", text)
    path.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
