#!/usr/bin/env python3
"""Seeded benchmark of the hfcone command line, end to end and per layer.

Usage (from the root of a checkout):

    python3 hfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Every query is an argv list run through ``hfcone.cli.main`` in this
process, one after another (a closed loop with one client), with stdout
captured and checked after timing. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` splits the time between untraced and traced
passes and reports the per-layer metrics from spans around the public
functions of ``cli``, ``profiles``, ``cone``, ``exactla`` and ``cfk``.
Times are in reference seconds (see ``clock.py``); raw times are printed
and saved alongside.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
query is correct, 1 when any is not, and 2 when the benchmark cannot
run (for example without the hfcone sources next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".hfbench"

import checks  # noqa: E402
import clock  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

DEFAULT_SEED = 1
MIN_SAMPLES = 100  # pooled query latencies a run needs for its p90
SETUP_SPAWNS = 7
# sampled classes checked against the sympy oracle, and the widest cone tried
ORACLE = {"sweep": (20, 200), "wide": (3, 400), "random-mix": (40, 400)}
# cheap queries that touch every code path once before timing
WARMUP = (
    ["hf", "--profile", "fig8", "--framing", "-5/1"],
    ["hf", "--profile", "kfam:m=1,k=1", "--framing", "7/2", "--format", "json"],
    ["ell", "--profile", "lspace:g=2", "--framing", "-9/2"],
    ["staircase", "--alexander", "1,-1,0,1,0,-1,1", "--emit-profile"],
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("query_ms_p50", "ms", "lower"),
    ("query_ms_p90", "ms", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# name, unit, better; the source key in Tracer.per_pass when it differs
PER_LAYER = (
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower", "cli.main.self_s"),
    ("cli.out_bytes", "bytes", "lower"),
    ("profiles.parse.calls", "count", "lower"),
    ("profiles.parse.total_s", "s", "lower"),
    ("profiles.builtin.total_s", "s", "lower"),
    ("profiles.serialize.total_s", "s", "lower"),
    ("cone.surgery_report.self_s", "s", "lower"),
    ("cone.spinc_group.calls", "count", "lower"),
    ("cone.spinc_group.self_s", "s", "lower"),
    ("cone.window_slots", "count", "lower"),
    ("cone.unique_signature_ratio", "ratio", "lower"),
    ("exactla.smith_normal_form.calls", "count", "lower"),
    ("exactla.smith_normal_form.total_s", "s", "lower"),
    ("exactla.smith_normal_form.cells", "count", "lower"),
    ("exactla.smith_normal_form.nnz", "count", "lower"),
    ("exactla.smith_normal_form.max_cols", "count", "lower"),
    ("exactla.smith_normal_form.torsion_divisors", "count", "lower"),
    ("exactla.snf_with_transforms.calls", "count", "lower"),
    ("exactla.snf_with_transforms.total_s", "s", "lower"),
    ("exactla.mul.calls", "count", "lower"),
    ("exactla.mul.total_s", "s", "lower"),
    ("cfk.homology.calls", "count", "lower"),
    ("cfk.homology.self_s", "s", "lower"),
    ("cfk.to_profile.self_s", "s", "lower"),
    ("cfk.validate.total_s", "s", "lower"),
    ("cfk.generators", "count", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("size.queries", "count", "lower"),
    ("size.classes", "count", "lower"),
    ("size.slices", "count", "lower"),
    ("classes_per_s", "1/s", "higher"),
    ("slices_per_s", "1/s", "higher"),
)
_SPAN_SUFFIXES = (".calls", ".total_s", ".self_s")


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Pass:
    raw: list[float]  # seconds per query
    scaled: list[float]  # reference seconds per query
    rcs: list
    digests: list[bytes]
    texts: list[str]  # kept for the first pass of a phase only
    errors: dict[int, str] = field(default_factory=dict)
    out_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.scaled)


def run_pass(cli, queries, keep_text: bool, tracer: Tracer | None = None, index: int = 0) -> Pass:
    n = len(queries)
    probes = [clock.probe()]
    last = perf_counter()
    before = []
    result = Pass([], [], [], [], [])
    for k, query in enumerate(queries):
        if perf_counter() - last >= clock.PROBE_GAP_S:
            probes.append(clock.probe())
            last = perf_counter()
        before.append(len(probes) - 1)
        if tracer is not None:
            tracer.query_id = index * n + k
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(query.argv)
        except Exception:  # counted as a failed query, the run goes on
            rc = None
            result.errors[k] = traceback.format_exc(limit=4)
        result.raw.append(perf_counter() - t0)
        text = out.getvalue()
        data = text.encode()
        result.rcs.append(rc)
        result.out_bytes += len(data)
        result.digests.append(hashlib.blake2b(data, digest_size=16).digest())
        if keep_text:
            result.texts.append(text)
    probes.append(clock.probe())
    result.scaled = [
        raw * clock.scale(probes[b], probes[b + 1]) for raw, b in zip(result.raw, before)
    ]
    return result


def measure(cli, queries, seconds: float, min_passes: int, tracer=None) -> list[Pass]:
    passes: list[Pass] = []
    t_start = perf_counter()
    while len(passes) < min_passes or perf_counter() - t_start < seconds:
        if tracer is not None:
            tracer.begin_pass()
        passes.append(run_pass(cli, queries, not passes, tracer, len(passes)))
        if tracer is not None:
            tracer.end_pass(sum(q.items for q in queries if q.kind != "staircase"))
    return passes


def measure_setup(spawns: int, job: Path) -> tuple[list[float], list[float], dict]:
    """setup_s samples (scaled and raw) from fresh interpreters; the last
    one also runs one pass over ``job`` and reports its peak RSS."""
    scaled, raw, report = [], [], {}
    for k in range(spawns):
        run_job = k == spawns - 1
        p0 = clock.probe()
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(SRC)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            ready = proc.stdout.readline()
            elapsed = perf_counter() - t0
            p1 = clock.probe()
            out, err = proc.communicate(f"{job}\n" if run_job else "\n", timeout=150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"fresh interpreter failed (exit {proc.returncode}): {err.strip()[-500:]}")
        raw.append(elapsed)
        scaled.append(elapsed * clock.scale(p0, p1))
        if run_job:
            report = json.loads(out.strip().splitlines()[-1])
    return scaled, raw, report


def tail_percentile(sorted_values: list[float]) -> tuple[int, float]:
    """The highest percentile, at most 90, with at least ten samples above
    it (nearest rank), and its value."""
    n = len(sorted_values)
    pct = 90 if n >= 100 else max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted_values[rank - 1]


def check_outputs(name, queries, passes, seed, child) -> tuple[int, int, list[str]]:
    """(attempted, failed, report lines) over every pass and the child."""
    first = passes[0]
    notes = []
    verdicts = [
        checks.check_query(q, first.rcs[k], first.texts[k]) for k, q in enumerate(queries)
    ]
    for k, tb in first.errors.items():
        verdicts[k].append("raised: " + tb.strip().splitlines()[-1])
    if name in ORACLE:
        count, max_cols = ORACLE[name]
        sampled, oracle_problems = checks.oracle_sample(
            queries, first.texts, seed, count, max_cols
        )
        for k, problems in oracle_problems.items():
            verdicts[k].extend(problems)
        notes.append(f"oracle: {sampled} sampled classes recomputed with sympy")
    attempted = failed = 0
    for p in passes:
        for k in range(len(queries)):
            attempted += 1
            if verdicts[k] or p.rcs[k] != 0 or k in p.errors or p.digests[k] != first.digests[k]:
                failed += 1
    attempted += child.get("queries", 0)
    failed += child.get("failed", 0)
    notes += [
        f"query {k} {' '.join(queries[k].argv)[:120]}: {'; '.join(v)[:300]}"
        for k, v in enumerate(verdicts)
        if v
    ]
    return attempted, failed, notes


def layer_metrics(tracer: Tracer, traced: list[Pass], untraced: list[Pass], wl) -> tuple[dict, list]:
    nq = len(wl.queries)
    scale_by_query = [s / r if r else 1.0 for p in traced for s, r in zip(p.scaled, p.raw)]
    rows = tracer.per_pass(nq, scale_by_query)
    for row, p in zip(rows, traced):
        row["cli.out_bytes"] = p.out_bytes
    wall = statistics.median(p.wall for p in untraced)
    items = sum(q.items for q in wl.queries)
    classes = items if wl.item_name == "classes" else 0
    slices = items if wl.item_name == "slices" else 0
    derived = {
        "trace_overhead_ratio": statistics.median(p.wall for p in traced) / wall - 1,
        "size.queries": nq,
        "size.classes": classes,
        "size.slices": slices,
        "classes_per_s": classes / wall,
        "slices_per_s": slices / wall,
    }
    out, absent = {}, []
    for name, unit, _, *source in PER_LAYER:
        key = source[0] if source else name
        if key in derived:
            value = derived[key]
        else:
            span = key.rsplit(".", 1)[0] if key.endswith(_SPAN_SUFFIXES) else None
            if key in tracer.absent or span in tracer.absent:
                absent.append(name)
            value = statistics.median(row.get(key, 0) for row in rows)
        out[name] = {"value": value, "unit": unit}
    return out, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a few cheap queries, for smoke tests",
    )
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BenchError as e:
        print(f"hfbench: {e}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if not (SRC / "hfcone" / "cli.py").is_file():
        raise BenchError(f"no hfcone sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    try:
        import sympy  # noqa: F401  (the oracle needs it; fail before timing)
    except ImportError:
        raise BenchError("sympy is required for the correctness oracle") from None
    import hfcone.cli as cli

    tiny = args.size == "tiny"
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    file_dir = OUT / f"files-{tag}"
    wl = workloads.make(args.workload, args.seed, args.size, str(file_dir))
    queries = wl.queries
    try:
        # set-up, outside any timing: profile files and the child's job
        file_dir.mkdir()
        for fname, text in wl.files.items():
            (file_dir / fname).write_text(text, encoding="utf-8")
        job = file_dir / "queries.json"
        job.write_text(json.dumps([q.argv for q in queries]), encoding="utf-8")
        for argv in WARMUP:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)

        min_passes = 2 if tiny else max(3, math.ceil(MIN_SAMPLES / len(queries)))
        result = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "trace": args.trace}
        child = {}
        if args.trace:
            untraced = measure(cli, queries, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(cli, queries, args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            metrics, absent = layer_metrics(tracer, traced, untraced, wl)
            tracer.write(str(OUT / f"trace-{args.workload}.tsv"))
            result["absent"] = absent
        else:
            setup, setup_raw, child = measure_setup(2 if tiny else SETUP_SPAWNS, job)
            passes = measure(cli, queries, args.seconds, min_passes)
            metrics, notes = e2e_metrics(wl, passes, setup, setup_raw, child)
            result["notes"] = notes
        attempted, failed, check_notes = check_outputs(args.workload, queries, passes, args.seed, child)
    finally:
        shutil.rmtree(file_dir, ignore_errors=True)

    result.update(attempted=attempted, failed=failed, metrics=metrics, checks=check_notes,
                  pass_walls_raw=[sum(p.raw) for p in passes],
                  pass_walls=[p.wall for p in passes])
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")

    print(f"hfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"passes={len(passes)} queries/pass={len(queries)} "
          f"{wl.item_name}/pass={sum(q.items for q in queries)}")
    for name, m in metrics.items():
        note = result.get("notes", {}).get(name, "")
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:6s} {note}")
    if args.trace and result["absent"]:
        print(f"  absent (no such function or counter): {', '.join(result['absent'])}")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for line in check_notes[:20]:
        print(f"  {line}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def e2e_metrics(wl, passes: list[Pass], setup, setup_raw, child) -> tuple[dict, dict]:
    walls = [p.wall for p in passes]
    lat_ms = sorted(x * 1e3 for p in passes for x in p.scaled)
    raw_ms = sorted(x * 1e3 for p in passes for x in p.raw)
    items = sum(q.items for q in wl.queries)
    pct, p90 = tail_percentile(lat_ms)
    n = len(lat_ms)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "query_ms_p50": statistics.median(lat_ms),
        "query_ms_p90": p90,
        "items_per_s": statistics.median(items / w for w in walls),
        "peak_rss_mb": child["peak_rss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters (raw {statistics.median(setup_raw):.4f} s)",
        "wall_s": f"median of {len(walls)} passes (raw {statistics.median(sum(p.raw) for p in passes):.4f} s)",
        "query_ms_p50": f"n={n} pooled queries (raw {statistics.median(raw_ms):.4f} ms)",
        "query_ms_p90": f"p{pct}, n={n}, {n - math.ceil(pct * n / 100)} beyond "
                        f"(raw {tail_percentile(raw_ms)[1]:.4f} ms)",
        "items_per_s": f"{wl.item_name} per second, {items} per pass",
        "peak_rss_mb": "one pass in a fresh interpreter",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
