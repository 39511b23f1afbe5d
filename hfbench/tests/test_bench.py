"""Smoke tests for the benchmark itself, on tiny workloads.

Run from the root of a checkout: python3 -m pytest -q hfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_matches_the_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [m[0] for m in run.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_traced_layers_follow_the_workload():
    layers = {}
    for workload in ("sweep", "derive"):
        proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                      "--trace", "1", "--size", "tiny")
        layers[workload] = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert layers["sweep"]["cone.spinc_group.calls"]["value"] > 0
    assert layers["sweep"]["exactla.snf_with_transforms.calls"]["value"] == 0
    assert layers["derive"]["cone.spinc_group.calls"]["value"] == 0
    assert layers["derive"]["cfk.homology.calls"]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "hfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seeded_inputs():
    def argvs(seed):
        return [q.argv for q in workloads.make("sweep", seed).queries]

    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)
    totals = {sum(q.items for q in workloads.make("sweep", s).queries) for s in range(1, 6)}
    assert max(totals) < 1.03 * min(totals)


def test_checks_catch_wrong_answers():
    query = workloads.Query(["ell"], "ell", 37, "lspace:g=2", -37, 2, 2)
    assert checks.check_query(query, 0, "ell=31 total_rank=43\n") == []
    assert checks.check_query(query, 0, "ell=30 total_rank=43\n")
    assert checks.check_query(query, 65, "") == ["exit code 65"]

    hf = workloads.Query(["hf"], "hf", 5, "fig8", -5, 1, 1)
    good = "framing -5/1\ni=0: Z^3\n" + "".join(f"i={i}: Z^1 (L)\n" for i in range(1, 5))
    good += "ell=4 total_rank=7\n"
    assert checks.check_query(hf, 0, good) == []
    assert checks.check_query(hf, 0, good.replace("i=2: Z^1 (L)", "i=2: Z^3"))
    # a wrong group that stays consistent is caught by the oracle
    wrong = good.replace("i=0: Z^3", "i=0: Z^3 + Z/2")
    found = {}
    for seed in range(20):
        found.update(checks.oracle_sample([hf], [wrong], seed, 5, 100)[1])
    assert found


def test_oracle_agrees_with_program_on_random_profiles():
    from hfcone.cone import Framing, spinc_group
    from hfcone.profiles import parse

    wl = workloads.make("random-mix", 7, "tiny")
    for query in wl.queries[:10]:
        name = query.selector.rsplit("/", 1)[1]
        profile = parse(wl.files[name])
        for i in range(abs(query.p)):
            group = spinc_group(profile, Framing(query.p, query.q), i)
            rows = checks.cone_rows(query.genus, query.local, query.p, query.q, i)
            assert checks.oracle_group(rows) == (group.free_rank, group.torsion)


def test_tracer_reports_missing_functions_as_absent(monkeypatch):
    targets = spans.TARGETS + (("hfcone.cone", "no_such_function", "cone.gone"),)
    monkeypatch.setattr(spans, "TARGETS", targets)
    # a counter hook that breaks marks its counters absent, and the call still works
    hook = lambda tracer, args, result: 1 / 0  # noqa: E731
    monkeypatch.setitem(spans.HOOKS, "cfk.to_profile", (hook, ("cfk.generators",)))
    import hfcone.cli as cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        tracer.query_id = 0
        assert cli.main(["staircase", "--alexander", "1,-1,1", "--emit-profile"]) == 0
        tracer.end_pass(0)
    finally:
        tracer.uninstall()
    assert "cone.gone" in tracer.absent
    assert "cfk.generators" in tracer.absent
    assert "cfk.to_profile" not in tracer.absent
    row = tracer.per_pass(1, [1.0])[0]
    assert row["cfk.to_profile.calls"] == 1
    assert row["cfk.homology.calls"] >= 1
    assert row["cli.main.self_s"] <= row["cli.main.total_s"]


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail_percentile([float(x) for x in range(1, 101)]) == (90, 90.0)
    pct, value = run.tail_percentile([float(x) for x in range(1, 61)])
    assert pct == 83 and 60 - value >= 10
